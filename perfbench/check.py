"""Correctness gate: judges each replayed line against its spec.

Decided answers are checked by oracles off the code path under test: sign
strings and ordinals by `oracle`, compiled `:num` counts by cross-multiplied
`nf_eq` against the generator's closed form, natural `:ord` results by the
oracle's Hessenberg arithmetic and (for the first few) the `embed`
homomorphism, fixed lines by hand-written expectations.  `unknown` is
never wrong, only counted.

A failure whose signature matches a listed defect of the seed library is
tagged with its letter; the JSON `failed` count excludes those, `error_share`
includes them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Optional

from corpus import Line

STATE_VERBS = (":assert_order", ":mode_bb")
ANSWER_VERBS = (":cmp", ":st", ":measure")


class Verdict(NamedTuple):
    failed: bool
    unknown: bool
    why: str = ""  # failure class: raised, budget, died, error-class, oracle
    defect: str = ""


OK = Verdict(False, False)
UNKNOWN = Verdict(False, True)


class State:
    """The part of the session table that fixed-line expectations depend on."""

    def __init__(self) -> None:
        self.asserted = False
        self.bb = False

    def apply(self, text: str) -> None:
        """Follow a line the session accepted; other lines change nothing."""
        if text.startswith(":assert_order"):
            self.asserted = True
        elif text == ":mode_bb on":
            self.bb = True
        elif text == ":mode_bb off":
            self.bb = False


def probe_expectation(name: str, state: State) -> str:
    """Exact answer a probe must give in this state ("unknown" = undecided)."""
    if name == "beta-X":
        return "unknown"
    if name == "alpha2-beta":
        return "less" if state.asserted else "unknown"
    if name == "st-alpha-beta":
        return "0" if state.asserted else "unknown"
    if name == "measure-R-alpha":
        return "+infinity" if state.asserted else "unknown"
    if name == "beth1-beta":
        return "greater" if state.bb else "unknown"
    raise KeyError(name)


# Natural :ord results are all compared with the oracle's own Hessenberg
# arithmetic; the first EMBED_CHECKS of them also through the embed
# homomorphism, which costs milliseconds a line.
EMBED_CHECKS = 25


class Checker:
    def __init__(self, parser, field):
        self.parser = parser
        self.field = field
        self._memo: dict = {}
        self._embeds_left = EMBED_CHECKS

    def _parsed(self, text: str):
        if text not in self._memo:
            self._memo[text] = self.parser.parse_num(text)
        return self._memo[text]

    def _nf_equal(self, got: str, want: str) -> bool:
        key = ("nf", got, want)
        if key not in self._memo:
            self._memo[key] = self.field.nf_eq(self._parsed(got), self._parsed(want))
        return self._memo[key]

    def _embed_ok(self, got: str, a: str, op: str, b: str) -> bool:
        key = ("embed", got, a, op, b)
        if key not in self._memo:
            f, p = self.field, self.parser.parse_ordinal
            x, y = f.embed(p(a)), f.embed(p(b))
            want = f.nf_add(x, y) if op == "+" else f.nf_mul(x, y)
            self._memo[key] = f.nf_eq(f.embed(p(got)), want)
        return self._memo[key]

    def verdict(self, line: Line, state: State, err: Optional[str], status: str,
                value: str) -> Verdict:
        try:
            return self._verdict(line, state, err, status, value)
        except Exception as exc:  # an unparsable answer is a wrong answer
            return Verdict(True, False, f"oracle ({type(exc).__name__})")

    def _verdict(self, line, state, err, status, value) -> Verdict:
        kind = line.spec[0]
        if err is not None:
            return self._error_verdict(line, err, value)
        if kind == "err":
            return Verdict(True, False, "error-class")
        if status == "unknown":
            return UNKNOWN  # never wrong, only counted
        ok = self._decided_ok(line, state, value)
        return OK if ok else Verdict(True, False, "oracle")

    def _decided_ok(self, line: Line, state: State, value: str) -> bool:
        kind, *args = line.spec
        if kind == "num":
            return self._nf_equal(value, args[0])
        if kind in ("cmp", "exact", "state"):
            return value == args[0]
        if kind == "st":
            want = args[0]
            return value == want if isinstance(want, str) else Fraction(value) == want
        if kind == "ord_nat":
            if value != args[3]:
                return False
            if self._embeds_left > 0:
                self._embeds_left -= 1
                return self._embed_ok(value, *args[:3])
            return True
        if kind == "label":
            got = tuple((r["check"], r["status"]) for r in json.loads(value))
            return got == args[0]
        if kind == "probe":
            if args[0] == "deep-nesting":
                return self._nf_equal(value, "alpha + 1")
            return value == probe_expectation(args[0], state)
        raise KeyError(kind)

    def _error_verdict(self, line: Line, err: str, value: str) -> Verdict:
        kind = line.spec[0]
        if kind == "err" and err == line.spec[1]:
            return OK
        if line.defect == "D" and err == "parse":
            return OK  # an explicit nesting limit is a right answer too
        why = err if err in ("raised", "budget", "died") else "error-class"
        if err == "eval" and "non-subtractable ordinal pair" in value:
            return Verdict(True, False, why, "A")
        if line.defect == "C" and err == "budget":
            return Verdict(True, False, why, "C")
        if line.defect == "D" and err == "raised" and value.startswith("RecursionError"):
            return Verdict(True, False, why, "D")
        if (kind == "err" and line.spec[1] == "parse" and err == "eval"
                and "invalid literal for int()" in value):
            return Verdict(True, False, why, "E")
        return Verdict(True, False, why)
