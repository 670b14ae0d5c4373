"""The flat-token parser against the recursive-descent reference in `ref_parser`.

Both parse the same argument text with the entry point the calculator uses
for its verb; they must return values of the same shape (see `_shape`) or
raise the same exception with the same text, which for a ParseError includes
the column and the caret line.  There are four exceptions: an
order-assertion monomial with an empty factor, which the reference reads as
the unit monomial and the parser rejects (see `_empty_monomial`), a non-dyadic `:simplest` bound, which the reference
reports at column 1 of the reduced rational's text and the parser at the
rational in the line (see `_non_dyadic_bound`), a natural-number literal
over the digit budget, where the reference's `int()` raises Python's
ValueError and the parser a ParseError at the literal (see `_long_literal`),
and a zero denominator in a rational or dyadic literal, where the reference's
`Fraction` raises ZeroDivisionError and the parser a ParseError at the
denominator (see `_zero_denominator`).
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import re
import sys

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ref_parser as ref
from numerosity import cli, field, ordinals, sets
from numerosity import parser as new
from test_cli import MALFORMED_LINES

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import corpus  # noqa: E402

# The parser each verb hands its argument text to (see `cli.eval_line`), and
# the label-tree element parser that instance files use.
ENTRIES = {
    ":num": "parse_set", ":st": "parse_num", ":cmp": "parse_comparands",
    ":measure": "parse_measure", ":ord": "parse_ordinal", ":sur": "parse_surreal",
    ":simplest": "parse_dyadic_sets", ":labelcheck": "parse_labelcheck",
    ":assert_order": "parse_order_assertion", ":mode_bb": "parse_switch",
    ":elem": "parse_elem",
}


def _shape(value):
    """A comparable form of a parsed value.  A tuple is taken apart with its class
    name kept, since set nodes are tuples and `N` and `N+` are both the empty
    tuple; the reference's OrderAssertion, a dataclass, is taken apart by field."""
    if isinstance(value, field.NumExpr):
        return value.num, value.den
    if isinstance(value, tuple):
        return type(value).__name__, tuple(map(_shape, value))
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(_shape(getattr(value, f.name)) for f in dataclasses.fields(value))
    return repr(value)


def outcome(module, verb: str, rest: str):
    try:
        return "value", _shape(getattr(module, ENTRIES[verb])(rest))
    except Exception as exc:  # a ParseError, or an evaluation error while parsing
        return type(exc).__name__, str(exc)


def assert_same(line: str) -> None:
    verb, _, rest = line.strip().partition(" ")
    if verb not in ENTRIES:
        verb = ":st"
    rest = rest.strip()
    got, want = outcome(new, verb, rest), outcome(ref, verb, rest)
    if got != want and verb == ":assert_order" and _empty_monomial(rest, got, want):
        return
    if got != want and verb == ":simplest" and _non_dyadic_bound(rest, got, want):
        return
    if got != want and _long_literal(rest, got, want):
        return
    if got != want and _zero_denominator(got, want):
        return
    assert got == want, line


_GENERATORS = ("alpha", "beta", "beth1", "X", "w")


def _column(message: str) -> int:
    return int(re.match(r"at column (\d+):", message).group(1)) - 1


def _empty_monomial(rest: str, got, want) -> bool:
    """The one place the parsers differ: the reference reads an empty product as
    the unit monomial (at the start of a side, or after a trailing `*`), where
    the new parser rejects the slot.  True if `got` is that rejection, at a
    token that opens a factor and is no generator, and the reference did not
    fail before it."""
    if got[0] != "ParseError" or "expected a generator" not in got[1]:
        return False
    col = _column(got[1])
    toks = ref.tokenize(rest)
    k = [t.pos for t in toks].index(col)
    if toks[k].text in _GENERATORS or not (k == 0 or toks[k - 1].text in ("*", "<")):
        return False
    return want[0] != "ParseError" or _column(want[1]) >= col


def _non_dyadic_bound(rest: str, got, want) -> bool:
    """The other place the parsers differ: the reference reports a non-dyadic
    bound q at column 1 under the text of q, the parser at the rational's first
    token under the line.  True if `got` is that report, with the same expected
    text, at a column where a rational of value q is written."""
    m = re.fullmatch(r"at column 1: expected (a dyadic rational \(got (\S+)\))\n  \2\n  \^", want[1])
    if got[0] != "ParseError" or want[0] != "ParseError" or not m:
        return False
    col = _column(got[1])
    written = re.match(r"-?\s*\d+(\s*/\s*\d+)?", rest[col:])
    return (got[1] == str(new.ParseError(col, m.group(1), rest)) and written is not None
            and Fraction(re.sub(r"\s", "", written.group())) == Fraction(m.group(2)))


# -- generated lines ----------------------------------------------------------

SPACE = st.sampled_from(["", "", " ", "  ", "\t"])
JUNK = st.sampled_from(["$", ">", "<", "^", ".", "@", "-", ",", ")", "(", "]", "{", "k", "0"])


def _joined(*parts):
    """Parts joined by drawn whitespace."""
    return st.tuples(*[x for p in parts for x in (SPACE, p)]).map("".join)


def _binary(operand, ops):
    return st.tuples(operand, st.lists(st.tuples(SPACE, st.sampled_from(ops), SPACE, operand),
                                        max_size=2)).map(
        lambda t: t[0] + "".join("".join(x) for x in t[1]))


def _parens(inner):
    return _joined(st.just("("), inner, st.just(")"))


# Powers take small exponents or bases whose powers stay small (w, 2, and
# exponents of 2 that are linear in alpha), so no drawn line spends seconds
# in dense polynomial or ordinal arithmetic; every operator still occurs.
SMALL = st.integers(0, 5).map(str)
RATIONAL = st.one_of(SMALL, st.tuples(st.sampled_from(["", "-"]), SMALL, SMALL).map(
    lambda t: f"{t[0]}{t[1]}/{t[2]}"))
ORD = st.recursive(
    st.one_of(st.just("w"), SMALL),
    lambda inner: st.one_of(
        _binary(inner, ["+", "*", "+.", "*."]), _parens(inner),
        _joined(st.sampled_from(["w", "2"]), st.sampled_from(["^", "^<>"]), _parens(inner)),
        _joined(_parens(inner), st.sampled_from(["^", "^<>"]), st.sampled_from(["0", "2", "3", "w"])),
    ),
    max_leaves=8,
)
SET_ATOM = st.one_of(
    st.sampled_from(["N", "N+", "N +", "Q", "Q+", "R", "R+", "R +", "[0,1]", "[0, 1]", "Pfin(N)",
                     "Pfin(Q)", "mod(3,", "fin{}", "Q (0,1]"]),
    st.tuples(st.integers(1, 7), st.integers(0, 8)).map(lambda t: f"mod({t[0]},{t[1]})"),
    SMALL.map(lambda k: f"pow({k})"),
    st.lists(SMALL, max_size=3).map(lambda xs: "fin{" + ",".join(xs) + "}"),
    st.tuples(RATIONAL, RATIONAL).map(lambda t: f"Q({t[0]},{t[1]}]"),
    st.tuples(RATIONAL, RATIONAL).map(lambda t: f"R[{t[0]},{t[1]})"),
)
SET = st.recursive(
    SET_ATOM,
    lambda inner: st.one_of(
        _binary(inner, ["|", "&", "\\", "><"]),
        _joined(st.just("("), inner, st.just(")")),
        st.tuples(RATIONAL, inner).map(lambda t: f"shift({t[0]}, {t[1]})"),
        st.tuples(st.integers(1, 3), inner).map(lambda t: f"maps({t[0]}, {t[1]})"),
    ),
    max_leaves=6,
)
NUM_ATOM = st.one_of(
    SMALL, st.sampled_from(["alpha", "beta", "beth1", "X", "w", "alpha^(1/2)", "X^2", "w^w"]),
    ORD.map(lambda o: f"w^({o})"), SET_ATOM.map(lambda s: f"num({s})"),
)
NUM = st.recursive(
    st.one_of(
        NUM_ATOM,
        _joined(_parens(_binary(NUM_ATOM, ["+", "-"])), st.just("^"),
                st.sampled_from(["0", "2", "(1/2)", "(-1)", "(-2)"])),
        _binary(st.sampled_from(["alpha", "1", "2*alpha", "1/2"]), ["+", "-"]).map(lambda e: f"2^({e})"),
    ),
    lambda inner: st.one_of(_binary(inner, ["+", "-", "*", "/"]), _parens(inner)),
    max_leaves=6,
)
NUM_EXPR = st.tuples(st.sampled_from(["", "-", "- "]), NUM).map("".join)
MONO = st.lists(st.one_of(
    st.sampled_from(["alpha", "beta", "beth1", "X", "alpha^k", "w^(w)", "w^(w*2)", "w^(w+1)",
                     "w^(3)", "w^w", "w"]),
    st.tuples(st.sampled_from(["alpha", "beta", "X"]), RATIONAL).map(lambda t: f"{t[0]}^({t[1]})"),
), min_size=1, max_size=3).map("*".join)
SIGNS = st.text("+-", min_size=1, max_size=4)
SUR_WORD = st.one_of(SIGNS, SMALL, RATIONAL, st.just("()"), ORD.map(lambda o: f"plus({o})"),
                     st.tuples(SMALL, SMALL).map(lambda t: f"{t[0]}/2^{t[1]}"))
ELEM = st.recursive(st.one_of(SMALL, SMALL.map(lambda k: f"-{k}")),
                    lambda inner: st.lists(inner, max_size=3).map(lambda xs: "{" + ",".join(xs) + "}"),
                    max_leaves=6)

LINES = st.one_of(
    NUM_EXPR.map(lambda e: f":st {e}"),
    st.tuples(NUM_EXPR, NUM_EXPR).map(lambda t: f":cmp {t[0]} {t[1]}"),
    st.tuples(ORD, ORD).map(lambda t: f":cmp {t[0]} +. {t[1]}"),
    st.tuples(SUR_WORD, SUR_WORD).map(lambda t: f":cmp {t[0]} {t[1]}"),
    ORD.map(lambda o: f":ord {o}"),
    SET.map(lambda s: f":num {s}"),
    st.tuples(SET, NUM_EXPR).map(lambda t: f":measure {t[0]} {t[1]}"),
    st.tuples(MONO, MONO).map(lambda t: f":assert_order {t[0]} < {t[1]}"),
    st.lists(SUR_WORD, min_size=1, max_size=3).map(lambda ws: ":sur " + " + ".join(ws)),
    st.tuples(st.lists(RATIONAL, max_size=2), st.lists(RATIONAL, max_size=2)).map(
        lambda t: ":simplest {" + ", ".join(t[0]) + "} {" + ",".join(t[1]) + "}"),
    ELEM.map(lambda e: f":elem {e}"),
)


def _mutate(line: str, k: int, junk: str, insert: bool) -> str:
    k %= len(line) + 1
    return line[:k] + junk + line[k:] if insert else line[:k] + line[k + 1:]


def _long_literal(rest: str, got, want) -> bool:
    """The third difference: a natural-number literal of over MAX_LITERAL_DIGITS
    digits.  True if `got` is the parser's rejection of it, at a column where
    such a literal starts, and the reference raised Python's int-from-str
    ValueError instead."""
    if got[0] != "ParseError" or "MAX_LITERAL_DIGITS" not in got[1]:
        return False
    written = re.match(r"\d+", rest[_column(got[1]):])
    return (written is not None and len(written.group()) > new.MAX_LITERAL_DIGITS
            and want[0] == "ValueError" and "Exceeds the limit" in want[1])


def _zero_denominator(got, want) -> bool:
    """The fourth difference: a zero denominator in a rational or dyadic
    literal.  True if `got` is the parser's rejection of it, at a zero literal
    written after a `/` in the text the error shows, and the reference raised
    Fraction's ZeroDivisionError instead."""
    if got[0] != "ParseError" or "expected a nonzero denominator" not in got[1]:
        return False
    col, text = _column(got[1]), got[1].split("\n")[1][2:]
    written = re.match(r"\d+", text[col:])
    return (written is not None and int(written.group()) == 0
            and text[:col].rstrip().endswith("/")
            and want[0] == "ZeroDivisionError" and want[1].startswith("Fraction("))


class TestAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(LINES)
    def test_generated_lines(self, line):
        assert_same(line)

    @settings(max_examples=200, deadline=None)
    @given(LINES, st.integers(0, 400), JUNK, st.booleans())
    def test_generated_lines_with_one_edit(self, line, k, junk, insert):
        assert_same(_mutate(line, k, junk, insert))

    @pytest.mark.parametrize("line", MALFORMED_LINES, ids=range(len(MALFORMED_LINES)))
    def test_malformed_lines(self, line):
        assert_same(line)

    @pytest.mark.parametrize("line", [
        ":st ٣*alpha", ":ord w^٣", ":assert_order alpha^² < beta", ":assert_order alpha^_k < X",
        ":assert_order alpha^2k < X", ":num Q(1/0,1]", ":sur 1/0", ":simplest {1/3} {}",
        ":st alpha^", ":st ", ":cmp ", ":num N+ ", ":num N+(", ":num Q (0,1]", ":cmp 1 +. 2 3",
        ":assert_order w^(w*2) < w^(w) < X", ":labelcheck a b c", ":mode_bb maybe",
        ":cmp 1/0 1", ":st 1/0", ":sur 1/0^0",
    ])
    def test_edge_lines(self, line):
        assert_same(line)

    @pytest.mark.parametrize("rest, col", [("< X", 1), ("alpha <", 8), ("alpha* < X", 8),
                                           ("alpha*beta* < X", 13), ("X < beta*", 10)])
    def test_empty_monomial_rejected(self, rest, col):
        got = outcome(new, ":assert_order", rest)
        assert got[0] == "ParseError"
        assert got[1].startswith(f"at column {col}: expected a generator")
        assert outcome(ref, ":assert_order", rest) != got  # the reference's defect
        assert_same(f":assert_order {rest}")

    CORPUS = [line.text for workload in sorted(corpus.BLOCKS)
              for line in corpus.generate(workload, 1, 1)[0]]

    def test_corpus_lines(self):
        for line in self.CORPUS:
            assert_same(line)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(CORPUS), st.integers(0, 2000), JUNK, st.booleans())
    def test_corpus_lines_with_one_edit(self, line, k, junk, insert):
        assert_same(_mutate(line, k, junk, insert))


    @pytest.mark.parametrize("rest, col, q", [("{0, 5/6} {7}", 5, "5/6"), ("{2/6} {}", 2, "1/3"),
                                              ("{} {1, - 1 / 3}", 8, "-1/3")])
    def test_non_dyadic_bound_reported_in_the_line(self, rest, col, q):
        got = outcome(new, ":simplest", rest)
        assert got == ("ParseError", str(new.ParseError(col - 1, f"a dyadic rational (got {q})", rest)))
        assert outcome(ref, ":simplest", rest) != got  # the reference's defect
        assert_same(f":simplest {rest}")

    @pytest.mark.parametrize("verb, rest", [
        (":st", "{}*alpha"), (":ord", "w + {}"), (":sur", "{} + 1"), (":num", "fin{{1, {}}}"),
        (":simplest", "{{}} {{{}}}"), (":elem", "{{{}}}")])
    def test_long_literal_rejected_at_its_column(self, verb, rest):
        rest = rest.format("9" * (new.MAX_LITERAL_DIGITS + 1))
        got = outcome(new, verb, rest)
        assert got[0] == "ParseError"
        assert got[1].startswith(f"at column {rest.index('9') + 1}: expected a natural number "
                                 f"of at most MAX_LITERAL_DIGITS = 4300 digits")
        assert outcome(ref, verb, rest)[0] == "ValueError"  # the reference's defect
        assert_same(f"{verb} {rest}")

    @pytest.mark.parametrize("verb, rest", [
        (":num", "Q(1/0,1]"), (":num", "R[0, 1 / 00)"), (":num", "shift(1/0, fin{1})"),
        (":assert_order", "alpha^(1/0) < X"), (":simplest", "{1/0} {}"),
        (":sur", "1/0 + +"), (":sur", "+ + 1/0^3")])
    def test_zero_denominator_rejected_at_its_column(self, verb, rest):
        got = outcome(new, verb, rest)
        assert got[0] == "ParseError"
        assert "expected a nonzero denominator" in got[1]
        assert outcome(ref, verb, rest)[0] == "ZeroDivisionError"  # the reference's defect
        assert_same(f"{verb} {rest}")


class TestSignWords:
    WORDS = ["".join(w) for n in range(1, 13) for w in itertools.product("+-", repeat=n)]

    def test_read_directly_as_through_the_grammar(self):
        for word in [*self.WORDS, "()"]:
            got = new.parse_surreal_operand(word)
            want = new._whole(new._sur_operand, word, "surreal operand")
            assert got == want and hash(got) == hash(want), word
            assert got == ref.parse_surreal_operand(word)

    @pytest.mark.parametrize("word", ["+-x", "+-.", "-+/2", "+(", "+-+)", "", "++-1", "+-()"])
    def test_malformed_words_keep_their_errors(self, word):
        with pytest.raises(new.ParseError) as got:
            new.parse_surreal_operand(word)
        with pytest.raises(ref.ParseError) as want:
            ref.parse_surreal_operand(word)
        assert str(got.value) == str(want.value)


class TestTokens:
    def test_flat_lists(self):
        toks, gaps = new.tokenize(" N+ >< mod(3,1)  ")
        assert toks == ["N", "+", "><", "mod", "(", "3", ",", "1", ")", ""]
        assert gaps == [" ", "", " ", " ", "", "", "", "", "", "  "]

    @pytest.mark.parametrize("text", ["alpha + $", "$", "  >", "^<>>", "w ^<> 2 <> 3", "(1)~"])
    def test_stray_character_column(self, text):
        with pytest.raises(new.ParseError) as got:
            new.tokenize(text)
        with pytest.raises(ref.ParseError) as want:
            ref.tokenize(text)
        assert str(got.value) == str(want.value)

    def test_stray_character_reported_before_a_grammar_error(self):
        assert "expected a token" in cli.run_line(":st ) + $", cli.Session())[0]["value"]

    def test_operator_tables_resolve_names_at_call_time(self, monkeypatch):
        calls = []
        for module, name, line in ((field, "nf_sub", "alpha - 1"), (ordinals, "cantor_mul", "w *. 2"),
                                   (sets, "Diff", "N \\ mod(2,0)")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        new.parse_num("alpha - 1")
        new.parse_ordinal("w *. 2")
        new.parse_set("N \\ mod(2,0)")
        assert calls == ["nf_sub", "cantor_mul", "Diff"]
