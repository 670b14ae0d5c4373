"""Seeded calculator corpora for the three benchmark workloads.

A corpus is a body of fixed-size blocks followed by a short tail.  Every block
of a workload has the same verb mix (exact counts, shuffled by the seed), so a
replay that stops at a block boundary sees the same mix whatever its length.
Each line carries a `spec` that tells the checker what a right answer is; the
calculator itself only ever sees the text.

Specs (first field is the kind):
  ("num", expected_numexpr_text)          compare by cross-multiplied equality
  ("cmp", "less"|"equal"|"greater")       decided answers must match; unknown ok
  ("st", Fraction | "+infinity")          as above, for standard parts
  ("ord_nat", a, op, b, expected_text)    natural op; also checked through embed
  ("exact", text)                         output must be exactly this text
  ("label", ((check, status), ...))       :labelcheck report statuses
  ("err", "parse"|"eval")                 must be rejected with this class
  ("probe", name)                         expectation depends on session state
  ("state", expected_value)               :assert_order / :mode_bb
Defect tags ride in `defect` ("A".."E" or "").
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from oracle import (
    OMEGA,
    ZERO,
    cantor_add,
    cantor_mul,
    cmp,
    format_dyadic,
    format_ord,
    is_finite,
    nat,
    natural_add,
    natural_mul,
    ord_power,
    random_cnf,
    signs_value,
    simplest_between,
    value_signs,
)

ADD_CAP, MUL_CAP = 24, 16  # the library's genetic recursion caps


class Line(NamedTuple):
    text: str
    spec: tuple
    defect: str = ""

    @property
    def verb(self) -> str:
        head = self.text.split(None, 1)[0] if self.text.strip() else ""
        return head if head.startswith(":") else "(no verb)"


WHY = {
    "session-mix": (
        "the REPL/script user's path: every verb, mostly short lines, so per-line "
        "costs spread over cli, parser, sets, chains and small field calls"
    ),
    "algebra-deep": (
        "long :cmp/:st lines over all generators and depth-3 ordinal :ord lines, "
        "so field normal forms and ordinal keys do most of the work"
    ),
    "surreal-genetic": (
        ":sur genetic add/sub/mul over a spread of birthdays up to the caps; "
        "skips parser, field, sets, chains and ordinals"
    ),
}

INSTANCE_FILES = ("standard.txt", "medium.txt", "noninjective.txt", "unreachable.txt",
                  "nomember.txt")

# Hand-written :labelcheck expectations: (check, status) per report.
LABEL_EXPECT = {
    "standard.txt": (("pivotal", "ok"), ("labeltree", "ok")),
    "medium.txt": (("pivotal", "ok"), ("labeltree", "ok")),
    "noninjective.txt": (("pivotal", "violations"),),
    "unreachable.txt": (("pivotal", "violations"),),
    "nomember.txt": (("pivotal", "violations"),),
}

# A rank-2 universe over atoms 0..3 with the pair {1,2}, ordered by
# membership/inclusion and threaded by a successor chain in that order (the
# recipe of the lab's standard instance, without its Kuratowski block), and
# the lab's three small counterexamples.
_TOP = "{0,1,2,3,{0},{1},{2},{3},{1,2}}"
_MEDIUM_ORDER = ["0", "1", "2", "3", "{0}", "{1}", "{2}", "{3}", "{1,2}", _TOP]
SMALL_INSTANCES = {
    "medium.txt": "elem {} " + " ".join(_MEDIUM_ORDER) + "\n"
    + "".join(f"le {{}} {x}\n" for x in _MEDIUM_ORDER[4:])
    + "".join(f"le {a} {{{a}}}\n" for a in "0123")
    + "le 1 {1,2}\nle 2 {1,2}\nle {1} {1,2}\nle {2} {1,2}\n"
    + "".join(f"le {x} {_TOP}\n" for x in _MEDIUM_ORDER[:-1])
    + "".join(f"succ {a} {b}\n" for a, b in zip(_MEDIUM_ORDER, _MEDIUM_ORDER[1:])),
    "noninjective.txt": "elem {} 1 2 3\nle 1 3\nle 2 3\nsucc 1 3\nsucc 2 3\n",
    "unreachable.txt": "elem {} 1 2 3\nle 1 2\nle 2 1\nle 1 3\nle 2 3\nsucc 1 3\n",
    "nomember.txt": "elem {} 1 {1} {1,{1}}\nle {1} {1,{1}}\nle 1 {1,{1}}\n"
    "succ 1 {1}\nsucc {1} {1,{1}}\n",
}

# ---------------------------------------------------------------------------
# Fixed lines: README examples, the acceptance CMP_BATTERY, defects A-E and
# the honest-unknown probes.  Expectations are written by hand.
# ---------------------------------------------------------------------------

README_LINES = [
    Line(":num mod(2,0)", ("num", "1/2*alpha")),
    Line(":num Q", ("num", "2*alpha^2 + 1")),
    Line(":st (2*alpha^2+1)/alpha^2", ("st", Fraction(2))),
    Line(":measure R[1/4,3/4) beta", ("st", Fraction(1, 2))),
    Line(":ord (w+1) +. w", ("exact", "w*2")),
    Line(":ord 2 ^<> w", ("exact", "w")),
    Line(":sur +- + +-", ("exact", "+")),
    Line(":simplest {0} {1}", ("exact", "+-")),
    Line(":labelcheck standard.txt", ("label", LABEL_EXPECT["standard.txt"])),
]

CMP_BATTERY = [
    ("alpha", "beta", "less"),
    ("alpha^2", "alpha*beta", "less"),
    ("2*alpha^2 + 1", "2*alpha^2", "greater"),
    ("X", "alpha^(7/2)", "greater"),
    ("w^(w)", "w^(w*2)", "less"),
    ("beta + 1", "beta", "greater"),
    ("alpha*beta", "beta", "greater"),
    ("num(mod(4,0))", "num(mod(2,0))", "less"),
    ("num(Q(0,1])", "num(Q(0,2])", "less"),
    ("1/alpha", "1/2", "less"),
    ("X*beta", "beta", "greater"),
    ("alpha^(1/2)", "alpha", "less"),
]
BATTERY_LINES = [Line(f":cmp ({a}) ({b})", ("cmp", want)) for a, b, want in CMP_BATTERY]

DEFECT_A = Line(":st w^(w^2)/w^(w)", ("st", "+infinity"), "A")
DEFECT_B = Line(":cmp alpha*(beta-X)/(beta-X) 0", ("cmp", "greater"), "B")
DEFECT_C = Line(":num mod(11,0)", ("num", "1/11*alpha"), "C")
DEFECT_D = Line(":num " + "(" * 2000 + "N" + ")" * 2000, ("probe", "deep-nesting"), "D")
DEFECT_E = [
    Line(":num mod(-3,1)", ("err", "parse"), "E"),
    Line(":num pow(x)", ("err", "parse"), "E"),
    Line(":num maps(k, N)", ("err", "parse"), "E"),
    Line(":sur 1/2^", ("err", "parse"), "E"),
]

# Probe name -> text.  Expectations per session state live in the checker.
PROBES = {
    "beta-X": ":cmp beta X",
    "alpha2-beta": ":cmp alpha^2 beta",
    "st-alpha-beta": ":st alpha/beta",
    "measure-R-alpha": ":measure R[0,1) alpha",
    "beth1-beta": ":cmp beth1 beta",
}
PROBE_LINES = [Line(text, ("probe", name)) for name, text in PROBES.items()]

ASSERT_LINE = Line(":assert_order alpha^k < beta", ("state", "ok"))
BB_ON = Line(":mode_bb on", ("state", "bb_mode=on"))
BB_OFF = Line(":mode_bb off", ("state", "bb_mode=off"))

MALFORMED_PARSE = [
    ":num mod(3,", ":cmp alpha", ":st (alpha", ":ord w +", "num mod(2,0)",
    ":bogus 1", ":mode_bb maybe", ":measure N", ":num fin{1,", ":simplest {1/3} {1}",
    ":sur", ":sur +- ^ +", ":cmp (alpha) (beta) )", ":num N ><", ":st alpha beta",
]
MALFORMED_EVAL = [":st 1/0", ":ord (w+1) ^<> w", ":labelcheck missing.txt", ":cmp 1/0 1"]
MALFORMED_SUR = [":sur 3/ + +", ":sur +- + 1/", ":sur +- % -", ":sur ++ +"]

# ---------------------------------------------------------------------------
# Small random pieces
# ---------------------------------------------------------------------------


def _q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _coeff(rng: random.Random, signed: bool = True) -> Fraction:
    c = Fraction(rng.randint(1, 5), rng.choice((1, 1, 2, 3)))
    return -c if signed and rng.random() < 0.4 else c


def _interval(rng: random.Random) -> tuple[Fraction, Fraction]:
    p = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4)))
    return p, p + Fraction(rng.randint(1, 6), rng.choice((1, 2, 4)))


def _fin(rng: random.Random) -> tuple[str, int]:
    elems = sorted(rng.sample(range(0, 30), rng.randint(1, 4)))
    return "fin{" + ",".join(map(str, elems)) + "}", len(elems)


def _simple_set(rng: random.Random) -> tuple[str, str]:
    """A ground set and its numerosity as calculator text."""
    kind = rng.randrange(10)
    if kind <= 2:
        p = rng.randint(1, 7)
        return f"mod({p},{rng.randrange(p)})", f"alpha/{p}"
    if kind == 3:
        return rng.choice((("N", "alpha + 1"), ("N+", "alpha")))
    if kind == 4:
        text, k = _fin(rng)
        return text, str(k)
    if kind == 5:
        k = rng.randint(1, 4)
        return f"pow({k})", f"alpha^(1/{k})"
    if kind == 6:
        p, q = _interval(rng)
        return f"Q({_q(p)},{_q(q)}]", f"({_q(q - p)})*alpha"
    if kind == 7:
        p, q = _interval(rng)
        return f"R[{_q(p)},{_q(q)})", f"({_q(q - p)})*beta"
    return rng.choice((
        ("Q", "2*alpha^2 + 1"), ("Q+", "alpha^2"), ("R", "2*alpha*beta + 1"),
        ("R+", "alpha*beta"), ("[0,1]", "beta + 1"), ("Pfin(N)", "X"),
    ))


def _set_line(rng: random.Random) -> Line:
    kind = rng.randrange(10)
    if kind <= 3:
        text, want = _simple_set(rng)
    elif kind == 4:
        p = rng.randint(2, 7)
        i, j = rng.sample(range(p), 2)
        text, want = f"mod({p},{i}) | mod({p},{j})", f"alpha/{p} + alpha/{p}"
    elif kind == 5:
        p, q = rng.randint(2, 7), rng.randint(2, 7)
        i, j = rng.randrange(p), rng.randrange(q)
        g = math.gcd(p, q)
        want = f"alpha/{p * q // g}" if i % g == j % g else "0"
        text = f"mod({p},{i}) & mod({q},{j})"
    elif kind == 6:
        p = rng.randint(2, 7)
        text, want = f"N+ \\ mod({p},{rng.randrange(p)})", f"alpha - alpha/{p}"
    elif kind == 7:
        p = rng.choice((2, 3))
        i = rng.randrange(p)
        j = i + p * rng.randrange(2)
        text, want = f"mod({p},{i}) \\ mod({2 * p},{j})", f"alpha/{p} - alpha/{2 * p}"
    elif kind == 8:
        (a, wa), (b, wb) = _simple_set(rng), _simple_set(rng)
        text, want = f"({a}) >< ({b})", f"({wa})*({wb})"
    else:
        text, want = rng.choice((
            ("maps(2, N)", "X"), ("maps(4, N+)", "X^2/4"), ("N \\ fin{0,1}", "alpha - 1"),
            ("shift(1/2, Q(0,1])", "alpha"), ("R[0,1/2) | R[1/2,1)", "beta"),
            ("Q(0,1] | Q(2,3]", "2*alpha"), ("maps(2, fin{1,2})", "4"),
        ))
    return Line(f":num {text}", ("num", want))


_SHORT_MONOS = ["alpha", "alpha^2", "beta", "X", "alpha*beta", "w^(w)",
                "alpha^(1/2)", "num(mod(3,0))", "beth1", "1"]


def _sum_text(terms: list[tuple[Fraction, str]]) -> str:
    out = []
    for i, (c, m) in enumerate(terms):
        body = _q(abs(c)) if m == "1" else (m if abs(c) == 1 else f"{_q(abs(c))}*{m}")
        out.append(("-" if c < 0 else "") + body if i == 0 else ("- " if c < 0 else "+ ") + body)
    return " ".join(out)


def _related_pair(rng: random.Random, a: str, monos: list[str]) -> Line:
    """`:cmp` of a against a value whose relation to it is known by construction."""
    r = rng.randrange(4)
    if r == 0:
        s = _sum_text([(_coeff(rng, False), rng.choice(monos))])
        return Line(f":cmp ({a}) ({a})*({s})/({s})", ("cmp", "equal"))
    m = f"{_q(_coeff(rng, False))}*{rng.choice(monos)}"
    if r == 1:
        return Line(f":cmp ({a}) + {m} ({a})", ("cmp", "greater"))
    if r == 2:
        return Line(f":cmp ({a}) ({a}) + {m}", ("cmp", "less"))
    return Line(f":cmp ({a}) + {m} - {m} ({a})", ("cmp", "equal"))


def _short_cmp(rng: random.Random) -> Line:
    terms = [(_coeff(rng), m) for m in rng.sample(_SHORT_MONOS, rng.randint(1, 2))]
    return _related_pair(rng, _sum_text(terms), _SHORT_MONOS)


# (dominant monomial, monomials it dominates by the grounded rules)
_ST_SHAPES = [
    ("alpha^3", ["alpha^2", "alpha", "1", "alpha^(1/2)"]),
    ("X", ["alpha^3", "alpha", "1"]),
    ("X*alpha", ["alpha^4", "alpha^2", "1"]),
    ("w^(w)", ["alpha^5", "alpha", "1"]),
    ("X*beta", ["beta*alpha^2", "beta", "alpha", "1"]),
    ("w^(w)*beta", ["beta*alpha", "alpha^3", "1"]),
]


def _st_line(rng: random.Random, d: str, lower: list[str]) -> Line:
    low = [(_coeff(rng), m) for m in rng.sample(lower, rng.randint(1, len(lower)))]
    kind = rng.randrange(3)
    if kind == 0:
        c = _coeff(rng)
        return Line(f":st ({_sum_text([(c, d)] + low)})/({d})", ("st", c))
    if kind == 1:
        return Line(f":st ({_sum_text(low)})/({d})", ("st", Fraction(0)))
    pos = [(_coeff(rng, False), m) for m in rng.sample(lower, rng.randint(1, len(lower)))]
    top = _sum_text([(Fraction(1), d)] + low)
    return Line(f":st ({top})/({_sum_text(pos)})", ("st", "+infinity"))


def _measure_line(rng: random.Random) -> Line:
    kind = rng.randrange(8)
    if kind <= 1:
        p, q = _interval(rng)
        return Line(f":measure R[{_q(p)},{_q(q)}) beta", ("st", q - p))
    if kind == 2:
        p, q = _interval(rng)
        return Line(f":measure Q({_q(p)},{_q(q)}] alpha", ("st", q - p))
    if kind == 3:
        p = rng.randint(1, 7)
        return Line(f":measure mod({p},{rng.randrange(p)}) alpha", ("st", Fraction(1, p)))
    if kind == 4:
        text, _ = _fin(rng)
        return Line(f":measure {text} alpha", ("st", Fraction(0)))
    s, g, want = rng.choice((
        ("[0,1]", "beta", Fraction(1)), ("N", "alpha", Fraction(1)),
        ("Q+", "alpha^2", Fraction(1)), ("R+", "alpha*beta", Fraction(1)),
        ("Q", "alpha^2", Fraction(2)), ("Q", "alpha", "+infinity"),
        ("N+", "2*alpha", Fraction(1, 2)),
    ))
    return Line(f":measure {s} {g}", ("st", want))


def _ord_text(a) -> str:
    return f"({format_ord(a)})"


def _ord_line(rng: random.Random, depth: int, max_terms: int) -> Line:
    a = random_cnf(rng, depth, max_terms)
    b = random_cnf(rng, depth, max_terms)
    op = rng.choice(("+", "*", "+.", "*.", "^"))
    if op in ("+", "*"):
        want = natural_add(a, b) if op == "+" else natural_mul(a, b)
        return Line(f":ord {_ord_text(a)} {op} {_ord_text(b)}",
                    ("ord_nat", format_ord(a), op, format_ord(b), format_ord(want)))
    if op == "+.":
        return Line(f":ord {_ord_text(a)} +. {_ord_text(b)}", ("exact", format_ord(cantor_add(a, b))))
    if op == "*.":
        return Line(f":ord {_ord_text(a)} *. {_ord_text(b)}", ("exact", format_ord(cantor_mul(a, b))))
    base_kind = rng.randrange(3)
    if base_kind == 0:
        k = rng.randint(2, 3)
        return Line(f":ord {_ord_text(a)} ^<> {k}", ("exact", format_ord(ord_power(a, nat(k)))))
    base = OMEGA if base_kind == 1 else nat(2)
    name = "w" if base_kind == 1 else "2"
    return Line(f":ord {name} ^<> {_ord_text(a)}", ("exact", format_ord(ord_power(base, a))))


def _ord_cmp_line(rng: random.Random, depth: int, max_terms: int) -> Line:
    """`:cmp` of a +. b against b +. a: Cantor sums do not commute."""
    a = random_cnf(rng, depth, max_terms)
    b = random_cnf(rng, depth, max_terms)
    want = ("less", "equal", "greater")[cmp(cantor_add(a, b), cantor_add(b, a)) + 1]
    return Line(f":cmp {_ord_text(a)} +. {_ord_text(b)} {_ord_text(b)} +. {_ord_text(a)}",
                ("exact", want))


def _signs(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("+-") for _ in range(n)) or "()"


def _sur_operand(rng: random.Random, n: int) -> str:
    s = _signs(rng, n)
    if rng.random() < 0.3:
        return format_dyadic(signs_value(s))
    return s


def _birthday(x: Fraction) -> int:
    return 0 if x == 0 else len(value_signs(x))


def _sur_line(rng: random.Random, op: str, combined: int) -> Line:
    left = rng.randint(0, combined)
    a, b = _sur_operand(rng, left), _sur_operand(rng, combined - left)
    x, y = _value(a), _value(b)
    text = f":sur {a} {op} {b}"
    if _birthday(x) + _birthday(y) > (MUL_CAP if op == "*" else ADD_CAP):
        return Line(text, ("err", "eval"))
    out = x + y if op == "+" else x - y if op == "-" else x * y
    return Line(text, ("exact", value_signs(out)))


def _value(operand: str) -> Fraction:
    if operand == "()" or all(c in "+-" for c in operand):
        return signs_value(operand)
    num, _, den = operand.partition("/")
    return Fraction(int(num), 2 ** int(den[2:]) if den.startswith("2^") else int(den or 1))


def _dyadic(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-32, 32), rng.choice((1, 2, 4, 8)))


def _simplest_line(rng: random.Random) -> Line:
    pts = sorted({_dyadic(rng) for _ in range(rng.randint(2, 5))})
    cut = rng.randint(0, len(pts))
    left, right = pts[:cut], pts[cut:]
    text = ":simplest {" + ", ".join(map(_q, left)) + "} {" + ", ".join(map(_q, right)) + "}"
    return Line(text, ("exact", simplest_between(left, right)))


def _sign_cmp_line(rng: random.Random) -> Line:
    a, b = _signs(rng, rng.randint(1, 6)), _signs(rng, rng.randint(1, 6))
    c = (signs_value(a) > signs_value(b)) - (signs_value(a) < signs_value(b))
    return Line(f":cmp {a} {b}", ("exact", ("less", "equal", "greater")[c + 1]))


# ---------------------------------------------------------------------------
# Deep expressions for algebra-deep
# ---------------------------------------------------------------------------


def _omega_mono(rng: random.Random) -> str:
    while True:
        g = random_cnf(rng, 3)
        if g and g[-1][0] == ZERO and rng.random() < 0.7:
            g = g[:-1]  # mostly keep exponents free of a finite part
        if g and not is_finite(g):
            return f"w^({format_ord(g)})"


def _deep_mono(rng: random.Random) -> str:
    """A product of one or two generator powers, one factor per generator."""
    kinds = rng.sample(range(5), rng.randint(1, 2))
    factors = []
    for g in sorted(kinds):
        if g == 0:
            factors.append(rng.choice(("alpha", "alpha^2", "alpha^3", "alpha^(1/2)")))
        elif g == 1:
            factors.append(rng.choice(("beta", "beta^2")))
        elif g == 2:
            factors.append("beth1")
        elif g == 3:
            factors.append(rng.choice(("X", "X^2")))
        else:
            factors.append(_omega_mono(rng))
    return "*".join(factors)


def _deep_sum(rng: random.Random, lo: int = 2, hi: int = 3, signed: bool = True) -> str:
    """A sum of distinct monomials, so it is never zero."""
    monos = list(dict.fromkeys(_deep_mono(rng) for _ in range(rng.randint(lo, hi))))
    if rng.random() < 0.5:
        monos.append("1")
    return _sum_text([(_coeff(rng, signed), m) for m in monos])


def _deep_cmp(rng: random.Random) -> Line:
    s1, s2, s3 = _deep_sum(rng), _deep_sum(rng), _deep_sum(rng)
    kind = rng.randrange(5)
    q = f"({s1})*({s2})/({s3})"
    if kind == 0:
        return Line(f":cmp {q} ({s2})*({s1})/({s3})", ("cmp", "equal"))
    if kind in (1, 2):
        m = f"{_q(_coeff(rng, False))}*{_deep_mono(rng)}"
        if kind == 1:
            return Line(f":cmp {q} + {m} {q}", ("cmp", "greater"))
        return Line(f":cmp {q} {q} + {m}", ("cmp", "less"))
    if kind == 3:
        return Line(f":cmp ({s1})*({s2})/({s2}) ({s1})", ("cmp", "equal"))
    p = _deep_sum(rng, signed=False)
    return Line(f":cmp ({p})*({s2})/({s2}) 0", ("cmp", "greater"))


def _deep_st(rng: random.Random) -> Line:
    dom = [rng.choice(("X", "X^2", _omega_mono(rng)))]
    lower_gens = []
    if rng.random() < 0.5:
        dom.append("beta")
        lower_gens.append("beta")
    if rng.random() < 0.3:
        dom.append("beth1")
        lower_gens.append("beth1")
    d = "*".join(dom)
    lower = []
    for _ in range(rng.randint(2, 4)):
        parts = [g for g in lower_gens if rng.random() < 0.5]
        parts.append(rng.choice(("alpha", "alpha^2", "alpha^4", "alpha^(1/2)", "1")))
        lower.append("*".join(p for p in parts if p != "1") or "1")
    c = _coeff(rng)
    top = _sum_text([(c, d)] + [(_coeff(rng), m) for m in dict.fromkeys(lower)])
    if rng.random() < 0.5:
        return Line(f":st ({top})/({d})", ("st", c))
    s = _deep_sum(rng)
    return Line(f":st (({top})*({s}))/(({d})*({s}))", ("st", c))


def _omega_ratio(rng: random.Random) -> Line:
    """st((c*w^g1 + d*w^g2)/w^g1) = c for g1 > g2 > 0: a division by an w-power."""
    while True:
        g1, g2 = random_cnf(rng, 3), random_cnf(rng, 3)
        if cmp(g1, g2) < 0:
            g1, g2 = g2, g1
        # Exponents without a finite part keep each side a single w-power.
        if cmp(g1, g2) > 0 and g2 and g1[-1][0] != ZERO and g2[-1][0] != ZERO:
            break
    c = _coeff(rng)
    w1, w2 = f"w^({format_ord(g1)})", f"w^({format_ord(g2)})"
    return Line(f":st ({_sum_text([(c, w1), (_coeff(rng), w2)])})/({w1})", ("st", c))


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


def _fill(rng: random.Random, counts: list[tuple[int, object]]) -> list[Line]:
    lines: list[Line] = []
    for n, make in counts:
        lines.extend(make(rng) if callable(make) else make for _ in range(n))
    rng.shuffle(lines)
    return lines


def _insert_at(lines: list[Line], frac: float, line: Line) -> None:
    lines.insert(int(len(lines) * frac), line)


def _small_labelcheck(rng: random.Random) -> Line:
    name = rng.choice(INSTANCE_FILES[2:])
    return Line(f":labelcheck {name}", ("label", LABEL_EXPECT[name]))


def _session_block(rng: random.Random, index: int) -> list[Line]:
    body = _fill(rng, [
        (200, _set_line),
        (40, _short_cmp),
        (24, lambda r: _st_line(r, *r.choice(_ST_SHAPES))),
        (34, _measure_line),
        (45, lambda r: _ord_line(r, 2, 3)),
        (5, lambda r: _ord_cmp_line(r, 2, 3)),
        (30, lambda r: _sur_line(r, r.choice("+-*"), r.randint(0, 6))),
        (10, _simplest_line),
        (10, _sign_cmp_line),
        (6, _small_labelcheck),
        (6, Line(":labelcheck medium.txt", ("label", LABEL_EXPECT["medium.txt"]))),
        (1, Line(":labelcheck standard.txt", ("label", LABEL_EXPECT["standard.txt"]))),
        *[(1, Line(text, ("err", "parse"))) for text in MALFORMED_PARSE],
        *[(1, Line(text, ("err", "eval"))) for text in MALFORMED_EVAL],
        (1, DEFECT_A), (1, DEFECT_B), (1, DEFECT_D),
        *[(1, line) for line in DEFECT_E],
        *[(1, line) for line in PROBE_LINES],
    ])
    _insert_at(body, 0.5, BB_ON)
    _insert_at(body, 0.75, BB_OFF)
    if index == 0:
        body[:0] = README_LINES + BATTERY_LINES
    if index == 2:
        _insert_at(body, 0.25, ASSERT_LINE)
    return body


def _algebra_block(rng: random.Random, index: int) -> list[Line]:
    return _fill(rng, [
        (80, _deep_cmp),
        (44, _deep_st),
        (6, _omega_ratio),
        (63, lambda r: _ord_line(r, 3, 4)),
        (7, lambda r: _ord_cmp_line(r, 3, 4)),
    ])


def _surreal_counts() -> list[tuple[int, object]]:
    counts: list[tuple[int, object]] = []

    def add(n: int, op: str, b: int) -> None:
        counts.append((n, lambda r, op=op, b=b: _sur_line(r, op if op != "+-" else r.choice("+-"), b)))

    for b in range(0, 9):
        add(18, "+-", b)
    for b in range(9, 13):
        add(10, "+-", b)
    for b in range(13, 17):
        add(6, "+-", b)
    for b in range(17, 21):
        add(3, "+-", b)
    for b in range(21, 25):
        add(2, "+-", b)
    for b in range(0, 9):
        add(9, "*", b)
    for b in range(9, 13):
        add(4, "*", b)
    for b in range(13, 17):
        add(1, "*", b)
    counts += [
        (6, lambda r: _sur_line(r, r.choice("+-*"), r.randint(25, 28))),
        (24, _simplest_line),
        (40, _sign_cmp_line),
        *[(1, Line(text, ("err", "parse"))) for text in MALFORMED_SUR],
        (2, DEFECT_E[3]),
        (2, Line(PROBES["beta-X"], ("probe", "beta-X"))),
    ]
    return counts


_SURREAL_COUNTS = _surreal_counts()


def _surreal_block(rng: random.Random, index: int) -> list[Line]:
    return _fill(rng, _SURREAL_COUNTS)


BLOCKS = {
    "session-mix": _session_block,
    "algebra-deep": _algebra_block,
    "surreal-genetic": _surreal_block,
}

# Lines that can run past the per-line budget go last, after every block, so
# that stopping one does not cut the replay short.
TAILS = {"session-mix": [DEFECT_C], "algebra-deep": [], "surreal-genetic": []}


def generate(workload: str, seed: int, n_blocks: int) -> tuple[list[Line], list[int], list[Line]]:
    """Body lines, the index where each block starts, and the tail."""
    make = BLOCKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    body: list[Line] = []
    starts: list[int] = []
    for k in range(n_blocks):
        starts.append(len(body))
        body.extend(make(rng, k))
    return body, starts, list(TAILS[workload])


def repeated_pair_share(lines: list[Line]) -> float:
    """Share of :sur lines whose exact operand pair and operator occurred before."""
    seen: set[str] = set()
    sur = rep = 0
    for line in lines:
        if line.text.startswith(":sur ") and line.spec[0] == "exact":
            sur += 1
            rep += line.text in seen
            seen.add(line.text)
    return rep / sur if sur else 0.0
