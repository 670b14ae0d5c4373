"""Tokenizer and operator-precedence parsers for the calculator surface.

Every argument the calculator reads is parsed here.  Three expression grammars
share one tokenizer: numerosity expressions (field values), ordinal
expressions (with distinct spellings for the Cantor operations), and set
expressions.  Surreal operands, dyadic sets, label-tree elements and order
assertions are small productions on the same tokens; `:sur` operands and
`:labelcheck` paths are whitespace-separated words.  Every error carries the
offending position, recursion stops at MAX_NESTING levels, and a natural-number
literal has at most MAX_LITERAL_DIGITS digits.

A line is tokenized whole, by one regex split, into a flat list of token texts
and the whitespace before each; a column is computed from those only when an
error reports it.  Productions read the list through a `_Line` cursor.  The
left-associative operators of each grammar come from one table per grammar,
folded by one loop (precedence climbing); a table names the function of
`field`, `ordinals` or `sets` each operator calls, and the name is looked up
on the module at call time, so a profiler or tracer that rebinds it sees
every call.  Evaluation is eager and left to right.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Optional

from . import field, ordinals, sets, surreal
from .field import Monomial, NumExpr
from .ordinals import MAX_LITERAL_DIGITS, Ord


class ParseError(ValueError):
    def __init__(self, pos: int, expected: str, text: str = ""):
        self.pos = pos
        self.expected = expected
        marker = ""
        if text:
            marker = f"\n  {text}\n  {' ' * pos}^"
        super().__init__(f"at column {pos + 1}: expected {expected}{marker}")


# Parentheses, braces, num( / shift( / maps( arguments and right-associative
# ^ chains each count one level; the limit keeps every accepted line far
# below the interpreter's recursion limit, parsing and evaluation together.
MAX_NESTING = 64

# One match per token: a natural number, an identifier or an operator
# (longest spelling first), captured in group 1, or any other visible
# character, captured in group 2, which is an error.  Split on it, a line
# alternates whitespace, token, stray character.
_TOKEN = re.compile(r"(\d+|[^\W\d]\w*|\^<>|\+\.|\*\.|><|[-+*/^|&\\()\[\]{},<=.])|(\S)")


def tokenize(text: str) -> tuple[list[str], list[str]]:
    """The token texts of a line, ending with "" at its end, and the
    whitespace before each of them (one more entry: the trailing space)."""
    parts = _TOKEN.split(text)
    toks, gaps, strays = parts[1::3], parts[0::3], parts[2::3]
    if any(strays):
        k = next(k for k, s in enumerate(strays) if s)
        raise ParseError(_column(toks, gaps, k), "a token", text)
    toks.append("")
    return toks, gaps


def _column(toks: list[str], gaps: list[str], k: int) -> int:
    """Where token k starts: the text before it is gaps and tokens in turn."""
    return sum(map(len, gaps[:k + 1])) + sum(map(len, toks[:k]))


def _is_ident(tok: str) -> bool:
    return (tok[:1].isalnum() or tok[:1] == "_") and not tok[:1].isdecimal()


class _Line:
    """A tokenized line, the index of the next token, and the nesting depth.

    Productions read `toks[i]` directly and advance `i` themselves; `i` never
    moves past the final "".  A natural-number token is one whose text
    `isdecimal()`, as the tokenizer's `\\d+` matches exactly those.
    """

    __slots__ = ("text", "toks", "gaps", "i", "depth")

    def __init__(self, text: str):
        self.text = text
        self.toks, self.gaps = tokenize(text)
        self.i = 0
        self.depth = 0


def _fail(p: _Line, expected: str, k: Optional[int] = None):
    """Raise a ParseError at token k, by default the next one."""
    k = p.i if k is None else k
    raise ParseError(_column(p.toks, p.gaps, k), expected, p.text)


def _expect(p: _Line, tok: str) -> None:
    if p.toks[p.i] != tok:
        _fail(p, f"{tok!r}")
    p.i += 1


def _accept(p: _Line, tok: str) -> bool:
    if p.toks[p.i] == tok:
        p.i += 1
        return True
    return False


# ---------------------------------------------------------------------------
# Shared productions: nesting, whole-text parses, naturals, rationals, braces
# ---------------------------------------------------------------------------


def _nested(p: _Line, production: Callable, close: Optional[str]):
    """Run a recursive production one nesting level down, then expect `close` if given."""
    if p.depth >= MAX_NESTING:
        _fail(p, f"at most {MAX_NESTING} levels of nesting")
    p.depth += 1
    out = production(p)
    if close:
        _expect(p, close)
    p.depth -= 1
    return out


def _whole(production: Callable, text: str, what: str):
    """Parse all of `text` with one production."""
    p = _Line(text)
    out = production(p)
    if p.toks[p.i]:
        _fail(p, f"end of {what}")
    return out


def _words(text: str) -> list[tuple[int, str]]:
    """Whitespace-separated words with their columns."""
    return [(m.start(), m.group()) for m in re.finditer(r"\S+", text)]


def _natural(p: _Line) -> int:
    tok = p.toks[p.i]
    if not tok.isdecimal():
        _fail(p, "a natural number")
    if len(tok) > MAX_LITERAL_DIGITS:
        _fail(p, f"a natural number of at most MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} digits")
    p.i += 1
    return int(tok)


def _rational(p: _Line) -> Fraction:
    toks = p.toks
    neg = _accept(p, "-")
    if not toks[p.i].isdecimal():
        _fail(p, "a number")
    num, den = _natural(p), 1
    if toks[p.i] == "/" and toks[p.i + 1].isdecimal():
        p.i += 1
        den = _natural(p)
        if not den:
            _fail(p, "a nonzero denominator", p.i - 1)
    return Fraction(-num if neg else num, den)


def _braced(p: _Line, item: Callable) -> list:
    """`{item, item, ...}`, possibly empty."""
    _expect(p, "{")
    out = []
    if p.toks[p.i] != "}":
        out.append(item(p))
        while _accept(p, ","):
            out.append(item(p))
    _expect(p, "}")
    return out


def _fold(p: _Line, module, ops: dict, operand: Callable, left, min_bp: int = 0):
    """Fold the left-associative operators of one grammar onto `left`.

    `ops` maps an operator to its binding power and the name of the function
    of `module` it applies.  Operators binding at least `min_bp` are folded;
    the right operand of one binding b takes only operators binding above b.
    """
    toks = p.toks
    while True:
        entry = ops.get(toks[p.i])
        if entry is None or entry[0] < min_bp:
            return left
        bp, name = entry
        p.i += 1
        right = operand(p)
        entry = ops.get(toks[p.i])
        if entry is not None and entry[0] > bp:
            right = _fold(p, module, ops, operand, right, bp + 1)
        left = getattr(module, name)(left, right)


# ---------------------------------------------------------------------------
# Ordinal expressions: + and * natural, +. and *. Cantor, ^<> exponentiation
# ---------------------------------------------------------------------------

_ORD_OPS = {"+": (0, "natural_add"), "+.": (0, "cantor_add"),
            "*": (1, "natural_mul"), "*.": (1, "cantor_mul")}


def _ord_expr(p: _Line) -> Ord:
    return _fold(p, ordinals, _ORD_OPS, _ord_power, _ord_power(p))


def _ord_power(p: _Line) -> Ord:
    base = _ord_atom(p)
    if p.toks[p.i] in ("^<>", "^"):
        p.i += 1
        return ordinals.ord_exp(base, _nested(p, _ord_power, None))
    return base


def _ord_atom(p: _Line) -> Ord:
    tok = p.toks[p.i]
    if tok == "w":
        p.i += 1
        return ordinals.OMEGA
    if tok.isdecimal():
        return Ord.from_int(_natural(p))
    if tok == "(":
        p.i += 1
        return _nested(p, _ord_expr, ")")
    _fail(p, "an ordinal atom (w, a natural number, or parentheses)")


def parse_ordinal(text: str) -> Ord:
    return _whole(_ord_expr, text, "ordinal expression")


# ---------------------------------------------------------------------------
# Numerosity expressions
# ---------------------------------------------------------------------------

_NF_OPS = {"+": (0, "nf_add"), "-": (0, "nf_sub"), "*": (1, "nf_mul"), "/": (1, "nf_div")}
# Generator atoms, by the name of their `field` constant.
_NF_GENERATORS = {"alpha": "ALPHA", "beta": "BETA", "beth1": "BETH1", "X": "X2W"}


def _num_expr(p: _Line) -> NumExpr:
    """A sum of products; a leading `-` negates the first product."""
    if p.toks[p.i] == "-":
        p.i += 1
        first = field.nf_neg(_fold(p, field, _NF_OPS, _nf_power, _nf_power(p), 1))
    else:
        first = _nf_power(p)
    return _fold(p, field, _NF_OPS, _nf_power, first)


def _nf_power(p: _Line) -> NumExpr:
    base = _nf_atom(p)
    if p.toks[p.i] == "^":
        p.i += 1
        return field.nf_pow(base, _nested(p, _nf_power, None))
    return base


def _nf_atom(p: _Line) -> NumExpr:
    tok = p.toks[p.i]
    if tok.isdecimal():
        return field.from_rational(_natural(p))
    if tok in _NF_GENERATORS:
        p.i += 1
        return getattr(field, _NF_GENERATORS[tok])
    if tok == "w":
        p.i += 1
        if p.toks[p.i] == "^":
            p.i += 1
            return field.omega_power(_ord_atom(p))
        return field.OMEGA_NF
    if tok == "num":
        p.i += 1
        _expect(p, "(")
        return sets.num(_nested(p, _set_expr, ")"))
    if tok == "(":
        p.i += 1
        return _nested(p, _num_expr, ")")
    _fail(p, "a numerosity atom")


def parse_num(text: str) -> NumExpr:
    return _whole(_num_expr, text, "expression")


# ---------------------------------------------------------------------------
# Set expressions: | union, & intersection, \ difference, >< product
# ---------------------------------------------------------------------------

_SET_OPS = {"|": (0, "Union_"), "&": (1, "Inter"), "\\": (1, "Diff"), "><": (2, "Prod")}


def _set_expr(p: _Line) -> sets.SetExpr:
    return _fold(p, sets, _SET_OPS, _set_atom, _set_atom(p))


def _adjacent(p: _Line, tok: str) -> bool:
    """The next token is `tok`, with no space before it: `N+`, `Q(`, `R[`."""
    if p.toks[p.i] == tok and not p.gaps[p.i]:
        p.i += 1
        return True
    return False


def _interval(p: _Line, close: str) -> tuple[Fraction, Fraction]:
    lo = _rational(p)
    _expect(p, ",")
    hi = _rational(p)
    _expect(p, close)
    return lo, hi


_SET_ATOMS = frozenset(("N", "Q", "R", "fin", "mod", "pow", "Pfin", "shift", "maps", "[", "("))


def _set_atom(p: _Line) -> sets.SetExpr:
    tok = p.toks[p.i]
    if tok not in _SET_ATOMS:
        _fail(p, "a set expression")
    p.i += 1
    if tok == "N":
        return sets.NatPos() if _adjacent(p, "+") else sets.NatAll()
    if tok == "Q":
        if _adjacent(p, "+"):
            return sets.QPos()
        if _adjacent(p, "("):
            return sets.QInterval(*_interval(p, "]"))
        return sets.QAll()
    if tok == "R":
        if _adjacent(p, "+"):
            return sets.RPos()
        if _adjacent(p, "["):
            return sets.RInterval(*_interval(p, ")"))
        return sets.RAll()
    if tok == "fin":
        return sets.FinSet(frozenset(_braced(p, _natural)))
    if tok == "mod":
        _expect(p, "(")
        m = _natural(p)
        _expect(p, ",")
        i = _natural(p)
        _expect(p, ")")
        return sets.Mod(m, i)
    if tok == "pow":
        _expect(p, "(")
        k = _natural(p)
        _expect(p, ")")
        return sets.Pow(k)
    if tok == "Pfin":
        for want in ("(", "N", ")"):
            _expect(p, want)
        return sets.PfinN()
    if tok == "[":
        for want in ("0", ",", "1", "]"):
            _expect(p, want)
        return sets.UnitInterval01()
    if tok == "shift":
        _expect(p, "(")
        q = _rational(p)
        _expect(p, ",")
        return sets.Shift(q, _nested(p, _set_expr, ")"))
    if tok == "maps":
        _expect(p, "(")
        k = _natural(p)
        _expect(p, ",")
        return sets.FinMapsInto(k, _nested(p, _set_expr, ")"))
    return _nested(p, _set_expr, ")")


def parse_set(text: str) -> sets.SetExpr:
    return _whole(_set_expr, text, "set expression")


def parse_measure(text: str) -> tuple[sets.SetExpr, NumExpr]:
    """`SET GAMMA`: the arguments of `:measure`."""
    return _whole(lambda p: (_set_expr(p), _num_expr(p)), text, "expression")


# ---------------------------------------------------------------------------
# Comparisons: two numerosity, ordinal, or surreal operands
# ---------------------------------------------------------------------------

_CANTOR_OPS = frozenset(("+.", "*.", "^<>"))


def _is_sign_word(word: str) -> bool:
    return word == "()" or word.startswith("plus(") or all(c in "+-" for c in word)


def parse_comparands(text: str) -> tuple:
    """The operands of `:cmp`, both of one kind.

    Two sign words (sign strings, `()`, `plus(ORD)`) compare as surreals; a
    Cantor operator anywhere makes both ordinal expressions; otherwise both
    are numerosity expressions.
    """
    words = text.split()
    if len(words) == 2 and all(_is_sign_word(w) for w in words):
        return parse_surreal_operand(words[0]), parse_surreal_operand(words[1])
    p = _Line(text)
    if _CANTOR_OPS.isdisjoint(p.toks):
        pair, what = (_num_expr(p), _num_expr(p)), "comparison"
    else:
        pair, what = (_ord_expr(p), _ord_expr(p)), "ordinal comparison"
    if p.toks[p.i]:
        _fail(p, f"end of {what}")
    return pair


# ---------------------------------------------------------------------------
# Surreal operands and dyadic sets
# ---------------------------------------------------------------------------

# Operator words name `surreal` functions, looked up at call time like the
# operator tables above.
_SUR_OPS = {"+": "s_add", "-": "s_sub", "*": "s_mul"}


def _dyadic_literal(p: _Line) -> Fraction:
    """`n`, `-n`, `p/q` or `p/q^k`; q^k has the budget MAX_POWER_BITS and is not 0."""
    neg = _accept(p, "-")
    num, den = _natural(p), 1
    if _accept(p, "/"):
        at = p.i
        den = _natural(p)
        if _accept(p, "^"):
            k = _natural(p)
            ordinals.check_power_bits(den, k)
            den **= k
        if not den:
            _fail(p, "a nonzero denominator", at)
    return Fraction(-num if neg else num, den)


def _sur_operand(p: _Line) -> surreal.SignExpansion | surreal.PlusExpansion | Fraction:
    toks = p.toks
    tok = toks[p.i]
    if tok == "plus":
        p.i += 1
        _expect(p, "(")
        return surreal.ordinal_plus(_nested(p, _ord_expr, ")"))
    if tok.isdecimal() or (tok == "-" and toks[p.i + 1].isdecimal()):
        # Kept a value: the genetic cap counts it unbuilt, and a lone operand
        # is expanded within the sign budget at the end of the line.
        return surreal.check_dyadic(_dyadic_literal(p))
    if tok == "(":
        p.i += 1
        _expect(p, ")")
        return surreal.ZERO_SE
    signs = []
    while toks[p.i] in ("+", "-"):
        signs.append(1 if toks[p.i] == "+" else -1)
        p.i += 1
    if not signs:
        _fail(p, "a surreal operand")
    return surreal.SignExpansion(signs)


def parse_surreal_operand(word: str) -> surreal.SignExpansion | surreal.PlusExpansion | Fraction:
    """A sign string, `()`, `plus(ORD)`, or a dyadic `n`, `-n`, `p/q`, `p/2^k`.
    A word of signs alone and `()` are read directly; every other word, errors
    included, goes through the grammar."""
    if word and not word.strip("+-"):
        return surreal._se([1 if c == "+" else -1 for c in word])
    if word == "()":
        return surreal.ZERO_SE
    return _whole(_sur_operand, word, "surreal operand")


def parse_surreal(text: str) -> surreal.SignExpansion | surreal.PlusExpansion:
    """`a (+|-|*) b ...` over operand words, evaluated left to right."""
    words = text.split()
    if not words:
        raise ParseError(0, "a surreal expression", text)
    ops = words[1::2]
    if len(words) % 2 == 0 or any(op not in _SUR_OPS for op in ops):
        raise ParseError(0, "an operator (+, -, *) and an operand", text)
    acc, *operands = map(parse_surreal_operand, words[::2])
    for op, operand in zip(ops, operands):
        acc = getattr(surreal, _SUR_OPS[op])(acc, operand)
    return surreal.se_within_budget(acc) if acc.__class__ is Fraction else acc


def _dyadic(p: _Line) -> Fraction:
    start = p.i
    q = _rational(p)
    if not surreal.is_dyadic(q):
        _fail(p, f"a dyadic rational (got {q})", start)
    return q


def parse_dyadic_sets(text: str) -> tuple[list[Fraction], list[Fraction]]:
    """`{d, ...} {d, ...}`: the left and right sets of `:simplest`."""
    return _whole(lambda p: (_braced(p, _dyadic), _braced(p, _dyadic)), text, "dyadic sets")


# ---------------------------------------------------------------------------
# Label-tree elements and the other command words
# ---------------------------------------------------------------------------


def _elem(p: _Line):
    if p.toks[p.i] == "{":
        return frozenset(_nested(p, lambda q: _braced(q, _elem), None))
    neg = _accept(p, "-")
    n = _natural(p)
    return -n if neg else n


def parse_elem(text: str):
    """A label-tree element: an integer atom or a set literal like `{{4},{4,5}}`."""
    return _whole(_elem, text, "element")


_LABEL_MODES = ("literal", "hereditary")


def parse_labelcheck(text: str) -> tuple[str, str]:
    """`PATH [literal|hereditary]`; the path is one word and is not tokenized."""
    words = _words(text)
    if not words:
        raise ParseError(0, "an instance file path", text)
    if len(words) > 2:
        raise ParseError(words[2][0], "end of line", text)
    pos, mode = words[1] if len(words) == 2 else (0, "literal")
    if mode not in _LABEL_MODES:
        raise ParseError(pos, "'literal' or 'hereditary'", text)
    return words[0][1], mode


def parse_switch(text: str) -> bool:
    """`on` or `off`."""
    if text not in ("on", "off"):
        raise ParseError(0, "'on' or 'off'", text)
    return text == "on"


# ---------------------------------------------------------------------------
# Order assertions: `alpha^k < beta` (universal) or concrete monomials
# ---------------------------------------------------------------------------


class OrderAssertion(namedtuple("OrderAssertion", "universal_alpha lhs rhs")):
    """`lhs < rhs`; a universal `alpha^k < rhs` has no lhs."""

    __slots__ = ()


def _parse_monomial(p: _Line) -> tuple[Optional[Monomial], bool]:
    """One monomial; returns (monomial, saw_universal_alpha_power).

    alpha^k with an identifier k, for every alpha power, stands alone.
    Otherwise a product of generators, one at the start and one after every
    `*`: alpha takes a rational exponent; beta, beth1 and X take natural
    exponents; either may be parenthesised.  w takes an infinite ordinal
    exponent with no finite part, in parentheses.
    """
    toks = p.toks
    if toks[p.i] == "alpha" and toks[p.i + 1] == "^" and _is_ident(toks[p.i + 2]):
        p.i += 3  # alpha ^ k
        if toks[p.i] == "*":
            _fail(p, "alpha^k standing alone, with no other factor")
        return None, True
    alpha = Fraction(0)
    naturals = {"beta": 0, "beth1": 0, "X": 0}
    omega = ordinals.ZERO
    while True:
        tok = toks[p.i]
        if tok not in ("alpha", "beta", "beth1", "X", "w"):
            _fail(p, "a generator")
        p.i += 1
        if tok == "w":
            for want in ("^", "("):
                if not _accept(p, want):
                    _fail(p, "w requires an ordinal exponent in order assertions")
            start = p.i
            g = _nested(p, _ord_expr, ")")
            if g.is_finite() or g.finite_part():
                _fail(p, "an infinite w exponent with no finite part", start)
            omega = ordinals.natural_add(omega, g)
        elif tok == "alpha":
            alpha += _exponent(p, _rational) if _accept(p, "^") else 1
        else:
            naturals[tok] += _exponent(p, _natural) if _accept(p, "^") else 1
        if not _accept(p, "*"):
            break
    m = Monomial(alpha, naturals["beta"], naturals["beth1"], naturals["X"], omega)
    return m, False


def _exponent(p: _Line, production: Callable):
    """A generator's exponent after `^`: bare, or in parentheses."""
    if _accept(p, "("):
        return _nested(p, production, ")")
    return production(p)


def parse_order_assertion(text: str) -> OrderAssertion:
    p = _Line(text)
    lhs, universal = _parse_monomial(p)
    _expect(p, "<")
    rhs, runi = _parse_monomial(p)
    if runi or rhs is None:
        _fail(p, "a concrete monomial on the right")
    if p.toks[p.i]:
        _fail(p, "end of assertion")
    return OrderAssertion(universal, lhs, rhs)
