"""The recursive-descent parser as it stood before the flat-token parser.

Kept verbatim, apart from this docstring and the absolute imports, as the
reference `tests/test_parser.py` compares `numerosity.parser` with: every
value and every ParseError text and column must agree.  It builds one Token
per token, reads them through TokenStream methods, and has one function per
precedence level.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from numerosity import field, ordinals, sets, surreal
from numerosity.field import Monomial, NumExpr
from numerosity.ordinals import Ord


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

# One match per token: a natural number, an identifier, an operator (longest
# spelling first), or any other visible character, which is an error.
_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d]\w*)|(\^<>|\+\.|\*\.|><|[-+*/^|&\\()\[\]{},<=.])|(\S))")
_KINDS = (None, "num", "ident", "op")


class Token(NamedTuple):
    kind: str  # 'num', 'ident', 'op', 'end'
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    for m in _TOKEN.finditer(text):
        k = m.lastindex
        if k == 4:
            raise ParseError(m.start(k), "a token", text)
        out.append(Token(_KINDS[k], m.group(k), m.start(k)))
    out.append(Token("end", "", len(text)))
    return out


class TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]
        return self.tokens[self.i]  # next() never moves past the end token

    def next(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "end":
            self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise ParseError(t.pos, f"{text!r}", self.text)
        return self.next()

    def at(self, text: str) -> bool:
        return self.tokens[self.i].text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def done(self) -> bool:
        return self.peek().kind == "end"

    def fail(self, expected: str):
        raise ParseError(self.peek().pos, expected, self.text)

    def adjacent(self) -> bool:
        """Next token starts exactly where the previous one ended."""
        if self.i == 0:
            return False
        prev = self.tokens[self.i - 1]
        return self.peek().pos == prev.pos + len(prev.text)


# ---------------------------------------------------------------------------
# Shared productions: nesting, whole-text parses, naturals, rationals, braces
# ---------------------------------------------------------------------------


def _nested(ts: TokenStream, production: Callable, close: Optional[str]):
    """Run a recursive production one nesting level down, then expect `close` if given."""
    if ts.depth >= MAX_NESTING:
        ts.fail(f"at most {MAX_NESTING} levels of nesting")
    ts.depth += 1
    out = production(ts)
    if close:
        ts.expect(close)
    ts.depth -= 1
    return out


def _whole(production: Callable, text: str, what: str):
    """Parse all of `text` with one production."""
    ts = TokenStream(text)
    out = production(ts)
    if not ts.done():
        ts.fail(f"end of {what}")
    return out


def _words(text: str) -> list[tuple[int, str]]:
    """Whitespace-separated words with their columns."""
    return [(m.start(), m.group()) for m in re.finditer(r"\S+", text)]


def parse_natural(ts: TokenStream) -> int:
    t = ts.peek()
    if t.kind != "num":
        ts.fail("a natural number")
    ts.next()
    return int(t.text)


def parse_rational(ts: TokenStream) -> Fraction:
    neg = ts.accept("-")
    if ts.peek().kind != "num":
        ts.fail("a number")
    value = Fraction(parse_natural(ts))
    if ts.at("/") and ts.peek(1).kind == "num":
        ts.next()
        value /= parse_natural(ts)
    return -value if neg else value


def _braced(ts: TokenStream, item: Callable) -> list:
    """`{item, item, ...}`, possibly empty."""
    ts.expect("{")
    out = []
    if not ts.at("}"):
        out.append(item(ts))
        while ts.accept(","):
            out.append(item(ts))
    ts.expect("}")
    return out


# ---------------------------------------------------------------------------
# Ordinal expressions: + and * natural, +. and *. Cantor, ^<> exponentiation
# ---------------------------------------------------------------------------


def parse_ordinal_expr(ts: TokenStream) -> Ord:
    return _ord_sum(ts)


def _ord_sum(ts: TokenStream) -> Ord:
    left = _ord_product(ts)
    while ts.at("+") or ts.at("+."):
        op = ts.next().text
        right = _ord_product(ts)
        left = ordinals.natural_add(left, right) if op == "+" else ordinals.cantor_add(left, right)
    return left


def _ord_product(ts: TokenStream) -> Ord:
    left = _ord_power(ts)
    while ts.at("*") or ts.at("*."):
        op = ts.next().text
        right = _ord_power(ts)
        left = ordinals.natural_mul(left, right) if op == "*" else ordinals.cantor_mul(left, right)
    return left


def _ord_power(ts: TokenStream) -> Ord:
    base = _ord_atom(ts)
    if ts.accept("^<>") or ts.accept("^"):
        return ordinals.ord_exp(base, _nested(ts, _ord_power, None))
    return base


def _ord_atom(ts: TokenStream) -> Ord:
    if ts.accept("w"):
        return ordinals.OMEGA
    if ts.peek().kind == "num":
        return Ord.from_int(parse_natural(ts))
    if ts.accept("("):
        return _nested(ts, _ord_sum, ")")
    ts.fail("an ordinal atom (w, a natural number, or parentheses)")


def parse_ordinal(text: str) -> Ord:
    return _whole(parse_ordinal_expr, text, "ordinal expression")


# ---------------------------------------------------------------------------
# Numerosity expressions
# ---------------------------------------------------------------------------


def parse_numexpr(ts: TokenStream) -> NumExpr:
    return _nf_sum(ts)


def _nf_sum(ts: TokenStream) -> NumExpr:
    if ts.accept("-"):
        left = field.nf_neg(_nf_product(ts))
    else:
        left = _nf_product(ts)
    while ts.at("+") or ts.at("-"):
        op = ts.next().text
        right = _nf_product(ts)
        left = field.nf_add(left, right) if op == "+" else field.nf_sub(left, right)
    return left


def _nf_product(ts: TokenStream) -> NumExpr:
    left = _nf_power(ts)
    while ts.at("*") or ts.at("/"):
        op = ts.next().text
        right = _nf_power(ts)
        left = field.nf_mul(left, right) if op == "*" else field.nf_div(left, right)
    return left


def _nf_power(ts: TokenStream) -> NumExpr:
    base = _nf_atom(ts)
    if ts.accept("^"):
        return field.nf_pow(base, _nested(ts, _nf_power, None))
    return base


def _nf_atom(ts: TokenStream) -> NumExpr:
    t = ts.peek()
    if t.kind == "num":
        return field.from_rational(parse_natural(ts))
    if t.text == "w":
        ts.next()
        if ts.accept("^"):
            return field.omega_power(_ord_atom(ts))
        return field.OMEGA_NF
    if t.text == "alpha":
        ts.next()
        return field.ALPHA
    if t.text == "beta":
        ts.next()
        return field.BETA
    if t.text == "beth1":
        ts.next()
        return field.BETH1
    if t.text == "X":
        ts.next()
        return field.X2W
    if t.text == "num":
        ts.next()
        ts.expect("(")
        return sets.num(_nested(ts, parse_setexpr, ")"))
    if ts.accept("("):
        return _nested(ts, _nf_sum, ")")
    ts.fail("a numerosity atom")


def parse_num(text: str) -> NumExpr:
    return _whole(parse_numexpr, text, "expression")


# ---------------------------------------------------------------------------
# Set expressions: | union, & intersection, \ difference, >< product
# ---------------------------------------------------------------------------


def parse_setexpr(ts: TokenStream) -> sets.SetExpr:
    return _set_union(ts)


def _set_union(ts: TokenStream) -> sets.SetExpr:
    left = _set_inter(ts)
    while ts.accept("|"):
        left = sets.Union_(left, _set_inter(ts))
    return left


def _set_inter(ts: TokenStream) -> sets.SetExpr:
    left = _set_prod(ts)
    while ts.at("&") or ts.at("\\"):
        op = ts.next().text
        right = _set_prod(ts)
        left = sets.Inter(left, right) if op == "&" else sets.Diff(left, right)
    return left


def _set_prod(ts: TokenStream) -> sets.SetExpr:
    left = _set_atom(ts)
    while ts.accept("><"):
        left = sets.Prod(left, _set_atom(ts))
    return left


def _set_atom(ts: TokenStream) -> sets.SetExpr:
    t = ts.peek()
    if t.text == "N":
        ts.next()
        if ts.at("+") and ts.adjacent():
            ts.next()
            return sets.NatPos()
        return sets.NatAll()
    if t.text == "Q":
        ts.next()
        if ts.at("+") and ts.adjacent():
            ts.next()
            return sets.QPos()
        if ts.at("(") and ts.adjacent():
            ts.next()
            p = parse_rational(ts)
            ts.expect(",")
            q = parse_rational(ts)
            ts.expect("]")
            return sets.QInterval(p, q)
        return sets.QAll()
    if t.text == "R":
        ts.next()
        if ts.at("+") and ts.adjacent():
            ts.next()
            return sets.RPos()
        if ts.at("[") and ts.adjacent():
            ts.next()
            p = parse_rational(ts)
            ts.expect(",")
            q = parse_rational(ts)
            ts.expect(")")
            return sets.RInterval(p, q)
        return sets.RAll()
    if t.text == "fin":
        ts.next()
        return sets.FinSet(frozenset(_braced(ts, parse_natural)))
    if t.text == "mod":
        ts.next()
        ts.expect("(")
        p = parse_natural(ts)
        ts.expect(",")
        i = parse_natural(ts)
        ts.expect(")")
        return sets.Mod(p, i)
    if t.text == "pow":
        ts.next()
        ts.expect("(")
        p = parse_natural(ts)
        ts.expect(")")
        return sets.Pow(p)
    if t.text == "Pfin":
        ts.next()
        ts.expect("(")
        ts.expect("N")
        ts.expect(")")
        return sets.PfinN()
    if t.text == "shift":
        ts.next()
        ts.expect("(")
        q = parse_rational(ts)
        ts.expect(",")
        return sets.Shift(q, _nested(ts, parse_setexpr, ")"))
    if t.text == "maps":
        ts.next()
        ts.expect("(")
        k = parse_natural(ts)
        ts.expect(",")
        return sets.FinMapsInto(k, _nested(ts, parse_setexpr, ")"))
    if t.text == "[":
        ts.next()
        ts.expect("0")
        ts.expect(",")
        ts.expect("1")
        ts.expect("]")
        return sets.UnitInterval01()
    if ts.accept("("):
        return _nested(ts, _set_union, ")")
    ts.fail("a set expression")


def parse_set(text: str) -> sets.SetExpr:
    return _whole(parse_setexpr, text, "set expression")


def parse_measure(text: str) -> tuple[sets.SetExpr, NumExpr]:
    """`SET GAMMA`: the arguments of `:measure`."""
    return _whole(lambda ts: (parse_setexpr(ts), parse_numexpr(ts)), text, "expression")


# ---------------------------------------------------------------------------
# Comparisons: two numerosity, ordinal, or surreal operands
# ---------------------------------------------------------------------------

_CANTOR_OPS = ("+.", "*.", "^<>")


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
    ts = TokenStream(text)
    if any(t.text in _CANTOR_OPS for t in ts.tokens):
        pair, what = (parse_ordinal_expr(ts), parse_ordinal_expr(ts)), "ordinal comparison"
    else:
        pair, what = (parse_numexpr(ts), parse_numexpr(ts)), "comparison"
    if not ts.done():
        ts.fail(f"end of {what}")
    return pair


# ---------------------------------------------------------------------------
# Surreal operands and dyadic sets
# ---------------------------------------------------------------------------

# Operator words name `surreal` functions, looked up at call time so that a
# profiler or tracer that rebinds them sees every call.
_SUR_OPS = {"+": "s_add", "-": "s_sub", "*": "s_mul"}


def _dyadic_literal(ts: TokenStream) -> Fraction:
    """`n`, `-n`, `p/q` or `p/q^k`."""
    neg = ts.accept("-")
    value = Fraction(parse_natural(ts))
    if ts.accept("/"):
        den = parse_natural(ts)
        if ts.accept("^"):
            den **= parse_natural(ts)
        value /= den
    return -value if neg else value


def _sur_operand(ts: TokenStream) -> surreal.SignExpansion:
    if ts.accept("plus"):
        ts.expect("(")
        return surreal.ordinal_plus(_nested(ts, _ord_sum, ")"))
    if ts.peek().kind == "num" or (ts.at("-") and ts.peek(1).kind == "num"):
        return surreal.se_from_dyadic(_dyadic_literal(ts))
    if ts.accept("("):
        ts.expect(")")
        return surreal.ZERO_SE
    signs = []
    while ts.at("+") or ts.at("-"):
        signs.append(1 if ts.next().text == "+" else -1)
    if not signs:
        ts.fail("a surreal operand")
    return surreal.SignExpansion(signs)


def parse_surreal_operand(word: str) -> surreal.SignExpansion:
    """A sign string, `()`, `plus(ORD)`, or a dyadic `n`, `-n`, `p/q`, `p/2^k`."""
    return _whole(_sur_operand, word, "surreal operand")


def parse_surreal(text: str) -> surreal.SignExpansion:
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
    return acc


def _dyadic(ts: TokenStream) -> Fraction:
    q = parse_rational(ts)
    if not surreal.is_dyadic(q):
        raise ParseError(0, f"a dyadic rational (got {q})", str(q))
    return q


def parse_dyadic_sets(text: str) -> tuple[list[Fraction], list[Fraction]]:
    """`{d, ...} {d, ...}`: the left and right sets of `:simplest`."""
    return _whole(lambda ts: (_braced(ts, _dyadic), _braced(ts, _dyadic)), text, "dyadic sets")


# ---------------------------------------------------------------------------
# Label-tree elements and the other command words
# ---------------------------------------------------------------------------


def _elem(ts: TokenStream):
    if ts.at("{"):
        return frozenset(_nested(ts, lambda s: _braced(s, _elem), None))
    neg = ts.accept("-")
    n = parse_natural(ts)
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


@dataclass(frozen=True, slots=True)
class OrderAssertion:
    universal_alpha: bool
    lhs: Optional[Monomial]
    rhs: Monomial


def _parse_monomial(ts: TokenStream) -> tuple[Optional[Monomial], bool]:
    """One monomial; returns (monomial, saw_universal_alpha_power).

    alpha^k with an identifier k, for every alpha power, stands alone.
    Otherwise alpha takes a rational exponent; beta, beth1 and X take natural
    exponents; either may be parenthesised.  w takes an infinite ordinal
    exponent with no finite part, in parentheses.
    """
    if ts.at("alpha") and ts.peek(1).text == "^" and ts.peek(2).kind == "ident":
        for _ in range(3):  # alpha ^ k
            ts.next()
        if ts.at("*"):
            ts.fail("alpha^k standing alone, with no other factor")
        return None, True
    alpha = Fraction(0)
    naturals = {"beta": 0, "beth1": 0, "X": 0}
    omega = ordinals.ZERO
    while True:
        t = ts.peek()
        if t.text not in ("alpha", "beta", "beth1", "X", "w"):
            break
        ts.next()
        if t.text == "w":
            if not (ts.accept("^") and ts.accept("(")):
                ts.fail("w requires an ordinal exponent in order assertions")
            pos = ts.peek().pos
            g = _nested(ts, _ord_sum, ")")
            if g.is_finite() or g.finite_part():
                raise ParseError(pos, "an infinite w exponent with no finite part", ts.text)
            omega = ordinals.natural_add(omega, g)
        elif t.text == "alpha":
            alpha += _exponent(ts, parse_rational) if ts.accept("^") else 1
        else:
            naturals[t.text] += _exponent(ts, parse_natural) if ts.accept("^") else 1
        if not ts.accept("*"):
            break
    m = Monomial(alpha, naturals["beta"], naturals["beth1"], naturals["X"], omega)
    return m, False


def _exponent(ts: TokenStream, production: Callable):
    """A generator's exponent after `^`: bare, or in parentheses."""
    if ts.accept("("):
        return _nested(ts, production, ")")
    return production(ts)


def parse_order_assertion(text: str) -> OrderAssertion:
    ts = TokenStream(text)
    lhs, universal = _parse_monomial(ts)
    ts.expect("<")
    rhs, runi = _parse_monomial(ts)
    if runi or rhs is None:
        ts.fail("a concrete monomial on the right")
    if not ts.done():
        ts.fail("end of assertion")
    return OrderAssertion(universal, lhs, rhs)
