"""Exact symbolic arithmetic on numerosity expressions.

Values are quotients of generalized polynomials over four infinite generators
-- alpha (the positive naturals), beta (the unit half-open interval), beth1
(the full power set of the naturals), X = 2^w (the finite subsets) -- plus
w-power monomials with infinite ordinal exponents.  Finite w-powers are
expanded eagerly through w = alpha + 1, so alpha-polynomials and w-monomials
coexist in one normal form.

Comparison is deliberately partial: only grounded order rules decide, and
everything else is reported as Unknown with the blocking pair named.  Extra
order axioms live in an AxiomTable value passed explicitly to the comparison
entry points.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import partial
from operator import itemgetter
from typing import Iterable, Optional

from .ordinals import (Ord, UnsupportedPower, _ord, _square_multiply, cantor_add, check_power_bits,
                       format_int, format_ordinal)


class DivisionByZero(ZeroDivisionError):
    pass


class NonPositiveGamma(ValueError):
    pass


class InconsistentOrder(ValueError):
    pass


class MeasureInternalError(RuntimeError):
    """A gamma-measure came out -infinity, impossible for set numerosities."""


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------


class Monomial(namedtuple("Monomial", "omega x2w beth1 beta alpha")):
    """Product of generator powers, stored as its own order key: one exponent tuple.

    alpha carries a rational exponent, an int when it is integral (an equal
    int and Fraction compare and hash alike); beta, beth1 and X = 2^w carry
    integer ones.  The w-powers form a free commutative monoid with one
    generator w^(w^e) per CNF term: omega holds (e, k) pairs, e a non-zero
    Ord, by decreasing e, and k a non-zero integer, so w^g for an infinite g
    with no finite part has g's own terms as omega.  Exponents may be
    negative, so a quotient of monomials is a monomial; in a NumExpr they are
    non-negative.  The operations below build the tuple directly through `_mono`.
    """

    __slots__ = ()

    def __new__(cls, alpha: Fraction | int = 0, beta: int = 0, beth1: int = 0, x2w: int = 0,
                omega: tuple[tuple[Ord, int], ...] = ()) -> "Monomial":
        if alpha.__class__ is not int and alpha.denominator == 1:
            alpha = alpha.numerator
        return tuple.__new__(cls, (tuple(omega), x2w, beth1, beta, alpha))

    def __reduce__(self) -> tuple:
        return _mono, (tuple(self),)

    def __str__(self) -> str:
        return format_monomial(self)


_mono = partial(tuple.__new__, Monomial)
UNIT = Monomial()


def _omega_sum(ao: tuple, bo: tuple, sign: int) -> tuple:
    """ao + sign*bo on w-parts, sorted by decreasing ordinal key, zero entries dropped."""
    d = dict(ao)
    for e, k in bo:
        d[e] = d.get(e, 0) + sign * k
    return tuple(sorted([t for t in d.items() if t[1]], reverse=True))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The exponents add; the omega parts are merged only when both sides have one."""
    ao, ax, ah, ab, aa = a
    bo, bx, bh, bb, ba = b
    alpha = aa + ba
    if alpha.__class__ is not int and alpha.denominator == 1:
        alpha = alpha.numerator
    return _mono((_omega_sum(ao, bo, 1) if ao and bo else ao or bo, ax + bx, ah + bh, ab + bb, alpha))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    ao, ax, ah, ab, aa = a
    bo, bx, bh, bb, ba = b
    alpha = aa - ba
    if alpha.__class__ is not int and alpha.denominator == 1:
        alpha = alpha.numerator
    return _mono((_omega_sum(ao, bo, -1) if bo else ao, ax - bx, ah - bh, ab - bb, alpha))


def _mono_pow(m: Monomial, n: int) -> Monomial:
    """m to the power n > 0: every exponent times n."""
    omega, x2w, beth1, beta, alpha = m
    alpha *= n
    if alpha.__class__ is not int and alpha.denominator == 1:
        alpha = alpha.numerator
    return _mono((tuple((e, k * n) for e, k in omega), x2w * n, beth1 * n, beta * n, alpha))


def _omega_sign(r: Monomial) -> int:
    """Sign of the leading w-power exponent; for r = m1/m2 it is ord_cmp of their w-exponents."""
    if not r.omega:
        return 0
    return 1 if r.omega[0][1] > 0 else -1


Terms = tuple[tuple[int, Monomial], ...]


def _sort_terms(d: dict[Monomial, int]) -> Terms:
    items = [(c, m) for m, c in d.items() if c]
    items.sort(key=itemgetter(1), reverse=True)
    return tuple(items)


def _poly_add(a: Terms, b: Terms) -> Terms:
    d: dict[Monomial, int] = {}
    for c, m in a + b:
        d[m] = d[m] + c if m in d else c
    return _sort_terms(d)


def _poly_neg(a: Terms) -> Terms:
    return tuple((-c, m) for c, m in a)


def _poly_mul(a: Terms, b: Terms) -> Terms:
    """Product of two sorted, duplicate-free, zero-free term lists.

    A constant side scales the other, which keeps its order; a constant 1
    returns the other side itself.  A one-term side multiplies each term of
    the other: with non-negative exponents the monomial order is the
    lexicographic order of exponent vectors, which adding one vector keeps,
    so the products stay sorted and distinct.
    """
    if len(b) != 1 or b[0][1] != UNIT:  # a constant side, if any, goes to b
        a, b = b, a
    if len(b) == 1 and b[0][1] == UNIT:
        c = b[0][0]
        return a if c == 1 else tuple((ca * c, ma) for ca, ma in a)
    if len(b) != 1:  # then a one-term side, if any
        a, b = b, a
    if len(b) == 1:
        cb, mb = b[0]
        return tuple((ca * cb, mono_mul(ma, mb)) for ca, ma in a)
    d: dict[Monomial, int] = {}
    for ca, ma in a:
        for cb, mb in b:
            m = mono_mul(ma, mb)
            d[m] = d[m] + ca * cb if m in d else ca * cb
    return _sort_terms(d)


# ---------------------------------------------------------------------------
# NumExpr
# ---------------------------------------------------------------------------


class NumExpr(namedtuple("NumExpr", "num den", defaults=((), ((1, UNIT),)))):
    """Canonical quotient of two generalized polynomials, the tuple (num, den).

    Invariants: term lists are sorted by decreasing monomial and duplicate-free;
    every coefficient is a non-zero int, the gcd of all numerator and
    denominator coefficients is 1 and the denominator's leading coefficient
    is positive (one-to-one with the monic form, whose coefficients are these
    divided by that lead); joint monomial content has been cancelled (so all
    stored exponents are non-negative); zero is the empty numerator over the
    unit denominator.  The operations below build the tuple through `_nx`.
    """

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.num

    def as_rational(self) -> Optional[Fraction]:
        if self.is_zero():
            return Fraction(0)
        d = _constant_den(self)
        if d is not None and len(self.num) == 1 and self.num[0][1] == UNIT:
            return Fraction(self.num[0][0], d)
        return None

    def __str__(self) -> str:
        return format_numexpr(self)

    def __repr__(self) -> str:
        return f"NumExpr[{format_numexpr(self)}]"


_nx = partial(tuple.__new__, NumExpr)


def _constant_den(x: NumExpr) -> Optional[int]:
    """The denominator of x when it is a constant (a positive int), else None."""
    if len(x.den) == 1 and x.den[0][1] == UNIT:
        return x.den[0][0]
    return None


def _content(terms: Iterable[tuple[int, Monomial]], nonnegative: bool = False) -> Monomial:
    """Componentwise minimum of the exponents, in one pass; an absent w-entry counts as 0.

    With `nonnegative` (every exponent >= 0) a term without a w-part makes the
    content's w-part empty, so the per-term dicts are skipped.
    """
    omegas, x2w, beth1, beta, alpha = zip(*(m for _, m in terms))
    if nonnegative and not all(omegas):
        omega = ()
    else:
        ds = [dict(o) for o in omegas]
        omega = tuple((e, k) for e in sorted(set().union(*ds), reverse=True)
                      if (k := min(d.get(e, 0) for d in ds)))
    return _mono((omega, min(x2w), min(beth1), min(beta), min(alpha)))


def _make(num: Terms, den: Terms) -> NumExpr:
    if not den:
        raise DivisionByZero("denominator is zero")
    if not num:
        return ZERO
    if num == den:
        return ONE
    # Exponents are non-negative here, so a unit term sorts last and forces unit content.
    if UNIT not in (num[-1][1], den[-1][1]):
        if len(num) == len(den) == 1:
            # A monomial over a monomial: the quotient's positive exponents go
            # up, its negative ones down, which is what cancelling the content leaves.
            ro, rx, rh, rb, ra = mono_div(num[0][1], den[0][1])
            num = ((num[0][0], _mono((tuple(t for t in ro if t[1] > 0),
                                      max(rx, 0), max(rh, 0), max(rb, 0), max(ra, 0)))),)
            den = ((den[0][0], _mono((tuple((e, -k) for e, k in ro if k < 0),
                                      -min(rx, 0), -min(rh, 0), -min(rb, 0), -min(ra, 0)))),)
        elif (content := _content(num + den, nonnegative=True)) != UNIT:
            num = tuple((c, mono_div(m, content)) for c, m in num)
            den = tuple((c, mono_div(m, content)) for c, m in den)
    # A denominator lead of 1 already makes the joint gcd 1 and the lead positive.
    if den[0][0] != 1:
        g = math.gcd(*(c for c, _ in num), *(c for c, _ in den))
        if den[0][0] < 0:
            g = -g
        if g != 1:
            num = tuple((c // g, m) for c, m in num)
            den = tuple((c // g, m) for c, m in den)
    return _nx((num, den))


ZERO = NumExpr()
ONE = NumExpr(((1, UNIT),), ((1, UNIT),))


def from_rational(q: Fraction | int) -> NumExpr:
    if q == 0:
        return ZERO
    return _nx((((q.numerator, UNIT),), ((q.denominator, UNIT),)))


def _atom(m: Monomial) -> NumExpr:
    return _nx((((1, m),), ((1, UNIT),)))


ALPHA = _atom(Monomial(alpha=1))
BETA = _atom(Monomial(beta=1))
BETH1 = _atom(Monomial(beth1=1))
X2W = _atom(Monomial(x2w=1))


def alpha_power(q: Fraction) -> NumExpr:
    if q == 0:
        return ONE
    if q > 0:
        return _atom(Monomial(alpha=q))
    return NumExpr(((1, UNIT),), ((1, Monomial(alpha=-q)),))


def _den_ratio(a: Terms, b: Terms) -> Optional[tuple[int, int]]:
    """Coprime (p, q) with a = p*D and b = q*D for one polynomial D, or None.

    The leads are positive, so b is a constant multiple of a exactly when
    both have the same monomials and ca*lb == cb*la term by term.
    """
    if len(a) != len(b):
        return None
    la, lb = a[0][0], b[0][0]
    for (ca, ma), (cb, mb) in zip(a, b):
        if ma != mb or ca * lb != cb * la:
            return None
    g = math.gcd(la, lb)
    return la // g, lb // g


def nf_add(a: NumExpr, b: NumExpr) -> NumExpr:
    if not a.num:
        return b
    if not b.num:
        return a
    pq = _den_ratio(a.den, b.den)
    if pq is None:
        return _make(_poly_add(_poly_mul(a.num, b.den), _poly_mul(b.num, a.den)),
                     _poly_mul(a.den, b.den))
    # a.num/(p*D) + b.num/(q*D) = (q*a.num + p*b.num)/(q*a.den): the gcd of
    # the denominators is all of D (Henrici's rule), so D is not squared.
    p, q = pq
    return _make(_poly_add(_poly_mul(a.num, ((q, UNIT),)), _poly_mul(b.num, ((p, UNIT),))),
                 _poly_mul(a.den, ((q, UNIT),)))


def nf_neg(a: NumExpr) -> NumExpr:
    return _make(_poly_neg(a.num), a.den)


def nf_sub(a: NumExpr, b: NumExpr) -> NumExpr:
    return nf_add(a, nf_neg(b))


def nf_mul(a: NumExpr, b: NumExpr) -> NumExpr:
    return _make(_poly_mul(a.num, b.num), _poly_mul(a.den, b.den))


def nf_div(a: NumExpr, b: NumExpr) -> NumExpr:
    if b.is_zero():
        raise DivisionByZero("division by the zero numerosity expression")
    return _make(_poly_mul(a.num, b.den), _poly_mul(a.den, b.num))


def nf_eq(a: NumExpr, b: NumExpr) -> bool:
    return nf_sub(a, b).is_zero()


OMEGA_NF = nf_add(ALPHA, ONE)
TWO = from_rational(2)


def omega_power(exp: Ord) -> NumExpr:
    """The numerosity w^exp; finite exponent parts expand through w = alpha+1."""
    if exp.is_zero():
        return ONE
    r = exp.finite_part()
    if exp.is_finite():
        return nf_pow(OMEGA_NF, from_rational(r))
    if not r:
        return _atom(_mono((tuple(exp), 0, 0, 0, 0)))
    return nf_mul(_atom(_mono((exp[:-1], 0, 0, 0, 0))), nf_pow(OMEGA_NF, from_rational(r)))


def embed(o: Ord) -> NumExpr:
    """Order-embedding of the ordinals below epsilon_0 into expressions."""
    out = ZERO
    for e, c in o:
        out = nf_add(out, nf_mul(from_rational(c), omega_power(e)))
    return out


def unembed(x: NumExpr) -> Optional[Ord]:
    """Inverse of embed on its image; None if x is not an embedded ordinal."""
    rest = x
    cnf: list[tuple[Ord, int]] = []
    prev: Optional[Ord] = None
    while not rest.is_zero():
        d = _constant_den(rest)
        if d is None:
            return None
        c, m = rest.num[0]  # dominant by key: omega grade then alpha degree
        if m.beta or m.beth1 or m.x2w:
            return None
        if m.alpha.denominator != 1 or m.alpha < 0:
            return None
        # A w^g * alpha^r monomial is the split image of exponent g + r.
        e = Ord.from_int(int(m.alpha))
        if m.omega:
            e = cantor_add(_ord(m.omega), e)
        if c % d or c <= 0:
            return None
        if prev is not None and e >= prev:
            return None
        cnf.append((e, c // d))
        prev = e
        rest = nf_sub(rest, nf_mul(from_rational(c // d), omega_power(e)))
    return Ord(tuple(cnf))


class UnsupportedPowerPair(UnsupportedPower):
    pass


def int_root(n: int, k: int) -> Optional[int]:
    """The exact k-th root of the natural n, or None; Newton's method from above."""
    if k == 1 or n in (0, 1):
        return n
    if k >= n.bit_length():  # 1 < n < 2**k: no integer root
        return None
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == n else None
        x = y


def _rational_root(q: Fraction, k: int) -> Optional[Fraction]:
    if q < 0 and k > 1:
        return None
    p, d = int_root(q.numerator, k), int_root(q.denominator, k)
    return None if p is None or d is None else Fraction(p, d)


def _alpha_affine(x: NumExpr) -> Optional[tuple[int, int]]:
    """Decompose x = a*alpha + c with integers a >= 0, c; None otherwise."""
    d = _constant_den(x)
    if d is None:
        return None
    a = c = 0
    for coeff, m in x.num:
        if m == UNIT:
            c = coeff
        elif m == Monomial(alpha=1):
            a = coeff
        else:
            return None
    if a % d or c % d or a < 0:
        return None
    return a // d, c // d


def _as_natural(x: NumExpr) -> Optional[int]:
    """x as a natural number, or None; read off the stored form, where n > 0 is n/1."""
    if x.den != ONE.den:
        return None
    if not x.num:
        return 0
    c, m = x.num[0]  # a unit monomial sorts last, so it is the only term
    return c if m == UNIT and c > 0 else None


def nf_pow(base: NumExpr, exp: NumExpr) -> NumExpr:
    """Exponentiation on the supported case matrix; raises otherwise.

    Cases: non-negative integer exponents (iterated product, or the
    exponents times n for a monomial over a monomial); a single
    alpha-monomial base with rational exponent (exponent scaling); base 2^j
    with exponent a*alpha + c (covers 2^w = X); base w with an embedded
    ordinal exponent (w-power monomials).
    """
    n = _as_natural(exp)
    if n is not None:
        b = base.as_rational()
        if b is not None:
            check_power_bits(b, n)
        if n and len(base.num) == len(base.den) == 1:
            # A monomial over a monomial: its coefficients stay coprime and
            # each exponent stays 0 on one side, so this is the stored form.
            (cn, mn), (cd, md) = base.num[0], base.den[0]
            return _nx((((cn**n, _mono_pow(mn, n)),), ((cd**n, _mono_pow(md, n)),)))
        return _square_multiply(base, n, nf_mul, ONE)

    r = exp.as_rational()
    if r is not None:
        # Rational non-integer exponent: only single monomials in alpha.
        d = _constant_den(base)
        if (
            d is not None
            and len(base.num) == 1
            and base.num[0][1] == Monomial(alpha=base.num[0][1].alpha)
        ):
            coeff, m = Fraction(base.num[0][0], d), base.num[0][1]
            if r.denominator == 1:
                check_power_bits(coeff, r.numerator)
                croot = coeff**int(r)
            else:
                root = _rational_root(coeff, r.denominator)
                if root is None:
                    raise UnsupportedPowerPair(
                        f"the coefficient {coeff} has no non-negative rational root of order {r.denominator}"
                    )
                check_power_bits(root, r.numerator)
                croot = root ** r.numerator if r.numerator >= 0 else Fraction(1) / root ** (-r.numerator)
            return nf_mul(from_rational(croot), alpha_power(m.alpha * r))
        raise UnsupportedPowerPair(
            f"rational exponent {r} requires a single alpha-monomial base"
        )

    b = base.as_rational()
    if b is not None and b > 0 and b.denominator == 1:
        n = int(b)
        if n == 1:
            return ONE
        j = n.bit_length() - 1
        if n == 1 << j:
            aff = _alpha_affine(exp)
            if aff is not None:
                a, c = aff
                # (2^j)^(a*alpha + c) = 2^(j*c - j*a) * X^(j*a), using 2^alpha = X/2.
                ja, jc = j * a, j * c
                check_power_bits(2, jc - ja)
                scale = Fraction(2) ** (jc - ja)
                return nf_mul(from_rational(scale), _atom(Monomial(x2w=ja)) if ja else ONE)
        raise UnsupportedPowerPair(
            f"finite base {n} supports only power-of-two bases with exponents a*alpha+c"
        )

    if nf_eq(base, OMEGA_NF):
        g = unembed(exp)
        if g is not None:
            return omega_power(g)
        raise UnsupportedPowerPair("base w requires an embedded ordinal exponent")

    raise UnsupportedPowerPair("base/exponent pair outside the supported matrix")


# ---------------------------------------------------------------------------
# Axiom table
# ---------------------------------------------------------------------------


class AxiomTable(namedtuple("AxiomTable", "bb_mode declared", defaults=(False, ()))):
    """Session-scoped order axioms.

    bb_mode rewrites beth1 to beta + X on input (applied by callers via
    apply_bb).  declared holds extra order assertions: ("alpha_dom", m) means
    every alpha power lies below monomial m (a dominance-grade relation);
    ("lt", m1, m2) is a single order-grade assertion.
    """

    __slots__ = ()

    def with_bb(self, on: bool = True) -> "AxiomTable":
        return AxiomTable(on, self.declared)

    def with_alpha_dominated_by(self, m: Monomial) -> "AxiomTable":
        probe = Monomial(alpha=1)
        c = _mono_order(probe, m, self)
        if c is not None and c >= 0:
            raise InconsistentOrder(f"alpha^k < {format_monomial(m)} contradicts the built-in order")
        return AxiomTable(self.bb_mode, self.declared + (("alpha_dom", m),))

    def with_order(self, m1: Monomial, m2: Monomial) -> "AxiomTable":
        c = _mono_order(m1, m2, self)
        if c is not None and c >= 0:
            raise InconsistentOrder(
                f"{format_monomial(m1)} < {format_monomial(m2)} contradicts the built-in order"
            )
        return AxiomTable(self.bb_mode, self.declared + (("lt", m1, m2),))


DEFAULT_TABLE = AxiomTable()


def apply_bb(x: NumExpr, table: AxiomTable) -> NumExpr:
    """Rewrite beth1 := beta + X when the table is in bb mode."""
    if not table.bb_mode:
        return x

    def subst(terms: Terms) -> NumExpr:
        out = ZERO
        bx = nf_add(BETA, X2W)
        for c, m in terms:
            stripped = m._replace(beth1=0)
            piece = nf_mul(from_rational(c), _atom(stripped) if stripped != UNIT else ONE)
            out = nf_add(out, nf_mul(piece, nf_pow(bx, from_rational(m.beth1))))
        return out

    return nf_div(subst(x.num), subst(x.den))


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

LESS, EQUAL, GREATER, UNKNOWN = "less", "equal", "greater", "unknown"


class Comparison(namedtuple("Comparison", "kind reason", defaults=(None,))):
    __slots__ = ()

    def __str__(self) -> str:
        if self.kind == UNKNOWN and self.reason:
            return f"unknown ({self.reason})"
        return self.kind


def _alpha_dominators(table: AxiomTable) -> list[Monomial]:
    return [m for tag, *rest in table.declared if tag == "alpha_dom" for m in rest]


def _ratio_exceeds_one(r: Monomial, table: AxiomTable, need_dominance: bool) -> bool:
    """Sound one-sided test: does the ratio r exceed 1 (or every rational)?

    Only grounded rules fire: positive generator powers are infinite; X and
    w-powers dominate every alpha power; beta exceeds alpha once per factor
    (order grade only); declared alpha-dominators absorb any alpha deficit.
    """
    omega_sign = _omega_sign(r)
    if r.beth1 < 0 or r.x2w < 0 or omega_sign < 0 or r.beta < 0:
        # A deficit in a non-alpha generator is never covered by built-ins.
        return False
    if r.alpha >= 0:
        return r != UNIT
    # alpha deficit: needs coverage by a dominating generator.
    if r.x2w > 0 or omega_sign > 0:
        return True
    for m in _alpha_dominators(table):
        # Declared: every alpha power < m.  One unit of a matching generator
        # in the positive part absorbs the whole alpha deficit, with room.
        if (m == Monomial(beta=1) and r.beta >= 1) or (m == Monomial(beth1=1) and r.beth1 >= 1):
            return True
    # beta^b * alpha^a exceeds 1 for a >= -b (each beta/alpha factor exceeds
    # 1) and every rational for a > -b.
    if need_dominance:
        return -r.alpha < r.beta
    return -r.alpha <= r.beta


def _declared_order(m1: Monomial, m2: Monomial, table: AxiomTable) -> Optional[int]:
    for entry in table.declared:
        if entry[0] != "lt":
            continue
        _, a, b = entry
        if (m1, m2) == (a, b):
            return -1
        if (m1, m2) == (b, a):
            return 1
    return None


def _mono_order(m1: Monomial, m2: Monomial, table: AxiomTable) -> Optional[int]:
    if m1 == m2:
        return 0
    if _ratio_exceeds_one(mono_div(m1, m2), table, need_dominance=False):
        return 1
    if _ratio_exceeds_one(mono_div(m2, m1), table, need_dominance=False):
        return -1
    d = _declared_order(m1, m2, table)
    if d is not None:
        return d
    return None


def _mono_dominates(m1: Monomial, m2: Monomial, table: AxiomTable) -> bool:
    """True iff m1/m2 exceeds every rational (infinite ratio)."""
    return _ratio_exceeds_one(mono_div(m1, m2), table, need_dominance=True)


def _blocking_pair(terms: Terms) -> str:
    """The first positive term over the first negative one; `_poly_sign` asks
    only when both signs occur."""
    r = mono_div(next(m for c, m in terms if c > 0), next(m for c, m in terms if c < 0))
    return f"{_format_ratio_side(r, positive=True)} vs {_format_ratio_side(r, positive=False)} undeclared"


def _poly_sign(terms: Terms, table: AxiomTable) -> tuple[Optional[int], Optional[str]]:
    """Sign of a non-empty polynomial, or None with the pair that blocks it."""
    if all(c > 0 for c, _ in terms):
        return 1, None
    if all(c < 0 for c, _ in terms):
        return -1, None

    def positive_decided(ts: Terms) -> bool:
        neg = [(c, m) for c, m in ts if c < 0]
        total_neg = -sum(c for c, _ in neg)
        for c, m in ts:
            if c <= 0:
                continue
            if all(_mono_dominates(m, mn, table) for _, mn in neg):
                return True
            if c >= total_neg and all(
                (_mono_order(m, mn, table) or 0) > 0 for _, mn in neg
            ):
                return True
        return False

    if positive_decided(terms):
        return 1, None
    if positive_decided(_poly_neg(terms)):
        return -1, None
    return None, _blocking_pair(terms)


def nf_cmp(a: NumExpr, b: NumExpr, table: AxiomTable = DEFAULT_TABLE) -> Comparison:
    """Partial comparison: cross-multiplied equality, then dominant-sign."""
    diff = nf_sub(a, b)
    if diff.is_zero():
        return Comparison(EQUAL)
    sn, rn = _poly_sign(diff.num, table)
    if sn is None:
        return Comparison(UNKNOWN, rn)
    sd, rd = _poly_sign(diff.den, table)
    if sd is None:
        return Comparison(UNKNOWN, rd)
    s = sn * sd
    return Comparison(GREATER if s > 0 else LESS)


# ---------------------------------------------------------------------------
# Standard part and gamma-measure
# ---------------------------------------------------------------------------

FINITE, PLUS_INF, MINUS_INF = "finite", "+infinity", "-infinity"


class StandardPart(namedtuple("StandardPart", "kind value reason", defaults=(None, None))):
    __slots__ = ()

    def __str__(self) -> str:
        if self.kind == FINITE:
            return format_rational(self.value)
        if self.kind == UNKNOWN and self.reason:
            return f"unknown ({self.reason})"
        return self.kind


def _dominant_term(terms: Terms, table: AxiomTable) -> Optional[tuple[int, Monomial]]:
    """The term whose monomial dominates every other one, if there is one.

    Only the first can: `_mono_dominates(m1, m2)` needs m1/m2's leading
    non-zero exponent positive (no rule of `_ratio_exceeds_one` answers yes on
    a deficit before alpha or without a surplus), so with non-negative
    exponents m1 sorts above m2, and terms sort by decreasing monomial.
    """
    if terms and all(_mono_dominates(terms[0][1], m, table) for _, m in terms[1:]):
        return terms[0]
    return None


def standard_part(a: NumExpr, table: AxiomTable = DEFAULT_TABLE) -> StandardPart:
    """Shadow of a on the real line: leading-term quotient when decided."""
    if a.is_zero():
        return StandardPart(FINITE, Fraction(0))
    top = _dominant_term(a.num, table)
    bot = _dominant_term(a.den, table)
    if top is None or bot is None:
        return StandardPart(UNKNOWN, reason="dominant term undecided")
    cn, mn = top
    cd, md = bot
    if mn == md:
        return StandardPart(FINITE, Fraction(cn, cd))
    if _mono_dominates(mn, md, table):
        return StandardPart(PLUS_INF if cn * cd > 0 else MINUS_INF)
    if _mono_dominates(md, mn, table):
        return StandardPart(FINITE, Fraction(0))
    return StandardPart(
        UNKNOWN,
        reason=f"{format_monomial(mn)} vs {format_monomial(md)} dominance undeclared",
    )


def gamma_measure(num_a: NumExpr, gamma: NumExpr,
                  table: AxiomTable = DEFAULT_TABLE) -> StandardPart:
    """st(num_a / gamma); gamma must be decidedly positive."""
    if nf_cmp(gamma, ZERO, table).kind != GREATER:
        raise NonPositiveGamma(f"gamma = {gamma} is not decidedly positive")
    st = standard_part(nf_div(num_a, gamma), table)
    if st.kind == MINUS_INF:
        raise MeasureInternalError("negative infinite measure from a set numerosity")
    return st


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def format_rational(q: Fraction | int) -> str:
    """str(q), its parts within the digit budget of `format_int`."""
    return format_int(q.numerator) + ("" if q.denominator == 1 else f"/{format_int(q.denominator)}")


def _fmt_exp(q: Fraction) -> str:
    return format_rational(q) if q.denominator == 1 else f"({format_rational(q)})"


def format_monomial(m: Monomial) -> str:
    if m == UNIT:
        return "1"
    parts = []
    if m.omega:
        parts.append(f"w^({format_ordinal(_ord(m.omega))})")
    if m.x2w:
        parts.append("X" if m.x2w == 1 else f"X^{format_int(m.x2w)}")
    if m.beth1:
        parts.append("beth1" if m.beth1 == 1 else f"beth1^{format_int(m.beth1)}")
    if m.beta:
        parts.append("beta" if m.beta == 1 else f"beta^{format_int(m.beta)}")
    if m.alpha:
        parts.append("alpha" if m.alpha == 1 else f"alpha^{_fmt_exp(m.alpha)}")
    return "*".join(parts)


def _format_ratio_side(r: Monomial, positive: bool) -> str:
    sgn = 1 if positive else -1
    parts = []
    if _omega_sign(r) * sgn > 0:
        parts.append("w-power")
    if r.x2w * sgn > 0:
        parts.append("2^w" if abs(r.x2w) == 1 else f"2^w^{format_int(abs(r.x2w))}")
    if r.beth1 * sgn > 0:
        parts.append("beth1" if abs(r.beth1) == 1 else f"beth1^{format_int(abs(r.beth1))}")
    if r.beta * sgn > 0:
        parts.append("beta" if abs(r.beta) == 1 else f"beta^{format_int(abs(r.beta))}")
    if r.alpha * sgn > 0:
        q = abs(r.alpha)
        parts.append("alpha" if q == 1 else f"alpha^{_fmt_exp(q)}")
    return "*".join(parts) if parts else "1"


def _signed_sum(parts: list[tuple[bool, str]]) -> str:
    """`a + b - c` from (positive, body) pairs, the first sign as a bare `-`; "0" for none."""
    if not parts:
        return "0"
    text = " ".join(f"+ {body}" if positive else f"- {body}" for positive, body in parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def format_poly(terms: Terms, lead: int) -> str:
    """The terms with every coefficient divided by lead (the denominator's, for a NumExpr)."""
    parts = []
    for c, m in terms:
        mag = Fraction(abs(c), lead)
        if m == UNIT:
            body = format_rational(mag)
        elif mag == 1:
            body = format_monomial(m)
        else:
            body = f"{format_rational(mag)}*{format_monomial(m)}"
        parts.append((c > 0, body))
    return _signed_sum(parts)


def format_numexpr(x: NumExpr) -> str:
    lead = x.den[0][0]
    num = format_poly(x.num, lead)
    if _constant_den(x) is not None:
        return num
    den = format_poly(x.den, lead)
    lhs = f"({num})" if len(x.num) > 1 else num
    rhs = f"({den})" if len(x.den) > 1 else den
    return f"{lhs}/{rhs}"


def numexpr_to_json(x: NumExpr) -> dict:
    lead = x.den[0][0]
    return {
        "num": [[format_rational(Fraction(c, lead)), format_monomial(m)] for c, m in x.num],
        "den": [[format_rational(Fraction(c, lead)), format_monomial(m)] for c, m in x.den],
    }
