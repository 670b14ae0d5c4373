"""Definable sets over N, Q, and R with exact counting and numerosity.

Each atom either compiles to a closed-form counting function on its canonical
chain (finite sets, congruence classes, perfect powers, bounded intervals,
finite subsets of N) or carries a comparison-map rewrite for its numerosity
(the unbounded ℚ and ℝ sets, the unit interval); products, finite colorings
and shifts are counted from their parts.  Unions, intersections and
differences are counted by the sum rule through their meet, a set node equal
to the intersection of the two sides: A ∪ B counts A + B − (A ∩ B), A ∩ B
the meet, and A ∖ B counts A − (A ∩ B).  Any two sets over one domain have a
difference.  The meet comes from subset and disjointness certificates, which
combine their parts' through three combiners, and a count is refused only
where no meet is found.  A literal enumeration oracle backs the compiled
forms and the certificates at tiny chain indices.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Optional

from . import chains, field
from .chains import ChainKind, CountingFn, IndexTooLarge, chain_card
from .field import NumExpr


class Uncompilable(ValueError):
    def __init__(self, node: "SetExpr", why: str):
        super().__init__(f"{node}: {why}")
        self.node = node
        self.why = why


YES, NO, UNDECIDED = "yes", "no", "undecided"


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class SetExpr(tuple):
    """A set node, the tuple of its fields (checked in `__new__`).  Equality also
    compares the class: `N` and `N+` are both the empty tuple, and `A | B` and
    `A & B` both the tuple (A, B).  A node is always true."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return self.__class__ is not other.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}()"

    def __str__(self) -> str:
        return format_set(self)


class NatAll(SetExpr):
    __slots__ = ()


class NatPos(SetExpr):
    __slots__ = ()


class FinSet(namedtuple("FinSet", "elems"), SetExpr):
    __slots__ = ()

    def __new__(cls, elems: frozenset[int] = frozenset()) -> "FinSet":
        if any(e < 0 for e in elems):
            raise ValueError("finite sets hold naturals")
        return tuple.__new__(cls, (elems,))


class Mod(namedtuple("Mod", "p i"), SetExpr):
    """{n in N+ : n = i (mod p)}."""

    __slots__ = ()

    def __new__(cls, p: int, i: int) -> "Mod":
        if p < 1 or not (0 <= i < p):
            raise ValueError("need p >= 1 and 0 <= i < p")
        return tuple.__new__(cls, (p, i))


class Pow(namedtuple("Pow", "p"), SetExpr):
    """{x^p : x in N+}."""

    __slots__ = ()

    def __new__(cls, p: int) -> "Pow":
        if p < 1:
            raise ValueError("need p >= 1")
        return tuple.__new__(cls, (p,))


class PfinN(SetExpr):
    """All finite subsets of N."""

    __slots__ = ()


class QInterval(namedtuple("QInterval", "p q"), SetExpr):
    """Q ∩ (p, q], rational endpoints."""

    __slots__ = ()

    def __new__(cls, p: Fraction, q: Fraction) -> "QInterval":
        if p >= q:
            raise ValueError("need p < q")
        return tuple.__new__(cls, (p, q))


class QPos(SetExpr):
    __slots__ = ()


class QAll(SetExpr):
    __slots__ = ()


class RInterval(namedtuple("RInterval", "p q"), SetExpr):
    """[p, q), rational endpoints."""

    __slots__ = ()

    def __new__(cls, p: Fraction, q: Fraction) -> "RInterval":
        if p >= q:
            raise ValueError("need p < q")
        return tuple.__new__(cls, (p, q))


class RPos(SetExpr):
    __slots__ = ()


class RAll(SetExpr):
    __slots__ = ()


class UnitInterval01(SetExpr):
    """[0, 1] as a set of reals."""

    __slots__ = ()


class Shift(namedtuple("Shift", "q child"), SetExpr):
    __slots__ = ()


class Union_(namedtuple("Union_", "left right"), SetExpr):
    __slots__ = ()

    def __new__(cls, left: SetExpr, right: SetExpr) -> "Union_":
        return _same_domain(cls, left, right, "union")


class Inter(namedtuple("Inter", "left right"), SetExpr):
    __slots__ = ()

    def __new__(cls, left: SetExpr, right: SetExpr) -> "Inter":
        return _same_domain(cls, left, right, "intersection")


class Diff(namedtuple("Diff", "left right"), SetExpr):
    __slots__ = ()

    def __new__(cls, left: SetExpr, right: SetExpr) -> "Diff":
        return _same_domain(cls, left, right, "difference")


class Prod(namedtuple("Prod", "left right"), SetExpr):
    __slots__ = ()


class FinMapsInto(namedtuple("FinMapsInto", "k child"), SetExpr):
    """k-valued finite colorings of the child set; counts k^|S ∩ label|."""

    __slots__ = ()

    def __new__(cls, k: int, child: SetExpr) -> "FinMapsInto":
        if k < 1:
            raise ValueError("need k >= 1")
        return tuple.__new__(cls, (k, child))


GROUND_NAT = (NatAll, NatPos, FinSet, Mod, Pow)
GROUND_RAT = (QInterval, QPos, QAll)
GROUND_REAL = (RInterval, RPos, RAll, UnitInterval01)


def domain(e: SetExpr) -> Optional[ChainKind]:
    """Ground chain of e; None for higher-order nodes (powersets, products)."""
    if isinstance(e, GROUND_NAT):
        return ChainKind.NAT
    if isinstance(e, GROUND_RAT):
        return ChainKind.RAT
    if isinstance(e, GROUND_REAL):
        return ChainKind.REAL
    if isinstance(e, Shift):
        return domain(e.child)
    if isinstance(e, (Union_, Inter, Diff)):
        return domain(e.left)
    return None


def _same_domain(cls: type, a: SetExpr, b: SetExpr, what: str) -> SetExpr:
    """The node cls(a, b), once a and b are found over one ground domain."""
    da, db = domain(a), domain(b)
    if da is None or db is None or da != db:
        raise ValueError(f"{what} requires both sides over one ground domain")
    return tuple.__new__(cls, (a, b))


# ---------------------------------------------------------------------------
# Subset and disjointness certification
# ---------------------------------------------------------------------------


def _interval_bounds(e: SetExpr) -> Optional[tuple[Fraction, Fraction, ChainKind]]:
    if isinstance(e, QInterval):
        return e.p, e.q, ChainKind.RAT
    if isinstance(e, RInterval):
        return e.p, e.q, ChainKind.REAL
    return None


def subset_certified(a: SetExpr, b: SetExpr) -> str:
    """Syntactic containment: yes / no only for exactly-characterized pairs."""
    if a == b:
        return YES
    if isinstance(a, FinSet) and not a.elems:
        return YES
    if isinstance(b, NatAll) and domain(a) is ChainKind.NAT:
        return YES
    if isinstance(b, QAll) and domain(a) is ChainKind.RAT:
        return YES
    if isinstance(b, RAll) and domain(a) is ChainKind.REAL:
        return YES

    if isinstance(a, Mod) and isinstance(b, Mod):
        if b.p == 1 or (a.p % b.p == 0 and a.i % b.p == b.i):
            return YES
        return NO
    if isinstance(a, (Mod, Pow)) and isinstance(b, NatPos):
        return YES
    if isinstance(a, FinSet):
        if isinstance(b, FinSet):
            return YES if a.elems <= b.elems else NO
        if isinstance(b, NatPos):
            return YES if 0 not in a.elems else NO
        if isinstance(b, Mod):
            ok = all(x >= 1 and x % b.p == b.i % b.p for x in a.elems)
            return YES if ok else NO
    if isinstance(a, (QInterval, RInterval)) and type(b) is type(a):
        return YES if b.p <= a.p and a.q <= b.q else NO
    if isinstance(a, QInterval) and isinstance(b, QPos):
        return YES if a.p >= 0 else NO
    if isinstance(a, RInterval) and isinstance(b, RPos):
        return YES if a.p > 0 else NO
    if isinstance(a, RInterval) and isinstance(b, UnitInterval01):
        return YES if a.p >= 0 and a.q <= 1 else NO

    if isinstance(a, Union_):
        return _all(subset_certified(a.left, b), subset_certified(a.right, b))
    if isinstance(a, Inter):
        return _any(subset_certified(a.left, b), subset_certified(a.right, b))
    if isinstance(a, Diff):
        return _only_yes(subset_certified(a.left, b))
    if isinstance(b, Union_):
        return _any(subset_certified(a, b.left), subset_certified(a, b.right))
    if isinstance(b, Inter):
        return _all(subset_certified(a, b.left), subset_certified(a, b.right))
    if isinstance(b, Diff):
        # Disjointness from b.right is asked only once a ⊆ b.left is certain.
        return _only_yes(subset_certified(a, b.left) == YES and disjoint_certified(a, b.right))
    if isinstance(a, Prod) and isinstance(b, Prod):
        return _only_yes(_all(subset_certified(a.left, b.left), subset_certified(a.right, b.right)))
    return UNDECIDED


def disjoint_certified(a: SetExpr, b: SetExpr) -> str:
    if isinstance(a, FinSet) and not a.elems:
        return YES
    if isinstance(b, FinSet) and not b.elems:
        return YES
    if isinstance(a, Mod) and isinstance(b, Mod):
        g = math.gcd(a.p, b.p)
        return NO if a.i % g == b.i % g else YES
    if isinstance(a, FinSet) and isinstance(b, FinSet):
        return YES if not (a.elems & b.elems) else NO
    if isinstance(a, FinSet) and isinstance(b, Mod):
        hit = any(x >= 1 and x % b.p == b.i % b.p for x in a.elems)
        return NO if hit else YES
    if isinstance(b, FinSet) and isinstance(a, Mod):
        return disjoint_certified(b, a)
    if isinstance(a, FinSet) and isinstance(b, QPos):
        return YES if all(x <= 0 for x in a.elems) else NO
    ia, ib = _interval_bounds(a), _interval_bounds(b)
    if ia and ib:
        return YES if ia[1] <= ib[0] or ib[1] <= ia[0] else NO
    if isinstance(a, Union_):
        return _all(disjoint_certified(a.left, b), disjoint_certified(a.right, b))
    if isinstance(b, Union_):
        return disjoint_certified(b, a)
    return UNDECIDED


def _all(l: str, r: str) -> str:
    """Both parts are needed: YES when both are, NO when one is NO."""
    if l == YES and r == YES:
        return YES
    return NO if NO in (l, r) else UNDECIDED


def _any(l: str, r: str) -> str:
    """One part suffices: YES when either is."""
    return YES if YES in (l, r) else UNDECIDED


def _only_yes(v: object) -> str:
    """A sufficient condition: its YES carries over, nothing else does."""
    return YES if v == YES else UNDECIDED


# ---------------------------------------------------------------------------
# Compilation to counting functions
# ---------------------------------------------------------------------------


def _threshold_interval(p: Fraction, q: Fraction, slack: int) -> int:
    d = math.lcm(p.denominator, q.denominator)
    # ℚ's grid {s/n : -n² <= s < n²} ends at n - 1/n, so (p, q] needs n > q as
    # well as n >= |p|: n >= |q| + 1/d once d | n.  ℝ's slack covers its right end.
    right = abs(q) if slack else abs(q) + Fraction(1, d)
    bound = max(abs(p), right, 1) + slack
    m = chains.threshold_divides(d, what="denominator")
    return chains.threshold_card_at_least(bound, m)


def counting_fn(e: SetExpr) -> CountingFn:
    """Compile e to its exact chain count; raises Uncompilable otherwise."""
    if isinstance(e, NatAll):
        return CountingFn.monomial(1, 1) + CountingFn.constant(1)
    if isinstance(e, NatPos):
        return CountingFn.monomial(1, 1)
    if isinstance(e, FinSet):
        if not e.elems:
            return CountingFn.constant(0)
        m0 = chains.threshold_card_at_least(Fraction(max(e.elems)))
        return CountingFn.constant(len(e.elems), m0)
    if isinstance(e, Mod):
        m0 = chains.threshold_divides(e.p)
        return CountingFn.monomial(Fraction(1, e.p), 1, m0=m0)
    if isinstance(e, Pow):
        m0 = chains.threshold_factorial_divides(e.p)
        return CountingFn.monomial(1, Fraction(1, e.p), m0=m0)
    if isinstance(e, PfinN):
        # Subsets of {0..n}: 2^(n+1).
        return CountingFn.monomial(2, 0, 0, 1)
    if isinstance(e, QInterval):
        m0 = _threshold_interval(e.p, e.q, 0)
        return CountingFn.monomial(e.q - e.p, 1, m0=m0)
    if isinstance(e, RInterval):
        m0 = _threshold_interval(e.p, e.q, 1)
        return CountingFn.monomial(e.q - e.p, 1, 1, m0=m0)
    if isinstance(e, (QPos, QAll, RPos, RAll, UnitInterval01)):
        raise Uncompilable(e, "determined by comparison-map rewrite, not the grid chain")
    if isinstance(e, Shift):
        radius = _bound_radius(e.child)
        if radius is None:
            raise Uncompilable(e, "shift of an unbounded set")
        inner = counting_fn(e.child)
        m0 = chains.threshold_divides(e.q.denominator, inner.m0, "denominator")
        m0 = chains.threshold_card_at_least(abs(e.q) + radius + 1, m0)
        return inner.with_m0(m0)
    if isinstance(e, (Union_, Inter, Diff)):
        return _sum_rule(e, counting_fn, operator.add, operator.sub)
    if isinstance(e, Prod):
        return counting_fn(e.left) * counting_fn(e.right)
    if isinstance(e, FinMapsInto):
        if e.k == 1:
            return CountingFn.constant(1)
        if e.k & (e.k - 1) == 0:
            inner = counting_fn(e.child)
            if field._alpha_affine(inner.limit) is not None:
                return CountingFn(field.nf_pow(field.from_rational(e.k), inner.limit), inner.m0)
        raise Uncompilable(e, "colorings compile only for power-of-two k over affine counts")
    raise Uncompilable(e, "no chain form")


def _bound_radius(e: SetExpr) -> Optional[Fraction]:
    """A bound on |x| over the members of e; None when e is unbounded."""
    if isinstance(e, FinSet):
        return Fraction(max(e.elems) if e.elems else 0)
    if isinstance(e, (QInterval, RInterval)):
        return max(abs(e.p), abs(e.q))
    if isinstance(e, UnitInterval01):
        return Fraction(1)
    if isinstance(e, Inter):
        # The intersection lies inside each side: the smaller bound holds.
        radii = [r for r in (_bound_radius(e.left), _bound_radius(e.right)) if r is not None]
        return min(radii, default=None)
    if isinstance(e, (Union_, Prod)):
        l, r = _bound_radius(e.left), _bound_radius(e.right)
        return None if l is None or r is None else max(l, r)
    if isinstance(e, Diff):
        return _bound_radius(e.left)
    if isinstance(e, Shift):
        r = _bound_radius(e.child)
        return None if r is None else r + abs(e.q)
    return None


def _meet(a: SetExpr, b: SetExpr) -> Optional[SetExpr]:
    """A node equal to a ∩ b on the certified fragment; None outside it."""
    if isinstance(a, Mod) and isinstance(b, Mod):
        # CRT: x ≡ a.i (mod a.p) and x ≡ b.i (mod b.p) have a common solution
        # iff g divides b.i - a.i, and then one modulo the lcm.  Where one
        # class holds the other, that solution is the smaller class itself.
        g = math.gcd(a.p, b.p)
        if (b.i - a.i) % g:
            return FinSet()
        step = (b.i - a.i) // g * pow(a.p // g, -1, b.p // g)
        l = math.lcm(a.p, b.p)
        return Mod(l, (a.i + a.p * step) % l)
    if disjoint_certified(a, b) == YES:
        return FinSet()
    if subset_certified(a, b) == YES:
        return a
    if subset_certified(b, a) == YES:
        return b
    ia, ib = _interval_bounds(a), _interval_bounds(b)
    if ia and ib:
        # One domain and not disjoint, so the two intervals overlap.
        p, q = max(ia[0], ib[0]), min(ia[1], ib[1])
        return QInterval(p, q) if ia[2] is ChainKind.RAT else RInterval(p, q)
    return None


def _sum_rule(e: SetExpr, count: Callable, add: Callable, sub: Callable):
    """Count a union, intersection or difference by `count` through the meet of
    its sides: A ∪ B counts A + B − (A ∩ B), A ∩ B the meet, and A ∖ B counts
    A − (A ∩ B).  A difference counts its left side before the meet, a union
    its sides after it; a zero meet is not subtracted."""
    left = count(e.left) if isinstance(e, Diff) else None
    meet = _meet(e.left, e.right)
    if meet is None:
        raise Uncompilable(e, "no numerosity rule applies")
    both = count(meet)
    if isinstance(e, Inter):
        return both
    if isinstance(e, Union_):
        left = add(count(e.left), count(e.right))
    return left if both.is_zero() else sub(left, both)


# ---------------------------------------------------------------------------
# Numerosity
# ---------------------------------------------------------------------------


def num(e: SetExpr) -> NumExpr:
    """Exact numerosity of e, by structural recursion: the chain limit of an
    atom that compiles, a rewrite for the other atoms."""
    if isinstance(e, (Union_, Inter, Diff)):
        return _sum_rule(e, num, field.nf_add, field.nf_sub)
    if isinstance(e, QPos):
        return field.nf_pow(field.ALPHA, field.from_rational(2))
    if isinstance(e, QAll):
        a2 = field.nf_pow(field.ALPHA, field.from_rational(2))
        return field.nf_add(field.nf_mul(field.from_rational(2), a2), field.ONE)
    if isinstance(e, RPos):
        return field.nf_mul(field.ALPHA, field.BETA)
    if isinstance(e, RAll):
        ab = field.nf_mul(field.ALPHA, field.BETA)
        return field.nf_add(field.nf_mul(field.from_rational(2), ab), field.ONE)
    if isinstance(e, UnitInterval01):
        return field.nf_add(field.BETA, field.ONE)
    if isinstance(e, FinMapsInto):
        return field.nf_pow(field.from_rational(e.k), num(e.child))
    if isinstance(e, Shift):
        if _bound_radius(e.child) is None:
            raise Uncompilable(e, "shift invariance holds for bounded sets")
        return num(e.child)
    if isinstance(e, Prod):
        return field.nf_mul(num(e.left), num(e.right))
    return counting_fn(e).limit


def measure(e: SetExpr, gamma: NumExpr,
            table: field.AxiomTable = field.DEFAULT_TABLE) -> field.StandardPart:
    """gamma-measure of e: the standard part of num(e)/gamma."""
    return field.gamma_measure(num(e), gamma, table)


def psi_value(s: frozenset[int] | set[int]) -> Fraction:
    """Binary-expansion map: each n in s sets the (n+1)-th binary digit."""
    return sum((Fraction(1, 2 ** (n + 1)) for n in s), Fraction(0))


# ---------------------------------------------------------------------------
# Enumeration oracle
# ---------------------------------------------------------------------------


def _nat_member(e: SetExpr, x: int) -> bool:
    if isinstance(e, NatAll):
        return True
    if isinstance(e, NatPos):
        return x >= 1
    if isinstance(e, FinSet):
        return x in e.elems
    if isinstance(e, Mod):
        return x >= 1 and x % e.p == e.i % e.p
    if isinstance(e, Pow):
        return x >= 1 and field.int_root(x, e.p) is not None
    if isinstance(e, Union_):
        return _nat_member(e.left, x) or _nat_member(e.right, x)
    if isinstance(e, Inter):
        return _nat_member(e.left, x) and _nat_member(e.right, x)
    if isinstance(e, Diff):
        return _nat_member(e.left, x) and not _nat_member(e.right, x)
    raise Uncompilable(e, "not a ground natural-number set")


def _rat_member(e: SetExpr, x: Fraction) -> bool:
    if isinstance(e, QInterval):
        return e.p < x <= e.q
    if isinstance(e, QPos):
        return x > 0
    if isinstance(e, QAll):
        return True
    if isinstance(e, Shift):
        return _rat_member(e.child, x - e.q)
    if isinstance(e, Union_):
        return _rat_member(e.left, x) or _rat_member(e.right, x)
    if isinstance(e, Inter):
        return _rat_member(e.left, x) and _rat_member(e.right, x)
    if isinstance(e, Diff):
        return _rat_member(e.left, x) and not _rat_member(e.right, x)
    raise Uncompilable(e, "not a ground rational set")


def enumerate_on_chain(e: SetExpr, m: int) -> int:
    """Literal |e ∩ label_m|; the independent oracle for compiled counts."""
    if m > 3:
        raise IndexTooLarge("labels beyond m = 3 are astronomically large")
    n = chain_card(m)
    if isinstance(e, Prod):
        return enumerate_on_chain(e.left, m) * enumerate_on_chain(e.right, m)
    if isinstance(e, PfinN):
        # a ∈ P_fin(N) ∩ label iff a ⊆ {0..n}.
        return 2 ** (n + 1)
    if isinstance(e, FinMapsInto):
        return e.k ** enumerate_on_chain(e.child, m)
    d = domain(e)
    if d is ChainKind.NAT:
        return sum(1 for x in range(n + 1) if _nat_member(e, x))
    if d is ChainKind.RAT:
        if m > 2:
            raise IndexTooLarge("the rational grid at m = 3 has ~4*10^9 points")
        return sum(1 for s in range(-n * n, n * n) if _rat_member(e, Fraction(s, n)))
    raise Uncompilable(e, "no literal enumeration on this domain")


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def format_set(e: SetExpr) -> str:
    if isinstance(e, NatAll):
        return "N"
    if isinstance(e, NatPos):
        return "N+"
    if isinstance(e, FinSet):
        return "fin{" + ",".join(str(x) for x in sorted(e.elems)) + "}"
    if isinstance(e, Mod):
        return f"mod({e.p},{e.i})"
    if isinstance(e, Pow):
        return f"pow({e.p})"
    if isinstance(e, PfinN):
        return "Pfin(N)"
    if isinstance(e, QInterval):
        return f"Q({e.p},{e.q}]"
    if isinstance(e, QPos):
        return "Q+"
    if isinstance(e, QAll):
        return "Q"
    if isinstance(e, RInterval):
        return f"R[{e.p},{e.q})"
    if isinstance(e, RPos):
        return "R+"
    if isinstance(e, RAll):
        return "R"
    if isinstance(e, UnitInterval01):
        return "[0,1]"
    if isinstance(e, Shift):
        return f"shift({e.q}, {format_set(e.child)})"
    if isinstance(e, Union_):
        return f"({format_set(e.left)} | {format_set(e.right)})"
    if isinstance(e, Inter):
        return f"({format_set(e.left)} & {format_set(e.right)})"
    if isinstance(e, Diff):
        return f"({format_set(e.left)} \\ {format_set(e.right)})"
    if isinstance(e, Prod):
        return f"({format_set(e.left)} >< {format_set(e.right)})"
    if isinstance(e, FinMapsInto):
        return f"maps({e.k}, {format_set(e.child)})"
    return repr(e)
