"""Computable label chains and closed-form counting functions.

The three canonical chains are indexed by m >= 1 with grid size
n(m) = m!^(m!): initial segments of the naturals, the rational grids
s(n) = {s/n : -n^2 <= s < n^2}, and the real grids built from a finite seed
whose size enters counting only as the formal variable x.  A counting
function is an exact closed form for |A ∩ label_m|, a signed combination of
terms c * n^q * x^j * (2^n)^i, valid from an explicit threshold index m0 and
kept as its chain limit, one field value, from which the terms are read back.

Validity thresholds come from the prime powers of a modulus or exponent by
Legendre's formula for v_p(m!), without building m! or n(m).  Eventual
comparison replaces ultrafilter membership: a comparison is decided by the
basis grading 2^n over rational powers of n, with the concrete threshold
certified so the sign cannot flip at any later index.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterator

from . import field
from .field import NumExpr
from .ordinals import MAX_POWER_BITS, BudgetExceeded

# Largest trial divisor in the factor search of a modulus or a `pow` exponent:
# every number below 2^40 still factors exactly, and the search stays around
# 0.25 s at most.
MAX_TRIAL_DIVISOR = 1 << 20
# Largest index cf_eval evaluates at: n(6) = 720^720 has 6,835 bits, while
# n(7) has 61,989 and n(8) 616,865, each kept by chain_card's cache.
MAX_EVAL_INDEX = 6


class ChainKind(Enum):
    NAT = "nat"
    RAT = "rat"
    REAL = "real"


class IndexTooLarge(ValueError):
    pass


class BelowThreshold(ValueError):
    """An index below a counting function's validity threshold m0."""


class NonIntegral(ValueError):
    pass


class XFreeRequired(ValueError):
    pass


@lru_cache(maxsize=None)
def chain_card(m: int) -> int:
    """n(m) = m!^(m!), the grid size at index m."""
    if m < 1:
        raise ValueError("chain index starts at 1")
    f = math.factorial(m)
    return f**f


def _prime_powers(d: int, what: str) -> Iterator[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing d >= 1, by trial division
    up to MAX_TRIAL_DIVISOR; past it the error names d as `what`."""
    p = 2
    while d > 1:
        if p * p > d:
            p = d  # what is left is prime
        elif p > MAX_TRIAL_DIVISOR:
            raise BudgetExceeded(
                f"{what} factor search over the budget MAX_TRIAL_DIVISOR = {MAX_TRIAL_DIVISOR}"
            )
        e = 0
        while d % p == 0:
            d, e = d // p, e + 1
        if e:
            yield p, e
        p += 1


def _legendre(m: int, p: int) -> int:
    """v_p(m!) = sum of m // p^i (Legendre)."""
    return sum(m // p**i for i in range(1, m.bit_length()))


def threshold_divides(d: int, lower: int = 1, what: str = "modulus") -> int:
    """Least m >= lower with d | n(m); a budget error names d as `what`.

    d | m!^(m!) iff every prime p | d has p <= m and v_p(d) <= m! * v_p(m!).
    Both only get easier as m grows, so the answer is the largest per-prime
    least m; once m >= p, m! * v_p(m!) >= m, so m! is built only while
    m < v_p(d).
    """
    if d == 0:
        raise ZeroDivisionError("0 divides no grid size")
    m = max(1, lower)
    for p, e in _prime_powers(abs(d), what):
        m = max(m, p)
        while e > m and math.factorial(m) * _legendre(m, p) < e:
            m += 1
    return m


def threshold_factorial_divides(k: int) -> int:
    """Least m >= 1 with k | m!, for k >= 1 (Kempner 1918).

    For each p^e exactly dividing k, v_p(m!) grows only at multiples of p, so
    the least m with v_p(m!) >= e is a multiple j of p; the largest j wins.
    """
    m = 1
    for p, e in _prime_powers(k, "exponent"):
        j = p
        while _legendre(j, p) < e:
            j += p
        m = max(m, j)
    return m


def threshold_card_at_least(bound: Fraction, lower: int = 1) -> int:
    """Least m >= lower with n(m) >= bound; n(lower) itself is never built."""
    m = 1
    while chain_card(m) < bound:
        m += 1
    return max(m, lower)


# ---------------------------------------------------------------------------
# Counting functions
# ---------------------------------------------------------------------------

# One term is (coeff, n_exponent, x_degree, two_to_n_degree).
CTerm = tuple[Fraction, Fraction, int, int]


def _term_limit(c: Fraction | int, q: Fraction | int, xj: int, ei: int) -> NumExpr:
    """Chain limit of the term c*n^q*x^j*(2^n)^i (j, i >= 0): (c/2^i)*alpha^(q-j)*beta^j*X^i.

    One numerator and one denominator term, coprime coefficients and no
    joint monomial content: already the field's normal form.
    """
    if not c:
        return field.ZERO
    num, den = c.numerator, c.denominator << ei
    g = math.gcd(num, den)
    a = q - xj
    up, down = field.Monomial(max(a, 0), xj, 0, ei), field.Monomial(max(-a, 0))
    return field._nx((((num // g, up),), ((den // g, down),)))


class CountingFn(namedtuple("CountingFn", "limit m0", defaults=(1,))):
    """Exact closed form of a counting net along a canonical chain, stored as its
    chain limit; `terms` reads the closed form back.

    The limit maps n -> alpha, x -> beta/alpha and 2^n -> X/2.  The
    finite-subset generator satisfies X = 2^(alpha+1), so the atom 2^n maps
    to X/2; with that choice the limit is a ring morphism and the power-set
    counts land exactly on X.
    """

    __slots__ = ()

    @staticmethod
    def make(terms: list[CTerm] | tuple[CTerm, ...], m0: int = 1) -> "CountingFn":
        return CountingFn(reduce(field.nf_add, (_term_limit(*t) for t in terms), field.ZERO), m0)

    @staticmethod
    def constant(c: Fraction | int, m0: int = 1) -> "CountingFn":
        return CountingFn(_term_limit(c, 0, 0, 0), m0)

    @staticmethod
    def monomial(coeff: Fraction | int, n_exp: Fraction | int = 0,
                 x_deg: int = 0, e_deg: int = 0, m0: int = 1) -> "CountingFn":
        return CountingFn(_term_limit(coeff, n_exp, x_deg, e_deg), m0)

    @property
    def terms(self) -> tuple[CTerm, ...]:
        """The terms c*n^q*x^j*(2^n)^i, by decreasing (i, q, j).

        The limit's denominator is lead*alpha^k, so a numerator term
        c'*alpha^a*beta^j*X^i decodes to c = c'*2^i/lead and q = a - k + j;
        the map (q, j, i) -> (q - j, j, i) is one-to-one, so terms never merge.
        """
        ((lead, down),) = self.limit.den
        terms = ((Fraction(c << m.x2w, lead), Fraction(m.alpha - down.alpha + m.beta), m.beta, m.x2w)
                 for c, m in self.limit.num)
        return tuple(sorted(terms, key=lambda t: (t[3], t[1], t[2]), reverse=True))

    def is_zero(self) -> bool:
        return self.limit.is_zero()

    def x_free(self) -> bool:
        return all(m.beta == 0 for _, m in self.limit.num)

    def __add__(self, other: "CountingFn") -> "CountingFn":
        return CountingFn(field.nf_add(self.limit, other.limit), max(self.m0, other.m0))

    def __sub__(self, other: "CountingFn") -> "CountingFn":
        return CountingFn(field.nf_sub(self.limit, other.limit), max(self.m0, other.m0))

    def __mul__(self, other: "CountingFn") -> "CountingFn":
        return CountingFn(field.nf_mul(self.limit, other.limit), max(self.m0, other.m0))

    def with_m0(self, m0: int) -> "CountingFn":
        return CountingFn(self.limit, max(self.m0, m0))

    def __str__(self) -> str:
        return format_counting_fn(self)


def cf_eval(f: CountingFn, m: int) -> int:
    """Exact value at index m (x-free only); errors if not a natural number."""
    if m < f.m0:
        raise BelowThreshold(f"index {m} is below the validity threshold {f.m0}")
    if m > MAX_EVAL_INDEX:
        raise IndexTooLarge(f"index {m} over the budget MAX_EVAL_INDEX = {MAX_EVAL_INDEX}")
    if not f.x_free():
        raise XFreeRequired("counting function involves the formal seed size x")
    terms = f.terms
    if any(ei > 0 for _, _, _, ei in terms) and m > 3:
        raise IndexTooLarge("2^n(m) is astronomically large beyond m = 3")
    n = chain_card(m)
    total = Fraction(0)
    for c, q, _, ei in terms:
        root = field.int_root(n, q.denominator)
        if root is None:
            raise NonIntegral(f"n({m}) has no exact {q.denominator}-th root")
        total += c * Fraction(root) ** q.numerator * 2 ** (n * ei)
    if total.denominator != 1 or total < 0:
        # Past the power budget a value is described: str() stops at 4300 digits.
        bits = max(abs(total.numerator), total.denominator).bit_length()
        sign = "negative" if total < 0 else "positive"
        shown = total if bits <= MAX_POWER_BITS else f"({sign}, {bits} bits)"
        raise NonIntegral(f"value {shown} at m={m} is not a natural number")
    return int(total)


class Eventually(Enum):
    LESS = "eventually-less"
    EQUAL = "eventually-equal"
    GREATER = "eventually-greater"
    UNKNOWN = "unknown"


class CfComparison(namedtuple("CfComparison", "kind m0 reason", defaults=(None, None))):
    __slots__ = ()


def _chain_scale(m: int) -> tuple[int | float, float]:
    """n(m) and ln n(m) as `_tail_certified` takes them, without building n(m)
    beyond float range.

    n(5) = 120^120 < 1e300 < n(6), so below m = 6 n(m) is exact.  From m = 6
    on it stands as the clamp 1e300, with ln n(m) = m!*ln m!, itself clamped
    to 1e300 once m! leaves float range (m > 170).  Neither stand-in exceeds
    the true value or falls below 1e300 and ln(1e300), which only weakens
    the certificate.
    """
    if m < 6:
        n = chain_card(m)
        return n, math.log(n)
    if m > 170:
        return 1e300, 1e300
    f = math.factorial(m)
    return 1e300, min(f * math.log(f), 1e300)


def _tail_certified(terms: tuple[CTerm, ...], n0: int | float, ln_n0: float) -> bool:
    """Check that the lex-leading term outweighs the rest for every n >= n0.

    Ratios r_t = 2^(de*n) * n^dq against the leading term have (de, dq)
    lex-negative; each must be decreasing at n0 and their weighted sum < 1.
    Log arithmetic in floats is safe: the gaps at chain scale are enormous.
    A chain size past float range comes clamped (see `_chain_scale`): a
    smaller n0 (at least 1e300) in the decreasing test and the linear 2^n
    part, or an ln_n0 between ln(1e300) and the true log, only makes a ratio
    look larger past its peak, so the certificate stays sound.
    """
    c0, q0, _, e0 = terms[0]
    n0f = float(n0)
    budget = 0.0
    for c, q, _, e in terms[1:]:
        de, dq = e - e0, q - q0
        if de > 0 or (de == 0 and dq >= 0):
            return False
        if de < 0:
            if dq > 0 and n0 < float(dq) / (-de * math.log(2)):
                return False
        log_ratio = de * n0f * math.log(2) + float(dq) * ln_n0
        budget += abs(float(c) / float(c0)) * math.exp(min(log_ratio, 0.0))
        if budget >= 0.5:
            return False
    return True


def _x_groups(f: CountingFn) -> dict[int, tuple[CTerm, ...]]:
    groups: dict[int, list[CTerm]] = {}
    for c, q, xj, ei in f.terms:
        groups.setdefault(xj, []).append((c, q, 0, ei))
    return {j: tuple(ts) for j, ts in groups.items()}


def cf_compare(f: CountingFn, g: CountingFn) -> CfComparison:
    """Eventual comparison along the chain with a certified threshold."""
    h = f - g
    base = max(f.m0, g.m0)
    if h.is_zero():
        return CfComparison(Eventually.EQUAL, base)
    groups = _x_groups(h)
    signs = set()
    for ts in groups.values():
        signs.add(1 if ts[0][0] > 0 else -1)
    if len(signs) != 1:
        return CfComparison(
            Eventually.UNKNOWN,
            reason="mixed signs across seed-size degrees; no cone decides",
        )
    sign = signs.pop()
    for m in range(base, base + 9):
        n0, ln_n0 = _chain_scale(m)
        if all(_tail_certified(ts, n0, ln_n0) for ts in groups.values()):
            return CfComparison(
                Eventually.GREATER if sign > 0 else Eventually.LESS, m
            )
    return CfComparison(Eventually.UNKNOWN, reason="no certified threshold found")


def format_counting_fn(f: CountingFn) -> str:
    parts = []
    for c, q, xj, ei in f.terms:
        factors = []
        if ei:
            factors.append("2^n" if ei == 1 else f"(2^n)^{ei}")
        if q:
            factors.append("n" if q == 1 else f"n^{field._fmt_exp(q)}")
        if xj:
            factors.append("x" if xj == 1 else f"x^{xj}")
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        parts.append((c > 0, "*".join(factors)))
    return field._signed_sum(parts)
