"""Finite sign expansions (dyadic rationals) and all-plus ordinal expansions.

A finite surreal is its sign sequence: `SignExpansion` is that tuple of +1
and -1, its length the birthday; the all-plus expansion of an infinite ordinal
length is a `PlusExpansion`.  A finite value is a dyadic rational: the leading
run steps by one, and every sign after the first alternation halves the step.
The earliest-born number between two separated sets is the integer nearest
zero between them, or else the point with the most trailing zero bits on a
power-of-two grid, in closed form.  The genetic sum and product of finite
expansions are the sum and product of their dyadic values (Conway, On Numbers
and Games, ch. 1-4), so `s_add` and `s_mul` compute on values; the tests keep
the genetic recursion over prefix pairs as their reference.  A value is an
integer pair (a, k), meaning a/2^k, from the operand read by `_parts` to the
expansion built by `_se_from_parts`; `se_value` is its `Fraction` view.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from functools import partial
from math import ceil, floor, prod
from typing import Iterable, Optional

from .ordinals import BudgetExceeded, Ord, _mixed, format_ordinal, ord_cmp

# Most signs of an expansion built from a dyadic or a finite ordinal (se_within_budget).
MAX_SIGNS = 14_000


class RecursionCapExceeded(ValueError):
    pass


class NotSeparated(ValueError):
    pass


Sign = int  # +1 or -1


class SignExpansion(tuple):
    """A finite sign sequence, the tuple of its signs: native tuple equality and
    hash are the expansion's.  `SignExpansion(...)` checks every sign; the
    operations below build through the unchecked `_se`.  + and * raise TypeError."""

    __slots__ = ()

    def __new__(cls, signs: Iterable[Sign] = ()) -> "SignExpansion":
        x = tuple.__new__(cls, signs)
        if not {1, -1}.issuperset(x):
            raise ValueError("signs are +1 or -1")
        return x

    def __add__(self, other: object):
        return _mixed("+", self, other)

    def __mul__(self, other: object):
        return _mixed("*", self, other)

    def __radd__(self, other: object):
        return _mixed("+", other, self)

    def __rmul__(self, other: object):
        return _mixed("*", other, self)

    def __str__(self) -> str:
        return "".join(["+" if s > 0 else "-" for s in self]) or "()"

    def __repr__(self) -> str:
        return f"SignExpansion[{self}]"


class PlusExpansion(namedtuple("PlusExpansion", "length")):
    """The all-plus expansion of an infinite ordinal length (ordinal_plus)."""

    __slots__ = ()

    def __new__(cls, length: Ord) -> "PlusExpansion":
        if length.is_finite():
            raise ValueError("a finite all-plus expansion is a SignExpansion; use ordinal_plus")
        return tuple.__new__(cls, (length,))

    def __str__(self) -> str:
        return f"plus({format_ordinal(self.length)})"


# A SignExpansion from signs the library built of +1 and -1, unchecked.
_se = partial(tuple.__new__, SignExpansion)


def ordinal_plus(length: Ord) -> SignExpansion | PlusExpansion:
    """The all-plus expansion of that length: explicit signs when it is finite."""
    return se_within_budget(length.as_int()) if length.is_finite() else PlusExpansion(length)


ZERO_SE = SignExpansion()


def parse_signs(text: str) -> SignExpansion:
    text = text.strip()
    if text == "()":
        return ZERO_SE
    if not text or any(ch not in "+-" for ch in text):
        raise ValueError(f"not a sign string: {text!r}")
    return _se([1 if ch == "+" else -1 for ch in text])


def birthday(x: SignExpansion | PlusExpansion) -> Ord:
    return x.length if x.__class__ is PlusExpansion else Ord.from_int(len(x))


def se_cmp(a: SignExpansion | PlusExpansion, b: SignExpansion | PlusExpansion) -> int:
    """Lexicographic with the blank convention: missing > '-' and < '+'."""
    if a.__class__ is PlusExpansion or b.__class__ is PlusExpansion:
        if a.__class__ is b.__class__:
            return ord_cmp(a.length, b.length)
        # A finite expansion has a '-' or is a shorter all-plus prefix: smaller.
        return 1 if a.__class__ is PlusExpansion else -1
    # A blank reads as 0, which lies between -1 and +1.
    a, b = (*a, 0), (*b, 0)
    return -1 if a < b else int(a != b)


def is_dyadic(q: Fraction) -> bool:
    return q.denominator & (q.denominator - 1) == 0


def check_dyadic(q: Fraction | int) -> Fraction | int:
    """q, once it is known to be dyadic."""
    if not is_dyadic(q):
        raise ValueError(f"{q} is not dyadic")
    return q


def _parts(x: SignExpansion | Fraction | int) -> tuple[int, int]:
    """(a, k) with a/2^k the value of a finite expansion or of a dyadic, and a
    odd when k > 0."""
    if x.__class__ is not SignExpansion:
        return x.numerator, x.denominator.bit_length() - 1
    if not x:
        return 0, 0
    # A leading run of n signs s is worth s*n; the j-th of the k signs after it
    # adds +-2^-j, so over 2^k each of them doubles the numerator and adds itself.
    s = x[0]
    n = x.index(-s) if -s in x else len(x)
    a = s * n
    for t in x[n:]:
        a += a + t
    return a, len(x) - n


def _se_from_parts(a: int, k: int) -> SignExpansion:
    """The expansion of a/2^k, k >= 0."""
    if a:
        z = min((a & -a).bit_length() - 1, k)  # trailing zero bits of a, at most k
        a, k = a >> z, k - z
    else:
        k = 0
    # Now a = s*(n*2^k + r), r odd when k > 0: a run of n signs s, then for
    # k > 0 one more s, one -s and the bits of r below 2^k but the last (1 is s).
    s = 1 if a > 0 else -1
    m = s * a
    signs: list[Sign] = [s] * ((m >> k) + (k > 0))
    if k:
        # m | 2^k has at least k + 1 binary digits, its last k those of r.
        signs.append(-s)
        signs += [s if b == "1" else -s for b in bin(m | 1 << k)[-k:-1]]
    return _se(signs)


def se_value(x: SignExpansion) -> Fraction:
    """Dyadic value of a finite expansion."""
    if x.__class__ is PlusExpansion:
        raise ValueError("ordinal expansions have no dyadic value")
    a, k = _parts(x)
    return Fraction(a, 1 << k)


def se_from_dyadic(d: Fraction | int) -> SignExpansion:
    return _se_from_parts(*_parts(check_dyadic(d)))


def dyadic_length(d: Fraction | int) -> int:
    """Signs in the expansion of the dyadic d, counted unbuilt: one per unit of
    its integer part, then one per binary digit of its denominator."""
    n, r = divmod(abs(d.numerator), d.denominator)
    return n + d.denominator.bit_length() if r else n


def _count(n: int) -> str:
    """n in decimal, or past Python's int-to-str digit limit as a power of two below it."""
    limit = sys.get_int_max_str_digits()
    return f"more than 2^{(n - 1).bit_length() - 1}" if limit and n >= 10**limit else str(n)


def _within_budget(a: int, k: int) -> SignExpansion:
    """_se_from_parts(a, k), once its length is known to fit MAX_SIGNS, far above the caps."""
    # As dyadic_length counts: the integer part, then, past it, the binary
    # digits of the denominator that a/2^k has with the trailing zeros of a dropped.
    m = abs(a)
    r = m & ((1 << k) - 1)
    n = (m >> k) + (k + 2 - (r & -r).bit_length() if r else 0)
    if n > MAX_SIGNS:
        raise BudgetExceeded(f"an expansion of {_count(n)} signs is over the budget MAX_SIGNS = {MAX_SIGNS}")
    return _se_from_parts(a, k)


def se_within_budget(d: Fraction | int) -> SignExpansion:
    """se_from_dyadic(d) within MAX_SIGNS."""
    return _within_budget(*_parts(check_dyadic(d)))


def options(x: SignExpansion) -> tuple[tuple[SignExpansion, ...], tuple[SignExpansion, ...]]:
    """Canonical options: proper prefixes split into lower and upper.  The
    prefix of length a lies below every longer prefix exactly when x[a] is +."""
    if x.__class__ is PlusExpansion:
        raise ValueError("options are computed for finite expansions")
    # A slice of a tuple subclass is a plain tuple, so each prefix is wrapped.
    return (tuple([_se(x[:a]) for a, s in enumerate(x) if s > 0]),
            tuple([_se(x[:a]) for a, s in enumerate(x) if s < 0]))


def _simplest(lo: Optional[int], hi: Optional[int], unit: int) -> int:
    """Simplest value strictly between lo/unit and hi/unit, times unit (a power of
    two); raises, never rounds, if no multiple of 1/unit lies between them.

    With no integer inside, the interval lies between two consecutive integers
    on one side of 0.  There a value n + f (or its negative), 0 < f < 1 with
    denominator 2^k, is born on day n + k + 1, so the earliest-born point is
    the grid point with the most trailing zero bits; it is unique, as between
    two points with equally many lies one with more.  On the grid points
    [a, b] = [lo+1, hi-1] (mirrored below 0) that point is b with its bits
    cleared below the highest bit where a-1 and b differ: the bits above that
    one are common to all of [a-1, b]."""
    if (lo is None or lo < 0) and (hi is None or hi > 0):
        return 0
    if lo is None or (hi is not None and hi <= 0):
        n = -(-hi // unit) - 1  # nearest integer strictly under hi <= 0
        if lo is None or n * unit > lo:
            return n * unit
    if hi is None or (lo is not None and lo >= 0):
        n = lo // unit + 1  # nearest integer strictly over lo
        if hi is None or n * unit < hi:
            return n * unit
    # No integer inside, so both bounds are set: the simplest grid point.
    neg = hi <= 0
    a, b = (1 - hi, -1 - lo) if neg else (lo + 1, hi - 1)
    if a > b:
        raise ValueError(f"the simplest value needs a step finer than 1/{unit}")
    k = ((a - 1) ^ b).bit_length() - 1
    x = b >> k << k
    return -x if neg else x


def simplest(left: Iterable[Fraction], right: Iterable[Fraction]) -> SignExpansion:
    """Earliest-born expansion strictly between the two sets of dyadics."""
    lo, hi = max(left, default=None), min(right, default=None)
    if lo is not None and hi is not None and lo >= hi:
        raise NotSeparated(f"max of left {lo} >= min of right {hi}")
    # With 2^k above the product of the denominators the interval holds a
    # multiple of 2^-k, so the simplest value is one; and a multiple of 2^-k is
    # above lo (below hi) exactly when it is above floor (below ceil) on that grid.
    k = prod(b.denominator for b in (lo, hi) if b is not None).bit_length()
    unit = 1 << k
    lo, hi = None if lo is None else floor(lo * unit), None if hi is None else ceil(hi * unit)
    value = _simplest(lo, hi, unit)
    # A (+n, -n) birthday tie would need both in the interval, but then 0 is
    # inside too and wins outright; assert the tie never surfaces.
    if value != 0 and lo is not None and hi is not None:
        assert not (lo < -abs(value) and abs(value) < hi), "unreachable magnitude tie"
    return _within_budget(value, k)


# ---------------------------------------------------------------------------
# Genetic arithmetic
# ---------------------------------------------------------------------------

ADD_CAP = 24
MUL_CAP = 16


def _capped_values(x: SignExpansion | Fraction, y: SignExpansion | Fraction,
                   what: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """Both values as pairs (a, k), once within the cap: a dyadic is counted
    before it is checked."""
    cap = MUL_CAP if what == "multiplication" else ADD_CAP
    dx, dy = x.__class__ is Fraction, y.__class__ is Fraction
    if x.__class__ is PlusExpansion or y.__class__ is PlusExpansion:
        raise RecursionCapExceeded(f"{what} is not offered on ordinal expansions; use the ordinal operations")
    n = (dyadic_length(x) if dx else len(x)) + (dyadic_length(y) if dy else len(y))
    if n > cap:
        raise RecursionCapExceeded(f"{what}: combined birthday {_count(n)} exceeds {cap}")
    return _parts(check_dyadic(x) if dx else x), _parts(check_dyadic(y) if dy else y)


def s_neg(x: SignExpansion | Fraction) -> SignExpansion | Fraction:
    if x.__class__ is Fraction:
        return -x
    if x.__class__ is PlusExpansion:
        raise RecursionCapExceeded("negation is not offered on ordinal expansions")
    return _se([-s for s in x])


def _sum(x: SignExpansion | Fraction, y: SignExpansion | Fraction, sign: int) -> SignExpansion:
    """x + sign*y, on both pairs shifted to the larger exponent."""
    (a, k), (b, j) = _capped_values(x, y, "addition")
    b *= sign
    return _se_from_parts(a + (b << k - j), k) if k >= j else _se_from_parts((a << j - k) + b, j)


def s_add(x: SignExpansion | Fraction, y: SignExpansion | Fraction) -> SignExpansion:
    return _sum(x, y, 1)


def s_sub(x: SignExpansion | Fraction, y: SignExpansion | Fraction) -> SignExpansion:
    """x + (-y), without building -y: an ordinal y is refused as s_neg refuses
    it, before x is looked at, and a non-dyadic y is named negated."""
    if y.__class__ is PlusExpansion:
        s_neg(y)  # raises
    if y.__class__ is Fraction and not is_dyadic(y):
        y = -y
    return _sum(x, y, -1)


def s_mul(x: SignExpansion | Fraction, y: SignExpansion | Fraction) -> SignExpansion:
    (a, k), (b, j) = _capped_values(x, y, "multiplication")
    return _se_from_parts(a * b, k + j)


def all_expansions(max_len: int) -> list[SignExpansion]:
    """Every finite expansion of length <= max_len (2^(max_len+1) - 1 values)."""
    out = [ZERO_SE]
    frontier = [()]
    for _ in range(max_len):
        frontier = [p + (s,) for p in frontier for s in (1, -1)]
        out += [_se(p) for p in frontier]
    return out
