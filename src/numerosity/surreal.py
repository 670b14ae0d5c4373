"""Finite sign expansions (dyadic rationals) and all-plus ordinal expansions.

A finite surreal is a string over {+,-}; its length is the birthday and its
value a dyadic rational: the leading run steps by one, and every sign after
the first alternation halves the step.  The earliest-born number between two
separated sets is computed by integer selection plus binary refinement, and
the arithmetic is the genetic recursion on options, memoized per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .ordinals import Ord, ord_cmp
from .ordinals import format_ordinal


class RecursionCapExceeded(ValueError):
    pass


class NotSeparated(ValueError):
    pass


Sign = int  # +1 or -1


@dataclass(frozen=True, slots=True)
class SignExpansion:
    """Either a finite sign sequence or an all-plus sequence of ordinal length."""

    signs: tuple[Sign, ...] = ()
    plus_length: Optional[Ord] = None  # set => all-plus expansion of that length

    def __post_init__(self):
        if self.plus_length is not None:
            if self.signs:
                raise ValueError("ordinal expansions carry no explicit signs")
            if self.plus_length.is_finite():
                # Normalize finite all-plus expansions to the explicit form.
                object.__setattr__(self, "signs", (1,) * self.plus_length.as_int())
                object.__setattr__(self, "plus_length", None)
        elif any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs are +1 or -1")

    def is_finite(self) -> bool:
        return self.plus_length is None

    def __str__(self) -> str:
        if self.plus_length is not None:
            return f"plus({format_ordinal(self.plus_length)})"
        if not self.signs:
            return "()"
        return "".join("+" if s > 0 else "-" for s in self.signs)

    def __repr__(self) -> str:
        return f"SignExpansion[{self}]"


def finite(signs: Iterable[Sign]) -> SignExpansion:
    return SignExpansion(tuple(signs))


def ordinal_plus(length: Ord) -> SignExpansion:
    return SignExpansion((), length)


ZERO_SE = SignExpansion()


def parse_signs(text: str) -> SignExpansion:
    text = text.strip()
    if text == "()":
        return ZERO_SE
    if not text or any(ch not in "+-" for ch in text):
        raise ValueError(f"not a sign string: {text!r}")
    return finite(1 if ch == "+" else -1 for ch in text)


def birthday(x: SignExpansion) -> Ord:
    if x.plus_length is not None:
        return x.plus_length
    return Ord.from_int(len(x.signs))


def se_cmp(a: SignExpansion, b: SignExpansion) -> int:
    """Lexicographic with the blank convention: missing > '-' and < '+'."""
    if a.plus_length is not None or b.plus_length is not None:
        if a.plus_length is not None and b.plus_length is not None:
            return ord_cmp(a.plus_length, b.plus_length)
        if a.plus_length is not None:
            # b is finite: either it has a '-' (then smaller) or it is a
            # shorter all-plus prefix (then also smaller).
            return 1
        return -1
    for sa, sb in zip(a.signs, b.signs):
        if sa != sb:
            return -1 if sa < sb else 1
    if len(a.signs) == len(b.signs):
        return 0
    if len(a.signs) > len(b.signs):
        return 1 if a.signs[len(b.signs)] > 0 else -1
    return -1 if b.signs[len(a.signs)] > 0 else 1


def is_dyadic(q: Fraction) -> bool:
    return q.denominator & (q.denominator - 1) == 0


def se_value(x: SignExpansion) -> Fraction:
    """Dyadic value of a finite expansion."""
    if x.plus_length is not None:
        raise ValueError("ordinal expansions have no dyadic value")
    value = Fraction(0)
    step = Fraction(1)
    alternated = False
    for i, s in enumerate(x.signs):
        if i > 0 and (alternated or s != x.signs[i - 1]):
            alternated = True
            step /= 2
        value += s * step
    return value


def se_from_dyadic(d: Fraction | int) -> SignExpansion:
    d = Fraction(d)
    if not is_dyadic(d):
        raise ValueError(f"{d} is not dyadic")
    # d = s*(n + f) with f = 0.b1...bk in binary (bk = 1 when f > 0): a run of
    # n signs s, then for f > 0 one more s, one -s and b1...b(k-1) (1 is s).
    s = 1 if d > 0 else -1
    n, r = divmod(abs(d.numerator), d.denominator)
    signs: list[Sign] = [s] * (n + (r != 0))
    if r:
        # The denominator is 2^k, so bin(r + 2^k) is "0b1" then b1...bk.
        signs.append(-s)
        signs.extend(s if b == "1" else -s for b in bin(r + d.denominator)[3:-1])
    return finite(signs)


def options(x: SignExpansion) -> tuple[tuple[SignExpansion, ...], tuple[SignExpansion, ...]]:
    """Canonical options: proper prefixes split into lower and upper."""
    if x.plus_length is not None:
        raise ValueError("options are computed for finite expansions")
    left, right = [], []
    for k in range(len(x.signs)):
        p = SignExpansion(x.signs[:k])
        (left if se_cmp(p, x) < 0 else right).append(p)
    return tuple(left), tuple(right)


def _simplest_in_interval(lo: Optional[Fraction], hi: Optional[Fraction]) -> Fraction:
    if lo is not None and hi is not None and lo >= hi:
        raise NotSeparated(f"interval ({lo}, {hi}) is empty")
    if (lo is None or lo < 0) and (hi is None or hi > 0):
        return Fraction(0)
    if lo is None or (hi is not None and hi <= 0):
        # Entirely below hi <= 0: nearest integer strictly under hi.
        n = hi.numerator // hi.denominator  # floor
        n = n - 1 if hi == n else n
        if lo is None or n > lo:
            return Fraction(n)
    if hi is None or (lo is not None and lo >= 0):
        n = -((-lo.numerator) // lo.denominator)  # ceil
        n = n + 1 if lo == n else n
        if hi is None or n < hi:
            return Fraction(n)
    # No integer inside: binary refinement between the bracketing integers.
    assert lo is not None and hi is not None
    base = lo.numerator // lo.denominator
    x = Fraction(base) + Fraction(1, 2)
    step = Fraction(1, 4)
    while not (lo < x < hi):
        x += step if x <= lo else -step
        step /= 2
    return x


def simplest(left: Iterable[Fraction], right: Iterable[Fraction]) -> SignExpansion:
    """Earliest-born expansion strictly between the two sets of dyadics."""
    left, right = list(left), list(right)
    lo = max(left) if left else None
    hi = min(right) if right else None
    if lo is not None and hi is not None and lo >= hi:
        raise NotSeparated(f"max of left {lo} >= min of right {hi}")
    # A (+n, -n) birthday tie would need both in the interval, but then 0 is
    # inside too and wins outright; assert the tie never surfaces.
    value = _simplest_in_interval(lo, hi)
    if value != 0 and lo is not None and hi is not None:
        assert not (lo < -abs(value) and abs(value) < hi), "unreachable magnitude tie"
    return se_from_dyadic(value)


# ---------------------------------------------------------------------------
# Genetic arithmetic
# ---------------------------------------------------------------------------

ADD_CAP = 24
MUL_CAP = 16


def _check_cap(x: SignExpansion, y: SignExpansion, cap: int, what: str) -> None:
    if x.plus_length is not None or y.plus_length is not None:
        raise RecursionCapExceeded(
            f"{what} is not offered on ordinal expansions; use the ordinal operations"
        )
    if len(x.signs) + len(y.signs) > cap:
        raise RecursionCapExceeded(
            f"{what}: combined birthday {len(x.signs) + len(y.signs)} exceeds {cap}"
        )


def _opts_values(v: Fraction) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    l, r = options(se_from_dyadic(v))
    return tuple(se_value(p) for p in l), tuple(se_value(p) for p in r)


def _gen_add(x: Fraction, y: Fraction, memo: dict) -> Fraction:
    key = (x, y)
    if key in memo:
        return memo[key]
    xl, xr = _opts_values(x)
    yl, yr = _opts_values(y)
    left = [_gen_add(a, y, memo) for a in xl] + [_gen_add(x, b, memo) for b in yl]
    right = [_gen_add(a, y, memo) for a in xr] + [_gen_add(x, b, memo) for b in yr]
    out = _simplest_in_interval(max(left) if left else None,
                                min(right) if right else None)
    memo[key] = out
    return out


def _gen_mul(x: Fraction, y: Fraction, memo: dict) -> Fraction:
    key = (x, y)
    if key in memo:
        return memo[key]
    xl, xr = _opts_values(x)
    yl, yr = _opts_values(y)

    def piece(a: Fraction, b: Fraction) -> Fraction:
        return _gen_mul(a, y, memo) + _gen_mul(x, b, memo) - _gen_mul(a, b, memo)

    left = [piece(a, b) for a in xl for b in yl] + [piece(a, b) for a in xr for b in yr]
    right = [piece(a, b) for a in xl for b in yr] + [piece(a, b) for a in xr for b in yl]
    out = _simplest_in_interval(max(left) if left else None,
                                min(right) if right else None)
    memo[key] = out
    return out


def s_neg(x: SignExpansion) -> SignExpansion:
    if x.plus_length is not None:
        raise RecursionCapExceeded("negation is not offered on ordinal expansions")
    return SignExpansion(tuple(-s for s in x.signs))


def s_add(x: SignExpansion, y: SignExpansion, cap: int = ADD_CAP) -> SignExpansion:
    _check_cap(x, y, cap, "addition")
    return se_from_dyadic(_gen_add(se_value(x), se_value(y), {}))


def s_sub(x: SignExpansion, y: SignExpansion, cap: int = ADD_CAP) -> SignExpansion:
    return s_add(x, s_neg(y), cap)


def s_mul(x: SignExpansion, y: SignExpansion, cap: int = MUL_CAP) -> SignExpansion:
    _check_cap(x, y, cap, "multiplication")
    return se_from_dyadic(_gen_mul(se_value(x), se_value(y), {}))


def all_expansions(max_len: int) -> list[SignExpansion]:
    """Every finite expansion of length <= max_len (2^(max_len+1) - 1 values)."""
    out = [ZERO_SE]
    frontier = [()]
    for _ in range(max_len):
        frontier = [p + (s,) for p in frontier for s in (1, -1)]
        out.extend(SignExpansion(p) for p in frontier)
    return out
