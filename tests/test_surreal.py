"""Sign expansions against the dyadic value map and birthday enumeration."""

from __future__ import annotations

import ast
import copy
import operator
import pickle
import random
from fractions import Fraction
from fractions import Fraction as F
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numerosity import ordinals as o
from numerosity import parser, surreal
from numerosity.cli import Session, run_line
from numerosity.surreal import (
    ADD_CAP,
    MUL_CAP,
    NotSeparated,
    PlusExpansion,
    RecursionCapExceeded,
    SignExpansion,
    ZERO_SE,
    _se,
    _simplest,
    all_expansions,
    birthday,
    options,
    ordinal_plus,
    parse_signs,
    s_add,
    s_mul,
    s_neg,
    s_sub,
    se_cmp,
    se_from_dyadic,
    se_value,
    simplest,
)


from functools import lru_cache


@lru_cache(maxsize=None)
def by_birthday(max_day: int) -> list[tuple[F, int]]:
    """(value, birthday) for every number born by max_day, the test oracle."""
    return [(se_value(x), len(x)) for x in all_expansions(max_day)]


def oracle_simplest(lo, hi, max_day: int = 10) -> F:
    """Minimal-birthday value strictly inside (lo, hi), by enumeration."""
    best = None
    for value, day in by_birthday(max_day):
        if (lo is None or lo < value) and (hi is None or value < hi):
            if best is None or day < best[1]:
                best = (value, day)
    assert best is not None
    same_day = [
        v for v, d in by_birthday(max_day)
        if d == best[1] and (lo is None or lo < v) and (hi is None or v < hi)
    ]
    assert len(same_day) == 1, "simplicity demands a unique earliest-born number"
    return best[0]


# Reference genetic arithmetic: the memoized recursion on Fraction values that
# the library ran before its integer prefix-pair table.  The memo is keyed by
# values, so one dict may serve many calls.

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


def reference_add(x: SignExpansion, y: SignExpansion, memo: dict) -> SignExpansion:
    return se_from_dyadic(_gen_add(se_value(x), se_value(y), memo))


def reference_mul(x: SignExpansion, y: SignExpansion, memo: dict) -> SignExpansion:
    return se_from_dyadic(_gen_mul(se_value(x), se_value(y), memo))


# Reference cell: the simplest grid point by binary refinement, as the library
# computed it before the closed form.

def ref_simplest(lo: Optional[int], hi: Optional[int], unit: int) -> int:
    """Simplest value strictly between lo/unit and hi/unit, times unit (a power of
    two); raises, never rounds, if no multiple of 1/unit lies between them."""
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
    # No integer inside: binary refinement between the bracketing integers.
    step = unit >> 1
    x = lo // unit * unit + step
    while not lo < x < hi:
        step >>= 1
        if not step:
            raise ValueError(f"the simplest value needs a step finer than 1/{unit}")
        x += step if x <= lo else -step
    return x


def simplest_outcome(f, lo, hi, unit):
    try:
        return f(lo, hi, unit)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def simplest_triples(draw):
    """(lo, hi, unit) with unit = 2^0 ... 2^64: lo within 64 of 0 and hi within 2
    of lo, both of either sign and either one possibly None."""
    unit = 1 << draw(st.integers(0, 64))
    lo = draw(st.integers(-64 * unit, 64 * unit))
    hi = lo + draw(st.integers(-2 * unit, 2 * unit))
    absent = st.sampled_from((False, False, False, True))
    return None if draw(absent) else lo, None if draw(absent) else hi, unit


# Reference table: the genetic recursion over pairs of operand prefixes, each
# cell's bounds taken over every option; s_add and s_mul compute on values.

def ref_prefix_options(signs: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """For each prefix length i, the lengths a < i of its lower and upper prefixes:
    prefix a lies below every longer prefix exactly when signs[a] is +."""
    return [(tuple(a for a in range(i) if signs[a] > 0), tuple(a for a in range(i) if signs[a] < 0))
            for i in range(len(signs) + 1)]


def ref_add_bounds(t, i, j, xl, xr, yl, yr):
    """Options of x_i + y_j: x^L + y and x + y^L below, x^R + y and x + y^R above."""
    return ([t[a][j] for a in xl] + [t[i][b] for b in yl],
            [t[a][j] for a in xr] + [t[i][b] for b in yr])


def ref_mul_bounds(t, i, j, xl, xr, yl, yr):
    """Options of x_i * y_j: x^L y + x y^L - x^L y^L over the four pairings."""
    def pieces(*pairings):
        return [t[a][j] + t[i][b] - t[a][b] for xo, yo in pairings for a in xo for b in yo]
    return pieces((xl, yl), (xr, yr)), pieces((xl, yr), (xr, yl))


def ref_table(x: SignExpansion, y: SignExpansion, bounds) -> tuple[list[list[int]], int]:
    """The genetic recursion on x and y, filled bottom-up over prefix pairs: cell
    (i, j) holds the value for the i-sign prefix of x and the j-sign prefix of y
    times 2^S, S = len(x) + len(y) + 1, a grid on which every sum and product of
    prefixes lies.  Returns the table and its unit 2^S."""
    unit = 1 << (len(x) + len(y) + 1)
    yopts = ref_prefix_options(y)
    t = [[0] * len(yopts) for _ in range(len(x) + 1)]
    for i, (xl, xr) in enumerate(ref_prefix_options(x)):
        for j, (yl, yr) in enumerate(yopts):
            left, right = bounds(t, i, j, xl, xr, yl, yr)
            t[i][j] = ref_simplest(max(left, default=None), min(right, default=None), unit)
    return t, unit


def ref_genetic(x: SignExpansion, y: SignExpansion, bounds) -> Fraction:
    """The genetic sum or product of x and y: the last cell of their table."""
    t, unit = ref_table(x, y, bounds)
    return Fraction(t[-1][-1], unit)


def assert_table_matches(x: SignExpansion, y: SignExpansion, mul: bool) -> None:
    """s_add and s_sub, or s_mul, on x and y against the full-option table.  Each
    cell of a table is the result for a pair of prefixes, so small operand pairs
    check, as whole results, the cells of larger tables."""
    if mul:
        assert s_mul(x, y) == se_from_dyadic(ref_genetic(x, y, ref_mul_bounds))
    else:
        assert s_add(x, y) == se_from_dyadic(ref_genetic(x, y, ref_add_bounds))
        assert s_sub(x, y) == se_from_dyadic(ref_genetic(x, s_neg(y), ref_add_bounds))


def splits_within(cap: int):
    """A sign list of length up to cap, the length drawn uniformly so that lists at
    the cap are common; tests split it at every position into two operands."""
    return st.integers(0, cap).flatmap(
        lambda n: st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))


def pairs_within(cap: int):
    """Pairs of finite expansions whose combined birthday is at most cap,
    the combined birthday drawn uniformly so that pairs at the cap are common."""
    cut = st.integers(0, cap).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n), st.integers(0, n)))
    return cut.map(lambda t: (SignExpansion(t[0][:t[1]]), SignExpansion(t[0][t[1]:])))


class TestOrderAndValue:
    def test_paper_chain(self):
        chain = ["-", "-+", "()", "+-", "+-+", "+", "++-"]
        xs = [parse_signs(c) for c in chain]
        for a, b in zip(xs, xs[1:]):
            assert se_cmp(a, b) == -1
            assert se_cmp(b, a) == 1
        for x in xs:
            assert se_cmp(x, x) == 0

    def test_values(self):
        assert se_value(parse_signs("+")) == 1
        assert se_value(parse_signs("++")) == 2
        assert se_value(parse_signs("+-")) == F(1, 2)
        assert se_value(parse_signs("+-+")) == F(3, 4)
        assert se_value(ZERO_SE) == 0

    def test_cmp_matches_values_exhaustively(self):
        xs = all_expansions(8)
        vals = [se_value(x) for x in xs]
        idx = sorted(range(len(xs)), key=lambda i: vals[i])
        for i, j in zip(idx, idx[1:]):
            assert se_cmp(xs[i], xs[j]) == -1

    def test_value_bijection_to_day_8(self):
        xs = all_expansions(8)
        assert len(xs) == 511
        vals = {se_value(x) for x in xs}
        assert len(vals) == 511
        for x in xs:
            assert se_from_dyadic(se_value(x)) == x

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            se_from_dyadic(F(1, 3))

    def test_long_integer_run(self):
        assert len(se_from_dyadic(10**6)) == 10**6
        assert se_from_dyadic(-(10**6) - F(1, 2)) == (-1,) * (10**6 + 1) + (1,)
        for d in (F(2001, 4), F(-1023, 512), F(300)):
            assert se_value(se_from_dyadic(d)) == d

    def test_value_of_a_hundred_thousand_signs(self):
        d = F(1, 2**100000)
        assert se_value(se_from_dyadic(d)) == d

    def test_long_binary_fraction(self):
        d = F(1, 2**16000)
        x = se_from_dyadic(d)
        assert len(x) == 16001
        assert se_value(x) == d


class TestOrdinalExpansions:
    def test_birthday(self):
        assert birthday(ZERO_SE) == o.ZERO
        assert birthday(parse_signs("+-+")) == o.Ord.from_int(3)
        assert birthday(ordinal_plus(o.OMEGA)) == o.OMEGA

    def test_finite_plus_normalizes(self):
        assert ordinal_plus(o.Ord.from_int(3)) == parse_signs("+++")

    def test_order_against_ordinals(self):
        w = ordinal_plus(o.OMEGA)
        w2 = ordinal_plus(o.omega_pow(o.Ord.from_int(2)))
        assert se_cmp(parse_signs("+++"), w) == -1
        assert se_cmp(parse_signs("++-"), w) == -1
        assert se_cmp(parse_signs("-"), w) == -1
        assert se_cmp(w, w2) == -1
        assert se_cmp(w, ordinal_plus(o.OMEGA)) == 0

    def test_arithmetic_not_offered(self):
        w = ordinal_plus(o.OMEGA)
        with pytest.raises(RecursionCapExceeded):
            s_add(w, parse_signs("+"))
        with pytest.raises(RecursionCapExceeded):
            s_neg(w)


class TestOptionsAndSimplest:
    def test_examples(self):
        l, r = options(parse_signs("+-"))
        assert [str(p) for p in l] == ["()"]
        assert [str(p) for p in r] == ["+"]
        assert options(ZERO_SE) == ((), ())
        l, r = options(parse_signs("++"))
        assert [str(p) for p in l] == ["()", "+"]
        assert r == ()

    def test_simplest_examples(self):
        assert simplest([], []) == ZERO_SE
        assert simplest([F(0)], [F(1)]) == parse_signs("+-")
        assert se_value(simplest([F(0)], [F(1)])) == oracle_simplest(F(0), F(1), 4)
        assert simplest([F(1, 2)], []) == parse_signs("+")

    def test_rational_bounds(self):
        for lo, hi in ((F(1, 3), F(1, 2)), (F(-7, 3), F(-2)), (F(1, 3), F(1, 3) + F(1, 1000)),
                       (F(2, 3), None), (None, F(-5, 7)), (F(-1, 3), F(1, 5))):
            got = simplest([] if lo is None else [lo], [] if hi is None else [hi])
            assert se_value(got) == oracle_simplest(lo, hi)

    def test_not_separated(self):
        with pytest.raises(NotSeparated):
            simplest([F(1)], [F(0)])

    def test_round_trip_to_day_8(self):
        for x in all_expansions(8):
            l, r = options(x)
            rebuilt = simplest([se_value(p) for p in l], [se_value(p) for p in r])
            assert rebuilt == x

    def test_agrees_with_enumeration_oracle(self):
        rng = random.Random(3)
        vals = sorted({se_value(x) for x in all_expansions(6)})
        for _ in range(120):
            i = rng.randrange(len(vals) - 1)
            j = rng.randrange(i + 1, len(vals))
            lo, hi = vals[i], vals[j]
            got = se_value(simplest([lo], [hi]))
            assert got == oracle_simplest(lo, hi)

    def test_minimal_birthday_among_interval(self):
        # Whatever else lies strictly between the options is born later.
        for x in all_expansions(6):
            l, r = options(x)
            lo = max((se_value(p) for p in l), default=None)
            hi = min((se_value(p) for p in r), default=None)
            for y, day in by_birthday(8):
                if y == se_value(x):
                    continue
                if (lo is None or lo < y) and (hi is None or y < hi):
                    assert day > len(x)

    @settings(max_examples=2000, deadline=None)
    @given(simplest_triples())
    def test_closed_form_matches_refinement(self, triple):
        # The same value, or the same ValueError, on both sides; unseparated
        # bounds included, as the refinement's error is part of the contract.
        assert simplest_outcome(_simplest, *triple) == simplest_outcome(ref_simplest, *triple)

    def test_closed_form_matches_refinement_exhaustively(self):
        bounds = [None, *range(-64, 65)]
        for unit in (1, 2, 4, 8, 16):
            for lo in bounds:
                for hi in bounds:
                    assert (simplest_outcome(_simplest, lo, hi, unit)
                            == simplest_outcome(ref_simplest, lo, hi, unit)), (lo, hi, unit)

    def test_simplest_between_twelve_thousand_bit_bounds(self):
        # 2^-11999 is the one point of the interval born on day 12000; the
        # refinement took one step per bit to find it.
        den = str(2**12000)
        record, err = run_line(f":simplest {{1/{den}}} {{3/{den}}}", Session())
        assert err is None
        assert record["value"] == "+" + "-" * 11999
        assert simplest([F(-3, 2**12000)], [F(-1, 2**12000)]) == se_from_dyadic(F(-1, 2**11999))

    def test_options_and_nearest_options_match_the_prefix_reference(self):
        for x in all_expansions(8):
            ref = ref_prefix_options(x)
            l, r = options(x)
            assert (l, r) == tuple(tuple(SignExpansion(x[:a]) for a in side) for side in ref[-1])

    def test_two_sided_expansion_is_the_midpoint_of_its_nearest_options(self):
        # Why a product cell reads one pairing per side: with options on both
        # sides, x - x^L = x^R - x for the nearest x^L and x^R.
        for x in all_expansions(8):
            l, r = options(x)
            if l and r:
                assert 2 * se_value(x) == se_value(l[-1]) + se_value(r[-1])

    def test_prefix_options_match_full_born_before_sets(self):
        # Prefix options are cofinal in the born-before option sets: both give
        # the same reconstruction for every number up to day 5.
        born: dict[int, list[SignExpansion]] = {}
        for x in all_expansions(5):
            born.setdefault(len(x), []).append(x)
        for x in all_expansions(5):
            v = se_value(x)
            full_l = [se_value(y) for d in range(len(x)) for y in born[d] if se_value(y) < v]
            full_r = [se_value(y) for d in range(len(x)) for y in born[d] if se_value(y) > v]
            assert simplest(full_l, full_r) == x


class TestUncheckedExpansions:
    def test_equal_to_the_checked_constructor(self):
        for x in all_expansions(8):
            signs = tuple(x)
            y = _se(signs)
            assert type(y) is SignExpansion and y == SignExpansion(signs)
            assert hash(y) == hash(SignExpansion(signs)) and str(y) == str(x)
            assert se_cmp(y, x) == 0
        for d in (F(0), F(7), F(-5, 8), F(1, 2**40), F(2001, 4)):
            x = se_from_dyadic(d)
            assert type(x) is SignExpansion
            assert x == SignExpansion(x) and hash(x) == hash(SignExpansion(x))
            assert s_neg(x) == SignExpansion(tuple(-s for s in x))

    def test_public_constructors_keep_their_checks(self):
        for bad in ((2,), (1, 0), (-1, 1, 3)):
            with pytest.raises(ValueError, match="signs are"):
                SignExpansion(bad)
        with pytest.raises(ValueError, match="signs are"):
            SignExpansion([0])
        with pytest.raises(ValueError, match="finite all-plus"):
            PlusExpansion(o.Ord.from_int(3))

    def test_ordinal_plus_splits_on_finite_length(self):
        for n in (0, 1, 3, 40):
            x = ordinal_plus(o.Ord.from_int(n))
            assert type(x) is SignExpansion and x == SignExpansion([1] * n)
        for length in (o.OMEGA, o.omega_pow(o.OMEGA), o.cantor_add(o.OMEGA, o.ONE)):
            x = ordinal_plus(length)
            assert type(x) is PlusExpansion and x.length == length

    def test_pickle_and_copy_round_trip(self):
        for x in (ZERO_SE, parse_signs("+-+"), ordinal_plus(o.OMEGA),
                  ordinal_plus(o.omega_pow(o.Ord.from_int(2), 3))):
            for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
                assert type(y) is type(x) and y == x and hash(y) == hash(x) and str(y) == str(x)

    @pytest.mark.parametrize("op", [lambda x: x + x, lambda x: x + (1,), lambda x: () + x,
                                    lambda x: x * 2, lambda x: 2 * x, lambda x: x * x])
    def test_operators_are_not_tuple_operators(self, op):
        with pytest.raises(TypeError):
            op(parse_signs("+-"))


def ref_se_cmp(a, b) -> int:
    """The sign-by-sign loop that `se_cmp`'s one tuple comparison replaced."""
    if isinstance(a, PlusExpansion) or isinstance(b, PlusExpansion):
        if isinstance(a, PlusExpansion) and isinstance(b, PlusExpansion):
            return o.ord_cmp(a.length, b.length)
        if isinstance(a, PlusExpansion):
            # b is finite: either it has a '-' (then smaller) or it is a
            # shorter all-plus prefix (then also smaller).
            return 1
        return -1
    for sa, sb in zip(a, b):
        if sa != sb:
            return -1 if sa < sb else 1
    if len(a) == len(b):
        return 0
    if len(a) > len(b):
        return 1 if a[len(b)] > 0 else -1
    return -1 if b[len(a)] > 0 else 1


class TestCompareReference:
    def test_all_pairs_to_day_6(self):
        xs = all_expansions(6)
        for a in xs:
            for b in xs:
                assert se_cmp(a, b) == ref_se_cmp(a, b), (str(a), str(b))

    def test_pairs_with_ordinal_expansions(self):
        pluses = [ordinal_plus(length) for length in
                  (o.OMEGA, o.omega_pow(o.Ord.from_int(2)), o.cantor_add(o.OMEGA, o.ONE))]
        for a in pluses + all_expansions(4):
            for b in pluses:
                assert se_cmp(a, b) == ref_se_cmp(a, b), (str(a), str(b))
                assert se_cmp(b, a) == ref_se_cmp(b, a), (str(b), str(a))


class TestArithmetic:
    def test_examples(self):
        half = se_from_dyadic(F(1, 2))
        assert s_add(half, half) == parse_signs("+")
        got = s_mul(se_from_dyadic(F(3, 4)), half)
        assert se_value(got) == F(3, 8)

    def test_additive_identity(self):
        rng = random.Random(9)
        xs = all_expansions(8)
        for _ in range(50):
            x = rng.choice(xs)
            assert s_add(x, ZERO_SE) == x
            assert s_add(ZERO_SE, x) == x

    def test_addition_matches_rationals(self):
        rng = random.Random(13)
        xs = all_expansions(8)
        for _ in range(300):
            x, y = rng.choice(xs), rng.choice(xs)
            if len(x) + len(y) > 24:
                continue
            assert se_value(s_add(x, y)) == se_value(x) + se_value(y)

    def test_multiplication_matches_rationals(self):
        rng = random.Random(17)
        xs = all_expansions(7)
        for _ in range(120):
            x, y = rng.choice(xs), rng.choice(xs)
            if len(x) + len(y) > 14:
                continue
            assert se_value(s_mul(x, y)) == se_value(x) * se_value(y)

    def test_negation_and_subtraction(self):
        x = se_from_dyadic(F(5, 4))
        assert se_value(s_neg(x)) == -F(5, 4)
        assert se_value(s_sub(x, se_from_dyadic(F(1, 4)))) == 1

    def test_matches_reference_to_day_4(self):
        add_memo, mul_memo = {}, {}
        xs = all_expansions(4)
        for x in xs:
            for y in xs:
                assert s_add(x, y) == reference_add(x, y, add_memo)
                assert s_sub(x, y) == reference_add(x, s_neg(y), add_memo)
                assert s_mul(x, y) == reference_mul(x, y, mul_memo)

    @settings(max_examples=40, deadline=None)
    @given(pairs_within(ADD_CAP))
    def test_addition_matches_reference_to_cap(self, pair):
        x, y = pair
        assert s_add(x, y) == reference_add(x, y, {})
        assert s_sub(x, y) == reference_add(x, s_neg(y), {})

    @settings(max_examples=40, deadline=None)
    @given(pairs_within(MUL_CAP))
    def test_multiplication_matches_reference_to_cap(self, pair):
        x, y = pair
        assert s_mul(x, y) == reference_mul(x, y, {})

    def test_matches_full_option_table_to_day_5(self):
        xs = all_expansions(5)
        for x in xs:
            for y in xs:
                assert_table_matches(x, y, mul=False)
                assert_table_matches(x, y, mul=True)

    @settings(max_examples=30, deadline=None)
    @given(splits_within(ADD_CAP))
    def test_addition_matches_full_option_table_to_cap(self, signs):
        for k in range(len(signs) + 1):
            assert_table_matches(SignExpansion(signs[:k]), SignExpansion(signs[k:]), mul=False)

    @settings(max_examples=30, deadline=None)
    @given(splits_within(MUL_CAP))
    def test_multiplication_matches_full_option_table_to_cap(self, signs):
        for k in range(len(signs) + 1):
            assert_table_matches(SignExpansion(signs[:k]), SignExpansion(signs[k:]), mul=True)

    def test_every_full_option_cell_is_the_dyadic_result(self):
        # The identity s_add and s_mul rest on, prefix by prefix: each cell of
        # the full-option table is the sum (of y or of -y, the difference) or
        # the product of the two prefixes' dyadic values, on the table's scale.
        # The alternating operands at the caps give every prefix options on
        # both sides, the largest tables the caps allow.
        pairs = [(x, y) for x in all_expansions(4) for y in all_expansions(4)]
        for cap in (ADD_CAP, MUL_CAP):
            signs = ([1, -1] * cap)[:cap]
            pairs += [(SignExpansion(signs[:k]), SignExpansion(signs[k:])) for k in range(cap + 1)]
        for x, y in pairs:
            for y_, bounds, op in ((y, ref_add_bounds, operator.add),
                                   (s_neg(y), ref_add_bounds, operator.add),
                                   (y, ref_mul_bounds, operator.mul)):
                t, unit = ref_table(x, y_, bounds)
                for i in range(len(x) + 1):
                    for j in range(len(y_) + 1):
                        assert t[i][j] == op(se_value(_se(x[:i])), se_value(_se(y_[:j]))) * unit, \
                            (str(x), str(y_), op.__name__, i, j)

    def test_every_split_over_the_caps_raises(self):
        for cap, ops in ((ADD_CAP, (s_add, s_sub)), (MUL_CAP, (s_mul,))):
            for k in range(cap + 2):
                x, y = SignExpansion([1] * k), SignExpansion(([-1, 1] * cap)[: cap + 1 - k])
                for op in ops:
                    with pytest.raises(RecursionCapExceeded):
                        op(x, y)
        # The cap is checked before any work: a million-sign operand fails at once.
        with pytest.raises(RecursionCapExceeded):
            s_mul(se_from_dyadic(10**6), ZERO_SE)

    def test_dyadic_operands_count_before_they_are_built(self):
        for x in all_expansions(4):
            for y in (F(3), F(-5, 4), F(1, 8)):
                for op in (s_add, s_sub, s_mul):
                    assert op(x, y) == op(x, se_from_dyadic(y)) and op(y, x) == op(se_from_dyadic(y), x)
        for d in (F(0), F(5), F(-7, 2), F(3, 16), F(-1, 1024), F(1000001, 64)):
            assert surreal.dyadic_length(d) == len(se_from_dyadic(d))
        with pytest.raises(RecursionCapExceeded, match="combined birthday 1000000000003 exceeds 16"):
            s_mul(parse_signs("+-+"), F(10**12))
        with pytest.raises(RecursionCapExceeded, match="not offered on ordinal"):
            s_sub(ordinal_plus(o.OMEGA), F(10**12))
        with pytest.raises(o.BudgetExceeded, match="14001 signs"):
            ordinal_plus(o.Ord.from_int(surreal.MAX_SIGNS + 1))
        assert ordinal_plus(o.Ord.from_int(surreal.MAX_SIGNS)) == (1,) * surreal.MAX_SIGNS

    def test_non_dyadic_operands_rejected(self):
        # Checked before any arithmetic, after the cap: the error names the operand.
        for op in (s_add, s_sub, s_mul):
            for x, y in ((F(1, 3), F(3)), (F(3), F(1, 3)), (F(1, 3), parse_signs("+-")),
                         (parse_signs("-"), F(5, 6))):
                with pytest.raises(ValueError, match=r"^-?\d+/\d+ is not dyadic$"):
                    op(x, y)
        with pytest.raises(ValueError, match="^1/3 is not dyadic$"):
            s_mul(F(1, 3), F(3))
        with pytest.raises(ValueError, match="^-5/6 is not dyadic$"):
            s_sub(ZERO_SE, F(5, 6))
        with pytest.raises(RecursionCapExceeded, match="combined birthday 27 exceeds 24"):
            s_add(F(1, 3), F(25))

    def test_counts_past_the_digit_limit_print_by_bit_length(self):
        n = 10**4300 - 1  # 4,300 digits, the most a literal has
        for op, what, cap in ((s_add, "addition", ADD_CAP), (s_mul, "multiplication", MUL_CAP)):
            with pytest.raises(RecursionCapExceeded,
                               match=f"^{what}: combined birthday more than 2\\^14284 exceeds {cap}$"):
                op(F(n), F(1))
            # A count that is a power of two is still more than the power below it.
            with pytest.raises(RecursionCapExceeded, match=r"more than 2\^14285 exceeds"):
                op(F(2**14286 - 2), parse_signs("++"))
            with pytest.raises(RecursionCapExceeded, match=f"combined birthday {n} exceeds"):
                op(F(n - 1), parse_signs("+"))
        with pytest.raises(RecursionCapExceeded, match=r"more than 2\^14284 exceeds 24$"):
            s_sub(F(-n), F(1))
        with pytest.raises(o.BudgetExceeded, match=r"^an expansion of more than 2\^14284 signs"):
            simplest([F(n)], [])
        with pytest.raises(o.BudgetExceeded, match=f"^an expansion of {n} signs"):
            surreal.se_within_budget(n)
        with pytest.raises(o.BudgetExceeded, match=f"^an expansion of {n} signs"):
            ordinal_plus(o.Ord.from_int(n))
        for line in (f":sur {n} + 1", f":sur {n} * 1", f":sur -{n} - 1", f":simplest {{{n}}} {{}}"):
            record, err = run_line(line, Session())
            assert err == "eval" and "more than 2^14284" in record["value"], line

    def test_caps_match_the_benchmark_corpus(self):
        # perfbench/corpus.py generates :sur lines around these caps and expects
        # an error above them; read without importing the benchmark.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
        caps = next(node.value for node in ast.parse(path.read_text()).body
                    if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "(ADD_CAP, MUL_CAP)")
        assert ast.literal_eval(caps) == (surreal.ADD_CAP, surreal.MUL_CAP)

    def test_cap_enforced(self):
        long = SignExpansion([1] * 13)
        with pytest.raises(RecursionCapExceeded):
            s_add(long, SignExpansion([1] * 12))
        with pytest.raises(RecursionCapExceeded):
            s_mul(SignExpansion([1] * 9), SignExpansion([1] * 8))


# ---------------------------------------------------------------------------
# The integer-pair kernel: a value is (a, k), meaning a/2^k, from the operand
# read by `_parts` to the expansion built by `_se_from_parts`.
# ---------------------------------------------------------------------------


def ref_value(signs) -> F:
    """The value of a sign sequence by the walk that defines it: steps of one
    until the first change of sign, then half the previous step each."""
    v, step, halving = F(0), F(1), False
    for t in signs:
        halving = halving or t != signs[0]
        if halving:
            step /= 2
        v += t * step
    return v


REF_EXPANSIONS = {ref_value(x): x for x in all_expansions(8)}


@st.composite
def operand_words(draw) -> tuple[str, F]:
    """A `:sur` operand word and its value: a sign word, `()`, an integer, -0,
    or a dyadic literal `p/q` or `p/2^k`, reduced or not."""
    kind = draw(st.sampled_from(("signs", "()", "int", "-0", "p/q", "p/2^k", "fixed")))
    if kind == "signs":
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=12))
        return "".join("+" if s > 0 else "-" for s in signs), ref_value(signs)
    if kind == "()":
        return "()", F(0)
    if kind == "-0":
        return "-0", F(0)
    if kind == "fixed":
        return draw(st.sampled_from((("4/8", F(1, 2)), ("0/5", F(0)), ("12/2^3", F(3, 2)))))
    num, k = draw(st.integers(-20, 20)), draw(st.integers(0, 6))
    sign = "-" if num < 0 else ""
    if kind == "int":
        return f"{num}", F(num)
    if kind == "p/2^k":
        # p need not be odd: 12/2^3 is 3/2.
        return f"{sign}{abs(num)}/2^{k}", F(num, 2**k)
    m = draw(st.sampled_from((1, 2, 3, 5, 6)))  # p and q both times m: unreduced unless m = 1
    return f"{sign}{abs(num) * m}/{2**k * m}", F(num, 2**k)


class TestIntegerPairs:
    @settings(max_examples=400, deadline=None)
    @given(operand_words(), st.sampled_from(("+", "-", "*", None)), operand_words())
    def test_parsed_lines_match_fraction_arithmetic(self, x, op, y):
        """Mixed operand kinds through the parser: the answer is the expansion
        of the Fraction sum, difference or product, or the cap's refusal."""
        (xw, xv), (yw, yv) = x, y
        if op is None:
            assert parser.parse_surreal(xw) == se_from_dyadic(xv)
            return
        cap = MUL_CAP if op == "*" else ADD_CAP
        line = f"{xw} {op} {yw}"
        if len(se_from_dyadic(xv)) + len(se_from_dyadic(yv)) > cap:
            with pytest.raises(RecursionCapExceeded):
                parser.parse_surreal(line)
            return
        want = xv + yv if op == "+" else xv - yv if op == "-" else xv * yv
        got = parser.parse_surreal(line)
        assert got == se_from_dyadic(want), line
        assert want not in REF_EXPANSIONS or got == REF_EXPANSIONS[want], line

    def test_build_from_any_pair(self):
        """Even a with k > 0, a = 0 with k > 0, and negative a: the trailing
        zero bits of a are dropped first."""
        for a in range(-80, 81):
            for k in range(8):
                got = surreal._se_from_parts(a, k)
                assert got == se_from_dyadic(Fraction(a, 2**k)), (a, k)
                d = F(a, 2**k)
                if d in REF_EXPANSIONS:
                    assert got == REF_EXPANSIONS[d], (a, k)
                assert surreal._within_budget(a, k) == got
        assert surreal._se_from_parts(0, 9) == ZERO_SE
        assert surreal._se_from_parts(3 << 40, 41) == parse_signs("++-")
        assert surreal._se_from_parts(-(5 << 7), 9) == parse_signs("--++")

    def test_budget_counts_unreduced_pairs(self):
        n = surreal.MAX_SIGNS
        assert len(surreal._within_budget(n << 5, 5)) == n
        with pytest.raises(o.BudgetExceeded, match=f"^an expansion of {n + 1} signs"):
            surreal._within_budget((n + 1) << 5, 5)
        # 2^-(n-1) has n signs; scaled by 2^20 it is the same value.
        assert len(surreal._within_budget(-(1 << 20), n - 1 + 20)) == n
        with pytest.raises(o.BudgetExceeded, match=f"^an expansion of {n + 1} signs"):
            surreal._within_budget(1 << 20, n + 20)

    def test_parts_round_trip(self):
        for x in all_expansions(9):
            a, k = surreal._parts(x)
            assert F(a, 2**k) == ref_value(x)
            assert k == 0 or a % 2 == 1
            assert surreal._se_from_parts(a, k) == x
            d = se_value(x)
            assert surreal._parts(d) == (a, k)
            assert surreal.dyadic_length(d) == len(se_from_dyadic(d)) == len(x)

    def test_subtraction_refuses_an_ordinal_subtrahend_first(self):
        with pytest.raises(RecursionCapExceeded, match="^negation is not offered"):
            s_sub(ordinal_plus(o.OMEGA), ordinal_plus(o.OMEGA))
        with pytest.raises(RecursionCapExceeded, match="^negation is not offered"):
            s_sub(F(1, 3), ordinal_plus(o.OMEGA))
        with pytest.raises(RecursionCapExceeded, match="^addition is not offered"):
            s_sub(ordinal_plus(o.OMEGA), parse_signs("+"))
