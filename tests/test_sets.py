"""Set DSL: compilation, numerosities, subset certification, measures."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numerosity import field, sets
from numerosity.chains import Eventually, cf_compare, cf_eval, chain_card, threshold_factorial_divides
from numerosity.field import (
    ALPHA,
    BETA,
    GREATER,
    LESS,
    ONE,
    UNKNOWN,
    X2W,
    from_rational,
    nf_add,
    nf_cmp,
    nf_eq,
    nf_mul,
    nf_pow,
)
from numerosity.sets import (
    Diff,
    FinMapsInto,
    FinSet,
    Inter,
    Mod,
    NatAll,
    NatPos,
    PfinN,
    Pow,
    Prod,
    QAll,
    QInterval,
    QPos,
    RAll,
    RInterval,
    RPos,
    Shift,
    Uncompilable,
    Union_,
    UnitInterval01,
    YES,
    NO,
    UNDECIDED,
    counting_fn,
    disjoint_certified,
    enumerate_on_chain,
    measure,
    num,
    psi_value,
    subset_certified,
)


def q(n, d=1):
    return from_rational(F(n, d))


class TestCountingFns:
    def test_mod_form(self):
        cf = counting_fn(Mod(3, 1))
        assert cf.terms == ((F(1), F(1), 0, 0),) or str(cf) == "1/3*n"
        assert cf.m0 == 3
        assert cf_eval(cf, 3) == 46656 // 3

    def test_colorings_compile_through_the_field_power(self):
        cf = counting_fn(FinMapsInto(4, NatAll()))
        assert (cf.terms, cf.m0) == (((F(4), F(0), 0, 2),), 1)
        assert counting_fn(FinMapsInto(8, FinSet(frozenset({1, 2})))).terms == ((F(64), F(0), 0, 0),)
        for e, why in [
            (FinMapsInto(3, QPos()), "colorings compile only for power-of-two k over affine counts"),
            (FinMapsInto(2, QPos()), "determined by comparison-map rewrite, not the grid chain"),
            (FinMapsInto(2, Pow(2)), "colorings compile only for power-of-two k over affine counts"),
            (FinMapsInto(4, Mod(2, 0)), "colorings compile only for power-of-two k over affine counts"),
        ]:
            with pytest.raises(Uncompilable) as info:
                counting_fn(e)
            assert info.value.why == why

    def test_mod_threshold_computed(self):
        assert counting_fn(Mod(4, 0)).m0 == 2
        assert counting_fn(Mod(5, 0)).m0 == 5

    def test_pow_threshold(self):
        assert counting_fn(Pow(2)).m0 == 2
        assert counting_fn(Pow(3)).m0 == 3
        assert counting_fn(Pow(4)).m0 == 4

    def test_q_interval(self):
        """The grid at m = 1 is {-1, 0}, which misses the right end 1."""
        cf = counting_fn(QInterval(F(0), F(1)))
        assert cf.m0 == 2
        assert cf_eval(cf, 2) == 4

    def test_product(self):
        cf = counting_fn(Prod(Mod(2, 0), Mod(2, 0)))
        assert cf_eval(cf, 2) == 4

    def test_uncompilable_nodes(self):
        for e in (QPos(), QAll(), RPos(), RAll(), UnitInterval01()):
            with pytest.raises(Uncompilable):
                counting_fn(e)

    def test_diff_is_total_and_counted_through_the_meet(self):
        assert nf_eq(num(Diff(Mod(2, 0), Mod(3, 0))), nf_mul(q(1, 3), ALPHA))
        assert num(Diff(NatPos(), NatAll())).is_zero()
        with pytest.raises(Uncompilable) as info:
            num(Diff(Mod(2, 0), Pow(2)))
        assert info.value.why == "no numerosity rule applies"

    def test_crt_intersection(self):
        cf = counting_fn(Inter(Mod(2, 0), Mod(3, 0)))
        assert cf_eval(cf, 3) == 46656 // 6
        empty = counting_fn(Inter(Mod(2, 0), Mod(2, 1)))
        assert empty.is_zero()

    def test_union_inclusion_exclusion(self):
        cf = counting_fn(Union_(Mod(2, 0), Mod(3, 0)))
        want = 46656 // 2 + 46656 // 3 - 46656 // 6
        assert cf_eval(cf, 3) == want


class TestOracleAgreement:
    CASES = [
        NatAll(),
        NatPos(),
        FinSet(frozenset({1, 2, 3})),
        Mod(2, 0),
        Mod(2, 1),
        Mod(3, 1),
        Mod(5, 2),
        Pow(2),
        Pow(3),
        Union_(Mod(2, 0), Mod(2, 1)),
        Union_(Mod(2, 0), Mod(3, 1)),
        Inter(Mod(2, 0), Mod(3, 0)),
        Diff(NatPos(), Mod(2, 0)),
        Diff(Mod(2, 0), Mod(4, 0)),
        Prod(Mod(2, 0), Mod(2, 0)),
        Prod(NatPos(), Pow(2)),
        PfinN(),
        FinMapsInto(2, NatPos()),
        FinMapsInto(4, FinSet(frozenset({1, 2}))),
    ]

    @pytest.mark.parametrize("e", CASES, ids=str)
    def test_compiled_count_matches_enumeration(self, e):
        cf = counting_fn(e)
        for m in (2, 3):
            if m < cf.m0:
                continue
            assert cf_eval(cf, m) == enumerate_on_chain(e, m), f"{e} at m={m}"

    def test_spec_enumeration_values(self):
        assert enumerate_on_chain(Mod(2, 0), 2) == 2
        assert enumerate_on_chain(Pow(2), 3) == 216
        assert enumerate_on_chain(FinSet(frozenset({1, 2, 3})), 2) == 3

    def test_pfin_matches_literal_powerset(self):
        n = chain_card(2)
        ground = list(range(n + 1))
        literal = sum(
            1 for r in range(len(ground) + 1) for _ in itertools.combinations(ground, r)
        )
        assert enumerate_on_chain(PfinN(), 2) == literal == 32

    @staticmethod
    def ref_pow_threshold(p: int) -> int:
        """The threshold of pow(p) as `counting_fn` searched it: the least m with p | m!."""
        m0 = 1
        while math.factorial(m0) % p != 0:
            m0 += 1
        return m0

    def test_pow_threshold_matches_factorial_search(self):
        for p in range(1, 1500):
            assert threshold_factorial_divides(p) == self.ref_pow_threshold(p), p
        assert counting_fn(Pow(10007)).m0 == 10007
        assert counting_fn(Pow(2**10 * 3**5)).m0 == 12

    def test_rational_grid_enumeration(self):
        cf = counting_fn(QInterval(F(0), F(1)))
        assert enumerate_on_chain(QInterval(F(0), F(1)), 2) == cf_eval(cf, 2) == 4
        assert enumerate_on_chain(QInterval(F(-1, 2), F(3, 4)), 2) == 5


class TestNumerosities:
    def test_congruence_classes(self):
        for p in (2, 3, 5):
            for i in range(p):
                want = field.nf_div(ALPHA, q(p))
                assert nf_eq(num(Mod(p, i)), want)

    def test_roots(self):
        for p in (2, 3):
            assert nf_eq(num(Pow(p)), nf_pow(ALPHA, q(1, p)))

    def test_rational_sets(self):
        assert nf_eq(num(QInterval(F(0), F(1))), ALPHA)
        assert nf_eq(num(QPos()), nf_mul(ALPHA, ALPHA))
        assert nf_eq(num(QAll()), nf_add(nf_mul(q(2), nf_mul(ALPHA, ALPHA)), ONE))

    def test_real_sets(self):
        assert nf_eq(num(RInterval(F(1, 4), F(3, 4))), field.nf_div(BETA, q(2)))
        assert nf_eq(num(RPos()), nf_mul(ALPHA, BETA))
        assert nf_eq(num(RAll()), nf_add(nf_mul(q(2), nf_mul(ALPHA, BETA)), ONE))
        assert nf_eq(num(UnitInterval01()), nf_add(BETA, ONE))

    def test_interval_scaling(self):
        for p, qq in [(F(0), F(1)), (F(-1), F(2)), (F(1, 3), F(5, 3))]:
            want = nf_mul(from_rational(qq - p), BETA)
            assert nf_eq(num(RInterval(p, qq)), want)
            want_q = nf_mul(from_rational(qq - p), ALPHA)
            assert nf_eq(num(QInterval(p, qq)), want_q)

    def test_shift_invariance(self):
        for e in [
            QInterval(F(0), F(1)),
            RInterval(F(-1, 2), F(1, 2)),
            FinSet(frozenset({1, 5})),
            Union_(RInterval(F(0), F(1)), RInterval(F(2), F(3))),
        ]:
            if isinstance(e, FinSet):
                continue
            assert nf_eq(num(Shift(F(7, 2), e)), num(e))

    def test_empty_set_and_null_principle(self):
        assert num(FinSet(frozenset())).is_zero()
        for e in [Mod(2, 0), QInterval(F(0), F(1)), PfinN(), RAll()]:
            assert nf_cmp(num(e), field.ZERO).kind == GREATER

    def test_union_additivity(self):
        a, b = Mod(2, 0), Mod(2, 1)
        assert nf_eq(num(Union_(a, b)), nf_add(num(a), num(b)))
        ia, ib = RInterval(F(0), F(1)), RInterval(F(2), F(3))
        assert nf_eq(num(Union_(ia, ib)), nf_add(num(ia), num(ib)))

    def test_product_rule(self):
        a, b = Mod(2, 0), QInterval(F(0), F(1))
        assert nf_eq(num(Prod(a, b)), nf_mul(num(a), num(b)))
        unit = Prod(FinSet(frozenset({7})), b)
        assert nf_eq(num(unit), num(b))

    def test_powerset_and_maps(self):
        assert nf_eq(num(PfinN()), X2W)
        assert nf_eq(num(FinMapsInto(2, NatAll())), X2W)
        assert nf_eq(num(FinMapsInto(2, NatPos())), field.nf_div(X2W, q(2)))
        assert nf_eq(num(FinMapsInto(4, FinSet(frozenset({1, 2})))), q(16))

    def test_euclid_on_certified_subsets(self):
        cases = [
            (Mod(4, 0), Mod(2, 0)),
            (QInterval(F(0), F(1)), QInterval(F(0), F(2))),
            (RInterval(F(0), F(1)), RInterval(F(-1), F(2))),
            (Diff(Mod(2, 0), Mod(4, 0)), Mod(2, 0)),
        ]
        for small, large in cases:
            assert subset_certified(small, large) == YES
            assert nf_cmp(num(small), num(large)).kind == LESS


class TestSubsets:
    def test_examples(self):
        assert subset_certified(Mod(4, 0), Mod(2, 0)) == YES
        assert subset_certified(QInterval(F(0), F(1)), QInterval(F(0), F(2))) == YES
        assert subset_certified(Pow(2), Mod(2, 0)) == UNDECIDED

    def test_no_cases(self):
        assert subset_certified(Mod(2, 0), Mod(4, 0)) == NO
        assert subset_certified(QInterval(F(0), F(2)), QInterval(F(0), F(1))) == NO
        assert subset_certified(FinSet(frozenset({0})), NatPos()) == NO

    def test_disjointness(self):
        assert disjoint_certified(Mod(2, 0), Mod(2, 1)) == YES
        assert disjoint_certified(Mod(2, 0), Mod(3, 0)) == NO
        assert disjoint_certified(RInterval(F(0), F(1)), RInterval(F(1), F(2))) == YES


FIELDLESS = (NatAll, NatPos, QPos, QAll, RPos, RAll, UnitInterval01, PfinN)


class TestNodesAsTuples:
    """A set node is the tuple of its fields, and its equality also compares the class."""

    def test_nodes_of_different_classes_differ(self):
        for a, b in itertools.combinations(FIELDLESS, 2):
            assert a() != b() and not a() == b()
        assert NatAll() != () and () != NatAll() and not NatAll() == ()
        a, b = Mod(2, 0), Mod(2, 1)
        assert Union_(a, b) != Inter(a, b) and not Union_(a, b) == Inter(a, b)
        assert Union_(a, b) == Union_(Mod(2, 0), Mod(2, 1))

    def test_equal_nodes_hash_alike(self):
        makers = (NatAll, lambda: Mod(3, 1), lambda: FinSet(frozenset({1, 2})),
                  lambda: Shift(F(1, 2), QInterval(F(0), F(1))))
        for make in makers:
            x, y = make(), make()
            assert x == y and x is not y and hash(x) == hash(y)
        assert len({NatAll(), NatAll(), NatPos()}) == 2

    def test_fieldless_nodes_are_true_and_print_as_calls(self):
        for cls in FIELDLESS:
            assert cls() and repr(cls()) == f"{cls.__name__}()"
        assert repr(Mod(3, 1)) == "Mod(p=3, i=1)"

    def test_no_subset_certificate_across_classes(self):
        assert subset_certified(NatAll(), NatPos()) != YES
        assert subset_certified(QAll(), QPos()) != YES
        assert subset_certified(NatPos(), NatAll()) == YES

    def test_constructors_check_and_fields_are_read_only(self):
        with pytest.raises(ValueError, match="need p >= 1 and 0 <= i < p"):
            Mod(2, 2)
        with pytest.raises(ValueError, match="one ground domain"):
            Union_(NatAll(), QAll())
        with pytest.raises(ValueError, match="one ground domain"):
            Diff(Mod(2, 0), QPos())
        assert num(Diff(Mod(2, 0), NatPos())).is_zero()
        with pytest.raises(AttributeError):
            Mod(3, 1).p = 4


class TestMeasure:
    def test_lebesgue_on_intervals(self):
        st = measure(RInterval(F(1, 4), F(3, 4)), BETA)
        assert st.value == F(1, 2)

    def test_lebesgue_on_disjoint_unions(self):
        e = Union_(RInterval(F(0), F(1, 4)), RInterval(F(1, 2), F(3, 4)))
        assert measure(e, BETA).value == F(1, 2)

    def test_two_dimensional_box(self):
        e = Prod(RInterval(F(0), F(1)), RInterval(F(0), F(1, 2)))
        assert measure(e, nf_mul(BETA, BETA)).value == F(1, 2)

    def test_rationals_are_beta_null_by_declaration(self):
        st = measure(QInterval(F(0), F(1)), BETA)
        assert st.kind == UNKNOWN
        table = field.AxiomTable().with_alpha_dominated_by(field.Monomial(beta=1))
        st = measure(QInterval(F(0), F(1)), BETA, table)
        assert st.value == F(0)

    def test_truncated_superadditivity(self):
        whole = measure(RInterval(F(0), F(1)), BETA).value
        for n_max in (5, 20):
            total = F(0)
            for k in range(n_max + 1):
                piece = RInterval(F(1, 2 ** (k + 1)), F(1, 2**k))
                total += measure(piece, BETA).value
            assert total == 1 - F(1, 2 ** (n_max + 1))
            assert whole >= total


class TestPsi:
    def test_binary_expansion_values(self):
        assert psi_value({0, 2}) == F(5, 8)
        assert psi_value(set()) == 0
        assert psi_value({0}) == F(1, 2)

    def test_matches_direct_summation(self):
        import random

        rng = random.Random(5)
        for _ in range(50):
            s = {rng.randint(0, 20) for _ in range(rng.randint(0, 8))}
            direct = sum(F(1, 2 ** (n + 1)) for n in s)
            assert psi_value(s) == direct


class TestChainVsLimitConsistency:
    def test_limit_of_compiled_equals_num(self):
        cases = [
            NatAll(),
            Mod(3, 2),
            Pow(2),
            QInterval(F(-1), F(1)),
            RInterval(F(0), F(2)),
            PfinN(),
            Prod(Mod(2, 0), QInterval(F(0), F(1))),
        ]
        for e in cases:
            assert nf_eq(counting_fn(e).limit, num(e))

    def test_eventual_dominance_transfers(self):
        f = counting_fn(Mod(2, 0))
        g = counting_fn(Mod(3, 0))
        assert cf_compare(g, f).kind == Eventually.LESS
        assert nf_cmp(num(Mod(3, 0)), num(Mod(2, 0))).kind == LESS


# -- certificates against the enumeration oracle -------------------------------
# Set expressions over N of depth <= 3 with small moduli and elements, where
# the labels at m <= 3 (the naturals up to n(3) = 46656) are enumerable.

_LEAVES = st.one_of(
    st.integers(1, 6).flatmap(lambda p: st.builds(Mod, st.just(p), st.integers(0, p - 1))),
    st.builds(FinSet, st.frozensets(st.integers(0, 8), max_size=3)),
    st.sampled_from([NatAll(), NatPos()]),
    st.builds(Pow, st.integers(1, 3)),
)


def set_exprs(depth: int = 3):
    if depth == 0:
        return _LEAVES
    sub = set_exprs(depth - 1)
    return st.one_of(_LEAVES, st.builds(Union_, sub, sub), st.builds(Inter, sub, sub),
                     st.builds(Diff, sub, sub))


@lru_cache(maxsize=512)
def _members(e, m: int) -> int:
    """e ∩ label_m by the oracle's membership test, one byte (0 or 1) per natural."""
    return int.from_bytes(bytes(sets._nat_member(e, x) for x in range(chain_card(m) + 1)), "little")


def _num_or_none(e):
    try:
        return num(e)
    except Uncompilable:
        return None


class TestCertificatesAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(set_exprs(), set_exprs())
    def test_subset(self, a, b):
        """YES: a ⊆ b in every label, and Euclid: num(a) is not above num(b).
        NO: some label at m <= 3 holds a counterexample."""
        verdict = subset_certified(a, b)
        if verdict == UNDECIDED:
            return
        escapes = [_members(a, m) & ~_members(b, m) for m in (1, 2, 3)]
        if verdict == NO:
            assert any(escapes)
            return
        assert not any(escapes)
        na, nb = _num_or_none(a), _num_or_none(b)
        if na is not None and nb is not None:
            assert nf_cmp(na, nb).kind != GREATER

    @settings(max_examples=150, deadline=None)
    @given(set_exprs(), set_exprs())
    def test_disjoint(self, a, b):
        """YES: no shared member, and num of the union is the sum.
        NO: a shared member at m <= 3."""
        verdict = disjoint_certified(a, b)
        if verdict == UNDECIDED:
            return
        shared = [_members(a, m) & _members(b, m) for m in (1, 2, 3)]
        if verdict == NO:
            assert any(shared)
            return
        assert not any(shared)
        na, nb = _num_or_none(a), _num_or_none(b)
        if na is not None and nb is not None:
            assert nf_eq(num(Union_(a, b)), nf_add(na, nb))

    @settings(max_examples=60, deadline=None)
    @given(set_exprs())
    def test_compiled_count(self, e):
        try:
            cf = counting_fn(e)
        except Uncompilable:
            return
        for m in range(cf.m0, 4):
            assert cf_eval(cf, m) == _members(e, m).bit_count(), m


# Quarter ends in [-2, 2], integer ends in [-4, 4] and shifts by at most 1, so
# most thresholds are at most 2: the rational grid at m = 2 is
# {s/4 : -16 <= s < 16}, and at m = 1 it is {-1, 0}.
def _quarters(bound: int):
    return st.integers(-bound, bound).map(lambda k: F(k, 4))


_ENDS = _quarters(8) | st.integers(-4, 4).map(F)
_Q_LEAVES = st.tuples(_ENDS, _ENDS).filter(lambda t: t[0] < t[1]).map(lambda t: QInterval(*t))


def q_exprs(depth: int = 2):
    if depth == 0:
        return _Q_LEAVES
    sub = q_exprs(depth - 1)
    return st.one_of(_Q_LEAVES, st.builds(Shift, _quarters(4), sub), st.builds(Union_, sub, sub),
                     st.builds(Inter, sub, sub), st.builds(Diff, sub, sub))


def _grid_member(e, x: F) -> bool:
    """x ∈ e for a meet over ℚ or ℝ: the empty set, a real interval [p, q), or a ℚ node."""
    if e == FinSet():
        return False
    if isinstance(e, RInterval):
        return e.p <= x < e.q
    return sets._rat_member(e, x)


_R_LEAVES = st.tuples(_ENDS, _ENDS).filter(lambda t: t[0] < t[1]).map(lambda t: RInterval(*t))


class TestMeetAgainstOracle:
    """`_meet` returns a node with exactly the members both sides share, or None."""

    @settings(max_examples=300, deadline=None)
    @given(set_exprs(1), set_exprs(1))
    @example(Mod(4, 1), Mod(6, 3))
    @example(Mod(6, 5), Mod(4, 3))
    @example(Pow(2), Mod(2, 0))
    def test_naturals(self, a, b):
        meet = sets._meet(a, b)
        if meet is None:
            return
        for x in range(400):
            assert sets._nat_member(meet, x) == (sets._nat_member(a, x) and sets._nat_member(b, x)), x

    def test_crt_classes(self):
        assert sets._meet(Mod(4, 1), Mod(6, 3)) == Mod(12, 9)
        assert sets._meet(Mod(2, 0), Mod(3, 0)) == Mod(6, 0)
        assert sets._meet(Mod(4, 1), Mod(6, 0)) == FinSet()
        # A class inside the other is its own meet with it.
        assert sets._meet(Mod(2, 1), Mod(4, 3)) == Mod(4, 3)
        assert sets._meet(Mod(3, 2), Mod(1, 0)) == Mod(3, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_Q_LEAVES, st.sampled_from([QPos(), QAll()])),
           st.one_of(_Q_LEAVES, st.sampled_from([QPos(), QAll()])))
    @example(QInterval(F(0), F(1)), QPos())
    @example(QInterval(F(-1), F(1)), QPos())
    def test_rationals(self, a, b):
        self.check_grid(a, b)

    @settings(max_examples=150, deadline=None)
    @given(_R_LEAVES, _R_LEAVES)
    def test_reals(self, a, b):
        self.check_grid(a, b)

    @staticmethod
    def check_grid(a, b):
        meet = sets._meet(a, b)
        if isinstance(a, (QInterval, RInterval)) and isinstance(b, (QInterval, RInterval)):
            assert meet is not None  # two intervals meet in an interval or in nothing
        if meet is None:
            return
        for x in (F(s, 8) for s in range(-48, 49)):
            assert _grid_member(meet, x) == (_grid_member(a, x) and _grid_member(b, x)), x


class TestRationalSetsAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(q_exprs())
    @example(QInterval(F(0), F(1)))
    @example(QInterval(F(-3, 2), F(4)))
    @example(Inter(QInterval(F(0), F(1)), QInterval(F(1, 2), F(2))))
    def test_compiled_count(self, e):
        """The compiled count equals the grid enumeration from its threshold on."""
        try:
            cf = counting_fn(e)
        except Uncompilable:
            return
        for m in range(cf.m0, 3):
            assert cf_eval(cf, m) == enumerate_on_chain(e, m), m
