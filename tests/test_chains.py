"""Chain cardinalities, exact evaluation, eventual comparison, chain limits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as F

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numerosity import field
from numerosity.cli import Session, run_line
from numerosity.chains import (
    MAX_EVAL_INDEX,
    BelowThreshold,
    CfComparison,
    CountingFn,
    Eventually,
    IndexTooLarge,
    NonIntegral,
    XFreeRequired,
    _chain_scale,
    _tail_certified,
    _x_groups,
    cf_compare,
    cf_eval,
    chain_card,
    threshold_divides,
)


def mono(c, q=0, x=0, e=0, m0=1):
    return CountingFn.monomial(F(c), F(q), x, e, m0)


class TestChainCards:
    def test_values(self):
        assert chain_card(1) == 1
        assert chain_card(2) == 4
        assert chain_card(3) == 46656

    def test_strictly_increasing(self):
        assert chain_card(1) < chain_card(2) < chain_card(3) < chain_card(4)

    def test_threshold_divides(self):
        assert threshold_divides(2) == 2
        assert threshold_divides(3) == 3
        assert threshold_divides(4) == 2
        assert threshold_divides(2**21) == 4

    @staticmethod
    def ref_threshold_divides(d: int, lower: int = 1) -> int:
        """Least m >= lower with d | n(m), by search."""
        m = max(1, lower)
        while chain_card(m) % d != 0:
            m += 1
        return m

    def test_threshold_divides_matches_search(self):
        def rough_part(d):
            for p in (2, 3, 5, 7):
                while d % p == 0:
                    d //= p
            return d

        smooth = [d for d in range(1, 200) if rough_part(d) == 1]
        assert len(smooth) == 66
        for d in smooth:
            for lower in range(7):
                assert threshold_divides(d, lower) == self.ref_threshold_divides(d, lower), (d, lower)
        assert threshold_divides(11) == 11 and threshold_divides(7919 * 2**40, 3) == 7919

    @pytest.mark.parametrize("line, value", [
        (":num mod(11,0)", "1/11*alpha"),
        (":num mod(7919,1)", "1/7919*alpha"),
        (":num Q(0,1/11]", "1/11*alpha"),
    ])
    def test_large_prime_denominator(self, line, value):
        start = time.perf_counter()
        record, err = run_line(line, Session())
        assert time.perf_counter() - start < 0.1
        assert err is None and record["value"] == value


class TestEval:
    def test_examples(self):
        assert cf_eval(mono(F(1, 2), 1), 2) == 2
        assert cf_eval(mono(1, F(1, 2)), 2) == 2
        assert cf_eval(mono(1, 0, 0, 1), 2) == 16
        assert cf_eval(mono(2, 0, 0, 1), 2) == 32

    def test_large_roots(self):
        # n(3)^(1/2) = 216, n(3)^(1/3) = 36.
        assert cf_eval(mono(1, F(1, 2)), 3) == 216
        assert cf_eval(mono(1, F(1, 3)), 3) == 36

    def test_below_threshold_rejected(self):
        with pytest.raises(BelowThreshold, match="below the validity threshold 3"):
            cf_eval(mono(1, 1, m0=3), 2)

    def test_x_rejected(self):
        with pytest.raises(XFreeRequired):
            cf_eval(mono(1, 1, x=1), 2)

    def test_non_integral_rejected(self):
        with pytest.raises(NonIntegral):
            cf_eval(mono(F(1, 5), 0), 2)

    def test_exponential_beyond_m3_rejected(self):
        with pytest.raises(IndexTooLarge):
            cf_eval(mono(1, 0, 0, 1), 4)

    def test_huge_non_natural_value_is_described(self):
        # -2^n(3) has 46,657 bits: past Python's 4300-digit limit for str().
        with pytest.raises(NonIntegral, match=r"^value \(negative, 46657 bits\) at m=3 is not"):
            cf_eval(CountingFn.monomial(-1, 0, 0, 1), 3)
        with pytest.raises(NonIntegral, match=r"^value -1/2 at m=2 is not"):
            cf_eval(mono(F(-1, 2)), 2)

    def test_index_budget(self):
        assert cf_eval(mono(1), MAX_EVAL_INDEX) == 1
        with pytest.raises(IndexTooLarge, match="MAX_EVAL_INDEX"):
            cf_eval(mono(1), MAX_EVAL_INDEX + 1)


class TestCompare:
    def test_exponential_beats_powers(self):
        c = cf_compare(mono(1, 0, 0, 1), mono(1, 3))
        assert (c.kind, c.m0) == (Eventually.GREATER, 3)

    def test_equal(self):
        c = cf_compare(mono(F(1, 2), 1), mono(F(1, 2), 1))
        assert (c.kind, c.m0) == (Eventually.EQUAL, 1)

    def test_congruence_thresholds(self):
        c = cf_compare(mono(F(1, 3), 1, m0=3), mono(F(1, 2), 1, m0=2))
        assert (c.kind, c.m0) == (Eventually.LESS, 3)

    def test_power_grading(self):
        assert cf_compare(mono(1, F(3, 2)), mono(100, 1)).kind == Eventually.GREATER
        assert cf_compare(mono(1, F(1, 2)), mono(1, F(2, 3))).kind == Eventually.LESS

    def test_spot_check_at_threshold(self):
        f, g = mono(1, 0, 0, 1), mono(1, 3)
        c = cf_compare(f, g)
        assert cf_eval(f, c.m0) > cf_eval(g, c.m0)  # m0+1 would need 2^n(4)

    def test_spot_check_at_threshold_and_next(self):
        cases = [
            (mono(F(1, 3), 1, m0=3), mono(F(1, 2), 1, m0=2)),
            (mono(1, F(1, 2), m0=2), mono(F(1, 6), 1, m0=3)),
            (mono(1, 2), mono(5, 1)),
        ]
        order = {Eventually.LESS: -1, Eventually.GREATER: 1}
        for f, g in cases:
            c = cf_compare(f, g)
            assert c.kind in order
            for m in (c.m0, c.m0 + 1):
                diff = cf_eval(f, m) - cf_eval(g, m)
                assert (diff > 0) == (order[c.kind] > 0) and diff != 0

    def test_mixed_seed_degrees_unknown(self):
        c = cf_compare(mono(1, 0, x=1), mono(1, 1))
        assert c.kind == Eventually.UNKNOWN

    def test_uniform_seed_degrees_decide(self):
        lhs = CountingFn.make([(F(2), F(1), 1, 0), (F(1), F(0), 0, 0)])
        rhs = CountingFn.make([(F(1), F(1), 1, 0)])
        assert cf_compare(lhs, rhs).kind == Eventually.GREATER


class TestLimit:
    def test_examples(self):
        assert field.nf_eq(mono(F(1, 2), 1).limit,
                           field.nf_div(field.ALPHA, field.from_rational(2)))
        assert field.nf_eq(mono(1, F(1, 2)).limit,
                           field.nf_pow(field.ALPHA, field.from_rational(F(1, 2))))
        f = CountingFn.make([(F(2), F(2), 1, 0), (F(1), F(0), 0, 0)])
        want = field.nf_add(
            field.nf_mul(field.from_rational(2),
                         field.nf_mul(field.ALPHA, field.BETA)),
            field.ONE,
        )
        assert field.nf_eq(f.limit, want)

    def test_power_set_count_lands_on_x(self):
        assert field.nf_eq(mono(2, 0, 0, 1).limit, field.X2W)

    def test_ring_morphism(self):
        fs = [mono(F(1, 2), 1), mono(1, F(1, 2)), mono(3, 2, 1, 0), mono(1, 0, 0, 1)]
        for f in fs:
            for g in fs:
                assert field.nf_eq((f + g).limit, field.nf_add(f.limit, g.limit))
                assert field.nf_eq((f * g).limit, field.nf_mul(f.limit, g.limit))

    def test_positivity_transfer(self):
        for f in [mono(F(1, 2), 1), mono(1, 0, 0, 1) - mono(1, 3)]:
            if cf_compare(f, CountingFn.constant(0)).kind == Eventually.GREATER:
                c = field.nf_cmp(f.limit, field.ZERO)
                assert c.kind == field.GREATER


# -- reference: the comparison that built n(m) = m!^(m!) at every index --------
# Kept verbatim, except that the reference loop stops after m = 8 (n(9) takes
# about a second to build and n(10) does not finish) and then answers None.


def ref_tail_certified(terms, n0):
    c0, q0, _, e0 = terms[0]
    n0f = float(min(n0, 10**300))
    ln_n0 = math.log(n0)
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


REF_LAST_INDEX = 8


def ref_cf_compare(f, g):
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
        if m > REF_LAST_INDEX:
            return None
        n0 = chain_card(m)
        if all(ref_tail_certified(ts, n0) for ts in groups.values()):
            return CfComparison(
                Eventually.GREATER if sign > 0 else Eventually.LESS, m
            )
    return CfComparison(Eventually.UNKNOWN, reason="no certified threshold found")


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
counting_fns = st.builds(
    CountingFn.make,
    st.lists(st.tuples(_small.filter(bool), _small, st.integers(0, 1), st.integers(0, 1)),
             min_size=1, max_size=3),
    st.integers(1, REF_LAST_INDEX),
)


class TestCompareWithoutChainSizes:
    @settings(max_examples=200, deadline=None)
    @given(counting_fns, counting_fns)
    def test_matches_exact_chain_sizes(self, f, g):
        got, want = cf_compare(f, g), ref_cf_compare(f, g)
        if want is None:  # the reference would need n(9) or later
            assert got.kind is Eventually.UNKNOWN or got.m0 > REF_LAST_INDEX
        else:
            assert (got.kind, got.m0) == (want.kind, want.m0)

    @settings(max_examples=150, deadline=None)
    @given(counting_fns, st.integers(1, REF_LAST_INDEX))
    def test_tail_certificate_at_each_index(self, f, m):
        for ts in _x_groups(f).values():
            assert _tail_certified(ts, *_chain_scale(m)) == ref_tail_certified(ts, chain_card(m))

    @pytest.mark.parametrize("m0", [9, 10, 11, 171, 10**6])
    def test_large_threshold_ends(self, m0):
        start = time.perf_counter()
        c = cf_compare(CountingFn.monomial(1, 1, m0=m0), CountingFn.monomial(1, 0, m0=1))
        assert time.perf_counter() - start < 0.1
        assert (c.kind, c.m0) == (Eventually.GREATER, m0)


# -- reference: the counting function as a list of terms ----------------------
# The term-list CountingFn, its formatter, cf_eval with its root and the
# per-term lambda_limit, kept verbatim (renamed) from before counting
# functions were stored as their chain limit; the power method went with
# `CountingFn.pow`.


@dataclass(frozen=True, slots=True)
class RefCountingFn:
    """Exact closed form of a counting net along a canonical chain."""

    terms: tuple
    m0: int = 1

    @staticmethod
    def make(terms, m0: int = 1) -> "RefCountingFn":
        acc = {}
        for c, q, xj, ei in terms:
            key = (F(q), xj, ei)
            acc[key] = acc.get(key, F(0)) + F(c)
        cleaned = tuple(
            (c, q, xj, ei)
            for (q, xj, ei), c in sorted(acc.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]), reverse=True)
            if c != 0
        )
        return RefCountingFn(cleaned, m0)

    @staticmethod
    def constant(c, m0: int = 1) -> "RefCountingFn":
        return RefCountingFn.make([(F(c), F(0), 0, 0)], m0)

    def is_zero(self) -> bool:
        return not self.terms

    def x_free(self) -> bool:
        return all(xj == 0 for _, _, xj, _ in self.terms)

    def __add__(self, other):
        return RefCountingFn.make(self.terms + other.terms, max(self.m0, other.m0))

    def __sub__(self, other):
        neg = tuple((-c, q, xj, ei) for c, q, xj, ei in other.terms)
        return RefCountingFn.make(self.terms + neg, max(self.m0, other.m0))

    def __mul__(self, other):
        out = []
        for c1, q1, x1, e1 in self.terms:
            for c2, q2, x2, e2 in other.terms:
                out.append((c1 * c2, q1 + q2, x1 + x2, e1 + e2))
        return RefCountingFn.make(out, max(self.m0, other.m0))

    def __str__(self) -> str:
        return ref_format_counting_fn(self)


def ref_nth_root_exact(value: int, k: int) -> int:
    if value < 0:
        raise NonIntegral("negative radicand")
    lo, hi = 0, 1 << (value.bit_length() // k + 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < value:
            lo = mid + 1
        else:
            hi = mid
    if lo**k != value:
        raise NonIntegral(f"{value} has no exact {k}-th root")
    return lo


def ref_cf_eval(f, m: int) -> int:
    if m < f.m0:
        raise BelowThreshold(f"index {m} is below the validity threshold {f.m0}")
    if not f.x_free():
        raise XFreeRequired("counting function involves the formal seed size x")
    if any(ei > 0 for _, _, _, ei in f.terms) and m > 3:
        raise IndexTooLarge("2^n(m) is astronomically large beyond m = 3")
    fact = math.factorial(m)
    n = fact**fact
    total = F(0)
    for c, q, _, ei in f.terms:
        e = F(fact) * q
        if e.denominator == 1:
            power = F(fact) ** int(e)
        else:
            root = ref_nth_root_exact(fact ** abs(e.numerator), e.denominator)
            power = F(root) if e.numerator >= 0 else F(1, root)
        term = c * power
        if ei:
            term *= F(2) ** (n * ei)
        total += term
    if total.denominator != 1 or total < 0:
        bits = max(abs(total.numerator), total.denominator).bit_length()
        raise NonIntegral(f"value at m={m} is not a natural number: sign {(total > 0) - (total < 0)}, "
                          f"{bits} bits")
    return int(total)


def ref_lambda_limit(f):
    out = field.ZERO
    for c, q, xj, ei in f.terms:
        piece = field.from_rational(c)
        piece = field.nf_mul(piece, field.alpha_power(q - xj))
        if xj:
            piece = field.nf_mul(piece, field.nf_pow(field.BETA, field.from_rational(xj)))
        if ei:
            half_x = field.nf_div(field.X2W, field.from_rational(2))
            piece = field.nf_mul(piece, field.nf_pow(half_x, field.from_rational(ei)))
        out = field.nf_add(out, piece)
    return out


def ref_format_counting_fn(f) -> str:
    if not f.terms:
        return "0"
    parts = []
    for i, (c, q, xj, ei) in enumerate(f.terms):
        factors = []
        if ei:
            factors.append("2^n" if ei == 1 else f"(2^n)^{ei}")
        if q:
            exp = str(q) if q.denominator == 1 else f"({q})"
            factors.append("n" if q == 1 else f"n^{exp}")
        if xj:
            factors.append("x" if xj == 1 else f"x^{xj}")
        mag = abs(c)
        coeff = "" if (mag == 1 and factors) else str(mag)
        body = "*".join(([coeff] if coeff else []) + factors)
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (BelowThreshold, IndexTooLarge, NonIntegral, XFreeRequired) as exc:
        return type(exc)


def assert_agrees(new: CountingFn, ref: RefCountingFn) -> None:
    """The stored-limit form against the term list, on every read."""
    assert new.terms == ref.terms
    assert [tuple(map(type, t)) for t in new.terms] == [(F, F, int, int)] * len(ref.terms)
    assert (str(new), new.is_zero(), new.x_free(), new.m0) == (
        str(ref), ref.is_zero(), ref.x_free(), ref.m0)
    assert new.limit == ref_lambda_limit(ref)
    for m in range(1, 6):
        assert _outcome(cf_eval, new, m) == _outcome(ref_cf_eval, ref, m), m


# Terms c*n^q*x^j*(2^n)^i: q below j gives a negative alpha exponent in the limit.
_term_lists = st.tuples(
    st.lists(st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                       st.fractions(min_value=-2, max_value=3, max_denominator=3),
                       st.integers(0, 2), st.integers(0, 2)), max_size=4),
    st.integers(1, 8),
)


class TestStoredLimit:
    @settings(max_examples=150, deadline=None)
    @given(_term_lists, _term_lists)
    def test_matches_term_lists(self, a, b):
        f, rf = CountingFn.make(*a), RefCountingFn.make(*a)
        g, rg = CountingFn.make(*b), RefCountingFn.make(*b)
        for new, ref in ((f, rf), (g, rg), (f + g, rf + rg), (f - g, rf - rg),
                         (f * g, rf * rg)):
            assert_agrees(new, ref)
        assert cf_compare(f, g) == cf_compare(rf, rg)

    @settings(max_examples=100, deadline=None)
    @given(st.fractions(min_value=-3, max_value=3, max_denominator=4),
           st.fractions(min_value=-2, max_value=3, max_denominator=3),
           st.integers(0, 2), st.integers(0, 2), st.integers(1, 8))
    def test_constructors(self, c, q, x, e, m0):
        assert_agrees(CountingFn.monomial(c, q, x, e, m0), RefCountingFn.make([(c, q, x, e)], m0))
        assert_agrees(CountingFn.constant(c, m0), RefCountingFn.constant(c, m0))

    def test_negative_alpha_exponents_decode(self):
        f = CountingFn.make([(F(3), F(1, 2), 2, 1), (F(-1, 2), F(0), 1, 0), (F(5), F(2), 0, 0)], 4)
        assert f.limit.den == ((2, field.Monomial(alpha=F(3, 2))),)
        assert f.terms == ((F(3), F(1, 2), 2, 1), (F(5), F(2), 0, 0), (F(-1, 2), F(0), 1, 0))
        assert str(f) == "3*2^n*n^(1/2)*x^2 + 5*n^2 - 1/2*x"

