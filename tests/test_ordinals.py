"""Ordinal arithmetic against independent small-ordinal oracles."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction as F
from functools import cmp_to_key
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numerosity import ordinals
from numerosity.field import Monomial
from numerosity.ordinals import (
    MAX_POWER_BITS,
    OMEGA,
    ONE,
    ZERO,
    BudgetExceeded,
    Ord,
    UnsupportedPower,
    ZeroArgument,
    cantor_add,
    cantor_mul,
    fold_cantor,
    fold_natural,
    format_ordinal,
    is_indecomposable,
    natural_add,
    natural_mul,
    omega_pow,
    ord_cmp,
    ord_exp,
)
from conftest import random_ord
from ref_field import RefMonomial, to_field


# -- oracle: ordinals below w^w as coefficient lists [c0, c1, ...] ----------
# Textbook Cantor arithmetic in an independent representation.


def to_coeffs(o: Ord) -> list[int]:
    out: list[int] = []
    for e, c in o:
        assert e.is_finite(), "oracle covers exponents below w^w only"
        k = e.as_int()
        out.extend(0 for _ in range(k + 1 - len(out)))
        out[k] = c
    return out


def from_coeffs(cs: list[int]) -> Ord:
    terms = [
        (Ord.from_int(k), c) for k, c in sorted(enumerate(cs), reverse=True) if c
    ]
    return Ord(tuple(terms))


def oracle_add(a: list[int], b: list[int]) -> list[int]:
    if not b:
        return a[:]
    k = max(i for i, c in enumerate(b) if c)
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        if i > k:
            out[i] = c
    for i, c in enumerate(b):
        out[i] += c
    if len(a) > k and a[k]:
        out[k] += a[k]
    return out


def oracle_mul(a: list[int], b: list[int]) -> list[int]:
    if not any(a) or not any(b):
        return []
    deg_a = max(i for i, c in enumerate(a) if c)
    out: list[int] = []
    # Distribute over the right factor's terms from the largest exponent down,
    # matching the normal-form order of the sum b = w^k*c_k + ... + c_0.
    for i in range(len(b) - 1, -1, -1):
        c = b[i]
        if not c:
            continue
        if i == 0:
            piece = a[:]
            piece[deg_a] *= c
        else:
            piece = [0] * (deg_a + i) + [c]
        out = oracle_add(out, piece)
    return out


def small_ords(max_exp: int = 2, max_coeff: int = 2):
    """Every normal form with exponents <= max_exp and coefficients <= max_coeff."""
    for cs in product(range(max_coeff + 1), repeat=max_exp + 1):
        yield from_coeffs(list(cs))


W2 = omega_pow(Ord.from_int(2))


class TestComparison:
    def test_identity(self):
        assert ord_cmp(OMEGA, OMEGA) == 0

    def test_successor_exceeds_base(self):
        assert ord_cmp(cantor_add(OMEGA, ONE), OMEGA) == 1

    def test_w2_vs_w5_plus_3(self):
        rhs = cantor_add(cantor_mul(OMEGA, Ord.from_int(5)), Ord.from_int(3))
        assert ord_cmp(W2, rhs) == 1

    def test_total_order_on_small_ordinals(self):
        all_small = list(small_ords())
        for a in all_small:
            for b in all_small:
                c = ord_cmp(a, b)
                assert c == -ord_cmp(b, a)
                if c == 0:
                    assert a == b
                # Lexicographic coefficient comparison is the order below w^w.
                ca, cb = to_coeffs(a), to_coeffs(b)
                ca += [0] * (len(cb) - len(ca))
                cb += [0] * (len(ca) - len(cb))
                want = (ca[::-1] > cb[::-1]) - (ca[::-1] < cb[::-1])
                assert c == want


class TestCantorOps:
    def test_one_plus_w_absorbed(self):
        assert cantor_add(ONE, OMEGA) == OMEGA

    def test_w_plus_one(self):
        assert cantor_add(OMEGA, ONE) == Ord(((ONE, 1), (ZERO, 1)))

    def test_mixed_sum(self):
        a = cantor_add(W2, OMEGA)  # w^2 + w
        b = cantor_add(OMEGA, ONE)  # w + 1
        out = cantor_add(a, b)
        want = from_coeffs([1, 2, 1])  # w^2 + w*2 + 1
        assert out == want

    def test_two_times_w(self):
        assert cantor_mul(Ord.from_int(2), OMEGA) == OMEGA

    def test_w_times_two(self):
        assert cantor_mul(OMEGA, Ord.from_int(2)) == from_coeffs([0, 2])

    def test_w_plus_one_times_w(self):
        assert cantor_mul(cantor_add(OMEGA, ONE), OMEGA) == W2

    def test_add_against_oracle(self):
        for a in small_ords():
            for b in small_ords():
                got = cantor_add(a, b)
                want = from_coeffs(oracle_add(to_coeffs(a), to_coeffs(b)))
                assert got == want, f"{a} + {b}"

    def test_mul_against_oracle(self):
        for a in small_ords(2, 2):
            for b in small_ords(2, 2):
                got = cantor_mul(a, b)
                want = from_coeffs(oracle_mul(to_coeffs(a), to_coeffs(b)))
                assert got == want, f"{a} * {b}"

    def test_add_associative_not_commutative(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (random_ord(rng) for _ in range(3))
            assert cantor_add(cantor_add(a, b), c) == cantor_add(a, cantor_add(b, c))
        assert cantor_add(ONE, OMEGA) != cantor_add(OMEGA, ONE)


class TestNaturalOps:
    def test_hessenberg_merge(self):
        assert natural_add(cantor_add(OMEGA, ONE), OMEGA) == from_coeffs([1, 2])

    def test_zero_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            b = random_ord(rng)
            assert natural_add(ZERO, b) == b
            assert natural_mul(ONE, b) == b

    def test_one_plus_w_natural(self):
        assert natural_add(ONE, OMEGA) == cantor_add(OMEGA, ONE)

    def test_w_plus_one_squared(self):
        w1 = cantor_add(OMEGA, ONE)
        assert natural_mul(w1, w1) == from_coeffs([1, 2, 1])

    def test_laws_on_random_samples(self, rng):
        for _ in range(400):
            a, b, c = (random_ord(rng) for _ in range(3))
            assert natural_add(a, b) == natural_add(b, a)
            assert natural_mul(a, b) == natural_mul(b, a)
            assert natural_add(natural_add(a, b), c) == natural_add(a, natural_add(b, c))
            assert natural_mul(natural_mul(a, b), c) == natural_mul(a, natural_mul(b, c))
            lhs = natural_mul(a, natural_add(b, c))
            rhs = natural_add(natural_mul(a, b), natural_mul(a, c))
            assert lhs == rhs

    def test_monotonicity(self, rng):
        for _ in range(200):
            a, b, c = (random_ord(rng) for _ in range(3))
            if ord_cmp(a, b) >= 0:
                a, b = b, a
            if a == b:
                continue
            assert ord_cmp(natural_add(a, c), natural_add(b, c)) == -1
            if not c.is_zero():
                assert ord_cmp(natural_mul(a, c), natural_mul(b, c)) == -1

    def test_fold_equivalence(self, rng):
        # Folding normal-form terms with either sum gives the same ordinal.
        for _ in range(250):
            o = random_ord(rng)
            monomials = [omega_pow(e, c) for e, c in o]
            assert fold_cantor(monomials) == fold_natural(monomials) == o

    def test_agreement_with_polynomial_oracle(self):
        # Below w^w the natural operations are plain polynomial arithmetic.
        for a in small_ords(2, 2):
            for b in small_ords(2, 2):
                ca, cb = to_coeffs(a), to_coeffs(b)
                size = len(ca) + len(cb) + 1
                add = [0] * size
                for i, c in enumerate(ca):
                    add[i] += c
                for i, c in enumerate(cb):
                    add[i] += c
                mul = [0] * size
                for i, c in enumerate(ca):
                    for j, d in enumerate(cb):
                        mul[i + j] += c * d
                assert natural_add(a, b) == from_coeffs(add)
                assert natural_mul(a, b) == from_coeffs(mul)


class TestExponentiation:
    def test_two_to_the_w(self):
        assert ord_exp(Ord.from_int(2), OMEGA) == OMEGA

    def test_w_squared(self):
        assert ord_exp(OMEGA, Ord.from_int(2)) == W2

    def test_w_to_w_plus_one(self):
        e = cantor_add(OMEGA, ONE)
        assert ord_exp(OMEGA, e) == omega_pow(e)

    def test_monomial_rule_all_exponents(self, rng):
        for _ in range(100):
            g = random_ord(rng)
            assert ord_exp(OMEGA, g) == (omega_pow(g) if not g.is_zero() else ONE)

    def test_finite_exponents_match_iterated_product(self, rng):
        for _ in range(60):
            base = random_ord(rng, depth=2)
            if base.is_zero():
                continue
            acc = ONE
            for n in range(6):
                assert ord_exp(base, Ord.from_int(n)) == acc
                acc = cantor_mul(acc, base)

    def test_finite_base_closed_form(self):
        # n^<w*q + r> = w^q * n^r, checked against the recursion laws.
        w1 = cantor_add(OMEGA, ONE)  # w + 1
        assert ord_exp(Ord.from_int(2), w1) == from_coeffs([0, 2])
        assert ord_exp(Ord.from_int(3), cantor_add(cantor_mul(OMEGA, Ord.from_int(2)), Ord.from_int(3))) == omega_pow(Ord.from_int(2), 27)
        assert ord_exp(Ord.from_int(2), W2) == omega_pow(OMEGA)
        assert ord_exp(Ord.from_int(2), omega_pow(OMEGA)) == omega_pow(omega_pow(OMEGA))

    def test_split_law_on_samples(self, rng):
        # base^<x + y> = base^<x> * base^<y> for finite exponents.
        for _ in range(60):
            base = random_ord(rng, depth=1)
            if ord_cmp(base, Ord.from_int(2)) < 0:
                continue
            x, y = rng.randint(0, 4), rng.randint(0, 4)
            lhs = ord_exp(base, Ord.from_int(x + y))
            rhs = cantor_mul(ord_exp(base, Ord.from_int(x)), ord_exp(base, Ord.from_int(y)))
            assert lhs == rhs

    def test_unsupported_pair_raises(self):
        with pytest.raises(UnsupportedPower):
            ord_exp(cantor_add(OMEGA, ONE), OMEGA)

    def test_squares_only_while_bits_remain(self, monkeypatch):
        base = cantor_add(OMEGA, Ord.from_int(2))
        want = ONE
        for _ in range(16):
            want = cantor_mul(want, base)
        calls = []
        monkeypatch.setattr(ordinals, "cantor_mul", lambda a, b: calls.append(1) or cantor_mul(a, b))
        assert ord_exp(base, Ord.from_int(16)) == want
        assert len(calls) == 5

    def test_finite_base_budget(self):
        half = MAX_POWER_BITS // 2
        assert ord_exp(Ord.from_int(2), Ord.from_int(half)) == Ord.from_int(2**half)
        assert ord_exp(Ord.from_int(1), Ord.from_int(10**9)) == ONE
        for exp in (Ord.from_int(half + 1), cantor_add(OMEGA, Ord.from_int(half + 1))):
            with pytest.raises(BudgetExceeded, match="MAX_POWER_BITS"):
                ord_exp(Ord.from_int(2), exp)


class TestIndecomposable:
    def brute_force(self, t: Ord) -> bool:
        below = [o for o in small_ords(2, 2) if ord_cmp(o, t) < 0]
        return all(
            ord_cmp(natural_add(a, natural_mul(b, c)), t) < 0
            for a in below
            for b in below
            for c in below
        )

    def test_paper_values(self):
        assert is_indecomposable(OMEGA)
        assert not is_indecomposable(W2)
        assert is_indecomposable(omega_pow(OMEGA))
        assert is_indecomposable(ONE)

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            is_indecomposable(ZERO)

    def test_structural_criterion_matches_brute_force(self):
        for t in small_ords(2, 2):
            if t.is_zero():
                continue
            assert is_indecomposable(t) == self.brute_force(t), format_ordinal(t)


class TestFormat:
    def test_canonical_examples(self):
        assert format_ordinal(Ord.from_int(5)) == "5"
        assert format_ordinal(cantor_mul(OMEGA, Ord.from_int(3))) == "w*3"
        assert format_ordinal(omega_pow(OMEGA)) == "w^w"
        big = fold_cantor([
            omega_pow(cantor_add(OMEGA, ONE), 2),
            OMEGA,
            ONE,
        ])
        assert format_ordinal(big) == "w^(w + 1)*2 + w + 1"


# -- reference: the recursive order, independent of tuple comparison ---------


def ref_cmp(a: Ord, b: Ord) -> int:
    """Total order: -1, 0, or 1.  Lexicographic on (exponent, coefficient)."""
    for (ea, ca), (eb, cb) in zip(a, b):
        c = ref_cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a) != len(b):
        return -1 if len(a) < len(b) else 1
    return 0


def ref_key(o: Ord) -> tuple:
    return tuple((ref_key(exp), coeff) for exp, coeff in o)


def ref_mono_key(m: RefMonomial) -> tuple:
    ok = tuple((ref_key(e), k) for e, k in m.omega)
    return (ok, m.x2w, m.beth1, m.beta, m.alpha)


def rebuilt(o: Ord) -> Ord:
    """A structurally equal copy that shares no Ord object with o."""
    return Ord(tuple((rebuilt(e), c) for e, c in o))


class TestStoredKeys:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 3), st.integers(0, 3))
    def test_match_the_recursive_order(self, seed, da, db):
        rng = random.Random(seed)
        a, b = random_ord(rng, depth=da), random_ord(rng, depth=db)
        for x, y in ((a, b), (b, a), (a, rebuilt(a)), (natural_add(a, b), natural_add(b, a))):
            want = ref_cmp(x, y)
            assert ord_cmp(x, y) == want
            assert (x == y) == (want == 0)
            assert (x < y, x <= y, x > y, x >= y) == (want < 0, want <= 0, want > 0, want >= 0)
            assert x == ref_key(x) and hash(x) == hash(ref_key(x))
            if want == 0:
                assert hash(x) == hash(y)
        r = RefMonomial(F(rng.randint(0, 3), rng.randint(1, 3)), rng.randint(0, 2), rng.randint(0, 2),
                        rng.randint(0, 2), tuple(t for t in a if not t[0].is_zero()))
        m = to_field(r)
        assert tuple(m) == r.key() == ref_mono_key(r)
        apart = to_field(RefMonomial(r.alpha, r.beta, r.beth1, r.x2w, rebuilt(Ord(r.omega))))
        assert m == apart and hash(m) == hash(apart)

    def test_sorting_matches_the_recursive_order(self, rng):
        ords = [random_ord(rng, depth=rng.randint(0, 3)) for _ in range(300)]
        assert sorted(ords) == sorted(ords, key=cmp_to_key(ref_cmp))


# -- the unchecked internal constructor ---------------------------------------


def checked(o: Ord) -> Ord:
    """o rebuilt through the checked public constructor at every level."""
    return Ord(tuple((checked(e), c) for e, c in o))


class TestUncheckedResults:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 3), st.integers(0, 3))
    def test_results_pass_the_checked_constructor(self, seed, da, db):
        rng = random.Random(seed)
        a, b = random_ord(rng, depth=da), random_ord(rng, depth=db)
        n = rng.randint(0, 5)
        for r in (natural_add(a, b), natural_mul(a, b), cantor_add(a, b), cantor_mul(a, b),
                  omega_pow(a, n + 1), Ord.from_int(n), Ord.from_int(n + 62), ordinals._ord(tuple(a))):
            c = checked(r)
            assert ref_key(c) == ref_key(r) and c == r and hash(c) == hash(r)


# -- the ordinal is its own order key ------------------------------------------


class TestTupleOrdinals:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 3))
    def test_equal_to_the_reference_key_and_hashed_alike(self, seed, depth):
        x = random_ord(random.Random(seed), depth=depth)
        assert x == ref_key(x) and hash(x) == hash(ref_key(x))
        assert type(x) is Ord and all(type(e) is Ord for e, _ in x)

    def test_pickle_and_copy_round_trips(self, rng):
        for _ in range(50):
            a = random_ord(rng)
            g = Ord(t for t in a if not t[0].is_zero())
            m = Monomial(F(rng.randint(0, 3), rng.randint(1, 3)), 1, 0, 2, g)
            for x in (a, m):
                for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
                    assert y == x and hash(y) == hash(x) and type(y) is type(x)
                    assert str(y) == str(x)
            if g:
                assert type(pickle.loads(pickle.dumps(m)).omega[0][0]) is Ord

    def test_mixed_operands_raise(self):
        # A tuple-backed Ord must not fall back to tuple repetition or concatenation.
        for fn in (lambda: 2 * OMEGA, lambda: OMEGA * 2, lambda: () + OMEGA, lambda: OMEGA + (),
                   lambda: OMEGA * (), lambda: OMEGA + 2, lambda: sum([OMEGA])):
            with pytest.raises(TypeError):
                fn()
        assert OMEGA + ONE == natural_add(OMEGA, ONE) and OMEGA * OMEGA == natural_mul(OMEGA, OMEGA)

    def test_constructor_checks(self):
        with pytest.raises(ValueError, match="strictly decrease"):
            Ord(((ONE, 1), (OMEGA, 1)))
        with pytest.raises(ValueError, match="strictly decrease"):
            Ord(((ONE, 1), (ONE, 2)))
        with pytest.raises(ValueError, match="must be >= 1"):
            Ord(((ONE, 0),))
        with pytest.raises(TypeError, match="not an Ord"):
            Ord((((), 1),))
        assert Ord([[OMEGA, 2], [ZERO, 1]]) == Ord(((OMEGA, 2), (ZERO, 1)))
        assert not ZERO and ZERO.is_zero() and Ord() == ZERO
