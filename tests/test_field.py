"""Field laws, partial comparison, standard part, and the ordinal embedding."""

from __future__ import annotations

import copy
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from numerosity import field
from numerosity import ordinals as o
from numerosity.field import (
    ALPHA,
    BETA,
    BETH1,
    EQUAL,
    GREATER,
    LESS,
    ONE,
    UNKNOWN,
    X2W,
    ZERO,
    AxiomTable,
    DivisionByZero,
    InconsistentOrder,
    Monomial,
    NonPositiveGamma,
    UnsupportedPowerPair,
    apply_bb,
    embed,
    from_rational,
    gamma_measure,
    nf_add,
    nf_cmp,
    nf_div,
    nf_eq,
    nf_mul,
    nf_neg,
    nf_pow,
    nf_sub,
    omega_power,
    standard_part,
    unembed,
)
from conftest import random_numexpr, random_ord
from ref_field import ref_content, ref_key, ref_mono_div, ref_mono_mul, to_field, to_ref


def q(n, d=1):
    return from_rational(F(n, d))


ALPHA2 = nf_mul(ALPHA, ALPHA)
DOM_TABLE = AxiomTable().with_alpha_dominated_by(Monomial(beta=1))


# -- ordinal and monomial strategies ------------------------------------------


@st.composite
def ords(draw, depth: int = 3):
    """Cantor normal forms nested at most `depth` deep, with <= 3 terms and coefficients <= 3."""
    if depth == 0:
        return o.Ord.from_int(draw(st.integers(0, 3)))
    ordered = sorted(set(draw(st.lists(ords(depth - 1), max_size=3))), reverse=True)
    return o.Ord(tuple((e, draw(st.integers(1, 3))) for e in ordered))


def _limit(g: o.Ord) -> o.Ord:
    """g without its finite part."""
    return o.Ord(t for t in g if not t[0].is_zero())


limits = ords().map(_limit)


@st.composite
def monomials(draw, signed: bool = True):
    """Monomials whose w-vector has one entry per CNF term of a random exponent."""
    k = st.integers(-3 if signed else 0, 3)
    omega = tuple((e, draw(k.filter(bool))) for e, _ in draw(limits))
    return Monomial(F(draw(k), draw(st.integers(1, 3))), draw(k), draw(k), draw(k), omega)


# -- expression strategy -----------------------------------------------------

_atoms = st.sampled_from([ALPHA, BETA, BETH1, X2W, ONE, q(2), q(1, 2), q(-3)])


@st.composite
def exprs(draw, max_ops: int = 4):
    out = draw(_atoms)
    for _ in range(draw(st.integers(0, max_ops))):
        other = draw(_atoms)
        op = draw(st.sampled_from(["add", "sub", "mul", "pow2", "inv"]))
        if op == "add":
            out = nf_add(out, other)
        elif op == "sub":
            out = nf_sub(out, other)
        elif op == "mul":
            out = nf_mul(out, other)
        elif op == "pow2":
            out = nf_pow(out, q(2))
        elif op == "inv" and not other.is_zero():
            out = nf_div(out, other)
    return out


class TestFieldLaws:
    @settings(max_examples=120, deadline=None)
    @given(exprs(), exprs(), exprs())
    def test_ring_laws(self, a, b, c):
        assert nf_eq(nf_add(a, b), nf_add(b, a))
        assert nf_eq(nf_mul(a, b), nf_mul(b, a))
        assert nf_eq(nf_add(nf_add(a, b), c), nf_add(a, nf_add(b, c)))
        assert nf_eq(nf_mul(nf_mul(a, b), c), nf_mul(a, nf_mul(b, c)))
        assert nf_eq(nf_mul(a, nf_add(b, c)), nf_add(nf_mul(a, b), nf_mul(a, c)))

    @settings(max_examples=120, deadline=None)
    @given(exprs())
    def test_identities_and_inverses(self, a):
        assert nf_eq(nf_add(a, ZERO), a)
        assert nf_eq(nf_mul(a, ONE), a)
        assert nf_add(a, nf_neg(a)).is_zero()
        if not a.is_zero():
            assert nf_eq(nf_mul(a, nf_div(ONE, a)), ONE)

    def test_half_plus_half(self):
        half = nf_div(ALPHA, q(2))
        assert nf_eq(nf_add(half, half), ALPHA)

    def test_difference_of_squares(self):
        lhs = nf_mul(nf_add(ALPHA, ONE), nf_sub(ALPHA, ONE))
        assert nf_eq(lhs, nf_sub(ALPHA2, ONE))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            nf_div(ONE, ZERO)


class TestPow:
    def test_integer_exponents(self):
        assert nf_eq(nf_pow(nf_add(ALPHA, BETA), q(0)), ONE)
        assert nf_eq(nf_pow(ALPHA, q(3)), nf_mul(ALPHA2, ALPHA))

    def test_alpha_roots(self):
        r = nf_pow(ALPHA, q(1, 2))
        assert nf_eq(nf_mul(r, r), ALPHA)
        assert nf_eq(nf_pow(nf_pow(ALPHA, q(1, 3)), q(3)), ALPHA)

    def test_two_to_omega(self):
        assert nf_eq(nf_pow(q(2), field.OMEGA_NF), X2W)
        assert nf_eq(nf_pow(q(4), field.OMEGA_NF), nf_mul(X2W, X2W))

    def test_two_to_alpha(self):
        assert nf_eq(nf_pow(q(2), ALPHA), nf_div(X2W, q(2)))

    def test_unsupported(self):
        with pytest.raises(UnsupportedPowerPair):
            nf_pow(BETA, q(1, 2))
        with pytest.raises(UnsupportedPowerPair):
            nf_pow(q(3), field.OMEGA_NF)


class TestComparison:
    def test_trivial(self):
        assert nf_cmp(ALPHA, ALPHA).kind == EQUAL
        big = nf_add(nf_mul(q(2), ALPHA2), ONE)
        assert nf_cmp(big, nf_mul(q(2), ALPHA2)).kind == GREATER

    def test_alpha_below_beta(self):
        assert nf_cmp(ALPHA, BETA).kind == LESS
        assert nf_cmp(ALPHA2, nf_mul(ALPHA, BETA)).kind == LESS

    def test_documented_unknowns(self):
        c = nf_cmp(BETA, X2W)
        assert c.kind == UNKNOWN and "beta vs 2^w" in c.reason
        c = nf_cmp(ALPHA2, BETA)
        assert c.kind == UNKNOWN and "alpha^2 vs beta" in c.reason
        assert nf_cmp(BETH1, nf_mul(ALPHA, BETA)).kind == UNKNOWN

    def test_x_dominates_alpha_powers(self):
        assert nf_cmp(X2W, nf_pow(ALPHA, q(100))).kind == GREATER
        assert nf_cmp(omega_power(o.OMEGA), nf_pow(ALPHA, q(50))).kind == GREATER

    def test_omega_powers_by_exponent(self):
        w_w = omega_power(o.OMEGA)
        w_w1 = omega_power(o.cantor_add(o.OMEGA, o.ONE))
        assert nf_cmp(w_w, w_w1).kind == LESS

    def test_declared_order_upgrades(self):
        assert nf_cmp(ALPHA2, BETA, DOM_TABLE).kind == LESS
        assert nf_cmp(nf_pow(ALPHA, q(7)), BETA, DOM_TABLE).kind == LESS

    def test_declared_inconsistency_rejected(self):
        with pytest.raises(InconsistentOrder):
            AxiomTable().with_order(Monomial(beta=1), Monomial(alpha=F(1)))

    def test_reversal_consistency(self, rng):
        for _ in range(150):
            a, b = random_numexpr(rng), random_numexpr(rng)
            ab, ba = nf_cmp(a, b), nf_cmp(b, a)
            flip = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL, UNKNOWN: UNKNOWN}
            assert ba.kind == flip[ab.kind]

    def test_additive_consistency(self, rng):
        for _ in range(150):
            a, b, c = (random_numexpr(rng) for _ in range(3))
            first = nf_cmp(a, b)
            if first.kind in (LESS, GREATER, EQUAL):
                shifted = nf_cmp(nf_add(a, c), nf_add(b, c))
                assert shifted.kind == first.kind

    def test_multiplicative_consistency(self, rng):
        for _ in range(150):
            a, b = random_numexpr(rng), random_numexpr(rng)
            c = rng.choice([ALPHA, BETA, q(3), X2W, nf_mul(ALPHA, BETA)])
            first = nf_cmp(a, b)
            if first.kind not in (LESS, GREATER):
                continue
            scaled = nf_cmp(nf_mul(a, c), nf_mul(b, c))
            if scaled.kind in (LESS, GREATER):
                assert scaled.kind == first.kind


class TestStandardPart:
    def test_leading_quotient(self):
        rat = nf_div(nf_add(nf_mul(q(2), ALPHA2), ONE), ALPHA2)
        st_ = standard_part(rat)
        assert (st_.kind, st_.value) == (field.FINITE, F(2))

    def test_constant_and_infinitesimal(self):
        assert standard_part(q(5)).value == F(5)
        assert standard_part(nf_div(ONE, ALPHA)).value == F(0)

    def test_unbounded(self):
        assert standard_part(ALPHA).kind == field.PLUS_INF
        assert standard_part(nf_neg(ALPHA)).kind == field.MINUS_INF

    def test_unknown_ratio(self):
        assert standard_part(nf_div(ALPHA, BETA)).kind == UNKNOWN
        assert standard_part(nf_div(ALPHA, BETA), DOM_TABLE).value == F(0)

    def test_infinitesimal_perturbation(self, rng):
        for k in (1, 2, 5):
            eps = nf_div(ONE, nf_pow(ALPHA, q(k)))
            base = nf_div(nf_add(nf_mul(q(3), ALPHA), q(7)), ALPHA)
            assert standard_part(nf_add(base, eps)).value == F(3)
            assert standard_part(nf_sub(base, eps)).value == F(3)


class TestGammaMeasure:
    def test_half(self):
        assert gamma_measure(nf_div(BETA, q(2)), BETA).value == F(1, 2)

    def test_dominating_numerator(self):
        big = nf_add(nf_mul(q(2), nf_mul(ALPHA, BETA)), ONE)
        assert gamma_measure(big, BETA).kind == field.PLUS_INF

    def test_alpha_vs_beta_default_unknown(self):
        assert gamma_measure(ALPHA, BETA).kind == UNKNOWN
        assert gamma_measure(ALPHA, BETA, DOM_TABLE).value == F(0)

    def test_gamma_positivity_required(self):
        with pytest.raises(NonPositiveGamma):
            gamma_measure(ALPHA, nf_neg(BETA))
        with pytest.raises(NonPositiveGamma):
            gamma_measure(ALPHA, ZERO)

    def test_finitely_additive(self):
        a = nf_div(BETA, q(4))
        b = nf_div(BETA, q(2))
        lhs = gamma_measure(nf_add(a, b), BETA)
        assert lhs.value == gamma_measure(a, BETA).value + gamma_measure(b, BETA).value


class TestEmbed:
    def test_zero_and_retagging(self):
        assert embed(o.ZERO).is_zero()
        got = embed(o.cantor_add(o.cantor_mul(o.OMEGA, o.Ord.from_int(2)), o.ONE))
        # w*2 + 1 expands through w = alpha + 1.
        assert nf_eq(got, nf_add(nf_mul(q(2), ALPHA), q(3)))

    def test_homomorphism(self, rng):
        for _ in range(500):
            a, b = random_ord(rng), random_ord(rng)
            assert nf_eq(embed(o.natural_add(a, b)), nf_add(embed(a), embed(b)))
            assert nf_eq(embed(o.natural_mul(a, b)), nf_mul(embed(a), embed(b)))

    def test_order_embedding(self, rng):
        for _ in range(300):
            a, b = random_ord(rng), random_ord(rng)
            c = o.ord_cmp(a, b)
            got = nf_cmp(embed(a), embed(b))
            assert got.kind == {-1: LESS, 0: EQUAL, 1: GREATER}[c]

    def test_unembed_roundtrip(self, rng):
        for _ in range(300):
            g = random_ord(rng)
            assert unembed(embed(g)) == g
        assert unembed(BETA) is None
        assert unembed(nf_div(ALPHA, q(2))) is None

    def test_omega_power_via_pow(self, rng):
        for _ in range(120):
            g = random_ord(rng)
            want = embed(o.ord_exp(o.OMEGA, g))
            got = nf_pow(field.OMEGA_NF, embed(g))
            assert nf_eq(got, want)

    def test_cantor_power_below_natural_power(self, rng):
        # Iterated ordinal power is dominated by the field power.
        for _ in range(80):
            b = random_ord(rng, depth=1)
            if o.ord_cmp(b, o.ONE) <= 0:
                continue
            n = rng.randint(1, 4)
            lhs = embed(o.ord_exp(b, o.Ord.from_int(n)))
            rhs = nf_pow(embed(b), q(n))
            assert nf_cmp(lhs, rhs).kind in (LESS, EQUAL)
        # 2^<w> = w lands strictly below the field power 2^w = X.
        lhs = embed(o.ord_exp(o.Ord.from_int(2), o.OMEGA))
        rhs = nf_pow(q(2), embed(o.OMEGA))
        assert nf_cmp(lhs, rhs).kind == LESS


class TestMonomialVectors:
    @settings(max_examples=150, deadline=None)
    @given(monomials(), monomials())
    def test_quotient_undoes_product(self, a, b):
        assert field.mono_div(field.mono_mul(a, b), b) == a

    @settings(max_examples=150, deadline=None)
    @given(st.lists(monomials(signed=False), min_size=1, max_size=5))
    def test_content_is_componentwise_min(self, monos):
        content = field._content((F(1), m) for m in monos)
        divided = [field.mono_div(m, content) for m in monos]
        for m in divided:
            assert min(m.alpha, m.beta, m.beth1, m.x2w, *(k for _, k in m.omega)) >= 0
        assert field._content((F(1), m) for m in divided) == field.UNIT

    @settings(max_examples=150, deadline=None)
    @given(limits, limits)
    def test_omega_sign_matches_ordinal_order(self, g1, g2):
        ratio = field.mono_div(Monomial(omega=g1), Monomial(omega=g2))
        assert field._omega_sign(ratio) == o.ord_cmp(g1, g2)

    @settings(max_examples=60, deadline=None)
    @given(exprs(max_ops=2), ords(), ords(), ords())
    def test_division_by_omega_power(self, e, g, h1, h2):
        x = nf_add(nf_mul(e, omega_power(h1)), omega_power(h2))
        assert nf_eq(nf_mul(nf_div(x, omega_power(g)), omega_power(g)), x)


class TestKeyTupleMonomials:
    """The key-tuple monomials against the frozen-dataclass reference (tests/ref_field.py)."""

    @settings(max_examples=200, deadline=None)
    @given(monomials(), monomials())
    def test_product_and_quotient(self, a, b):
        ra, rb = to_ref(a), to_ref(b)
        for got, want in ((field.mono_mul(a, b), ref_mono_mul(ra, rb)),
                          (field.mono_div(a, b), ref_mono_div(ra, rb))):
            assert got == to_field(want) and to_ref(got) == want
            assert type(got.alpha) is type(want.alpha)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(monomials(), min_size=1, max_size=5))
    def test_content(self, monos):
        want = ref_content((1, to_ref(m)) for m in monos)
        assert to_ref(field._content((1, m) for m in monos)) == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(monomials(), max_size=8))
    def test_order_hash_and_equality(self, monos):
        monos += [to_field(to_ref(m)) for m in monos]  # equal copies, built apart
        assert sorted(monos) == sorted(monos, key=ref_key)
        for a in monos:
            assert tuple(a) == ref_key(a) and hash(a) == hash(to_ref(a))
            for b in monos:
                assert (a == b) == (to_ref(a) == to_ref(b))

    @settings(max_examples=50, deadline=None)
    @given(monomials())
    def test_copies_keep_the_value(self, m):
        assert pickle.loads(pickle.dumps(m)) == m == copy.copy(m)
        assert type(copy.deepcopy(m)) is Monomial


def _check_stored_terms(x: field.NumExpr) -> None:
    """Sorted, non-negative exponents, the unit monomial last, content cancelled;
    int coefficients with joint gcd 1 and a positive denominator lead; an
    integral alpha exponent stored as an int."""
    unit_poly = ((F(1), field.UNIT),)
    assert x.den[0][0] > 0
    assert math.gcd(*(c for c, _ in x.num + x.den)) == 1
    for terms in (x.num, x.den):
        keys = [ref_key(m) for _, m in terms]
        assert keys == sorted(set(keys), reverse=True)
        for i, (c, m) in enumerate(terms):
            assert type(c) is int and c != 0
            assert m.alpha.denominator != 1 or type(m.alpha) is int
            assert min(m.alpha, m.beta, m.beth1, m.x2w, *(k for _, k in m.omega)) >= 0
            assert m != field.UNIT or i == len(terms) - 1
        assert field._poly_mul(terms, unit_poly) is terms
        assert field._poly_mul(unit_poly, terms) == terms
    if x.num:
        assert field._content(x.num + x.den) == field.UNIT


class TestStoredTerms:
    def test_unit_sorts_last(self, rng):
        for _ in range(150):
            a, b = random_numexpr(rng), embed(random_ord(rng))
            for x in (a, b, nf_mul(a, b), nf_add(a, b), nf_mul(a, a), nf_mul(b, b)):
                _check_stored_terms(x)
            for n, d in ((a, b), (b, a), (a, a)):
                if not d.is_zero():
                    _check_stored_terms(nf_div(n, d))

    def test_unit_product_is_identity(self):
        t = nf_add(ALPHA, ONE).num
        assert field._poly_mul(t, ((F(1), field.UNIT),)) is t


# -- reference: the Fraction-coefficient arithmetic with a monic denominator ----
# Kept verbatim from before coefficients became ints; pairs (num, den) stand
# for the NumExpr.


def ref_sort_terms(d):
    items = [(c, m) for m, c in d.items() if c != 0]
    items.sort(key=lambda t: ref_key(t[1]), reverse=True)
    return tuple(items)


def ref_poly_add(a, b):
    d = {}
    for c, m in a + b:
        d[m] = d[m] + c if m in d else c
    return ref_sort_terms(d)


def ref_is_unit_poly(a):
    return len(a) == 1 and a[0][1] == field.UNIT and a[0][0] == 1


def ref_poly_mul(a, b):
    if ref_is_unit_poly(b):
        return a
    if ref_is_unit_poly(a):
        return b
    d = {}
    for ca, ma in a:
        for cb, mb in b:
            m = to_field(ref_mono_mul(to_ref(ma), to_ref(mb)))
            d[m] = d[m] + ca * cb if m in d else ca * cb
    return ref_sort_terms(d)


def ref_poly_scale(a, c):
    if c == 0:
        return ()
    return tuple((ca * c, ma) for ca, ma in a)


def ref_make(num, den):
    UNIT = field.UNIT
    if not den:
        raise DivisionByZero("denominator is zero")
    if not num:
        return ((), ((F(1), UNIT),))
    if num == den:
        return (((F(1), UNIT),), ((F(1), UNIT),))
    content = UNIT if UNIT in (num[-1][1], den[-1][1]) else to_field(ref_content(
        (c, to_ref(m)) for c, m in num + den))
    if content != UNIT:
        num = tuple((c, to_field(ref_mono_div(to_ref(m), to_ref(content)))) for c, m in num)
        den = tuple((c, to_field(ref_mono_div(to_ref(m), to_ref(content)))) for c, m in den)
    lead = den[0][0]
    if lead != 1:
        num = ref_poly_scale(num, 1 / lead)
        den = ref_poly_scale(den, 1 / lead)
    return (num, den)


def ref_add(a, b):
    return ref_make(ref_poly_add(ref_poly_mul(a[0], b[1]), ref_poly_mul(b[0], a[1])),
                    ref_poly_mul(a[1], b[1]))


def ref_mul(a, b):
    return ref_make(ref_poly_mul(a[0], b[0]), ref_poly_mul(a[1], b[1]))


def ref_div(a, b):
    return ref_make(ref_poly_mul(a[0], b[1]), ref_poly_mul(a[1], b[0]))


def ref_sub(a, b):
    return ref_add(a, ref_make(tuple((-c, m) for c, m in b[0]), b[1]))


def ref_cmp(a, b):
    num, den = ref_sub(a, b)
    if not num:
        return field.Comparison(EQUAL)
    sn, rn = field._poly_sign(num, field.DEFAULT_TABLE)
    if sn is None:
        return field.Comparison(UNKNOWN, rn)
    sd, rd = field._poly_sign(den, field.DEFAULT_TABLE)
    if sd is None or sd == 0:
        return field.Comparison(UNKNOWN, rd or "denominator sign undecided")
    return field.Comparison(GREATER if sn * sd > 0 else LESS)


def ref_format_poly(terms):
    if not terms:
        return "0"
    parts = []
    for i, (c, m) in enumerate(terms):
        mag = abs(c)
        if m == field.UNIT:
            body = str(mag)
        elif mag == 1:
            body = field.format_monomial(m)
        else:
            body = f"{mag}*{field.format_monomial(m)}"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def ref_format(x):
    num = ref_format_poly(x[0])
    if x[1] == ((F(1), field.UNIT),):
        return num
    den = ref_format_poly(x[1])
    lhs = f"({num})" if len(x[0]) > 1 else num
    rhs = f"({den})" if len(x[1]) > 1 else den
    return f"{lhs}/{rhs}"


def ref_json(x):
    return {
        "num": [[str(c), field.format_monomial(m)] for c, m in x[0]],
        "den": [[str(c), field.format_monomial(m)] for c, m in x[1]],
    }


def monic(x: field.NumExpr):
    """The reference form of x: every coefficient over the denominator's lead."""
    lead = x.den[0][0]
    return (tuple((F(c, lead), m) for c, m in x.num), tuple((F(c, lead), m) for c, m in x.den))


class TestIntegerCoefficients:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32))
    def test_matches_fraction_reference(self, seed):
        rng = random.Random(seed)
        xs = [random_numexpr(rng), random_numexpr(rng), embed(random_ord(rng)), embed(random_ord(rng))]
        for a in xs:
            for b in xs:
                ra, rb = monic(a), monic(b)
                got = [nf_add(a, b), nf_mul(a, b)]
                want = [ref_add(ra, rb), ref_mul(ra, rb)]
                if not b.is_zero():
                    got.append(nf_div(a, b))
                    want.append(ref_div(ra, rb))
                for g, w in zip(got, want):
                    _check_stored_terms(g)
                    assert monic(g) == w
                    assert field.numexpr_to_json(g) == ref_json(w)
                    assert field.format_numexpr(g) == ref_format(w)
                assert nf_cmp(a, b) == ref_cmp(ra, rb)

    def test_integral_alpha_exponent_is_int(self):
        m = Monomial(alpha=F(4, 2))
        assert type(m.alpha) is int and m == Monomial(alpha=2) and hash(m) == hash(Monomial(alpha=2))
        assert type(Monomial(alpha=F(1, 2)).alpha) is F
        root = nf_pow(ALPHA, q(1, 2))
        assert type(nf_mul(root, root).num[0][1].alpha) is int

    def test_constant_denominator_prints_over_its_lead(self):
        x = nf_div(nf_add(ALPHA, q(3)), q(6))
        assert (x.num, x.den) == (((1, Monomial(alpha=1)), (3, field.UNIT)), ((6, field.UNIT),))
        assert field.format_numexpr(x) == "1/6*alpha + 1/2"
        assert x.as_rational() is None and nf_div(q(3), q(6)).as_rational() == F(1, 2)


@st.composite
def shared_denominator_pairs(draw):
    """Two stored NumExprs whose denominators are constant multiples of one
    non-constant denominator with lead 1: each side's carries a factor 1..4.
    With the flag False, the second side's last coefficient is moved, so the
    denominators have the same monomials but are not proportional."""
    coeff = st.integers(-4, 4).filter(bool)

    def terms(size):
        return field._sort_terms({draw(monomials(signed=False)): draw(coeff) for _ in range(size)})

    den = terms(draw(st.integers(1, 3)))
    assume(den and den[0][1] != field.UNIT)
    den = ((1, den[0][1]),) + den[1:]
    # A unit term on one side or the other keeps the joint content trivial.
    unit = ((draw(coeff), field.UNIT),)
    if den[-1][1] != field.UNIT and draw(st.booleans()):
        den += unit
    proportional = len(den) == 1 or draw(st.booleans())
    pair = []
    for side in range(2):
        num = field._poly_add(terms(draw(st.integers(1, 3))), () if den[-1][1] == field.UNIT else unit)
        k = draw(st.integers(1, 4))
        scaled = tuple((c * k, m) for c, m in den)
        if side and not proportional:
            (c, m), shift = scaled[-1], draw(coeff)
            assume(c + shift)
            scaled = scaled[:-1] + ((c + shift, m),)
        assume(num and num != scaled)
        pair.append(field._make(num, scaled))
    assume(all([m for _, m in x.den] == [m for _, m in den] for x in pair))
    return pair, proportional


class TestSharedDenominatorSums:
    @settings(max_examples=80, deadline=None)
    @given(shared_denominator_pairs())
    def test_matches_cross_multiplied_reference(self, drawn):
        (a, b), proportional = drawn
        ra, rb = monic(a), monic(b)
        for got, want in ((nf_add(a, b), ref_add(ra, rb)), (nf_sub(a, b), ref_sub(ra, rb))):
            _check_stored_terms(got)
            (gn, gd), (wn, wd) = monic(got), want
            assert ref_poly_mul(gn, wd) == ref_poly_mul(wn, gd)
            if not proportional or got.is_zero() or got == ONE:
                continue
            # a.den's monomials, up to the one monomial content cancelled: not squared.
            assert len(got.den) == len(a.den)
            assert len({field.mono_div(m, n) for (_, m), (_, n) in zip(got.den, a.den)}) == 1


monomial_quotients = st.tuples(monomials(signed=False), monomials(signed=False),
                               st.integers(-9, 9).filter(bool), st.integers(-9, 9).filter(bool))


def _quotient(mn, md, cn, cd):
    """c_n*m_n / (c_d*m_d), stored and in the reference form."""
    x = field._make(((cn, mn),), ((cd, md),))
    return x, ref_make(((F(cn), mn),), ((F(cd), md),))


class TestSingleTermValues:
    """Monomial over monomial: `_make`, `_poly_mul` and `nf_pow` take these in one step."""

    @settings(max_examples=200, deadline=None)
    @given(monomial_quotients, monomial_quotients)
    def test_matches_fraction_reference(self, u, v):
        (x, rx), (y, ry) = _quotient(*u), _quotient(*v)
        got, want = [x, nf_mul(x, y), nf_div(x, y)], [rx, ref_mul(rx, ry), ref_div(rx, ry)]
        power = ((F(1), field.UNIT),), ((F(1), field.UNIT),)
        for n in range(10):
            got.append(nf_pow(x, q(n)))
            want.append(power)
            power = ref_mul(power, rx)
        for g, w in zip(got, want):
            _check_stored_terms(g)
            assert monic(g) == w


class TestPowerBudget:
    def test_squares_only_while_bits_remain(self, monkeypatch):
        base = nf_add(nf_add(ALPHA, BETA), ONE)
        want = ONE
        for _ in range(16):
            want = nf_mul(want, base)
        calls = []
        real = field.nf_mul
        monkeypatch.setattr(field, "nf_mul", lambda a, b: calls.append(1) or real(a, b))
        got = nf_pow(base, q(16))
        assert len(calls) == 5
        assert got == want

    def test_rational_constant_base(self):
        half = o.MAX_POWER_BITS // 2
        assert nf_pow(q(2), q(half)).as_rational() == 2 ** half
        assert nf_pow(q(1, 2), q(half)).as_rational() == F(1, 2 ** half)
        assert nf_pow(q(-1), q(10**9)).as_rational() == 1
        for base, exp in ((q(2), q(half + 1)), (q(1, 3), q(half + 1)),
                          (nf_mul(q(2), ALPHA), q(-half - 1)), (q(2), nf_mul(q(half + 1), ALPHA))):
            with pytest.raises(o.BudgetExceeded, match="MAX_POWER_BITS"):
                nf_pow(base, exp)

    @settings(max_examples=300, deadline=None)
    @given(monomials(signed=False), monomials(signed=False), st.integers(-9, 9).filter(bool),
           st.integers(1, 9), st.integers(0, 12))
    def test_monomial_over_monomial_matches_squaring(self, mn, md, cn, cd, n):
        base = field._make(((cn, mn),), ((cd, md),))
        assert nf_pow(base, q(n)) == o._square_multiply(base, n, nf_mul, ONE)


class TestOnePowerRoutine:
    @pytest.mark.parametrize("k", range(13))
    def test_finite_w_powers_and_bb_beth1_powers(self, k):
        w_k = bx_k = ONE
        for _ in range(k):
            w_k, bx_k = nf_mul(w_k, nf_add(ALPHA, ONE)), nf_mul(bx_k, nf_add(BETA, X2W))
        assert field.omega_power(o.Ord.from_int(k)) == w_k
        assert apply_bb(nf_pow(BETH1, q(k)), AxiomTable(bb_mode=True)) == bx_k

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**200), st.integers(1, 40))
    def test_int_root(self, r, k):
        assert field.int_root(r**k, k) == r
        if r > 1 and k > 1:
            assert field.int_root(r**k + 1, k) is None and field.int_root(r**k - 1, k) is None


class TestJsonEncoding:
    def test_shape(self):
        x = nf_div(nf_add(nf_mul(q(2), ALPHA2), ONE), nf_add(BETA, ONE))
        data = field.numexpr_to_json(x)
        assert data["num"] == [["2", "alpha^2"], ["1", "1"]]
        assert data["den"] == [["1", "beta"], ["1", "1"]]


class TestBbMode:
    def test_rewrite(self):
        t = AxiomTable(bb_mode=True)
        lhs = apply_bb(BETH1, t)
        assert nf_eq(lhs, nf_add(BETA, X2W))
        beta_id = apply_bb(nf_sub(BETH1, X2W), t)
        assert nf_eq(beta_id, BETA)

    def test_unit_interval_identity(self):
        t = AxiomTable(bb_mode=True)
        lhs = apply_bb(nf_add(nf_sub(BETH1, X2W), ONE), t)
        assert nf_eq(lhs, nf_add(BETA, ONE))

    def test_off_by_default(self):
        assert not nf_eq(apply_bb(BETH1, AxiomTable()), nf_add(BETA, X2W))


def ref_dominant_term(terms, table):
    """`field._dominant_term` before the one-term test, kept verbatim (renamed)."""
    for c, m in terms:
        if all(m2 == m or field._mono_dominates(m, m2, table) for _, m2 in terms):
            return c, m
    return None


# Declared alpha-dominators, and a declared `lt` against the monomial order:
# X sorts above beta.
DOMINANCE_TABLES = [AxiomTable(), DOM_TABLE, AxiomTable().with_alpha_dominated_by(Monomial(beth1=1)),
                    AxiomTable().with_order(Monomial(x2w=1), Monomial(beta=1)),
                    DOM_TABLE.with_order(Monomial(x2w=1), Monomial(beta=1))]


class TestDominantTerm:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(monomials(signed=False), min_size=1, max_size=6, unique=True),
           st.sampled_from(DOMINANCE_TABLES))
    def test_matches_the_scan_on_term_lists(self, monos, table):
        terms = tuple(((-1) ** i * (i + 1), m) for i, m in enumerate(sorted(monos, reverse=True)))
        assert field._dominant_term(terms, table) == ref_dominant_term(terms, table)

    @settings(max_examples=200, deadline=None)
    @given(exprs(), st.sampled_from(DOMINANCE_TABLES))
    def test_matches_the_scan_on_expressions(self, x, table):
        for terms in (x.num, x.den):
            assert field._dominant_term(terms, table) == ref_dominant_term(terms, table)
