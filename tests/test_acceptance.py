"""Acceptance suite: every criterion exact, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines on a green run; failures always surface them.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction as F

from numerosity import chains, field, labtree, ordinals, sets, surreal
from numerosity.cli import Session, eval_line
from numerosity.field import (
    ALPHA,
    BETA,
    ONE,
    UNKNOWN,
    X2W,
    AxiomTable,
    apply_bb,
    embed,
    from_rational,
    nf_add,
    nf_cmp,
    nf_div,
    nf_eq,
    nf_mul,
    nf_pow,
    nf_sub,
)
from numerosity.parser import parse_num
from conftest import random_ord, random_numexpr


def criterion(n: int, text: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n}: FAIL — {text}", flush=True)
                raise
            print(f"criterion {n}: PASS — {text}", flush=True)

        return wrapper

    return deco


def cli_num(text: str, session=None) -> field.NumExpr:
    rec = eval_line(f":num {text}", session or Session())
    assert rec["status"] == "exact", rec
    return parse_num(rec["value"])


def q(n, d=1):
    return from_rational(F(n, d))


@criterion(1, "congruence classes and roots with oracle agreement")
def test_criterion_1_basic_numerosities():
    for p in (2, 3, 5):
        for i in range(p):
            assert nf_eq(cli_num(f"mod({p},{i})"), nf_div(ALPHA, q(p)))
    for p in (2, 3):
        assert nf_eq(cli_num(f"pow({p})"), nf_pow(ALPHA, q(1, p)))
    probes = [sets.Mod(p, i) for p in (2, 3, 5) for i in range(p)]
    probes += [sets.Pow(2), sets.Pow(3)]
    for e in probes:
        cf = sets.counting_fn(e)
        for m in (2, 3):
            if m >= cf.m0:
                assert chains.cf_eval(cf, m) == sets.enumerate_on_chain(e, m)


@criterion(2, "rational sets: intervals, positives, the whole line, shifts")
def test_criterion_2_rational_sets():
    assert nf_eq(cli_num("Q(0,1]"), ALPHA)
    pairs = [(F(0), F(2)), (F(-1), F(1)), (F(1, 3), F(1, 2)),
             (F(-5, 2), F(-1, 2)), (F(1), F(4))]
    for p, qq in pairs:
        got = sets.num(sets.QInterval(p, qq))
        assert nf_eq(got, nf_mul(from_rational(qq - p), ALPHA))
    assert nf_eq(cli_num("Q+"), nf_pow(ALPHA, q(2)))
    assert nf_eq(cli_num("Q"), nf_add(nf_mul(q(2), nf_pow(ALPHA, q(2))), ONE))
    bounded = [
        sets.QInterval(F(0), F(1)),
        sets.QInterval(F(-1, 2), F(3, 2)),
        sets.Union_(sets.QInterval(F(0), F(1)), sets.QInterval(F(2), F(3))),
        sets.RInterval(F(0), F(1)),
        sets.Union_(sets.RInterval(F(-1), F(0)), sets.RInterval(F(1), F(2))),
    ]
    for e in bounded:
        assert nf_eq(sets.num(sets.Shift(F(7, 3), e)), sets.num(e))


@criterion(3, "real sets, exact Lebesgue measures, truncated superadditivity")
def test_criterion_3_real_sets_and_measures():
    for p, qq in [(F(0), F(1)), (F(1, 4), F(3, 4)), (F(-2), F(1)), (F(1, 3), F(2, 3))]:
        assert nf_eq(sets.num(sets.RInterval(p, qq)),
                     nf_mul(from_rational(qq - p), BETA))
    assert nf_eq(cli_num("R+"), nf_mul(ALPHA, BETA))
    assert nf_eq(cli_num("R"), nf_add(nf_mul(q(2), nf_mul(ALPHA, BETA)), ONE))

    unions = [
        ([(F(0), F(1))], F(1)),
        ([(F(1, 4), F(3, 4))], F(1, 2)),
        ([(F(0), F(1, 4)), (F(1, 2), F(3, 4))], F(1, 2)),
        ([(F(-1), F(-1, 2)), (F(0), F(1, 3)), (F(2), F(3))], F(11, 6)),
    ]
    for intervals, want in unions:
        expr = None
        for p, qq in intervals:
            piece = sets.RInterval(p, qq)
            expr = piece if expr is None else sets.Union_(expr, piece)
        assert sets.measure(expr, BETA).value == want

    box = sets.Prod(sets.RInterval(F(0), F(1)), sets.RInterval(F(0), F(1, 2)))
    assert sets.measure(box, nf_mul(BETA, BETA)).value == F(1, 2)

    whole = sets.measure(sets.RInterval(F(0), F(1)), BETA).value
    for n_max in range(21):
        total = sum(
            sets.measure(sets.RInterval(F(1, 2 ** (k + 1)), F(1, 2**k)), BETA).value
            for k in range(n_max + 1)
        )
        assert total == 1 - F(1, 2 ** (n_max + 1))
        assert whole >= total


@criterion(4, "ordinal suite: laws, folds, exponentials, the embedding")
def test_criterion_4_ordinals():
    rng = random.Random(404)
    for _ in range(1000):
        a, b, c = (random_ord(rng) for _ in range(3))
        assert ordinals.natural_add(a, b) == ordinals.natural_add(b, a)
        assert ordinals.natural_mul(a, b) == ordinals.natural_mul(b, a)
        assert ordinals.natural_add(ordinals.natural_add(a, b), c) == \
            ordinals.natural_add(a, ordinals.natural_add(b, c))
        assert ordinals.natural_mul(ordinals.natural_mul(a, b), c) == \
            ordinals.natural_mul(a, ordinals.natural_mul(b, c))
        assert ordinals.natural_mul(a, ordinals.natural_add(b, c)) == \
            ordinals.natural_add(ordinals.natural_mul(a, b), ordinals.natural_mul(a, c))

    assert ordinals.cantor_add(ordinals.ONE, ordinals.OMEGA) == ordinals.OMEGA
    assert ordinals.cantor_add(ordinals.OMEGA, ordinals.ONE) != ordinals.OMEGA

    for _ in range(200):
        o = random_ord(rng)
        monos = [ordinals.omega_pow(e, c) for e, c in o]
        assert ordinals.fold_cantor(monos) == ordinals.fold_natural(monos) == o

    assert ordinals.ord_exp(ordinals.Ord.from_int(2), ordinals.OMEGA) == ordinals.OMEGA
    acc = ordinals.ONE
    for n in range(6):
        assert ordinals.ord_exp(ordinals.OMEGA, ordinals.Ord.from_int(n)) == acc
        acc = ordinals.cantor_mul(acc, ordinals.OMEGA)

    for _ in range(500):
        a, b = random_ord(rng), random_ord(rng)
        assert nf_eq(embed(ordinals.natural_add(a, b)), nf_add(embed(a), embed(b)))
        assert nf_eq(embed(ordinals.natural_mul(a, b)), nf_mul(embed(a), embed(b)))

    for _ in range(100):
        g = random_ord(rng)
        lhs = embed(ordinals.ord_exp(ordinals.OMEGA, g))
        rhs = nf_pow(field.OMEGA_NF, embed(g))
        assert nf_eq(lhs, rhs)


@criterion(5, "power-set identities and the binary-expansion map")
def test_criterion_5_bb():
    s = Session()
    eval_line(":mode_bb on", s)
    rec = eval_line(":cmp num([0,1]) beth1 - X + 1", s)
    assert rec["value"] == "equal"
    rec = eval_line(":cmp beta beth1 - X", s)
    assert rec["value"] == "equal"
    table = AxiomTable(bb_mode=True)
    assert nf_eq(apply_bb(nf_sub(field.BETH1, X2W), table), BETA)

    assert sets.psi_value({0, 2}) == F(5, 8)
    rng = random.Random(55)
    for _ in range(100):
        subset = {rng.randint(0, 25) for _ in range(rng.randint(0, 10))}
        direct = F(0)
        for n in sorted(subset):
            direct += F(1, 2 ** (n + 1))
        assert sets.psi_value(subset) == direct
        assert 0 <= sets.psi_value(subset) <= 1


@criterion(6, "surreal fragment: order, bijection, simplicity, arithmetic")
def test_criterion_6_surreal():
    chain = ["-", "-+", "()", "+-", "+-+", "+", "++-"]
    xs = [surreal.parse_signs(c) for c in chain]
    for a, b in zip(xs, xs[1:]):
        assert surreal.se_cmp(a, b) == -1

    every = surreal.all_expansions(8)
    assert len(every) == 511
    values = {}
    for x in every:
        v = surreal.se_value(x)
        assert v not in values
        values[v] = x
        assert surreal.se_from_dyadic(v) == x
        left, right = surreal.options(x)
        rebuilt = surreal.simplest(
            [surreal.se_value(p) for p in left],
            [surreal.se_value(p) for p in right],
        )
        assert rebuilt == x

    rng = random.Random(606)
    pool = [x for x in every]
    for _ in range(500):
        x, y = rng.choice(pool), rng.choice(pool)
        if len(x) + len(y) > surreal.ADD_CAP:
            continue
        got = surreal.s_add(x, y)
        assert surreal.se_value(got) == surreal.se_value(x) + surreal.se_value(y)
    small = [x for x in every if len(x) <= 8]
    done = 0
    while done < 200:
        x, y = rng.choice(small), rng.choice(small)
        if len(x) + len(y) > surreal.MUL_CAP:
            continue
        got = surreal.s_mul(x, y)
        assert surreal.se_value(got) == surreal.se_value(x) * surreal.se_value(y)
        done += 1

    # Day-bounded enumeration: 1/2 is the unique earliest number in (0, 1).
    day4 = [(surreal.se_value(x), len(x)) for x in surreal.all_expansions(4)]
    inside = [(v, d) for v, d in day4 if F(0) < v < F(1)]
    best_day = min(d for _, d in inside)
    best = [v for v, d in inside if d == best_day]
    assert best == [F(1, 2)]
    assert surreal.simplest([F(0)], [F(1)]) == surreal.se_from_dyadic(F(1, 2))


@criterion(7, "label laboratory: axioms, verbatim labels, counterexamples")
def test_criterion_7_labtree():
    tree = labtree.standard_instance()
    assert validate_ok(labtree.validate_pivotal(tree))
    assert validate_ok(labtree.validate_labeltree(tree))

    assert labtree.label(tree, 3) == frozenset([3, labtree.EMPTY])
    s1, s2 = frozenset([1]), frozenset([2])
    want = frozenset([frozenset([1, 2]), s1, s2, 1, 2, labtree.EMPTY])
    assert labtree.label(tree, frozenset([1, 2])) == want

    pairs = labtree.generate_set_pairs(tree, 50, seed=777)
    assert len(pairs) >= 50
    rep = labtree.check_counting_axioms(tree, pairs)
    assert rep.ok, rep.violations

    for builder, rule in [
        (labtree.counterexample_noninjective, "successor-injective"),
        (labtree.counterexample_unreachable, "successor-reach"),
        (labtree.counterexample_missing_membership, "membership-order"),
    ]:
        bad = labtree.validate_pivotal(builder())
        assert not bad.ok
        assert {v["rule"] for v in bad.violations} == {rule}


def validate_ok(rep) -> bool:
    assert rep.ok, rep.violations
    return True


CMP_BATTERY = [
    ("alpha", "beta"),
    ("alpha^2", "alpha*beta"),
    ("2*alpha^2 + 1", "2*alpha^2"),
    ("X", "alpha^(7/2)"),
    ("w^(w)", "w^(w*2)"),
    ("beta + 1", "beta"),
    ("alpha*beta", "beta"),
    ("num(mod(4,0))", "num(mod(2,0))"),
    ("num(Q(0,1])", "num(Q(0,2])"),
    ("1/alpha", "1/2"),
    ("X*beta", "beta"),
    ("alpha^(1/2)", "alpha"),
]


@criterion(8, "partial comparison honesty and order-assertion upgrades")
def test_criterion_8_partiality():
    s = Session()
    rec = eval_line(":cmp beta X", s)
    assert rec["status"] == "unknown"
    assert rec["value"] == "unknown (beta vs 2^w undeclared)"
    rec = eval_line(":cmp alpha^2 beta", s)
    assert rec["status"] == "unknown"
    assert rec["value"] == "unknown (alpha^2 vs beta undeclared)"

    rng = random.Random(808)
    battery = [(parse_num(a), parse_num(b)) for a, b in CMP_BATTERY]
    battery += [(random_numexpr(rng), random_numexpr(rng)) for _ in range(200)]
    before = [nf_cmp(a, b, s.table).kind for a, b in battery]

    rec = eval_line(":assert_order alpha^k < beta", s)
    assert rec["value"] == "ok"
    rec = eval_line(":cmp alpha^2 beta", s)
    assert rec["value"] == "less"

    after = [nf_cmp(a, b, s.table).kind for a, b in battery]
    for b4, a4 in zip(before, after):
        if b4 != UNKNOWN:
            assert a4 == b4
    # The documented unknown that stays unknown:
    assert eval_line(":cmp beta X", s)["status"] == "unknown"
