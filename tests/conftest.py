"""Shared generators: random normal-form ordinals and field expressions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from numerosity import field
from numerosity.ordinals import Ord


def random_ord(rng: random.Random, depth: int = 3, max_terms: int = 4,
               max_coeff: int = 5) -> Ord:
    """Random hereditary normal form: depth <= 3, <= 4 terms, coeffs <= 5."""
    if depth == 0:
        return Ord.from_int(rng.randint(0, max_coeff))
    n_terms = rng.randint(0, max_terms)
    exps = []
    seen = set()
    for _ in range(n_terms):
        e = random_ord(rng, depth - 1, max_terms=2, max_coeff=3)
        if e not in seen:
            seen.add(e)
            exps.append(e)
    exps.sort(reverse=True)
    return Ord(tuple((e, rng.randint(1, max_coeff)) for e in exps))


def random_numexpr(rng: random.Random, size: int = 3) -> field.NumExpr:
    """Random signed combination of generator powers with exponents in -2..2."""
    atoms = [field.ALPHA, field.BETA, field.BETH1, field.X2W]
    out = field.from_rational(Fraction(rng.randint(-3, 3)))
    for _ in range(size):
        mono = field.from_rational(Fraction(rng.randint(1, 4), rng.randint(1, 4)))
        for _ in range(rng.randint(0, 2)):
            a = rng.choice(atoms)
            e = rng.randint(-2, 2)
            if e > 0:
                mono = field.nf_mul(mono, field.nf_pow(a, field.from_rational(e)))
            elif e < 0:
                mono = field.nf_div(mono, field.nf_pow(a, field.from_rational(-e)))
        if rng.random() < 0.5:
            mono = field.nf_neg(mono)
        out = field.nf_add(out, mono)
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
