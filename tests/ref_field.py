"""Reference: the frozen-dataclass monomial, kept from before monomials became
their own order keys.

`RefMonomial` holds its `w`-part as (Ord, k) pairs and builds its order key
and hash once, at construction; product, quotient and content are one
componentwise walk (`_componentwise` with `+`, `-` and `min`).  Tests compare
`numerosity.field`'s key-tuple monomials against it through `to_ref` and
`to_field`.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable

from numerosity import field
from numerosity.ordinals import Ord, ord_cmp


@dataclass(frozen=True, slots=True)
class RefMonomial:
    alpha: Fraction | int = 0
    beta: int = 0
    beth1: int = 0
    x2w: int = 0
    omega: tuple[tuple[Ord, int], ...] = ()
    _k: tuple = dataclasses.field(init=False, repr=False, compare=False)
    _h: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.alpha.__class__ is not int and self.alpha.denominator == 1:
            object.__setattr__(self, "alpha", self.alpha.numerator)
        key = (tuple(self.omega), self.x2w, self.beth1, self.beta, self.alpha)
        object.__setattr__(self, "_k", key)
        object.__setattr__(self, "_h", hash(key))

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, RefMonomial) and self._h == other._h
                                 and self._k == other._k)

    def __hash__(self) -> int:
        return self._h

    def key(self) -> tuple:
        return self._k


REF_UNIT = RefMonomial()


def _componentwise(a: RefMonomial, b: RefMonomial, op: Callable) -> RefMonomial:
    """Apply op to each pair of exponents; a generator absent from a side has exponent 0.

    The omega lists are merged in one walk by decreasing ordinal exponent.
    """
    omega = []
    ao, bo = a.omega, b.omega
    i = j = 0
    while i < len(ao) or j < len(bo):
        c = 1 if j == len(bo) else -1 if i == len(ao) else ord_cmp(ao[i][0], bo[j][0])
        e = ao[i][0] if c >= 0 else bo[j][0]
        k = op(ao[i][1] if c >= 0 else 0, bo[j][1] if c <= 0 else 0)
        i += c >= 0
        j += c <= 0
        if k:
            omega.append((e, k))
    return RefMonomial(op(a.alpha, b.alpha), op(a.beta, b.beta), op(a.beth1, b.beth1),
                       op(a.x2w, b.x2w), tuple(omega))


def ref_mono_mul(a: RefMonomial, b: RefMonomial) -> RefMonomial:
    return _componentwise(a, b, operator.add)


def ref_mono_div(a: RefMonomial, b: RefMonomial) -> RefMonomial:
    return _componentwise(a, b, operator.sub)


def ref_content(terms: Iterable[tuple[int, RefMonomial]]) -> RefMonomial:
    return reduce(lambda a, b: _componentwise(a, b, min), (m for _, m in terms))


def to_ref(m: field.Monomial) -> RefMonomial:
    return RefMonomial(m.alpha, m.beta, m.beth1, m.x2w, m.omega)


def to_field(r: RefMonomial) -> field.Monomial:
    return field.Monomial(alpha=r.alpha, beta=r.beta, beth1=r.beth1, x2w=r.x2w, omega=r.omega)


def ref_key(m: field.Monomial) -> tuple:
    """The reference order key of a field monomial."""
    return to_ref(m).key()
