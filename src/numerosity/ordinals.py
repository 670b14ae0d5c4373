"""Exact arithmetic on ordinals below epsilon_0 in hereditary Cantor normal form.

An ordinal is a descending sum of terms w^e * c with ordinal exponents e and
positive integer coefficients c; exponents recursively carry the same shape,
so every representable ordinal lies strictly below epsilon_0.  `Ord` is that
tuple of (exponent, coefficient) pairs itself, so Python's tuple order is the
ordinal order and equal ordinals hash alike.  Two arithmetics
live on this representation: the Cantor operations (left-absorbing sum,
left-distributing product) and the natural (Hessenberg) operations, which are
commutative and coefficient-wise/convolution-wise on the normal form.
"""

from __future__ import annotations

from functools import partial, reduce
from numbers import Rational
from typing import Callable, Iterable

# Bits allowed in an integer power, estimated before it is computed as the
# base's bit length times the exponent.  2^14000 has 4215 decimal digits, so
# every power under the budget prints under Python's default 4300-digit limit.
MAX_POWER_BITS = 14_000
# Most digits of a natural number read or printed: Python's default limit on
# converting between a decimal string and an int (sys.int_info.default_max_str_digits).
MAX_LITERAL_DIGITS = 4_300


class UnsupportedPower(ValueError):
    """Base/exponent pair outside the implemented exponentiation cases."""


class BudgetExceeded(ValueError):
    """A result would exceed a named size budget."""


def check_power_bits(base: Rational, n: int) -> None:
    """Raise BudgetExceeded before base**n is computed if it may need over MAX_POWER_BITS bits.

    For a rational base the larger of numerator and denominator counts; 0, 1
    and -1 have no budget, since their powers stay put.
    """
    bits = max(abs(base.numerator), base.denominator).bit_length()
    if bits > 1 and bits * abs(n) > MAX_POWER_BITS:
        raise BudgetExceeded(f"integer power over the budget MAX_POWER_BITS = {MAX_POWER_BITS} bits")


class ZeroArgument(ValueError):
    """Raised where zero is excluded (e.g. indecomposability of 0)."""


class Ord(tuple):
    """An ordinal < epsilon_0: a tuple of (exponent, coefficient) terms.

    Terms are sorted by strictly decreasing exponent; coefficients are >= 1;
    the empty tuple is 0; a natural number n is the single term (0, n).  An
    exponent is itself an Ord, so native tuple order, equality and hash are the
    ordinal's: comparing two ordinals compares their CNF terms lexicographically.
    `Ord(...)` checks the shape; the operations below build through the unchecked `_ord`.
    """

    __slots__ = ()

    def __new__(cls, terms: Iterable[tuple["Ord", int]] = ()) -> "Ord":
        pairs = []
        for exp, coeff in terms:
            if not isinstance(exp, Ord):
                raise TypeError(f"exponent {exp!r} is not an Ord")
            if coeff < 1:
                raise ValueError(f"coefficient {coeff} must be >= 1")
            if pairs and exp >= pairs[-1][0]:
                raise ValueError("exponents must strictly decrease")
            pairs.append((exp, coeff))
        return tuple.__new__(cls, pairs)

    # -- structure helpers ------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Ord":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        return ZERO if n == 0 else _ord(((ZERO, n),))

    def is_zero(self) -> bool:
        return not self

    def is_finite(self) -> bool:
        return not self or (len(self) == 1 and not self[0][0])

    def as_int(self) -> int:
        if not self:
            return 0
        if not self.is_finite():
            raise ValueError(f"{self} is infinite")
        return self[0][1]

    def finite_part(self) -> int:
        """Coefficient of the w^0 term (0 if absent)."""
        if self and not self[-1][0]:
            return self[-1][1]
        return 0

    # -- arithmetic dunders use the natural operations; a tuple operand is an
    # error, not a tuple concatenation or repetition ------------------------

    def __add__(self, other: "Ord") -> "Ord":
        return natural_add(self, other) if isinstance(other, Ord) else _mixed("+", self, other)

    def __mul__(self, other: "Ord") -> "Ord":
        return natural_mul(self, other) if isinstance(other, Ord) else _mixed("*", self, other)

    def __radd__(self, other: object) -> "Ord":
        return _mixed("+", other, self)

    def __rmul__(self, other: object) -> "Ord":
        return _mixed("*", other, self)

    def __repr__(self) -> str:
        return f"Ord[{format_ordinal(self)}]"

    def __str__(self) -> str:
        return format_ordinal(self)


def _mixed(op: str, a: object, b: object):
    raise TypeError(f"unsupported operand type(s) for {op}: '{type(a).__name__}' and '{type(b).__name__}'")


# An Ord from terms with strictly decreasing exponents and coefficients >= 1, unchecked.
_ord = partial(tuple.__new__, Ord)
ZERO = Ord()
ONE = Ord.from_int(1)
OMEGA = Ord(((ONE, 1),))


def omega_pow(exp: Ord, coeff: int = 1) -> Ord:
    """The monomial w^exp * coeff."""
    if coeff < 1:
        raise ValueError("coefficient must be >= 1")
    return _ord(((exp, coeff),))


def ord_cmp(a: Ord, b: Ord) -> int:
    """Total order: -1, 0, or 1.  Lexicographic on (exponent, coefficient)."""
    return -1 if a < b else int(a != b)


def cantor_add(a: Ord, b: Ord) -> Ord:
    """Cantor sum: a's terms below b's leading exponent are absorbed."""
    if not b:
        return a
    if not a:
        return b
    eb, cb = b[0]
    i = next((i for i, (e, _) in enumerate(a) if e <= eb), len(a))
    if i < len(a) and a[i][0] == eb:
        return _ord(a[:i] + ((eb, a[i][1] + cb),) + b[1:])
    return _ord((*a[:i], *b))


def cantor_mul(a: Ord, b: Ord) -> Ord:
    """Cantor product, distributing a over b's terms from the left."""
    if not (a and b):
        return ZERO
    out = ZERO
    ea = a[0][0]
    for exp, coeff in b:
        if not exp:
            # a * n multiplies only the leading coefficient of a.
            piece = _ord(((ea, a[0][1] * coeff),) + a[1:])
        else:
            piece = omega_pow(cantor_add(ea, exp), coeff)
        out = cantor_add(out, piece)
    return out


def natural_add(a: Ord, b: Ord) -> Ord:
    """Hessenberg sum: coefficient-wise merge over the union of exponents."""
    if not (a and b):
        return a or b
    coeffs = dict(a)
    for exp, coeff in b:
        coeffs[exp] = coeffs.get(exp, 0) + coeff
    return _ord(sorted(coeffs.items(), reverse=True))


def natural_mul(a: Ord, b: Ord) -> Ord:
    """Hessenberg product: convolution with natural sums of exponents, collected in one dict."""
    coeffs: dict[Ord, int] = {}
    for ea, ca in a:
        for eb, cb in b:
            e = natural_add(ea, eb)
            coeffs[e] = coeffs.get(e, 0) + ca * cb
    return _ord(sorted(coeffs.items(), reverse=True))


def _square_multiply(base, n: int, mul: Callable, one):
    """base to the power n >= 0 under the associative product mul, by repeated squaring."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def ord_exp(base: Ord, exp: Ord) -> Ord:
    """Ordinal exponentiation base^<exp> on the supported case matrix.

    Supported: base w with any exponent (the monomial rule), any base with
    finite exponent (iterated Cantor product), and finite base n >= 2 with
    infinite exponent (closed form via n^<w> = w).  Anything else raises
    UnsupportedPower.
    """
    if exp.is_zero():
        return ONE
    if base.is_zero():
        return ZERO
    if base == ONE:
        return ONE
    if base == OMEGA:
        return omega_pow(exp)
    if exp.is_finite():
        n = exp.as_int()
        if base.is_finite():
            check_power_bits(base.as_int(), n)
        return _square_multiply(base, n, cantor_mul, ONE)
    if base.is_finite():
        # n^<w^e * c + ...> collapses to a single monomial: each infinite
        # exponent term w^e*c contributes w^(w^e' * c) with e' = -1 + e,
        # and the finite remainder r contributes the coefficient n^r.
        n = base.as_int()
        shifted = []
        r = 0
        for e, c in exp:
            if e.is_zero():
                r = c
                continue
            if e.is_finite():
                e_shift = Ord.from_int(e.as_int() - 1)
            else:
                e_shift = e
            shifted.append((e_shift, c))
        check_power_bits(n, r)
        return omega_pow(Ord(tuple(shifted)), n**r)
    raise UnsupportedPower(
        f"base {format_ordinal(base)} with infinite exponent {format_ordinal(exp)}"
    )


def is_indecomposable(t: Ord) -> bool:
    """True iff a + b*c < t for all a, b, c < t (natural operations).

    Structurally: t = 1, or t = w^(w^d) for some d (single term, coefficient 1,
    whose exponent is itself a single term with coefficient 1).  The degenerate
    t = 1 is included.
    """
    if t.is_zero():
        raise ZeroArgument("0 is neither decomposable nor indecomposable")
    if t == ONE:
        return True
    if len(t) != 1 or t[0][1] != 1:
        return False
    e = t[0][0]
    return len(e) == 1 and e[0][1] == 1


def format_int(n: int) -> str:
    """str(n); past MAX_LITERAL_DIGITS digits, where str() fails, BudgetExceeded.
    Under 3.32 bits a digit (log2 10 = 3.3219...) the bit length alone clears n."""
    if n.bit_length() > 3.32 * MAX_LITERAL_DIGITS and abs(n) >= 10**MAX_LITERAL_DIGITS:
        raise BudgetExceeded(f"integer to print over the budget MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} digits")
    return str(n)


def format_ordinal(o: Ord) -> str:
    """Canonical text: terms `w^(E)*C` in decreasing exponent order.

    Exponent parentheses are dropped when the exponent prints as a single
    token (a natural number or the bare `w`).
    """
    if o.is_zero():
        return "0"
    parts = []
    for exp, coeff in o:
        if exp.is_zero():
            parts.append(format_int(coeff))
            continue
        if exp == ONE:
            head = "w"
        else:
            inner = format_ordinal(exp)
            simple = inner == "w" or inner.isdigit()
            head = f"w^{inner}" if simple else f"w^({inner})"
        parts.append(head if coeff == 1 else f"{head}*{format_int(coeff)}")
    return " + ".join(parts)


def fold_cantor(monomials: Iterable[Ord]) -> Ord:
    return reduce(cantor_add, monomials, ZERO)


def fold_natural(monomials: Iterable[Ord]) -> Ord:
    return reduce(natural_add, monomials, ZERO)
