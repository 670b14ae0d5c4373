"""Reference arithmetic that shares no code with the library under test.

Sign expansions are read and written by walking the surreal birth tree, and
ordinals in Cantor normal form are nested tuples with their own Cantor sum,
product and power.  The checker compares the calculator's decided answers
against these; it never imports `numerosity` itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

# ---------------------------------------------------------------------------
# Sign expansions <-> dyadic rationals
# ---------------------------------------------------------------------------


def _child(x: Fraction, lo: Optional[Fraction], hi: Optional[Fraction], up: bool):
    """One step down the birth tree from x inside (lo, hi)."""
    if up:
        lo = x
        x = x + 1 if hi is None else (x + hi) / 2
    else:
        hi = x
        x = x - 1 if lo is None else (x + lo) / 2
    return x, lo, hi


def signs_value(signs: str) -> Fraction:
    """Value of a sign string ("()" or "" is zero)."""
    x, lo, hi = Fraction(0), None, None
    for c in "" if signs == "()" else signs:
        if c not in "+-":
            raise ValueError(f"not a sign string: {signs!r}")
        x, lo, hi = _child(x, lo, hi, c == "+")
    return x


def value_signs(q: Fraction) -> str:
    """Sign string of a dyadic rational, "()" for zero."""
    q = Fraction(q)
    if q.denominator & (q.denominator - 1):
        raise ValueError(f"{q} is not dyadic")
    x, lo, hi, out = Fraction(0), None, None, []
    while x != q:
        up = q > x
        out.append("+" if up else "-")
        x, lo, hi = _child(x, lo, hi, up)
    return "".join(out) or "()"


def simplest_between(left: list[Fraction], right: list[Fraction]) -> str:
    """Earliest-born sign string strictly above `left` and below `right`."""
    lo = max(left) if left else None
    hi = min(right) if right else None
    x, blo, bhi, out = Fraction(0), None, None, []
    while (lo is not None and x <= lo) or (hi is not None and x >= hi):
        up = lo is not None and x <= lo
        out.append("+" if up else "-")
        x, blo, bhi = _child(x, blo, bhi, up)
    return "".join(out) or "()"


def format_dyadic(q: Fraction) -> str:
    """Calculator operand text for a dyadic: `p`, `p/q` or `p/2^k`."""
    if q.denominator == 1:
        return str(q.numerator)
    k = q.denominator.bit_length() - 1
    return f"{q.numerator}/2^{k}" if k > 3 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Ordinals below epsilon_0: a tuple of (exponent, coefficient), exponents
# strictly decreasing, () is zero.
# ---------------------------------------------------------------------------

Cnf = tuple

ZERO: Cnf = ()


def nat(n: int) -> Cnf:
    return ((ZERO, n),) if n else ZERO


ONE = nat(1)
OMEGA: Cnf = ((ONE, 1),)


def cmp(a: Cnf, b: Cnf) -> int:
    for (ea, ca), (eb, cb) in zip(a, b):
        c = cmp(ea, eb) or (ca > cb) - (ca < cb)
        if c:
            return c
    return (len(a) > len(b)) - (len(a) < len(b))


def is_finite(a: Cnf) -> bool:
    return not a or (len(a) == 1 and a[0][0] == ZERO)


def cantor_add(a: Cnf, b: Cnf) -> Cnf:
    if not b:
        return a
    lead, c0 = b[0]
    kept = tuple(t for t in a if cmp(t[0], lead) > 0)
    same = [c for e, c in a if cmp(e, lead) == 0]
    return kept + ((lead, c0 + sum(same)),) + b[1:]


def natural_add(a: Cnf, b: Cnf) -> Cnf:
    """Hessenberg sum: add coefficients of equal exponents."""
    coeffs = dict(a)
    for e, c in b:
        coeffs[e] = coeffs.get(e, 0) + c
    return tuple(sorted(coeffs.items(), key=lambda t: _SortKey(t[0]), reverse=True))


def natural_mul(a: Cnf, b: Cnf) -> Cnf:
    """Hessenberg product: every pair of terms, exponents added naturally."""
    out = ZERO
    for e1, c1 in a:
        for e2, c2 in b:
            out = natural_add(out, ((natural_add(e1, e2), c1 * c2),))
    return out


def cantor_mul(a: Cnf, b: Cnf) -> Cnf:
    """(sum of a's terms) * (sum of b's terms), distributing over b."""
    if not a or not b:
        return ZERO
    out = ZERO
    for e, c in b:
        if e == ZERO:
            piece = ((a[0][0], a[0][1] * c),) + a[1:]
        else:
            piece = ((cantor_add(a[0][0], e), c),)
        out = cantor_add(out, piece)
    return out


def ord_power(base: Cnf, exp: Cnf) -> Cnf:
    """base^exp for the cases the calculator supports."""
    if not exp:
        return ONE
    if base == OMEGA:
        return ((exp, 1),)
    if is_finite(exp):
        out = ONE
        for _ in range(exp[0][1]):
            out = cantor_mul(out, base)
        return out
    if is_finite(base) and base[0][1] >= 2:
        # n^(w^e) = w^(w^(-1+e)) for e >= 1, and n^(x+y) = n^x * n^y.
        n = base[0][1]
        out = ONE
        for e, c in exp:
            if e == ZERO:
                out = cantor_mul(out, nat(n**c))
                continue
            shifted = nat(e[0][1] - 1) if is_finite(e) else e
            for _ in range(c):
                out = cantor_mul(out, ((((shifted, 1),), 1),))
        return out
    raise ValueError("unsupported power")


def format_ord(a: Cnf) -> str:
    """The calculator's canonical ordinal text."""
    if not a:
        return "0"
    parts = []
    for e, c in a:
        if e == ZERO:
            parts.append(str(c))
            continue
        inner = format_ord(e)
        if e == ONE:
            head = "w"
        elif inner == "w" or inner.isdigit():
            head = f"w^{inner}"
        else:
            head = f"w^({inner})"
        parts.append(head if c == 1 else f"{head}*{c}")
    return " + ".join(parts)


def random_cnf(rng, depth: int = 3, max_terms: int = 4, max_coeff: int = 5) -> Cnf:
    """Random hereditary normal form of the given depth (exponents one shallower)."""
    if depth == 0:
        return nat(rng.randint(0, max_coeff))
    exps: list[Cnf] = []
    for _ in range(rng.randint(0, max_terms)):
        e = random_cnf(rng, depth - 1, max_terms=2, max_coeff=3)
        if all(cmp(e, x) for x in exps):
            exps.append(e)
    exps.sort(key=_SortKey, reverse=True)
    return tuple((e, rng.randint(1, max_coeff)) for e in exps)


class _SortKey:
    __slots__ = ("v",)

    def __init__(self, v: Cnf):
        self.v = v

    def __lt__(self, other: "_SortKey") -> bool:
        return cmp(self.v, other.v) < 0
