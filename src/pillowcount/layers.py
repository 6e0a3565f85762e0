"""Layer counting polynomials F_{m,n}.

A layer has m trivalent vertices (simple zeros), n univalent vertices
(simple poles), l = (m-n)/2 + 2 boundary faces carrying the cylinder widths,
and F_{m,n} is homogeneous of degree 2a with a = (m+n)/2 - 1. Three routes
compute the same polynomial: the closed form, the n = 0 base case, and the
step-up recurrence; specialized closed forms exist on the two lowest
diagonals. All routes must agree exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .polynomials import Polynomial, apply_D
from .rationals import binomial, compositions, factorial, multinomial

__all__ = [
    "MAX_LOCAL_TERMS",
    "LayerSignature",
    "f_closed",
    "f_kontsevich_base",
    "f_recurrence",
    "f_special_diagonal",
]


@dataclass(frozen=True)
class LayerSignature:
    """Counts of trivalent (m) and univalent (n) vertices of one layer."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError(f"negative vertex count in ({self.m},{self.n})")
        if (self.m, self.n) == (0, 0):
            raise ValueError("layer signature (0,0) is excluded")
        if (self.m - self.n) % 2 != 0:
            raise ValueError(f"({self.m},{self.n}) has odd m-n")
        if self.m - self.n < -2:
            raise ValueError(f"({self.m},{self.n}) touches no cylinder")

    @property
    def faces(self) -> int:
        """l = (m-n)/2 + 2, the number of boundary faces."""
        return (self.m - self.n) // 2 + 2

    @property
    def half_degree(self) -> int:
        """a = (m+n)/2 - 1; F_{m,n} is homogeneous of degree 2a."""
        return (self.m + self.n) // 2 - 1


# largest number of monomials a route may build: F_{20,0} has 167960 and
# takes seconds, and the count grows about fourfold with each step m -> m+2
MAX_LOCAL_TERMS = 200_000


def _term_count(sig: LayerSignature) -> int:
    """Number of monomials of F_{m,n}: the compositions of a into l parts."""
    return binomial(sig.half_degree + sig.faces - 1, sig.faces - 1)


def _refuse_oversized(sig: LayerSignature) -> None:
    count = _term_count(sig)
    if count > MAX_LOCAL_TERMS:
        raise ValueError(
            f"F_{{{sig.m},{sig.n}}} has {count} terms, more than the limit of {MAX_LOCAL_TERMS}"
        )


@lru_cache(maxsize=None)
def _f_closed(m: int, n: int) -> Polynomial:
    sig = LayerSignature(m, n)
    _refuse_oversized(sig)
    a, l = sig.half_degree, sig.faces
    lead = Fraction(factorial(m), factorial(a))
    terms = {}
    for b in compositions(a, l):
        terms[tuple(2 * e for e in b)] = lead * multinomial(a, b) ** 2
    return Polynomial(terms)


def f_closed(sig: LayerSignature) -> Polynomial:
    """Closed form: (m!/a!) sum over b_1+..+b_l = a of multinomial(a;b)^2 prod w_i^{2b_i}."""
    return _f_closed(sig.m, sig.n)


@lru_cache(maxsize=None)
def _f_kontsevich_base(m: int) -> Polynomial:
    if m <= 0 or m % 2 != 0:
        raise ValueError(f"base case needs positive even m, got {m}")
    _refuse_oversized(LayerSignature(m, 0))
    k = m // 2
    l = k + 2
    terms = {}
    for ks in compositions(k - 1, l):
        denom = 1
        for e in ks:
            denom *= factorial(e)
        coeff = Fraction(factorial(m) * multinomial(k - 1, ks), denom)
        terms[tuple(2 * e for e in ks)] = coeff
    return Polynomial(terms)


def f_kontsevich_base(m: int) -> Polynomial:
    """No-pole base case: F_{m,0} = m! sum multinomial(k-1;k_i) prod w_i^{2k_i}/k_i!."""
    return _f_kontsevich_base(m)


@lru_cache(maxsize=None)
def _f_recurrence(m: int, n: int) -> Polynomial:
    sig = LayerSignature(m, n)
    _refuse_oversized(sig)
    l = sig.faces
    if n == 0:
        return _f_kontsevich_base(m)
    if m > n:
        poly = _f_kontsevich_base(m - n)
        cur_m, steps = m - n, n
    elif m == n:
        poly = Polynomial.one()  # F_{1,1}
        cur_m, steps = 1, m - 1
    else:  # m == n - 2
        poly = Polynomial.one()  # F_{0,2}
        cur_m, steps = 0, m
    for _ in range(steps):
        poly = 2 * (cur_m + 1) * apply_D(poly, range(l))
        cur_m += 1
    return poly


def f_recurrence(sig: LayerSignature) -> Polynomial:
    """Recurrence route: F_{m+1,n+1} = 2(m+1) D(F_{m,n}) from the nearest base case.

    The base case is F_{m-n,0} for m > n, F_{1,1} = 1 on the diagonal, and
    F_{0,2} = 1 on the lowest diagonal. D always runs over all l variables;
    l never changes along the recurrence.
    """
    return _f_recurrence(sig.m, sig.n)


def f_special_diagonal(m: int, n: int) -> Polynomial:
    """Closed forms on the two lowest diagonals.

    For n = m >= 1: m sum_i binom(m-1,i)^2 w_1^{2i} w_2^{2(m-1-i)}.
    For n = m + 2, m >= 0: the single-variable monomial w^{2m}.
    """
    if n == m:
        if m < 1:
            raise ValueError("diagonal form needs m >= 1")
        terms = {}
        for i in range(m):
            terms[(2 * i, 2 * (m - 1 - i))] = Fraction(m * binomial(m - 1, i) ** 2)
        return Polynomial(terms)
    if n == m + 2:
        if m < 0:
            raise ValueError("lowest diagonal form needs m >= 0")
        return Polynomial.monomial((2 * m,))
    raise ValueError(f"({m},{n}) is not on a special diagonal")
