"""Layer counting polynomials F_{m,n}.

A layer has m trivalent vertices (simple zeros), n univalent vertices
(simple poles), l = (m-n)/2 + 2 boundary faces carrying the cylinder widths,
and F_{m,n} is homogeneous of degree 2a with a = (m+n)/2 - 1. Three routes
compute the same polynomial: the closed form, the n = 0 base case, and the
step-up recurrence. All routes must agree exactly.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .polynomials import Polynomial, apply_D
from .rationals import Record, Refused, capped_binomial, compositions, multinomial, size_text

__all__ = [
    "MAX_LOCAL_TERMS",
    "LayerSignature",
    "check_local_size",
    "f_closed",
    "f_kontsevich_base",
    "f_recurrence",
]


class LayerSignature(Record):
    """Counts of trivalent (m) and univalent (n) vertices of one layer."""

    __slots__ = _fields = ("m", "n")
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise Refused(f"negative vertex count in ({self.m},{self.n})")
        if (self.m, self.n) == (0, 0):
            raise Refused("layer signature (0,0) is excluded")
        if (self.m - self.n) % 2 != 0:
            raise Refused(f"({self.m},{self.n}) has odd m-n")
        if self.m - self.n < -2:
            raise Refused(f"({self.m},{self.n}) touches no cylinder")

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
    """Number of monomials of F_{m,n}, the compositions of a into l parts,
    capped at SIZE_CAP + 1."""
    return capped_binomial(sig.half_degree + sig.faces - 1, sig.faces - 1)


def check_local_size(sig: LayerSignature) -> None:
    """Refuse a local polynomial with more than MAX_LOCAL_TERMS monomials."""
    count = _term_count(sig)
    if count > MAX_LOCAL_TERMS:
        raise Refused(
            f"F_{{{sig.m},{sig.n}}} has {size_text(count)} terms, more than the limit of {MAX_LOCAL_TERMS}"
        )


@lru_cache(maxsize=None)
def f_closed(sig: LayerSignature) -> Polynomial:
    """Closed form: (m!/a!) sum over b_1+..+b_l = a of multinomial(a;b)^2 prod w_i^{2b_i}."""
    check_local_size(sig)
    a, l = sig.half_degree, sig.faces
    lead = Fraction(factorial(sig.m), factorial(a))
    terms = {}
    for b in compositions(a, l):
        terms[tuple(2 * e for e in b)] = lead * multinomial(a, b) ** 2
    return Polynomial(terms)


def f_kontsevich_base(m: int) -> Polynomial:
    """No-pole base case: F_{m,0} = m! sum multinomial(k-1;k_i) prod w_i^{2k_i}/k_i!."""
    if m <= 0 or m % 2 != 0:
        raise ValueError(f"base case needs positive even m, got {m}")
    check_local_size(LayerSignature(m, 0))
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


def f_recurrence(sig: LayerSignature) -> Polynomial:
    """Recurrence route: F_{m+1,n+1} = 2(m+1) D(F_{m,n}) from the nearest base case.

    The base case is F_{m-n,0} for m > n, F_{1,1} = 1 on the diagonal, and
    F_{0,2} = 1 on the lowest diagonal. D runs over all l variables of its
    argument; l never changes along the recurrence.
    """
    check_local_size(sig)
    m, n, l = sig.m, sig.n, sig.faces
    if n == 0:
        return f_kontsevich_base(m)
    if m > n:
        poly = f_kontsevich_base(m - n)
        cur_m, steps = m - n, n
    elif m == n:
        poly = Polynomial({(0,) * l: 1})  # F_{1,1}
        cur_m, steps = 1, m - 1
    else:  # m == n - 2
        poly = Polynomial({(0,) * l: 1})  # F_{0,2}
        cur_m, steps = 0, m
    for _ in range(steps):
        poly = 2 * (cur_m + 1) * apply_D(poly)
        cur_m += 1
    return poly

