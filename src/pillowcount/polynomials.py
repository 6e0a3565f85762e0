"""Sparse exact multivariate polynomials and the integration operator D.

A Polynomial is a value type for results: the local polynomials, the
leading-term fit and the tree products.  Variables are positional: index i
stands for the width variable w_{i+1}.  A polynomial in l variables keys
its terms by exponent tuples of length l, one entry per variable, zeros
included, and the constructor refuses keys of different lengths.  The
zero polynomial has no terms.  The only arithmetic is scaling by an int
or a Fraction, and D, which runs over every variable of its argument.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

__all__ = ["Polynomial", "apply_D"]

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, Scalar] = {}):
        widths = sorted({len(exps) for exps in terms})
        if len(widths) > 1:
            raise ValueError(f"exponent tuples of lengths {widths} in one polynomial")
        for exps in terms:
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
        self._terms = {k: Fraction(c) for k, c in terms.items() if c}

    def items(self):
        return self._terms.items()

    def __mul__(self, other: Scalar) -> "Polynomial":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Polynomial({k: v * other for k, v in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    # -- rendering ----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending lexicographic order of their exponents."""
        return sorted(self._terms.items(), reverse=True)

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"w{i + 1}")
                elif e > 1:
                    factors.append(f"w{i + 1}^{e}")
            cstr = str(coeff.numerator) if coeff.denominator == 1 else f"{coeff.numerator}/{coeff.denominator}"
            if factors and coeff == 1:
                parts.append("*".join(factors))
            elif factors:
                parts.append(cstr + "*" + "*".join(factors))
            else:
                parts.append(cstr)
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()})"


def apply_D(p: Polynomial) -> Polynomial:
    """The integration operator D = sum_i D_{w_i} over every variable of p.

    On a single variable, D_w maps w^n to w^{n+2}/(n+2), extended linearly.
    """
    acc: dict[Exponents, Fraction] = {}
    for exps, coeff in p.items():
        for i, n in enumerate(exps):
            key = exps[:i] + (n + 2,) + exps[i + 1:]
            acc[key] = acc.get(key, 0) + coeff / (n + 2)
    return Polynomial(acc)
