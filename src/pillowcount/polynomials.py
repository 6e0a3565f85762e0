"""Sparse exact multivariate polynomials and the integration operator D.

Variables are positional: index i stands for the width variable w_{i+1} or,
when ribbon.same_transform multiplies out a transform, the pole variable
lambda_{i+1}. Exponent tuples are stored with trailing zeros stripped, so
(2, 0) and (2,) denote the same monomial.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

__all__ = ["Polynomial", "apply_D"]

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]


def _strip(exps: Iterable[int]) -> Exponents:
    out = tuple(int(e) for e in exps)
    while out and out[-1] == 0:
        out = out[:-1]
    return out


def _pad(exps: Exponents, width: int) -> Exponents:
    return exps + (0,) * (width - len(exps))


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, Scalar] = {}):
        # every ring operation accumulates into a dict and ends here, so
        # like terms are merged and zero coefficients dropped in one place
        acc: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            key = _strip(exps)
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {exps}")
            acc[key] = acc.get(key, 0) + Fraction(coeff)
        self._terms = {k: c for k, c in acc.items() if c}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(c: Scalar) -> "Polynomial":
        return Polynomial({(): c})

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial.constant(1)

    # -- basic queries ------------------------------------------------

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def arity(self) -> int:
        """Number of leading variables actually appearing."""
        return max((len(k) for k in self._terms), default=0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other._terms.items():
            acc[k] = acc.get(k, 0) + c
        return Polynomial(acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial({k: v * other for k, v in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc: dict[Exponents, Fraction] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                w = max(len(ka), len(kb))
                key = tuple(x + y for x, y in zip(_pad(ka, w), _pad(kb, w)))
                acc[key] = acc.get(key, 0) + ca * cb
        return Polynomial(acc)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- rendering ----------------------------------------------------

    def sorted_terms(self, arity: int | None = None) -> list[tuple[Exponents, Fraction]]:
        """Terms padded to the given arity, in descending lexicographic order."""
        width = arity if arity is not None else self.arity()
        if width < self.arity():
            raise ValueError("arity smaller than the number of variables")
        return sorted(
            ((_pad(k, width), c) for k, c in self._terms.items()),
            key=lambda t: t[0],
            reverse=True,
        )

    def to_records(self, arity: int | None = None) -> list[dict]:
        """JSON-ready list of {exponents, num, den} records."""
        return [
            {"exponents": list(k), "num": str(c.numerator), "den": str(c.denominator)}
            for k, c in self.sorted_terms(arity)
        ]

    def to_text(self, var: str = "w", arity: int | None = None) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms(arity):
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"{var}{i + 1}")
                elif e > 1:
                    factors.append(f"{var}{i + 1}^{e}")
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


def apply_D(p: Polynomial, variables: Iterable[int]) -> Polynomial:
    """The integration operator D = sum_i D_{w_i} over the given variables.

    On a single variable, D_w maps w^n to w^{n+2}/(n+2), extended linearly.
    """
    acc: dict[Exponents, Fraction] = {}
    var_list = list(variables)
    for exps, coeff in p.items():
        for i in var_list:
            width = max(len(exps), i + 1)
            padded = _pad(exps, width)
            n = padded[i]
            key = padded[:i] + (n + 2,) + padded[i + 1:]
            acc[key] = acc.get(key, 0) + coeff / (n + 2)
    return Polynomial(acc)
