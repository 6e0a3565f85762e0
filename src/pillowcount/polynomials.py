"""Sparse exact multivariate polynomials and rational functions.

Variables are positional: index i stands for the width variable w_{i+1} or,
on the transform side, the pole variable lambda_{i+1}. Exponent tuples are
stored with trailing zeros stripped, so (2, 0) and (2,) denote the same
monomial. Rational functions are never reduced; equality goes through
cross-multiplication.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .rationals import factorial

__all__ = [
    "Polynomial",
    "RationalFunction",
    "apply_D",
    "laplace_of_polynomial",
    "rf_add",
    "rf_mul",
    "rf_scale",
    "rf_equal",
    "rf_partial",
]

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

    def __init__(self, terms: Union[Mapping[Exponents, Scalar], Iterable[tuple[Exponents, Scalar]]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Exponents, Fraction] = {}
        for exps, coeff in items:
            key = _strip(exps)
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {exps}")
            c = acc.get(key, Fraction(0)) + Fraction(coeff)
            if c:
                acc[key] = c
            else:
                acc.pop(key, None)
        self._terms = acc

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

    @staticmethod
    def variable(i: int) -> "Polynomial":
        return Polynomial.monomial((0,) * i + (1,))

    @staticmethod
    def monomial(exps: Iterable[int], coeff: Scalar = 1) -> "Polynomial":
        return Polynomial({tuple(exps): coeff})

    # -- basic queries ------------------------------------------------

    def items(self):
        return self._terms.items()

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return self._terms.get(_strip(exps), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def arity(self) -> int:
        """Number of leading variables actually appearing."""
        return max((len(k) for k in self._terms), default=0)

    def total_degree(self) -> int:
        return max((sum(k) for k in self._terms), default=0)

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if inhomogeneous."""
        degs = {sum(k) for k in self._terms}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    # -- ring operations ----------------------------------------------

    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other._terms.items():
            s = acc.get(k, Fraction(0)) + c
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
        out = Polynomial()
        out._terms = acc
        return out

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        out = Polynomial()
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial.zero()
            out = Polynomial()
            out._terms = {k: v * c for k, v in self._terms.items()}
            return out
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc: dict[Exponents, Fraction] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                w = max(len(ka), len(kb))
                key = _strip(tuple(x + y for x, y in zip(_pad(ka, w), _pad(kb, w))))
                s = acc.get(key, Fraction(0)) + ca * cb
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        out = Polynomial()
        out._terms = acc
        return out

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- analysis -----------------------------------------------------

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at the point; the point must cover every variable."""
        if len(point) < self.arity():
            raise ValueError(
                f"point of dimension {len(point)} for polynomial in {self.arity()} variables"
            )
        vals = [Fraction(x) for x in point]
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            term = coeff
            for i, e in enumerate(exps):
                if e:
                    term *= vals[i] ** e
            total += term
        return total

    def is_symmetric(self, l: int) -> bool:
        """Invariance under all permutations of the first l variables."""
        if l <= 1:
            return True
        width = max(l, self.arity())
        base = {_pad(k, width): c for k, c in self._terms.items()}
        # adjacent transpositions generate the symmetric group
        for i in range(l - 1):
            for k, c in base.items():
                swapped = list(k)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if base.get(tuple(swapped), Fraction(0)) != c:
                    return False
        return True

    def partial(self, var: int) -> "Polynomial":
        """Partial derivative with respect to variable index var."""
        acc: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            if var >= len(exps) or exps[var] == 0:
                continue
            e = exps[var]
            key = _strip(exps[:var] + (e - 1,) + exps[var + 1:])
            s = acc.get(key, Fraction(0)) + coeff * e
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        out = Polynomial()
        out._terms = acc
        return out

    def remap_variables(self, mapping: Sequence[int]) -> "Polynomial":
        """Send variable i to variable mapping[i]; targets must be distinct."""
        if len(set(mapping)) != len(mapping):
            raise ValueError("variable remapping must be injective")
        acc: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            if len(exps) > len(mapping):
                raise ValueError("remapping does not cover all variables")
            width = max((mapping[i] for i in range(len(exps))), default=-1) + 1
            out = [0] * width
            for i, e in enumerate(exps):
                out[mapping[i]] = e
            key = _strip(tuple(out))
            acc[key] = acc.get(key, Fraction(0)) + coeff
        out_p = Polynomial()
        out_p._terms = {k: c for k, c in acc.items() if c}
        return out_p

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
            c = coeff / (n + 2)
            s = acc.get(key, Fraction(0)) + c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return Polynomial(acc)


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of two polynomials in the lambda variables, kept unreduced."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self) -> None:
        if self.den.is_zero():
            raise ValueError("rational function with identically zero denominator")

    def __str__(self) -> str:
        return f"({self.num.to_text(var='l')}) / ({self.den.to_text(var='l')})"


def rf_add(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    return RationalFunction(f.num * g.den + g.num * f.den, f.den * g.den)


def rf_mul(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    return RationalFunction(f.num * g.num, f.den * g.den)


def rf_scale(f: RationalFunction, c: Scalar) -> RationalFunction:
    return RationalFunction(f.num * c, f.den)


def rf_equal(f: RationalFunction, g: RationalFunction) -> bool:
    return f.num * g.den == g.num * f.den


def rf_partial(f: RationalFunction, var: int) -> RationalFunction:
    """d/d lambda_var by the quotient rule, without reduction."""
    return RationalFunction(
        f.num.partial(var) * f.den - f.num * f.den.partial(var),
        f.den * f.den,
    )


def laplace_of_polynomial(p: Polynomial, arity: int) -> RationalFunction:
    """Transform of a width polynomial, variable by variable.

    A monomial factor w^k turns into k!/lambda^{k+1}; a variable that does not
    appear in a term still contributes 1/lambda. The result is assembled over
    the common denominator prod lambda_i^{max_i + 1}.
    """
    if arity < p.arity():
        raise ValueError("transform arity smaller than the number of variables")
    if p.is_zero():
        return RationalFunction(Polynomial.zero(), Polynomial.one())
    maxes = [0] * arity
    for exps, _ in p.items():
        for i, e in enumerate(exps):
            maxes[i] = max(maxes[i], e)
    num = Polynomial.zero()
    for exps, coeff in p.items():
        full = _pad(_strip(exps), arity)
        c = coeff
        for e in full:
            c *= factorial(e)
        num = num + Polynomial.monomial(tuple(m - e for m, e in zip(maxes, full)), c)
    den = Polynomial.monomial(tuple(m + 1 for m in maxes))
    return RationalFunction(num, den)
