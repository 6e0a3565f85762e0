"""Exact rational arithmetic helpers: Bernoulli numbers, zeta values at even
integers, and rational multiples of powers of pi.

Everything here is exact. Floating point never appears; decimal rendering is
left to callers that need it for display.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

__all__ = [
    "factorial",
    "binomial",
    "multinomial",
    "compositions",
    "bernoulli",
    "zeta_even",
    "PiValue",
]

Scalar = Union[int, Fraction]


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial of negative argument {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero outside the Pascal triangle."""
    if n < 0:
        raise ValueError(f"binomial with negative top index {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(n: int, parts: Iterable[int]) -> int:
    """Multinomial coefficient n! / (p_1! ... p_r!).

    The parts must be nonnegative and sum to n.
    """
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative multinomial part in {parts}")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts {parts} do not sum to {n}")
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, in
    ascending lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


# Bernoulli numbers, convention B_1 = -1/2. The cache only ever grows; the
# lock serializes insertion so concurrent readers stay consistent.
_BERNOULLI: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2.

    Computed from the defining recurrence sum_{j<n} C(n+1, j) B_j = -(n+1) B_n
    and memoized process-wide.
    """
    if n < 0:
        raise ValueError(f"Bernoulli number of negative index {n}")
    if n < len(_BERNOULLI):
        return _BERNOULLI[n]
    with _BERNOULLI_LOCK:
        while len(_BERNOULLI) <= n:
            m = len(_BERNOULLI)
            if m % 2 == 1:
                _BERNOULLI.append(Fraction(0))
                continue
            acc = Fraction(0)
            for j in range(m):
                acc += binomial(m + 1, j) * _BERNOULLI[j]
            _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


@dataclass(frozen=True)
class PiValue:
    """An exact rational multiple of an even power of pi.

    Addition is only defined between values of the same pi power, except that
    an exact zero combines with anything. Multiplication adds the powers.
    """

    coefficient: Fraction
    pi_power: int

    def __post_init__(self) -> None:
        if not isinstance(self.coefficient, Fraction):
            object.__setattr__(self, "coefficient", Fraction(self.coefficient))
        if self.pi_power < 0 or self.pi_power % 2 != 0:
            raise ValueError(f"pi power must be even and nonnegative, got {self.pi_power}")

    @staticmethod
    def zero() -> "PiValue":
        return PiValue(Fraction(0), 0)

    def is_zero(self) -> bool:
        return self.coefficient == 0

    def __add__(self, other: "PiValue") -> "PiValue":
        if not isinstance(other, PiValue):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.pi_power != other.pi_power:
            raise ValueError(
                f"cannot add pi^{self.pi_power} and pi^{other.pi_power} terms"
            )
        return PiValue(self.coefficient + other.coefficient, self.pi_power)

    def __neg__(self) -> "PiValue":
        return PiValue(-self.coefficient, self.pi_power)

    def __sub__(self, other: "PiValue") -> "PiValue":
        return self + (-other)

    def __mul__(self, other: Union["PiValue", Scalar]) -> "PiValue":
        if isinstance(other, PiValue):
            return PiValue(self.coefficient * other.coefficient, self.pi_power + other.pi_power)
        if isinstance(other, (int, Fraction)):
            return PiValue(self.coefficient * other, self.pi_power)
        return NotImplemented

    def __rmul__(self, other: Scalar) -> "PiValue":
        return self.__mul__(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PiValue):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.coefficient == other.coefficient and self.pi_power == other.pi_power

    def __hash__(self) -> int:
        if self.is_zero():
            return hash((Fraction(0), -1))
        return hash((self.coefficient, self.pi_power))

    def to_float(self) -> float:
        """Decimal approximation; display layer only."""
        return float(self.coefficient) * math.pi ** self.pi_power

    def __str__(self) -> str:
        c = self.coefficient
        return f"pi^{self.pi_power} * {c.numerator}/{c.denominator}"


def zeta_even(s: int) -> PiValue:
    """zeta(s) for positive even s, as an exact rational multiple of pi^s.

    zeta(2n) = (-1)^{n+1} B_{2n} (2 pi)^{2n} / (2 (2n)!).
    """
    if s < 2 or s % 2 != 0:
        raise ValueError(f"unsupported zeta argument {s}")
    n = s // 2
    coeff = Fraction((-1) ** (n + 1) * 2**s, 2 * factorial(s)) * bernoulli(s)
    return PiValue(coeff, s)
