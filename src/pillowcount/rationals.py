"""Exact rational arithmetic helpers: Bernoulli numbers, zeta values at even
integers, rational multiples of powers of pi, and the package's one exact
linear solver, which every fit goes through.

Everything here is exact. Floating point appears only in the time estimates
of refusal messages; decimal rendering is left to callers that need it for
display.
"""
from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "SIZE_CAP",
    "capped_binomial",
    "Refused",
    "size_text",
    "seconds_text",
    "multinomial",
    "compositions",
    "solve_exact",
    "bernoulli",
    "zeta_even",
    "Record",
    "PiValue",
]

Scalar = Union[int, Fraction]


# refusal messages print a size exactly up to this bound; a larger size is
# built only until it passes the bound, so that a huge request is refused at once
SIZE_CAP = 10**18


def capped_binomial(n: int, k: int) -> int:
    """min(C(n, k), SIZE_CAP + 1).  The partial values C(n-k+i, i) at least
    double with each step i <= min(k, n-k), so about 60 steps decide it."""
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
        if value > SIZE_CAP:
            return SIZE_CAP + 1
    return value


class Refused(ValueError):
    """A request refused before any work: bad input, or priced past a limit.
    The CLI exits 2 on it; any other exception is a fault in the program."""


def size_text(size: int) -> str:
    """A size from capped_binomial, or one capped like it, as refusal messages print it."""
    return str(size) if size <= SIZE_CAP else "over 10^18"


def seconds_text(seconds: float) -> str:
    """A time estimate as refusal messages print it; an estimate past the
    float range is math.inf."""
    return f"about {round(seconds)} s" if seconds < math.inf else "more than 10^308 s"


def multinomial(n: int, parts: Iterable[int]) -> int:
    """Multinomial coefficient n! / (p_1! ... p_r!).

    The parts must be nonnegative and sum to n.
    """
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative multinomial part in {parts}")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts {parts} do not sum to {n}")
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
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


def solve_exact(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar], unknowns: int) -> list[Fraction]:
    """The solution x of rows . x = rhs in `unknowns` unknowns, by Gauss-Jordan
    elimination over Fraction; rows past the rank are checks.  Raises
    ValueError when the rows do not determine every unknown, or when a check
    row disagrees with the rest."""
    if len(rows) != len(rhs) or any(len(row) != unknowns for row in rows):
        raise ValueError("a linear system needs one value per row and one entry per unknown in each row")
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(unknowns):
        pivot = next((i for i in range(c, len(aug)) if aug[i][c]), None)
        if pivot is None:
            raise ValueError("the linear system does not determine its unknowns")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i, row in enumerate(aug):
            if i != c and row[c]:
                f = row[c]
                aug[i] = [x - f * y for x, y in zip(row, aug[c])]
    if any(row[unknowns] for row in aug[unknowns:]):
        raise ValueError("the linear system is inconsistent")
    return [row[unknowns] for row in aug[:unknowns]]


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
                acc += math.comb(m + 1, j) * _BERNOULLI[j]
            _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


class Record:
    """An immutable value with the named _fields: equal to another of its
    class with equal fields, hashed and printed by them, and rebuilt from
    them by pickle.  The package's value classes derive from it, not from
    dataclasses, because importing `dataclasses` costs a process 9-17 ms.
    A subclass lists its fields, and any cached attributes, in __slots__,
    and checks its fields in __post_init__, which runs once they are set."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__name__} takes the fields {', '.join(self._fields)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__name__}({fields})"


class PiValue(Record):
    """An exact rational multiple of an even power of pi.

    Addition is only defined between values of the same pi power, a zero
    included. Multiplication adds the powers. A value is immutable and
    equals only another PiValue with the same coefficient and power.
    """

    __slots__ = _fields = ("coefficient", "pi_power")
    coefficient: Fraction
    pi_power: int

    def __init__(self, coefficient: Scalar, pi_power: int) -> None:
        if not isinstance(coefficient, Fraction):
            coefficient = Fraction(coefficient)
        super().__init__(coefficient, pi_power)

    def __post_init__(self) -> None:
        if self.pi_power < 0 or self.pi_power % 2 != 0:
            raise ValueError(f"pi power must be even and nonnegative, got {self.pi_power}")

    def __add__(self, other: "PiValue") -> "PiValue":
        if not isinstance(other, PiValue):
            return NotImplemented
        if self.pi_power != other.pi_power:
            raise ValueError(
                f"cannot add pi^{self.pi_power} and pi^{other.pi_power} terms"
            )
        return PiValue(self.coefficient + other.coefficient, self.pi_power)

    def __mul__(self, other: Union["PiValue", Scalar]) -> "PiValue":
        if isinstance(other, PiValue):
            return PiValue(self.coefficient * other.coefficient, self.pi_power + other.pi_power)
        if isinstance(other, (int, Fraction)):
            return PiValue(self.coefficient * other, self.pi_power)
        return NotImplemented

    def __rmul__(self, other: Scalar) -> "PiValue":
        return self.__mul__(other)

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
    coeff = Fraction((-1) ** (n + 1) * 2**s, 2 * math.factorial(s)) * bernoulli(s)
    return PiValue(coeff, s)
