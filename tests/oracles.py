"""Reference routes and shared helpers for the tests (not collected by pytest).

The package builds its character values column by column
(covers._character_columns) and its local polynomials by the closed form
and the recurrence.  The routes here compute the same objects another way,
one value at a time, so that the tests can compare the two.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from pillowcount.covers import Partition, _mask_hook_product
from pillowcount.polynomials import Polynomial


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Yield the partitions of n in decreasing-part form."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def bead_mask(shape: Partition) -> int:
    """The bead mask of shape, one bead per row at shape[i] + rows - 1 - i."""
    rows = len(shape)
    return sum(1 << (part + rows - 1 - i) for i, part in enumerate(shape))


def dimension(shape: Partition) -> int:
    """Dimension of the irreducible S_N representation labelled by shape."""
    return math.factorial(sum(shape)) // _mask_hook_product(bead_mask(shape))


# bounded, so that a call far past the small degrees the tests use cannot
# grow the cache without limit
@lru_cache(maxsize=1 << 16)
def _mn_value(mask: int, parts: Partition) -> int:
    """chi^shape(parts) for the shape with this bead mask, parts decreasing.
    Removing an r-border strip moves a bead x >= r to the empty x - r."""
    if not parts or parts[0] == 1:
        # remaining cycles are all fixed points
        return math.factorial(len(parts)) // _mask_hook_product(mask)
    r, rest = parts[0], parts[1:]
    total = 0
    # the beads x whose position x - r is empty
    movable = (mask >> r & ~mask) << r
    while movable:
        low = movable & -movable
        movable ^= low
        value = _mn_value(mask ^ low ^ (low >> r), rest)
        # signed by the beads at x - r + 1 .. x - 1, as x - r is empty
        total += -value if (mask & (low - (low >> r))).bit_count() & 1 else value
    return total


def character(irrep: Partition, cls: Partition) -> int:
    """Character value of the irreducible representation labelled by irrep on
    the class of cycle type cls, by Murnaghan-Nakayama recursion (largest
    cycle consumed first): strips removed top-down from a single shape,
    where the cover counts add them bottom-up to whole columns."""
    irrep = tuple(sorted(irrep, reverse=True))
    cls = tuple(sorted(cls, reverse=True))
    if sum(irrep) != sum(cls):
        raise ValueError("irrep and class label different symmetric groups")
    return _mn_value(bead_mask(irrep), cls)


def genus(classes: Sequence[Partition]) -> int:
    """Genus of a connected cover of the sphere with the given four (or more)
    branch classes: 2 - 2g = -(r - 2) N + sum_i #cycles(g_i)."""
    n = sum(classes[0])
    r = len(classes)
    euler = sum(len(cls) for cls in classes) - (r - 2) * n
    if euler % 2:
        raise ValueError("branching data has odd Euler characteristic")
    return (2 - euler) // 2


def f_special_diagonal(m: int, n: int) -> Polynomial:
    """Closed forms of F_{m,n} on the two lowest diagonals.

    For n = m >= 1: m sum_i binom(m-1,i)^2 w_1^{2i} w_2^{2(m-1-i)}.
    For n = m + 2, m >= 0: the single-variable monomial w^{2m}.
    """
    if n == m:
        if m < 1:
            raise ValueError("diagonal form needs m >= 1")
        terms = {}
        for i in range(m):
            terms[(2 * i, 2 * (m - 1 - i))] = Fraction(m * math.comb(m - 1, i) ** 2)
        return Polynomial(terms)
    if n == m + 2:
        if m < 0:
            raise ValueError("lowest diagonal form needs m >= 0")
        return Polynomial({(2 * m,): 1})
    raise ValueError(f"({m},{n}) is not on a special diagonal")


def valid_signatures(mn_max: int) -> list[tuple[int, int]]:
    """Every layer signature (m, n) with m + n <= mn_max, by m then n."""
    out = []
    for m in range(mn_max + 1):
        for n in range(mn_max + 1 - m):
            if (m, n) == (0, 0) or (m - n) % 2 or m - n < -2:
                continue
            out.append((m, n))
    return out
