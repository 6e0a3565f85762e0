"""Cross-route verification: every quantity the package computes by more
than one method is recomputed both ways and compared exactly."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .covers import NAIVE_MAX_DEGREE, _multiset_values, connected_from_sums, naive_counts
from .layers import LayerSignature, check_local_size, f_closed, f_kontsevich_base, f_recurrence
from .rationals import PiValue, Record, Refused
from .ribbon import leading_part_fit
from .series import volume, volume_series
from .trees import check_per_tree_size, tree_subtotals

FIT_SIGNATURES = ((0, 2), (1, 1), (1, 3), (2, 0), (2, 2), (3, 1))


class CheckResult(Record):
    __slots__ = _fields = ("name", "passed", "lhs", "rhs")
    name: str
    passed: bool
    # the two sides of a failing check; empty for a passing one
    lhs: str
    rhs: str


def _valid_signatures(mn_max: int) -> Iterator[LayerSignature]:
    """The valid signatures with m + n <= mn_max, by increasing m; n <= m + 2
    bounds the walk however large mn_max is."""
    for m in range(mn_max + 1):
        for n in range(min(mn_max - m, m + 2) + 1):
            try:
                yield LayerSignature(m, n)
            except Refused:
                pass


def check_verification_size(k_max: int, mn_max: int) -> None:
    """Refuse, before any work, a k_max past the per-tree route's limit or
    an mn_max that reaches a local polynomial above MAX_LOCAL_TERMS, at the
    first one verify would build.  The message names the bound by its
    `verify` option."""
    try:
        check_per_tree_size(k_max)
    except Refused as exc:
        raise Refused(f"--K-max {k_max}: {exc}") from None
    try:
        for sig in _valid_signatures(mn_max):
            check_local_size(sig)
    except Refused as exc:
        raise Refused(f"--mn-max {mn_max}: {exc}") from None


def run_verification(k_max: int = 2, mn_max: int = 8) -> list[CheckResult]:
    """Run every cross-route check and report one result per identity.

    Checks: f_closed = f_recurrence on all valid signatures with
    m + n <= mn_max, f_closed(m, 0) = f_kontsevich_base(m), the leading-term
    fit from raw lattice counts on its supported signatures, volume(K)
    against the closed form and the labelled-tree series against the sum
    over enumerated trees, in total and per cylinder count, for
    K <= k_max, and the cover counts against the direct walk (naive_counts)
    for degrees 1..NAIVE_MAX_DEGREE, one check per degree: per multiset of
    corner classes, the four-way character sum that the cover counts are
    built from (_multiset_values), and per (degree, zeros, poles) cell, the
    connected counts that `covers count` prints, taken from the same sums
    (connected_from_sums).  A failing check between two dicts names only
    the entries that differ.

    Bounds that check_verification_size refuses raise Refused before any
    check runs.
    """
    check_verification_size(k_max, mn_max)
    results: list[CheckResult] = []

    def record(name: str, passed: bool, lhs: object, rhs: object) -> None:
        results.append(CheckResult(name, passed, "" if passed else str(lhs), "" if passed else str(rhs)))

    def same(name: str, lhs: object, rhs: object) -> None:
        passed = lhs == rhs
        if not passed and isinstance(lhs, dict) and isinstance(rhs, dict):
            wrong = [key for key in {**lhs, **rhs} if lhs.get(key) != rhs.get(key)]
            lhs, rhs = (", ".join(f"{key}: {side.get(key, 0)}" for key in wrong) for side in (lhs, rhs))
        record(name, passed, lhs, rhs)

    for sig in _valid_signatures(mn_max):
        same(
            f"local-poly closed = recurrence at (m,n)=({sig.m},{sig.n})",
            f_closed(sig),
            f_recurrence(sig),
        )

    for m in range(2, min(mn_max, 10) + 1, 2):
        same(
            f"local-poly closed = cylinder base at (m,n)=({m},0)",
            f_closed(LayerSignature(m, 0)),
            f_kontsevich_base(m),
        )

    for m, n in FIT_SIGNATURES:
        if m + n <= mn_max:
            same(
                f"leading-term fit = closed form at (m,n)=({m},{n})",
                leading_part_fit(m, n),
                f_closed(LayerSignature(m, n)),
            )

    for k in range(1, k_max + 1):
        same(
            f"volume({k}) = pi^{2 * k + 2}/2^{k - 1}",
            volume(k),
            PiValue(Fraction(1, 2 ** (k - 1)), 2 * k + 2),
        )

    for k in range(1, k_max + 1):
        total, series = volume_series(k)
        enumerated = tree_subtotals(k)
        passed = series == enumerated and total == sum(enumerated.values())
        record(f"volume({k}) series = tree sum, in total and per cylinder count", passed, series, enumerated)

    # K = 2 bounds both routes at z <= 2 and p <= 6
    four_way = list(_multiset_values(NAIVE_MAX_DEGREE, 2))
    shipped = connected_from_sums(2, four_way)
    # a multiset and a cell never share a key, so each side is one dict
    for (n, sums), (_, walked, cells) in zip(four_way, naive_counts(2, NAIVE_MAX_DEGREE)):
        same(
            f"cover counts character sum = direct enumeration, degree {n}",
            {**sums, **{cell: value for cell, value in shipped.items() if cell[0] == n}},
            {**walked, **cells},
        )

    return results
