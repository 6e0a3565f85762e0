"""Acceptance gate: one test per shipped guarantee, each printing a
[PASS]/[FAIL] line (visible under pytest -s) before asserting.

Every numeric comparison here is exact unless the criterion itself is a
float tolerance, and the expected values were frozen from independent
computations before being wired into the library.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

from pillowcount.covers import (
    _multiset_values,
    connected_counts,
    corner_types,
    cover_ratios,
    naive_counts,
)
from pillowcount.layers import LayerSignature, f_closed, f_kontsevich_base, f_recurrence
from pillowcount.polynomials import Polynomial
from pillowcount.rationals import PiValue
from pillowcount.ribbon import (
    enumerate_graphs,
    hat_F,
    leading_part_fit,
    same_transform,
    verify_pole_recurrence,
)
from pillowcount.series import volume
from pillowcount.trees import enumerate_decorated_trees, tree_contribution

from oracles import valid_signatures
from zeta_lemma import zeta_lemma_ratio


def _report(number: int, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number}: {detail}")


def test_criterion_1_volumes_exact_and_fast():
    expected = {
        1: PiValue(Fraction(1), 4),
        2: PiValue(Fraction(1, 2), 6),
        3: PiValue(Fraction(1, 4), 8),
        4: PiValue(Fraction(1, 8), 10),
    }
    start = time.perf_counter()
    computed = {big_k: volume(big_k) for big_k in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - start
    passed = computed == expected and elapsed < 60.0
    _report(
        1,
        passed,
        f"volume(K) = pi^(2K+2)/2^(K-1) exactly for K=1..4 in {elapsed:.1f}s (< 60s)",
    )
    assert computed == expected
    assert elapsed < 60.0


def test_criterion_2_per_tree_contributions():
    expected_k1 = {
        "(0,2)--(1,3)": PiValue(Fraction(4, 9), 4),
        "(1,1)[(0,2),(0,2)]": PiValue(Fraction(5, 9), 4),
    }
    expected_k2 = {
        "(0,2)--(2,4)": PiValue(Fraction(4, 63), 6),
        "(1,3)--(1,3)": PiValue(Fraction(16, 189), 6),
        "(1,1)[(0,2),(1,3)]": PiValue(Fraction(4, 45), 6),
        "(2,2)[(0,2),(0,2)]": PiValue(Fraction(2, 15), 6),
        "(1,1)[(0,2)]--(1,1)[(0,2)]": PiValue(Fraction(1, 9), 6),
        "(2,0)[(0,2),(0,2),(0,2)]": PiValue(Fraction(1, 54), 6),
    }
    expected_subtotals = {
        1: PiValue(Fraction(4, 27), 6),
        2: PiValue(Fraction(2, 9), 6),
        3: PiValue(Fraction(7, 54), 6),
    }
    got_k1 = {
        t.layer_text(): tree_contribution(t, 1).value for t in enumerate_decorated_trees(1)
    }
    contributions_k2 = [
        (t, tree_contribution(t, 2).value) for t in enumerate_decorated_trees(2)
    ]
    got_k2 = {t.layer_text(): value for t, value in contributions_k2}
    subtotals: dict[int, PiValue] = {}
    for t, value in contributions_k2:
        subtotals[t.k] = subtotals.get(t.k, PiValue(Fraction(0), 6)) + value
    passed = got_k1 == expected_k1 and got_k2 == expected_k2 and subtotals == expected_subtotals
    _report(
        2,
        passed,
        "per-tree contributions exact for K=1 (4/9, 5/9) and K=2 "
        "(six trees; cylinder subtotals 4/27, 2/9, 7/54)",
    )
    assert got_k1 == expected_k1
    assert got_k2 == expected_k2
    assert subtotals == expected_subtotals


def _reference_table() -> dict[tuple[int, int], Polynomial]:
    return {
        (0, 2): Polynomial({(0,): 1}),
        (1, 3): Polynomial({(2,): 1}),
        (2, 4): Polynomial({(4,): 1}),
        (3, 5): Polynomial({(6,): 1}),
        (1, 1): Polynomial({(0, 0): 1}),
        (2, 2): Polynomial({(2, 0): 2, (0, 2): 2}),
        (3, 3): Polynomial({(4, 0): 3, (2, 2): 12, (0, 4): 3}),
        (2, 0): Polynomial({(0, 0, 0): 2}),
        (3, 1): Polynomial({(2, 0, 0): 6, (0, 2, 0): 6, (0, 0, 2): 6}),
    }


def test_criterion_3_reference_table():
    table = _reference_table()
    mismatches = [
        (m, n)
        for (m, n), expected in table.items()
        if f_closed(LayerSignature(m, n)) != expected
    ]
    passed = not mismatches
    _report(
        3,
        passed,
        f"closed form matches all {len(table)} reference local polynomials"
        + (f" (mismatch at {mismatches})" if mismatches else ""),
    )
    assert not mismatches


def test_criterion_4_routes_agree():
    signatures = [LayerSignature(*mn) for mn in valid_signatures(12)]
    recurrence_bad = [
        (s.m, s.n) for s in signatures if f_closed(s) != f_recurrence(s)
    ]
    base_bad = [
        m
        for m in range(2, 11, 2)
        if f_closed(LayerSignature(m, 0)) != f_kontsevich_base(m)
    ]
    passed = not recurrence_bad and not base_bad
    _report(
        4,
        passed,
        f"closed = recurrence at all {len(signatures)} signatures with m+n <= 12; "
        "closed(m,0) = cylinder base for m <= 10",
    )
    assert not recurrence_bad
    assert not base_bad


def test_criterion_5_ribbon_graph_checks():
    graphs = enumerate_graphs(2, 2)
    five = len(graphs) == 5
    # 4/(l1 l2^3) + 4/(l1^3 l2), and neither term alone
    target = [
        (Fraction(4), Counter({(1, 0): 1, (0, 1): 3})),
        (Fraction(4), Counter({(1, 0): 3, (0, 1): 1})),
    ]
    hat = hat_F(2, 2)
    transform_ok = same_transform(hat, target) and not any(
        same_transform(hat, [term]) for term in target
    )
    recurrence_ok = all(
        verify_pole_recurrence(m, n) for (m, n) in ((1, 1), (0, 2), (2, 2))
    )
    passed = five and transform_ok and recurrence_ok
    _report(
        5,
        passed,
        f"(2,2) has {len(graphs)} face-labelled graphs (= 5); "
        "hat_F(2,2) = 4/(l1 l2^3) + 4/(l1^3 l2), neither term alone; pole recurrence holds from "
        "(1,1), (0,2), (2,2)",
    )
    assert five
    assert transform_ok
    assert recurrence_ok


def test_criterion_6_lattice_fit_recovers_polynomials():
    signatures = ((0, 2), (1, 1), (1, 3), (2, 2), (2, 0), (3, 1))
    bad = [
        (m, n)
        for (m, n) in signatures
        if leading_part_fit(m, n) != f_closed(LayerSignature(m, n))
    ]
    passed = not bad
    _report(
        6,
        passed,
        "interpolated leading terms of brute-force lattice counts equal the "
        f"closed form at {len(signatures)} signatures"
        + (f" (failed at {bad})" if bad else ""),
    )
    assert not bad


def test_criterion_7_cover_counts_match_enumeration():
    checked = 0
    bad: list[tuple] = []
    enumerated: dict = {}
    for (n, values), (_, sums, cells) in zip(_multiset_values(5, 2), naive_counts(2, 5)):
        for classes in itertools.combinations_with_replacement(corner_types(n, 2), 4):
            if sum(cls.count(3) for cls in classes) <= 2 and sum(cls.count(1) for cls in classes) <= 6:
                if values.get(classes, 0) != sums.get(classes, 0):
                    bad.append(("disconnected", classes))
                checked += 1
        enumerated.update(cells)
    shipped = connected_counts(2, 5)
    for cell in sorted(shipped.keys() | enumerated.keys()):
        if shipped.get(cell) != enumerated.get(cell):
            bad.append(("connected", cell))
    passed = not bad
    _report(
        7,
        passed,
        f"character sums match direct enumeration for all {checked} multisets of corner classes with degree <= 5, "
        f"and the connectivity inversion for all {len(enumerated)} (degree, zeros, poles) cells"
        + (f" (first failure {bad[0]})" if bad else ""),
    )
    assert not bad
    assert checked == 38


def test_criterion_8_quasimodularity_ratio():
    ratios = cover_ratios(1, (10, 20, 30))
    r10, r20, r30 = ratios[10], ratios[20], ratios[30]
    positive = all(r > 0 for r in (r10, r20, r30))
    errors = [abs(r - 1.0) for r in (r10, r20, r30)]
    monotone = errors[0] >= errors[1] >= errors[2]
    close = errors[2] < 0.35
    # the values README prints, as `covers ratio` formats them
    pinned = [f"{r:.6f}" for r in (r10, r20, r30)] == ["0.795326", "0.899177", "0.934177"]
    passed = positive and monotone and close and pinned
    _report(
        8,
        passed,
        f"r_10={r10:.6f}, r_20={r20:.6f}, r_30={r30:.6f}; "
        f"|r_N - 1| non-increasing and |r_30 - 1| = {errors[2]:.6f} < 0.35",
    )
    assert positive
    assert monotone
    assert close
    assert pinned


def test_criterion_9_zeta_lemma_truncation():
    ratio = zeta_lemma_ratio((2,), 10**6)
    passed = math.isfinite(ratio) and abs(ratio - 1.0) < 0.05
    _report(
        9,
        passed,
        f"truncated double sum over h*w <= 10^6 is {ratio:.7f} of "
        "N^4/4! * 3! zeta(4) (within 5%)",
    )
    assert abs(ratio - 1.0) < 0.05
