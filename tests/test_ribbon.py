"""Ribbon graph enumeration, exact lattice counts, transforms, and the fit."""

from __future__ import annotations

import hashlib
import json
import random
from itertools import product

import pytest

from pillowcount.layers import LayerSignature, f_closed
from pillowcount.polynomials import Polynomial, RationalFunction, laplace_of_polynomial, rf_equal
from pillowcount.ribbon import (
    MAX_LABELLED_PAIRINGS,
    RibbonGraph,
    _directions,
    _labelled_pairings,
    enumerate_graphs,
    exact_lattice_count,
    hat_F,
    laplace_transform,
    leading_part_fit,
    verify_pole_recurrence,
)

# isomorphism class counts frozen from this enumeration (cross-checked by the
# (2,2) worked example: five face-labelled classes, sixteen fully labelled)
CLASS_COUNTS = {
    (0, 2): (1, 1),
    (1, 1): (2, 2),
    (1, 3): (1, 2),
    (2, 2): (5, 16),
    (2, 0): (4, 8),
    (3, 1): (24, 144),
    (2, 4): (1, 24),
}

# sha256 prefixes of the serialised enumerations, frozen before the rooted-map
# canonical form replaced the per-labelling gauge minimum
ENUMERATION_DIGESTS = {
    (3, 1, "faces-only"): "6915affc5dcb1001",
    (3, 1, "full"): "ebfdf2881d844288",
    (3, 3, "full"): "c953b23bf2c75e51",
    (2, 4, "faces-only"): "19f70dc6d7f10786",
}

# sha256 prefixes of repr(list(_directions(l, radius))), frozen while each
# module still had its own compositions generator; the fit takes its sample
# rays in this order
DIRECTION_DIGESTS = {
    (2, 4): "9be8c2d3168cbee5",
    (2, 5): "aa2cc689a216ae4c",
    (2, 6): "444ac2e6c549aa94",
    (3, 4): "9da51d07cbaa398e",
    (3, 5): "173cf93a30005d3b",
    (3, 6): "1c37ec40b917d4a4",
    (4, 4): "fd049ff8a551e340",
    (4, 5): "5a3b9cbc71e6dcbc",
    (4, 6): "08b1c71c45c21488",
}


@pytest.mark.parametrize("mn", sorted(CLASS_COUNTS))
def test_frozen_class_counts(mn: tuple[int, int]):
    faces_only, full = CLASS_COUNTS[mn]
    assert len(enumerate_graphs(*mn, label_mode="faces-only")) == faces_only
    assert len(enumerate_graphs(*mn, label_mode="full")) == full


@pytest.mark.parametrize("key", sorted(ENUMERATION_DIGESTS))
def test_enumeration_bytes_pinned(key: tuple[int, int, str]):
    m, n, mode = key
    graphs = enumerate_graphs(m, n, label_mode=mode)
    blob = json.dumps([[list(g.alpha), list(g.face_of_dart)] for g in graphs], separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == ENUMERATION_DIGESTS[key]


def test_enumerate_refuses_oversized_signature():
    # (4,2) has 13!! * 3! = 810810 labelled pairings and stays allowed
    assert _labelled_pairings(4, 2) == 810810 <= MAX_LABELLED_PAIRINGS
    with pytest.raises(ValueError, match="48648600"):
        enumerate_graphs(5, 1)


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_graphs(2, 2, label_mode="partial")
    with pytest.raises(ValueError):
        enumerate_graphs(1, 2)  # odd m - n


@pytest.mark.parametrize("mn", sorted(CLASS_COUNTS))
def test_graph_structural_invariants(mn: tuple[int, int]):
    m, n = mn
    l = LayerSignature(m, n).faces
    for g in enumerate_graphs(m, n):
        d = g.darts
        assert d == 3 * m + n
        # alpha is a fixed-point-free involution
        assert all(g.alpha[g.alpha[x]] == x and g.alpha[x] != x for x in range(d))
        cycles = g.face_cycles()
        assert len(cycles) == l
        # face labels are a bijection onto 0..l-1 and constant on cycles
        assert sorted({g.face_of_dart[c[0]] for c in cycles}) == list(range(l))
        for cyc in cycles:
            assert len({g.face_of_dart[x] for x in cyc}) == 1
        # genus 0: V - E + F = 2
        assert (m + n) - d // 2 + l == 2


def edge_form_multiset(g: RibbonGraph) -> tuple[tuple[int, ...], ...]:
    """Sorted per-edge face-incidence vectors (the pole form of each edge)."""
    forms = []
    for a, b in g.edges():
        vec = [0] * g.faces
        vec[g.face_of_dart[a]] += 1
        vec[g.face_of_dart[b]] += 1
        forms.append(tuple(vec))
    return tuple(sorted(forms))


def brute_lattice_count(g: RibbonGraph, widths: tuple[int, ...]) -> int:
    """Independent direct count over all doubled edge lengths: every positive
    value of each edge in turn, stopping once a face sum passes its target."""
    ends = [(g.face_of_dart[a], g.face_of_dart[b]) for a, b in g.edges()]
    target = [2 * w for w in widths]
    sums = [0] * g.faces

    def count(i: int) -> int:
        if i == len(ends):
            return int(sums == target)
        fa, fb = ends[i]
        total, x = 0, 1
        while True:
            sums[fa] += x
            sums[fb] += x
            fits = sums[fa] <= target[fa] and sums[fb] <= target[fb]
            if fits:
                total += count(i + 1)
            sums[fa] -= x
            sums[fb] -= x
            if not fits:
                return total
            x += 1

    return count(0)


@pytest.mark.parametrize("mn", [(0, 2), (1, 1), (1, 3), (2, 2), (2, 0), (3, 1)])
def test_lattice_count_matches_brute_force(mn: tuple[int, int]):
    l = LayerSignature(*mn).faces
    # (3,1) needs widths summing to at least 5 and counts zero on all of {1,2}^3
    sizes = (2, 3, 4) if mn == (3, 1) else (1, 2, 3)
    nonzero = 0
    for mode in ("faces-only", "full"):
        for g in enumerate_graphs(*mn, label_mode=mode):
            for widths in product(sizes, repeat=l):
                count = exact_lattice_count(g, widths)
                assert count == brute_lattice_count(g, widths)
                nonzero += count > 0
    assert nonzero > 0


def test_lattice_count_depends_only_on_edge_columns():
    """Relabelling darts at random permutes the edges, those with equal
    columns among them, and leaves the count alone; graphs sharing their
    edge-column multiset share their counts (what leading_part_fit uses)."""
    rng = random.Random(3)
    by_columns: dict[tuple, list[RibbonGraph]] = {}
    for g in enumerate_graphs(3, 1, label_mode="full"):
        by_columns.setdefault(edge_form_multiset(g), []).append(g)
    assert len(by_columns) == 21
    nonzero = 0
    for members in by_columns.values():
        g = members[0]
        pi = list(range(g.darts))
        rng.shuffle(pi)
        alpha, faces = [0] * g.darts, [0] * g.darts
        for x in range(g.darts):
            alpha[pi[x]] = pi[g.alpha[x]]
            faces[pi[x]] = g.face_of_dart[x]
        shuffled = RibbonGraph(g.m, g.n, tuple(alpha), tuple(faces))
        for widths in product((3, 4, 6), repeat=3):
            counts = {exact_lattice_count(h, widths) for h in members + [shuffled]}
            assert len(counts) == 1
            nonzero += counts != {0}
    assert nonzero > 0


def test_lattice_count_input_validation():
    g = enumerate_graphs(1, 1)[0]
    with pytest.raises(ValueError):
        exact_lattice_count(g, (1,))
    with pytest.raises(ValueError):
        exact_lattice_count(g, (1, 0))


def graphs_by_form(mn: tuple[int, int]) -> dict[tuple, list[RibbonGraph]]:
    table: dict[tuple, list[RibbonGraph]] = {}
    for g in enumerate_graphs(*mn):
        table.setdefault(edge_form_multiset(g), []).append(g)
    return table


def binomial(n: int, k: int) -> int:
    import math

    return math.comb(n, k) if 0 <= k <= n else 0


def test_distinguished_graphs_have_closed_form_counts():
    """The three essentially different (2,2) graphs, identified by their edge
    pole forms, have elementary exact counts:

    - one crossing edge and three edges inside face 2: the crossing length is
      forced, leaving x_2+x_3+x_4 = w_2-w_1, so C(w_2-w_1-1, 2);
    - two crossing edges and two inside face 2: (2w_1-1)(w_2-w_1-1);
    - two crossing edges and one edge inside each face: (min(w_1,w_2)-1)^2.
    """
    table = graphs_by_form((2, 2))
    assert len(table) == 5  # each form class is realized exactly once
    one_cross = table[((0, 2), (0, 2), (0, 2), (1, 1))]
    assert len(one_cross) == 1
    two_cross_2 = table[((0, 2), (0, 2), (1, 1), (1, 1))]
    assert len(two_cross_2) == 1
    balanced = table[((0, 2), (1, 1), (1, 1), (2, 0))]
    assert len(balanced) == 1
    for w1, w2 in product(range(1, 7), repeat=2):
        gap = w2 - w1
        assert exact_lattice_count(one_cross[0], (w1, w2)) == (
            binomial(gap - 1, 2) if gap > 0 else 0
        )
        assert exact_lattice_count(two_cross_2[0], (w1, w2)) == (
            (2 * w1 - 1) * (gap - 1) if gap > 1 else 0
        )
        assert exact_lattice_count(balanced[0], (w1, w2)) == (min(w1, w2) - 1) ** 2


def test_laplace_transform_of_single_graph():
    g = enumerate_graphs(0, 2)[0]
    # one edge bordered twice by the single face: 2/(2 lambda_1)
    f = laplace_transform(g)
    assert rf_equal(f, RationalFunction(Polynomial.one(), Polynomial.variable(0)))


def test_hat_F_2_2_closed_form():
    # 4 (lambda_1^2 + lambda_2^2) / (lambda_1^3 lambda_2^3)
    target = RationalFunction(
        Polynomial({(2, 0): 4, (0, 2): 4}),
        Polynomial.monomial((3, 3)),
    )
    assert rf_equal(hat_F(2, 2), target)


def test_hat_F_transform_consistency():
    # the transform of each graph has denominator degree e = (3m+n)/2
    for g in enumerate_graphs(2, 2):
        f = laplace_transform(g)
        assert f.den.total_degree() == 4
        assert f.num.total_degree() == 0


@pytest.mark.parametrize("mn", [(0, 2), (1, 1)])
def test_pole_recurrence_small(mn: tuple[int, int]):
    assert verify_pole_recurrence(*mn)


@pytest.mark.parametrize("mn", [(0, 2), (1, 1), (2, 0), (1, 3), (2, 2), (3, 1)])
def test_transform_of_local_polynomial_is_hat_F(mn: tuple[int, int]):
    # Kontsevich's identity: the Laplace transform of F_{m,n} is the sum of
    # the graph transforms over the fully labelled enumeration
    sig = LayerSignature(*mn)
    assert rf_equal(laplace_of_polynomial(f_closed(sig), sig.faces), hat_F(*mn))


@pytest.mark.parametrize("key", sorted(DIRECTION_DIGESTS))
def test_sample_directions_pinned(key: tuple[int, int]):
    directions = list(_directions(*key))
    assert hashlib.sha256(repr(directions).encode()).hexdigest()[:16] == DIRECTION_DIGESTS[key]
    assert all(0 < x <= key[1] for u in directions for x in u)


@pytest.mark.parametrize("mn", [(0, 2), (1, 1), (1, 3)])
def test_leading_part_fit_small(mn: tuple[int, int]):
    assert leading_part_fit(*mn) == f_closed(LayerSignature(*mn))


def test_fully_labelled_totals():
    """Frozen totals of the fully labelled count at (2,2); relabelling the
    faces permutes the classes, so the total is symmetric in the widths."""
    graphs = enumerate_graphs(2, 2, "full")

    def total(w1: int, w2: int) -> int:
        return sum(exact_lattice_count(g, (w1, w2)) for g in graphs)

    assert total(11, 13) == 442
    assert total(13, 11) == 442
    assert total(9, 16) == 520
    assert total(5, 8) == total(8, 5)
