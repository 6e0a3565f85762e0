"""Ribbon graph enumeration, exact lattice counts, transforms, and the fit."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pillowcount import ribbon as ribbon_mod
from pillowcount.layers import LayerSignature, f_closed
from pillowcount.polynomials import Polynomial
from pillowcount.ribbon import (
    MAX_CLASSES,
    RibbonGraph,
    _directions,
    _face_labels,
    check_lattice_size,
    enumerate_graphs,
    exact_lattice_count,
    hat_F,
    laplace_of_polynomial,
    laplace_transform,
    leading_part_fit,
    same_transform,
    verify_pole_recurrence,
)

from oracles import walk_graphs

# (face-labelled classes, vertex-labelled classes up to rotating the
# trivalent vertices), frozen while each was enumerated on its own
# (cross-checked by the (2,2) worked example: five and sixteen); the second
# is the sum of m! n! / |Aut| over the first.  The class counts of (5,1),
# (4,4) and (5,3), past the pairing walk's reach, are those recorded from a
# generator keyed by the rooted-map code (ROADMAP, Recent: ribbon graphs by
# leg insertion); their second entries were frozen from enumerate_graphs,
# and Kontsevich's identity checks them
CLASS_COUNTS = {
    (0, 2): (1, 1),
    (1, 1): (2, 2),
    (1, 3): (1, 2),
    (2, 2): (5, 16),
    (2, 0): (4, 8),
    (3, 1): (24, 144),
    (2, 4): (1, 24),
    (3, 3): (12, 384),
    (4, 0): (64, 1536),
    (5, 1): (768, 92160),
    (4, 4): (35, 18432),
    (5, 3): (560, 403200),
}

# sha256 prefixes of the serialised enumerations of every valid signature
# with at most 14 darts; (3,1) and (2,4) were frozen before the rooted-map
# canonical form replaced the per-labelling gauge minimum, and the rest by the
# pairing walk
ENUMERATION_DIGESTS = {
    (0, 2): "e208f941670d23b6",
    (1, 1): "0353fa64202b3c8a",
    (1, 3): "cb874b8a71d9cdb6",
    (2, 0): "ff30c17763fc4d47",
    (2, 2): "e244321f5566a8b1",
    (2, 4): "19f70dc6d7f10786",
    (3, 1): "6915affc5dcb1001",
    (3, 3): "046f0b83f2c60773",
    (3, 5): "9058373133d15a70",
    (4, 0): "8deba63795fa3ecb",
    (4, 2): "833e558187746047",
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


@functools.cache
def graphs_of(mn: tuple[int, int]) -> tuple[RibbonGraph, ...]:
    return tuple(enumerate_graphs(*mn))


def weight(g: RibbonGraph) -> Fraction:
    """The vertex-labelled graphs g stands for."""
    return Fraction(math.factorial(g.m) * math.factorial(g.n), g.aut)


@pytest.mark.parametrize("mn", sorted(CLASS_COUNTS))
def test_frozen_class_counts(mn: tuple[int, int]):
    faces_only, vertex_labelled = CLASS_COUNTS[mn]
    assert len(graphs_of(mn)) == faces_only
    assert sum(map(weight, graphs_of(mn))) == vertex_labelled


@pytest.mark.parametrize("key", sorted(ENUMERATION_DIGESTS))
def test_enumeration_bytes_pinned(key: tuple[int, int]):
    blob = json.dumps([[list(g.alpha), list(g.face_of_dart)] for g in graphs_of(key)], separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == ENUMERATION_DIGESTS[key]


def gauge_images(g: RibbonGraph, full: bool):
    """Every (alpha, face labels) a sigma-preserving dart relabelling carries
    g to: each trivalent triple rotated, and unless vertex labels are kept
    (full) the triples and the univalent darts permuted among themselves."""
    m, n, d = g.m, g.n, g.darts
    blocks = [tuple(range(m))] if full else permutations(range(m))
    unis = [tuple(range(n))] if full else permutations(range(n))
    for block, rots, uni in product(blocks, product(range(3), repeat=m), unis):
        tau = [3 * block[i] + (off + rots[i]) % 3 for i in range(m) for off in range(3)]
        tau += [3 * m + j for j in uni]
        alpha, labels = [0] * d, [0] * d
        for x in range(d):
            alpha[tau[x]] = tau[g.alpha[x]]
            labels[tau[x]] = g.face_of_dart[x]
        yield tuple(alpha), tuple(labels)


# every valid signature with m + n <= 4, then the two where one class
# stands for the most vertex-labelled graphs
ORBIT_SIGNATURES = [(0, 2), (1, 1), (1, 3), (2, 0), (2, 2), (3, 1), (4, 0), (2, 4), (3, 3)]


@pytest.mark.parametrize("mode", ["faces-only", "full"])
@pytest.mark.parametrize("mn", ORBIT_SIGNATURES)
def test_each_printed_graph_is_least_in_its_orbit(mn: tuple[int, int], mode: str):
    """Each printed graph is the least of its orbit under every relabelling,
    which fixes it g.aut times ("faces-only"), and so under the rotations of
    the trivalent triples alone, which fix it once ("full").  Its orbit of
    3^m m! n! / |Aut| graphs then splits into m! n! / |Aut| rotation orbits,
    the vertex-labelled graphs it stands for in hat_F and the fit."""
    graphs = graphs_of(mn)
    printed = [(g.alpha, g.face_of_dart) for g in graphs]
    # each is the least of its orbit and no two are equal, so no two
    # printed graphs share an orbit
    assert printed == sorted(set(printed))
    for g, own in zip(graphs, printed):
        images = list(gauge_images(g, mode == "full"))
        assert min(images) == own
        assert images.count(own) == (1 if mode == "full" else g.aut)


def test_generator_equals_the_pairing_walk():
    """Leg insertion gives the walk's classes, least members, aut and order
    on every valid signature with at most 14 darts."""
    for mn in sorted(ENUMERATION_DIGESTS):
        assert list(graphs_of(mn)) == walk_graphs(*mn)


def test_enumerate_refuses_oversized_signature(monkeypatch):
    """The estimate (3m+n-1)!! l! / (3^m m! n!) is refused past MAX_CLASSES
    before any map is grown: (7,1) at 21!! 5! / (3^7 7!), about 149687,
    stays allowed, and (8,0) at about 860698 is refused."""
    estimate = Fraction(math.prod(range(21, 0, -2)) * math.factorial(5), 3**7 * math.factorial(7))
    assert round(estimate) == 149687 <= MAX_CLASSES

    def unused(m, n):
        raise AssertionError("maps grown before the request was refused")

    monkeypatch.setattr(ribbon_mod, "_maps", unused)
    with pytest.raises(AssertionError, match="maps grown"):
        enumerate_graphs(7, 1)
    with pytest.raises(ValueError, match="is estimated at 860698 graph classes, more than the limit of 200000"):
        enumerate_graphs(8, 0)


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_graphs(1, 2)  # odd m - n


@pytest.mark.parametrize("mn", sorted(CLASS_COUNTS))
def test_graph_structural_invariants(mn: tuple[int, int]):
    m, n = mn
    l = LayerSignature(m, n).faces
    for g in graphs_of(mn):
        d = g.darts
        assert d == 3 * m + n
        # alpha is a fixed-point-free involution
        assert all(g.alpha[g.alpha[x]] == x and g.alpha[x] != x for x in range(d))
        face = _face_labels(g.sigma, g.alpha)
        assert max(face) + 1 == l
        # face labels are a bijection onto 0..l-1 and constant on faces
        assert sorted(set(g.face_of_dart)) == list(range(l))
        assert len(set(zip(face, g.face_of_dart))) == l
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


@pytest.mark.parametrize("mn", [(0, 2), (1, 1), (1, 3), (2, 2), (2, 0), (3, 1), (3, 3), (4, 0)])
def test_lattice_count_matches_brute_force(mn: tuple[int, int]):
    """(4,0) has graphs with 2 and 3 free columns, each counted by the
    loop over free totals and the one pass over the forced columns."""
    l = LayerSignature(*mn).faces
    # (3,1) needs widths summing to at least 5 and counts zero on all of
    # {1,2}^3, and (3,3) counts zero on all of {1,2,3}^2
    sizes = (2, 3, 4) if mn in ((3, 1), (3, 3)) else (1, 2, 3)
    nonzero = 0
    for g in graphs_of(mn):
        for widths in product(sizes, repeat=l):
            count = exact_lattice_count(g, widths)
            assert count == brute_lattice_count(g, widths)
            nonzero += count > 0
    assert nonzero > 0


def test_lattice_count_depends_only_on_edge_columns():
    """Relabelling darts at random permutes the edges, those with equal
    columns among them, and leaves the count alone; graphs sharing their
    edge-column multiset, among them the images of each graph under vertex
    relabellings, share their counts (what leading_part_fit uses)."""
    rng = random.Random(3)
    by_columns: dict[tuple, list[RibbonGraph]] = {}
    for g in graphs_of((3, 1)):
        images = rng.sample(sorted(set(gauge_images(g, False))), 6)
        members = [g] + [RibbonGraph(g.m, g.n, alpha, labels, g.aut) for alpha, labels in images]
        by_columns.setdefault(edge_form_multiset(g), []).extend(members)
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
        shuffled = RibbonGraph(g.m, g.n, tuple(alpha), tuple(faces), g.aut)
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


def test_lattice_size_estimate():
    """About 4e-6 s per tuple of free totals, prod / f! tuples for f free
    columns, refused above 15 s.  A request of many counts passes the
    prices so far and gets their sum back, refused once it passes 15 s."""
    check_lattice_size([])
    check_lattice_size([3 * 10**6])
    check_lattice_size([250, 250, 250])
    for free_totals, estimate in [([5 * 10**6], "about 20 s"), ([3000, 3000], "about 18 s"), ([10**200] * 2, "more than 10^308 s")]:
        with pytest.raises(ValueError) as refused:
            check_lattice_size(free_totals)
        assert str(refused.value).endswith(f"would take {estimate}")
    assert check_lattice_size([250, 250, 250], 2) == pytest.approx(2 + 4e-6 * 250**3 / 6)
    with pytest.raises(ValueError) as refused:
        check_lattice_size([3 * 10**6], 12)
    assert str(refused.value).endswith("would take more than 15 s")


def graphs_by_form(mn: tuple[int, int]) -> dict[tuple, list[RibbonGraph]]:
    table: dict[tuple, list[RibbonGraph]] = {}
    for g in enumerate_graphs(*mn):
        table.setdefault(edge_form_multiset(g), []).append(g)
    return table


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
            math.comb(gap - 1, 2) if gap > 0 else 0
        )
        assert exact_lattice_count(two_cross_2[0], (w1, w2)) == (
            (2 * w1 - 1) * (gap - 1) if gap > 1 else 0
        )
        assert exact_lattice_count(balanced[0], (w1, w2)) == (min(w1, w2) - 1) ** 2


def test_laplace_transform_of_single_graph():
    g = enumerate_graphs(0, 2)[0]
    # one edge bordered twice by the single face: 2/(2 lambda_1)
    term = laplace_transform(g)
    assert term == (1, Counter({(1,): 1}))
    assert same_transform([term], [(Fraction(1), Counter([(1,)]))])


def test_laplace_of_polynomial_monomial_rule():
    # w^k -> k!/lambda^{k+1}; absent variables contribute 1/lambda
    assert laplace_of_polynomial(Polynomial({(2,): 1})) == [(2, Counter({(1,): 3}))]
    assert laplace_of_polynomial(Polynomial({(0, 0): 1})) == [(1, Counter({(1, 0): 1, (0, 1): 1}))]
    assert laplace_of_polynomial(Polynomial()) == []


def test_laplace_of_polynomial_is_additive():
    p = Polynomial({(2, 0): 1})
    q = Polynomial({(0, 2): 1})
    both = laplace_of_polynomial(Polynomial({(2, 0): 1, (0, 2): 1}))
    assert same_transform(both, laplace_of_polynomial(p) + laplace_of_polynomial(q))
    assert not same_transform(both, laplace_of_polynomial(p))


def test_same_transform_over_different_denominators():
    # 1/(l1 l2) = 1/(l1 (l1 + l2)) + 1/(l2 (l1 + l2))
    s = (1, 1)
    lhs = [(Fraction(1), Counter([(1, 0), (0, 1)]))]
    rhs = [(Fraction(1), Counter([(1, 0), s])), (Fraction(1), Counter([(0, 1), s]))]
    assert same_transform(lhs, rhs)
    assert not same_transform(lhs, rhs[:1])
    assert not same_transform(lhs, [(Fraction(2), Counter([(1, 0), s]))])


def test_same_transform_refuses_zero_form():
    # a zero form would make the common denominator zero and pass any check
    with pytest.raises(ValueError):
        same_transform([(Fraction(1), Counter([(0, 0)]))], [])
    with pytest.raises(ValueError):
        same_transform([], [(Fraction(1), Counter([(1, 0), (0, 0)]))])


def test_hat_F_2_2_closed_form():
    # 4 (lambda_1^2 + lambda_2^2) / (lambda_1^3 lambda_2^3)
    target = [
        (Fraction(4), Counter({(1, 0): 1, (0, 1): 3})),
        (Fraction(4), Counter({(1, 0): 3, (0, 1): 1})),
    ]
    assert same_transform(hat_F(2, 2), target)
    for dropped in range(2):
        assert not same_transform(hat_F(2, 2), target[:dropped] + target[dropped + 1:])


def test_hat_F_transform_consistency():
    # the transform of each graph has e = (3m+n)/2 forms, with multiplicity
    for g in enumerate_graphs(2, 2):
        _, forms = laplace_transform(g)
        assert sum(forms.values()) == 4


@pytest.mark.parametrize("mn", [(0, 2), (1, 1), (2, 0), (1, 3), (2, 2), (3, 1), (3, 3), (4, 0)])
def test_pole_recurrence_small(mn: tuple[int, int]):
    assert verify_pole_recurrence(*mn)


@pytest.mark.parametrize(
    "mn", [(0, 2), (1, 1), (2, 0), (1, 3), (2, 2), (3, 1), (3, 3), (2, 4), (4, 0), (4, 2), (4, 4), (5, 1), (5, 3)]
)
def test_transform_of_local_polynomial_is_hat_F(mn: tuple[int, int]):
    # Kontsevich's identity: the Laplace transform of F_{m,n} is the sum of
    # the graph transforms over the vertex-labelled graphs
    sig = LayerSignature(*mn)
    assert same_transform(laplace_of_polynomial(f_closed(sig)), hat_F(*mn))


@pytest.mark.parametrize("index", [0, -1])
def test_perturbed_hat_F_is_refused(index: int):
    # one coefficient of hat_F(4,2) off by 1/7 breaks Kontsevich's identity
    lhs = laplace_of_polynomial(f_closed(LayerSignature(4, 2)))
    terms = hat_F(4, 2)
    c, forms = terms[index]
    terms[index] = (c + Fraction(1, 7), forms)
    assert not same_transform(lhs, terms)


def _dict_polynomials():
    """Random integer polynomials in 2 variables as {exponents: int} dicts."""
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(exps, st.integers(-5, 5), max_size=4)


@given(_dict_polynomials(), _dict_polynomials(), _dict_polynomials(), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_dict_product_is_a_ring_product(p: dict, q: dict, r: dict, point: tuple[int, int]):
    # same_transform's one polynomial product: commutative, associative and
    # multiplicative under evaluation
    times = ribbon_mod._times

    def value(poly: dict) -> int:
        return sum(c * point[0] ** a * point[1] ** b for (a, b), c in poly.items())

    def nonzero(poly: dict) -> dict:
        return {k: c for k, c in poly.items() if c}

    assert nonzero(times(p, q)) == nonzero(times(q, p))
    assert nonzero(times(times(p, q), r)) == nonzero(times(p, times(q, r)))
    assert value(times(p, q)) == value(p) * value(q)


@pytest.mark.parametrize("key", sorted(DIRECTION_DIGESTS))
def test_sample_directions_pinned(key: tuple[int, int]):
    directions = list(_directions(*key))
    assert hashlib.sha256(repr(directions).encode()).hexdigest()[:16] == DIRECTION_DIGESTS[key]
    assert all(0 < x <= key[1] for u in directions for x in u)


@pytest.mark.parametrize("mn", [(0, 2), (1, 1), (1, 3)])
def test_leading_part_fit_small(mn: tuple[int, int]):
    assert leading_part_fit(*mn) == f_closed(LayerSignature(*mn))


def test_leading_part_fit_checks_each_ray(monkeypatch):
    """A count that misses only at a ray's last sample, the second of the
    two samples past the 2a + 1 unknowns, fails the fit."""
    m, n = 2, 2
    a = LayerSignature(m, n).half_degree
    t_last = max(2, (3 * m + n) // 2) + 2 * (2 * a + 2)
    real = ribbon_mod._lattice_counter

    def missing(g):
        free_totals, count = real(g)
        # the rays are t * u for primitive u, so the gcd of the widths is t
        return free_totals, lambda widths: count(widths) + (math.gcd(*widths) == t_last)

    monkeypatch.setattr(ribbon_mod, "_lattice_counter", missing)
    with pytest.raises(ValueError, match="inconsistent"):
        leading_part_fit(m, n)


@pytest.mark.parametrize("mn", [(0, 2), (1, 1), (2, 0)])
@pytest.mark.parametrize("point", [0, 1])
def test_leading_part_fit_reads_a_constant_at_two_points(monkeypatch, mn: tuple[int, int], point: int):
    """At a = 0 the constant is read at widths (1, 2, 4, ...) and
    (3, 9, 27, ...), off every wall; a count that misses at either one
    fails the fit."""
    l = LayerSignature(*mn).faces
    missed = [tuple(2**i for i in range(l)), tuple(3 ** (i + 1) for i in range(l))][point]
    real = ribbon_mod._lattice_counter

    def missing(g):
        free_totals, count = real(g)
        return free_totals, lambda widths: count(widths) + (tuple(widths) == missed)

    assert leading_part_fit(*mn) == f_closed(LayerSignature(*mn))
    monkeypatch.setattr(ribbon_mod, "_lattice_counter", missing)
    with pytest.raises(ValueError, match="inconsistent"):
        leading_part_fit(*mn)


def test_leading_part_fit_skips_rays_that_add_no_rank(monkeypatch):
    """A ray whose row adds no rank is skipped until the rows are full: with
    the direction (1, 2, 4) of (3,1) given four times ahead of the rest, the
    fit still takes rows of full rank and equals the closed form."""
    real = ribbon_mod._directions

    def repeating(l, radius):
        yield from [(1, 2, 4)] * 4
        yield from real(l, radius)

    monkeypatch.setattr(ribbon_mod, "_directions", repeating)
    assert leading_part_fit(3, 1) == f_closed(LayerSignature(3, 1))


def test_leading_part_fit_refuses_short_rank_before_counting(monkeypatch):
    """At (2,2) the rays with entries up to 1, the one ray (1, 1), reach
    rank 1 of the 2 unknowns, which is known from the basis alone, so the
    fit refuses before it sets up any lattice counter."""

    def unused(g):
        raise AssertionError("a fit its rays cannot determine builds no counter")

    monkeypatch.setattr(ribbon_mod, "SAMPLE_RADIUS", 1)
    monkeypatch.setattr(ribbon_mod, "_lattice_counter", unused)
    with pytest.raises(ValueError, match=r"rank 1 of the 2 unknowns at \(2,2\)"):
        leading_part_fit(2, 2)


def test_leading_part_fit_stops_pricing_past_the_limit(monkeypatch):
    """(7,1) is refused by the running sum of its counts' prices before the
    last of its column classes is priced, and before any count."""
    classes = []
    prepared = []
    real_classes, real_counter = ribbon_mod._column_classes, ribbon_mod._lattice_counter

    def recording(graphs):
        classes.extend(real_classes(graphs))
        return classes

    def pricing_only(g):
        prepared.append(g)

        def unused(widths):
            raise AssertionError("a fit past the limit makes no count")

        return real_counter(g)[0], unused

    monkeypatch.setattr(ribbon_mod, "_column_classes", recording)
    monkeypatch.setattr(ribbon_mod, "_lattice_counter", pricing_only)
    with pytest.raises(ValueError, match="these widths would take more than 15 s"):
        leading_part_fit(7, 1)
    assert 0 < len(prepared) < len(classes)


def test_leading_part_fit_prepares_one_counter_per_column_class(monkeypatch):
    """The fit sets up one lattice counter for each of the 21 column
    classes of (3,1) and counts every width through them."""
    prepared = []
    real = ribbon_mod._lattice_counter

    def counting(g):
        prepared.append(edge_form_multiset(g))
        return real(g)

    def unused(g, widths):
        raise AssertionError("the fit counts through its prepared counters")

    monkeypatch.setattr(ribbon_mod, "_lattice_counter", counting)
    monkeypatch.setattr(ribbon_mod, "exact_lattice_count", unused)
    assert leading_part_fit(3, 1) == f_closed(LayerSignature(3, 1))
    assert len(prepared) == len(set(prepared)) == 21


def test_lattice_counts_are_priced_once(monkeypatch):
    """The fit prices each of the 525 counts of (3,1) once, all before the
    first count, and the counts price nothing themselves; a lone count is
    priced once too."""
    events = []
    real_price, real_counter = ribbon_mod.check_lattice_size, ribbon_mod._lattice_counter

    def pricing(totals, spent=0):
        events.append("price")
        return real_price(totals, spent)

    def recording(g):
        free_totals, count = real_counter(g)
        return free_totals, lambda widths: events.append("count") or count(widths)

    monkeypatch.setattr(ribbon_mod, "check_lattice_size", pricing)
    monkeypatch.setattr(ribbon_mod, "_lattice_counter", recording)
    assert leading_part_fit(3, 1) == f_closed(LayerSignature(3, 1))
    assert events == ["price"] * 525 + ["count"] * 525
    events.clear()
    assert exact_lattice_count(enumerate_graphs(1, 1)[0], (3, 2)) == 1
    assert events == ["price", "count"]


@pytest.mark.parametrize("mn", [(2, 2), (3, 1), (4, 0)])
def test_labellings_walked_once_per_unlabelled_map(monkeypatch, mn: tuple[int, int]):
    """enumerate_graphs walks the l! face labellings once per map with
    unlabelled faces: as often as there are unlabelled maps, which are
    the printed graphs up to relabelling darts and faces."""
    walks = []
    real = ribbon_mod.permutations

    def counting(items):
        walks.append(items)
        return real(items)

    monkeypatch.setattr(ribbon_mod, "permutations", counting)
    graphs = enumerate_graphs(*mn)
    maps = {min(alpha for alpha, _ in gauge_images(g, False)) for g in graphs}
    assert len(walks) == len(maps)


def test_ribbon_graph_is_a_frozen_value():
    g = graphs_of((1, 1))[1]
    assert repr(g) == "RibbonGraph(m=1, n=1, alpha=(1, 0, 3, 2), face_of_dart=(1, 0, 1, 1), aut=1)"
    same = RibbonGraph(1, 1, (1, 0, 3, 2), (1, 0, 1, 1), 1)
    assert same == g and hash(same) == hash(g) == hash((1, 1, (1, 0, 3, 2), (1, 0, 1, 1), 1))
    assert g != RibbonGraph(1, 1, (1, 0, 3, 2), (1, 0, 1, 1), 2)
    assert g != (1, 1, (1, 0, 3, 2), (1, 0, 1, 1), 1)
    with pytest.raises(AttributeError):
        g.aut = 2
    with pytest.raises(AttributeError):
        del g.alpha
    with pytest.raises(TypeError):
        RibbonGraph(1, 1, (1, 0, 3, 2), (1, 0, 1, 1))


def test_fully_labelled_totals():
    """Frozen totals of the vertex-labelled count at (2,2), each class
    weighted by the vertex-labelled graphs it stands for; relabelling the
    faces permutes the classes, so the total is symmetric in the widths."""
    graphs = graphs_of((2, 2))

    def total(w1: int, w2: int) -> Fraction:
        return sum(weight(g) * exact_lattice_count(g, (w1, w2)) for g in graphs)

    assert total(11, 13) == 442
    assert total(13, 11) == 442
    assert total(9, 16) == 520
    assert total(5, 8) == total(8, 5)
