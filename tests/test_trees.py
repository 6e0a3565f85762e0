"""Decorated trees, automorphisms, the zeta operator, and the volume."""

from __future__ import annotations

import bisect
import hashlib
import json
import pickle
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from pillowcount import layers
from pillowcount.polynomials import Polynomial
from pillowcount.rationals import PiValue, multinomial, zeta_even
import pillowcount.series as series_mod
import pillowcount.trees as trees_mod
from pillowcount.series import SERIES_MAX_K, check_series_size, volume, volume_series
from pillowcount.trees import (
    PER_TREE_MAX_K,
    DecoratedTree,
    _free_trees,
    aut_order,
    check_per_tree_size,
    enumerate_decorated_trees,
    local_product,
    tree_contribution,
    tree_subtotals,
)

import zeta_lemma
from oracles import rerooted_layer_text, zeta_operator
from zeta_lemma import zeta_lemma_ratio, zeta_lemma_sum_k1, zeta_lemma_sum_k2


def test_decorated_tree_validation():
    with pytest.raises(ValueError):
        DecoratedTree(1, (), (0,))
    with pytest.raises(ValueError):
        DecoratedTree(3, ((0, 1),), (0, 0, 0))  # not a tree
    with pytest.raises(ValueError):
        DecoratedTree(3, ((0, 1), (0, 1)), (0, 0, 0))  # disconnected/multi-edge
    with pytest.raises(ValueError):
        DecoratedTree(2, ((0, 1),), (0,))  # wrong decoration length
    with pytest.raises(ValueError):
        DecoratedTree(2, ((0, 0),), (0, 0))  # loop
    with pytest.raises(ValueError, match="not connected"):
        DecoratedTree(5, ((0, 1), (1, 2), (0, 2), (3, 4)), (0, 0, 0, 0, 0))  # cycle plus an edge
    # valence-4 vertex needs decoration >= 1
    star_edges = ((0, 1), (0, 2), (0, 3), (0, 4))
    with pytest.raises(ValueError):
        DecoratedTree(5, star_edges, (0, 0, 0, 0, 0))
    DecoratedTree(5, star_edges, (1, 0, 0, 0, 0))


def test_tree_values_are_frozen():
    """DecoratedTree and TreeContribution keep the equality, hash, repr,
    immutability and checks they had as dataclasses; the cached canonical
    form takes no part in them."""
    t = DecoratedTree(3, ((2, 1), (1, 0)), (1, 0, 0))
    assert repr(t) == "DecoratedTree(vertices=3, edges=((0, 1), (1, 2)), decorations=(1, 0, 0))"
    same = DecoratedTree(3, ((0, 1), (1, 2)), (1, 0, 0), _canon=(("other",), 7))
    assert same == t and hash(same) == hash(t) == hash((3, ((0, 1), (1, 2)), (1, 0, 0)))
    assert t != DecoratedTree(3, ((0, 1), (1, 2)), (0, 0, 1))
    assert pickle.loads(pickle.dumps(t)) == t
    with pytest.raises(AttributeError):
        t.vertices = 4
    with pytest.raises(AttributeError):
        del t._canon
    c = tree_contribution(DecoratedTree(2, ((0, 1),), (1, 0)), 1)
    assert repr(c) == (
        "TreeContribution(tree=DecoratedTree(vertices=2, edges=((0, 1),), decorations=(1, 0)), K=1, aut=1, "
        "multinomial_factor=Fraction(10, 1), zeta_terms=(((4,), Fraction(40, 1)),), "
        "value=PiValue(coefficient=Fraction(4, 9), pi_power=4))"
    )
    assert c == tree_contribution(DecoratedTree(2, ((0, 1),), (1, 0)), 1) and hash(c) == hash(tree_contribution(c.tree, 1))
    with pytest.raises(AttributeError):
        c.K = 2
    with pytest.raises(ValueError, match="wrong pi power"):
        type(c)(c.tree, 2, c.aut, c.multinomial_factor, c.zeta_terms, c.value)


def test_layer_signatures_from_decorations():
    t = DecoratedTree(2, ((0, 1),), (1, 0))
    # a=1, valence 1 -> (m,n) = (1,3); a=0, valence 1 -> (0,2)
    assert (t.layer(0).m, t.layer(0).n) == (1, 3)
    assert (t.layer(1).m, t.layer(1).n) == (0, 2)
    assert t.K == 1
    assert t.k == 1


def test_canonical_key_is_relabelling_invariant():
    a = DecoratedTree(3, ((0, 1), (1, 2)), (0, 0, 1))
    b = DecoratedTree(3, ((2, 1), (1, 0)), (1, 0, 0))
    assert a._canon[0] == b._canon[0]
    c = DecoratedTree(3, ((0, 1), (1, 2)), (1, 0, 0))
    assert a._canon[0] == c._canon[0]  # mirror image
    d = DecoratedTree(3, ((0, 1), (1, 2)), (0, 1, 0))
    assert a._canon[0] != d._canon[0]


@pytest.mark.parametrize("K", range(1, 9))
def test_layer_text_matches_the_rerooted_rendering(K: int):
    for t in enumerate_decorated_trees(K):
        assert t.layer_text() == rerooted_layer_text(t)
        # the same tree relabelled back to front builds its own canonical form
        last = t.vertices - 1
        mirror = DecoratedTree(
            t.vertices, [(last - a, last - b) for a, b in t.edges], t.decorations[::-1]
        )
        assert mirror.layer_text() == t.layer_text()


@pytest.mark.parametrize("K", range(1, 9))
def test_every_tree_term_is_positive(K: int):
    # the renderers print no sign and no zero term, which holds while these do
    for t in enumerate_decorated_trees(K):
        c = tree_contribution(t, K)
        assert c.multinomial_factor > 0 and c.value.coefficient > 0
        assert all(coeff > 0 for _, coeff in c.zeta_terms)
        assert all(coeff > 0 for _, coeff in local_product(t).items())


def test_aut_orders():
    path = DecoratedTree(2, ((0, 1),), (1, 0))
    assert aut_order(path) == 1
    cherry = DecoratedTree(3, ((0, 1), (0, 2)), (0, 0, 0))
    assert aut_order(cherry) == 2
    star = DecoratedTree(4, ((0, 1), (0, 2), (0, 3)), (1, 0, 0, 0))
    assert aut_order(star) == 6
    # two (1,1) centers each carrying one leaf: swapping the halves
    dumbbell = DecoratedTree(4, ((0, 1), (0, 2), (1, 3)), (0, 0, 0, 0))
    assert aut_order(dumbbell) == 2


def test_enumeration_counts_K1_K2():
    assert len(enumerate_decorated_trees(1)) == 2
    assert len(enumerate_decorated_trees(2)) == 6
    with pytest.raises(ValueError):
        enumerate_decorated_trees(0)


def prufer_tree(seq: tuple[int, ...], v: int) -> tuple[tuple[int, int], ...]:
    """Labelled tree on 0..v-1 from a Prufer sequence of length v-2."""
    degree = [1] * v
    for x in seq:
        degree[x] += 1
    edges = []
    seq_list = list(seq)
    leaves = sorted(i for i in range(v) if degree[i] == 1)
    for x in seq_list:
        leaf = leaves.pop(0)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            bisect.insort(leaves, x)
    a, b = leaves[0], leaves[1]
    edges.append((a, b))
    return tuple(edges)


def all_labelled_decorated(K: int, v: int) -> list[tuple[tuple, tuple]]:
    """Every labelled decorated tree on v vertices for the given K."""
    budget = K + 2 - v
    if budget < 0:
        return []
    out = []
    if v == 2:
        trees = [((0, 1),)]
    else:
        trees = [prufer_tree(seq, v) for seq in product(range(v), repeat=v - 2)]
    for edges in trees:
        degree = [0] * v
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        for decorations in product(range(budget + 1), repeat=v):
            if sum(decorations) != budget:
                continue
            if any(decorations[u] < degree[u] - 3 for u in range(v)):
                continue
            out.append((edges, decorations))
    return out


@pytest.mark.parametrize("K", [1, 2, 3])
def test_enumeration_against_labelled_count(K: int):
    """Sum of v!/|Aut| over isomorphism classes equals the labelled count."""
    classes = enumerate_decorated_trees(K)
    by_v: dict[int, Fraction] = {}
    for t in classes:
        by_v[t.vertices] = by_v.get(t.vertices, Fraction(0)) + Fraction(
            factorial(t.vertices), aut_order(t)
        )
    for v in range(2, K + 3):
        labelled = all_labelled_decorated(K, v)
        assert by_v.get(v, Fraction(0)) == len(labelled)
        # and no two enumerated classes coincide
        keys = [t._canon[0] for t in classes if t.vertices == v]
        assert len(keys) == len(set(keys))


def test_zeta_operator_values():
    # w^3 with k=1, K=1: 2/3! * 3! * zeta(4) = 2 zeta(4) = pi^4/45
    assert zeta_operator((3,)) == PiValue(Fraction(1, 45), 4)
    # w1 w2 with k=2, K=1: 2/3! * 1 * zeta(2)^2
    expected = Fraction(1, 3) * zeta_even(2) * zeta_even(2)
    assert zeta_operator((1, 1)) == expected


def test_assembly_refuses_bad_monomials(monkeypatch):
    # the K = 2 chain (1,3)--(1,1)--(0,2) with F = w at each leaf and F = 1
    # in the middle: w1^2 w2^2 has the right degree but even exponents
    chain = DecoratedTree(3, ((0, 1), (1, 2)), (1, 0, 0))
    monkeypatch.setattr(layers, "f_closed", lambda sig: Polynomial({(1,) if sig.m < sig.n else (0, 0): 1}))
    with pytest.raises(ValueError, match="unsupported zeta argument 3"):
        tree_contribution(chain, 2)
    # the K = 1 edge with F = w^2 at both ends: w^5 lies off the shell of degree 3
    edge = DecoratedTree(2, ((0, 1),), (1, 0))
    monkeypatch.setattr(layers, "f_closed", lambda sig: Polynomial({(2,): 1}))
    with pytest.raises(ValueError, match="homogeneity gate"):
        tree_contribution(edge, 1)


# frozen per-tree data: layer_text -> (c factor, zeta terms, value)
K1_TABLE = {
    "(0,2)--(1,3)": (
        Fraction(10),
        (((4,), Fraction(40)),),
        PiValue(Fraction(4, 9), 4),
    ),
    "(1,1)[(0,2),(0,2)]": (
        Fraction(15),
        (((2, 2), Fraction(20)),),
        PiValue(Fraction(5, 9), 4),
    ),
}

K2_TABLE = {
    "(0,2)--(2,4)": (Fraction(15), (((6,), Fraction(60)),), PiValue(Fraction(4, 63), 6)),
    "(1,3)--(1,3)": (Fraction(20), (((6,), Fraction(80)),), PiValue(Fraction(16, 189), 6)),
    "(1,1)[(0,2),(1,3)]": (
        Fraction(120),
        (((2, 4), Fraction(48)),),
        PiValue(Fraction(4, 45), 6),
    ),
    "(2,2)[(0,2),(0,2)]": (
        Fraction(45),
        (((2, 4), Fraction(72)),),
        PiValue(Fraction(2, 15), 6),
    ),
    "(1,1)[(0,2)]--(1,1)[(0,2)]": (
        Fraction(180),
        (((2, 2, 2), Fraction(24)),),
        PiValue(Fraction(1, 9), 6),
    ),
    "(2,0)[(0,2),(0,2),(0,2)]": (
        Fraction(15),
        (((2, 2, 2), Fraction(4)),),
        PiValue(Fraction(1, 54), 6),
    ),
}


@pytest.mark.parametrize("K,table", [(1, K1_TABLE), (2, K2_TABLE)])
def test_per_tree_contributions(K: int, table: dict):
    contributions = {
        c.tree.layer_text(): c
        for c in (tree_contribution(t, K) for t in enumerate_decorated_trees(K))
    }
    assert set(contributions) == set(table)
    for text, (c_factor, zeta_terms, value) in table.items():
        got = contributions[text]
        assert got.multinomial_factor == c_factor
        assert got.zeta_terms == zeta_terms
        assert got.value == value


def test_tree_contribution_rejects_wrong_K():
    t = enumerate_decorated_trees(1)[0]
    with pytest.raises(ValueError):
        tree_contribution(t, 2)


def per_monomial_contribution(t: DecoratedTree, K: int) -> tuple:
    """(local product, aut, c, zeta terms, value) by multiplying Fraction
    polynomials as dicts and applying the zeta operator to every monomial."""

    def times(p: dict, q: dict) -> dict:
        out: dict = {}
        for ka, ca in p.items():
            for kb, cb in q.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                out[key] = out.get(key, 0) + ca * cb
        return out

    k = t.k
    terms: dict = {(0,) * k: 1}
    for v in range(t.vertices):
        # F's variable j is the width of the vertex's j-th incident edge
        incident = [i for i, e in enumerate(t.edges) if v in e]
        f = layers.f_closed(t.layer(v))
        placed = {tuple(dict(zip(incident, exps)).get(i, 0) for i in range(k)): c for exps, c in f.items()}
        terms = times(terms, placed)
    local = Polynomial(terms)
    poly = Polynomial(times({(1,) * k: 1}, terms))
    assert {sum(exps) for exps, _ in poly.items()} == {2 * K + 2 - k}
    aut = aut_order(t)
    ms = [t.layer(v).m for v in range(t.vertices)]
    ns = [t.layer(v).n for v in range(t.vertices)]
    c_factor = Fraction(multinomial(K, ms) * multinomial(K + 4, ns), aut)
    scale = 2**k * c_factor
    value = PiValue(Fraction(0), 2 * K + 2)
    zeta_acc: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in poly.items():
        value = value + scale * coeff * zeta_operator(exps)
        args = tuple(sorted(e + 1 for e in exps))
        pref = Fraction(2, factorial(sum(e - 1 for e in exps) + 2 * k - 1))
        for e in exps:
            pref *= factorial(e)
        zeta_acc[args] = zeta_acc.get(args, Fraction(0)) + scale * coeff * pref
    return local, aut, c_factor, tuple(sorted(zeta_acc.items())), value


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_contributions_match_per_monomial_route(K: int):
    for t in enumerate_decorated_trees(K):
        local, aut, c_factor, zeta_terms, value = per_monomial_contribution(t, K)
        got = tree_contribution(t, K)
        assert local_product(t) == local
        assert (got.aut, got.multinomial_factor, got.zeta_terms, got.value) == (
            aut,
            c_factor,
            zeta_terms,
            value,
        )


def test_assembly_refuses_non_integer_local_coefficients(monkeypatch):
    t = DecoratedTree(2, ((0, 1),), (1, 0))
    monkeypatch.setattr(layers, "f_closed", lambda sig: Polynomial({(2,): Fraction(1, 2)}))
    with pytest.raises(ValueError, match="non-integer coefficient 1/2"):
        tree_contribution(t, 1)


def test_free_tree_counts_and_labelling():
    counts = [sum(1 for _ in _free_trees(v)) for v in range(2, 13)]
    assert counts == [1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    # sha256 of every edge list in order, frozen from the networkx generator
    # that this port replaced; the labels fix the w_i of the latex table
    trees = [[sorted(e) for e in sorted(edges)] for v in range(2, 13) for edges in _free_trees(v)]
    blob = json.dumps(trees, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == "88977ff755324c7b2bf7425c3bf9595f7481ff896d5c1f29491751aafee5fe3c"


def test_local_product_example():
    # the K=2 chain (0,2)--(2,4): F_{0,2}(w1) * F_{2,4}(w1) = w1^4
    for t in enumerate_decorated_trees(2):
        if t.layer_text() == "(0,2)--(2,4)":
            poly = local_product(t)
            assert poly.to_text() == "w1^4"
            break
    else:
        pytest.fail("chain tree not found")


@pytest.mark.parametrize("K", range(1, 16))
def test_volume_closed_form(K: int):
    assert volume(K) == PiValue(Fraction(1, 2 ** (K - 1)), 2 * K + 2)


@pytest.mark.parametrize("K", range(1, 10))
def test_series_matches_enumerated_trees(K: int):
    total, by_k = volume_series(K)
    enumerated = tree_subtotals(K)
    assert sorted(enumerated) == list(range(1, K + 2))
    assert by_k == enumerated
    assert total == sum(enumerated.values()) == Fraction(1, 2 ** (K - 1))


def test_series_rejects_bad_K():
    with pytest.raises(ValueError):
        volume_series(0)
    with pytest.raises(ValueError):
        volume(0)


def test_enumeration_builds_only_kept_trees(monkeypatch):
    built = []
    real = DecoratedTree.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(DecoratedTree, "__post_init__", counting)
    trees = enumerate_decorated_trees(6)
    assert len(built) == len(trees)


def test_enumeration_passes_canonical_forms(monkeypatch):
    """Enumerated trees reuse the canonical form computed to key them, and it
    equals the one a tree built from outside computes."""
    in_init = []
    recomputed = []
    real_init = DecoratedTree.__post_init__
    real_canon = trees_mod._canon_and_aut

    def init(self):
        in_init.append(self)
        try:
            real_init(self)
        finally:
            in_init.pop()

    def canon(*args):
        if in_init:
            recomputed.append(args)
        return real_canon(*args)

    monkeypatch.setattr(DecoratedTree, "__post_init__", init)
    monkeypatch.setattr(trees_mod, "_canon_and_aut", canon)
    trees = enumerate_decorated_trees(6)
    assert not recomputed
    for t in trees:
        rebuilt = DecoratedTree(t.vertices, t.edges, t.decorations)
        assert (rebuilt._canon[0], aut_order(rebuilt)) == (t._canon[0], aut_order(t))
    assert len(recomputed) == len(trees)


def test_series_refused_above_limit():
    check_series_size(SERIES_MAX_K)
    with pytest.raises(ValueError, match=f"K <= {SERIES_MAX_K}.*about 13 s"):
        volume(SERIES_MAX_K + 1)


def test_series_subtotals_refused_above_limit(monkeypatch):
    # K + 1 evaluations at K = 20 cost about what one costs at K = 40
    check_series_size(20, evaluations=21)
    evaluated = []
    monkeypatch.setattr(series_mod, "_tree_series", lambda K, t: evaluated.append(t))
    with pytest.raises(ValueError, match=f"K <= {SERIES_MAX_K} in one evaluation.*K=21 evaluated 22 times"):
        volume_series(21)
    assert not evaluated


def test_enumeration_refused_above_limit():
    check_per_tree_size(PER_TREE_MAX_K)
    with pytest.raises(ValueError, match=f"K <= {PER_TREE_MAX_K}"):
        enumerate_decorated_trees(PER_TREE_MAX_K + 1)


def test_zeta_lemma_sums_against_brute_force():
    def brute_k1(a: int, bound: int) -> int:
        return sum(
            w ** (a + 1)
            for h in range(1, bound + 1)
            for w in range(1, bound // h + 1)
        )

    def brute_k2(a1: int, a2: int, bound: int) -> int:
        total = 0
        for h1 in range(1, bound + 1):
            for w1 in range(1, bound // h1 + 1):
                rest = bound - h1 * w1
                for h2 in range(1, rest + 1):
                    for w2 in range(1, rest // h2 + 1):
                        total += w1 ** (a1 + 1) * w2 ** (a2 + 1)
        return total

    for a, bound in [(0, 25), (2, 17), (4, 9)]:
        assert zeta_lemma_sum_k1(a, bound) == brute_k1(a, bound)
    for a1, a2, bound in [(0, 0, 14), (2, 0, 12), (2, 2, 10)]:
        assert zeta_lemma_sum_k2(a1, a2, bound) == brute_k2(a1, a2, bound)


def test_zeta_lemma_ratio_converges():
    far = abs(zeta_lemma_ratio((2,), 10**3) - 1)
    near = abs(zeta_lemma_ratio((2,), 10**5) - 1)
    assert near < far
    assert near < 0.001
    with pytest.raises(ValueError):
        zeta_lemma_ratio((1, 1, 1), 100)


def test_zeta_lemma_ratio_refuses_odd_exponent_before_summing(monkeypatch):
    def refuse_work(*args, **kwargs):
        raise AssertionError("the finite sum started before the request was refused")

    monkeypatch.setattr(zeta_lemma, "zeta_lemma_sum_k1", refuse_work)
    monkeypatch.setattr(zeta_lemma, "zeta_lemma_sum_k2", refuse_work)
    for exponents in [(1,), (1, 2), (2, 1)]:
        with pytest.raises(ValueError, match="unsupported zeta argument 3"):
            zeta_lemma_ratio(exponents, 10**9)
