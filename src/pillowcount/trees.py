"""Decorated trees and the per-tree volume assembly.

A decorated tree carries a nonnegative integer a_v at each vertex; with
valence l_v this fixes a layer signature (m_v, n_v) = (a_v + l_v - 1,
a_v - l_v + 3) at every vertex. Trees with k edges describe k-cylinder
surfaces; summing the contribution of every isomorphism class of decorated
trees for a given K yields the volume pi^{2K+2}/2^{K-1}. This enumeration
is the per-tree route, behind `volume --per-tree` and the latex table, and
the oracle that `verify` checks `series` against: `series.volume` computes
the same sum as a labelled-tree series, in time polynomial in K.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, inf, prod
from typing import Iterator, Sequence

from . import layers
from .polynomials import Polynomial
from .rationals import (
    PiValue,
    Record,
    Refused,
    compositions,
    multinomial,
    seconds_text,
    zeta_even,
)

__all__ = [
    "DecoratedTree",
    "TreeContribution",
    "aut_order",
    "PER_TREE_MAX_K",
    "check_per_tree_size",
    "enumerate_decorated_trees",
    "local_product",
    "tree_contribution",
    "tree_subtotals",
]


class DecoratedTree(Record):
    """A tree on vertices 0..vertices-1 with a decoration a_v per vertex,
    its edges stored sorted.

    _canon, the canonical form and automorphism count, is computed unless
    the caller has just computed it for the same tree.  It and _layers are
    cached, not fields: they take no part in equality, hash or repr.
    """

    _fields = ("vertices", "edges", "decorations")
    __slots__ = _fields + ("_layers", "_canon")
    vertices: int
    edges: tuple[tuple[int, int], ...]
    decorations: tuple[int, ...]
    _layers: tuple[layers.LayerSignature, ...]
    _canon: tuple[tuple, int] | None

    def __init__(
        self,
        vertices: int,
        edges: Sequence[tuple[int, int]],
        decorations: tuple[int, ...],
        *,
        _canon: tuple[tuple, int] | None = None,
    ) -> None:
        object.__setattr__(self, "_canon", _canon)
        super().__init__(vertices, edges, decorations)

    def __post_init__(self) -> None:
        """Check the tree, sort its edges and fill the cached attributes."""
        v = self.vertices
        if v < 2:
            raise ValueError("a decorated tree needs at least two vertices")
        edges = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        object.__setattr__(self, "edges", edges)
        if len(edges) != v - 1:
            raise ValueError("edge count does not match a tree")
        if len(self.decorations) != v:
            raise ValueError("one decoration per vertex required")
        for a, b in edges:
            if not (0 <= a < v and 0 <= b < v) or a == b:
                raise ValueError(f"bad edge ({a},{b})")
        adj = _adjacency(v, edges)
        reached = {0}
        stack = [0]
        while stack:
            for u in adj[stack.pop()]:
                if u not in reached:
                    reached.add(u)
                    stack.append(u)
        if len(reached) != v:
            raise ValueError("tree is not connected")
        sigs = []
        for u in range(v):
            a, l = self.decorations[u], len(adj[u])
            if a < 0 or a < l - 3:
                raise ValueError(f"decoration {a} too small at vertex {u}")
            sigs.append(layers.LayerSignature(a + l - 1, a - l + 3))
        object.__setattr__(self, "_layers", tuple(sigs))
        if self._canon is None:
            object.__setattr__(self, "_canon", _canon_and_aut(self.decorations, adj, _centers(adj)))

    def layer(self, v: int) -> layers.LayerSignature:
        return self._layers[v]

    @property
    def k(self) -> int:
        """Number of edges, i.e. cylinders."""
        return self.vertices - 1

    @property
    def K(self) -> int:
        """Total number of trivalent vertices over all layers."""
        return sum(self.layer(v).m for v in range(self.vertices))

    def layer_text(self) -> str:
        """Compact nested rendering from the canonical form: (m,n) at each
        vertex, its children in brackets sorted by their text, and two
        centres joined by -- in sorted order."""

        def render(node: tuple, up: int) -> str:
            # a vertex's valence counts its parent, or the other centre
            a, children = node
            l = len(children) + up
            kids = sorted(render(c, 1) for c in children)
            return f"({a + l - 1},{a - l + 3})" + ("[" + ",".join(kids) + "]" if kids else "")

        kind, body = self._canon[0]
        return render(body, 0) if kind == "c" else "--".join(sorted(render(half, 1) for half in body))


def _adjacency(vertices: int, edges: Sequence[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(vertices)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _centers(adj: dict[int, list[int]]) -> list[int]:
    """The one or two central vertices of a tree on two or more vertices,
    found by peeling leaves."""
    degree = {v: len(adj[v]) for v in adj}
    layer = [v for v in adj if degree[v] == 1]
    remaining = len(adj)
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for u in adj[v]:
                if degree[u] > 1:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    return sorted(layer)


def _rooted_canon(
    decorations: Sequence[int], adj: dict[int, list[int]], root: int, parent: int | None
) -> tuple[tuple, int]:
    """Canonical form and automorphism count of the subtree at root."""
    children = [c for c in adj[root] if c != parent]
    canons = []
    aut = 1
    for c in children:
        cc, ca = _rooted_canon(decorations, adj, c, root)
        canons.append(cc)
        aut *= ca
    canons.sort()
    run = 1
    for i in range(1, len(canons)):
        if canons[i] == canons[i - 1]:
            run += 1
        else:
            aut *= factorial(run)
            run = 1
    if canons:
        aut *= factorial(run)
    return (decorations[root], tuple(canons)), aut


def _canon_and_aut(
    decorations: Sequence[int], adj: dict[int, list[int]], centers: list[int]
) -> tuple[tuple, int]:
    if len(centers) == 1:
        canon, aut = _rooted_canon(decorations, adj, centers[0], None)
        return ("c", canon), aut
    u, v = centers
    cu, au = _rooted_canon(decorations, adj, u, v)
    cv, av = _rooted_canon(decorations, adj, v, u)
    aut = au * av * (2 if cu == cv else 1)
    first, second = sorted([cu, cv])
    return ("b", (first, second)), aut


def aut_order(t: DecoratedTree) -> int:
    """Order of the automorphism group preserving adjacency and decoration."""
    return t._canon[1]


def _next_rooted_tree(levels: list[int], p: int | None = None) -> list[int] | None:
    """The rooted tree after `levels` in Beyer-Hedetniemi order, or None."""
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    out = list(levels)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split_tree(levels: list[int]) -> tuple[list[int], list[int]]:
    """The root's first subtree, and the tree with that subtree removed."""
    ones = [i for i, h in enumerate(levels) if h == 1]
    m = ones[1] if len(ones) > 1 else len(levels)
    return [h - 1 for h in levels[1:m]], [0] + levels[m:]


def _next_tree(levels: list[int]) -> list[int]:
    """levels if it is the canonical rooting of a free tree, else the next
    candidate (Wright, Richmond, Odlyzko and McKay 1986)."""
    left, rest = _split_tree(levels)
    left_height, rest_height = max(left), max(rest)
    valid = rest_height > left_height or (
        rest_height == left_height and (len(left), left) <= (len(rest), rest)
    )
    if valid:
        return levels
    p = len(left)
    out = _next_rooted_tree(levels, p)
    if levels[p] > 2:
        new_left_height = max(_split_tree(out)[0])
        out[-(new_left_height + 1):] = range(1, new_left_height + 2)
    return out


def _free_trees(v: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Edge lists of all free trees on v vertices, one per isomorphism class.

    Level sequences run from the path rooted at its centre; each vertex is
    joined to the nearest earlier vertex one level up.
    """
    if v == 3:
        # the path labelled along its length, not from its centre
        yield ((0, 1), (1, 2))
        return
    levels: list[int] | None = list(range(v // 2 + 1)) + list(range(1, (v + 1) // 2))
    while levels is not None:
        levels = _next_tree(levels)
        edges = []
        stack: list[int] = []
        for i, h in enumerate(levels):
            while stack and levels[stack[-1]] >= h:
                stack.pop()
            if stack:
                edges.append((stack[-1], i))
            stack.append(i)
        yield tuple(edges)
        levels = _next_rooted_tree(levels)


# the per-tree route enumerates every decorated tree: at K = 11 that takes
# about 13 s and 240 MiB on a 2-CPU VM, and the time grows about 3x per K
PER_TREE_MAX_K = 11


def check_per_tree_size(K: int) -> None:
    """Refuse a per-tree request that would not finish in reasonable time."""
    if K > PER_TREE_MAX_K:
        # exact below K = 658, from where it passes 10^308 s; a huge K builds no power of 3
        seconds = 13 * 3 ** (K - PER_TREE_MAX_K) if K < 658 else inf
        raise Refused(
            f"the per-tree route handles K <= {PER_TREE_MAX_K}; enumerating every "
            f"decorated tree for K={K} would take {seconds_text(seconds)}"
        )


def enumerate_decorated_trees(K: int) -> list[DecoratedTree]:
    """All isomorphism classes of decorated trees for the stratum parameter K."""
    if K < 1:
        raise Refused("K must be at least 1")
    check_per_tree_size(K)
    found: dict[tuple, DecoratedTree] = {}
    for v in range(2, K + 3):
        budget = K + 2 - v
        for edges in _free_trees(v):
            adj = _adjacency(v, edges)
            minima = [max(0, len(adj[u]) - 3) for u in range(v)]
            spare = budget - sum(minima)
            if spare < 0:
                continue
            centers = _centers(adj)
            for extra in compositions(spare, v):
                decorations = tuple(m + e for m, e in zip(minima, extra))
                # key the candidate first; only the first of each class is built
                canon = _canon_and_aut(decorations, adj, centers)
                if canon[0] not in found:
                    found[canon[0]] = DecoratedTree(v, edges, decorations, _canon=canon)
    return [found[k] for k in sorted(found)]


class TreeContribution(Record):
    """One decorated tree's summand of the volume."""

    __slots__ = _fields = ("tree", "K", "aut", "multinomial_factor", "zeta_terms", "value")
    tree: DecoratedTree
    K: int
    aut: int
    multinomial_factor: Fraction
    zeta_terms: tuple[tuple[tuple[int, ...], Fraction], ...]
    value: PiValue

    def __post_init__(self) -> None:
        if self.value.pi_power != 2 * self.K + 2:
            raise ValueError("contribution has the wrong pi power")


def _local_terms(t: DecoratedTree) -> dict[tuple[int, ...], int]:
    """Product over all vertices of F_{m_v,n_v} in the edge width variables,
    as integer coefficients keyed by exponent tuples of full length k."""
    incident: list[list[int]] = [[] for _ in range(t.vertices)]
    for i, (a, b) in enumerate(t.edges):
        incident[a].append(i)
        incident[b].append(i)
    terms: dict[tuple[int, ...], int] = {(0,) * t.k: 1}
    for v in range(t.vertices):
        sig = t.layer(v)
        factor = []
        for exps, coeff in layers.f_closed(sig).items():
            if coeff.denominator != 1:
                raise ValueError(f"F_{{{sig.m},{sig.n}}} has the non-integer coefficient {coeff}")
            factor.append((tuple(zip(incident[v], exps)), coeff.numerator))
        product: dict[tuple[int, ...], int] = {}
        for key, c in terms.items():
            for placed, d in factor:
                out = list(key)
                for i, e in placed:
                    out[i] += e
                out_key = tuple(out)
                product[out_key] = product.get(out_key, 0) + c * d
        terms = product
    return terms


def local_product(t: DecoratedTree) -> Polynomial:
    """Product over all vertices of F_{m_v,n_v}, each written in the width
    variables of the edges incident to the vertex."""
    return Polynomial(_local_terms(t))


@lru_cache(maxsize=None)
def _zeta_product(args: tuple[int, ...]) -> PiValue:
    """zeta(s_1) ... zeta(s_k) for the even arguments of one zeta term."""
    return prod(map(zeta_even, args))


def tree_contribution(t: DecoratedTree, K: int) -> TreeContribution:
    """Assemble 2^k c(T,a) Z(w_1..w_k prod_v F_{m_v,n_v}) for one decorated tree:
    Z takes prod w_i^{e_i} to the zeta term 2/(2K+1)! prod e_i! zeta(e_i + 1),
    and the value is the sum of the zeta terms; zeta_even refuses an odd argument."""
    if t.K != K:
        raise ValueError(f"tree belongs to K={t.K}, not K={K}")
    k = t.k
    # the w_1..w_k factor raises every exponent by one; the zeta operator and
    # its rational prefactor depend only on the sorted exponents
    classes: dict[tuple[int, ...], int] = {}
    for exps, coeff in _local_terms(t).items():
        key = tuple(sorted(e + 1 for e in exps))
        classes[key] = classes.get(key, 0) + coeff
    aut = aut_order(t)
    ms = [t.layer(v).m for v in range(t.vertices)]
    ns = [t.layer(v).n for v in range(t.vertices)]
    c_factor = Fraction(multinomial(K, ms) * multinomial(K + 4, ns), aut)
    scale = Fraction(2 ** (k + 1), factorial(2 * K + 1)) * c_factor
    value = PiValue(Fraction(0), 2 * K + 2)
    zeta_terms = []
    for key in sorted(classes):
        if sum(key) != 2 * K + 2 - k:
            raise ValueError("homogeneity gate failed before applying the zeta operator")
        args = tuple(e + 1 for e in key)
        coeff = scale * classes[key] * prod(map(factorial, key))
        zeta_terms.append((args, coeff))
        value = value + coeff * _zeta_product(args)
    return TreeContribution(t, K, aut, c_factor, tuple(zeta_terms), value)


def tree_subtotals(K: int) -> dict[int, Fraction]:
    """Per-tree route: the volume's coefficient of pi^{2K+2}, summed over
    the enumerated k-cylinder trees for each k."""
    out: dict[int, Fraction] = {}
    for t in enumerate_decorated_trees(K):
        out[t.k] = out.get(t.k, Fraction(0)) + tree_contribution(t, K).value.coefficient
    return out
