"""Decorated trees and the volume assembly.

A decorated tree carries a nonnegative integer a_v at each vertex; with
valence l_v this fixes a layer signature (m_v, n_v) = (a_v + l_v - 1,
a_v - l_v + 3) at every vertex. Trees with k edges describe k-cylinder
surfaces; summing the contribution of every isomorphism class of decorated
trees for a given K yields the volume pi^{2K+2}/2^{K-1}.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Iterator, Sequence

from . import layers
from .polynomials import Polynomial
from .rationals import PiValue, bernoulli, binomial, compositions, factorial, multinomial, zeta_even

__all__ = [
    "DecoratedTree",
    "TreeContribution",
    "canonical_key",
    "aut_order",
    "enumerate_decorated_trees",
    "zeta_operator",
    "local_product",
    "tree_contribution",
    "volume",
    "zeta_lemma_sum_k1",
    "zeta_lemma_sum_k2",
    "zeta_lemma_ratio",
]


@dataclass(frozen=True)
class DecoratedTree:
    """A tree on vertices 0..vertices-1 with a decoration a_v per vertex."""

    vertices: int
    edges: tuple[tuple[int, int], ...]
    decorations: tuple[int, ...]
    _layers: tuple[layers.LayerSignature, ...] = field(init=False, repr=False, compare=False)
    _canon: tuple[tuple, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
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
        adj = self.adjacency()
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
        object.__setattr__(self, "_canon", _canon_and_aut(self, adj))

    def valence(self, v: int) -> int:
        # the layer at a vertex has one boundary face per incident cylinder
        return self._layers[v].faces

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

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(self.vertices)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def layer_text(self) -> str:
        """Compact nested rendering rooted at the canonical center."""
        adj = self.adjacency()
        centers = _centers(self.vertices, adj)

        def render(v: int, parent: int | None) -> str:
            sig = self.layer(v)
            kids = sorted(
                (render(c, v) for c in adj[v] if c != parent)
            )
            inner = f"({sig.m},{sig.n})"
            return inner + ("[" + ",".join(kids) + "]" if kids else "")

        if len(centers) == 1:
            return render(centers[0], None)
        u, v = centers
        halves = sorted([render(u, v), render(v, u)])
        return halves[0] + "--" + halves[1]


def _centers(n: int, adj: dict[int, list[int]]) -> list[int]:
    """The one or two central vertices, found by peeling leaves."""
    if n == 1:
        return [0]
    degree = {v: len(adj[v]) for v in adj}
    layer = [v for v in adj if degree[v] == 1]
    remaining = n
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
    t: DecoratedTree, adj: dict[int, list[int]], root: int, parent: int | None
) -> tuple[tuple, int]:
    """Canonical form and automorphism count of the subtree at root."""
    children = [c for c in adj[root] if c != parent]
    canons = []
    aut = 1
    for c in children:
        cc, ca = _rooted_canon(t, adj, c, root)
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
    return (t.decorations[root], tuple(canons)), aut


def _canon_and_aut(t: DecoratedTree, adj: dict[int, list[int]]) -> tuple[tuple, int]:
    centers = _centers(t.vertices, adj)
    if len(centers) == 1:
        canon, aut = _rooted_canon(t, adj, centers[0], None)
        return ("c", canon), aut
    u, v = centers
    cu, au = _rooted_canon(t, adj, u, v)
    cv, av = _rooted_canon(t, adj, v, u)
    aut = au * av * (2 if cu == cv else 1)
    first, second = sorted([cu, cv])
    return ("b", (first, second)), aut


def canonical_key(t: DecoratedTree) -> tuple:
    """Hashable invariant identifying the isomorphism class of (tree, decoration)."""
    return t._canon[0]


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


def enumerate_decorated_trees(K: int) -> list[DecoratedTree]:
    """All isomorphism classes of decorated trees for the stratum parameter K."""
    if K < 1:
        raise ValueError("K must be at least 1")
    found: dict[tuple, DecoratedTree] = {}
    for v in range(2, K + 3):
        budget = K + 2 - v
        for edges in _free_trees(v):
            degree = [0] * v
            for a, b in edges:
                degree[a] += 1
                degree[b] += 1
            minima = [max(0, d - 3) for d in degree]
            spare = budget - sum(minima)
            if spare < 0:
                continue
            for extra in compositions(spare, v):
                decorations = tuple(m + e for m, e in zip(minima, extra))
                t = DecoratedTree(v, edges, decorations)
                key = canonical_key(t)
                if key not in found:
                    found[key] = t
    return [found[k] for k in sorted(found)]


def zeta_operator(exponents: Sequence[int], K: int) -> PiValue:
    """The formal substitution prod w_i^{b_i+1} -> 2/(b+2k-1)! prod (b_i+1)! zeta(b_i+2).

    Every one of the k twist variables must appear (exponent >= 1), each
    b_i = exponent - 1 must be even, and b + 2k must equal 2K + 2.
    """
    k = len(exponents)
    if k < 1:
        raise ValueError("zeta operator needs at least one variable")
    bs = []
    for e in exponents:
        if e < 1:
            raise ValueError("every twist variable must appear with exponent >= 1")
        b = e - 1
        if b % 2 != 0:
            raise ValueError(f"exponent {e} is even; width exponents must be odd")
        bs.append(b)
    b = sum(bs)
    if b + 2 * k != 2 * K + 2:
        raise ValueError(
            f"monomial lives off the dimension shell: {b} + 2*{k} != {2 * K + 2}"
        )
    out = PiValue(Fraction(2, factorial(b + 2 * k - 1)), 0)
    for bi in bs:
        out = out * factorial(bi + 1) * zeta_even(bi + 2)
    return out


@dataclass(frozen=True)
class TreeContribution:
    """One decorated tree's summand of the volume."""

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
def _zeta_value(exponents: tuple[int, ...], K: int) -> PiValue:
    return zeta_operator(exponents, K)


def tree_contribution(t: DecoratedTree, K: int) -> TreeContribution:
    """Assemble 2^k c(T,a) Z(w_1..w_k prod_v F_{m_v,n_v}) for one decorated tree."""
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
    scale = 2**k * c_factor
    value = PiValue.zero()
    zeta_terms = []
    for key in sorted(classes):
        if sum(key) != 2 * K + 2 - k:
            raise ValueError("homogeneity gate failed before applying the zeta operator")
        coeff = scale * classes[key]
        value = value + coeff * _zeta_value(key, K)
        pref = Fraction(2 * prod(factorial(e) for e in key), factorial(sum(key) + k - 1))
        zeta_terms.append((tuple(e + 1 for e in key), coeff * pref))
    return TreeContribution(t, K, aut, c_factor, tuple(zeta_terms), value)


def volume(K: int) -> PiValue:
    """Exact volume of the stratum with K simple zeros and K+4 simple poles."""
    total = PiValue(Fraction(0), 2 * K + 2)
    for t in enumerate_decorated_trees(K):
        total = total + tree_contribution(t, K).value
    return total


# -- finite checks for the height-width summation lemma ----------------


@lru_cache(maxsize=None)
def _power_sum(p: int, m: int) -> int:
    """Sum of w^p for w = 1..m, via Faulhaber's formula.

    Memoized: the divisor-style sums evaluate it at only O(sqrt(bound))
    distinct truncation points.
    """
    total = Fraction(0)
    for j in range(p + 1):
        bj = Fraction(1, 2) if j == 1 else bernoulli(j)
        total += binomial(p + 1, j) * bj * Fraction(m) ** (p + 1 - j)
    total /= p + 1
    assert total.denominator == 1
    return total.numerator


def zeta_lemma_sum_k1(a: int, bound: int) -> int:
    """Exact sum of w^{a+1} over pairs h, w >= 1 with h*w <= bound."""
    return sum(_power_sum(a + 1, bound // h) for h in range(1, bound + 1))


def zeta_lemma_sum_k2(a1: int, a2: int, bound: int) -> int:
    """Exact sum of w_1^{a_1+1} w_2^{a_2+1} over h_1 w_1 + h_2 w_2 <= bound."""
    t1 = [0] * (bound + 1)
    t2 = [0] * (bound + 1)
    for w in range(1, bound + 1):
        p1, p2 = w ** (a1 + 1), w ** (a2 + 1)
        for j in range(w, bound + 1, w):
            t1[j] += p1
            t2[j] += p2
    prefix2 = [0] * (bound + 1)
    acc = 0
    for j in range(bound + 1):
        acc += t2[j]
        prefix2[j] = acc
    return sum(t1[j] * prefix2[bound - j] for j in range(1, bound + 1))


def zeta_lemma_ratio(exponents: Sequence[int], bound: int) -> float:
    """Finite sum divided by its predicted asymptotic N^{b+2k}/(b+2k)! prod (a_i+1)! zeta(a_i+2)."""
    k = len(exponents)
    if k == 1:
        s = zeta_lemma_sum_k1(exponents[0], bound)
    elif k == 2:
        s = zeta_lemma_sum_k2(exponents[0], exponents[1], bound)
    else:
        raise ValueError("only k = 1 or 2 supported")
    b = sum(exponents)
    dim = b + 2 * k
    predicted = Fraction(bound) ** dim / factorial(dim)
    scale = 1.0
    for a in exponents:
        predicted *= factorial(a + 1)
        scale *= zeta_even(a + 2).to_float()
    return float(Fraction(s) / predicted) / scale
