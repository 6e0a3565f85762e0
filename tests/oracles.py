"""Reference routes and shared helpers for the tests (not collected by pytest).

The package builds its character values column by column
(covers._character_columns), its local polynomials by the closed form
and the recurrence, and its ribbon graphs by leg insertion.  The routes
here compute the same objects another way, one value at a time or one
dart pairing at a time, so that the tests can compare the two.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Sequence

from pillowcount.covers import Partition
from pillowcount.layers import LayerSignature
from pillowcount.polynomials import Polynomial
from pillowcount.rationals import PiValue, zeta_even
from pillowcount.ribbon import RibbonGraph, _face_labels, _sigma
from pillowcount.trees import DecoratedTree


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


def conjugate_partition(shape: Partition) -> Partition:
    """The conjugate shape: its rows are the columns of shape."""
    return tuple(sum(1 for part in shape if part > i) for i in range(shape[0] if shape else 0))


def two_core(shape: Partition) -> Partition:
    """The 2-core of shape: dominoes removed from the rim, one at a time,
    until none is left.  A row gives up a horizontal domino when it is at
    least two longer than the row below, and two rows of equal length give
    up a vertical one when the row below them is shorter."""
    rows = list(shape)
    while True:
        below = rows[1:] + [0, 0]
        for i, part in enumerate(rows):
            if part - 2 >= below[i]:
                rows[i] -= 2
                break
            if part == below[i] and below[i + 1] < part:
                rows[i] -= 1
                rows[i + 1] -= 1
                break
        else:
            return tuple(rows)
        rows = [part for part in rows if part]


def mask_shape(mask: int) -> Partition:
    """The shape with this bead mask: a bead's row is as long as the empty
    positions below it are many."""
    rows = []
    empty = 0
    for x in range(mask.bit_length()):
        if mask >> x & 1:
            rows.append(empty)
        else:
            empty += 1
    return tuple(sorted(filter(None, rows), reverse=True))


def hook_product(shape: Partition) -> int:
    """Product of the hook lengths of shape, cell by cell: the cell's arm
    (the cells right of it) plus its leg (the cells below it) plus one."""
    columns = conjugate_partition(shape)
    out = 1
    for i, part in enumerate(shape):
        for j in range(part):
            arm, leg = part - j - 1, columns[j] - i - 1
            out *= arm + leg + 1
    return out


def dimension(shape: Partition) -> int:
    """Dimension of the irreducible S_N representation labelled by shape."""
    return math.factorial(sum(shape)) // hook_product(shape)


# bounded, so that a call far past the small degrees the tests use cannot
# grow the cache without limit
@lru_cache(maxsize=1 << 16)
def _mn_value(mask: int, parts: Partition) -> int:
    """chi^shape(parts) for the shape with this bead mask, parts decreasing.
    Removing an r-border strip moves a bead x >= r to the empty x - r."""
    if not parts or parts[0] == 1:
        # remaining cycles are all fixed points
        return dimension(mask_shape(mask))
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


def zeta_operator(exponents: Sequence[int]) -> PiValue:
    """The zeta operator on one monomial prod w_i^{b_i+1} of k variables:
    2/(b+2k-1)! prod (b_i+1)! zeta(b_i+2), with b = sum b_i."""
    bs = [e - 1 for e in exponents]
    out = PiValue(Fraction(2, math.factorial(sum(bs) + 2 * len(bs) - 1)), 0)
    for b in bs:
        out = out * math.factorial(b + 1) * zeta_even(b + 2)
    return out


def rerooted_layer_text(t: DecoratedTree) -> str:
    """The tree's text rendered from its adjacency: rooted at its centre or
    centres, the vertices of least eccentricity, each vertex printed as its
    layer (m,n) with its subtrees in brackets, sorted by their text, and two
    centres joined by -- in sorted order."""
    adj: dict[int, list[int]] = {v: [] for v in range(t.vertices)}
    for a, b in t.edges:
        adj[a].append(b)
        adj[b].append(a)

    def eccentricity(root: int) -> int:
        depth = {root: 0}
        queue = [root]
        for v in queue:
            for u in adj[v]:
                if u not in depth:
                    depth[u] = depth[v] + 1
                    queue.append(u)
        return max(depth.values())

    ecc = [eccentricity(v) for v in range(t.vertices)]
    centers = [v for v in range(t.vertices) if ecc[v] == min(ecc)]

    def render(v: int, parent: int | None) -> str:
        sig = t.layer(v)
        kids = sorted(render(c, v) for c in adj[v] if c != parent)
        return f"({sig.m},{sig.n})" + ("[" + ",".join(kids) + "]" if kids else "")

    if len(centers) == 1:
        return render(centers[0], None)
    u, v = centers
    return "--".join(sorted([render(u, v), render(v, u)]))


def valid_signatures(mn_max: int) -> list[tuple[int, int]]:
    """Every layer signature (m, n) with m + n <= mn_max, by m then n."""
    out = []
    for m in range(mn_max + 1):
        for n in range(mn_max + 1 - m):
            if (m, n) == (0, 0) or (m - n) % 2 or m - n < -2:
                continue
            out.append((m, n))
    return out


def _pairings(d: int) -> Iterator[list[int]]:
    """All perfect matchings of the darts 0..d-1, as one list alpha filled in
    place: the least unpaired dart is paired with each later one in turn, so
    the matchings come in ascending order.  Read each before the next."""
    alpha = [-1] * d

    def fill(first: int) -> Iterator[list[int]]:
        if first == d:
            yield alpha
            return
        for other in range(first + 1, d):
            if alpha[other] < 0:
                alpha[first], alpha[other] = other, first
                nxt = first + 1
                while nxt < d and alpha[nxt] >= 0:
                    nxt += 1
                yield from fill(nxt)
                alpha[other] = -1
        alpha[first] = -1

    return fill(0)


def _rooted_shape(sigma: Sequence[int], alpha: Sequence[int], root: int) -> tuple[tuple, list[int]] | None:
    """(shape, order): the darts in the order a breadth-first walk along
    sigma and alpha meets them from root, and (sigma, alpha) renumbered in
    that order; None when the walk misses a dart."""
    d = len(alpha)
    number = [-1] * d
    number[root] = 0
    order = [root]
    for x in order:
        for y in (sigma[x], alpha[x]):
            if number[y] < 0:
                number[y] = len(order)
                order.append(y)
    if len(order) < d:
        return None
    return (tuple([number[sigma[x]] for x in order]), tuple([number[alpha[x]] for x in order])), order


def walk_graphs(m: int, n: int) -> list[RibbonGraph]:
    """All isomorphism classes of connected genus-0 graphs with labelled faces,
    filtered from every dart pairing: the reference for enumerate_graphs.

    Each labelled pairing is keyed by its rooted code (Weinberg's canonical
    form): darts renumbered along a breadth-first walk from a root, taking the
    least code over the univalent darts (every dart when n = 0), a root set
    every relabelling maps to itself, so equal codes mean isomorphic graphs.
    The label-free part of the code, the least shape, keys the unlabelled
    map, and only the roots that reach it can give the least key.  The
    automorphisms act freely on the darts, and the roots that reach the
    least code are the images of one of them, so they number |Aut|.  Each
    class is printed as its least member (alpha, then face labels), the first
    one met: pairings and labellings come in ascending order.

    The l! face labellings are walked only at the first pairing of each
    least shape.  A later pairing with that shape is the same unlabelled
    map, carried onto the first by the two walk orders, so its labelled keys
    are the first one's, all met already, and met at their least members.
    The same holds for a pairing whose shape from its first root is the
    shape from any root of such a first pairing, so the walks from every
    root are taken only when the first root's shape is new.
    """
    l = LayerSignature(m, n).faces
    d = 3 * m + n
    sigma = _sigma(m, n)
    roots = range(3 * m, d) if n else range(d)
    # the shapes from every root of each unlabelled map met so far
    met: set[tuple] = set()
    classes: dict[tuple, RibbonGraph] = {}
    for alpha in _pairings(d):
        face = _face_labels(sigma, alpha)
        if max(face) != l - 1:
            continue  # a face too many or too few for genus 0
        first = _rooted_shape(sigma, alpha, roots[0])
        if first is None or first[0] in met:
            continue  # disconnected, or a map met already
        codes = [first] + [_rooted_shape(sigma, alpha, root) for root in roots[1:]]
        met.update(shape for shape, _ in codes)
        least = min(shape for shape, _ in codes)
        least_orders = [order for shape, order in codes if shape == least]
        graph = tuple(alpha)
        for perm in permutations(range(l)):
            labels = tuple([perm[f] for f in face])
            rooted = [tuple([labels[x] for x in order]) for order in least_orders]
            key = (least, min(rooted))
            if key not in classes:
                classes[key] = RibbonGraph(m, n, graph, labels, rooted.count(key[1]))
    return sorted(classes.values(), key=lambda g: (g.alpha, g.face_of_dart))
