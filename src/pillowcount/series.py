"""The volume of Q(1^K, -1^(K+4)) as a labelled-tree series.

The tree sum of the volume, taken over every decorated tree of K, is
evaluated here without listing a tree, in time polynomial in K: `volume`
gives the total and `volume_series` the subtotal of the k-cylinder trees
for each k.  The per-tree route in `trees` enumerates the trees one by one
and is the oracle that `verify` checks this series against; this module
needs only `rationals`, so a `volume` process loads nothing else of the
package.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, inf

from .rationals import PiValue, Refused, seconds_text, solve_exact, zeta_even

__all__ = ["SERIES_MAX_K", "check_series_size", "volume_series", "volume"]


# With F_{m,n} = m! a! sum_{b_1+..+b_l=a} prod_i w_i^{2b_i}/(b_i!)^2 and
# c(T,a) = K!(K+4)!/prod_v m_v! n_v!, the summand 2^k c(T,a) Z(..)/aut of a
# tree factorises: a!/n! per vertex, 1/(b!)^2 per half-edge,
# 2 (2beta+1)! zeta(2beta+2) per edge with beta = b + b', and the global
# 2 K!(K+4)!/(2K+1)!. Summing 1/aut over unlabelled trees is summing 1/v!
# over labelled ones, so the tree sum is a weighted labelled-tree species.
# A formal variable z marks a_v + 1 at each vertex; the trees of K have
# z-degree K + 2. A planted subtree hangs from the half-edge at its root
# that points to its parent. Rooting a tree at a vertex counts it v times
# and at an edge v - 1 times, so the tree sum is vertex-rooted minus
# edge-rooted (the dissymmetry theorem of Bergeron, Labelle and Leroux).


def _tree_series(K: int, t: int) -> Fraction:
    """The tree sum of the volume, each k-cylinder tree weighted t^k, as
    a coefficient of pi^{2K+2}."""
    top = K + 2
    edge = [2 * factorial(2 * beta + 1) * zeta_even(2 * beta + 2).coefficient for beta in range(2 * top)]
    half = [Fraction(1, factorial(b) ** 2) for b in range(top)]
    zero = Fraction(0)
    # planted[b][d]: planted subtrees of z-degree d whose root half-edge
    # carries b, with that half-edge's weight
    planted = [[zero] * (top + 1) for _ in range(top)]
    # child[b][d]: the same seen across the edge from the parent's half-edge
    # b, with the edge, t and the parent half-edge's weight
    child = [[zero] * (top + 1) for _ in range(top)]
    # sets[c][s][d]: sets of c children whose parent half-edges sum to s,
    # of z-degree d, i.e. [u^s z^d] child(u, z)^c / c!
    sets = [[[zero] * (top + 1) for _ in range(top)] for _ in range(top + 1)]
    sets[0][0][0] = Fraction(1)

    def vertex(a: int, spare: int, c: int) -> Fraction:
        # a!/n! at a vertex with c children: n = a - c + spare
        return Fraction(factorial(a), factorial(a - c + spare))

    # every vertex adds at least one to the z-degree, so degree d of the
    # planted subtrees needs only sets of degree below d
    for d in range(1, top + 1):
        for b in range(d):
            total = zero
            for s in range(d - b):
                a = b + s
                rest = d - a - 1
                for c in range(min(rest, a + 2) + 1):
                    total += sets[c][s][rest] * vertex(a, 2, c)
            planted[b][d] = half[b] * total
        # a child of degree d under half-edge b leaves degree top - d - 1
        # for the rest of the tree, so b < top - d
        for b in range(top - d):
            child[b][d] = t * half[b] * sum(edge[b + b2] * planted[b2][d] for b2 in range(d))
        for c in range(1, d + 1):
            fewer = sets[c - 1]
            for s in range(top - d):
                total = sum(
                    child[s1][j] * fewer[s - s1][d - j]
                    for j in range(1, d - c + 2)
                    for s1 in range(s + 1)
                )
                sets[c][s][d] = total / c
    vertex_rooted = sum(
        sets[c][a][top - a - 1] * vertex(a, 3, c)
        for a in range(top)
        for c in range(1, min(top - a - 1, a + 3) + 1)
    )
    # an unordered pair of planted subtrees joined by an edge
    edge_rooted = sum(
        planted[b][d] * child[b][top - d] * factorial(b) ** 2
        for b in range(top)
        for d in range(b + 1, top)
    ) / 2
    scale = Fraction(2 * factorial(K) * factorial(K + 4), factorial(2 * K + 1))
    return scale * (vertex_rooted - edge_rooted)


def volume_series(K: int) -> tuple[Fraction, dict[int, Fraction]]:
    """The volume's coefficient of pi^{2K+2} by the labelled-tree series:
    the total and the subtotal of the k-cylinder trees for each k.

    The tree sum weighted t^k is a polynomial in t of degree K + 1 without
    constant term; its coefficients of t^1..t^(K+1) solve the linear system
    of its values at t = 1..K+1, the first of which is the total. K is
    refused when those K + 1 evaluations would take longer than one at
    K = SERIES_MAX_K.
    """
    if K < 1:
        raise Refused("K must be at least 1")
    check_series_size(K, evaluations=K + 1)
    points = range(1, K + 2)
    values = [_tree_series(K, t) for t in points]
    coeffs = solve_exact([[t**k for k in points] for t in points], values, K + 1)
    return values[0], dict(zip(points, coeffs))


# one evaluation of the series takes about 12 s at K = 40 on a 2-CPU VM, and
# its time grows like about K^4.5
SERIES_MAX_K = 40


def check_series_size(K: int, evaluations: int = 1) -> None:
    """Refuse evaluating the tree series of K that many times when it would
    take longer than one evaluation at K = SERIES_MAX_K."""
    try:
        seconds = 12 * evaluations * (K / SERIES_MAX_K) ** 4.5
    except OverflowError:  # an estimate past the float range
        seconds = inf
    if seconds > 12:
        per, times = ("", "") if evaluations == 1 else (" in one evaluation", f" evaluated {evaluations} times")
        raise Refused(
            f"the series route handles K <= {SERIES_MAX_K}{per}; the tree series "
            f"for K={K}{times} would take {seconds_text(seconds)}"
        )


def volume(K: int) -> PiValue:
    """Exact volume of the stratum with K simple zeros and K+4 simple poles,
    by the labelled-tree series."""
    if K < 1:
        raise Refused("K must be at least 1")
    check_series_size(K)
    return PiValue(_tree_series(K, 1), 2 * K + 2)
