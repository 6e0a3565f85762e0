"""Connected genus-0 ribbon graphs with labelled faces, exact lattice counts
of half-integer metrics, Laplace transforms, and the leading-term fit.

Darts are numbered 0..3m+n-1. The vertex rotation sigma is fixed once and for
all: dart triples (3i, 3i+1, 3i+2) form the trivalent vertex i, and dart
3m+j is the univalent vertex j. A graph is then a fixed-point-free involution
alpha pairing the darts, together with a labelling of the faces, which are
the cycles of d -> sigma(alpha(d)).

Two labelled graphs are isomorphic when a dart relabelling preserving sigma
carries one to the other: it rotates each trivalent triple, permutes the
triples among themselves and the univalent darts among themselves, and keeps
the face labels. Each class is represented by its least member, comparing
alpha and then the face labels, and stands for m! n! / |Aut| graphs with
labelled vertices, the weight of its transform and lattice count in hat_F
and leading_part_fit.

A Laplace transform is a list of terms (c, forms), each c / prod L^forms[L]
over primitive linear forms L in the face poles lambda_i.  Only
same_transform multiplies terms out into polynomials.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, gcd, inf, prod
from typing import Callable, Iterator, Sequence

from .layers import LayerSignature
from .polynomials import Polynomial
from .rationals import Record, capped_product, compositions, seconds_text, size_text, solve_exact

# enumerate_graphs refuses signatures with more dart pairings than this
MAX_PAIRINGS = 1_000_000
# exact_lattice_count refuses widths estimated to take longer than this
LATTICE_MAX_SECONDS = 15
# leading_part_fit samples directions with coordinates up to this value
SAMPLE_RADIUS = 4

__all__ = [
    "RibbonGraph",
    "enumerate_graphs",
    "check_lattice_size",
    "exact_lattice_count",
    "laplace_transform",
    "laplace_of_polynomial",
    "same_transform",
    "hat_F",
    "verify_pole_recurrence",
    "leading_part_fit",
]


def _sigma(m: int, n: int) -> tuple[int, ...]:
    out = []
    for i in range(m):
        out.extend((3 * i + 1, 3 * i + 2, 3 * i))
    out.extend(range(3 * m, 3 * m + n))
    return tuple(out)


class RibbonGraph(Record):
    """One labelled connected genus-0 ribbon graph."""

    __slots__ = _fields = ("m", "n", "alpha", "face_of_dart", "aut")
    m: int
    n: int
    alpha: tuple[int, ...]
    face_of_dart: tuple[int, ...]
    # the number of relabellings that carry the graph to itself
    aut: int

    @property
    def darts(self) -> int:
        return 3 * self.m + self.n

    @property
    def faces(self) -> int:
        return LayerSignature(self.m, self.n).faces

    @property
    def sigma(self) -> tuple[int, ...]:
        return _sigma(self.m, self.n)

    def edges(self) -> list[tuple[int, int]]:
        """Dart pairs (d, alpha(d)) with d < alpha(d), sorted."""
        return sorted((d, a) for d, a in enumerate(self.alpha) if d < a)

    def vertex_of_dart(self, d: int) -> int:
        """Trivalent darts map to 0..m-1, univalent darts to m..m+n-1."""
        return d // 3 if d < 3 * self.m else self.m + (d - 3 * self.m)

    def to_json_dict(self) -> dict:
        return {
            "darts": self.darts,
            "sigma": list(self.sigma),
            "alpha": list(self.alpha),
            "labels": {
                "vertices": [self.vertex_of_dart(d) for d in range(self.darts)],
                "faces": list(self.face_of_dart),
            },
        }


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


def _face_labels(sigma: Sequence[int], alpha: Sequence[int], most: int) -> list[int] | None:
    """The face of each dart, faces being the cycles of d -> sigma(alpha(d))
    numbered in the order of their least darts; None past `most` faces."""
    face = [-1] * len(alpha)
    faces = 0
    for start in range(len(alpha)):
        if face[start] >= 0:
            continue
        if faces == most:
            return None
        d = start
        while face[d] < 0:
            face[d] = faces
            d = sigma[alpha[d]]
        faces += 1
    return face


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


def _check_pairings(m: int, n: int) -> None:
    """Refuse a signature with more than MAX_PAIRINGS of the (3m+n-1)!! dart
    pairings that enumerate_graphs walks.  Its l! face labellings are walked
    once per unlabelled map, not once per pairing, and are not priced."""
    size = capped_product(range(3 * m + n - 1, 0, -2))
    if size > MAX_PAIRINGS:
        raise ValueError(
            f"signature ({m},{n}) has {size_text(size)} pairings to enumerate, "
            f"more than the limit of {MAX_PAIRINGS}"
        )


def enumerate_graphs(m: int, n: int) -> list[RibbonGraph]:
    """All isomorphism classes of connected genus-0 graphs with labelled faces.

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
    _check_pairings(m, n)
    d = 3 * m + n
    sigma = _sigma(m, n)
    roots = range(3 * m, d) if n else range(d)
    # the shapes from every root of each unlabelled map met so far
    met: set[tuple] = set()
    classes: dict[tuple, RibbonGraph] = {}
    for alpha in _pairings(d):
        face = _face_labels(sigma, alpha, l)
        if face is None or max(face) < l - 1:
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


def _counting_order(columns: Sequence[tuple[int, ...]], l: int) -> list[tuple[int, ...]]:
    """The distinct columns in the order exact_lattice_count assigns them.

    Built from the back: each step puts in front of the columns placed so far
    one that touches the fewest faces none of them touch.  It is then the last
    column on those faces, and one of them forces its total.  That forces as
    many columns as there are faces (one fewer when no edge has one face on
    both sides); the columns never placed are free and lead the order.
    """
    rest = sorted(columns)
    claimed: set[int] = set()
    tail: list[tuple[int, ...]] = []
    while len(claimed) < l:
        new = [{f for f in range(l) if c[f]} - claimed for c in rest]
        i = min((i for i in range(len(rest)) if new[i]), key=lambda i: len(new[i]))
        claimed |= new[i]
        tail.append(rest.pop(i))
    return rest + tail[::-1]


def check_lattice_size(free_totals: Sequence[int]) -> None:
    """Refuse a lattice count that would not finish in reasonable time.

    exact_lattice_count loops over every total of each free column up to
    its largest, free_totals, and the totals of f free columns that share
    faces fill about a simplex, so it visits about prod / f! of them.  At
    4e-6 s each, the estimate was 1.0 to 5.1 times the in-process time of
    each of the 137 faces-only graphs of (2,0), (2,2), (3,1), (3,3), (4,0)
    and (4,2) with a free column, at widths estimated near 0.4 s, on a
    2-CPU VM; it errs on the side of refusing.  Graph 3-1-21 at widths
    near 10^6 took 4.0-5.0 s (estimate 8 s), and 4-0-62 at width 100 took
    4.0-4.1 s (estimate 5 s).
    """
    try:
        seconds = 4e-6 * prod(free_totals) / factorial(len(free_totals))
    except OverflowError:  # a product past the float range
        seconds = inf
    if seconds > LATTICE_MAX_SECONDS:
        raise ValueError(
            f"lattice counts handle requests of up to about {LATTICE_MAX_SECONDS} s; "
            f"these widths would take {seconds_text(seconds)}"
        )


def _lattice_counter(g: RibbonGraph) -> Callable[[Sequence[int]], int]:
    """exact_lattice_count(g, .) with its set-up done once: the columns in
    _counting_order, their multiplicities, the face each forced column
    forces, and what the columns from each one on need of each face."""
    l = g.faces
    mult = Counter(_edge_forms(g))
    cols = _counting_order(list(mult), l)
    mus = [mult[c] for c in cols]
    supports = [[f for f in range(l) if c[f]] for c in cols]
    # need[k][f]: the least that columns k.. put on face f
    need = [[0] * l]
    for col, mu in zip(reversed(cols), reversed(mus)):
        need.append([r + mu * c for r, c in zip(need[-1], col)])
    need.reverse()
    # a face whose last column is k forces column k's total; the free
    # columns force none and lead the order
    last = {f: k for k, support in enumerate(supports) for f in support}
    forcing = [next((f for f in support if last[f] == k), None) for k, support in enumerate(supports)]
    free = [(cols[k], mus[k], supports[k], need[k + 1]) for k, f in enumerate(forcing) if f is None]
    forced = [
        (f, cols[k][f], mus[k], [(e, cols[k][e], need[k + 1][e]) for e in supports[k]])
        for k, f in enumerate(forcing)
        if f is not None
    ]

    def count(widths: Sequence[int]) -> int:
        if len(widths) != l:
            raise ValueError(f"expected {l} widths, got {len(widths)}")
        if any(w <= 0 for w in widths):
            raise ValueError("widths must be positive")
        remaining = [2 * w for w in widths]
        if any(r < lo for r, lo in zip(remaining, need[0])):
            return 0
        # each free column loops up to its largest total
        check_lattice_size([min((remaining[e] - rest[e]) // col[e] for e in support) for col, _, support, rest in free])

        def solve_forced() -> int:
            left = remaining[:]
            total = 1
            for f, cf, mu, room in forced:
                t, r = divmod(left[f], cf)
                if r or t < mu:
                    return 0
                for e, ce, lo in room:
                    left[e] -= t * ce
                    if left[e] < lo:
                        return 0
                total *= comb(t - 1, mu - 1)
            return 0 if any(left) else total

        def loop_free(i: int) -> int:
            if i == len(free):
                return solve_forced()
            col, mu, support, rest = free[i]
            total = 0
            for t in range(mu, min((remaining[e] - rest[e]) // col[e] for e in support) + 1):
                for e in support:
                    remaining[e] -= t * col[e]
                total += comb(t - 1, mu - 1) * loop_free(i + 1)
                for e in support:
                    remaining[e] += t * col[e]
            return total

        return loop_free(0)

    return count


def exact_lattice_count(g: RibbonGraph, widths: Sequence[int]) -> int:
    """Number of positive half-integer edge metrics realizing the face widths.

    Works in doubled units: each edge length l_e = x_e/2 with x_e a positive
    integer, and each face imposes sum of x over its boundary darts = 2 w_i.
    The mu edges sharing a face-incidence column (_edge_forms) enter only
    through their total t, which they split in C(t-1, mu-1) ways, so the
    count is sum over t_c >= mu_c with sum_c t_c col_c = 2w of
    prod_c C(t_c-1, mu_c-1), taken over the distinct columns c.

    The free columns lead _counting_order, and the count loops over their
    totals.  Each forced column then follows in one straight pass: its
    total is what is left on the face it forces, divided by its entry
    there, which must divide exactly, reach mu and leave every face of the
    column what the later columns need.  _lattice_counter does the set-up,
    once per graph for leading_part_fit and once per call here.
    """
    return _lattice_counter(g)(widths)


def _edge_forms(g: RibbonGraph) -> list[tuple[int, ...]]:
    """Per edge, the face-coefficient vector of the pole sum lambda~(e)."""
    l = g.faces
    forms = []
    for a, b in g.edges():
        vec = [0] * l
        vec[g.face_of_dart[a]] += 1
        vec[g.face_of_dart[b]] += 1
        forms.append(tuple(vec))
    return forms


Form = tuple[int, ...]
Term = tuple[Fraction, Counter[Form]]


def laplace_transform(g: RibbonGraph) -> Term:
    """2^{m+n-1} times the product over edges of 1/(sum of the two bordering
    face poles), a face bordering an edge twice counting twice: one term."""
    coeff = Fraction(2 ** (g.m + g.n - 1))
    forms: Counter[Form] = Counter()
    for vec in _edge_forms(g):
        prim = _primitive(vec)
        coeff /= sum(vec) // sum(prim)  # the content of vec
        forms[prim] += 1
    return coeff, forms


def _unit(i: int, l: int) -> Form:
    return tuple(int(j == i) for j in range(l))


def laplace_of_polynomial(p: Polynomial) -> list[Term]:
    """Transform of a width polynomial, variable by variable: a monomial
    factor w_i^k turns into k!/lambda_i^{k+1}, so a variable absent from a
    monomial still contributes 1/lambda_i."""
    return [
        (coeff * prod(map(factorial, exps)), Counter({_unit(i, len(exps)): k + 1 for i, k in enumerate(exps)}))
        for exps, coeff in p.sorted_terms()
    ]


def _form_product(powers: Counter[Form], l: int) -> Polynomial:
    out = Polynomial({(0,) * l: 1})
    for vec, mult in powers.items():
        linear = Polynomial({_unit(i, l): c for i, c in enumerate(vec) if c})
        for _ in range(mult):
            out = out * linear
    return out


def same_transform(f: Sequence[Term], g: Sequence[Term]) -> bool:
    """Whether two transforms are the same rational function.

    f - g is multiplied out over the least common multiple of its
    denominators, after merging terms over the same forms, and equal
    transforms leave the numerator zero.  A zero form would zero that
    multiple and pass any comparison, so it is refused.
    """
    merged: dict[tuple[tuple[Form, int], ...], Fraction] = {}
    for sign, terms in ((1, f), (-1, g)):
        for c, forms in terms:
            if not all(any(form) for form in forms):
                raise ValueError("a transform term divides by the zero form")
            key = tuple(sorted(forms.items()))
            merged[key] = merged.get(key, 0) + sign * c
    parts = [(c, Counter(dict(key))) for key, c in merged.items() if c]
    common: Counter[Form] = Counter()
    for _, forms in parts:
        common |= forms
    l = len(next(iter(common), ()))
    num = Polynomial()
    for c, forms in parts:
        num = num + c * _form_product(common - forms, l)
    return num.is_zero()


def _column_classes(graphs: Sequence[RibbonGraph]) -> list[tuple[RibbonGraph, Fraction]]:
    """(first member, weight) of each class of graphs with the same multiset
    of edge columns, on which a graph's lattice count and transform depend.
    Each graph weighs m! n! / |Aut|, the vertex-labelled graphs it stands for
    up to rotating the trivalent vertices."""
    classes: dict[tuple[tuple[int, ...], ...], list] = {}
    for g in graphs:
        weight = Fraction(factorial(g.m) * factorial(g.n), g.aut)
        classes.setdefault(tuple(sorted(_edge_forms(g))), [g, 0])[1] += weight
    return [(g, weight) for g, weight in classes.values()]


def hat_F(m: int, n: int) -> list[Term]:
    """Sum of the graph transforms over the vertex-labelled graphs: one term
    per edge-column class of the enumeration, weighted as _column_classes
    weighs it."""
    terms = []
    for g, weight in _column_classes(enumerate_graphs(m, n)):
        c, forms = laplace_transform(g)
        terms.append((weight * c, forms))
    return terms


def verify_pole_recurrence(m: int, n: int) -> bool:
    """Check hat_F_{m+1,n+1} = 2(m+1) sum_i (-1/lambda_i) d/dlambda_i hat_F_{m,n}.

    Term by term, since d/dlambda_i L^-k = -k L_i L^-(k+1): each term
    c/prod L^k and each form L with L_i != 0 give the term
    2(m+1) c k L_i / (lambda_i L prod L^k).
    """
    l = LayerSignature(m, n).faces
    rhs = []
    for c, forms in hat_F(m, n):
        for form, k in forms.items():
            for i in range(l):
                if form[i]:
                    # Counter([form, unit]), as Counter({form: 1, unit: 1})
                    # keeps one entry when form is the unit form itself
                    rhs.append((2 * (m + 1) * c * k * form[i], forms + Counter([form, _unit(i, l)])))
    return same_transform(hat_F(m + 1, n + 1), rhs)


# -- leading-term fit --------------------------------------------------


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, expanded along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]]) for j, a in enumerate(rows[0]) if a)


def _wall_normals(graphs: Sequence[RibbonGraph], l: int) -> set[tuple[int, ...]]:
    """Normals of the cone walls where any graph's count changes regime.

    Walls of a vector partition function are spanned by subsets of incidence
    columns of rank l-1.  Each (l-1)-subset of a graph's distinct columns
    gives the normal with entries (-1)^i det(the columns without coordinate
    i), which is zero when the subset has lower rank.
    """
    normals: set[tuple[int, ...]] = set()
    for g in graphs:
        for subset in combinations(set(_edge_forms(g)), l - 1):
            nu = [(-1) ** i * _det([c[:i] + c[i + 1:] for c in subset]) for i in range(l)]
            if any(nu):
                normals.add(_primitive(nu))
    return normals


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for v in vec:
        g = gcd(g, abs(v))
    out = tuple(v // g for v in vec)
    for v in out:
        if v:
            return out if v > 0 else tuple(-x for x in out)
    return out


def _directions(l: int, radius: int) -> Iterator[tuple[int, ...]]:
    """Positive primitive integer directions with entries <= radius,
    graded by coordinate sum."""
    for total in range(l, l * radius + 1):
        for c in compositions(total - l, l):
            u = tuple(x + 1 for x in c)
            if max(u) <= radius and gcd(*u) == 1:
                yield u


def leading_part_fit(m: int, n: int) -> Polynomial:
    """Recover the top homogeneous part of the labelled lattice count.

    Sampling runs along rays t*u for off-wall positive directions u; on a ray
    the count is a polynomial of degree 2a in t whose leading coefficient is
    the value of the degree-2a part at u. Fitting those values against the
    even-exponent monomial basis recovers the polynomial exactly.
    """
    sig = LayerSignature(m, n)
    a, l = sig.half_degree, sig.faces
    _check_pairings(m, n)
    if l > 3:
        raise ValueError("leading-term fit supports at most 3 faces")
    classes = _column_classes(enumerate_graphs(m, n))
    if not classes:
        raise ValueError(f"no graphs for signature ({m},{n})")
    walls = _wall_normals([g for g, _ in classes], l)

    counters = [(weight, _lattice_counter(g)) for g, weight in classes]

    def total_count(widths: tuple[int, ...]) -> Fraction:
        return sum(weight * count(widths) for weight, count in counters)

    def leading_along(u: tuple[int, ...]) -> Fraction:
        # t steps by 2: an edge with one face on both sides adds a column
        # 2e_i, with which the count can be a quasi-polynomial of period 2 in
        # t, and one parity class of t then still lies on one polynomial;
        # the two samples past the 2a + 1 unknowns check that it does
        t0 = max(2, (3 * m + n) // 2)
        ts = [t0 + 2 * i for i in range(2 * a + 3)]
        vals = [total_count(tuple(t * ui for ui in u)) for t in ts]
        return solve_exact([[t**p for p in range(2 * a + 1)] for t in ts], vals, 2 * a + 1)[-1]

    basis = [tuple(2 * b for b in comp) for comp in compositions(a, l)]
    rows: list[list[int]] = []
    rhs: list[Fraction] = []
    needed = len(basis) + 2
    for u in _directions(l, SAMPLE_RADIUS):
        if any(sum(ui * vi for ui, vi in zip(u, nu)) == 0 for nu in walls):
            continue
        rows.append([prod(ui**e for ui, e in zip(u, exps)) for exps in basis])
        rhs.append(leading_along(u))
        if len(rows) >= needed:
            break
    coeffs = solve_exact(rows, rhs, len(basis))
    return Polynomial({exps: c for exps, c in zip(basis, coeffs) if c})
