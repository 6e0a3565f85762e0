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
and leading_part_fit. The maps behind the classes are grown a trivalent
vertex at a time from (0,2) and (1,1), by a leg hung from an edge or a leg
closed into a face, and each is kept once, as its least member.

A Laplace transform is a list of terms (c, forms), each c / prod L^forms[L]
over primitive linear forms L in the face poles lambda_i.  Only
same_transform multiplies terms out, into integer polynomials kept as
{exponents: int} dicts.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, exp, factorial, gcd, inf, lcm, lgamma, log, prod
from typing import Callable, Iterable, Iterator, Sequence

from .layers import LayerSignature
from .polynomials import Polynomial
from .rationals import SIZE_CAP, Record, Refused, compositions, seconds_text, size_text, solve_exact

# enumerate_graphs refuses signatures estimated to have more classes than this
MAX_CLASSES = 200_000
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
    return tuple([d - d % 3 + (d + 1) % 3 for d in range(3 * m)] + list(range(3 * m, 3 * m + n)))


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

    def to_json_dict(self) -> dict:
        return {
            "darts": self.darts,
            "sigma": list(self.sigma),
            "alpha": list(self.alpha),
            "labels": {
                # trivalent darts name the vertices 0..m-1, univalent darts m..m+n-1
                "vertices": [d // 3 if d < 3 * self.m else d - 2 * self.m for d in range(self.darts)],
                "faces": list(self.face_of_dart),
            },
        }


def _face_labels(sigma: Sequence[int], alpha: Sequence[int]) -> list[int]:
    """The face of each dart, faces being the cycles of d -> sigma(alpha(d))
    numbered in the order of their least darts."""
    face = [-1] * len(alpha)
    faces = 0
    for start in range(len(alpha)):
        if face[start] >= 0:
            continue
        d = start
        while face[d] < 0:
            face[d] = faces
            d = sigma[alpha[d]]
        faces += 1
    return face


def _canonical(m: int, alpha: Sequence[int]) -> tuple[tuple[int, ...], list[list[int]]]:
    """(least, orders): the map's least member, and the darts in number order
    of each renumbering that gives it, which are the map's automorphisms.

    A trivalent root is numbered 0, and the darts are taken in number order.
    A partner with no number gets the least it can: a trivalent one the next
    vertex slot, rotated so that it comes first, a univalent one the next leg
    number.  So the root fixes the renumbering, dropped once it passes least.
    """
    sigma = _sigma(m, len(alpha) - 3 * m)
    least: tuple[int, ...] = ()
    orders: list[list[int]] = []
    for root in range(3 * m):
        order = [root, sigma[root], sigma[sigma[root]]]
        number = [-1] * len(alpha)
        number[order[0]], number[order[1]], number[order[2]] = 0, 1, 2
        legs, code, bound = [], [], least
        for x in order:
            y = alpha[x]
            if number[y] < 0 and y < 3 * m:
                for z in (y, sigma[y], sigma[sigma[y]]):
                    number[z] = len(order)
                    order.append(z)
            elif number[y] < 0:
                number[y] = 3 * m + len(legs)
                legs.append(y)
            if bound and number[y] != bound[len(code)]:
                if number[y] > bound[len(code)]:
                    break
                bound = ()
            code.append(number[y])
        else:
            code += [number[alpha[x]] for x in legs]
            if not least or tuple(code) < least:
                least, orders = tuple(code), []
            if tuple(code) == least:
                orders.append(order + legs)
    return least, orders


def _grown(m: int, n: int, alpha: Sequence[int]) -> Iterator[list[int]]:
    """The (m, n) maps one move grows from a smaller map alpha, the new
    trivalent vertex taking the darts p, q, r = 3m-3, 3m-2, 3m-1.  Move A
    (alpha an (m-1, n-1) map): p and q go on the two sides of an edge {a, b},
    and r holds a new last leg, which hangs into b's side.  Move B (n = 0,
    alpha an (m-1, 1) map): the leg's dart 3m-3 becomes p, and q and r close
    a loop or subdivide an edge side a in the leg's face, splitting it."""
    p, q, r = 3 * m - 3, 3 * m - 2, 3 * m - 1
    if n:
        # the old univalent darts move up past the new vertex
        shifted = [a + 3 if a >= p else a for a in alpha]
        base = shifted[:p] + [-1, -1, -1] + shifted[p:] + [-1]
        for a, b in enumerate(base):
            if b >= 0:
                g = base[:]
                g[a], g[p], g[b], g[q], g[r], g[-1] = p, a, q, b, len(base) - 1, r
                yield g
        return
    yield list(alpha) + [r, q]
    sigma = _sigma(m - 1, 1)
    a = sigma[alpha[p]]
    while a != alpha[p]:
        g = list(alpha) + [alpha[a], a]
        g[a], g[alpha[a]] = r, q
        yield g
        a = sigma[alpha[a]]


def _maps(m: int, n: int) -> dict[tuple[int, ...], tuple[Sequence[int], list[list[int]]]]:
    """The connected genus-0 maps with unlabelled faces, grown from (0,2) and
    (1,1) by _grown: each as its least member, with the first map met that
    has it and that map's orders (_canonical)."""
    if (m, n) in ((0, 2), (1, 1)):
        return {(1, 0): ((1, 0), [[0, 1], [1, 0]])} if m == 0 else {(1, 0, 3, 2): ((1, 0, 3, 2), [[0, 1, 2, 3]])}
    maps: dict[tuple[int, ...], tuple[Sequence[int], list[list[int]]]] = {}
    for alpha in _maps(m - 1, n - 1 if n else 1):
        for g in _grown(m, n, alpha):
            least, orders = _canonical(m, g)
            maps.setdefault(least, (g, orders))
    return maps


def enumerate_graphs(m: int, n: int) -> list[RibbonGraph]:
    """All isomorphism classes of connected genus-0 graphs with labelled faces.

    Each of the l! face labellings of each map from _maps is renumbered by
    the renumberings that give the map's least member.  The least result is
    the class's least member (alpha, then face labels), as any renumbering
    to the least alpha is one of them, and those that give it number |Aut|.

    A signature is refused before any work when its estimate
    (3m+n-1)!! l! / (3^m m! n!), the pairings with labelled faces over the
    relabellings, passes MAX_CLASSES; it was 1.7 to 90 times the class count
    where served.  Through lgamma, it costs nothing at any size.
    """
    l, half = LayerSignature(m, n).faces, (3 * m + n) // 2
    try:
        log_size = lgamma(2 * half + 1) - half * log(2) - lgamma(half + 1) + lgamma(l + 1)
        log_size -= m * log(3) + lgamma(m + 1) + lgamma(n + 1)
    except OverflowError:  # a signature past the float range
        log_size = inf
    size = round(exp(log_size)) if log_size < log(SIZE_CAP) else SIZE_CAP + 1
    if size > MAX_CLASSES:
        raise Refused(f"signature ({m},{n}) is estimated at {size_text(size)} graph classes, "
                         f"more than the limit of {MAX_CLASSES}")
    classes: dict[tuple, RibbonGraph] = {}
    for alpha, (g, orders) in _maps(m, n).items():
        face = _face_labels(_sigma(m, n), g)
        for perm in permutations(range(l)):
            labels = [perm[f] for f in face]
            rooted = [tuple([labels[x] for x in order]) for order in orders]
            least = min(rooted)
            if (alpha, least) not in classes:
                classes[alpha, least] = RibbonGraph(m, n, alpha, least, rooted.count(least))
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


def check_lattice_size(free_totals: Sequence[int], spent: float = 0) -> float:
    """Price a lattice count, refusing one that would not finish in
    reasonable time, and return the price plus spent.

    exact_lattice_count loops over every total of each free column up to
    its largest, free_totals, and the totals of f free columns that share
    faces fill about a simplex, so it visits about prod / f! of them.  At
    4e-6 s each, the estimate was 1.0 to 5.1 times the in-process time of
    each of the 137 faces-only graphs of (2,0), (2,2), (3,1), (3,3), (4,0)
    and (4,2) with a free column, at widths estimated near 0.4 s, on a
    2-CPU VM; it errs on the side of refusing.  Graph 3-1-21 at widths
    near 10^6 took 4.0-5.0 s (estimate 8 s), and 4-0-62 at width 100 took
    4.0-4.1 s (estimate 5 s).  A request of many counts passes the sum of
    the prices so far as spent, and is refused as soon as the sum passes
    LATTICE_MAX_SECONDS.
    """
    try:
        seconds = spent + 4e-6 * prod(free_totals) / factorial(len(free_totals))
    except OverflowError:  # a product past the float range
        seconds = inf
    if seconds > LATTICE_MAX_SECONDS:
        estimate = f"more than {LATTICE_MAX_SECONDS} s" if spent else seconds_text(seconds)
        raise Refused(
            f"lattice counts handle requests of up to about {LATTICE_MAX_SECONDS} s; these widths would take {estimate}"
        )
    return seconds


def _lattice_counter(
    g: RibbonGraph,
) -> tuple[Callable[[Sequence[int]], list[int] | None], Callable[[Sequence[int]], int]]:
    """(free_totals, count): count is exact_lattice_count(g, .) with its
    set-up done once: the columns in _counting_order, their multiplicities,
    the face each forced column forces, and what the columns from each one
    on need of each face.  free_totals gives the largest total of each
    free column, which check_lattice_size prices, or None when the widths
    hold less than the columns need and the count is 0; it refuses widths
    of the wrong number or sign.  count prices nothing, so its caller
    prices each count once."""
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

    def free_totals(widths: Sequence[int]) -> list[int] | None:
        if len(widths) != l:
            raise Refused(f"expected {l} widths, got {len(widths)}")
        if any(w <= 0 for w in widths):
            raise Refused("widths must be positive")
        remaining = [2 * w for w in widths]
        if any(r < lo for r, lo in zip(remaining, need[0])):
            return None
        return [min((remaining[e] - rest[e]) // col[e] for e in support) for col, _, support, rest in free]

    def count(widths: Sequence[int]) -> int:
        if free_totals(widths) is None:
            return 0
        remaining = [2 * w for w in widths]

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

    return free_totals, count


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
    once per graph for leading_part_fit and once per call here, and
    check_lattice_size prices the count before it starts.
    """
    free_totals, count = _lattice_counter(g)
    totals = free_totals(widths)
    if totals is not None:
        check_lattice_size(totals)
    return count(widths)


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
        content = gcd(*vec)  # the entries are non-negative
        coeff /= content
        forms[tuple(v // content for v in vec)] += 1
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


def _times(p: dict[Form, int], q: dict[Form, int]) -> dict[Form, int]:
    """The product of two polynomials kept as {exponents: int} dicts."""
    out: dict[Form, int] = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            key = tuple([x + y for x, y in zip(ka, kb)])
            out[key] = out.get(key, 0) + ca * cb
    return out


def same_transform(f: Sequence[Term], g: Sequence[Term]) -> bool:
    """Whether two transforms are the same rational function.

    f - g is multiplied out over the least common multiple of its
    denominators, after merging terms over the same forms, and equal
    transforms leave the numerator zero.  A zero form would zero that
    multiple and pass any comparison, so it is refused.  The merged
    coefficients are scaled to integers by the lcm of their denominators,
    and the powers of each form are kept for the call.
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
    scale = lcm(*(c.denominator for c, _ in parts))
    # powers[L][k] is L^k
    powers = {form: [{(0,) * l: 1}, {_unit(i, l): c for i, c in enumerate(form) if c}] for form in common}
    num: dict[Form, int] = {}
    for c, forms in parts:
        out = {(0,) * l: c.numerator * (scale // c.denominator)}
        for form, k in (common - forms).items():
            ladder = powers[form]
            while len(ladder) <= k:
                ladder.append(_times(ladder[-1], ladder[1]))
            out = _times(out, ladder[k])
        for key, x in out.items():
            num[key] = num.get(key, 0) + x
    return not any(num.values())


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

    That part, F_{m,n}, is the volume of the metric polytopes: one
    polynomial on the open orthant, continuous across the walls where the
    count changes regime.  So sampling runs along rays t*u for any positive
    directions u; on a ray the count is a polynomial of degree 2a in t whose
    leading coefficient is the value of the degree-2a part at u.  Fitting
    those values against the even-exponent monomial basis recovers the
    polynomial exactly.  Rays that cannot reach the basis's rank are
    refused before any count.  At a = 0 the top part is the constant, which
    a count on a wall misses ((1,1) counts 0 on its diagonal), so it is read
    at widths (1, 2, 4, ...) and (3, 9, 27, ...), which must agree: a wall
    is spanned by columns e_i + e_j and 2e_i, so it reads sum_S w = sum_S' w
    for disjoint face sets S and S', which distinct powers of 2, or of 3,
    never satisfy.  check_lattice_size prices every count before the first,
    and the fit is refused once the sum passes LATTICE_MAX_SECONDS.
    """
    sig = LayerSignature(m, n)
    a, l = sig.half_degree, sig.faces
    classes = _column_classes(enumerate_graphs(m, n))
    basis = [tuple(2 * b for b in comp) for comp in compositions(a, l)]
    if a:
        directions: Iterable[tuple[int, ...]] = _directions(l, SAMPLE_RADIUS)
        # t steps by 2: an edge with one face on both sides adds a column
        # 2e_i, with which the count can be a quasi-polynomial of period 2 in
        # t, and one parity class of t then still lies on one polynomial;
        # the two samples past the 2a + 1 unknowns check that it does
        t0 = max(2, (3 * m + n) // 2)
        ts = [t0 + 2 * i for i in range(2 * a + 3)]
    else:
        directions, ts = [tuple(2**i for i in range(l)), tuple(3 ** (i + 1) for i in range(l))], [1]

    # the rays depend only on the basis, so they are chosen before any
    # count: reduced holds the rows so far, each with its leading column
    # scaled to 1; until the rows are full, a ray whose row they reduce to
    # zero is skipped, and then two more rays check the fit
    rays: list[tuple[int, ...]] = []
    rows: list[list[int]] = []
    reduced: list[tuple[int, list[Fraction]]] = []
    for u in directions:
        row = [prod(ui**e for ui, e in zip(u, exps)) for exps in basis]
        if len(rows) < len(basis):
            left = [Fraction(x) for x in row]
            for lead, r in reduced:
                left = [x - left[lead] * y for x, y in zip(left, r)]
            lead = next((i for i, x in enumerate(left) if x), -1)
            if lead < 0:
                continue
            reduced.append((lead, [x / left[lead] for x in left]))
        rays.append(u)
        rows.append(row)
        if len(rows) == len(basis) + 2:
            break
    if len(reduced) < len(basis):
        raise Refused(
            f"the rays with entries up to {SAMPLE_RADIUS} reach rank {len(reduced)} "
            f"of the {len(basis)} unknowns at ({m},{n}), so they cannot determine the fit"
        )
    samples = [tuple(t * ui for ui in u) for u in rays for t in ts]

    counters = []
    spent = 0.0
    for g, weight in classes:
        free_totals, count = _lattice_counter(g)
        for widths in samples:
            totals = free_totals(widths)
            if totals is not None:
                spent = check_lattice_size(totals, spent)
        counters.append((weight, count))

    def leading_along(u: tuple[int, ...]) -> Fraction:
        vals = [sum(weight * count(tuple(t * ui for ui in u)) for weight, count in counters) for t in ts]
        return solve_exact([[t**p for p in range(2 * a + 1)] for t in ts], vals, 2 * a + 1)[-1]

    coeffs = solve_exact(rows, [leading_along(u) for u in rays], len(basis))
    return Polynomial({exps: c for exps, c in zip(basis, coeffs) if c})
