"""Connected genus-0 ribbon graphs with labelled faces, exact lattice counts
of half-integer metrics, Laplace transforms, and the leading-term fit.

Darts are numbered 0..3m+n-1. The vertex rotation sigma is fixed once and for
all: dart triples (3i, 3i+1, 3i+2) form the trivalent vertex i, and dart
3m+j is the univalent vertex j. A graph is then a fixed-point-free involution
alpha pairing the darts, together with a labelling of the faces, which are
the cycles of d -> sigma(alpha(d)).

Two labelled graphs are isomorphic when a dart relabelling preserving sigma
carries one to the other. With vertex labels kept (full mode) the relabelling
can only rotate each trivalent triple; dropping vertex labels (faces-only
mode) additionally permutes trivalent triples among themselves and univalent
darts among themselves. Face labels are preserved in both modes.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd, prod
from typing import Iterator, Sequence

from .layers import LayerSignature
from .polynomials import Polynomial, RationalFunction, rf_add, rf_equal, rf_mul, rf_partial, rf_scale
from .rationals import binomial, compositions, factorial

# enumerate_graphs refuses signatures with more labelled pairings than this
MAX_LABELLED_PAIRINGS = 1_000_000

__all__ = [
    "RibbonGraph",
    "enumerate_graphs",
    "exact_lattice_count",
    "laplace_transform",
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


@dataclass(frozen=True)
class RibbonGraph:
    """One labelled connected genus-0 ribbon graph."""

    m: int
    n: int
    alpha: tuple[int, ...]
    face_of_dart: tuple[int, ...]

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

    def face_cycles(self) -> list[list[int]]:
        return _face_partition(self.m, self.n, self.alpha)

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


def _pairings(darts: list[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings of the dart list."""
    if not darts:
        yield ()
        return
    first, rest = darts[0], darts[1:]
    for i, other in enumerate(rest):
        head = (first, other)
        for tail in _pairings(rest[:i] + rest[i + 1:]):
            yield (head,) + tail


def _face_partition(m: int, n: int, alpha: Sequence[int]) -> list[list[int]]:
    sig = _sigma(m, n)
    seen = [False] * len(alpha)
    cycles = []
    for start in range(len(alpha)):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = sig[alpha[d]]
        cycles.append(cyc)
    return cycles


def _gauge_maps(m: int, n: int, full_labels: bool) -> list[tuple[int, ...]]:
    """Dart relabellings that preserve sigma and the chosen vertex labels."""
    rotations: list[list[tuple[int, int, int]]] = []
    for i in range(m):
        base = (3 * i, 3 * i + 1, 3 * i + 2)
        rotations.append([base, (base[1], base[2], base[0]), (base[2], base[0], base[1])])
    block_perms = [tuple(range(m))] if full_labels else list(permutations(range(m)))
    uni_perms = [tuple(range(n))] if full_labels else list(permutations(range(n)))
    maps = []
    d = 3 * m + n

    def build(block_perm, rots, uni_perm) -> tuple[int, ...]:
        tau = [0] * d
        for i in range(m):
            target = block_perm[i]
            images = rots[i]
            for off in range(3):
                tau[3 * i + off] = 3 * target + (images[off] - 3 * i)
        for j in range(n):
            tau[3 * m + j] = 3 * m + uni_perm[j]
        return tuple(tau)

    def rot_choices(i: int):
        if i == m:
            yield []
            return
        for r in rotations[i]:
            for rest in rot_choices(i + 1):
                yield [r] + rest

    for block_perm in block_perms:
        for rots in rot_choices(0):
            for uni_perm in uni_perms:
                maps.append(build(block_perm, rots, uni_perm))
    return maps


def _apply_gauge(tau: Sequence[int], alpha: Sequence[int], labels: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    d = len(alpha)
    new_alpha = [0] * d
    new_labels = [0] * d
    for x in range(d):
        new_alpha[tau[x]] = tau[alpha[x]]
        new_labels[tau[x]] = labels[x]
    return tuple(new_alpha), tuple(new_labels)


def _walk(sigma: Sequence[int], alpha: Sequence[int], root: int) -> list[int]:
    """Darts in the order a breadth-first walk along sigma and alpha meets them."""
    order, seen = [root], {root}
    for x in order:
        for y in (sigma[x], alpha[x]):
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order


def _labelled_pairings(m: int, n: int) -> int:
    """(3m+n-1)!! * l!: the face-labelled dart pairings enumerate_graphs walks."""
    return prod(range(3 * m + n - 1, 0, -2)) * factorial(LayerSignature(m, n).faces)


def enumerate_graphs(m: int, n: int, label_mode: str = "faces-only") -> list[RibbonGraph]:
    """All isomorphism classes of connected genus-0 graphs with labelled faces.

    label_mode "full" keeps vertex labels as well; "faces-only" drops them.

    Each labelled pairing is keyed by its rooted code (Weinberg's canonical
    form): darts renumbered along a breadth-first walk from a root, taking the
    least code over a root set the gauge group maps to itself, so equal codes
    mean isomorphic graphs.  Each class is printed as the least gauge image of
    one of its members.
    """
    if label_mode not in ("faces-only", "full"):
        raise ValueError(f"unknown label mode {label_mode!r}")
    l = LayerSignature(m, n).faces
    size = _labelled_pairings(m, n)
    if size > MAX_LABELLED_PAIRINGS:
        raise ValueError(
            f"signature ({m},{n}) has {size} labelled pairings to enumerate, "
            f"more than the limit of {MAX_LABELLED_PAIRINGS}"
        )
    d = 3 * m + n
    full = label_mode == "full"
    sigma = _sigma(m, n)
    if full:
        roots = [0, 1, 2] if m else [0]
    else:
        roots = list(range(3 * m, d)) if n else list(range(d))
    classes: dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for pairing in _pairings(list(range(d))):
        alpha = [0] * d
        for a, b in pairing:
            alpha[a], alpha[b] = b, a
        alpha = tuple(alpha)
        cycles = _face_partition(m, n, alpha)
        if len(cycles) != l:
            continue
        orders = [_walk(sigma, alpha, root) for root in roots]
        if len(orders[0]) != d:
            continue  # disconnected
        cycle_of = [0] * d
        for ci, cyc in enumerate(cycles):
            for x in cyc:
                cycle_of[x] = ci
        codes = []
        for order in orders:
            number = [0] * d
            for i, x in enumerate(order):
                number[x] = i
            # full mode names each dart's vertex by its least dart
            shape = (
                tuple(number[sigma[x]] for x in order),
                tuple(number[alpha[x]] for x in order),
                tuple(x - x % 3 if x < 3 * m else x for x in order) if full else (),
            )
            codes.append((shape, order))
        for perm in permutations(range(l)):
            labels = tuple(perm[c] for c in cycle_of)
            key = min((shape, tuple(labels[x] for x in order)) for shape, order in codes)
            classes.setdefault(key, (alpha, labels))
    gauge = _gauge_maps(m, n, full)
    found = sorted(min(_apply_gauge(tau, alpha, labels) for tau in gauge) for alpha, labels in classes.values())
    return [RibbonGraph(m, n, a, f) for a, f in found]


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


def exact_lattice_count(g: RibbonGraph, widths: Sequence[int]) -> int:
    """Number of positive half-integer edge metrics realizing the face widths.

    Works in doubled units: each edge length l_e = x_e/2 with x_e a positive
    integer, and each face imposes sum of x over its boundary darts = 2 w_i.
    The mu edges sharing a face-incidence column (_edge_forms) enter only
    through their total t, which they split in C(t-1, mu-1) ways, so the
    count is sum over t_c >= mu_c with sum_c t_c col_c = 2w of
    prod_c C(t_c-1, mu_c-1), taken over the distinct columns c.
    """
    l = g.faces
    if len(widths) != l:
        raise ValueError(f"expected {l} widths, got {len(widths)}")
    if any(w <= 0 for w in widths):
        raise ValueError("widths must be positive")
    mult = Counter(_edge_forms(g))
    cols = _counting_order(list(mult), l)
    mus = [mult[c] for c in cols]
    supports = [[f for f in range(l) if c[f]] for c in cols]
    # forcing[k]: a face whose last column is k; need[k][f]: the least that
    # columns k.. put on face f
    last = {f: k for k, support in enumerate(supports) for f in support}
    forcing = [next((f for f in support if last[f] == k), None) for k, support in enumerate(supports)]
    need = [[0] * l]
    for col, mu in zip(reversed(cols), reversed(mus)):
        need.append([r + mu * c for r, c in zip(need[-1], col)])
    need.reverse()
    remaining = [2 * w for w in widths]
    if any(r < lo for r, lo in zip(remaining, need[0])):
        return 0

    def count(k: int) -> int:
        if k == len(cols):
            return 0 if any(remaining) else 1
        col, mu, support, f = cols[k], mus[k], supports[k], forcing[k]
        hi = min((remaining[e] - need[k + 1][e]) // col[e] for e in support)
        if f is None:
            lo = mu
        elif remaining[f] % col[f]:
            return 0
        else:
            lo = remaining[f] // col[f]
        total = 0
        for t in range(lo, hi + 1):
            for e in support:
                remaining[e] -= t * col[e]
            total += binomial(t - 1, mu - 1) * count(k + 1)
            for e in support:
                remaining[e] += t * col[e]
        return total

    return count(0)


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


def _factored_transform(g: RibbonGraph) -> tuple[Fraction, Counter[tuple[int, ...]]]:
    """Transform as coefficient / product of primitive linear forms."""
    coeff = Fraction(2 ** (g.m + g.n - 1))
    denom: Counter[tuple[int, ...]] = Counter()
    for vec in _edge_forms(g):
        prim = _primitive(vec)
        coeff /= sum(vec) // sum(prim)  # the content of vec
        denom[prim] += 1
    return coeff, denom


def _form_product(powers: dict[tuple[int, ...], int]) -> Polynomial:
    out = Polynomial.one()
    for vec, mult in powers.items():
        linear = Polynomial({(0,) * i + (1,): c for i, c in enumerate(vec) if c})
        for _ in range(mult):
            out = out * linear
    return out


def _assemble(parts: list[tuple[Fraction, Counter[tuple[int, ...]]]]) -> RationalFunction:
    """Sum of factored transforms over their least common denominator."""
    common: Counter[tuple[int, ...]] = Counter()
    for _, denom in parts:
        common |= denom
    num = Polynomial.zero()
    for coeff, denom in parts:
        num = num + coeff * _form_product(common - denom)
    return RationalFunction(num, _form_product(common))


def laplace_transform(g: RibbonGraph) -> RationalFunction:
    """2^{m+n-1} times the product over edges of 1/(sum of the two bordering
    face poles), a face bordering an edge twice counting twice."""
    return _assemble([_factored_transform(g)])


def hat_F(m: int, n: int) -> RationalFunction:
    """Sum of the transforms over the fully labelled enumeration."""
    return _assemble([_factored_transform(g) for g in enumerate_graphs(m, n, "full")])


def verify_pole_recurrence(m: int, n: int) -> bool:
    """Check hat_F_{m+1,n+1} = 2(m+1) sum_i (-1/lambda_i) d/dlambda_i hat_F_{m,n}."""
    lhs = hat_F(m + 1, n + 1)
    base = hat_F(m, n)
    l = LayerSignature(m, n).faces
    rhs = None
    for i in range(l):
        term = rf_mul(
            RationalFunction(Polynomial.constant(-1), Polynomial.variable(i)),
            rf_partial(base, i),
        )
        rhs = term if rhs is None else rf_add(rhs, term)
    rhs = rf_scale(rhs, 2 * (m + 1))
    return rf_equal(lhs, rhs)


# -- leading-term interpolation ----------------------------------------


def _wall_normals(graphs: Sequence[RibbonGraph], l: int) -> set[tuple[int, ...]]:
    """Normals of the cone walls where any graph's count changes regime.

    Walls of a vector partition function are spanned by subsets of incidence
    columns of rank l-1; for l <= 3 these come from single columns (l = 2)
    or pairs of columns (l = 3).
    """
    normals: set[tuple[int, ...]] = set()
    if l == 1:
        return normals
    for g in graphs:
        cols = list(set(_edge_forms(g)))
        if l == 2:
            for (c1, c2) in cols:
                nu = (c2, -c1)
                normals.add(_primitive(nu))
        elif l == 3:
            for i in range(len(cols)):
                for j in range(i + 1, len(cols)):
                    a, b = cols[i], cols[j]
                    nu = (
                        a[1] * b[2] - a[2] * b[1],
                        a[2] * b[0] - a[0] * b[2],
                        a[0] * b[1] - a[1] * b[0],
                    )
                    if any(nu):
                        normals.add(_primitive(nu))
        else:
            raise ValueError("leading-term fit supports at most 3 faces")
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


def _lagrange_leading(points: list[tuple[int, int]]) -> Fraction:
    """Leading coefficient of the interpolating polynomial through the points."""
    lead = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        denom = 1
        for j, (xj, _) in enumerate(points):
            if i != j:
                denom *= xi - xj
        lead += Fraction(yi, denom)
    return lead


def _interpolate_value(points: list[tuple[int, int]], x: Fraction) -> Fraction:
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if i != j:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def leading_part_fit(m: int, n: int, sample_radius: int = 4) -> Polynomial:
    """Recover the top homogeneous part of the labelled lattice count.

    Sampling runs along rays t*u for off-wall positive directions u; on a ray
    the count is a polynomial of degree 2a in t whose leading coefficient is
    the value of the degree-2a part at u. Fitting those values against the
    even-exponent monomial basis recovers the polynomial exactly.
    """
    sig = LayerSignature(m, n)
    a, l = sig.half_degree, sig.faces
    graphs = enumerate_graphs(m, n, "full")
    if not graphs:
        raise ValueError(f"no graphs for signature ({m},{n})")
    walls = _wall_normals(graphs, l)
    # graphs with the same edge columns have the same count
    classes: dict[tuple[tuple[int, ...], ...], list] = {}
    for g in graphs:
        classes.setdefault(tuple(sorted(_edge_forms(g))), [g, 0])[1] += 1

    def total_count(widths: tuple[int, ...]) -> int:
        return sum(size * exact_lattice_count(g, widths) for g, size in classes.values())

    def leading_along(u: tuple[int, ...]) -> Fraction:
        npoints = 2 * a + 1
        base_t0 = max(2, (3 * m + n) // 2)
        for stride in (2, 4, 6, 12):
            for t0 in (base_t0, base_t0 + 1, base_t0 + 5):
                ts = [t0 + stride * i for i in range(npoints + 2)]
                vals = [total_count(tuple(t * ui for ui in u)) for t in ts]
                pts = list(zip(ts[:npoints], vals[:npoints]))
                ok = all(
                    _interpolate_value(pts, Fraction(t)) == v
                    for t, v in zip(ts[npoints:], vals[npoints:])
                )
                if ok:
                    return _lagrange_leading(pts)
        raise ValueError(f"could not stabilize ray interpolation along {u}")

    basis = [tuple(2 * b for b in comp) for comp in compositions(a, l)]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    needed = len(basis) + 2
    for u in _directions(l, sample_radius):
        if any(sum(ui * vi for ui, vi in zip(u, nu)) == 0 for nu in walls):
            continue
        rows.append([Fraction(_eval_mono(exps, u)) for exps in basis])
        rhs.append(leading_along(u))
        if len(rows) >= needed:
            break
    if len(rows) < len(basis):
        raise ValueError("insufficient off-wall sample directions; raise sample_radius")
    coeffs = _solve_exact(rows, rhs, len(basis))
    return Polynomial({exps: c for exps, c in zip(basis, coeffs) if c})


def _eval_mono(exps: tuple[int, ...], point: tuple[int, ...]) -> int:
    out = 1
    for e, p in zip(exps, point):
        out *= p**e
    return out


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction], unknowns: int) -> list[Fraction]:
    """Gaussian elimination; raises if the system is inconsistent or deficient."""
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(unknowns):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if r < unknowns:
        raise ValueError("sample directions do not determine the fit")
    for i in range(r, len(aug)):
        if aug[i][unknowns] != 0:
            raise ValueError("inconsistent samples: count is not a degree-2a polynomial")
    sol = [Fraction(0)] * unknowns
    for i, c in enumerate(pivots):
        sol[c] = aug[i][unknowns]
    return sol
