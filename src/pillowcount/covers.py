"""Counting pillowcase covers with symmetric-group characters.

A degree-N cover of the pillowcase orbifold is encoded by four permutations
(g1, g2, g3, g4) in S_N with g1 g2 g3 g4 = 1, the monodromies around the four
corner points.  The weighted number of such tuples (each counted with factor
1/N!) is the classical character sum

    (|C1| |C2| |C3| |C4| / N!^2) * sum_chi  chi(C1) chi(C2) chi(C3) chi(C4)
                                            / dim(chi)^2

over the irreducible characters of S_N, with the gi constrained to conjugacy
classes C1..C4.  Character values come from the Murnaghan-Nakayama rule.
The cover counts build the values on a class 3^a 2^c 1^b all at once, as
the Schur expansion of the power-sum product p_3^a p_2^c p_1^b: shapes are
bead masks, each factor p_r adds every r-border strip, and a class of
degree N + 2 is one p_2 step from its class of degree N.  That step is
taken once per degree for all classes of the degree's parity, their values
packed side by side into one int per shape.  The two parities share only
the cheap seed columns, so the odd degrees run in a forked child process
while the caller runs the even ones; each degree's columns are unpacked
into lists aligned to its shapes, and the four-way sums over them run as
map/sum chains in C.  `character` removes strips from a single shape's
bead mask top-down and is the reference route.  `verify` checks these
four-way sums, per profile, against direct enumeration.

A cycle of length c in a corner monodromy sits over that corner as a point
where the induced quadratic differential has order c - 2: fixed points are
simple poles, 2-cycles are regular points, 3-cycles are simple zeros.  The
covers counted here therefore have corner classes with parts in {1, 2, 3},
and a cover belongs to the stratum with K simple zeros and K + 4 simple
poles exactly when the total number of 3-cycles over the four corners is K
and the total number of fixed points is K + 4.  Connected covers are
extracted from all covers through the logarithm of the counting series.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import threading
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, Sequence

from .rationals import multinomial, seconds_text

Partition = tuple[int, ...]
Profile = tuple[Partition, Partition, Partition, Partition]
# a cell of the cover counts: (degree, 3-cycles, fixed points)
Cell = tuple[int, int, int]

# largest degree at which naive_enumerate walks all monodromy tuples
NAIVE_MAX_DEGREE = 5


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


def class_size(cycle_type: Partition) -> int:
    """Number of permutations of the given cycle type, |C| = N!/z."""
    z = 1
    for part, m in Counter(cycle_type).items():
        z *= part**m * math.factorial(m)
    return math.factorial(sum(cycle_type)) // z


def _mask(shape: Partition) -> int:
    """The bead mask of shape, one bead per row at shape[i] + rows - 1 - i."""
    rows = len(shape)
    return sum(1 << (part + rows - 1 - i) for i, part in enumerate(shape))


def dimension(shape: Partition) -> int:
    """Dimension of the irreducible S_N representation labelled by shape."""
    return math.factorial(sum(shape)) // _mask_hook_product(_mask(shape))


# bounded, so that a call far past the small degrees it serves cannot grow
# the cache without limit
@lru_cache(maxsize=1 << 16)
def _mn_value(mask: int, parts: Partition) -> int:
    """chi^shape(parts) for the shape with this bead mask, parts decreasing.
    Removing an r-border strip moves a bead x >= r to the empty x - r."""
    if not parts or parts[0] == 1:
        # remaining cycles are all fixed points
        return math.factorial(len(parts)) // _mask_hook_product(mask)
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
    cycle consumed first).  The reference route: the cover counts build
    whole character columns with _character_columns instead."""
    irrep = tuple(sorted(irrep, reverse=True))
    cls = tuple(sorted(cls, reverse=True))
    if sum(irrep) != sum(cls):
        raise ValueError("irrep and class label different symmetric groups")
    return _mn_value(_mask(irrep), cls)


def corner_types(n: int, max_threes: int, max_ones: int) -> list[Partition]:
    """Cycle types 3^a 2^c 1^b with 3a + 2c + b = n, a <= max_threes and
    b <= max_ones, in decreasing-part form."""
    out = []
    for a in range(min(max_threes, n // 3) + 1):
        rest = n - 3 * a
        for b in range(min(max_ones, rest) + 1):
            if (rest - b) % 2:
                continue
            c = (rest - b) // 2
            out.append((3,) * a + (2,) * c + (1,) * b)
    return out


def zeros_and_poles(classes: Sequence[Partition]) -> tuple[int, int]:
    """(simple zeros, simple poles) over the given corner classes: their
    3-cycles and their fixed points."""
    return sum(cls.count(3) for cls in classes), sum(cls.count(1) for cls in classes)


def cover_profiles(n: int, max_threes: int, max_ones: int) -> Iterator[Profile]:
    """Ordered assignments of corner classes for degree n with the total
    number of 3-cycles bounded by max_threes and of fixed points by
    max_ones."""
    types = corner_types(n, max_threes, max_ones)
    for profile in itertools.product(types, repeat=4):
        threes, ones = zeros_and_poles(profile)
        if threes <= max_threes and ones <= max_ones:
            yield profile  # type: ignore[misc]


def genus(classes: Sequence[Partition]) -> int:
    """Genus of a connected cover of the sphere with the given four (or more)
    branch classes: 2 - 2g = -(r - 2) N + sum_i #cycles(g_i)."""
    n = sum(classes[0])
    r = len(classes)
    euler = sum(len(cls) for cls in classes) - (r - 2) * n
    if euler % 2:
        raise ValueError("branching data has odd Euler characteristic")
    return (2 - euler) // 2


def _add_strips(column: dict[int, int], r: int) -> dict[int, int]:
    """The character column times the power sum p_r: by the
    Murnaghan-Nakayama rule, every r-border strip added to every shape,
    signed by its height.  Zero entries are dropped."""
    out: dict[int, int] = {}
    # positions x + 1 .. x + r - 1 for the bead x = 0
    jumped = (1 << r) - 2
    for mask, value in column.items():
        # a strip moves a bead x to the empty position x + r
        movable = mask & ~(mask >> r)
        while movable:
            low = movable & -movable
            movable ^= low
            grown = mask ^ low ^ (low << r)
            # the strip's height is the number of beads it jumps over
            if (mask & low * jumped).bit_count() & 1:
                out[grown] = out.get(grown, 0) - value
            else:
                out[grown] = out.get(grown, 0) + value
    return {mask: value for mask, value in out.items() if value}


def _unpack(packed: Iterable[int], slots: int, width: int) -> list[list[int]]:
    """Split every packed value into `slots` balanced digits of `width` bits,
    lowest slot first: one list per slot, in the order of `packed`, zeros
    included.  Each digit must lie in -2^(width-1) .. 2^(width-1) - 1, so
    adding 2^(width-1) to every slot makes every digit a plain unsigned
    field, and no slot borrows from the one above it."""
    low = (1 << width) - 1
    half = 1 << (width - 1)
    bias = sum(half << (s * width) for s in range(slots))
    biased = [value + bias for value in packed]
    return [[(u >> s * width & low) - half for u in biased] for s in range(slots)]


def _character_columns(
    max_degree: int, max_threes: int, max_ones: int, parity: int
) -> Iterator[tuple[int, list[int], dict[Partition, list[int]]]]:
    """Yield (n, masks, columns) for the n = 1..max_degree with n % 2 ==
    parity, where columns maps every corner type 3^a 2^c 1^b of
    corner_types(n, max_threes, max_ones), in that order, to its character
    column: the Schur expansion of p_3^a p_2^c p_1^b, as the list of
    chi^shape(3^a 2^c 1^b) aligned to masks, zeros included.  masks holds
    every shape of degree n on which some column is nonzero.

    A shape is keyed by its bead mask, the bit set of its beta-numbers
    with max_degree beads; a shape of degree n has at most n rows, so every
    shape of the request fits.  The seed columns, c = 0, are one step from
    a seed of lower degree: p_1 from degree n - 1 while b > 0, else p_3
    from degree n - 3; only the last three degrees of seeds are kept.
    Seeds cross parities, so every seed is built for either parity.

    A class with c > 0 is one p_2 step from its class of degree n - 2, and
    every class of a degree shares that step.  So the classes of this
    parity of n are packed into one int per shape, one slot of `width`
    bits per class in balanced digits, and each degree of the parity takes
    one p_2 pass over the packed chain; a seed enters a new slot at its
    own degree.  The two parities share nothing past the seeds, which is
    what lets _multiset_values run them in two processes.  A digit is a
    character value, at most the dimension, so below sqrt(max_degree!) in
    size, and only final values are unpacked.
    """
    width = math.isqrt(math.factorial(max_degree)).bit_length() + 2
    empty = (1 << max_degree) - 1
    seeds = {0: {(0, 0): {empty: 1}}}
    # the (a, b) of each slot of this parity, in slot order, and the chain
    keys: list[tuple[int, int]] = [] if parity else [(0, 0)]
    chain: dict[int, int] = {} if parity else {empty: 1}
    for n in range(1, max_degree + 1):
        fresh: dict[tuple[int, int], dict[int, int]] = {}
        for a in range(min(max_threes, n // 3) + 1):
            b = n - 3 * a
            if b > max_ones:
                continue
            if b:
                fresh[a, b] = _add_strips(seeds[n - 1][a, b - 1], 1)
            else:
                fresh[a, b] = _add_strips(seeds[n - 3][a - 1, 0], 3)
        seeds[n] = fresh
        seeds.pop(n - 3, None)
        if n % 2 != parity:
            continue
        chain = _add_strips(chain, 2)
        for key, column in fresh.items():
            shift = width * len(keys)
            keys.append(key)
            for mask, value in column.items():
                chain[mask] = chain.get(mask, 0) + (value << shift)
        by_key = dict(zip(keys, _unpack(chain.values(), len(keys), width)))
        columns = {cls: by_key[zeros_and_poles((cls,))] for cls in corner_types(n, max_threes, max_ones)}
        yield n, list(chain), columns


def _mask_hook_product(mask: int) -> int:
    """Product of the hook lengths of the shape with the given bead mask.
    Each cell pairs a bead x with an empty position y < x, and its hook
    length is x - y."""
    # beads below the first empty position stand for empty rows
    low = (mask ^ (mask + 1)).bit_length() - 1
    mask >>= low
    prod = 1
    gaps: list[int] = []
    x = 0
    while mask:
        if mask & 1:
            for y in gaps:
                prod *= x - y
        else:
            gaps.append(x)
        mask >>= 1
        x += 1
    return prod


def _parity_values(
    max_degree: int, max_threes: int, max_ones: int, parity: int
) -> Iterator[tuple[int, dict[tuple[Partition, ...], Fraction]]]:
    """Yield (n, values) for the n = 1..max_degree with n % 2 == parity:
    the Frobenius counts of degree n, indexed by the (sorted) multiset of
    the four corner classes.  The character sum is symmetric in the
    classes, so evaluating once per multiset saves the bulk of the work."""
    for n, masks, columns in _character_columns(max_degree, max_threes, max_ones, parity):
        hooks2 = [_mask_hook_product(mask) ** 2 for mask in masks]
        threes = {cls: cls.count(3) for cls in columns}
        ones = {cls: cls.count(1) for cls in columns}
        twos = {cls: cls.count(2) for cls in columns}
        sizes = {cls: class_size(cls) for cls in columns}
        nfact4 = math.factorial(n) ** 4
        out: dict[tuple[Partition, ...], Fraction] = {}
        head = None
        for combo in itertools.combinations_with_replacement(columns, 4):
            c1, c2, c3, c4 = combo
            # 3^a 2^c 1^b has sign (-1)^c and g1 g2 g3 g4 = 1, so an odd total of 2-cycles counts nothing
            if (
                threes[c1] + threes[c2] + threes[c3] + threes[c4] > max_threes
                or ones[c1] + ones[c2] + ones[c3] + ones[c4] > max_ones
                or (twos[c1] + twos[c2] + twos[c3] + twos[c4]) % 2
            ):
                continue
            # the multisets come sorted, so one (c1, c2) heads a run of them
            if head != (c1, c2):
                head = (c1, c2)
                weighted = list(map(mul, map(mul, columns[c1], columns[c2]), hooks2))
            total = sum(map(mul, weighted, map(mul, columns[c3], columns[c4])))
            if not total:
                continue
            out[combo] = Fraction(sizes[c1] * sizes[c2] * sizes[c3] * sizes[c4] * total, nfact4)
        yield n, out


def _multiset_values(
    max_degree: int, max_threes: int, max_ones: int
) -> Iterator[tuple[int, dict[tuple[Partition, ...], Fraction]]]:
    """Yield (n, values) for n = 1..max_degree, in order: the Frobenius
    counts of degree n by multiset of corner classes (_parity_values).

    The odd degrees run in a forked child, which sends each degree's values
    down a pipe as one pickle, while this process computes the even ones.
    Fork, not a spawned pool: a spawn pool's round trip took 0.09-0.20 s on
    a 2-CPU VM, against 2-5 ms to fork and reap, more than the odd half of
    a benchmark-sized request costs.  Where os.fork is missing, or other
    threads run (fork copies only the calling thread), both halves run in
    this process.  A child that fails or sends short raises RuntimeError,
    and closing the generator early kills and reaps the child.
    """
    even = _parity_values(max_degree, max_threes, max_ones, 0)
    if not hasattr(os, "fork") or threading.active_count() > 1:
        odd = _parity_values(max_degree, max_threes, max_ones, 1)
        for n in range(1, max_degree + 1):
            yield next(odd if n % 2 else even)
        return
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if not pid:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as sink:
                for item in _parity_values(max_degree, max_threes, max_ones, 1):
                    pickle.dump(item, sink)
                    sink.flush()
            status = 0
        except Exception:
            import traceback  # only a failing child needs it

            traceback.print_exc()
        finally:
            # never return into the caller's frames, whatever happened
            os._exit(status)
    os.close(write_end)
    try:
        with os.fdopen(read_end, "rb") as source:
            for n in range(1, max_degree + 1):
                if not n % 2:
                    yield next(even)
                    continue
                try:
                    item = pickle.load(source)
                except (EOFError, pickle.UnpicklingError) as exc:
                    raise RuntimeError(f"the odd-degree cover counts stopped before degree {n}") from exc
                yield item
        _, status = os.waitpid(pid, 0)
        pid = 0
        if status:
            raise RuntimeError(f"the odd-degree cover counts ended with wait status {status}")
    finally:
        if pid:
            import signal  # only a caller that stops early needs it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# the cover counts for K = 1 to degree 40 take about 1.8 s on a 2-CPU VM, and
# K = 12 to degree 24 about 11 s
COVERS_MAX_SECONDS = 15


def check_cover_size(k: int, max_degree: int) -> None:
    """Refuse a cover count that would not finish in reasonable time.

    The estimate 3.9e-4 * exp(0.67 k_s + 0.183 N) seconds was fitted, with
    the least worst ratio, to the in-process times of connected_counts on
    a 2-CPU VM, the odd degrees running in the second process: the 68
    requests of 0.25 s or more among K = 1..20 at N = 16..54 and K = 30..60
    at N = 12..18.  It is within a factor of 1.93 of each of them.
    k_s = (K^-2 + (N/2)^-2)^(-1/2), a smooth min(K, N/2), is K while K is
    small against N/2 and approaches N/2 as K grows, so the estimate stops
    growing with K: at N = 16 it is at most 1.6 s.  The worst points lie
    near the limit on both sides, as K = 1 grows faster in N than any one
    slope fits: K = 1 at N = 52 and 54 took 19.6 and 28.4 s, and K = 20 at
    N = 22 took 23 s, against estimates of 10, 15 and 14 s, while K = 4 at
    N = 38 took 2.9 s against 5.6 s.  On one CPU the two halves run one
    after the other, and the same requests take 1.0 to 1.7 times as long:
    K = 1 at N = 40 took 3.2 s against 2.0 s on two.
    """
    try:
        saturated = ((1 / k) ** 2 + (2 / max_degree) ** 2) ** -0.5
        seconds = 3.9e-4 * math.exp(0.67 * saturated + 0.183 * max_degree)
    except OverflowError:  # an estimate past the float range, from degree about 3,900 on
        seconds = math.inf
    if seconds > COVERS_MAX_SECONDS:
        raise ValueError(
            f"the character route handles requests of up to about {COVERS_MAX_SECONDS} s; "
            f"the cover counts for K={k} to degree {max_degree} would take {seconds_text(seconds)}"
        )


def connected_counts(k: int, max_degree: int) -> dict[Cell, Fraction]:
    """Connected cover counts graded by (degree, 3-cycles, fixed points).

    Maps (N, z, p) to the weighted count of connected covers of degree N
    whose corner monodromies contain z three-cycles and p fixed points in
    total, truncated to z <= k and p <= k + 4.  The truncation commutes with
    the logarithm because components contribute both gradings additively.
    Requests estimated above COVERS_MAX_SECONDS are refused before any work.
    """
    check_cover_size(k, max_degree)
    max_ones = k + 4
    # at index n, all covers A_n and connected ones C_n of degree n, each by
    # (3-cycles, fixed points); a disjoint union of covers multiplies their
    # terms and adds their gradings, so 1 + A = exp(C), and its derivative
    # in the degree gives n C_n = n A_n - sum_{m<n} m C_m A_{n-m}
    all_covers: list[dict[tuple[int, int], Fraction]] = [{}]
    connected: list[dict[tuple[int, int], Fraction]] = [{}]
    for n, values in _multiset_values(max_degree, k, max_ones):
        a: dict[tuple[int, int], Fraction] = {}
        for combo, value in values.items():
            key = zeros_and_poles(combo)
            a[key] = a.get(key, 0) + multinomial(4, Counter(combo).values()) * value
        all_covers.append(a)
        c = {key: n * value for key, value in a.items()}
        for m in range(1, n):
            for (z, p), value in connected[m].items():
                for (z2, p2), value2 in all_covers[n - m].items():
                    if z + z2 <= k and p + p2 <= max_ones:
                        c[z + z2, p + p2] = c.get((z + z2, p + p2), 0) - m * value * value2
        connected.append({key: value / n for key, value in c.items() if value})
    return {(n, *key): value for n, c in enumerate(connected) for key, value in c.items()}


def sq_count(counts: dict[Cell, Fraction], k: int, n_max: int) -> Fraction:
    """Weighted number of lattice surfaces of degree at most n_max in the
    stratum with k labelled simple zeros and k + 4 labelled simple poles,
    read from a table of connected counts graded by (degree, z, p) that
    reaches degree n_max (connected_counts or naive_connected_counts).

    The monodromy quadruples count covering maps, and the four half-lattice
    translations of the pillowcase act on maps (permuting the corners) with
    free generic orbits, so each surface corresponds to four quadruple
    classes.  Hence the count is k! (k+4)! / 4 times the cumulative
    connected counts at grading (z, p) = (k, k+4)."""
    total = sum(
        (counts.get((n, k, k + 4), Fraction(0)) for n in range(1, n_max + 1)),
        Fraction(0),
    )
    if not total:
        # no cell reaches (k, k + 4), as for every n_max <= k: a huge k then
        # builds no factorial
        return total
    return Fraction(math.factorial(k) * math.factorial(k + 4), 4) * total


def cover_ratios(k: int, degrees: Iterable[int]) -> dict[int, float]:
    """Normalized surface counts r_N = 2 dim * sq_count / (Vol N^dim).

    dim = 2k + 2 is the complex dimension of the stratum and Vol its total
    volume pi^(2k+2)/2^(k-1); the counting function grows like Vol N^dim /
    (2 dim), so r_N -> 1 as the degree bound grows.  All requested degrees
    are served from a single pass up to the largest one.
    """
    wanted = sorted(set(int(n) for n in degrees))
    if not wanted or wanted[0] < 1:
        raise ValueError("degrees must be positive integers")
    counts = connected_counts(k, wanted[-1])
    dim = 2 * k + 2
    ratios = {}
    for n in wanted:
        sq = sq_count(counts, k, n)
        # sq is 0 for every n <= k, and the floats would overflow from k = 1025 on
        ratios[n] = float(2 * dim * sq) * 2.0 ** (k - 1) / (math.pi ** (2 * k + 2) * n**dim) if sq else 0.0
    return ratios


@lru_cache(maxsize=None)
def _cycle_types(n: int) -> dict[tuple[int, ...], Partition]:
    """The cycle type of every permutation of range(n)."""
    types = {}
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        parts = []
        for i in range(n):
            if seen[i]:
                continue
            length, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            parts.append(length)
        types[perm] = tuple(sorted(parts, reverse=True))
    return types


def naive_enumerate(classes: Sequence[Partition]) -> tuple[Fraction, Fraction]:
    """Directly count tuples with product 1 and gi in the prescribed classes,
    weighted by 1/N!: (all tuples, transitive tuples), the latter counting
    connected covers.  Exponential in N; an independent oracle for
    N <= NAIVE_MAX_DEGREE.

    The first factor is pinned to a single representative and reweighted by
    |C1|, which is valid because conjugation acts on the solution set.
    g4 = (g1 g2 g3)^-1 is never built: it has the cycle type of g1 g2 g3,
    and it lies in the group g1, g2, g3 generate, so transitivity is an
    orbit walk over those three.
    """
    if not classes:
        return Fraction(0), Fraction(0)
    n = sum(classes[0])
    if n > NAIVE_MAX_DEGREE:
        raise ValueError("degree too large for direct enumeration")
    for cls in classes:
        if sum(cls) != n:
            raise ValueError("conjugacy classes label different symmetric groups")
    if len(classes) != 4:
        raise ValueError("the direct enumeration handles exactly four classes")
    normalized = [tuple(sorted(cls, reverse=True)) for cls in classes]
    types = _cycle_types(n)

    def rep_of_type(cls: Partition) -> tuple[int, ...]:
        perm = list(range(n))
        pos = 0
        for part in cls:
            for i in range(part):
                perm[pos + i] = pos + (i + 1) % part
            pos += part
        return tuple(perm)

    def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        # (p q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    def transitive(*perms: tuple[int, ...]) -> bool:
        orbit = [0]
        for x in orbit:
            for p in perms:
                if p[x] not in orbit:
                    orbit.append(p[x])
        return len(orbit) == n

    in_class = {cls: [p for p, t in types.items() if t == cls] for cls in set(normalized)}
    g1 = rep_of_type(normalized[0])
    target = normalized[3]
    count = connected = 0
    for g2 in in_class[normalized[1]]:
        h = compose(g1, g2)
        for g3 in in_class[normalized[2]]:
            if types[compose(h, g3)] != target:
                continue
            count += 1
            if transitive(g1, g2, g3):
                connected += 1
    weight = Fraction(class_size(normalized[0]), math.factorial(n))
    return weight * count, weight * connected


def naive_connected_counts(k: int, max_degree: int) -> dict[Cell, Fraction]:
    """connected_counts(k, max_degree) by direct enumeration of the
    transitive monodromy tuples of every profile, for max_degree <=
    NAIVE_MAX_DEGREE."""
    table: dict[Cell, Fraction] = {}
    for n in range(1, max_degree + 1):
        for profile in cover_profiles(n, k, k + 4):
            value = naive_enumerate(profile)[1]
            if value != 0:
                key = (n, *zeros_and_poles(profile))
                table[key] = table.get(key, Fraction(0)) + value
    return table
