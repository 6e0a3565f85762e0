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
the cheap seed columns, so from degree FORK_MIN_DEGREE on the degrees of
the top degree's parity run in a forked child process while the caller
runs the others.  A p_2 step adds a domino, so it keeps a shape's 2-core,
and a seed enters the chain only on the shapes whose 2-core is small
enough for some four classes within the bounds to be nonzero on it all
at once.  A shape and its conjugate have the same term in every sum
taken, so each degree's columns are unpacked only on the lower bead mask
of each conjugate pair, into lists aligned to those shapes, and the
four-way sums over them, a pair counted twice, run as map/sum chains in C.
The tests' reference route (tests/oracles.py) removes strips from a single
shape's bead mask top-down instead.
`verify` checks these four-way sums, per multiset of corner classes, and
the connected counts taken from them (connected_from_sums), per cell,
against naive_counts, a direct walk over the monodromy tuples of each
multiset up to degree NAIVE_MAX_DEGREE.

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
import threading
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, Sequence

from .rationals import multinomial, seconds_text

Partition = tuple[int, ...]
# a cell of the cover counts: (degree, 3-cycles, fixed points)
Cell = tuple[int, int, int]

# largest degree at which naive_enumerate walks all monodromy tuples
NAIVE_MAX_DEGREE = 5


def class_size(cycle_type: Partition) -> int:
    """Number of permutations of the given cycle type, |C| = N!/z."""
    z = 1
    for part, m in Counter(cycle_type).items():
        z *= part**m * math.factorial(m)
    return math.factorial(sum(cycle_type)) // z


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


# byte i with its bits in reverse order
_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _conjugates(masks: Iterable[int], max_degree: int) -> list[int]:
    """The bead masks of the conjugate shapes, in order.  A shape of degree
    at most max_degree, with max_degree beads, lies in the positions 0 ..
    2 max_degree - 1, and its conjugate's beads are the empty positions
    there, read from the top."""
    size = (2 * max_degree + 7) // 8
    window = (1 << 2 * max_degree) - 1
    pad = 8 * size - 2 * max_degree
    return [
        int.from_bytes((mask ^ window).to_bytes(size, "little").translate(_REVERSED), "big") >> pad for mask in masks
    ]


def _two_core_size(mask: int, max_degree: int) -> int:
    """Number of cells in the 2-core of the shape with this bead mask of
    max_degree beads.  Removing a domino moves a bead two positions down,
    so the beads on each parity of position stay there; the positions of
    max_degree's parity hold max_degree // 2 + q of them, and the 2-core is
    the staircase of q (2q - 1) cells, with 2q - 1 rows for q > 0 and -2q
    rows otherwise."""
    # (4^max_degree - 1) / 3 has a bit at every even position below 2 max_degree
    runner = (4**max_degree - 1) // 3 << max_degree % 2
    q = (mask & runner).bit_count() - max_degree // 2
    return q * (2 * q - 1)


def _character_columns(
    max_degree: int, max_threes: int, max_ones: int, parity: int
) -> Iterator[tuple[int, list[int], list[bool], dict[Partition, list[int]]]]:
    """Yield (n, masks, paired, columns) for the n = 1..max_degree with
    n % 2 == parity, where columns maps every corner type 3^a 2^c 1^b of
    corner_types(n, max_threes, max_ones), in that order, to its character
    column: the Schur expansion of p_3^a p_2^c p_1^b, as the list of
    chi^shape(3^a 2^c 1^b) aligned to masks, zeros included.  masks holds
    one shape of each conjugate pair, the lower mask, among the shapes of
    degree n whose 2-core has at most (3 max_threes + max_ones) // 4
    cells and on which some column is nonzero.  The shapes left out add
    nothing to a four-way sum within the bounds: chi^shape(3^a 2^c 1^b) is
    0 unless the 2-core of the shape has at most 3a + b cells (remove the
    c dominoes first), and four classes within the bounds have 3a + b
    summing to at most 3 max_threes + max_ones.  A conjugate shape has the
    values times (-1)^c, so the same term in any sum with an even total
    of 2-cycles (_parity_values).  paired[i] is true when masks[i] has a
    conjugate other than itself, which it stands for.

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
    own degree, on the shapes whose 2-core is small enough.  A p_2 step
    adds a domino, which keeps the 2-core, so the chain holds no other
    shape.  The two parities share nothing past the seeds, which is
    what lets _multiset_values run them in two processes.  A digit is a
    character value, at most the dimension, so below sqrt(max_degree!) in
    size, and only final values are unpacked.
    """
    width = math.isqrt(math.factorial(max_degree)).bit_length() + 2
    empty = (1 << max_degree) - 1
    # the most cells of a 2-core on which four classes within the bounds can all be nonzero
    most = (3 * max_threes + max_ones) // 4
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
                if _two_core_size(mask, max_degree) <= most:
                    chain[mask] = chain.get(mask, 0) + (value << shift)
        twins = _conjugates(chain, max_degree)
        masks = [mask for mask, twin in zip(chain, twins) if mask <= twin]
        paired = [mask < twin for mask, twin in zip(chain, twins) if mask <= twin]
        by_key = dict(zip(keys, _unpack([chain[mask] for mask in masks], len(keys), width)))
        columns = {cls: by_key[zeros_and_poles((cls,))] for cls in corner_types(n, max_threes, max_ones)}
        yield n, masks, paired, columns


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
    classes, so evaluating once per multiset saves the bulk of the work.

    The sums run over the shapes _character_columns yields, one of each
    conjugate pair, and a shape paired with another counts twice: a
    conjugate has the same hook lengths, and its values on a class 3^a
    2^c 1^b are the shape's times (-1)^c, and the signs cancel in a sum
    with an even total of 2-cycles, the only sums taken."""
    for n, masks, paired, columns in _character_columns(max_degree, max_threes, max_ones, parity):
        hooks2 = [_mask_hook_product(mask) ** 2 << twice for mask, twice in zip(masks, paired)]
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


# the top degree from which _multiset_values forks.  In process on a 2-CPU
# VM, connected_counts(k, N) for k = 1 and 2 took 1-3 ms without the fork
# and 4 ms with it at N = 5 to 7; the two were within noise of each other
# from N = 12 to 15, and from N = 16 to 20 the fork saved 2-11 ms each time
FORK_MIN_DEGREE = 16


def _multiset_values(
    max_degree: int, max_threes: int, max_ones: int
) -> Iterator[tuple[int, dict[tuple[Partition, ...], Fraction]]]:
    """Yield (n, values) for n = 1..max_degree, in order: the Frobenius
    counts of degree n by multiset of corner classes (_parity_values).

    From max_degree = FORK_MIN_DEGREE on, the degrees of the top degree's
    parity run in a forked child, which sends each degree's values down a
    pipe as one pickle, while this process computes the others (and, under
    connected_counts, takes the log as the degrees come): the top degree's
    half costs the most, so the child takes it.
    Fork, not a spawned pool: a spawn pool's round trip took 0.09-0.20 s on
    a 2-CPU VM, against 2-5 ms to fork and reap, more than the forked half
    of a benchmark-sized request costs.  Below FORK_MIN_DEGREE, where
    os.fork is missing, or while other threads run (fork copies only the
    calling thread), both halves run in this process.  A child that fails
    or sends short raises RuntimeError, and closing the generator early
    kills and reaps the child.
    """
    forked = max_degree % 2
    own = _parity_values(max_degree, max_threes, max_ones, 1 - forked)
    if max_degree < FORK_MIN_DEGREE or not hasattr(os, "fork") or threading.active_count() > 1:
        other = _parity_values(max_degree, max_threes, max_ones, forked)
        for n in range(1, max_degree + 1):
            yield next(other if n % 2 == forked else own)
        return
    import pickle  # only the forked path sends pickles

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
                for item in _parity_values(max_degree, max_threes, max_ones, forked):
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
                if n % 2 != forked:
                    yield next(own)
                    continue
                try:
                    item = pickle.load(source)
                except (EOFError, pickle.UnpicklingError) as exc:
                    raise RuntimeError(f"the forked cover counts stopped before degree {n}") from exc
                yield item
        _, status = os.waitpid(pid, 0)
        pid = 0
        if status:
            raise RuntimeError(f"the forked cover counts ended with wait status {status}")
    finally:
        if pid:
            import signal  # only a caller that stops early needs it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# the cover counts for K = 1 to degree 40 take about 0.5 s in process on a
# 2-CPU VM, and K = 12 to degree 24 about 6 s
COVERS_MAX_SECONDS = 15
# K: (a, b) of its own estimate a * exp(b * N) seconds (check_cover_size)
OWN_COVER_FITS = {1: (8.3e-4, 0.173), 2: (4.1e-4, 0.194), 3: (4.0e-4, 0.2), 4: (3.9e-4, 0.21)}


def check_cover_size(k: int, max_degree: int) -> None:
    """Refuse a cover count that would not finish in reasonable time.

    The shared estimate 6.1e-4 * exp(0.715 k_s + 0.133 N) seconds was
    fitted, with the least worst ratio, to the in-process times of
    connected_counts on a 2-CPU VM, the top degree's parity in the second
    process: two timings each of the 59 requests of 0.25 s or more among
    K = 5, 6, 8, 10, 12, 16 and 20 at N = 16..48 and K = 30, 40 and 60 at
    N = 12..20, each within a factor of 1.71.  k_s = (K^-2 +
    (N/2)^-2)^(-1/2), a smooth min(K, N/2), is K while K is small against
    N/2 and approaches N/2 as K grows, so at N = 16 the estimate is at
    most 1.6 s for any K.  It is 0 when K or N is 0.  Near the limit it
    errs most at K = 5, where (5, 48) took 20 s against 12 s and is served,
    and at K = 8, where (8, 38) took 13.4-15.2 s and is refused at 19 s.
    K = 1..4 take 1.9 to 6 times longer than that formula gives near
    their limits, N = 40..58, so each has its own estimate in
    OWN_COVER_FITS, fitted the same way to three
    timings of each N: K = 1 at even N = 44..58, within 1.26, refuses N =
    58, which took 15.5-17.6 s, and serves N = 56 (11.4-12.8 s); K = 2 at
    N = 44, 46 and 48..54, within 1.31, serves N = 54 (11.7-13.2 s); K = 3
    at N = 43..54 and K = 4 at N = 40..51, within 1.34 and 1.20, refuse
    (3, 53) and (4, 51), which took 13.8-17.4 s and 16.4-19.4 s, and serve
    (3, 52) and (4, 50), which took 11.3-12.0 s and 12.0-13.0 s.
    On one CPU the two halves run one after the other and take 1.0 to 1.7
    times as long (measured with an earlier version of the sums).
    """
    try:
        if k in OWN_COVER_FITS:
            a, b = OWN_COVER_FITS[k]
            seconds = a * math.exp(b * max_degree)
        else:
            saturated = ((1 / k) ** 2 + (2 / max_degree) ** 2) ** -0.5 if k and max_degree else 0
            seconds = 6.1e-4 * math.exp(0.715 * saturated + 0.133 * max_degree)
    except OverflowError:  # past the float range: from degree 3,380-5,310 for K <= 60, 1,448 for huge K
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
    return connected_from_sums(k, _multiset_values(max_degree, k, k + 4))


def connected_from_sums(
    k: int, sums: Iterable[tuple[int, dict[tuple[Partition, ...], Fraction]]]
) -> dict[Cell, Fraction]:
    """connected_counts(k, N) from the four-way sums of degrees 1..N in
    order, as _multiset_values(N, k, k + 4) yields them: the logarithm of
    the generating function of all covers, degree by degree."""
    max_ones = k + 4
    # at index n, all covers A_n and connected ones C_n of degree n, each by
    # (3-cycles, fixed points); a disjoint union of covers multiplies their
    # terms and adds their gradings, so 1 + A = exp(C), and its derivative
    # in the degree gives n C_n = n A_n - sum_{m<n} m C_m A_{n-m}
    all_covers: list[dict[tuple[int, int], Fraction]] = [{}]
    connected: list[dict[tuple[int, int], Fraction]] = [{}]
    for n, values in sums:
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
    reaches degree n_max (connected_counts, or the cells of naive_counts).

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
def _symmetric_group(n: int) -> tuple[list[tuple[int, ...]], list[Partition], dict[tuple[int, ...], int]]:
    """S_n as (perms, types, index), shared by every caller: the
    permutations, the cycle type of each, and the index of each in perms."""
    perms = list(itertools.permutations(range(n)))
    types = []
    for perm in perms:
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
        types.append(tuple(sorted(parts, reverse=True)))
    return perms, types, {p: i for i, p in enumerate(perms)}


def naive_enumerate(classes: Sequence[Partition]) -> tuple[Fraction, Fraction]:
    """Directly count tuples with product 1 and gi in the prescribed classes,
    weighted by 1/N!: (all tuples, transitive tuples), the latter counting
    connected covers.  Exponential in N; an independent oracle for
    N <= NAIVE_MAX_DEGREE.

    The first factor is pinned to a single representative and reweighted by
    |C1|, which is valid because conjugation acts on the solution set.
    g4 = (g1 g2 g3)^-1 is never built.  It has the cycle type of g1 g2 g3,
    read by index from _symmetric_group, with g1 g2 composed once per g2;
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
    perms, types, index = _symmetric_group(n)
    c1, c2, c3, c4 = normalized
    p1 = perms[types.index(c1)]
    in_3 = [p for p, t in zip(perms, types) if t == c3]

    def transitive(*gens: tuple[int, ...]) -> bool:
        orbit = [0]
        for x in orbit:
            for p in gens:
                if p[x] not in orbit:
                    orbit.append(p[x])
        return len(orbit) == n

    count = connected = 0
    for p2 in (p for p, t in zip(perms, types) if t == c2):
        p12 = tuple([p1[x] for x in p2])
        for p3 in in_3:
            if types[index[tuple([p12[x] for x in p3])]] == c4:
                count += 1
                connected += transitive(p1, p2, p3)
    weight = Fraction(class_size(c1), math.factorial(n))
    return weight * count, weight * connected


def naive_counts(
    k: int, max_degree: int
) -> Iterator[tuple[int, dict[tuple[Partition, ...], Fraction], dict[Cell, Fraction]]]:
    """Yield (n, sums, cells) for n = 1..max_degree <= NAIVE_MAX_DEGREE by
    direct enumeration: one naive_enumerate call for each multiset of four
    corner classes with at most k 3-cycles and k + 4 fixed points, keyed
    and ordered as _multiset_values keys and orders it.  sums maps each
    multiset to its count of all tuples, and cells maps each (n, z, p) to
    its connected count, the transitive tuples of every ordering of its
    multisets; 0 is left out of both.

    Both counts are the same for every ordering of the four classes: the
    move (g1, g2, g3, g4) -> (g1, g2 g3 g2^-1, g2, g4) swaps two
    neighbouring classes, keeps the product 1 and the generated group, and
    is invertible.  The orderings are counted here, as distinct
    permutations of the multiset, independently of the character route.
    """
    for n in range(1, max_degree + 1):
        sums: dict[tuple[Partition, ...], Fraction] = {}
        cells: dict[Cell, Fraction] = {}
        for combo in itertools.combinations_with_replacement(corner_types(n, k, k + 4), 4):
            zeros, poles = zeros_and_poles(combo)
            if zeros > k or poles > k + 4:
                continue
            count, connected = naive_enumerate(combo)
            if count:
                sums[combo] = count
            if connected:
                orderings = len(set(itertools.permutations(combo)))
                cells[n, zeros, poles] = cells.get((n, zeros, poles), 0) + orderings * connected
        yield n, sums, cells
