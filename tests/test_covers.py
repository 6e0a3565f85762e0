"""Character-theoretic cover counts against naive enumeration and pinned values."""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillowcount import covers as covers_mod
from pillowcount.covers import (
    FORK_MIN_DEGREE,
    _character_columns,
    _conjugates,
    _mask_hook_product,
    _multiset_values,
    _parity_values,
    _two_core_size,
    _unpack,
    class_size,
    connected_counts,
    corner_types,
    cover_ratios,
    naive_counts,
    naive_enumerate,
    sq_count,
    zeros_and_poles,
)

from oracles import bead_mask, character, conjugate_partition, dimension, genus, partitions, two_core


def test_partitions_counts_and_order():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(list(partitions(5))) == 7
    assert len(list(partitions(6))) == 11
    assert list(partitions(3, max_part=2)) == [(2, 1), (1, 1, 1)]
    assert list(partitions(0)) == [()]


def test_class_sizes_partition_the_group():
    for n in range(1, 7):
        assert sum(class_size(cls) for cls in partitions(n)) == math.factorial(n)
    assert class_size((2, 1)) == 3
    assert class_size((3,)) == 2
    assert class_size((1, 1, 1)) == 1


def test_hooks_and_dimensions():
    # beads at 1 and 3, shape (2, 1): hook lengths 3 - 0, 3 - 2 and 1 - 0
    assert _mask_hook_product(0b1010) == 3
    # the same shape with an extra bead for an empty row
    assert _mask_hook_product(0b10101) == 3
    # shape (1): one bead at 1 over the empty position 0
    assert _mask_hook_product(0b10) == 1
    assert _mask_hook_product(0) == 1
    assert dimension((2, 1)) == 2
    assert dimension((3, 2)) == 5
    for n in range(1, 8):
        assert sum(dimension(s) ** 2 for s in partitions(n)) == math.factorial(n)


def test_character_pinned_values():
    # trivial representation
    for cls in partitions(4):
        assert character((4,), cls) == 1
    # sign representation at a transposition
    assert character((1, 1, 1), (2, 1)) == -1
    # the standard representation of S_3 at a 3-cycle
    assert character((2, 1), (3,)) == -1
    # identity class gives the dimension
    for n in range(1, 7):
        for shape in partitions(n):
            assert character(shape, (1,) * n) == dimension(shape)


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))


def test_character_orthogonality_rows():
    # first orthogonality: sum_cls |C| chi_i(C) chi_j(C) = n! delta_ij
    for n in (3, 4, 5):
        shapes = list(partitions(n))
        classes = list(partitions(n))
        for i, si in enumerate(shapes):
            for sj in shapes[i:]:
                total = sum(
                    class_size(c) * character(si, c) * character(sj, c)
                    for c in classes
                )
                assert total == (math.factorial(n) if si == sj else 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.data())
def test_character_bounded_by_dimension(n: int, data):
    shapes = list(partitions(n))
    shape = data.draw(st.sampled_from(shapes))
    cls = data.draw(st.sampled_from(shapes))
    assert abs(character(shape, cls)) <= dimension(shape)


def test_frobenius_pinned_examples():
    """Pinned counts, each from the four-way character sum that the cover
    counts use (0 where it leaves the multiset out) and from the direct
    enumeration."""
    pinned = [
        (((1,),) * 4, 1),
        (((2,), (2,), (1, 1), (1, 1)), Fraction(1, 2)),
        (((3,), (2, 1), (2, 1), (1, 1, 1)), 1),
        # all four corners regular of degree 2: the unramified torus double cover
        (((2,),) * 4, Fraction(1, 2)),
        # parity obstruction: an odd product can never be the identity
        (((2,), (1, 1), (1, 1), (1, 1)), 0),
    ]
    sums = {
        tuple(sorted(combo)): value for _, values in _multiset_values(3, 12, 12) for combo, value in values.items()
    }
    for profile, count in pinned:
        assert sums.get(tuple(sorted(profile)), 0) == count
        assert naive_enumerate(profile)[0] == count


def test_corner_types_enumeration():
    assert corner_types(3, 1, 3) == [(2, 1), (1, 1, 1), (3,)]
    assert corner_types(3, 0, 3) == [(2, 1), (1, 1, 1)]
    assert corner_types(3, 1, 1) == [(2, 1), (3,)]
    assert corner_types(2, 2, 0) == [(2,)]


def test_zeros_and_poles():
    assert zeros_and_poles(((3,), (2, 1), (2, 1), (1, 1, 1))) == (1, 5)


def _walked_tables(k: int, max_degree: int) -> tuple[list, dict]:
    """naive_counts(k, max_degree) as the list of (n, sums) and the table of
    every degree's cells."""
    sums, table = [], {}
    for n, walked, cells in naive_counts(k, max_degree):
        sums.append((n, walked))
        table.update(cells)
    return sums, table


def test_naive_counts_visit_each_multiset_within_bounds_once(monkeypatch):
    """The direct walk calls naive_enumerate once per multiset of corner
    classes within the bounds, keyed as _multiset_values keys it, with no
    parity or zero filter: multisets with an odd total of 2-cycles are
    walked too."""
    visited = []
    real = covers_mod.naive_enumerate

    def recording(classes):
        visited.append(classes)
        return real(classes)

    monkeypatch.setattr(covers_mod, "naive_enumerate", recording)
    for n, sums, _ in naive_counts(1, 3):
        walked = [combo for combo in visited if sum(combo[0]) == n]
        assert walked
        for combo in walked:
            zeros, poles = zeros_and_poles(combo)
            assert zeros <= 1
            assert poles <= 5
            assert all(sum(cls) == n for cls in combo)
        assert walked == [
            combo
            for combo in itertools.combinations_with_replacement(corner_types(n, 1, 5), 4)
            if sum(cls.count(3) for cls in combo) <= 1 and sum(cls.count(1) for cls in combo) <= 5
        ]
        assert len({tuple(sorted(combo)) for combo in walked}) == len(walked)
        assert list(sums) == [combo for combo in walked if combo in sums]
    assert any(sum(cls.count(2) for cls in combo) % 2 for combo in visited)


def test_genus_formula():
    assert genus([(3,), (3,), (1, 1, 1), (1, 1, 1)]) == 0
    assert genus([(2,), (2,), (2,), (2,)]) == 1
    assert genus([(2, 1), (2, 1), (2, 1), (2, 1)]) == 0
    with pytest.raises(ValueError):
        genus([(2, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)])


def test_target_profiles_have_genus_zero():
    """z = K and p = K+4 over the four corners forces genus 0."""
    for n in (3, 4, 5):
        for profile in itertools.product(corner_types(n, 2, 6), repeat=4):
            zeros, poles = zeros_and_poles(profile)
            if zeros <= 2 and poles <= 6 and zeros - poles == -4:
                assert genus(profile) == 0


def test_connected_counts_pinned_values():
    counts = connected_counts(1, 3)
    assert counts[(3, 1, 5)] == 12
    assert counts[(1, 0, 4)] == 1
    assert counts[(2, 0, 0)] == Fraction(1, 2)
    assert (1, 1, 5) not in counts
    assert (2, 1, 5) not in counts
    counts2 = connected_counts(2, 3)
    assert counts2[(3, 2, 6)] == 2


def test_feasibility_vanishing():
    """At the target grading, counts vanish whenever 2N - 2K - 2 < 0."""
    for k in (1, 2):
        counts = connected_counts(k, 4)
        for (n, z, p), value in counts.items():
            if z == k and p == k + 4:
                assert 2 * n - 2 * k - 2 >= 0
                assert value > 0


def test_odd_total_of_two_cycles_counts_nothing():
    """A class 3^a 2^c 1^b has sign (-1)^c and g1 g2 g3 g4 = 1, so the
    character sum skips profiles with an odd total of 2-cycles exactly."""
    odd = 0
    for n in range(1, 6):
        for profile in itertools.product(corner_types(n, 2, 6), repeat=4):
            zeros, poles = zeros_and_poles(profile)
            if zeros <= 2 and poles <= 6 and sum(cls.count(2) for cls in profile) % 2:
                odd += 1
                assert naive_enumerate(profile)[0] == 0
    assert odd == 104
    # and the four-way sums leave every such multiset out, as does the
    # direct walk, which visits them all
    for (_, values), (_, sums, _) in zip(_multiset_values(5, 2, 6), naive_counts(2, 5)):
        assert all(sum(cls.count(2) for cls in combo) % 2 == 0 for combo in values)
        assert all(sum(cls.count(2) for cls in combo) % 2 == 0 for combo in sums)


def test_connected_counts_against_naive_per_profile(monkeypatch):
    """The direct enumeration's tuples equal the four-way character sum for
    all 979 profiles with parts in {1, 2, 3} and degree at most 5, and the
    direct walk visits each of their 126 multisets once.  The bounds
    z <= 16 and p <= 20 reach every profile."""
    checked = 0
    for n, values in _multiset_values(5, 16, 20):
        by_multiset = {tuple(sorted(combo)): value for combo, value in values.items()}
        for profile in itertools.product(partitions(n, 3), repeat=4):
            assert naive_enumerate(profile)[0] == by_multiset.get(tuple(sorted(profile)), 0)
            checked += 1
    assert checked == 979
    visited = []
    real = covers_mod.naive_enumerate
    monkeypatch.setattr(covers_mod, "naive_enumerate", lambda classes: visited.append(classes) or real(classes))
    _walked_tables(16, 5)
    multisets = {tuple(sorted(profile)) for n in range(1, 6) for profile in itertools.product(partitions(n, 3), repeat=4)}
    assert len(visited) == len(multisets) == 126
    assert {tuple(sorted(combo)) for combo in visited} == multisets


@pytest.mark.parametrize("k", [1, 2, 16])
def test_naive_counts_match_the_character_route(k: int):
    """Per degree, the direct walk's dict of multisets equals the four-way
    sums of _multiset_values, keys and key order included, and its
    transitive tuples, summed by (degree, zeros, poles), equal the shipped
    log-inversion."""
    sums, table = _walked_tables(k, 5)
    character = list(_multiset_values(5, k, k + 4))
    assert sums == character
    assert [list(values) for _, values in sums] == [list(values) for _, values in character]
    assert table == connected_counts(k, 5)


def test_connected_counts_at_zero_K_or_degree():
    """K = 0 or degree 0 is estimated, not divided by: K = 0 gives the
    table of the direct enumeration, and degree 0 an empty table."""
    assert connected_counts(0, 5) == _walked_tables(0, 5)[1]
    assert connected_counts(1, 0) == {}


def test_multiset_values_match_frobenius():
    """The four-way character sum, once per 4-multiset of corner classes of
    degree at most 5, equals the direct enumeration, and is absent exactly
    where that count is 0."""
    checked = 0
    for n, values in _multiset_values(5, 5, 20):
        by_multiset = {tuple(sorted(combo)): value for combo, value in values.items()}
        for combo in itertools.combinations_with_replacement(partitions(n, 3), 4):
            assert by_multiset.get(tuple(sorted(combo)), 0) == naive_enumerate(combo)[0]
            checked += 1
    assert checked == sum(math.comb(len(list(partitions(n, 3))) + 3, 4) for n in range(1, 6))


def test_naive_enumerate_pinned_values():
    # two sheets with trivial monodromy: one tuple over 2!, not transitive
    assert naive_enumerate(((1, 1),) * 4) == (Fraction(1, 2), 0)
    # the torus double cover: one transitive tuple over 2!
    assert naive_enumerate(((2,),) * 4) == (Fraction(1, 2), Fraction(1, 2))


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen, parts = set(), []
    for start in range(len(perm)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        if length:
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_naive_enumerate_against_every_triple(n: int):
    """Every (g1, g2, g3) in S_n^3 with g4 = (g1 g2 g3)^-1, bucketed by the
    four cycle types and by transitivity, with no pinned g1 and no table:
    naive_enumerate must read the same counts for every four-class profile."""
    group = list(itertools.permutations(range(n)))
    all_tuples: dict[tuple, int] = {}
    transitive: dict[tuple, int] = {}
    for g1, g2, g3 in itertools.product(group, repeat=3):
        g4 = [0] * n
        for x in range(n):
            g4[g1[g2[g3[x]]]] = x
        key = tuple(map(_cycle_type, (g1, g2, g3, g4)))
        all_tuples[key] = all_tuples.get(key, 0) + 1
        orbit = {0}
        while True:
            grown = orbit | {g[x] for g in (g1, g2, g3, g4) for x in orbit}
            if grown == orbit:
                break
            orbit = grown
        transitive[key] = transitive.get(key, 0) + (len(orbit) == n)
    for profile in itertools.product(list(partitions(n)), repeat=4):
        expected = (Fraction(all_tuples.get(profile, 0), math.factorial(n)), Fraction(transitive.get(profile, 0), math.factorial(n)))
        assert naive_enumerate(profile) == expected, profile


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_group_lists_types_and_indices(n: int):
    """perms is S_n in itertools order, types[i] is the cycle type of
    perms[i], and index inverts perms: naive_enumerate reads the type of
    each product through index."""
    perms, types, index = covers_mod._symmetric_group(n)
    assert perms == list(itertools.permutations(range(n)))
    assert types == [_cycle_type(p) for p in perms]
    assert index == {p: i for i, p in enumerate(perms)}


def test_sq_count_values():
    counts = connected_counts(1, 4)
    assert sq_count(counts, 1, 2) == 0
    assert sq_count(counts, 1, 3) == 360
    # cumulative, hence nondecreasing
    assert sq_count(counts, 1, 4) >= sq_count(counts, 1, 3)


def test_cover_ratios_normalization():
    ratios = cover_ratios(1, [3])
    expected = float(8 * 360) / (math.pi**4 * 3**4)
    assert ratios[3] == pytest.approx(expected)
    with pytest.raises(ValueError):
        cover_ratios(1, [])
    with pytest.raises(ValueError):
        cover_ratios(1, [0, 3])


def test_naive_enumerate_guards():
    assert naive_enumerate([]) == (0, 0)
    with pytest.raises(ValueError):
        naive_enumerate([(6,), (6,), (6,), (6,)])
    with pytest.raises(ValueError):
        naive_enumerate([(2,), (2,), (2,)])
    with pytest.raises(ValueError):
        naive_enumerate([(2,), (3,), (2,), (2,)])


def _padded_mask(shape, max_degree: int) -> int:
    return bead_mask(shape + (0,) * (max_degree - len(shape)))


@pytest.mark.parametrize("parity", [0, 1])
def test_two_core_size_and_conjugate_of_bead_masks(parity: int):
    """The charge-based 2-core size and the bit-reversed conjugate equal the
    domino-removal 2-core and the conjugate partition, for every shape up
    to degree 14 and an even and an odd max_degree from its degree on: the
    runners swap labels with the parity of max_degree, which reads (1) as
    three cells when they are taken the wrong way round."""
    for n in range(15):
        for shape in partitions(n):
            core = two_core(shape)
            # a 2-core is a staircase
            assert core == tuple(range(len(core), 0, -1))
            for max_degree in (n + (n % 2 != parity), n + 2 + (n % 2 != parity)):
                mask = _padded_mask(shape, max_degree)
                assert _two_core_size(mask, max_degree) == sum(core), (shape, max_degree)
                assert _conjugates([mask], max_degree) == [_padded_mask(conjugate_partition(shape), max_degree)]
    assert _two_core_size(_padded_mask((1,), 15), 15) == _two_core_size(_padded_mask((1,), 14), 14) == 1


def test_character_columns_match_reference():
    """The packed power-sum builder yields, at every degree, exactly the
    lower mask of each conjugate pair among the shapes whose 2-core has at
    most (3 max_threes + max_ones) // 4 cells, read here from partitions,
    conjugate_partition and two_core, and marks as paired those with a
    conjugate other than themselves.  Every column equals character on
    them.  Of the shapes left out, a conjugate of a yielded one has the
    yielded values times (-1)^c on 3^a 2^c 1^b, and every other one has a
    zero character product on every 4-multiset of classes within the
    bounds.  Checked for every max_degree up to 12, for bounds that give no
    class at odd n, a few slots, and every class with parts in {1, 2, 3}:
    the slot layout depends on all three arguments.  The expected classes
    are read off partitions(n, 3), independently of corner_types, which the
    builder follows for the order."""

    def bounded(n, max_threes, max_ones):
        return sorted(cls for cls in partitions(n, 3) if cls.count(3) <= max_threes and cls.count(1) <= max_ones)

    classes = 0
    for max_degree in range(1, 13):
        bounds = ((0, 0), (1, 5), (2, 6), (max_degree // 3, max_degree))
        for row, (max_threes, max_ones) in enumerate(bounds):
            most = (3 * max_threes + max_ones) // 4
            degrees = []
            for parity in (0, 1):
                for n, masks, paired, dense in _character_columns(max_degree, max_threes, max_ones, parity):
                    assert n % 2 == parity
                    degrees.append(n)
                    assert list(dense) == corner_types(n, max_threes, max_ones)
                    assert sorted(dense) == bounded(n, max_threes, max_ones)
                    shapes = {_padded_mask(shape, max_degree): shape for shape in partitions(n)}
                    lower = {
                        mask
                        for mask, shape in shapes.items()
                        if sum(two_core(shape)) <= most and mask <= _padded_mask(conjugate_partition(shape), max_degree)
                    }
                    assert len(set(masks)) == len(masks) and set(masks) == lower
                    assert paired == [shapes[mask] != conjugate_partition(shapes[mask]) for mask in masks]
                    for cls, values in dense.items():
                        assert values == [character(shapes[mask], cls) for mask in masks]
                    for mask, shape in shapes.items():
                        if mask in lower:
                            continue
                        if _padded_mask(conjugate_partition(shape), max_degree) in lower:
                            for cls in dense:
                                sign = (-1) ** cls.count(2)
                                assert character(shape, cls) == sign * character(conjugate_partition(shape), cls)
                            continue
                        nonzero = [cls for cls in dense if character(shape, cls)]
                        for combo in itertools.combinations_with_replacement(nonzero, 4):
                            threes = sum(cls.count(3) for cls in combo)
                            assert threes > max_threes or sum(cls.count(1) for cls in combo) > max_ones
                    if row == 3:  # every class with parts in {1, 2, 3}
                        assert sorted(dense) == sorted(partitions(n, 3))
                        classes += len(dense)
            assert sorted(degrees) == list(range(1, max_degree + 1))
    assert classes == sum(len(list(partitions(n, 3))) for max_degree in range(1, 13) for n in range(1, max_degree + 1))


_FROBENIUS: dict = {}


def _frobenius_sums(n: int, max_threes: int, max_ones: int) -> dict:
    """The four-way character sum over every shape of degree n, by oracle
    characters and dimensions, for every multiset of classes with parts in
    {1, 2, 3} within the bounds, sorted, where it is nonzero."""
    key = n, max_threes, max_ones
    if key not in _FROBENIUS:
        bounded = [cls for cls in partitions(n, 3) if cls.count(3) <= max_threes and cls.count(1) <= max_ones]
        shapes = list(partitions(n))
        sums = {}
        for combo in itertools.combinations_with_replacement(bounded, 4):
            if sum(cls.count(3) for cls in combo) > max_threes or sum(cls.count(1) for cls in combo) > max_ones:
                continue
            total = sum(
                Fraction(math.prod(character(shape, cls) for cls in combo), dimension(shape) ** 2) for shape in shapes
            )
            if total:
                sums[tuple(sorted(combo))] = math.prod(map(class_size, combo)) * total / math.factorial(n) ** 2
        _FROBENIUS[key] = sums
    return _FROBENIUS[key]


def test_parity_values_match_the_full_frobenius_sum():
    """The four-way sums, taken over the lower shape of each conjugate pair
    within the 2-core bound, equal the Frobenius sum over every shape for
    max_degree 6 to 11, past the degree 5 at which the direct walk stops:
    from degree 6 on a 2-core of six cells is left out at every bound
    tried, and at each bound some shape left out has a nonzero character
    on a class within the bounds."""
    for max_threes, max_ones in ((0, 4), (1, 5), (2, 6), (3, 7)):
        most = (3 * max_threes + max_ones) // 4
        for max_degree in range(6, 12):
            for parity in (0, 1):
                for n, values in _parity_values(max_degree, max_threes, max_ones, parity):
                    expected = _frobenius_sums(n, max_threes, max_ones)
                    assert len(values) == len(expected)
                    assert {tuple(sorted(combo)): value for combo, value in values.items()} == expected
        assert any(
            character(shape, cls)
            for n in range(6, 12)
            for shape in partitions(n)
            if sum(two_core(shape)) > most
            for cls in corner_types(n, max_threes, max_ones)
        )


def test_unpack_balanced_slots():
    """Digits of either sign up to 2^(w-1) - 1, and down to -2^(w-1), in
    adjacent slots, a zero slot between them and a negative top slot all
    come back exactly."""
    width = 5
    top = (1 << (width - 1)) - 1
    for digits in (
        [top, -top, top],
        [-top, top, -top],
        [-top - 1, top, -top - 1],
        [top, 0, -top],
        [-1, 0, 0, -top],
        [0, 0, 1],
        [-top, -top, -top, -top],
    ):
        value = sum(d << (width * i) for i, d in enumerate(digits))
        assert _unpack([value], len(digits), width) == [[d] for d in digits]
    # values unpack independently, each slot a list aligned to them, zeros included
    assert _unpack([3, -2 << width, 0], 3, width) == [[3, 0, 0], [0, -2, 0], [0, 0, 0]]
    # the width the builder uses holds chi^(1)(1) = 1 at max_degree = 1 (bead 0 moved to 1)
    assert list(_character_columns(1, 0, 4, 1)) == [(1, [0b10], [False], {(1,): [1]})]
    assert list(_character_columns(1, 0, 4, 0)) == []
    # at (0, 1) no four classes reach the 2-core of (1), so it is left out
    assert list(_character_columns(1, 0, 1, 1)) == [(1, [], [], {(1,): []})]


@pytest.mark.parametrize(
    "k, max_degree, digest",
    [
        (3, 16, "69aae63322e5ad87f09d6dba11532a0a26b8456861894aff80a6de636157734b"),
        (6, 12, "a7b604357f912a8b38aeb13ced5200adff118c3ddf6c9d83804c88559fb1c5fa"),
        (12, 10, "3578facb41b70314a08770e9f14e62fc105d4951e5061a5e0326a4836da79389"),
        (2, 21, "b61cfe3585f6bebca4784cd91f34286901b317169c545a228c1eeda53d7fcc43"),
        (5, 17, "7cbc94a996b4312670199311af1b0db9c2a9c5e802a4e24b8c6a6859e42c999f"),
    ],
)
def test_connected_counts_pinned_for_many_slots(k, max_degree, digest):
    """Requests with far more classes per parity than the K = 1 and K = 2
    goldens, pinned by the sha256 of their sorted (cell, num, den) rows as
    computed by the one-column-at-a-time builder, and two odd top degrees
    on the forked path as computed when the sums ran over every shape."""
    counts = connected_counts(k, max_degree)
    rows = "".join(f"{cell} {value.numerator} {value.denominator}\n" for cell, value in sorted(counts.items()))
    assert hashlib.sha256(rows.encode()).hexdigest() == digest


def test_truncation_commutes_with_the_log():
    """connected_counts(k, N) is connected_counts(K, N) for any K > k, cut to
    z <= k and p <= k + 4: gradings only add under products, so dropping
    the cells past the bounds commutes with them and with the log."""
    wide = connected_counts(6, 12)
    for k in range(1, 6):
        cut = {(n, z, p): value for (n, z, p), value in wide.items() if z <= k and p <= k + 4}
        assert connected_counts(k, 12) == cut


def _forked_children(monkeypatch) -> list[int]:
    """Record the pid of every child that os.fork starts from now on."""
    children: list[int] = []
    real_fork = os.fork

    def recording_fork() -> int:
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return children


@pytest.mark.parametrize(
    "sent, failure",
    [
        (1, lambda: 1 // 0),
        (1, lambda: os._exit(3)),
        (1, lambda: None),
        (None, lambda: os._exit(3)),
    ],
    ids=["raises", "exits", "stops-short", "exits-after-the-last-degree"],
)
def test_failed_forked_half_raises(monkeypatch, sent, failure):
    """A forked worker that raises, exits with status 3, or stops early in
    the child makes connected_counts raise, at an even and at an odd top
    degree: no table comes back short."""
    parent = os.getpid()
    real = covers_mod._parity_values

    def forked_half_fails(max_degree, max_threes, max_ones, parity):
        values = real(max_degree, max_threes, max_ones, parity)
        if parity != max_degree % 2:
            yield from values
            return
        assert os.getpid() != parent, "the top degree's parity ran in the calling process"
        yield from itertools.islice(values, sent)
        failure()

    monkeypatch.setattr(covers_mod, "_parity_values", forked_half_fails)
    children = _forked_children(monkeypatch)
    for max_degree in (FORK_MIN_DEGREE, FORK_MIN_DEGREE + 1):
        with pytest.raises(RuntimeError, match="forked cover counts"):
            connected_counts(1, max_degree)
    assert len(children) == 2
    for pid in children:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, 0)


def test_closing_early_reaps_the_forked_half(monkeypatch):
    children = _forked_children(monkeypatch)
    for max_degree in (FORK_MIN_DEGREE, FORK_MIN_DEGREE + 1):
        values = _multiset_values(max_degree, 1, 5)
        assert next(values)[0] == 1
        values.close()
    assert len(children) == 2
    for pid in children:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, 0)


@pytest.mark.parametrize("k, max_degree", [(1, 16), (2, 16), (1, 17)])
def test_in_process_halves_match_the_fork(monkeypatch, k, max_degree):
    """Without os.fork, and while another thread runs, both parities run in
    the calling process, with the same table, in the same order, at an even
    and at an odd top degree, so with either parity forked."""
    with monkeypatch.context() as patch:
        children = _forked_children(patch)
        forked = list(connected_counts(k, max_degree).items())
        assert len(children) == 1
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        assert list(connected_counts(k, max_degree).items()) == forked
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with monkeypatch.context() as patch:
            children = _forked_children(patch)
            assert list(connected_counts(k, max_degree).items()) == forked
            assert children == []
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_small_requests_run_in_process(monkeypatch):
    """Below FORK_MIN_DEGREE both parities run in the calling process,
    with the table the forked split gives from there on."""
    children = _forked_children(monkeypatch)
    for k in (1, 2):
        small = connected_counts(k, FORK_MIN_DEGREE - 1)
        assert children == []
        wide = connected_counts(k, FORK_MIN_DEGREE)
        assert len(children) == 1
        children.clear()
        assert small == {cell: value for cell, value in wide.items() if cell[0] < FORK_MIN_DEGREE}
