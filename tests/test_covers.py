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
    _character_columns,
    _mask_hook_product,
    _multiset_values,
    _unpack,
    character,
    class_size,
    connected_counts,
    corner_types,
    cover_profiles,
    cover_ratios,
    dimension,
    genus,
    naive_connected_counts,
    naive_enumerate,
    partitions,
    sq_count,
    zeros_and_poles,
)


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


def test_cover_profiles_respect_bounds():
    profiles = list(cover_profiles(3, 1, 5))
    assert profiles
    for p in profiles:
        zeros, poles = zeros_and_poles(p)
        assert zeros <= 1
        assert poles <= 5
        assert all(sum(cls) == 3 for cls in p)


def test_genus_formula():
    assert genus([(3,), (3,), (1, 1, 1), (1, 1, 1)]) == 0
    assert genus([(2,), (2,), (2,), (2,)]) == 1
    assert genus([(2, 1), (2, 1), (2, 1), (2, 1)]) == 0
    with pytest.raises(ValueError):
        genus([(2, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)])


def test_target_profiles_have_genus_zero():
    """z = K and p = K+4 over the four corners forces genus 0."""
    for n in (3, 4, 5):
        for profile in cover_profiles(n, 2, 6):
            zeros, poles = zeros_and_poles(profile)
            if zeros - poles == -4:
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
        for profile in cover_profiles(n, 2, 6):
            if sum(cls.count(2) for cls in profile) % 2:
                odd += 1
                assert naive_enumerate(profile)[0] == 0
    assert odd == 104
    # and the four-way sums leave every such multiset out
    for _, values in _multiset_values(5, 2, 6):
        assert all(sum(cls.count(2) for cls in combo) % 2 == 0 for combo in values)


def test_connected_counts_against_naive_per_profile():
    """The direct enumeration's tuples equal the four-way character sum for
    all 979 profiles with parts in {1, 2, 3} and degree at most 5, and its
    transitive tuples, summed by (degree, zeros, poles), equal the shipped
    log-inversion.  The bounds z <= 16 and p <= 20 reach every profile."""
    checked = 0
    for n, values in _multiset_values(5, 16, 20):
        by_multiset = {tuple(sorted(combo)): value for combo, value in values.items()}
        for profile in itertools.product(partitions(n, 3), repeat=4):
            assert naive_enumerate(profile)[0] == by_multiset.get(tuple(sorted(profile)), 0)
            checked += 1
    assert checked == 979
    assert sum(1 for n in range(1, 6) for _ in cover_profiles(n, 16, 20)) == 979
    assert connected_counts(16, 5) == naive_connected_counts(16, 5)


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


def test_character_columns_match_reference():
    """Every column the packed power-sum builder yields equals character on
    every shape, for every max_degree up to 12 and for bounds that give no
    class at odd n, a few slots, and every class with parts in {1, 2, 3}:
    the slot layout depends on all three arguments.  The expected classes
    are read off partitions(n, 3), independently of corner_types, which the
    builder follows for the order."""

    def bounded(n, max_threes, max_ones):
        return sorted(cls for cls in partitions(n, 3) if cls.count(3) <= max_threes and cls.count(1) <= max_ones)

    classes = 0
    for max_degree in range(1, 13):

        def bead_mask(shape):
            rows = shape + (0,) * (max_degree - len(shape))
            return sum(1 << (part + max_degree - 1 - i) for i, part in enumerate(rows))

        bounds = ((0, 0), (1, 5), (2, 6), (max_degree // 3, max_degree))
        for row, (max_threes, max_ones) in enumerate(bounds):
            degrees = []
            for parity in (0, 1):
                for n, masks, dense in _character_columns(max_degree, max_threes, max_ones, parity):
                    assert n % 2 == parity
                    degrees.append(n)
                    assert list(dense) == corner_types(n, max_threes, max_ones)
                    assert sorted(dense) == bounded(n, max_threes, max_ones)
                    shapes = {bead_mask(shape): shape for shape in partitions(n)}
                    assert len(set(masks)) == len(masks) and set(masks) <= set(shapes)
                    for cls, values in dense.items():
                        assert len(values) == len(masks)
                        column = {mask: value for mask, value in zip(masks, values) if value}
                        for mask, shape in shapes.items():
                            assert column.get(mask, 0) == character(shape, cls)
                    if row == 3:  # every class with parts in {1, 2, 3}
                        assert sorted(dense) == sorted(partitions(n, 3))
                        classes += len(dense)
            assert sorted(degrees) == list(range(1, max_degree + 1))
    assert classes == sum(len(list(partitions(n, 3))) for max_degree in range(1, 13) for n in range(1, max_degree + 1))


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
    assert list(_character_columns(1, 0, 1, 1)) == [(1, [0b10], {(1,): [1]})]
    assert list(_character_columns(1, 0, 1, 0)) == []


@pytest.mark.parametrize(
    "k, max_degree, digest",
    [
        (3, 16, "69aae63322e5ad87f09d6dba11532a0a26b8456861894aff80a6de636157734b"),
        (6, 12, "a7b604357f912a8b38aeb13ced5200adff118c3ddf6c9d83804c88559fb1c5fa"),
        (12, 10, "3578facb41b70314a08770e9f14e62fc105d4951e5061a5e0326a4836da79389"),
    ],
)
def test_connected_counts_pinned_for_many_slots(k, max_degree, digest):
    """Requests with far more classes per parity than the K = 1 and K = 2
    goldens, pinned by the sha256 of their sorted (cell, num, den) rows as
    computed by the one-column-at-a-time builder."""
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
def test_failed_odd_half_raises(monkeypatch, sent, failure):
    """An odd-degree worker that raises, exits with status 3, or stops early
    in the child makes connected_counts raise: no table comes back short."""
    parent = os.getpid()
    real = covers_mod._parity_values

    def odd_half_fails(max_degree, max_threes, max_ones, parity):
        values = real(max_degree, max_threes, max_ones, parity)
        if not parity:
            yield from values
            return
        assert os.getpid() != parent, "the odd degrees ran in the calling process"
        yield from itertools.islice(values, sent)
        failure()

    monkeypatch.setattr(covers_mod, "_parity_values", odd_half_fails)
    children = _forked_children(monkeypatch)
    with pytest.raises(RuntimeError, match="odd-degree"):
        connected_counts(1, 8)
    assert len(children) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(children[0], 0)


def test_closing_early_reaps_the_odd_half(monkeypatch):
    children = _forked_children(monkeypatch)
    values = _multiset_values(12, 1, 5)
    assert next(values)[0] == 1
    values.close()
    assert len(children) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(children[0], 0)


@pytest.mark.parametrize("k, max_degree", [(1, 16), (2, 12)])
def test_in_process_halves_match_the_fork(monkeypatch, k, max_degree):
    """Without os.fork, and while another thread runs, both parities run in
    the calling process, with the same table, in the same order."""
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
