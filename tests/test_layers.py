"""Local polynomials F_{m,n}: closed form, base case, recurrence, diagonals."""

from __future__ import annotations

import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pillowcount.layers import (
    MAX_LOCAL_TERMS,
    LayerSignature,
    _term_count,
    f_closed,
    f_kontsevich_base,
    f_recurrence,
)
from pillowcount.polynomials import Polynomial

from oracles import f_special_diagonal, valid_signatures


def test_signature_validation():
    with pytest.raises(ValueError):
        LayerSignature(-1, 1)
    with pytest.raises(ValueError):
        LayerSignature(0, 0)
    with pytest.raises(ValueError):
        LayerSignature(2, 1)  # odd m - n
    with pytest.raises(ValueError):
        LayerSignature(0, 4)  # m - n < -2


def test_signature_derived_quantities():
    sig = LayerSignature(3, 1)
    assert sig.faces == 3
    assert sig.half_degree == 1
    assert LayerSignature(0, 2).faces == 1
    assert LayerSignature(0, 2).half_degree == 0
    assert LayerSignature(2, 2).faces == 2


def test_signature_is_a_frozen_value():
    """A plain slotted value, not a dataclass: the same equality, hash,
    repr and immutability, and pickled by its fields."""
    sig = LayerSignature(3, 1)
    assert repr(sig) == "LayerSignature(m=3, n=1)"
    assert sig == LayerSignature(3, 1) and hash(sig) == hash((3, 1))
    assert sig != LayerSignature(1, 3) and sig != (3, 1)
    assert pickle.loads(pickle.dumps(sig)) == sig
    with pytest.raises(AttributeError):
        sig.m = 5
    with pytest.raises(AttributeError):
        del sig.n
    assert not hasattr(sig, "__dict__")


# the reference table of F_{m,n} for valences 1..3, checked entry by entry
REFERENCE_TABLE = {
    (0, 2): Polynomial({(0,): 1}),
    (1, 3): Polynomial({(2,): 1}),
    (2, 4): Polynomial({(4,): 1}),
    (3, 5): Polynomial({(6,): 1}),
    (1, 1): Polynomial({(0, 0): 1}),
    (2, 2): Polynomial({(2, 0): 2, (0, 2): 2}),
    (3, 3): Polynomial({(4, 0): 3, (2, 2): 12, (0, 4): 3}),
    (2, 0): Polynomial({(0, 0, 0): 2}),
    (3, 1): Polynomial({(2, 0, 0): 6, (0, 2, 0): 6, (0, 0, 2): 6}),
}


@pytest.mark.parametrize("mn", sorted(REFERENCE_TABLE))
def test_reference_table(mn: tuple[int, int]):
    assert f_closed(LayerSignature(*mn)) == REFERENCE_TABLE[mn]


@pytest.mark.parametrize("mn", valid_signatures(8))
def test_closed_equals_recurrence(mn: tuple[int, int]):
    sig = LayerSignature(*mn)
    assert f_closed(sig) == f_recurrence(sig)


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
def test_closed_equals_base_case(m: int):
    assert f_closed(LayerSignature(m, 0)) == f_kontsevich_base(m)


def test_base_case_rejects_bad_m():
    with pytest.raises(ValueError):
        f_kontsevich_base(3)
    with pytest.raises(ValueError):
        f_kontsevich_base(0)


def test_term_count_matches_closed_form():
    for mn in valid_signatures(10):
        sig = LayerSignature(*mn)
        assert _term_count(sig) == len(f_closed(sig).items())


def test_routes_refuse_oversized_signature():
    # F_{20,0} has 167960 terms and stays allowed
    assert _term_count(LayerSignature(20, 0)) == 167960 <= MAX_LOCAL_TERMS
    for build, count in (
        (lambda: f_closed(LayerSignature(22, 0)), 646646),
        (lambda: f_kontsevich_base(22), 646646),
        (lambda: f_recurrence(LayerSignature(22, 0)), 646646),
        (lambda: f_recurrence(LayerSignature(22, 2)), 705432),
    ):
        with pytest.raises(ValueError, match=f"{count} terms, more than the limit"):
            build()


@pytest.mark.parametrize("mn", valid_signatures(8))
def test_structural_properties(mn: tuple[int, int]):
    sig = LayerSignature(*mn)
    poly = f_closed(sig)
    terms = dict(poly.items())
    assert {len(exps) for exps in terms} == {sig.faces}
    assert {sum(exps) for exps in terms} == {2 * sig.half_degree}
    assert all(terms.get(p) == c for exps, c in terms.items() for p in itertools.permutations(exps))
    assert all(c > 0 for _, c in poly.items())
    assert all(all(e % 2 == 0 for e in k) for k, _ in poly.items())


def test_special_diagonal_forms():
    for m in range(1, 6):
        assert f_special_diagonal(m, m) == f_closed(LayerSignature(m, m))
    for m in range(0, 6):
        assert f_special_diagonal(m, m + 2) == f_closed(LayerSignature(m, m + 2))
    with pytest.raises(ValueError):
        f_special_diagonal(4, 2)
    with pytest.raises(ValueError):
        f_special_diagonal(0, 0)


def test_closed_form_normalization():
    # the coefficient of w_1^{2a} is m!/a! times 1
    sig = LayerSignature(5, 1)
    a = sig.half_degree
    poly = f_closed(sig)
    lead = dict(poly.items())[(2 * a,) + (0,) * (sig.faces - 1)]
    assert lead == Fraction(120, 2)  # 5!/2!


@given(st.integers(min_value=0, max_value=6))
def test_lowest_diagonal_is_single_monomial(m: int):
    poly = f_closed(LayerSignature(m, m + 2))
    assert poly == Polynomial({(2 * m,): 1})
