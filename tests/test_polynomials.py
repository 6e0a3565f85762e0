"""Sparse exact polynomials and the D operator."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pillowcount.polynomials import Polynomial, apply_D


def small_polynomials():
    """Random sparse polynomials in up to 3 variables, small coefficients."""
    exps = st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
    )
    coeffs = st.builds(
        Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
    )
    return st.dictionaries(exps, coeffs, max_size=4).map(Polynomial)


def test_trailing_zero_exponents_are_normalized():
    assert Polynomial({(2, 0): 1}) == Polynomial({(2,): 1})
    assert Polynomial({(0, 0, 0): 1}) == Polynomial.one()
    assert Polynomial({(1, 0): 1, (1,): -1}).is_zero()


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        Polynomial({(1, -1): 1})


def test_basic_ring_operations():
    w1 = Polynomial({(1,): 1})
    w2 = Polynomial({(0, 1): 1})
    p = (w1 + w2) * (w1 + w2)
    assert p == Polynomial({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert p - p == Polynomial.zero()
    assert (w1 - w2) * (w1 + w2) == w1 * w1 - w2 * w2
    assert 2 * w1 == w1 + w1


def test_cancelled_terms_are_not_stored():
    w1 = Polynomial({(1,): 1})
    w2 = Polynomial({(0, 1): 1})
    p = (w1 + w2) * (w1 - w2)
    assert sorted(p.items()) == [((0, 2), -1), ((2,), 1)]
    assert not list((p - p).items())
    assert not list((0 * p).items())
    integrated = apply_D(w2 * w2 - w1 * w1, [0, 1])
    assert sorted(integrated.items()) == [((0, 4), Fraction(1, 4)), ((4,), Fraction(-1, 4))]


def test_scalar_coercion():
    w = Polynomial({(1,): 1})
    assert w + 1 == Polynomial({(1,): 1, (): 1})
    assert (w + 1) * Fraction(1, 2) == Polynomial({(1,): Fraction(1, 2), (): Fraction(1, 2)})
    assert w * 0 == Polynomial.zero()


def test_degree_queries():
    assert Polynomial({(2, 1): 1, (0, 3): 2}).arity() == 2
    assert Polynomial.constant(5).arity() == 0


def test_sorted_terms_descending_lex():
    p = Polynomial({(0, 2): 2, (2, 0): 1, (1, 1): 5})
    assert [k for k, _ in p.sorted_terms()] == [(2, 0), (1, 1), (0, 2)]
    padded = p.sorted_terms(arity=3)
    assert padded[0][0] == (2, 0, 0)
    with pytest.raises(ValueError):
        p.sorted_terms(arity=1)


def test_to_records_and_text():
    p = Polynomial({(2,): 2, (0, 2): 2})
    assert p.to_records(2) == [
        {"exponents": [2, 0], "num": "2", "den": "1"},
        {"exponents": [0, 2], "num": "2", "den": "1"},
    ]
    assert p.to_text(arity=2) == "2*w1^2 + 2*w2^2"
    assert Polynomial.zero().to_text() == "0"
    assert Polynomial({(1, 1): Fraction(1, 2)}).to_text() == "1/2*w1*w2"
    assert Polynomial({(1,): 1}).to_text() == "w1"


@given(small_polynomials(), small_polynomials(), small_polynomials())
def test_ring_axioms(p: Polynomial, q: Polynomial, r: Polynomial):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(small_polynomials(), st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)))
def test_evaluation_is_a_ring_map(p: Polynomial, point: tuple[int, int, int]):
    def value(poly: Polynomial) -> Fraction:
        total = Fraction(0)
        for exps, coeff in poly.items():
            for x, e in zip(point, exps):
                coeff *= x**e
            total += coeff
        return total

    q = p * p + 3 * p
    assert value(q) == value(p) ** 2 + 3 * value(p)


def test_apply_D_monomial_rule():
    # D_w sends w^n to w^{n+2}/(n+2), summed over the listed variables
    p = Polynomial({(2,): 1})
    assert apply_D(p, [0]) == Polynomial({(4,): Fraction(1, 4)})
    q = Polynomial.one()
    assert apply_D(q, [0, 1]) == Polynomial(
        {(2,): Fraction(1, 2), (0, 2): Fraction(1, 2)}
    )
    # variables beyond the arity still receive their w^2/2
    r = Polynomial({(1,): 1})
    assert apply_D(r, [0, 1]) == Polynomial(
        {(3,): Fraction(1, 3), (1, 2): Fraction(1, 2)}
    )


@given(small_polynomials(), small_polynomials())
def test_apply_D_is_linear(p: Polynomial, q: Polynomial):
    assert apply_D(p + q, [0, 1, 2]) == apply_D(p, [0, 1, 2]) + apply_D(q, [0, 1, 2])
