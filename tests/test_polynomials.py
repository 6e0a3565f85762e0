"""Sparse exact polynomials and the D operator."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pillowcount.polynomials import Polynomial, apply_D


def small_polynomials():
    """Random sparse polynomials in 3 variables, small coefficients."""
    exps = st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
    )
    coeffs = st.builds(
        Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
    )
    return st.dictionaries(exps, coeffs, max_size=4).map(Polynomial)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        Polynomial({(1, -1): 1})


def test_mixed_key_lengths_rejected():
    with pytest.raises(ValueError, match="lengths"):
        Polynomial({(2, 0): 1, (2,): 1})
    # a zero coefficient does not excuse its key
    with pytest.raises(ValueError, match="lengths"):
        Polynomial({(1, 0): 1, (1,): 0})


def _sum(*polys: Polynomial) -> Polynomial:
    """The sum of polynomials, added up term by term in one dict."""
    acc: dict = {}
    for p in polys:
        for k, c in p.items():
            acc[k] = acc.get(k, 0) + c
    return Polynomial(acc)


def test_basic_ring_operations():
    # scaling by an int or a Fraction and == are the only operations left
    p = Polynomial({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert 2 * p == p * 2 == Polynomial({(2, 0): 2, (1, 1): 4, (0, 2): 2})
    assert Fraction(1, 2) * p == Polynomial({(2, 0): Fraction(1, 2), (1, 1): 1, (0, 2): Fraction(1, 2)})
    assert p != 2 * p and p == Polynomial(dict(p.items()))
    with pytest.raises(TypeError):
        p * p
    with pytest.raises(TypeError):
        p + p
    with pytest.raises(TypeError):
        p * 0.5


def test_cancelled_terms_are_not_stored():
    p = Polynomial({(2, 0): 1, (1, 1): 2, (0, 2): -1})
    q = Polynomial({(1, 1): -2, (0, 2): 1, (0, 1): 3})
    assert sorted(_sum(p, q).items()) == [((0, 1), 3), ((2, 0), 1)]
    assert not list(_sum(p, (-1) * p).items())
    assert not list((0 * p).items())
    integrated = apply_D(Polynomial({(0, 2): 1, (2, 0): -1}))
    assert sorted(integrated.items()) == [((0, 4), Fraction(1, 4)), ((4, 0), Fraction(-1, 4))]


def test_sorted_terms_descending_lex():
    p = Polynomial({(0, 2): 2, (2, 0): 1, (1, 1): 5})
    assert [k for k, _ in p.sorted_terms()] == [(2, 0), (1, 1), (0, 2)]


def test_to_text():
    p = Polynomial({(2, 0): 2, (0, 2): 2})
    assert p.to_text() == "2*w1^2 + 2*w2^2"
    assert Polynomial().to_text() == "0"
    assert Polynomial({(1, 1): Fraction(1, 2)}).to_text() == "1/2*w1*w2"
    assert Polynomial({(1,): 1}).to_text() == "w1"


def test_apply_D_monomial_rule():
    # D_w sends w^n to w^{n+2}/(n+2), summed over every variable
    p = Polynomial({(2,): 1})
    assert apply_D(p) == Polynomial({(4,): Fraction(1, 4)})
    # a variable absent from a monomial still receives its w^2/2
    r = Polynomial({(1, 0): 1})
    assert apply_D(r) == Polynomial(
        {(3, 0): Fraction(1, 3), (1, 2): Fraction(1, 2)}
    )


def test_apply_D_of_the_width_2_constant():
    assert apply_D(Polynomial({(0, 0): 1})) == Polynomial(
        {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}
    )


@given(small_polynomials(), small_polynomials())
def test_apply_D_is_linear(p: Polynomial, q: Polynomial):
    assert apply_D(_sum(p, q)) == _sum(apply_D(p), apply_D(q))
    assert apply_D(3 * p) == 3 * apply_D(p)
