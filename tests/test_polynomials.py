"""Sparse exact polynomials, the D operator, and Laplace transforms."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pillowcount.polynomials import (
    Polynomial,
    RationalFunction,
    apply_D,
    laplace_of_polynomial,
    rf_add,
    rf_equal,
    rf_mul,
    rf_partial,
    rf_scale,
)


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
    assert Polynomial.monomial((0, 0, 0)) == Polynomial.one()
    assert Polynomial({(1, 0): 1, (1,): -1}).is_zero()


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        Polynomial({(1, -1): 1})


def test_basic_ring_operations():
    w1 = Polynomial.variable(0)
    w2 = Polynomial.variable(1)
    p = (w1 + w2) * (w1 + w2)
    assert p == Polynomial({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert p - p == Polynomial.zero()
    assert (w1 - w2) * (w1 + w2) == w1 * w1 - w2 * w2
    assert 2 * w1 == w1 + w1


def test_scalar_coercion():
    w = Polynomial.variable(0)
    assert w + 1 == Polynomial({(1,): 1, (): 1})
    assert (w + 1) * Fraction(1, 2) == Polynomial({(1,): Fraction(1, 2), (): Fraction(1, 2)})
    assert w * 0 == Polynomial.zero()


def test_degree_queries():
    p = Polynomial({(2, 1): 1, (0, 3): 2})
    assert p.total_degree() == 3
    assert p.homogeneous_degree() == 3
    q = p + 1
    assert q.homogeneous_degree() is None
    assert Polynomial.zero().homogeneous_degree() == 0
    assert p.arity() == 2


def test_evaluate():
    p = Polynomial({(2, 0): 1, (0, 2): 1})
    assert p.evaluate((3, 4)) == 25
    assert p.evaluate((Fraction(1, 2), 0)) == Fraction(1, 4)
    with pytest.raises(ValueError):
        p.evaluate((3,))


def test_is_symmetric_padding():
    sym = Polynomial({(2, 0): 1, (0, 2): 1})
    assert sym.is_symmetric(2)
    # w1^2 alone is not symmetric in two variables even though only one
    # variable appears explicitly
    assert not Polynomial.monomial((2,)).is_symmetric(2)
    assert Polynomial.one().is_symmetric(3)
    assert Polynomial.monomial((2,)).is_symmetric(1)


def test_partial_derivative():
    p = Polynomial({(3, 1): 2})
    assert p.partial(0) == Polynomial({(2, 1): 6})
    assert p.partial(1) == Polynomial({(3,): 2})
    assert p.partial(2) == Polynomial.zero()


def test_remap_variables():
    p = Polynomial({(2, 1): 3})
    assert p.remap_variables((2, 0)) == Polynomial({(1, 0, 2): 3})
    with pytest.raises(ValueError):
        p.remap_variables((0, 0))
    with pytest.raises(ValueError):
        p.remap_variables((0,))


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
    assert Polynomial.monomial((1,)).to_text() == "w1"


@given(small_polynomials(), small_polynomials(), small_polynomials())
def test_ring_axioms(p: Polynomial, q: Polynomial, r: Polynomial):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(small_polynomials(), st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)))
def test_evaluation_is_a_ring_map(p: Polynomial, point: tuple[int, int, int]):
    q = p * p + 3 * p
    assert q.evaluate(point) == p.evaluate(point) ** 2 + 3 * p.evaluate(point)


def test_apply_D_monomial_rule():
    # D_w sends w^n to w^{n+2}/(n+2), summed over the listed variables
    p = Polynomial.monomial((2,))
    assert apply_D(p, [0]) == Polynomial({(4,): Fraction(1, 4)})
    q = Polynomial.one()
    assert apply_D(q, [0, 1]) == Polynomial(
        {(2,): Fraction(1, 2), (0, 2): Fraction(1, 2)}
    )
    # variables beyond the arity still receive their w^2/2
    r = Polynomial.monomial((1,))
    assert apply_D(r, [0, 1]) == Polynomial(
        {(3,): Fraction(1, 3), (1, 2): Fraction(1, 2)}
    )


@given(small_polynomials(), small_polynomials())
def test_apply_D_is_linear(p: Polynomial, q: Polynomial):
    assert apply_D(p + q, [0, 1, 2]) == apply_D(p, [0, 1, 2]) + apply_D(q, [0, 1, 2])


def test_rational_function_equality_is_cross_multiplication():
    lam = Polynomial.variable(0)
    one = Polynomial.one()
    f = RationalFunction(lam, lam * lam)
    g = RationalFunction(one, lam)
    assert rf_equal(f, g)
    assert not rf_equal(f, RationalFunction(one, lam * lam))


def test_rational_function_zero_denominator_rejected():
    with pytest.raises(ValueError):
        RationalFunction(Polynomial.one(), Polynomial.zero())


def test_rational_function_arithmetic():
    lam1 = Polynomial.variable(0)
    lam2 = Polynomial.variable(1)
    one = Polynomial.one()
    f = RationalFunction(one, lam1)
    g = RationalFunction(one, lam2)
    s = rf_add(f, g)
    assert rf_equal(s, RationalFunction(lam1 + lam2, lam1 * lam2))
    p = rf_mul(f, g)
    assert rf_equal(p, RationalFunction(one, lam1 * lam2))
    assert rf_equal(rf_scale(f, 3), RationalFunction(Polynomial.constant(3), lam1))


def test_rf_partial_quotient_rule():
    lam = Polynomial.variable(0)
    one = Polynomial.one()
    # d/dl (1/l) = -1/l^2
    d = rf_partial(RationalFunction(one, lam), 0)
    assert rf_equal(d, RationalFunction(-one, lam * lam))
    # d/dl (l^2/1) = 2l
    d2 = rf_partial(RationalFunction(lam * lam, one), 0)
    assert rf_equal(d2, RationalFunction(2 * lam, one))


def test_laplace_of_polynomial_monomial_rule():
    # w^k -> k!/lambda^{k+1}; absent variables contribute 1/lambda
    p = Polynomial.monomial((2,))
    f = laplace_of_polynomial(p, 1)
    assert rf_equal(f, RationalFunction(Polynomial.constant(2), Polynomial.monomial((3,))))
    g = laplace_of_polynomial(Polynomial.one(), 2)
    assert rf_equal(g, RationalFunction(Polynomial.one(), Polynomial.monomial((1, 1))))
    with pytest.raises(ValueError):
        laplace_of_polynomial(Polynomial.monomial((1, 1)), 1)


def test_laplace_of_polynomial_is_additive():
    p = Polynomial({(2, 0): 1})
    q = Polynomial({(0, 2): 1})
    both = laplace_of_polynomial(p + q, 2)
    assert rf_equal(
        both, rf_add(laplace_of_polynomial(p, 2), laplace_of_polynomial(q, 2))
    )
