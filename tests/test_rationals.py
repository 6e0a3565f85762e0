"""Exact arithmetic helpers: Bernoulli numbers, even zeta values, PiValue."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pillowcount.rationals import (
    PiValue,
    bernoulli,
    binomial,
    compositions,
    factorial,
    multinomial,
    zeta_even,
)


def test_factorial_small_values():
    assert [factorial(n) for n in range(6)] == [1, 1, 2, 6, 24, 120]
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_values_and_edges():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(5, 6) == 0
    assert binomial(5, -1) == 0
    with pytest.raises(ValueError):
        binomial(-2, 1)


def test_multinomial_values_and_errors():
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(5, (2, 3)) == 10
    assert multinomial(6, (1, 1, 2, 2)) == 180
    assert multinomial(0, ()) == 1
    with pytest.raises(ValueError):
        multinomial(4, (2, 1))
    with pytest.raises(ValueError):
        multinomial(4, (5, -1))


def test_compositions_count_and_order():
    for total in range(8):
        for parts in range(1, 6):
            comps = list(compositions(total, parts))
            assert len(comps) == binomial(total + parts - 1, parts - 1)
            assert all(a < b for a, b in zip(comps, comps[1:]))
            assert all(len(c) == parts and min(c) >= 0 and sum(c) == total for c in comps)
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 0)) == []


def test_bernoulli_table():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for n, value in expected.items():
        assert bernoulli(n) == value
    for n in range(3, 20, 2):
        assert bernoulli(n) == 0
    with pytest.raises(ValueError):
        bernoulli(-1)


@given(st.integers(min_value=1, max_value=20))
def test_bernoulli_even_sign_alternates(n: int):
    # B_{2n} has sign (-1)^{n+1} for n >= 1
    value = bernoulli(2 * n)
    assert value != 0
    assert (value > 0) == (n % 2 == 1)


def test_zeta_even_classical_values():
    assert zeta_even(2) == PiValue(Fraction(1, 6), 2)
    assert zeta_even(4) == PiValue(Fraction(1, 90), 4)
    assert zeta_even(6) == PiValue(Fraction(1, 945), 6)
    assert zeta_even(8) == PiValue(Fraction(1, 9450), 8)
    assert zeta_even(10) == PiValue(Fraction(1, 93555), 10)


def test_zeta_even_rejects_bad_arguments():
    for s in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            zeta_even(s)


@given(st.integers(min_value=1, max_value=30))
def test_zeta_even_coefficients_positive(n: int):
    assert zeta_even(2 * n).coefficient > 0


def test_pivalue_addition_rules():
    a = PiValue(Fraction(1, 3), 4)
    b = PiValue(Fraction(1, 6), 4)
    assert a + b == PiValue(Fraction(1, 2), 4)
    assert a - a == PiValue(Fraction(0), 4)
    # an exact zero combines with any power
    assert PiValue.zero() + a == a
    assert a + PiValue(Fraction(0), 8) == a
    with pytest.raises(ValueError):
        a + PiValue(Fraction(1), 2)


def test_pivalue_multiplication_and_scalars():
    a = PiValue(Fraction(1, 3), 2)
    b = PiValue(Fraction(3, 5), 4)
    assert a * b == PiValue(Fraction(1, 5), 6)
    assert 3 * a == PiValue(Fraction(1), 2)
    assert a * Fraction(1, 2) == PiValue(Fraction(1, 6), 2)


def test_pivalue_validation_and_rendering():
    with pytest.raises(ValueError):
        PiValue(Fraction(1), 3)
    with pytest.raises(ValueError):
        PiValue(Fraction(1), -2)
    assert str(PiValue(Fraction(1), 4)) == "pi^4 * 1/1"
    assert str(PiValue(Fraction(-5, 9), 6)) == "pi^6 * -5/9"


def test_pivalue_zero_equality_across_powers():
    assert PiValue(Fraction(0), 4) == PiValue(Fraction(0), 8)
    assert hash(PiValue(Fraction(0), 4)) == hash(PiValue(Fraction(0), 8))


def test_pivalue_to_float():
    import math

    assert PiValue(Fraction(1, 6), 2).to_float() == pytest.approx(math.pi**2 / 6)
