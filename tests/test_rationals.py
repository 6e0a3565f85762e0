"""Exact arithmetic helpers: Bernoulli numbers, even zeta values, PiValue."""

from __future__ import annotations

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pillowcount.rationals import (
    SIZE_CAP,
    PiValue,
    bernoulli,
    capped_binomial,
    compositions,
    multinomial,
    size_text,
    solve_exact,
    zeta_even,
)


def _vandermonde(xs):
    return [[x**p for p in range(len(xs))] for x in xs]


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8), st.data())
def test_solve_exact_recovers_integer_polynomials(coeffs, data):
    xs = data.draw(st.lists(st.integers(-40, 40), min_size=len(coeffs), max_size=len(coeffs), unique=True))
    ys = [sum(c * x**p for p, c in enumerate(coeffs)) for x in xs]
    assert solve_exact(_vandermonde(xs), ys, len(xs)) == coeffs


def test_solve_exact_spaced_points_and_degree_zero():
    # 3 - 2t + t^3 through unevenly spaced points, listed out of order
    xs = [11, -3, 2, 0, 7]
    ys = [3 - 2 * x + x**3 for x in xs]
    assert solve_exact(_vandermonde(xs), ys, 5) == [3, -2, 0, 1, 0]
    assert solve_exact([[1]], [Fraction(7, 3)], 1) == [Fraction(7, 3)]
    # integer entries divide exactly, never into floats
    (half,) = solve_exact([[2]], [1], 1)
    assert half == Fraction(1, 2) and type(half) is Fraction


def test_solve_exact_rows_past_the_rank_are_checks():
    # the cubic's five points fit four unknowns, and the fifth row checks them
    xs = [11, -3, 2, 0, 7]
    rows = [[x**p for p in range(4)] for x in xs]
    ys = [3 - 2 * x + x**3 for x in xs]
    assert solve_exact(rows, ys, 4) == [3, -2, 0, 1]
    with pytest.raises(ValueError, match="inconsistent"):
        solve_exact(rows, ys[:-1] + [ys[-1] + 1], 4)


def test_solve_exact_refuses_underdetermined_and_misshapen_systems():
    # a repeated point leaves one unknown undetermined
    with pytest.raises(ValueError, match="does not determine"):
        solve_exact(_vandermonde([1, 1]), [2, 3], 2)
    with pytest.raises(ValueError, match="does not determine"):
        solve_exact([[1, 2]], [3], 2)
    with pytest.raises(ValueError, match="one value per row"):
        solve_exact(_vandermonde([1, 2]), [2], 2)
    with pytest.raises(ValueError, match="one entry per unknown"):
        solve_exact([[1, 2]], [3], 1)


def test_capped_sizes_are_exact_up_to_the_cap():
    for n in range(30):
        for k in range(-1, n + 2):
            assert capped_binomial(n, k) == (math.comb(n, k) if k >= 0 else 0)
    assert capped_binomial(63, 31) == math.comb(63, 31) <= SIZE_CAP
    assert capped_binomial(64, 32) == SIZE_CAP + 1 < math.comb(64, 32)
    assert capped_binomial(10**9, 5 * 10**8) == SIZE_CAP + 1
    assert size_text(SIZE_CAP) == str(SIZE_CAP)
    assert size_text(SIZE_CAP + 1) == "over 10^18"


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
            assert len(comps) == math.comb(total + parts - 1, parts - 1)
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
    assert a + PiValue(Fraction(-1, 3), 4) == PiValue(Fraction(0), 4)
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


def test_pivalue_zero_keeps_its_power():
    """A zero of the wrong power is a wrong term, not a neutral one."""
    assert PiValue(Fraction(0), 4) != PiValue(Fraction(0), 8)
    with pytest.raises(ValueError, match="cannot add pi\\^4 and pi\\^8"):
        PiValue(Fraction(1, 3), 4) + PiValue(Fraction(0), 8)


def test_pivalue_is_an_immutable_value():
    """A frozen value: no field is assigned or deleted, it equals only a
    PiValue with equal fields, its hash agrees, its coefficient is coerced
    to Fraction and it prints as a dataclass would."""
    a = PiValue(Fraction(1, 2), 4)
    for attack in (
        lambda: setattr(a, "pi_power", 2),
        lambda: setattr(a, "coefficient", Fraction(1)),
        lambda: setattr(a, "extra", 1),
        lambda: delattr(a, "coefficient"),
    ):
        with pytest.raises(AttributeError):
            attack()
    assert (a.coefficient, a.pi_power) == (Fraction(1, 2), 4)
    assert a != (Fraction(1, 2), 4)
    assert not a == (Fraction(1, 2), 4)
    b = PiValue(Fraction(2, 4), 4)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, PiValue(Fraction(1, 2), 6)}) == 2
    assert repr(a) == "PiValue(coefficient=Fraction(1, 2), pi_power=4)"
    coerced = PiValue(3, 2)
    assert type(coerced.coefficient) is Fraction
    assert coerced == PiValue(Fraction(3), 2)
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(ValueError, match="pi power must be even and nonnegative, got 3"):
        PiValue(Fraction(1), 3)
