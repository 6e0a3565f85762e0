"""Finite sums of the height-width summation lemma, for the tests.

Summing prod_i w_i^(a_i+1) over the cylinder heights and widths with
sum_i h_i w_i <= N grows like N^(b+2k)/(b+2k)! prod_i (a_i+1)! zeta(a_i+2),
where b = sum_i a_i over the k cylinders; the sums here check that
asymptotic exactly, at finite N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, pi, prod
from typing import Sequence

from pillowcount.rationals import bernoulli, zeta_even


@lru_cache(maxsize=None)
def _power_sum(p: int, m: int) -> int:
    """Sum of w^p for w = 1..m, via Faulhaber's formula.

    Memoized: the divisor-style sums evaluate it at only O(sqrt(bound))
    distinct truncation points.
    """
    total = Fraction(0)
    for j in range(p + 1):
        bj = Fraction(1, 2) if j == 1 else bernoulli(j)
        total += comb(p + 1, j) * bj * Fraction(m) ** (p + 1 - j)
    total /= p + 1
    assert total.denominator == 1
    return total.numerator


def zeta_lemma_sum_k1(a: int, bound: int) -> int:
    """Exact sum of w^{a+1} over pairs h, w >= 1 with h*w <= bound."""
    return sum(_power_sum(a + 1, bound // h) for h in range(1, bound + 1))


def zeta_lemma_sum_k2(a1: int, a2: int, bound: int) -> int:
    """Exact sum of w_1^{a_1+1} w_2^{a_2+1} over h_1 w_1 + h_2 w_2 <= bound."""
    t1 = [0] * (bound + 1)
    t2 = [0] * (bound + 1)
    for w in range(1, bound + 1):
        p1, p2 = w ** (a1 + 1), w ** (a2 + 1)
        for j in range(w, bound + 1, w):
            t1[j] += p1
            t2[j] += p2
    prefix2 = [0] * (bound + 1)
    acc = 0
    for j in range(bound + 1):
        acc += t2[j]
        prefix2[j] = acc
    return sum(t1[j] * prefix2[bound - j] for j in range(1, bound + 1))


def zeta_lemma_ratio(exponents: Sequence[int], bound: int) -> float:
    """Finite sum divided by its predicted asymptotic N^{b+2k}/(b+2k)! prod (a_i+1)! zeta(a_i+2)."""
    k = len(exponents)
    if k not in (1, 2):
        raise ValueError("only k = 1 or 2 supported")
    # zeta_even refuses an odd exponent here, before the finite sum starts
    scale = prod(float(zeta_even(a + 2).coefficient) * pi ** (a + 2) for a in exponents)
    s = zeta_lemma_sum_k1(exponents[0], bound) if k == 1 else zeta_lemma_sum_k2(exponents[0], exponents[1], bound)
    dim = sum(exponents) + 2 * k
    predicted = Fraction(bound) ** dim / factorial(dim) * prod(factorial(a + 1) for a in exponents)
    return float(Fraction(s) / predicted) / scale
