"""Independent oracles from sympy and mpmath, used in tests only.

Each test is skipped where its library is not installed; qmoon itself never
imports either.
"""

import math

import pytest

from qmoon import forms, mults, series


def test_partition_series_matches_sympy_partition():
    # sympy.npartitions under its current, non-deprecated name
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    p = forms.partition_series(500)
    assert p.trunc == 500
    assert [p.coeff(n) for n in range(501)] == [int(numbers.partition(n)) for n in range(501)]


def test_sigma_and_moebius_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 2001):
        for k in (0, 1, 11):
            assert series.sigma(k, n) == sympy.divisor_sigma(n, k)
        assert series.moebius(n) == sympy.mobius(n)


def test_bessel_i13_matches_mpmath_over_the_rademacher_range():
    # p24_rademacher evaluates I_13 at 4 pi sqrt(n) / k for n >= 1 and 1 <= k <= terms
    mpmath = pytest.importorskip("mpmath")
    for n in (1, 2, 5, 30, 300, 3000):
        for k in (1, 2, 7, 40, 400):
            x = 4 * math.pi * math.sqrt(n) / k
            assert math.isclose(mults._bessel_i13(x), float(mpmath.besseli(13, x)),
                                rel_tol=1e-12), x
