"""Independent oracles from sympy and mpmath, used in tests only.

Each test is skipped where its library is not installed; qmoon itself never
imports either.
"""

import math
from fractions import Fraction

import pytest

import kernel_oracle as oracle
from qmoon import forms, mults, series


def test_partition_series_matches_sympy_partition():
    # sympy.npartitions under its current, non-deprecated name
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    p = forms.partition_series(500)
    assert p.trunc == 500
    assert [p.coeff(n) for n in range(501)] == [int(numbers.partition(n)) for n in range(501)]


def test_sigma_and_moebius_match_sympy():
    # the trial-division helpers the test oracles use
    sympy = pytest.importorskip("sympy")
    for n in range(1, 2001):
        for k in (0, 1, 11):
            assert oracle.sigma(k, n) == sympy.divisor_sigma(n, k)
        assert oracle.moebius(n) == sympy.mobius(n)


def test_sigma_table_matches_sympy_divisor_sigma():
    # the divisor sieve every Eisenstein series, theta^4 and Q are read from
    sympy = pytest.importorskip("sympy")
    for k in (0, 1, 3, 5, 7, 9, 11):
        assert forms._sigma_table(k, 2000) == \
            [int(sympy.divisor_sigma(n, k)) for n in range(1, 2001)], k


def test_eisenstein_normaliser_matches_sympy_bernoulli():
    # E_k = 1 - (2k / B_k) sum sigma_(k-1)(n) q^n, its q coefficient read from
    # integer Bernoulli data: an int exactly when B_k divides 2k
    sympy = pytest.importorskip("sympy")
    for k in range(4, 131, 2):
        want = -2 * k / sympy.bernoulli(k)
        got = forms.eisenstein(k, 1).coeff(1)
        assert got == Fraction(int(want.p), int(want.q)), k
        assert type(got) is (int if want.q == 1 else Fraction), k


def test_binomial_recurrence_matches_sympy_binomial():
    # integers and huge integers of both signs (372 bits, as wide as the
    # monster denominator's exponents get) through k = 20
    sympy = pytest.importorskip("sympy")
    exponents = list(range(-30, 31)) + [10**20 + i for i in range(6)] + \
        [-(10**20 + 3), (1 << 371) + 5, -(1 << 371) - 7]
    for e in exponents:
        want = [int(sympy.binomial(e, k)) for k in range(21)]
        terms = dict(series._binomial_terms(e, 1, 20))
        got = [terms.get(k, 0) for k in range(21)]
        assert got == want, e
        assert all(type(c) is int for c in got), e
        for sign in (1, -1):
            for kmax in range(13):
                assert list(series._binomial_terms(e, sign, kmax)) == \
                    [(k, sign ** k * w) for k, w in enumerate(want[:kmax + 1]) if w], (e, sign)


def test_bessel_i13_matches_mpmath_over_the_rademacher_range():
    # p24_rademacher evaluates I_13 at 4 pi sqrt(n) / k for n >= 1 and 1 <= k <= terms
    mpmath = pytest.importorskip("mpmath")
    for n in (1, 2, 5, 30, 300, 3000):
        for k in (1, 2, 7, 40, 400):
            x = 4 * math.pi * math.sqrt(n) / k
            assert math.isclose(mults._bessel_i13(x), float(mpmath.besseli(13, x)),
                                rel_tol=1e-12), x


def _mp_rademacher(mp, n, terms):
    """The partial Rademacher sum of p24_rademacher in mpmath at the working precision.

    The residue pairs come from modular inverses (h' = -1/h mod k) rather than
    the float path's search over every pair.
    """
    total = mp.mpf(0)
    for k in range(1, terms + 1):
        pairs = [(h, -pow(h, -1, k) % k) for h in range(k) if math.gcd(h, k) == 1]
        twiddle = mp.fsum(mp.cos(2 * mp.pi * (n * h + hp) / k) for h, hp in pairs)
        total += mp.besseli(13, 4 * mp.pi * mp.sqrt(n) / k) / k * twiddle
    return 2 * mp.pi * mp.power(n, mp.mpf(-13) / 2) * total


def test_float_rademacher_matches_mpmath_sum():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for n in (20, 280, 3000):
            for terms in (1, 10, 20):
                want = _mp_rademacher(mpmath.mp, n, terms)
                assert math.isclose(mults.p24_rademacher(n, terms), float(want),
                                    rel_tol=1e-10), (n, terms)


def test_mpmath_rademacher_sum_rounds_to_p24():
    mpmath = pytest.importorskip("mpmath")
    p24 = forms.colored_partition_series(24, 61)
    with mpmath.workdps(60):
        for n in range(20, 61):
            assert int(mpmath.nint(_mp_rademacher(mpmath.mp, n, 20))) == p24.coeff(n + 1), n
