import json
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from kernel_oracle import divisors, moebius, sigma
from qmoon.series import (
    FULL,
    HALF,
    BiSeries,
    ExponentTable,
    NomeMismatch,
    QSeries,
    _binomial_terms,
    _fmt_rat,
    _num,
    _rat,
    exp_series,
    exponents_from_series,
    log_series,
    product_from_exponents,
)


# -- brute-force oracles, no series machinery --------------------------------

def enumerate_partitions(n, max_part=None):
    """Yield every partition of n as a tuple, largest part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in enumerate_partitions(n - k, k):
            yield (k,) + rest


def count_colored_partitions(n, colors):
    """Partitions of n with each part painted one of `colors` colors.

    Parts of equal size form an unordered multiset of colors, so a size
    appearing m times contributes C(colors + m - 1, m) choices.
    """
    total = 0
    for shape in enumerate_partitions(n):
        ways = 1
        for size in set(shape):
            m = shape.count(size)
            ways *= comb(colors + m - 1, m)
        total += ways
    return total


def phi_product(order):
    """prod_{n <= order} (1 - q^n) as a QSeries, built from raw factors."""
    acc = QSeries.one(order)
    for n in range(1, order + 1):
        acc = acc * QSeries({0: 1, n: -1}, order)
    return acc


# -- basic ring operations ----------------------------------------------------

def test_telescoping_geometric():
    one_minus_q = QSeries({0: 1, 1: -1}, 10)
    geo = one_minus_q.invert()
    assert geo == QSeries({n: 1 for n in range(11)}, 10)
    assert one_minus_q * geo == QSeries.one(10)


def test_difference_of_squares():
    a = QSeries({0: 1, 1: -1}, 10)
    b = QSeries({0: 1, 1: 1}, 10)
    assert a * b == QSeries({0: 1, 2: -1}, 10)


def test_partition_series_matches_enumeration():
    order = 8
    p = phi_product(order).invert()
    for n in range(order + 1):
        assert p.coeff(n) == sum(1 for _ in enumerate_partitions(n))


def test_colored_partition_series_matches_enumeration():
    p24 = (phi_product(6) ** 24).invert()
    for n in range(4):
        assert p24.coeff(n) == count_colored_partitions(n, 24)
    assert p24.coeff(1) == 24
    assert p24.coeff(2) == 324
    assert p24.coeff(3) == 3200


def test_invert_moves_lowest_monomial():
    u = QSeries({0: 1, 1: 7}, 9)
    a = u.shift(3)
    inv = a.invert()
    assert inv.valuation() == -3
    assert (a * inv) == QSeries.one(inv.trunc)


def test_invert_zero_raises():
    with pytest.raises(ValueError):
        QSeries({}, 5).invert()


def test_coeff_beyond_trunc_raises():
    a = QSeries({0: 1}, 5)
    assert a.coeff(5) == 0
    with pytest.raises(ValueError):
        a.coeff(6)


def test_stored_exponent_above_trunc_rejected():
    with pytest.raises(ValueError):
        QSeries({7: 1}, 5)
    # a zero is not stored, so it may sit above trunc: adding 0 keeps the series
    low = QSeries({-5: 1}, -3)
    assert QSeries({7: 0}, 5).coeffs == {}
    assert (0 + low).coeffs == {-5: 1} and (0 + low).trunc == -3


def test_constant_past_a_negative_trunc():
    # the constant term lies beyond the truncation, so adding it changes nothing known
    low = QSeries({-5: 1}, -3)
    for s in (low + 1, 1 + low, low - Fraction(1, 2), low + QSeries.const(7, -3)):
        assert (s.coeffs, s.trunc) == ({-5: 1}, -3)
    assert ((1 - low).coeffs, (1 - low).trunc) == ({-5: -1}, -3)
    assert (QSeries.one(-1).coeffs, QSeries.one(-1).trunc) == ({}, -1)
    assert QSeries.one(0).coeffs == {0: 1} and QSeries.const(3, 2).coeffs == {0: 3}
    assert (low ** 0).coeffs == {}


def test_add_requires_equal_prefactor():
    a = QSeries({0: 1}, 5, pre24=1)
    b = QSeries({0: 1}, 5)
    with pytest.raises(ValueError):
        a + b


def test_scalar_add_refuses_a_prefactor():
    # a scalar sits at q^0, so it cannot join q^(1/4) * (...) term by term
    s = QSeries({0: 2}, 4, pre24=6)
    for add in (lambda: s + 1, lambda: 1 + s, lambda: 1 - s, lambda: s - Fraction(1, 2)):
        with pytest.raises(ValueError, match="prefactor mismatch on add"):
            add()
    with pytest.raises(ValueError, match="prefactor mismatch on add"):
        s + QSeries.one(4)
    assert (QSeries({0: 2}, 4, nome=HALF) + 1).coeffs == {0: 3}


@settings(max_examples=400, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(-60, 60).filter(bool))
def test_rat_is_the_fraction_and_an_int_exactly_when_d_divides_n(n, d):
    r = _rat(n, d)
    assert r == Fraction(n, d)
    assert type(r) is (int if n % d == 0 else Fraction)
    r = _rat(n, abs(d))
    assert _fmt_rat(n, abs(d)) == (str(r) if type(r) is int else f"{r.numerator}/{r.denominator}")


def test_rat_reads_one_value_as_fraction_does():
    for x in (3, True, Fraction(4, 2), Fraction(1, 2), 0.25, "3/12", " 2 ", "-7", Decimal("1.5")):
        assert _rat(x) == Fraction(x) and type(_rat(x)) is type(_num(Fraction(x))), x
    for bad in (None, 1j, "x"):
        with pytest.raises((TypeError, ValueError)):
            _rat(bad)
    with pytest.raises(ZeroDivisionError):
        _rat(1, 0)


def test_scalars_are_ints_bools_and_fractions_only():
    # the type tests name no Fraction, yet take and refuse what they always did
    s = QSeries({0: 1, 1: 2}, 3)
    for x in (3, True, Fraction(1, 2), Fraction(4, 2)):
        assert (s + x).coeffs == (x + s).coeffs == {0: 1 + x, 1: 2}
        assert (s - x).coeffs == {e: c for e, c in {0: 1 - x, 1: 2}.items() if c}
        assert (s * x).coeffs == (x * s).coeffs == {0: x, 1: 2 * x}
        assert (s / x).coeffs == {0: Fraction(1) / x, 1: Fraction(2) / x}
        assert _num(x) == x
    for zero in (0, False, Fraction(0)):  # with terms to divide or none
        for t in (s, QSeries({}, 3)):
            with pytest.raises(ZeroDivisionError):
                t / zero
    for bad in (0.5, 2.0, "1", Decimal(1), None):
        for op in (lambda: s + bad, lambda: bad + s, lambda: s - bad, lambda: bad - s,
                   lambda: s * bad, lambda: bad * s, lambda: s / bad, lambda: _num(bad)):
            with pytest.raises(TypeError):
                op()


def test_nome_mixing_is_hard_error():
    a = QSeries({0: 1}, 5, nome=FULL)
    b = QSeries({0: 1}, 5, nome=HALF)
    with pytest.raises(NomeMismatch):
        a * b
    with pytest.raises(NomeMismatch):
        a + b
    with pytest.raises(NomeMismatch):
        a == b


def test_prefactor_denominator_must_divide_24():
    # the prefactor is an int count of twenty-fourths: a rational count fails
    # loudly, and a file's prefactor must come out a whole count
    assert QSeries({0: 1}, 3, pre24=15).pretty() == "q^(5/8) * (1 + O(q^4))"
    for bad in (Fraction(5, 8), Fraction(24), 0.5):
        with pytest.raises(TypeError):
            QSeries({0: 1}, 3, pre24=bad)
    with pytest.raises(ValueError, match="1/5 has denominator not dividing 24"):
        QSeries.from_json({"trunc": 3, "coeffs": {"0": "1"}, "prefactor": "1/5"})


def test_mul_adds_prefactors():
    a = QSeries({0: 1}, 6, pre24=1)
    b = QSeries({0: 2}, 6, pre24=3)
    assert (a * b).pre24 == 4 and (a / b).pre24 == -2


def test_laurent_mul_truncation_is_honest():
    # j-style series start at q^-1; the unknown tail of one factor meets the
    # q^-1 of the other one exponent early, and trunc must reflect that.
    a = QSeries({-1: 1, 1: 196884}, 10)
    prod = a * a
    assert prod.trunc == 9
    assert prod.coeff(0) == 393768
    # A zero series is known only through its trunc, so it multiplies as if
    # its valuation were trunc + 1: q^4 agrees with zero(3), and q^4 * q^-3
    # has coefficient 1 at q^1.
    zero, low = QSeries({}, 3), QSeries({-3: 1}, 5)
    assert (zero * low).trunc == 0 and (low * zero).trunc == 0
    assert (zero * QSeries({2: 1}, 4)).trunc == 5
    assert (zero * QSeries({}, 5)).trunc == 9


def test_canonical_folds_integer_prefactor():
    a = QSeries({0: 1, 1: -1}, 5, pre24=25)
    c = a.canonical()
    assert c.pre24 == 1
    assert c.coeffs == {1: 1, 2: -1}
    assert c.trunc == 6


# -- scale_var ----------------------------------------------------------------

def test_scale_var_monomials():
    a = QSeries({0: 1, 1: 1}, 5)
    s = a.scale_var(4)
    assert s.coeffs == {0: 1, 4: 1}
    assert s.trunc >= 20


def test_scale_var_prefactor():
    a = QSeries({0: 1}, 5, pre24=1)
    assert a.scale_var(4).pre24 == 4


def test_scale_var_keeps_the_nome():
    a = QSeries({0: 1, 2: 3}, 5, nome=HALF)
    h = a.scale_var(2)
    assert h.nome == HALF
    assert h.coeffs == {0: 1, 4: 3}
    with pytest.raises(NomeMismatch):
        QSeries({0: 1, 2: 3}, 5, nome=FULL).scale_var(2) + h


# -- exp / log ----------------------------------------------------------------

def test_log_of_geometric_series():
    geo = QSeries({0: 1, 1: -1}, 10).invert()
    expected = QSeries({n: Fraction(1, n) for n in range(1, 11)}, 10)
    assert log_series(geo) == expected


def test_exp_log_inverse_pair():
    a = QSeries({0: 1, 1: 1, 2: 1}, 10)
    assert exp_series(log_series(a)) == a


def test_exp_is_homomorphism():
    a = QSeries({0: 1, 1: 1, 3: 5}, 12)
    assert exp_series(2 * log_series(a)) == a * a


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        exp_series(QSeries({0: 1}, 5))
    with pytest.raises(ValueError):
        exp_series(QSeries({1: 1}, 5, pre24=12))
    with pytest.raises(ValueError):
        log_series(QSeries({0: 2}, 5))
    with pytest.raises(ValueError):
        log_series(QSeries({-1: 1, 0: 1}, 5))


# -- product <-> exponents ------------------------------------------------------

def test_product_all_24_exponents():
    t = ExponentTable(-24, {n: 24 for n in range(1, 12)}, 11)
    d = product_from_exponents(t)
    assert d.coeff(1) == 1
    assert d.coeff(2) == -24
    assert d.coeff(3) == 252
    assert d.coeff(4) == -1472
    assert d.coeff(5) == 4830


def test_product_single_negative_exponent_is_geometric():
    t = ExponentTable(0, {1: -1}, 9)
    assert product_from_exponents(t) == QSeries({n: 1 for n in range(10)}, 9)


def test_product_fractional_leading_power():
    # h = -1/24 puts q^(1/24) in front, the eta shape
    t = ExponentTable(-1, {n: 1 for n in range(1, 7)}, 6)
    e = product_from_exponents(t)
    assert e.pre24 == 1
    assert e.coeffs == {0: 1, 1: -1, 2: -1, 5: 1}


def test_exponents_from_series_all_24():
    t = ExponentTable(-24, {n: 24 for n in range(1, 11)}, 10)
    back = exponents_from_series(product_from_exponents(t), 10)
    assert back.h24 == -24 and back.to_json()["h"] == "-1"
    assert all(back[n] == 24 for n in range(1, 11))


def test_exponents_from_series_requires_unit_one():
    with pytest.raises(ValueError):
        exponents_from_series(QSeries({0: 2, 1: 1}, 8), 8)
    with pytest.raises(ValueError):
        exponents_from_series(QSeries({}, 8), 8)


def test_exponents_from_series_fractional_leading_power():
    t = ExponentTable(-1, {n: 1 for n in range(1, 9)}, 8)
    back = exponents_from_series(product_from_exponents(t), 8)
    assert back.h24 == -1 and back.to_json()["h"] == "-1/24"
    assert all(back[n] == 1 for n in range(1, 9))


def test_exponent_table_combination():
    s = ExponentTable(24, {1: 2, 2: -3}, 4)
    t = ExponentTable(0, {1: 5, 3: 1}, 4)
    assert s.h24 == 24
    assert (s[1], s[2], s[3], s[4]) == (2, -3, 0, 0)
    assert t == ExponentTable(0, {1: 5, 2: 0, 3: 1}, 4)


# -- the oracle's arithmetic helpers and the kernel's binomial terms ----------

def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    with pytest.raises(ValueError):
        divisors(0)


def test_moebius():
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert moebius(6) == 1
    assert moebius(4) == 0
    with pytest.raises(ValueError):
        moebius(0)


def test_sigma():
    assert sigma(3, 2) == 9
    assert sigma(1, 9) == 13
    assert sigma(0, 12) == 6
    with pytest.raises(ValueError):
        sigma(1, -3)


def test_gbinom():
    # the kernel's binomial recurrence yields (k, C(e, k)) up to its first zero term
    assert list(_binomial_terms(5, 1, 2)) == [(0, 1), (1, 5), (2, 10)]
    assert list(_binomial_terms(-1, 1, 3))[3] == (3, -1)
    assert list(_binomial_terms(-2, 1, 3))[3] == (3, -4)
    assert list(_binomial_terms(2, 1, 5)) == [(0, 1), (1, 2), (2, 1)]


# -- two-variable series --------------------------------------------------------

def test_big_exponent_square():
    b = BiSeries.one(2).mul_binomials([(1, 1, 2, -1)])
    assert b.coeffs == {(0, 0): 1, (1, 1): -2, (2, 2): 1}


def test_big_exponent_huge():
    c = 196884
    b = BiSeries.one(2).mul_binomials([(1, 1, c, -1)])
    assert b.coeffs == {(0, 0): 1, (1, 1): -c, (2, 2): comb(c, 2)}


def test_big_exponent_zero_is_one():
    b = BiSeries.one(6).mul_binomials([(2, -1, 0, -1)])
    assert b.coeffs == {(0, 0): 1}


def test_big_exponent_negative_with_ytop():
    # (1 - z)^-1 constant in q has no end in z: no product divides by it,
    # with a y-top or without
    with pytest.raises(ValueError):
        BiSeries.one(4, ytop=3).mul_binomials([(0, 1, -1, -1)])
    with pytest.raises(ValueError):
        BiSeries.one(4).mul_binomials([(0, 1, -1, -1)])


def test_biseries_mul_and_caps():
    a = BiSeries({(0, 0): 1, (1, 1): -1}, 3)
    prod = a.mul_binomials([(1, -1, 1, -1)])
    assert prod.coeffs == {(0, 0): 1, (1, 1): -1, (1, -1): -1, (2, 0): 1}
    assert prod.cap == 3
    # the constant factor (1 + 1)^3, at (a, b) = (0, 0), scales by 8
    prod = a.mul_binomials([(0, 0, 3, 1)])
    assert (prod.coeffs, prod.cap) == ({(0, 0): 8, (1, 1): -8}, 3)


def test_biseries_laurent_cap_is_honest():
    # the product takes no Laurent x: a stored x < 0 is rejected, whatever the factors
    with pytest.raises(ValueError):
        BiSeries({(-1, 0): 1, (1, 0): 5}, 4).mul_binomials([(1, 0, 1, -1)])
    with pytest.raises(ValueError):
        BiSeries({(-2, 0): 1}, 3).mul_binomials([])
    # no x-valuation is below 0, so the cap stays, for the zero series and
    # the zero factor (1 - 1)^2 alike
    zero = BiSeries({}, 3)
    assert zero.mul_binomials([(1, 0, 1, -1)]).cap == 3
    got = BiSeries({(1, 0): 1}, 4).mul_binomials([(0, 0, 2, -1)])
    assert (got.coeffs, got.cap) == ({}, 4)
    assert BiSeries({}, 4).mul_binomials([(0, 0, 2, -1)]).cap == 4


def test_biseries_one_past_a_negative_cap():
    # below cap 0 the constant is unknown, so nothing is stored
    one = BiSeries.one(-1)
    assert (one.coeffs, one.cap, one.ytop) == ({}, -1, None)
    one = BiSeries.one(-3, ytop=2)
    assert (one.coeffs, one.cap, one.ytop) == ({}, -3, 2)
    # a stored x below 0 is rejected
    with pytest.raises(ValueError):
        BiSeries({(-2, 1): 3}, -1).mul_binomials([(1, 0, 1, -1)])
    # the empty constant at cap -2 stays known through cap -2
    assert BiSeries.one(-2).mul_binomials([(1, 1, 1, -1)]).cap == -2
    assert BiSeries.one(0).coeffs == {(0, 0): 1}


def test_biseries_ytop_filters():
    a = BiSeries({(0, 0): 1, (0, 5): 1, (0, -9): 1}, 3, ytop=2)
    assert a.coeffs == {(0, 0): 1, (0, -9): 1}


def test_biseries_first_mismatch_graded_lex():
    a = BiSeries({(0, 0): 1, (2, 0): 4, (1, 1): 2}, 5)
    b = BiSeries({(0, 0): 1, (2, 0): 5, (1, 1): 2, (1, 2): 7}, 5)
    assert a.first_mismatch(b) == ((2, 0), 4, 5)


# -- serialization ---------------------------------------------------------------

def test_qseries_json_roundtrip():
    a = QSeries({-2: Fraction(65520, 691), 0: -3, 5: 1}, 9,
                nome=HALF, pre24=6)
    data = a.to_json()
    assert data["nome"] == "half"
    assert data["prefactor"] == "1/4"
    assert data["coeffs"]["-2"] == "65520/691"
    text = json.dumps(data)
    back = QSeries.from_json(json.loads(text))
    assert back == a and back.trunc == a.trunc and back.nome == a.nome


def test_qseries_json_rejects_two_keys_for_one_exponent():
    # "1" and "01" both read as q^1; neither may silently win
    data = {"trunc": 3, "coeffs": {"0": "1", "1": "2", "01": "7"}}
    with pytest.raises(ValueError, match="keys '1' and '01' name the same exponent"):
        QSeries.from_json(data)


def test_qseries_json_names_a_key_that_is_not_an_integer():
    with pytest.raises(ValueError, match="series field 'coeffs' key 'x' must be an integer"):
        QSeries.from_json({"trunc": 3, "coeffs": {"x": "1"}})


def test_pretty_format():
    a = QSeries({-1: 1, 0: 744, 1: 196884}, 2)
    assert a.pretty() == "q^-1 + 744 + 196884q + O(q^3)"
    b = QSeries({1: Fraction(65520, 691)}, 1)
    assert b.pretty() == "(65520/691)q + O(q^2)"
    c = QSeries({1: -1, 0: 1}, 2, pre24=1)
    assert c.pretty() == "q^(1/24) * (1 - q + O(q^3))"


# -- randomized algebraic laws ----------------------------------------------------

@st.composite
def qseries(draw, min_exp=-3, max_exp=6, trunc=8):
    exps = draw(st.lists(st.integers(min_exp, max_exp), max_size=5, unique=True))
    coeffs = {e: draw(st.integers(-9, 9).filter(bool)) for e in exps}
    return QSeries(coeffs, trunc)


@st.composite
def unit_qseries(draw, max_exp=6, trunc=8):
    exps = draw(st.lists(st.integers(1, max_exp), max_size=4, unique=True))
    coeffs = {e: draw(st.integers(-9, 9)) for e in exps}
    coeffs[0] = 1
    return QSeries(coeffs, trunc)


@given(qseries(), qseries(), qseries())
def test_ring_axioms(a, b, c):
    assert (a + b).agrees_with(b + a)
    assert ((a + b) + c).agrees_with(a + (b + c))
    assert (a * b).agrees_with(b * a)
    assert ((a * b) * c).agrees_with(a * (b * c))
    assert (a * (b + c)).agrees_with(a * b + a * c)
    assert not (a + (-a)).coeffs


@given(qseries())
def test_invert_inverse_pair(a):
    if not a.coeffs:
        return
    inv = a.invert()
    prod = a * inv
    assert prod.coeff(0) == 1
    assert prod.agrees_with(QSeries.one(prod.trunc))


@given(unit_qseries())
def test_log_exp_roundtrip(a):
    assert exp_series(log_series(a)) == a


@given(qseries(min_exp=0), qseries(min_exp=0), st.integers(0, 8))
def test_truncation_monotonicity(a, b, m):
    full = a * b
    cut = a.truncate(m) * b.truncate(m)
    assert cut.agrees_with(full)


@given(st.integers(-48, 48),
       st.dictionaries(st.integers(1, 6), st.integers(-5, 5), max_size=4))
@settings(max_examples=60)
def test_exponent_roundtrip_random_tables(h24, exps):
    t = ExponentTable(h24, exps, 8)
    series = product_from_exponents(t)
    back = exponents_from_series(series, 8)
    assert back == t
