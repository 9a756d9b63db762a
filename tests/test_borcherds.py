"""Class numbers, plus-space validation, and the infinite-product lift."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import kernel_oracle as oracle
from qmoon import borcherds, forms
from qmoon.series import ExponentTable, QSeries, exponents_from_series


# -- independent oracle: the Hurwitz-Kronecker class number relation
#    sum_{r^2 <= 4n} H(4n - r^2) + sum_{d|n} min(d, n/d) = 2 sigma_1(n)

def class_number_relation_holds(n):
    r_max = isqrt(4 * n)
    lhs = 0
    for r in range(-r_max, r_max + 1):
        k = 4 * n - r * r
        lhs += borcherds.hurwitz_range(k)[k]
    lhs += sum(min(d, n // d) for d in range(1, n + 1) if n % d == 0)
    return lhs == 2 * sum(d for d in range(1, n + 1) if n % d == 0)


def test_hurwitz_printed_table():
    want = {0: Fraction(-1, 12), 3: Fraction(1, 3), 4: Fraction(1, 2),
            7: 1, 8: 1, 11: 1, 12: Fraction(4, 3)}
    for n, h in want.items():
        assert borcherds.hurwitz_range(n)[n] == h


def test_hurwitz_classical_values():
    # reduced-form counts small enough to enumerate by hand
    want = {15: 2, 16: Fraction(3, 2), 19: 1, 20: 2, 23: 3, 24: 2, 27: Fraction(4, 3)}
    for n, h in want.items():
        assert borcherds.hurwitz_range(n)[n] == h


def test_hurwitz_vanishes_off_discriminants():
    assert all(borcherds.hurwitz_range(n)[n] == 0 for n in range(1, 201) if n % 4 in (1, 2))


def test_hurwitz_kronecker_relation():
    assert all(class_number_relation_holds(n) for n in range(1, 61))


def test_hurwitz_rejects_negative():
    with pytest.raises(ValueError):
        borcherds.hurwitz_range(-1)


def test_hurwitz_table():
    t = borcherds.hurwitz_range(200)
    assert list(t) == list(range(201))
    assert t[0] == Fraction(-1, 12)
    assert t[12] == Fraction(4, 3)
    assert all(6 % Fraction(t[n]).denominator == 0 for n in range(1, 201))
    with pytest.raises(KeyError):
        t[201]


@pytest.mark.parametrize("n, bad", [(3, Fraction(-1, 3)), (4, Fraction(1, 7)), (5, 1),
                                    (6, Fraction(1, 2)), (200, -2)])
def test_hurwitz_range_checks_every_walked_value(monkeypatch, n, bad):
    # the walk's result for one n is corrupted on its way out of the sixths
    real, seen = borcherds._num, []

    def corrupt(x):
        seen.append(x)
        return bad if len(seen) == n else real(x)

    monkeypatch.setattr(borcherds, "_num", corrupt)
    with pytest.raises(ArithmeticError, match=rf"H\({n}\) = {bad} breaks"):
        borcherds.hurwitz_range(200)


def test_hurwitz_kronecker_relation_from_one_table():
    table = borcherds.hurwitz_range(2000)
    for n in range(1, 501):
        r_max = isqrt(4 * n)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        lhs = sum(table[4 * n - r * r] for r in range(-r_max, r_max + 1))
        assert lhs + sum(min(d, n // d) for d in divisors) == 2 * sum(divisors), n


# -- one walk over a discriminant range against the per-n oracle

def _exact(h):
    return type(h), h


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 60), st.integers(0, 3000)))
def test_hurwitz_range_matches_the_per_n_oracle(max_n):
    values = borcherds.hurwitz_range(max_n)
    assert list(values) == list(range(max_n + 1))
    for n in range(max(max_n - 60, 0), max_n + 1):  # the top 61 values, all below 61
        h = values[n]
        assert type(h) is (int if Fraction(h).denominator == 1 else Fraction), n
        assert _exact(h) == _exact(oracle.hurwitz(n)), n


# -- plus space --------------------------------------------------------------

def test_plus_space_accepts_theta_multiple():
    f = borcherds.PlusForm(12 * forms.theta_full(20))
    assert f.series.coeff(0) == 12 and f.series.coeff(4) == 24
    assert f.weight == Fraction(1, 2)


def test_plus_space_rejects_bad_support():
    s = QSeries({-3: 1, 0: 4, 2: 7}, 10)
    with pytest.raises(ValueError, match=r"\(2, 7\)"):
        borcherds.PlusForm(s)


def test_plus_space_rejects_fractions():
    with pytest.raises(ValueError, match="1/2"):
        borcherds.PlusForm(QSeries({4: Fraction(1, 2)}, 10))


def test_plus_space_rejects_half_nome_and_prefactor():
    with pytest.raises(ValueError):
        borcherds.PlusForm(forms.theta_nullwerte(3, 10))
    with pytest.raises(ValueError):
        borcherds.PlusForm(QSeries({0: 1}, 10, prefactor=Fraction(1, 4)))


# -- the worked catalog --------------------------------------------------------

def test_catalog_f_delta():
    f = borcherds.catalog("f_delta", 16)
    assert f.series.coeffs == {0: 12, 1: 24, 4: 24, 9: 24, 16: 24}
    assert f.series.trunc == 16


def test_catalog_f4_matches_print():
    rows = borcherds.printed_coefficient_report("f_4")
    assert all(ok for (_, _, _, ok) in rows)


def test_catalog_f6_single_printed_typo():
    rows = borcherds.printed_coefficient_report("f_6")
    bad = [(n, got, printed) for (n, got, printed, ok) in rows if not ok]
    assert bad == [(8, 18473000, 184373000)]


def test_catalog_f6_coefficient_8_by_hand():
    # c(8) = [q^8] j(4t)*theta - 2 [q^8] (f_j - 168 theta)/3, and theta has no q^8:
    # [q^8] j(4t)*theta = j_2 + 2 j_1 with j_1 = 196884, j_2 = 21493760.
    f4 = borcherds.catalog("f_4", 10).series
    f6 = borcherds.catalog("f_6", 10).series
    j = forms.j_invariant(3)
    assert f6.coeff(8) == j.coeff(2) + 2 * j.coeff(1) - 2 * f4.coeff(8)


def test_catalog_fj_low_terms():
    f = borcherds.catalog("f_j", 10).series
    assert f.coeff(-3) == 3 and f.coeff(0) == 0 and f.coeff(1) == -744


def test_catalog_fj_from_f4():
    fj = borcherds.catalog("f_j", 40).series
    f4 = borcherds.catalog("f_4", 40).series
    theta = forms.theta_full(40)
    assert fj == 3 * f4 - 12 * theta


def test_catalog_composites():
    f4 = borcherds.catalog("f_4", 30).series
    f6 = borcherds.catalog("f_6", 30).series
    assert borcherds.catalog("f_8", 30).series == 2 * f4
    assert borcherds.catalog("f_10", 30).series == f4 + f6
    assert borcherds.catalog("f_14", 30).series == 2 * f4 + f6


@pytest.mark.parametrize("cap", [*range(1, 41), 1608])
def test_q_series_matches_the_five_product_form(cap):
    # theta^4 and F from one sigma table against two squarings of theta and F_oddsigma
    theta, F = forms.theta_full(cap), forms.F_oddsigma(cap)
    t4 = theta * theta
    t4 = t4 * t4
    want = F * theta * (t4 - 2 * F) * (t4 - 16 * F)
    got = borcherds._q_series(cap)
    assert (got.trunc, got.prefactor, got.nome) == (want.trunc, want.prefactor, want.nome)
    assert got.coeffs == want.coeffs


def test_catalog_bad_inputs():
    with pytest.raises(ValueError, match="unknown catalog form"):
        borcherds.catalog("f_2", 10)
    with pytest.raises(ValueError):
        borcherds.catalog("f_4", 0)
    with pytest.raises(ValueError):
        borcherds.printed_coefficient_report("f_delta")


# -- the lift ------------------------------------------------------------------

def test_lift_theta_multiple_gives_discriminant():
    L = borcherds.lift(borcherds.catalog("f_delta", 2500), 50)
    target = (forms.eisenstein(4, 50) ** 3 - forms.eisenstein(6, 50) ** 2) * Fraction(1, 1728)
    assert L.h == -1
    assert L.result == target


@pytest.mark.parametrize("name,h,target", [
    ("f_4", 0, lambda n: forms.eisenstein(4, n)),
    ("f_6", 0, lambda n: forms.eisenstein(6, n)),
    ("f_8", 0, lambda n: forms.eisenstein(8, n)),
    ("f_10", 0, lambda n: forms.eisenstein(10, n)),
    ("f_14", 0, lambda n: forms.eisenstein(14, n)),
    ("f_j", 1, lambda n: forms.j_invariant(n)),
])
def test_lift_catalog_targets(name, h, target):
    order = 20
    L = borcherds.lift(borcherds.catalog(name, order * order), order)
    assert L.h == h
    assert L.result.agrees_with(target(order), order)


def test_lift_checks_depth():
    f = borcherds.catalog("f_4", 50)
    with pytest.raises(ValueError, match="order squared|only known"):
        borcherds.lift(f, 8)
    with pytest.raises(ValueError):
        borcherds.lift(f, 0)


@pytest.mark.parametrize("name", borcherds.CATALOG_NAMES)
def test_catalog_and_lift_are_honest_across_orders(name):
    # a catalog form built at order o claims q^o and a lift to order o
    # claims q^(o - h); builds at o + 5 and o + 2 agree with them there
    def fresh(order):
        return borcherds.catalog(name, order)

    for order in range(1, 10):
        shallow, deep = fresh(order).series, fresh(order + 5).series
        assert shallow.trunc == order and deep.trunc >= order
        assert shallow.first_mismatch(deep) is None
    for order in range(1, 4):
        shallow = borcherds.lift(fresh(order * order), order)
        deep = borcherds.lift(fresh((order + 2) ** 2), order + 2)
        assert shallow.result.trunc == order - shallow.h and shallow.table.order == order
        assert deep.result.trunc >= shallow.result.trunc and deep.table == shallow.table
        assert shallow.result.first_mismatch(deep.result) is None


def test_lift_result_fields():
    h, result, table = borcherds.lift(borcherds.catalog("f_delta", 25), 5)
    assert h == -1 and result.coeff(1) == 1 and table[1] == 24


def test_printed_product_exponents():
    # the published first three product exponents of each lift target
    want = {
        "f_4": (-240, 26760, -4096240),
        "f_6": (504, 143388, 51180024),
        "f_8": (-480, 53520, -8192480),
        "f_10": (264, 170148, 47083784),
        "f_14": (24, 196908, 42987544),
        "f_j": (-744, 80256, -12288744),
    }
    for name, exps in want.items():
        f = borcherds.catalog(name, 100)
        t = borcherds.lift(f, 10).table
        assert (t[1], t[2], t[3]) == exps


def test_lift_homomorphism():
    rng = random.Random(7)
    names = ("f_delta", "f_4", "f_6", "f_j")
    order = 10
    lifted = {n: borcherds.lift(borcherds.catalog(n, order * order), order) for n in names}
    for _ in range(6):
        fn, gn = rng.sample(names, 2)
        a, b = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([-3, -2, -1, 1, 2, 3])
        combo = borcherds.PlusForm(
            a * borcherds.catalog(fn, order * order).series
            + b * borcherds.catalog(gn, order * order).series)
        L = borcherds.lift(combo, order)
        ta, tb = lifted[fn].table, lifted[gn].table
        exps = {n: a * ta[n] + b * tb[n] for n in range(1, order + 1)}
        assert L.table == ExponentTable(a * ta.h + b * tb.h, exps, order)
        assert L.h == a * lifted[fn].h + b * lifted[gn].h
        assert L.result.agrees_with(lifted[fn].result ** a * lifted[gn].result ** b)


def test_weight_law():
    assert borcherds.catalog("f_delta", 4).series.coeff(0) == 12
    assert borcherds.catalog("f_4", 4).series.coeff(0) == 4
    assert borcherds.catalog("f_6", 4).series.coeff(0) == 6
    assert borcherds.catalog("f_j", 4).series.coeff(0) == 0


def test_exponent_extraction_consistency():
    L = borcherds.lift(borcherds.catalog("f_4", 150), 12)
    assert exponents_from_series(L.result, 12) == L.table


# -- zero multiplicities ---------------------------------------------------------

def test_zero_multiplicity_catalog():
    assert borcherds.zero_multiplicity(borcherds.catalog("f_j", 10), -3) == 3
    assert borcherds.zero_multiplicity(borcherds.catalog("f_delta", 10), -3) == 0
    assert borcherds.zero_multiplicity(borcherds.catalog("f_4", 10), -3) == 1
    assert borcherds.zero_multiplicity(borcherds.catalog("f_j", 10), -4) == 0


def test_zero_multiplicity_sums_over_d():
    f = borcherds.PlusForm(QSeries({-12: 5, -3: 2, 0: 1}, 4))
    assert borcherds.zero_multiplicity(f, -3) == 7  # c(-3) + c(-12)
    with pytest.raises(ValueError):
        borcherds.zero_multiplicity(f, 3)


def test_efactor_report():
    lifted = borcherds.lift(borcherds.catalog("f_j", 36), 6).result
    rep = borcherds.fj_efactor_report(lifted, 6)
    assert rep["used"] == "E6"
    assert rep["E6_lifts_to_j"] is True
    assert "E4_lifts_to_j" not in rep
    assert "E6" in rep["resolution"]


def test_efactor_report_falls_back_to_e4():
    # the lift of f_4 is E_4, not j: the report builds and lifts the E_4 numerator
    lifted = borcherds.lift(borcherds.catalog("f_4", 36), 6).result
    rep = borcherds.fj_efactor_report(lifted, 6)
    assert rep == {"formula_reads": "E6", "prose_reads": "E4", "used": None,
                   "E6_lifts_to_j": False, "E4_lifts_to_j": False,
                   "resolution": "neither Eisenstein numerator lifts to j"}
