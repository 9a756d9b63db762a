"""Class numbers, plus-space validation, and the infinite-product lift."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import kernel_oracle as oracle
from paper_refs import catalog_series, plus_space
from qmoon import borcherds, forms
from qmoon.series import ExponentTable, QSeries, exponents_from_series


def reads(f):
    """A catalog form's reads from q^-8 through its trunc, as a series."""
    return QSeries({e: f.coeff(e) for e in range(-8, f.trunc + 1)}, f.trunc)


# -- independent oracle: the Hurwitz-Kronecker class number relation
#    sum_{r^2 <= 4n} H(4n - r^2) + sum_{d|n} min(d, n/d) = 2 sigma_1(n),
#    read in the twelfths hurwitz_range gives

def class_number_relation_holds(n):
    r_max = isqrt(4 * n)
    lhs = 0
    for r in range(-r_max, r_max + 1):
        k = 4 * n - r * r
        lhs += borcherds.hurwitz_range(k)[k]
    lhs += 12 * sum(min(d, n // d) for d in range(1, n + 1) if n % d == 0)
    return lhs == 24 * sum(d for d in range(1, n + 1) if n % d == 0)


def test_hurwitz_printed_table():
    want = {0: Fraction(-1, 12), 3: Fraction(1, 3), 4: Fraction(1, 2),
            7: 1, 8: 1, 11: 1, 12: Fraction(4, 3)}
    for n, h in want.items():
        assert borcherds.hurwitz_range(n)[n] == 12 * h


def test_hurwitz_classical_values():
    # reduced-form counts small enough to enumerate by hand
    want = {15: 2, 16: Fraction(3, 2), 19: 1, 20: 2, 23: 3, 24: 2, 27: Fraction(4, 3)}
    for n, h in want.items():
        assert borcherds.hurwitz_range(n)[n] == 12 * h


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
    assert t[0] == -1  # H(0) = -1/12
    assert t[12] == 16  # H(12) = 4/3
    assert all(type(t[n]) is int for n in range(201))
    assert all(t[n] % 2 == 0 for n in range(1, 201))  # denominators divide 6
    with pytest.raises(KeyError):
        t[201]


@pytest.mark.parametrize("n, bad", [(3, Fraction(-1, 3)), (4, Fraction(1, 4)), (5, 1),
                                    (6, Fraction(1, 2)), (200, -2)])
def test_hurwitz_range_checks_every_walked_value(monkeypatch, n, bad):
    # the walk's count for one n, in twelfths, is corrupted on its way out of
    # the walk's list; 1/4 is a denominator not dividing 6, an odd count
    def corrupt(counts):
        return ((i, int(12 * bad) if i == n else c) for i, c in enumerate(counts))

    monkeypatch.setattr(borcherds, "enumerate", corrupt, raising=False)
    with pytest.raises(ArithmeticError, match=rf"H\({n}\) = {bad} breaks"):
        borcherds.hurwitz_range(200)


def test_hurwitz_kronecker_relation_from_one_table():
    table = borcherds.hurwitz_range(2000)
    for n in range(1, 501):
        r_max = isqrt(4 * n)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        lhs = sum(table[4 * n - r * r] for r in range(-r_max, r_max + 1))  # in twelfths
        assert lhs + 12 * sum(min(d, n // d) for d in divisors) == 24 * sum(divisors), n


# -- one walk over a discriminant range against the per-n oracle

@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 60), st.integers(0, 3000)))
def test_hurwitz_range_matches_the_per_n_oracle(max_n):
    values = borcherds.hurwitz_range(max_n)
    assert list(values) == list(range(max_n + 1))
    for n in range(max(max_n - 60, 0), max_n + 1):  # the top 61 values, all below 61
        assert type(values[n]) is int and values[n] == 12 * oracle.hurwitz(n), n


def test_hurwitz_range_is_twelve_times_the_oracle_through_400():
    assert borcherds.hurwitz_range(400) == {n: 12 * oracle.hurwitz(n) for n in range(401)}


# -- plus space: the series check of the oracle, and the catalog's check on Q

def test_plus_space_accepts_theta_multiple():
    f = plus_space(12 * forms.theta_full(20))
    assert f.coeff(0) == 12 and f.coeff(4) == 24


def test_plus_space_rejects_bad_support():
    s = QSeries({-3: 1, 0: 4, 2: 7}, 10)
    with pytest.raises(ValueError, match=r"\(2, 7\)"):
        plus_space(s)


def test_plus_space_rejects_fractions():
    with pytest.raises(ValueError, match="1/2"):
        plus_space(QSeries({4: Fraction(1, 2)}, 10))


def test_plus_space_rejects_half_nome_and_prefactor():
    with pytest.raises(ValueError):
        plus_space(forms.theta_nullwerte(3, 10))
    with pytest.raises(ValueError):
        plus_space(QSeries({0: 1}, 10, pre24=6))


@pytest.mark.parametrize("name", ["f_4", "f_6", "f_j"])
def test_a_q_off_the_plus_space_is_refused(monkeypatch, name):
    # one nonzero term at an exponent = 2 and one at 3 (mod 4): Q G then has
    # terms off the plus space, and the check on Q names them
    real = borcherds._q_series

    def off(cap):
        q = real(cap)
        return QSeries({**q.coeffs, 6: 5, 11: -2}, q.trunc)

    monkeypatch.setattr(borcherds, "_q_series", off)
    with pytest.raises(ValueError, match=r"^not in the plus space; offending "
                                         r"\(exponent, coefficient\): \(6, 5\), \(11, -2\)$"):
        borcherds.catalog(name, 8)


def test_a_read_past_trunc_raises():
    for name in borcherds.CATALOG_NAMES:
        f = borcherds.catalog(name, 9)
        assert f.coeff(9) == catalog_series(name, 9).coeff(9)
        with pytest.raises(ValueError, match=r"coefficient at 10 unknown \(trunc 9\)"):
            f.coeff(10)


# -- the reads against the whole series ---------------------------------------

@pytest.mark.parametrize("name", borcherds.CATALOG_NAMES)
def test_catalog_reads_match_the_whole_series(name):
    for order in range(1, 41):
        f, want = borcherds.catalog(name, order), catalog_series(name, order)
        assert f.trunc == want.trunc == order
        assert f.valuation() == want.valuation()
        assert reads(f) == want, (name, order)


@pytest.mark.parametrize("name, order", [("f_j", 2500), ("f_4", 1600)])
def test_catalog_reads_match_the_whole_series_at_workload_size(name, order):
    f, want = borcherds.catalog(name, order), catalog_series(name, order)
    assert f.valuation() == want.valuation() == -3
    assert all(f.coeff(e) == want.coeff(e) for e in range(-8, order + 1))


# -- the worked catalog --------------------------------------------------------

def test_catalog_f_delta():
    f = borcherds.catalog("f_delta", 16)
    assert reads(f).coeffs == {0: 12, 1: 24, 4: 24, 9: 24, 16: 24}
    assert f.trunc == 16


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
    f4 = borcherds.catalog("f_4", 10)
    f6 = borcherds.catalog("f_6", 10)
    j = forms.j_invariant(3)
    assert f6.coeff(8) == j.coeff(2) + 2 * j.coeff(1) - 2 * f4.coeff(8)


def test_catalog_fj_low_terms():
    f = borcherds.catalog("f_j", 10)
    assert f.coeff(-3) == 3 and f.coeff(0) == 0 and f.coeff(1) == -744


def test_catalog_fj_from_f4():
    fj = reads(borcherds.catalog("f_j", 40))
    f4 = reads(borcherds.catalog("f_4", 40))
    theta = forms.theta_full(40)
    assert fj == 3 * f4 - 12 * theta


def test_catalog_composites():
    f4 = reads(borcherds.catalog("f_4", 30))
    f6 = reads(borcherds.catalog("f_6", 30))
    assert reads(borcherds.catalog("f_8", 30)) == 2 * f4
    assert reads(borcherds.catalog("f_10", 30)) == f4 + f6
    assert reads(borcherds.catalog("f_14", 30)) == 2 * f4 + f6


@pytest.mark.parametrize("cap", [*range(1, 41), 1608])
def test_q_series_matches_the_five_product_form(cap):
    # theta^4 and F from one sigma table against two squarings of theta and F_oddsigma
    theta, F = forms.theta_full(cap), forms.F_oddsigma(cap)
    t4 = theta * theta
    t4 = t4 * t4
    want = F * theta * (t4 - 2 * F) * (t4 - 16 * F)
    got = borcherds._q_series(cap)
    assert (got.trunc, got.pre24, got.nome) == (want.trunc, want.pre24, want.nome)
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
    assert L.table.h24 == -24
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
    assert L.table.h24 == 24 * h
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
        shallow, deep = reads(fresh(order)), reads(fresh(order + 5))
        assert shallow.trunc == order and deep.trunc >= order
        assert shallow.first_mismatch(deep) is None
    for order in range(1, 4):
        shallow = borcherds.lift(fresh(order * order), order)
        deep = borcherds.lift(fresh((order + 2) ** 2), order + 2)
        assert 24 * shallow.result.trunc == 24 * order - shallow.table.h24
        assert shallow.table.order == order
        assert deep.result.trunc >= shallow.result.trunc and deep.table == shallow.table
        assert shallow.result.first_mismatch(deep.result) is None


def test_lift_result_fields():
    result, table = borcherds.lift(borcherds.catalog("f_delta", 25), 5)
    assert table.h24 == -24 and result.coeff(1) == 1 and table[1] == 24


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
        combo = plus_space(a * catalog_series(fn, order * order)
                           + b * catalog_series(gn, order * order))
        L = borcherds.lift(combo, order)
        ta, tb = lifted[fn].table, lifted[gn].table
        exps = {n: a * ta[n] + b * tb[n] for n in range(1, order + 1)}
        assert L.table == ExponentTable(a * ta.h24 + b * tb.h24, exps, order)
        # a QSeries takes only powers k >= 0; a negative one is a power of the inverse
        fa, gb = (s ** k if k > 0 else s.invert() ** -k
                  for s, k in ((lifted[fn].result, a), (lifted[gn].result, b)))
        assert L.result.agrees_with(fa * gb)


def test_weight_law():
    assert borcherds.catalog("f_delta", 4).coeff(0) == 12
    assert borcherds.catalog("f_4", 4).coeff(0) == 4
    assert borcherds.catalog("f_6", 4).coeff(0) == 6
    assert borcherds.catalog("f_j", 4).coeff(0) == 0


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
    f = plus_space(QSeries({-12: 5, -3: 2, 0: 1}, 4))
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


def test_efactor_report_on_a_lift_that_misses_j_is_a_regression(monkeypatch):
    # the lift of f_4 is E_4, not j: the report says so and builds no other numerator
    lifted = borcherds.lift(borcherds.catalog("f_4", 36), 6).result

    def no_build(top):
        raise AssertionError(f"the report built G through q^{top}")

    monkeypatch.setattr(borcherds, "_g_series", no_build)
    rep = borcherds.fj_efactor_report(lifted, 6)
    assert rep == {"formula_reads": "E6", "prose_reads": "E4", "used": None,
                   "E6_lifts_to_j": False,
                   "resolution": "the displayed E6 numerator does not lift to j: "
                                 "a regression against the record"}


def test_the_prose_e4_numerator_does_not_lift_to_j():
    # the record's evidence that weight 4 in the prose is the slip: f_j built
    # as 3 (Q E_4(4t))/Delta(4t) + 168 theta lifts to something other than j
    order = 6
    cap, m = order * order, order * order // 4 + 2
    e4t, d4t = forms.eisenstein(4, m).scale_var(4), forms.delta(m).scale_var(4)
    series = 3 * ((borcherds._q_series(cap + 4) * e4t) / d4t) + 168 * forms.theta_full(cap)
    lifted = borcherds.lift(plus_space(series.truncate(cap)), order).result
    assert not lifted.agrees_with(forms.j_invariant(order), order)
