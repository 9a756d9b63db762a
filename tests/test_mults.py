import math
from math import comb

import pytest

from qmoon import forms
from qmoon.mults import MultReport, frenkel_compare, p24_rademacher


def brute_partitions(n):
    # partitions into parts <= cap, counted outright
    def count(n, cap):
        if n == 0:
            return 1
        return sum(count(n - part, part) for part in range(min(n, cap), 0, -1))
    return count(n, n) if n else 1


def brute_colored(n, colors):
    # each part carries one of `colors` colors; color multisets per part size
    total = 0
    for parts in partitions_list(n):
        ways = 1
        for size in set(parts):
            mult = parts.count(size)
            ways *= comb(colors + mult - 1, mult)
        total += ways
    return total


def partitions_list(n, cap=None):
    if n == 0:
        return [[]]
    cap = cap or n
    out = []
    for part in range(min(n, cap), 0, -1):
        for rest in partitions_list(n - part, part):
            out.append([part] + rest)
    return out


def test_ha1_values():
    # p(1 - norm/2) at norms 2, 0 and -4
    p = forms.partition_series(3)
    assert p.coeff(0) == 1
    assert p.coeff(1) == 1
    assert p.coeff(3) == 3 == brute_partitions(3)


def _exact_column(algebra, norms):
    return {norm: exact for norm, exact, _, _ in frenkel_compare(algebra, norms).rows}


def test_e10_level2_values():
    # xi(3 - norm/2): norms 6 and 4 sit above the table's norm <= 2
    xi = forms.xi_series(6)
    assert [xi.coeff(n) for n in (0, 1, 2, 6)] == [0, 0, 1, 727]
    assert _exact_column("E10_level2", [2, -6]) == {2: 1, -6: 727}


def test_fake_monster_values():
    p24 = forms.colored_partition_series(24, 2)
    assert [p24.coeff(n) for n in (0, 1, 2)] == [1, 24, 324] and brute_colored(2, 24) == 324
    assert _exact_column("fake_monster", [2, 0, -2]) == {2: 1, 0: 24, -2: 324}


def test_domain_errors():
    with pytest.raises(ValueError, match="even norms"):
        frenkel_compare("fake_monster", [1])
    with pytest.raises(ValueError, match="even norms"):
        frenkel_compare("E10_level2", [-3])
    with pytest.raises(ValueError, match="norms <= 2"):
        frenkel_compare("E10_level2", [8])
    with pytest.raises(ValueError, match="norms <= 2"):
        frenkel_compare("fake_monster", [4])
    with pytest.raises(ValueError, match="unknown"):
        forms.xi_series(3).coeff(4)
    with pytest.raises(ValueError, match="colors"):
        forms.colored_partition_series(0, 2)


def test_series_match_exhaustive_counts():
    p = forms.partition_series(6)
    for n in range(7):
        assert p.coeff(n) == brute_partitions(n)
    for colors in (8, 24):
        series = forms.colored_partition_series(colors, 6)
        for n in range(7):
            assert series.coeff(n) == brute_colored(n, colors)


def test_colored_partition_monotone_in_colors():
    order = 12
    prev = forms.partition_series(order)
    assert [prev.coeff(n) for n in range(order + 1)] == \
        [forms.colored_partition_series(1, order).coeff(n) for n in range(order + 1)]
    for k in range(2, 10):
        cur = forms.colored_partition_series(k, order)
        assert all(cur.coeff(n) >= prev.coeff(n) for n in range(order + 1))
        prev = cur


def test_frenkel_fake_monster_rows_are_equalities():
    report = frenkel_compare("fake_monster", range(2, -21, -2))
    assert report.algebra == "fake_monster"
    assert len(report.rows) == 12
    assert all(exact == bound and not flag for _, exact, bound, flag in report.rows)
    assert report.violations() == []


def test_frenkel_e10_first_violation_and_tail():
    report = frenkel_compare("E10_level2", range(2, -41, -2))
    rows = {norm: (exact, bound, flag) for norm, exact, bound, flag in report.rows}
    assert len(report.rows) == 22
    for norm, value in [(2, 1), (0, 8), (-2, 44), (-4, 192)]:
        assert rows[norm] == (value, value, False)
    assert rows[-6] == (727, 726, True)
    assert rows[-40] == (2181190680, 2079491744, True)
    assert all(rows[norm][2] for norm in range(-6, -41, -2))
    assert report.violations()[0] == (-6, 727, 726, True)
    assert len(report.violations()) == 18


def test_frenkel_empty_and_errors():
    assert frenkel_compare("E10_level2", []).rows == []
    with pytest.raises(ValueError, match="algebra"):
        frenkel_compare("e8", [0])
    with pytest.raises(ValueError, match="even norms"):
        frenkel_compare("E10_level2", [1])
    with pytest.raises(ValueError, match="norms <= 2"):
        frenkel_compare("E10_level2", [4])


def test_mult_report_validation_and_json():
    with pytest.raises(ValueError, match="even"):
        MultReport("fake_monster", [(1, 1, 1, False)])
    with pytest.raises(ValueError, match=">= 0"):
        MultReport("fake_monster", [(0, -1, 1, False)])
    report = MultReport("fake_monster", [(0, 24, 24, 0), (-2, 9, 8, 1)])
    assert report.rows[0][3] is False and report.rows[1][3] is True
    data = report.to_json()
    assert data["rows"][1] == {"norm": -2, "exact": 9, "bound": 8, "violated": True}


def test_rademacher_single_term():
    approx = p24_rademacher(1, 1)
    assert abs(approx - 324) / 324 < 0.01


def test_rademacher_deep_sum_accuracy():
    exact = forms.colored_partition_series(24, 13)
    for n in range(1, 13):
        approx = p24_rademacher(n, 10)
        assert abs(approx - exact.coeff(n + 1)) / exact.coeff(n + 1) < 1e-9


def test_rademacher_error_monotone_to_float_floor():
    # error shrinks with K until it reaches double-precision noise (~1e-15)
    exact = forms.colored_partition_series(24, 13)
    for n in range(1, 13):
        true = exact.coeff(n + 1)
        errs = [abs(p24_rademacher(n, K) - true) / true for K in range(1, 11)]
        for a, b in zip(errs, errs[1:]):
            assert b <= a or a < 1e-12
        assert errs[-1] < 1e-12


def test_rademacher_domain():
    with pytest.raises(ValueError, match="n must be"):
        p24_rademacher(0, 3)
    with pytest.raises(ValueError, match="terms"):
        p24_rademacher(3, 0)


def test_rademacher_stops_at_double_precision():
    # the k = 1 term overflows a double just past n = 3229, whatever the depth
    assert math.isfinite(p24_rademacher(3229, 2))
    for n in (3230, 3400, 4000):
        with pytest.raises(ValueError, match="overflows double precision"):
            p24_rademacher(n, 2)


def test_asymptotic_ratio_climbs_from_below():
    # p24(1+n) * 2^(1/2) n^(27/4) e^(-4 pi sqrt(n)) approaches 1 slowly: the
    # first Bessel correction 675/(32 pi sqrt(n)) is ~1.5 at n = 20, so the
    # ratio is still far under 1 at these depths
    p24 = forms.colored_partition_series(24, 101)
    ratios = []
    for n in (20, 40, 100):
        ratio = (p24.coeff(n + 1) * math.sqrt(2) * n ** 6.75
                 * math.exp(-4 * math.pi * math.sqrt(n)))
        ratios.append(ratio)
    assert ratios == sorted(ratios)
    assert all(r < 1 for r in ratios)
    assert ratios[0] == pytest.approx(0.221345, rel=1e-4)
    assert ratios[1] == pytest.approx(0.344397, rel=1e-4)
    assert ratios[2] == pytest.approx(0.509912, rel=1e-4)
