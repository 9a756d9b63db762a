"""Monster denominator / replication identities and Moebius multiplicities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import kernel_oracle as oracle
from paper_refs import CharTable, mult_g
from qmoon import moonshine
from qmoon.series import BiSeries, QSeries


def test_moonshine_coefficients():
    c = moonshine.moonshine_c(3)
    assert (c[-1], c[0], c[1], c[2], c[3]) == (1, 0, 196884, 21493760, 864299970)
    assert c[-2] == 0  # j has a simple pole, so this is exact
    with pytest.raises(ValueError):
        c[4]


def test_moonshine_coefficients_validated(monkeypatch):
    for coeffs in (
        {0: 1, 1: 5},              # c(-1) missing
        {-1: 2, 1: 5},             # c(-1) not 1
        {-2: 1, -1: 1, 1: 5},      # a pole below q^-1
        {-1: 1, 0: 7},             # constant term present
        {-1: 1, 1: 5, 2: -3},      # negative dimension
        {-1: 1, 1: Fraction(-1, 2)},  # a negative fraction
    ):
        monkeypatch.setattr(moonshine.forms, "jstar",
                            lambda max_n, coeffs=coeffs: QSeries(coeffs, max_n))
        with pytest.raises(ValueError):
            moonshine.moonshine_c(4)
    monkeypatch.setattr(moonshine.forms, "jstar", lambda max_n: QSeries({-1: 1, 1: 5}, max_n))
    assert moonshine.moonshine_c(4).coeffs == {-1: 1, 1: 5}


def test_denominator_identity_passes():
    for caps in ((4, 4), (6, 6), (3, 5)):
        report = moonshine.denominator_check(*caps)
        assert report.passed and report.order == caps
    with pytest.raises(ValueError):
        moonshine.denominator_check(0, 4)


def test_denominator_edge_coefficients():
    d = moonshine.denominator_product(4, 4)
    c = moonshine.moonshine_c(4)
    assert d.cap == 4 and d.ytop == 4
    assert d.coeffs[(-1, 0)] == 1
    assert d.coeffs[(0, -1)] == -1
    for m in range(1, 5):
        assert d.coeffs[(m, 0)] == c[m]
        assert d.coeffs[(0, m)] == -c[m]
    assert (0, 0) not in d.coeffs


@pytest.mark.parametrize("caps", [(cap, cap) for cap in range(1, 7)] + [(2, 9), (9, 2)])
def test_denominator_product_claims_only_what_it_knows(caps):
    # every coefficient within the claimed cap and q-top must survive a deeper build
    cap_m, cap_n = caps
    d = moonshine.denominator_product(cap_m, cap_n)
    deeper = moonshine.denominator_product(cap_m, cap_n + cap_m + 2)
    assert deeper.cap == d.cap and deeper.ytop > d.ytop

    def claimed(s):
        return {k: c for k, c in s.coeffs.items() if k[0] <= d.cap and k[1] <= d.ytop}

    assert claimed(d) == claimed(deeper)
    assert (d.cap, d.ytop) == (cap_m, cap_n)


@pytest.mark.parametrize("cap", range(1, 10))
def test_denominator_product_is_honest_across_caps(cap):
    # a build at caps (c, c) agrees with builds at c + 1 .. c + 3 within its
    # own cap and y-top
    d = moonshine.denominator_product(cap, cap)
    assert (d.cap, d.ytop) == (cap, cap)
    for k in range(1, 4):
        deeper = moonshine.denominator_product(cap + k, cap + k)
        assert (deeper.cap, deeper.ytop) == (cap + k, cap + k)
        assert d.first_mismatch(deeper) is None


@pytest.mark.parametrize("cap", range(1, 7))
def test_denominator_factor_order_does_not_change_the_product(cap):
    # the factors go in descending n, then ascending m; m outer gives the same product
    big_m, hi = moonshine._grid(cap, cap)
    c = moonshine.moonshine_c(big_m * hi)
    m_outer = [(m, n, c[m * n], -1) for m in range(1, big_m + 1) for n in range(-1, hi + 1)
               if m * n <= c.trunc and c[m * n]]
    want = BiSeries.one(big_m, ytop=hi).mul_binomials(m_outer).shift_x(-1)
    got = moonshine.denominator_product(cap, cap)
    assert (got.cap, got.ytop) == (want.cap, want.ytop)
    assert got.coeffs == want.coeffs


def test_no_mixed_monomials():
    d = moonshine.denominator_product(5, 5)
    assert d.cap == 5
    assert not [k for k in d.coeffs if 1 <= k[0] <= 5 and 1 <= k[1] <= 5]


def test_replication_identity_passes():
    for cap in (4, 9, 16):
        report = moonshine.replication_check(cap)
        assert report.passed and report.order == (cap, cap)
    r = moonshine.replication_product(4, 4)
    assert r.cap == 4 and (0, 0) not in r.coeffs
    with pytest.raises(ValueError):
        moonshine.replication_check(0)


@pytest.mark.parametrize("build, check", [
    ("denominator_product", lambda: moonshine.denominator_check(4, 4)),
    ("replication_product", lambda: moonshine.replication_check(4)),
])
def test_monster_checks_compare_below_q_inverse(monkeypatch, build, check):
    # j*(p) - j*(q) has no q-power below -1, and the checks compare that band too
    original = getattr(moonshine, build)

    def with_stray_term(cap_m, cap_n):
        s = original(cap_m, cap_n)
        coeffs = {**s.coeffs, (1, -2): s.coeffs.get((1, -2), 0) + 1}
        return BiSeries(coeffs, s.cap, ytop=s.ytop)

    assert check().passed
    monkeypatch.setattr(moonshine, build, with_stray_term)
    assert check().first_mismatch == ((1, -2), 1, 0)


def rectangle(coeffs, cap_m, cap_n):
    """The coefficients on p-degree <= cap_m and q-exponents -1..cap_n."""
    return {k: c for k, c in coeffs.items() if k[0] <= cap_m and -1 <= k[1] <= cap_n}


def test_product_and_exp_forms_agree():
    for cap_m, cap_n in [(cap, cap) for cap in range(1, 7)] + [(2, 9), (9, 2), (1, 12)]:
        r = moonshine.replication_product(cap_m, cap_n)
        d = moonshine.denominator_product(cap_m, cap_n)
        # the exp form knows one q-row more: its constant 1 is exact
        assert r.cap == d.cap == cap_m and r.ytop - 1 == d.ytop == cap_n
        assert rectangle(r.coeffs, cap_m, cap_n) == rectangle(d.coeffs, cap_m, cap_n)


def test_log_of_product_is_exp_argument():
    # expanding log(1 - p^m q^n) termwise over the factor grid reproduces the
    # exp argument exactly, fraction for fraction
    cap_m = cap_n = 4
    big_m, hi = moonshine._grid(cap_m, cap_n)
    c = moonshine.moonshine_c(big_m * hi)
    coeffs = {}
    for m in range(1, big_m + 1):
        for n in range(-1, hi + 1):
            v = c[m * n] if m * n <= c.trunc else 0
            if not v:
                continue
            k = 1
            while m * k <= big_m:
                if n * k <= hi:
                    key = (m * k, n * k)
                    coeffs[key] = coeffs.get(key, 0) - Fraction(v, k)
                k += 1
    exponent = moonshine.replication_exponent(cap_m, cap_n)
    assert (exponent.cap, exponent.ytop) == (big_m, hi)
    assert exponent.coeffs == {k: c for k, c in coeffs.items() if c}


def test_antisymmetry():
    a, b = 3, 5
    s = moonshine._sum_side(a, b)
    swapped = {(y, x): c for (x, y), c in moonshine._sum_side(b, a).coeffs.items()}
    assert swapped == {k: -c for k, c in s.coeffs.items()}

    d1 = moonshine.denominator_product(a, b)
    d2 = moonshine.denominator_product(b, a)
    flipped = {(y, x): c for (x, y), c in d2.coeffs.items()}
    assert rectangle(flipped, a, b) == rectangle({k: -c for k, c in d1.coeffs.items()}, a, b)


def test_bi_exp():
    t = BiSeries({(1, 0): 1}, 4)
    e = moonshine.bi_exp(t)
    assert e.coeffs == {(0, 0): 1, (1, 0): 1, (2, 0): Fraction(1, 2),
                        (3, 0): Fraction(1, 6), (4, 0): Fraction(1, 24)}
    assert (e.cap, e.ytop) == (4, None)
    # a q-top of 0 is a top like any other, not a missing one
    e = moonshine.bi_exp(BiSeries({(1, 0): 1, (1, 1): 1}, 2, ytop=0))
    assert (e.coeffs, e.ytop) == ({(0, 0): 1, (1, 0): 1, (2, 0): Fraction(1, 2)}, 0)
    with pytest.raises(ValueError):
        moonshine.bi_exp(BiSeries({(0, 1): 1}, 4))


coefficients = st.one_of(st.integers(-9, 9), st.fractions(min_value=-4, max_value=4,
                                                            max_denominator=6))


@st.composite
def exp_arguments(draw, tops=st.integers(0, 12), topped=st.booleans()):
    """Terms p^a q^b with 1 <= a <= cap, some rows empty, b of either sign.

    A q-top, when drawn, may cut terms.
    """
    cap = draw(st.integers(0, 8))
    keys = st.tuples(st.integers(1, max(cap, 1)), st.integers(-3, 4))
    coeffs = draw(st.dictionaries(keys, coefficients, max_size=7)) if cap else {}
    return BiSeries(coeffs, cap, ytop=draw(tops) if draw(topped) else None)


def claimed(got, want):
    """Coefficients of got and want, with their types, on every monomial got claims."""
    def known(x, y):
        return x <= got.cap and (got.ytop is None or y <= got.ytop)

    keys = [k for k in set(got.coeffs) | set(want.coeffs) if known(*k)]

    def typed(s):
        return {k: (type(s.coeffs.get(k, 0)), s.coeffs.get(k, 0)) for k in keys}

    return typed(got), typed(want)


@settings(max_examples=300, deadline=None)
@given(exp_arguments())
def test_bi_exp_matches_power_sum(t):
    got, want = moonshine.bi_exp(t), oracle.bi_exp(t)
    assert got.cap == want.cap == t.cap
    if t.ytop is None:
        assert got.ytop is None
    else:
        assert got.ytop <= t.ytop
    have, expect = claimed(got, want)
    assert have == expect


@settings(max_examples=300, deadline=None)
@given(exp_arguments(tops=st.integers(-4, 3), topped=st.just(True)))
def test_windowed_bi_exp_matches_windowless(t):
    # a q-top of 0 or below leaves even the constant 1 unknown or alone;
    # whatever the topped exp still claims must agree with the exp of the
    # same terms without a top
    got = moonshine.bi_exp(t)
    want = moonshine.bi_exp(BiSeries(t.coeffs, t.cap))
    assert got.ytop is not None and got.ytop <= t.ytop
    have, expect = claimed(got, want)
    assert have == expect


def test_bi_exp_with_window_top_below_zero():
    t = BiSeries({(1, -1): 1, (1, -2): 1}, 3, ytop=-1)
    got = moonshine.bi_exp(t)
    assert got.cap == 3 and got.ytop <= -1
    have, expect = claimed(got, oracle.bi_exp(BiSeries(t.coeffs, 3)))
    assert have == expect


def test_bi_exp_below_zero_keeps_the_exact_constant():
    # exp(p (q^-1 + q^-2)) without a top has p^m rows (q^-1 + q^-2)^m / m!;
    # terms of the argument above q^-1 are unknown and reach p^m q^(2 - 2m)
    # at the lowest, so row m is known through q^(1 - 2m) and the rows
    # m >= 1 together through q^-5, where only p^3 (3 q^-5 + q^-6) / 6 lies
    got = moonshine.bi_exp(BiSeries({(1, -1): 1, (1, -2): 1}, 3, ytop=-1))
    assert (got.coeffs, got.cap, got.ytop) == \
        ({(3, -5): Fraction(1, 2), (3, -6): Fraction(1, 6)}, 3, -5)
    # a row-free argument leaves the constant alone, known under its top
    got = moonshine.bi_exp(BiSeries({}, 0, ytop=2))
    assert (got.coeffs, got.ytop) == ({(0, 0): 1}, 2)


@pytest.mark.parametrize("caps", [(1, 1), (3, 3), (2, 5), (5, 2)])
def test_bi_exp_claims_the_compared_rectangle(caps):
    cap_m, cap_n = caps
    t = moonshine.replication_exponent(cap_m, cap_n)
    got = moonshine.bi_exp(t)
    assert (got.cap, got.ytop) == (cap_m + 1, cap_n + 1)
    have, expect = claimed(got, oracle.bi_exp(t))
    assert have == expect


def test_mult_g_trivial_element():
    table = CharTable.trivial(9)
    c = moonshine.moonshine_c(9)
    assert mult_g(2, 3, table) == c[6]
    assert mult_g(1, -1, table) == 1
    assert mult_g(3, 3, table) == c[9]
    with pytest.raises(ValueError):
        mult_g(0, 3, table)
    with pytest.raises(ValueError):
        mult_g(2, 6, table)  # c(12) not tabulated


def test_mult_g_synthetic_order_two():
    c = moonshine.moonshine_c(4)
    table = CharTable(2, {(1, 4): c[4], (2, 4): c[4]})
    assert mult_g(2, 2, table) == c[4]
    skew = CharTable(2, {(1, 4): c[4] + 1, (2, 4): c[4]})
    with pytest.raises(ArithmeticError, match="not an integer"):
        mult_g(2, 2, skew)


@pytest.mark.parametrize("cap", range(1, 5))
def test_denominator_exponents_are_the_root_multiplicities(cap):
    # at g = 1 the Moebius sum gives mult(m, n) = c(mn): the product built
    # from the reference's exponents is the denominator product
    big_m, hi = moonshine._grid(cap, cap)
    table = CharTable.trivial(big_m * hi)
    factors = [(m, n, mult_g(m, n, table), -1) for m in range(1, big_m + 1)
               for n in range(-1, hi + 1) if m * n >= -1]
    want = BiSeries.one(big_m, ytop=hi).mul_binomials(f for f in factors if f[2]).shift_x(-1)
    got = moonshine.denominator_product(cap, cap)
    assert (got.coeffs, got.cap, got.ytop) == (want.coeffs, want.cap, want.ytop)


def test_chartable_identity_column_checked():
    with pytest.raises(ValueError, match="must equal"):
        CharTable(1, {(1, 1): 5})
    with pytest.raises(ValueError):
        CharTable(0, {})
    table = CharTable.trivial(4)
    assert table.trace(1, -1) == 1 and table.trace(1, 2) == 21493760


def test_report_serialization():
    data = moonshine.denominator_check(2, 2).to_json()
    assert data["passed"] is True and data["first_mismatch"] is None
    assert tuple(data["order"]) == (2, 2)
