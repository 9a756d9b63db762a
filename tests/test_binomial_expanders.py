"""Differential tests of the one binomial-product expander.

``BiSeries.mul_binomials`` multiplies a series by a whole list of factors
(1 + sign x^a y^b)^e at once.  The oracle here multiplies one factor at a
time, each factor expanded with binomial coefficients from a running
product (no ``gbinom``), with the schoolbook ``kernel_oracle.bi_mul``, which
shares no code with ``BiSeries``.  Cap and y-top must match as well as the
coefficients and their types.  The x-shift of ``BiSeries`` is checked
against the same reference.

``BiSeries.mul_binomials`` takes only the factors its callers build: every
stored x and every a >= 0, e an int >= -1, and a factor constant in x a
polynomial (e >= 0) with no y-top.  The drawn series and factor lists stay
in that domain, every caller's factor lists are checked to lie in it, and
each shape outside it must raise.

``BiSeries.mul_binomials`` holds its product as rows and applies each
factor in place: a unit divisor (e = -1) by the partition recurrence, every
other factor by its binomial terms, so the drawn factor lists mix both.  A
guard keeps the identity and vector-system products on unit factors, each
multiply the two-term case, and the monster denominator, whose big
exponents expand to many terms, is checked against the same oracle.
"""

import random
import tracemalloc
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from kernel_oracle import bi, bi_mul, bi_shift_x
from paper_refs import SAMPLE_NAMES, sample_system
from qmoon import identities, moonshine, series as series_module, vsys
from qmoon.series import BiSeries, QSeries


def binomial(e, k):
    c = Fraction(1)
    for i in range(k):
        c = c * (Fraction(e) - i) / (i + 1)
    return c


def bi_factor(series, a, b, e, sign):
    """(1 + sign x^a y^b)^e through every term that can reach series' cap.

    The y-top is applied by the product, not here.
    """
    cap = series.cap
    kmax = max(cap, 0) // a if a > 0 else e
    if e >= 0:
        kmax = min(kmax, e)
    coeffs = {}
    for k in range(kmax + 1):
        key = (a * k, b * k)
        coeffs[key] = coeffs.get(key, 0) + sign ** k * binomial(e, k)
    return bi(coeffs, cap, None)


def lowered_ytop(series, factors):
    """The y-top an unknown term above it cannot reach: each factor with
    b < 0 (which has a > 0 under a y-top) steps it down by at most |b| / a
    per unit of x, over at most max(cap, 0) units."""
    if series.ytop is None:
        return None
    slope = max((Fraction(-b, a) for a, b, _, _ in factors if b < 0), default=0)
    return series.ytop - ceil(max(series.cap, 0) * slope)


def bi_oracle(series, factors):
    top = lowered_ytop(series, factors)
    for a, b, e, sign in factors:
        series = bi_mul(series, bi_factor(series, a, b, e, sign))
    return bi(series.coeffs, series.cap, top)


huge = st.integers(10 ** 20, 10 ** 20 + 5)
# the product's exponents: a divisor (drawn as often as the rest, so that
# most lists divide), a polynomial, or one running to dozens of digits like
# the monster denominator's, whose terms under a y-top stop at the top
bi_exponents = st.one_of(st.just(-1), st.integers(-1, 6), huge)
# sizes at and just past 2^62, where the two-variable product's first 64-bit
# slots end, so that its rows start wide or repack partway through a factor
SLOT_EDGE = tuple(s * m for m in (2 ** 62 - 1, 2 ** 62, 2 ** 63) for s in (1, -1))
coefficients = st.one_of(st.integers(-9, 9), st.fractions(min_value=-4, max_value=4,
                                                            max_denominator=5),
                         # thirds, whose sums and differences often cancel to integers
                         st.sampled_from((Fraction(1, 3), Fraction(2, 3), Fraction(-1, 3),
                                          Fraction(-4, 3))),
                         st.sampled_from(SLOT_EDGE + tuple(Fraction(m, 3) for m in SLOT_EDGE)))
signs = st.sampled_from((1, -1))


def dense(draw, keys):
    """Every key gets a seeded coefficient, rational when the draw says so, and
    of one size at the slot edge, either sign, when it says so."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    den = draw(st.sampled_from((1, 1, 3)))
    edge = draw(st.sampled_from((0, 0, 0) + SLOT_EDGE[::2]))
    return {key: Fraction(rng.choice((edge, -edge)) if edge else rng.randint(-9, 9), den)
            for key in keys}


@st.composite
def biseries(draw):
    cap = draw(st.integers(-1, 7))
    # a y-top may lie below y = 0 or above every stored y
    ytop = draw(st.one_of(st.none(), st.integers(-3, 6)))
    xs = st.integers(0, max(cap, 0))
    ys = st.integers(-6, 5)
    if draw(st.booleans()):  # sparse; below cap 0 nothing is known, so nothing stored
        coeffs = draw(st.dictionaries(st.tuples(xs, ys), coefficients,
                                      max_size=6 if cap >= 0 else 0))
    else:  # dense: every monomial of a small box, its y-range shifted
        lo, y0 = draw(st.integers(0, 1)), draw(st.integers(-4, 2))
        coeffs = dense(draw, [(x, y) for x in range(lo, cap + 1) for y in range(y0, y0 + 5)])
    return BiSeries(coeffs, cap, ytop=ytop)


def bi_factors(ytop):
    """Factor lists the product accepts under this y-top, unit and expanded
    factors mixed.  With no y-top, a factor constant in x may come too: a
    small polynomial with b != 0 (so no factor is the zero (1 - 1)^e)."""
    kinds = [st.tuples(st.integers(1, 3), st.integers(-3, 3), bi_exponents, signs)]
    if ytop is None:
        kinds.append(st.tuples(st.just(0), st.sampled_from((-3, -2, -1, 1, 2, 3)),
                               st.integers(0, 4), signs))
    return st.lists(st.one_of(kinds), max_size=8)


def same_bi(x, y):
    """Equal cap, y-top and coefficients, an int never matching a Fraction."""
    def typed(s):
        return {k: (type(c), c) for k, c in s.coeffs.items()}
    return (typed(x), x.cap, x.ytop) == (typed(y), y.cap, y.ytop)


@settings(max_examples=300, deadline=None)
@given(biseries(), st.data())
def test_biseries_expander_matches_factor_by_factor(series, data):
    factors = data.draw(bi_factors(series.ytop))
    assert same_bi(series.mul_binomials(factors), bi_oracle(series, factors))


@settings(max_examples=200, deadline=None)
@given(biseries().filter(lambda s: s.ytop is not None), st.data())
def test_biseries_ytop_is_honest(series, data):
    # every factor under a y-top moves x, so the product of the stored terms
    # alone is finite without one
    factors = data.draw(bi_factors(series.ytop))
    # whatever the product claims under its y-top must agree with the
    # product of the same stored terms with no y-top at all
    got = series.mul_binomials(factors)
    whole = bi_oracle(BiSeries(series.coeffs, series.cap), factors)
    assert got.cap == whole.cap and got.ytop <= series.ytop
    claimed = {k for k in got.coeffs.keys() | whole.coeffs.keys() if k[1] <= got.ytop}
    assert {k: got.coeffs.get(k, 0) for k in claimed} == \
        {k: whole.coeffs.get(k, 0) for k in claimed}


@settings(max_examples=300, deadline=None)
@given(biseries(), st.data(), st.integers(0, 2))
def test_rows_split_into_runs_match_factor_by_factor(series, data, gap):
    # with _GAP at 0..2 the drawn rows split into many runs, so the steps
    # merge, cut and drop runs the way the far-apart terms of a sparse row do
    factors = data.draw(bi_factors(series.ytop))
    saved = series_module._GAP
    series_module._GAP = gap
    try:
        got = series.mul_binomials(factors)
    finally:
        series_module._GAP = saved
    assert same_bi(got, bi_oracle(series, factors))


def test_far_apart_terms_stay_apart():
    # terms 10^9 apart in y: one packed integer per row would span about
    # 10^10 slots, while the rows' runs hold only the few dozen terms; the
    # factor constant in x comes only with no y-top
    g = 10 ** 9
    steps = [(1, g, -1, -1), (2, 1 - g, 3, 1), (1, 0, 5, -1)]
    for ytop, factors in ((4 * g, steps), (None, steps + [(0, g, 2, -1)])):
        start = BiSeries({(0, 0): 1, (0, g): -2, (1, -g): Fraction(3, 2)}, 6, ytop=ytop)
        tracemalloc.start()
        try:
            got = start.mul_binomials(factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_bi(got, bi_oracle(start, factors))
        assert peak < 2 ** 20


def test_rows_repack_inside_a_division_run(monkeypatch):
    # the start fits the first 64-bit slots, and the unit divisions grow its
    # bound past 2^62 at x = 36 of one ascending run, with three steps left:
    # every row is repacked wider there, rows 1..36 already divided and the
    # source read after its own update
    widths = []
    fill = series_module._fill

    def spy(*args):
        widths.append(fill(*args))
        return widths[-1]

    monkeypatch.setattr(series_module, "_fill", spy)
    start = BiSeries({(0, 0): 2 ** 30 - 1, (0, -2): 5, (2, 1): -7}, 40)
    factors = [(1, 1, -1, -1), (1, -1, -1, 1)] * 6
    assert same_bi(start.mul_binomials(factors), bi_oracle(start, factors))
    assert widths[0] == 8 and widths[-1] > 8


def test_ytop_drops_past_what_b_below_zero_factors_carry_down():
    # (1 - xy)(1 - x/y) has +1 at x^2 y^0, reached from x y above the top
    got = BiSeries.one(4, ytop=0).mul_binomials([(1, 1, 1, -1), (1, -1, 1, -1)])
    assert (got.coeffs, got.cap, got.ytop) == ({}, 4, -4)
    # the slope is |b| / a, rounded up over the cap's x-steps
    got = BiSeries.one(5, ytop=9).mul_binomials([(2, -1, -1, -1), (3, -2, 2, 1)])
    assert got.ytop == 9 - 4
    # a polynomial constant in x may not step down under a y-top
    with pytest.raises(ValueError):
        BiSeries.one(5, ytop=9).mul_binomials([(0, -2, 3, 1)])
    # factors stepping up, or no y-top, leave it alone
    assert BiSeries.one(5, ytop=9).mul_binomials([(1, 2, -1, -1)]).ytop == 9
    assert BiSeries.one(5).mul_binomials([(1, -1, -1, -1)]).ytop is None


def test_a_copy_landing_on_the_ytop_is_kept():
    # (1 + x y^2)^2 (1 + 3 x y) under y-top 4, with no factor stepping the
    # top down: the k = 2 copy of row 0 lands on y = 4 exactly, while that
    # copy of row 1 lies above it and is skipped
    start = BiSeries({(0, 0): 1, (1, 1): 3}, 4, ytop=4)
    got = start.mul_binomials([(1, 2, 2, 1)])
    assert same_bi(got, bi_oracle(start, [(1, 2, 2, 1)]))
    assert (got.coeffs[2, 4], got.coeffs[2, 3], got.ytop) == (1, 6, 4)


def _product_factors(factors, order):
    return [f for n in range(1, order + 2) for f in factors(n) if f[0] <= order]


# the rows of each two-variable identity in the one identity table; the
# one-variable labels map to their builders instead
TWO_VARIABLE = {name: rows for name, rows in identities._IDENTITIES.items()
                if not callable(rows)}


def test_two_variable_labels():
    assert sorted(TWO_VARIABLE) == ["euler1", "euler2", "quintuple_w1", "quintuple_w2",
                                    "theta_products", "triple"]


@pytest.mark.parametrize("name", sorted(TWO_VARIABLE))
def test_identity_product_sides_match_factor_by_factor(name):
    entries = TWO_VARIABLE[name]
    for order in range(1, 26):
        sides = identities.identity_sides(name, order)
        for (_, front, factors), (_, got) in zip(entries, sides):
            start = BiSeries(front, order)
            assert same_bi(got, bi_oracle(start, _product_factors(factors, order)))


@settings(max_examples=300, deadline=None)
@given(biseries(), st.data())
def test_factor_order_does_not_change_the_product(series, data):
    # the callers choose their order for speed alone: any order of a factor
    # list, divisions and big exponents included, gives the same terms, cap
    # and y-top
    factors = data.draw(bi_factors(series.ytop))
    shuffled = data.draw(st.permutations(factors))
    assert same_bi(series.mul_binomials(factors), series.mul_binomials(shuffled))


def _shipped_products(monkeypatch, build):
    """(start, factor list) of every product that build() asks for."""
    seen = []
    real = BiSeries.mul_binomials

    def spy(self, factors):
        factors = list(factors)
        seen.append((self, factors))
        return real(self, factors)

    monkeypatch.setattr(BiSeries, "mul_binomials", spy)
    build()
    monkeypatch.undo()
    return seen


def test_shipped_factor_orders_match_their_reverse(monkeypatch):
    # every two-variable identity at orders 1-25, the monster denominator at
    # caps 1-6 and psi on each sample system, in the shipped order and reversed
    def build():
        for name in TWO_VARIABLE:
            for order in range(1, 26):
                identities.identity_sides(name, order)
        for cap in range(1, 7):
            moonshine.denominator_product(cap, cap)
        for name in SAMPLE_NAMES:
            V = sample_system(name)
            for order in range(9):
                vsys.psi(V, (1, 2)[:V.dim], order)

    seen = _shipped_products(monkeypatch, build)
    rows = sum(len(entries) for entries in TWO_VARIABLE.values())
    assert len(seen) == 25 * rows + 6 + 9 * len(SAMPLE_NAMES)
    for start, factors in seen:
        assert same_bi(start.mul_binomials(factors), start.mul_binomials(factors[::-1]))


def test_unit_factors_never_expand(monkeypatch):
    # the two-variable identity products and psi of a system with unit
    # multiplicities divide without binomial terms and multiply by the
    # two-term case (1 + sign x^a y^b)^1 alone, so a refactor that sends
    # their e = -1 factors through the term multiply fails here; the
    # monster denominator's big exponents still expand
    calls = []
    expand = series_module._binomial_terms

    def counted(e, sign, kmax):
        terms = list(expand(e, sign, kmax))
        calls.append((e, len(terms)))
        return iter(terms)

    monkeypatch.setattr(series_module, "_binomial_terms", counted)
    for entries in TWO_VARIABLE.values():
        for _, front, factors in entries:
            identities._lattice_product(40, front, factors)
    vsys.psi(sample_system("pair"), (1,), 12)
    assert calls and all(e == 1 and n <= 2 for e, n in calls)
    calls.clear()
    moonshine.denominator_product(3, 3)
    assert any(e != 1 and n > 2 for e, n in calls)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_monster_denominator_matches_factor_by_factor(cap):
    # the one caller whose exponents run to dozens of digits, rebuilt from
    # the same start and factor list as denominator_product
    big_m, hi = moonshine._grid(cap, cap)
    c = moonshine.moonshine_c(big_m * hi)
    factors = [(m, n, c[m * n], -1) for m in range(1, big_m + 1) for n in range(-1, hi + 1)
               if m * n <= c.trunc and c[m * n]]
    want = bi_shift_x(bi_oracle(BiSeries.one(big_m, ytop=hi), factors), -1)
    assert same_bi(moonshine.denominator_product(cap, cap), want)


def test_biseries_repr_shows_cap_and_ytop():
    assert repr(BiSeries({(0, 0): 1, (1, 2): 3, (2, -1): 1}, 4, ytop=2)) == \
        "BiSeries(3 terms, cap=4, ytop=2)"
    assert repr(BiSeries.one(4)) == "BiSeries(1 terms, cap=4, ytop=None)"


def _covers(small, big):
    """big claims everything small does: a QSeries by trunc, a BiSeries by cap and y-top."""
    if isinstance(small, QSeries):
        return big.trunc >= small.trunc
    return big.cap >= small.cap and (big.ytop is None or
                                     small.ytop is not None and big.ytop >= small.ytop)


@pytest.mark.parametrize("name", identities.IDENTITY_LABELS)
def test_identity_sides_are_honest_across_orders(name):
    # a side built at order o claims order o (a two-variable side cap o
    # exactly), and a build at o + 3 agrees with it on everything it claims
    for order in range(1, 26):
        shallow = identities.identity_sides(name, order)
        deeper = identities.identity_sides(name, order + 3)
        assert len(shallow) == len(deeper)
        for pair, deep_pair in zip(shallow, deeper):
            for side, deep in zip(pair, deep_pair):
                if isinstance(side, BiSeries):
                    assert side.cap == order
                else:
                    assert side.trunc >= order
                assert _covers(side, deep) and side.first_mismatch(deep) is None


@pytest.mark.parametrize("sample,chamber", [("pair", (1,)), ("trivial", (1,)),
                                            ("orthogonal", (1, 2))])
def test_psi_is_honest_across_orders(sample, chamber):
    V = sample_system(sample)
    for order in range(9):
        qpre, got = vsys.psi(V, chamber, order)
        deep_qpre, deep = vsys.psi(V, chamber, order + 2)
        assert max(n for n, _ in got) <= order and qpre == deep_qpre
        assert got == {k: c for k, c in deep.items() if k[0] <= order}


@pytest.mark.parametrize("cap", range(1, 6))
def test_replication_product_is_honest_across_q_caps(cap):
    side = moonshine.replication_product(cap, cap)
    deep = moonshine.replication_product(cap, cap + 3)
    assert _covers(side, deep) and side.first_mismatch(deep) is None


@settings(max_examples=300, deadline=None)
@given(biseries(), st.integers(-3, 3))
def test_biseries_ring_operations_match_schoolbook(a, n):
    assert same_bi(a.shift_x(n), bi_shift_x(a, n))


def test_factors_reach_a_ytop_off_zero():
    # a factor's own constant term lies above a y-top below 0, yet it still multiplies
    got = BiSeries({(0, -2): 1}, 4, ytop=-1).mul_binomials([(1, 1, 1, -1), (1, 0, 1, -1)])
    assert (got.coeffs, got.ytop) == ({(0, -2): 1, (1, -1): -1, (1, -2): -1, (2, -1): 1}, -1)
    # a factor constant in x is rejected under a y-top, stepping up or down,
    # a divisor or a polynomial
    for factor in ((0, 1, -1, -1), (0, 1, 2, -1), (0, -1, 2, -1)):
        with pytest.raises(ValueError):
            BiSeries({(0, -2): 1}, 3, ytop=5).mul_binomials([factor])


def test_expanders_reject_bad_factors():
    with pytest.raises(ValueError):
        BiSeries.one(4).mul_binomials([(1, 1, 1, 0)])


def _in_measured_domain(series, factor):
    """What every caller passes: a >= 0, e an int -1 or >= 1, and a factor
    constant in x a polynomial with no y-top."""
    a, b, e, sign = factor
    if a < 0 or sign not in (1, -1) or not isinstance(e, int) or not (e == -1 or e >= 1):
        return False
    return a > 0 or series.ytop is None and e >= 1


def test_every_caller_builds_factors_in_the_domain(monkeypatch):
    # the two-variable identity rows, psi on every sample system and the
    # monster denominator: each product is accepted, stores no x below 0,
    # and passes only factors of the measured shapes
    def build():
        for name in TWO_VARIABLE:
            for order in range(1, 31):
                identities.identity_sides(name, order)
        for name in SAMPLE_NAMES:
            V = sample_system(name)
            for order in range(9):
                vsys.psi(V, (1, 2)[:V.dim], order)
        for cap in range(1, 5):
            moonshine.denominator_product(cap, cap)

    seen = _shipped_products(monkeypatch, build)
    rows = sum(len(entries) for entries in TWO_VARIABLE.values())
    assert len(seen) == 30 * rows + 9 * len(SAMPLE_NAMES) + 4
    for series, factors in seen:
        assert all(x >= 0 for x, _ in series.coeffs)
        assert all(_in_measured_domain(series, f) for f in factors)


@pytest.mark.parametrize("series,factor", [
    (BiSeries.one(4), (-1, 1, 1, -1)),  # a < 0
    (BiSeries.one(4), (1, 1, -2, -1)),  # e < -1
    (BiSeries.one(4), (1, 1, Fraction(1, 2), -1)),  # rational e
    (BiSeries.one(4), (1, 1, Fraction(2), -1)),  # an int held as a Fraction
    (BiSeries.one(4, ytop=3), (0, 0, -1, -1)),  # a = 0 divide, b = 0
    (BiSeries.one(4, ytop=3), (0, -1, -1, -1)),  # a = 0 divide, b < 0
    (BiSeries.one(4), (0, 1, -1, -1)),  # a = 0 divide, no y-top
    (BiSeries.one(4, ytop=3), (0, -1, 2, -1)),  # a = 0, b < 0 under a y-top
    (BiSeries.one(4, ytop=3), (0, -2, 1, 1)),
    (BiSeries({(-1, 0): 1}, 4), (1, 1, 1, -1)),  # a stored x < 0
    (BiSeries.one(4, ytop=3), (0, 2, 3, -1)),  # a = 0, b > 0 under a y-top
    (BiSeries.one(4, ytop=3), (0, 1, -1, -1)),  # a = 0 divide, b > 0 under a y-top
    (BiSeries.one(4), (0, -2, -1, 1)),  # a = 0 divide, b < 0, no y-top
])
def test_biseries_rejects_each_excluded_shape(series, factor):
    with pytest.raises(ValueError):
        series.mul_binomials([factor])
