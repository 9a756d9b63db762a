"""Differential tests of the dense kernel against the dict reference in kernel_oracle.

Every comparison checks the coefficients and their types (int vs Fraction)
together with trunc, prefactor and nome.  Inputs mix sparse and dense
supports, negative valuations, rational coefficients, prefactors, both nome
conventions, mismatched truncations, all-negative coefficients, the zero
series, one-coefficient windows, and coefficients from a few bits to about
2000 bits, including values right at the byte boundaries of a packing slot.
The two-point list multiply is also checked on coefficient lists against the
one-point multiply it replaced.  Division, the inverse, log and exp share one
triangular solver; each is checked past one and two runs of ``_BLOCK`` terms,
where that solver divides and conquers, and division and log on inputs of
zero to three known terms.  Division by a series in q^s runs one residue
class of the numerator at a time; it is checked for s = 2, 3, 4 and 6 with
empty and unequal classes and classes of _BLOCK terms and either side, and
both branches of the solver, product and recurrence, on wide coefficients.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import kernel_oracle as oracle
from qmoon import series as series_module
from qmoon.series import (
    FULL,
    HALF,
    ExponentTable,
    NomeMismatch,
    QSeries,
    _BLOCK,
    _mul_lists,
    exp_series,
    exponents_from_series,
    log_series,
    product_from_exponents,
)


def types(coeffs):
    return {e: type(c) for e, c in coeffs.items()}


def same(new, old):
    assert (new.nome, new.prefactor, new.trunc) == (old.nome, old.prefactor, old.trunc)
    assert new.coeffs == old.coeffs
    assert types(new.coeffs) == types(old.coeffs)


def same_table(new, old):
    assert (new.h, type(new.h), new.order) == (old.h, type(old.h), old.order)
    assert new.exps == old.exps
    assert types(new.exps) == types(old.exps)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


# Magnitudes 2^(8w - 1) - 1 .. 2^(8w - 1) + 1 sit on the edge of a w-byte slot.
slot_edges = st.builds(lambda bits, d, s: s * ((1 << bits) + d),
                       st.sampled_from([6, 7, 8, 15, 16, 31, 63, 64, 127, 1999, 2000]),
                       st.integers(-1, 1), st.sampled_from([1, -1]))
small = st.integers(-9, 9)
huge = st.integers(-(1 << 2000), 1 << 2000)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
coefficients = st.one_of(small, small, huge, slot_edges, rationals)
prefactors = st.sampled_from([0, 0, Fraction(1, 24), Fraction(-5, 8), Fraction(7, 3), 2])


@st.composite
def series(draw, coeffs=coefficients, lo=-4, hi=12, width=24, nome=FULL, prefactor=0,
           negative=False):
    low = draw(st.integers(lo, hi))
    top = low + draw(st.integers(0, width))
    if draw(st.booleans()):
        exps = range(low, top + 1)
    else:
        exps = draw(st.lists(st.integers(low, top), max_size=6, unique=True))
    values = {e: draw(coeffs) for e in exps}
    if negative:
        values = {e: -abs(c) for e, c in values.items()}
    trunc = top + draw(st.integers(0, 6))
    return QSeries(values, trunc, nome=nome, prefactor=prefactor)


@st.composite
def pairs(draw):
    nome = draw(st.sampled_from([FULL, HALF]))
    negative = draw(st.booleans())
    a = draw(st.one_of(series(nome=nome, prefactor=draw(prefactors), negative=negative),
                       st.just(QSeries.zero(draw(st.integers(-3, 8)), nome=nome))))
    b = draw(series(nome=nome, prefactor=draw(prefactors), negative=negative))
    return a, b


@settings(deadline=None)
@given(pairs())
def test_mul_matches_reference(pair):
    a, b = pair
    for p, want in ((a * b, oracle.mul(a, b)), (b * a, oracle.mul(b, a)),
                    (a * a, oracle.mul(a, a))):
        same(p, want)
        # the product stores its terms as the constructor would: no zero, every exponent known
        assert 0 not in p.coeffs.values()
        assert QSeries(p.coeffs, p.trunc).coeffs == p.coeffs


@settings(deadline=None)
@given(series(), series(lo=0, hi=6, width=8), st.integers(2, 5))
def test_mul_by_series_in_q_power_matches_reference(a, b, k):
    b = b.scale_var(k)
    same(a * b, oracle.mul(a, b))
    same(b * a, oracle.mul(b, a))


@settings(deadline=None)
@given(series(coeffs=st.one_of(small, st.integers(-(1 << 200), 1 << 200), rationals), width=14,
              prefactor=Fraction(1, 3)), st.sampled_from([FULL, HALF]))
def test_invert_matches_reference(a, nome):
    a = QSeries(a.coeffs, a.trunc, nome=nome, prefactor=a.prefactor)
    new, old = outcome(a.invert), outcome(oracle.invert, a)
    if old is ValueError:
        assert new is ValueError
    else:
        same(new, old)


def quotient(a, b):
    """The reference quotient: the schoolbook product with the one-term-at-a-time inverse."""
    return oracle.mul(a, oracle.invert(b))


@st.composite
def divisions(draw):
    """(a, b) of one nome: b nonzero, its lowest coefficient rarely 1, either valuation
    negative, a sometimes zero; rational coefficients and prefactors on both."""
    nome = draw(st.sampled_from([FULL, HALF]))
    divisor = series(coeffs=st.one_of(small, st.integers(-(1 << 200), 1 << 200), rationals),
                     width=14, nome=nome, prefactor=draw(prefactors))
    b = draw(divisor.filter(lambda s: not s.is_zero()))
    a = draw(st.one_of(series(nome=nome, prefactor=draw(prefactors)),
                       st.just(QSeries.zero(draw(st.integers(-3, 8)), nome=nome))))
    return a, b


@settings(deadline=None)
@given(divisions())
def test_division_matches_reference(pair):
    a, b = pair
    same(a / b, quotient(a, b))
    same(b / b, quotient(b, b))


def short_series(length, lead, v, trunc_shift=0):
    """lead q^v + ... on `length` known terms (none: the zero series through q^(v - 1))."""
    values = {v + i: c for i, c in enumerate([lead, Fraction(-2, 3), 5][:length])}
    return QSeries(values, v + length - 1 + trunc_shift, prefactor=Fraction(1, 12))


@pytest.mark.parametrize("v", [-2, 0, 3])
@pytest.mark.parametrize("lead", [1, -3, Fraction(2, 5)])
def test_division_on_zero_to_three_terms(v, lead):
    for length_a in range(4):
        for length_b in range(1, 4):
            for shift in (0, 2):
                a = short_series(length_a, 7, 1 - v, shift)
                b = short_series(length_b, lead, v)
                same(a / b, quotient(a, b))
                same(b.invert(), oracle.invert(b))


@pytest.mark.parametrize("trunc", range(4))
def test_log_on_zero_to_three_terms(trunc):
    # a unit known through q^trunc has a log derivative of trunc terms
    u = QSeries({0: 1, 1: Fraction(-1, 2), 2: 3, 3: -7}, 3).truncate(trunc)
    same(log_series(u), oracle.log_series(u))
    same_table(exponents_from_series(u, trunc), oracle.exponents_from_series(u, trunc))


def test_division_by_zero_and_across_nomes():
    a = QSeries({0: 1, 1: 2}, 5)
    for zero in (QSeries.zero(5), QSeries.zero(-2)):
        with pytest.raises(ValueError):
            a / zero
        with pytest.raises(ValueError):
            zero.invert()
    with pytest.raises(NomeMismatch):
        a / QSeries({0: 1}, 5, nome=HALF)
    with pytest.raises(NomeMismatch):
        QSeries.zero(3, nome=HALF) / a


@pytest.mark.parametrize("bits", list(range(1, 20)) + [31, 32, 63, 64, 255, 1000])
def test_mul_at_the_slot_bound(bits):
    # length * max|a| * max|b| is attained exactly by equal coefficients of one sign,
    # and these lengths and magnitudes put it on every side of a byte boundary
    top = (1 << bits) - 1
    for length in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32):
        for signs in ((1, 1), (-1, -1), (1, -1)):
            a = QSeries({e: signs[0] * top for e in range(length)}, length - 1)
            b = QSeries({e: signs[1] * top for e in range(length)}, length + 3)
            same(a * b, oracle.mul(a, b))
            same(a * a, oracle.mul(a, a))


def same_list(new, old):
    assert new == old
    assert [type(c) for c in new] == [type(c) for c in old]


# ±(2^(8w - 1) - 1) and ±2^(8w - 1), on the edge of a slot of an odd number w of
# bytes: the one-point multiply used such widths, the two-point one rounds them up
odd_width_edges = st.builds(lambda w, d, s: s * ((1 << (8 * w - 1)) + d),
                            st.sampled_from([1, 3, 5, 9, 17]), st.integers(-1, 0),
                            st.sampled_from([1, -1]))


@st.composite
def coefficient_lists(draw):
    """Lists of length 0 to 40, with runs of zeros, mixed signs and kinds, or stepped."""
    entry = st.one_of(st.just(0), st.just(0), small, odd_width_edges, rationals,
                      st.integers(-(1 << 300), 1 << 300))
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), entry)  # longer runs of zeros
    cs = draw(st.lists(entry, max_size=40))
    step = draw(st.sampled_from([1, 1, 2, 3]))  # a list in q^step
    return [c if i % step == 0 else 0 for i, c in enumerate(cs)]


@settings(deadline=None)
@given(coefficient_lists(), coefficient_lists(), st.data())
def test_mul_lists_matches_the_one_point_reference(a, b, data):
    full = max(len(a) + len(b) - 1, 0)
    n = data.draw(st.one_of(st.sampled_from([0, 1, full, full + 2]), st.integers(0, full)))
    same_list(_mul_lists(a, b, n), oracle.mul_lists(a, b, n))
    same_list(_mul_lists(a, a, n), oracle.mul_lists(a, a, n))


@pytest.mark.parametrize("width", [1, 3, 5, 7, 9, 17])
def test_mul_lists_where_the_one_point_width_is_odd(width):
    # 2 t + bit_length(length) + 1 = 8 width: a one-point slot of width bytes, odd,
    # and equal coefficients of one sign reach the largest product that width bounds
    for length in (1, 4, 7, 16, 31):
        top = (1 << (8 * width - 1 - length.bit_length()) // 2) - 1
        for signs in ((1, 1), (-1, -1), (1, -1)):
            a, b = [signs[0] * top] * length, [signs[1] * top] * length
            for n in (1, length, 2 * length - 1):
                same_list(_mul_lists(a, b, n), oracle.mul_lists(a, b, n))
                same_list(_mul_lists(a, a, n), oracle.mul_lists(a, a, n))


def test_one_coefficient_windows_and_zero():
    a = QSeries({3: 5}, 3)
    b = QSeries({-2: Fraction(-1, 3)}, -2, prefactor=Fraction(1, 8))
    same(a * b, oracle.mul(a, b))
    same(b.invert(), oracle.invert(b))
    zero = QSeries.zero(-3)
    same(zero * a, oracle.mul(zero, a))
    same(a * zero, oracle.mul(a, zero))
    with pytest.raises(ValueError):
        zero.invert()
    unit = QSeries.one(0)
    same(log_series(unit), oracle.log_series(unit))
    same(exp_series(QSeries.zero(0)), oracle.exp_series(QSeries.zero(0)))
    same_table(exponents_from_series(unit, 0), oracle.exponents_from_series(unit, 0))
    table = ExponentTable(Fraction(-1, 24), {}, 0)
    same(product_from_exponents(table), oracle.product_from_exponents(table))


unit_coefficients = st.one_of(small, st.integers(-(1 << 80), 1 << 80), rationals)


@st.composite
def units(draw, coeffs=unit_coefficients, width=14):
    tail = draw(series(coeffs=coeffs, lo=1, hi=4, width=width))
    trunc = draw(st.integers(0, tail.trunc))
    return QSeries({0: 1, **{e: c for e, c in tail.coeffs.items() if e <= trunc}}, trunc)


@settings(deadline=None)
@given(units())
def test_log_matches_reference(u):
    same(log_series(u), oracle.log_series(u))


@settings(deadline=None)
@given(series(coeffs=st.one_of(small, rationals), lo=1, hi=4, width=10))
def test_exp_matches_reference(a):
    same(exp_series(a), oracle.exp_series(a))


@given(series(prefactor=Fraction(1, 24)))
def test_log_exp_reject_what_the_reference_rejects(a):
    for new, old in ((log_series, oracle.log_series), (exp_series, oracle.exp_series)):
        if outcome(old, a) is ValueError:
            assert outcome(new, a) is ValueError


exponent_values = st.one_of(st.integers(-30, 30), st.integers(10 ** 20, 10 ** 20 + 3),
                            st.fractions(min_value=-3, max_value=3, max_denominator=6))


@settings(deadline=None)
@given(st.integers(0, 16), st.data(), st.sampled_from([0, 1, -2, Fraction(-1, 24),
                                                       Fraction(7, 8)]))
def test_product_from_exponents_matches_reference(order, data, h):
    exps = data.draw(st.dictionaries(st.integers(1, max(order, 1)), exponent_values,
                                     max_size=order))
    table = ExponentTable(h, {n: e for n, e in exps.items() if n <= order}, order)
    nome = data.draw(st.sampled_from([FULL, HALF]))
    same(product_from_exponents(table, nome=nome), oracle.product_from_exponents(table, nome=nome))


@settings(deadline=None)
@given(units(coeffs=st.one_of(small, rationals), width=16), st.integers(-3, 4), prefactors,
       st.sampled_from([1, 1, 2, 3, 4]), st.data())
def test_exponents_from_series_matches_reference(u, v, prefactor, step, data):
    # a unit in q^step is divided one residue class at a time
    u = u.scale_var(step)
    a = QSeries(u.shift(v).coeffs, u.trunc + v, prefactor=prefactor)
    order = data.draw(st.integers(0, u.trunc))
    same_table(exponents_from_series(a, order), oracle.exponents_from_series(a, order))


# a build at order o agrees with a build at o + k through the shallower order


@settings(deadline=None)
@given(st.integers(0, 12), st.integers(1, 4), st.data(),
       st.sampled_from([0, 1, -2, Fraction(-1, 24), Fraction(7, 8)]))
def test_product_from_exponents_is_honest_across_orders(order, k, data, h):
    exps = data.draw(st.dictionaries(st.integers(1, order + k), exponent_values,
                                     max_size=order + k))
    shallow = product_from_exponents(
        ExponentTable(h, {n: e for n, e in exps.items() if n <= order}, order))
    deep = product_from_exponents(ExponentTable(h, exps, order + k))
    assert deep.trunc == shallow.trunc + k
    assert shallow.first_mismatch(deep) is None


@settings(deadline=None)
@given(units(coeffs=st.one_of(small, rationals), width=16), st.integers(-3, 4), prefactors,
       st.data())
def test_exponents_from_series_is_honest_across_orders(u, v, prefactor, data):
    a = QSeries(u.shift(v).coeffs, u.trunc + v, prefactor=prefactor)
    deep_order = data.draw(st.integers(0, u.trunc))
    order = data.draw(st.integers(0, deep_order))
    shallow = exponents_from_series(a.truncate(v + order), order)
    deep = exponents_from_series(a, deep_order)
    assert (shallow.order, deep.order) == (order, deep_order)
    assert shallow == deep


def test_exponents_from_series_rejects_what_the_reference_rejects():
    a = QSeries({-1: 1, 0: 744, 1: 196884}, 1)
    for order in (-1, 3):
        with pytest.raises(ValueError):
            exponents_from_series(a, order)
    for bad in (QSeries.zero(4), QSeries({0: 2, 1: 1}, 4)):
        for fn in (exponents_from_series, oracle.exponents_from_series):
            with pytest.raises(ValueError):
                fn(bad, 2)


# Past _BLOCK terms the solver divides and conquers: truncations around one and two
# blocks, and up to 300.  A few values sit at small indices and a few, up to about
# 300 bits, further out, so the reference's power sums stay short.

long_truncs = st.sampled_from([_BLOCK - 2, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 2,
                               2 * _BLOCK, 300])


@st.composite
def long_terms(draw, n):
    near = draw(st.dictionaries(st.integers(1, 6), st.one_of(small, rationals), min_size=1,
                                max_size=3))
    far = draw(st.dictionaries(st.integers(n // 8, n),
                               st.one_of(small, rationals, st.integers(-(1 << 300), 1 << 300)),
                               max_size=3))
    return {**far, **near}


@settings(deadline=None, max_examples=15)
@given(long_truncs, st.data())
def test_exp_above_the_block_matches_reference(n, data):
    a = QSeries(data.draw(long_terms(n)), n, nome=data.draw(st.sampled_from([FULL, HALF])))
    same(exp_series(a), oracle.exp_series(a))


@settings(deadline=None, max_examples=15)
@given(long_truncs, st.data(), st.sampled_from([0, -2, Fraction(-1, 24), Fraction(7, 8)]))
def test_product_from_exponents_above_the_block_matches_reference(n, data, h):
    table = ExponentTable(h, data.draw(long_terms(n)), n)
    same(product_from_exponents(table), oracle.product_from_exponents(table))


def test_product_from_exponents_on_wide_growing_exponents():
    # e_k = (-1)^k 2^(18k) through k = 130: the product's slots are padded to
    # the widest coefficient of both operands, so this input runs slower
    # than the plain recurrence, though still exactly
    table = ExponentTable(0, {k: (-1) ** k << 18 * k for k in range(1, 131)}, 130)
    same(product_from_exponents(table), oracle.product_from_exponents(table))


@settings(deadline=None, max_examples=25)
@given(long_truncs, st.integers(1, 70), st.data())
def test_exp_above_the_block_is_honest_across_orders(order, k, data):
    terms = data.draw(long_terms(order + k))
    shallow = QSeries({e: c for e, c in terms.items() if e <= order}, order)
    deep = QSeries(terms, order + k)
    assert exp_series(shallow).first_mismatch(exp_series(deep)) is None
    table = ExponentTable(Fraction(-1, 24), terms, order + k)
    deep = product_from_exponents(table)
    shallow = product_from_exponents(
        ExponentTable(table.h, {e: c for e, c in terms.items() if e <= order}, order))
    assert deep.trunc == shallow.trunc + k
    assert shallow.first_mismatch(deep) is None


@settings(deadline=None, max_examples=15)
@given(long_truncs, st.data())
def test_division_above_the_block_matches_reference(n, data):
    nome = data.draw(st.sampled_from([FULL, HALF]))
    lead = data.draw(st.sampled_from([1, 1, -2, Fraction(3, 7)]))
    v = data.draw(st.integers(-3, 3))
    b = QSeries({v: lead, **{e + v: c for e, c in data.draw(long_terms(n)).items()}}, n + v,
                nome=nome, prefactor=Fraction(1, 24))
    a = QSeries(data.draw(long_terms(n)), n, nome=nome)
    same(a / b, quotient(a, b))
    same(b.invert(), oracle.invert(b))


@st.composite
def divisions_by_q_power(draw):
    """(a, u) with u = q^v (lead + sum u_k q^(s k)) for s = 2, 3, 4 or 6, and a on some
    of its residue classes mod s: the others empty, and the classes' lengths unequal
    whenever s does not divide a's term count.  Long numerators put a class's length
    at or next to _BLOCK."""
    s = draw(st.sampled_from([2, 3, 4, 6]))
    v = draw(st.integers(-3, 3))
    lead = draw(st.sampled_from([1, 1, -2, Fraction(3, 7)]))
    rest = st.one_of(small, rationals, st.integers(-(1 << 300), 1 << 300))
    tail = draw(st.dictionaries(st.integers(1, 40), rest, max_size=5))
    va = draw(st.integers(-4, 4))
    count = draw(st.one_of(st.integers(1, 30),
                           st.sampled_from([s * (_BLOCK + d) + r for d in (-1, 0, 1)
                                            for r in (0, 1, s - 1)])))
    classes = draw(st.sets(st.integers(0, s - 1), max_size=s))
    exps = [e for e in range(count) if e % s in classes]
    picked = exps if count <= 30 else draw(st.lists(st.sampled_from(exps), max_size=8)
                                               if exps else st.just([]))
    a = QSeries({va + e: draw(rest) for e in picked}, va + count - 1, prefactor=Fraction(1, 24))
    u_trunc = v + draw(st.sampled_from([count + 2, count, count // 2]))
    u = QSeries({v: lead, **{v + s * k: c for k, c in tail.items() if v + s * k <= u_trunc}},
                max(u_trunc, v))
    return a, u


@settings(deadline=None, max_examples=40)
@given(divisions_by_q_power())
def test_division_by_a_series_in_q_power_matches_reference(pair):
    # the quotient by a series in q^s is solved one residue class of the
    # numerator at a time; the reference divides the whole series at once
    a, u = pair
    same(a / u, quotient(a, u))


def test_an_empty_residue_class_is_never_solved(monkeypatch):
    # a numerator on the classes 0 and 1 mod 4 over Delta(4t)'s shape runs the
    # solver twice, once for each class that holds a term
    solves = []
    real = series_module._solve
    monkeypatch.setattr(series_module, "_solve",
                        lambda c, n, *rest: solves.append(n) or real(c, n, *rest))
    u = QSeries({4: 1, 8: -24, 12: 252}, 40)
    a = QSeries({1: 1, 4: 3, 9: -2, 16: 5}, 41)
    same(a / u, quotient(a, u))
    assert len(solves) == 2


def test_both_solver_branches_agree_on_wide_growing_exponents(monkeypatch):
    # the FOUND input of the cost rule: e_k = (-1)^k 2^(18k) through k = 130,
    # expanded once with the product at every level the solver splits and
    # once by the plain recurrence alone; both agree with the dict oracle
    table = ExponentTable(0, {k: (-1) ** k << 18 * k for k in range(1, 131)}, 130)
    want = oracle.product_from_exponents(table)
    real = series_module._mul_lists
    for block, products in ((4, True), (1 << 20, False)):
        calls = []
        monkeypatch.setattr(series_module, "_BLOCK", block)
        monkeypatch.setattr(series_module, "_mul_lists",
                            lambda *args: calls.append(1) or real(*args))
        same(product_from_exponents(table), want)
        assert bool(calls) is products, block


@settings(deadline=None, max_examples=10)
@given(long_truncs, st.data())
def test_log_above_the_block_matches_reference(n, data):
    u = QSeries({0: 1, **data.draw(long_terms(n))}, n,
                nome=data.draw(st.sampled_from([FULL, HALF])))
    same(log_series(u), oracle.log_series(u))
