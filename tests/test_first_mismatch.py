"""Differential tests of the one first-mismatch scan behind every comparison.

``QSeries.first_mismatch``, ``BiSeries.first_mismatch`` and ``ExponentTable``
equality all go through ``series._first_mismatch``.  The references are the
hand-written loops those comparisons ran before, kept in ``kernel_oracle``.
Pairs are drawn to mostly agree: the second side edits a few coefficients
of the first, moves its truncation or cap, moves its y-top, and may write an
integer part of the prefactor into the exponents, so first mismatches land
near every boundary.  Results must match with their types (int vs
Fraction), and the same inputs must be rejected.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import kernel_oracle as oracle
from qmoon.series import FULL, HALF, BiSeries, ExponentTable, QSeries, _first_mismatch

coefficients = st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2,
                                                          max_denominator=3))


def typed(result):
    """A scan result with the type of every value, so 1 never matches Fraction(1)."""
    if result is None or isinstance(result, type):
        return result
    key, a, b = result
    return key, (type(a), a), (type(b), b)


def outcome(fn, *args):
    try:
        return typed(fn(*args))
    except ValueError as exc:  # NomeMismatch included
        return type(exc)


def edited(draw, coeffs, keys):
    """coeffs with a few entries overwritten, some by zero, some by equal values."""
    out = dict(coeffs)
    out.update(draw(st.dictionaries(keys, st.one_of(coefficients, st.just(0)), max_size=3)))
    return out


@st.composite
def qseries_pairs(draw):
    trunc = draw(st.integers(-3, 9))
    pre = draw(st.sampled_from((0, Fraction(1, 24), Fraction(-5, 4), Fraction(7, 8))))
    nome = draw(st.sampled_from((FULL, HALF)))
    coeffs = draw(st.dictionaries(st.integers(min(trunc, -3), trunc), coefficients,
                                  max_size=7))
    a = QSeries(coeffs, trunc, nome=nome, prefactor=pre)
    b_trunc = trunc + draw(st.integers(-3, 3))
    b_coeffs = edited(draw, coeffs, st.integers(min(b_trunc, -3), b_trunc))
    s = draw(st.integers(-2, 2))  # q^pre sum c q^e = q^(pre - s) sum c q^(e + s)
    b_pre = pre - s + draw(st.sampled_from((0,) * 8 + (Fraction(1, 2),)))
    b_nome = draw(st.sampled_from((nome,) * 8 + (FULL, HALF)))
    b = QSeries({e + s: c for e, c in b_coeffs.items() if e <= b_trunc}, b_trunc + s,
                nome=b_nome, prefactor=b_pre)
    return a, b


@settings(max_examples=400, deadline=None)
@given(qseries_pairs(), st.one_of(st.none(), st.integers(-5, 12)))
def test_qseries_scan_matches_reference(pair, order):
    a, b = pair
    got = outcome(a.first_mismatch, b, order)
    assert got == outcome(oracle.first_mismatch, a, b, order)
    assert outcome(b.first_mismatch, a, order) == outcome(oracle.first_mismatch, b, a, order)
    if not isinstance(got, type):
        assert (a == b) == (oracle.first_mismatch(a, b) is None)
        assert a.agrees_with(b, order) == (got is None)


@st.composite
def biseries_pairs(draw):
    cap = draw(st.integers(-1, 5))
    ytops = st.one_of(st.none(), st.integers(-2, 4))
    xs, ys = st.integers(-2, max(cap, -2)), st.integers(-4, 4)
    if draw(st.booleans()):  # sparse
        coeffs = draw(st.dictionaries(st.tuples(xs, ys), coefficients, max_size=8))
    else:  # every monomial of a small box: many keys share a degree x + y
        coeffs = {(x, y): draw(coefficients) for x in range(-1, cap + 1) for y in range(-2, 3)}
    a = BiSeries(coeffs, cap, ytop=draw(ytops))
    b_cap = cap + draw(st.integers(-2, 2))
    b_coeffs = edited(draw, coeffs, st.tuples(st.integers(min(b_cap, -2), b_cap), ys))
    b = BiSeries({k: c for k, c in b_coeffs.items() if k[0] <= b_cap}, b_cap,
                 ytop=draw(ytops))
    return a, b


@settings(max_examples=400, deadline=None)
@given(biseries_pairs())
def test_biseries_scan_matches_reference(pair):
    a, b = pair
    got = typed(a.first_mismatch(b))
    assert got == typed(oracle.bi_first_mismatch(a, b))
    assert typed(b.first_mismatch(a)) == typed(oracle.bi_first_mismatch(b, a))
    assert (a == b) == (got is None)


def test_biseries_scan_is_graded():
    # degree x + y first: q^3 comes after p, though (0, 3) < (1, 0) as tuples
    a = BiSeries({(0, 3): 1, (1, 0): 1}, 4)
    b = BiSeries({(0, 3): 2, (1, 0): 2}, 4)
    assert a.first_mismatch(b) == oracle.bi_first_mismatch(a, b) == ((1, 0), 1, 2)
    # within one degree, the lower x first
    a = BiSeries({(0, 2): 1, (1, 1): 1, (2, 0): 1}, 4)
    b = BiSeries({(0, 2): 2, (1, 1): 2, (2, 0): 2}, 4)
    assert a.first_mismatch(b) == oracle.bi_first_mismatch(a, b) == ((0, 2), 1, 2)


@st.composite
def exponent_table_pairs(draw):
    order = draw(st.integers(0, 6))
    exps = draw(st.dictionaries(st.integers(1, max(order, 1)), coefficients, max_size=4))
    exps = {n: e for n, e in exps.items() if n <= order}
    h = draw(coefficients)
    other_order = draw(st.integers(0, 6))
    other = {n: e for n, e in edited(draw, exps, st.integers(1, 6)).items() if n <= other_order}
    return (ExponentTable(h, exps, order),
            ExponentTable(draw(st.sampled_from((h,) * 5 + (h + 1,))), other, other_order))


@settings(max_examples=300, deadline=None)
@given(exponent_table_pairs())
def test_exponent_table_equality_matches_termwise(pair):
    s, t = pair
    order = min(s.order, t.order)
    assert (s == t) == (s.h == t.h and all(s[n] == t[n] for n in range(1, order + 1)))


def test_scan_order_known_range_and_missing_keys():
    lhs, rhs = {1: 5, 3: 2, -2: 1}, {1: 5, 3: 0, 4: 7}
    assert _first_mismatch(lhs, rhs) == (-2, 1, 0)
    assert _first_mismatch(lhs, rhs, lambda e: e >= 0) == (3, 2, 0)
    assert _first_mismatch(lhs, rhs, lambda e: 0 <= e != 3) == (4, 0, 7)
    assert _first_mismatch(lhs, rhs, lambda e: 0 <= e <= 2) is None
    assert _first_mismatch(lhs, rhs, key=lambda e: -e) == (4, 0, 7)
    assert _first_mismatch({}, {}) is None


def sorted_walk(lhs, rhs, known=None, key=None):
    """The scan with no early return: every key of either side, sorted, a missing one 0."""
    for k in sorted(set(lhs) | set(rhs), key=key):
        a, b = lhs.get(k, 0), rhs.get(k, 0)
        if a != b and (known is None or known(k)):
            return k, a, b
    return None


@st.composite
def dict_pairs(draw):
    """Two coefficient dicts that often agree: explicit zeros on either side, equal
    values rewritten, and sometimes every value held as a Fraction."""
    keys = st.integers(-4, 6)
    lhs = draw(st.dictionaries(keys, st.one_of(coefficients, st.just(0)), max_size=8))
    rhs = edited(draw, lhs, keys) if draw(st.booleans()) else dict(lhs)
    if draw(st.booleans()):
        rhs = {k: Fraction(c) for k, c in rhs.items()}
    return lhs, rhs


@settings(max_examples=500, deadline=None)
@given(dict_pairs(), st.sampled_from((None, lambda e: e >= 0, lambda e: e % 3 != 1)),
       st.sampled_from((None, lambda e: -e)))
def test_scan_matches_the_sorted_walk(pair, known, key):
    # equal dicts return before the sort; unequal ones, explicit zeros against
    # missing keys included, walk as before
    lhs, rhs = pair
    want = typed(sorted_walk(lhs, rhs, known, key))
    assert typed(_first_mismatch(lhs, rhs, known, key)) == want
    assert typed(_first_mismatch(rhs, lhs, known, key)) == typed(sorted_walk(rhs, lhs, known, key))
    if lhs == rhs:
        assert want is None
