"""Hurwitz class numbers and the infinite-product lift of plus-space forms.

A form f = sum c(n) q^n with integer coefficients supported on exponents
n = 0, 1 (mod 4) lifts to q^(-h) * prod_{n>0} (1 - q^n)^{c(n^2)}, where h
is the constant term of f against the class-number series sum H(k) q^k.
The worked catalog (12*theta, f_4, f_6, f_j and their sums) lands on
Delta, E_4, E_6, j and the remaining product-representable Eisenstein
series.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import forms
from .series import ExponentTable, FULL, QSeries, _num, product_from_exponents

CATALOG_NAMES = ("f_delta", "f_4", "f_6", "f_8", "f_10", "f_14", "f_j")


def hurwitz_range(max_n: int) -> dict:
    """{n: H(n)} for 0 <= n <= max_n, from one walk over reduced forms.

    H(n) counts reduced positive-definite ax^2 + bxy + cy^2 of discriminant
    b^2 - 4ac = -n, |b| <= a <= c with b >= 0 when |b| = a or a = c; the
    orbits of k(x^2 + y^2) and k(x^2 + xy + y^2) count 1/2 and 1/3 (Cohen,
    GTM 138, 5.3).  Counts are kept in integer sixths.  For each (a, b) the
    walk steps c from a, so n steps by 4a: about max_n^(3/2) steps.  H(0) =
    -1/12, and every walked value is checked against the class-number
    constraints: H(n) = 0 unless -n is a discriminant, and otherwise H(n) >= 0
    with a denominator dividing 6.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    sixths = [0] * (max_n + 1)
    a = 1
    while 3 * a * a <= max_n:
        for b in range(1 - a, a + 1):
            n = 4 * a * a - b * b  # c = a, which needs b >= 0
            if b >= 0 and n <= max_n:
                sixths[n] += 3 if b == 0 else 2 if b == a else 6
            for i in range(n + 4 * a, max_n + 1, 4 * a):
                sixths[i] += 6
        a += 1
    values = {0: Fraction(-1, 12)}
    for n in range(1, max_n + 1):
        h = values[n] = _num(Fraction(sixths[n], 6))
        if (h != 0) if n % 4 in (1, 2) else (h < 0 or 6 % Fraction(h).denominator):
            raise ArithmeticError(f"H({n}) = {h} breaks the class-number constraints")
    return values


class PlusForm:
    """Lift input: a full-nome series, integer coefficients, support 0, 1 mod 4."""

    __slots__ = ("series",)

    weight = Fraction(1, 2)  # informational; every lift input sits in this weight

    def __init__(self, series: QSeries):
        if series.nome != FULL:
            raise ValueError("plus-space forms live in the full nome")
        if series.prefactor:
            raise ValueError("plus-space forms have integral exponents")
        bad = [(e, c) for e, c in sorted(series.coeffs.items())
               if e % 4 in (2, 3) or not isinstance(c, int)]
        if bad:
            raise ValueError("not in the plus space; offending (exponent, coefficient): "
                             + ", ".join(f"({e}, {c})" for e, c in bad))
        self.series = series

    def __repr__(self):
        return f"PlusForm({self.series!r})"


# -- the worked catalog ------------------------------------------------------

_PAD = 8  # formula pieces have poles at q^-4 and eat four orders per multiply

# The f_6 display carries the constant 876, but the expansion printed next to
# it starts q^-4 + 6 + 504q, which forces 852 (and only 852 makes the lift
# land on E_6); see printed_coefficient_report("f_6").
_F6_CONSTANT = 852

PRINTED_F4 = {-3: 1, 0: 4, 1: -240, 4: 26760, 5: -85995, 8: 1707264, 9: -4096240}
PRINTED_F6 = {-4: 1, 0: 6, 1: 504, 4: 143388, 5: 565760, 8: 184373000, 9: 51180024}
_PRINTED = {"f_4": PRINTED_F4, "f_6": PRINTED_F6}


def _q_series(cap: int) -> QSeries:
    """Q = F * theta * (theta^4 - 2F)(theta^4 - 16F), a catalog ingredient, through q^cap.

    F = sum_{n odd} sigma(n) q^n, and theta^4 = 1 + sum (8 sigma(n) - 32 sigma(n/4)) q^n
    by the four-square theorem (Hardy & Wright, Thm 386), sigma(n/4) = 0 unless 4 | n.
    """
    sig = [0, *forms._sigma_table(1, cap)]
    t4 = [1, *(8 * sig[n] - (0 if n % 4 else 32 * sig[n // 4]) for n in range(1, cap + 1))]

    def minus(k):  # theta^4 - k F, which differs from theta^4 only at odd n
        return QSeries({n: t4[n] - k * sig[n] if n % 2 else t4[n] for n in range(cap + 1)}, cap)

    F = QSeries({n: sig[n] for n in range(1, cap + 1, 2)}, cap)
    return F * forms.theta_full(cap) * (minus(2) * minus(16))


def _qg(weight: int, order: int) -> QSeries:
    """Q G for G = E_weight(4t)/Delta(4t), pole at q^-3, through q^order.

    Formed as one quotient (Q E_weight(4t)) / Delta(4t): the numerator's
    coefficients stay narrow, and Delta(4t) is a series in q^4, so the
    division runs on each residue class mod 4 of the numerator apart.
    """
    m = order // 4 + 2  # Delta(4t) known through q^(4m + 3) >= q^(order + 8)
    e4t, d4t = forms.eisenstein(weight, m).scale_var(4), forms.delta(m).scale_var(4)
    return (_q_series(order + 4) * e4t) / d4t


def _raw_catalog(name: str, order: int) -> QSeries:
    if name not in CATALOG_NAMES:
        raise ValueError(f"unknown catalog form {name!r}; have {', '.join(CATALOG_NAMES)}")
    if name == "f_delta":
        return 12 * forms.theta_full(order)
    cap = order + _PAD
    theta = forms.theta_full(cap)
    QG = _qg(6, order)
    f_j = (3 * QG + 168 * theta).truncate(order)
    if name == "f_j":
        return f_j
    f_4 = (f_j + 12 * theta) * Fraction(1, 3)
    if name == "f_4":
        return f_4
    if name == "f_8":
        return f_4 * 2
    j4 = forms.j_invariant(cap // 4 + 4).scale_var(4).truncate(cap)
    f_6 = ((j4 - _F6_CONSTANT) * theta - 2 * QG).truncate(order)
    if name == "f_6":
        return f_6
    return f_4 + f_6 if name == "f_10" else f_4 * 2 + f_6


def catalog(name: str, order: int) -> PlusForm:
    """One of the worked lift inputs, expanded through q^order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return PlusForm(_raw_catalog(name, int(order)))


# -- the lift ----------------------------------------------------------------

class LiftResult(NamedTuple):
    h: object
    result: QSeries
    table: ExponentTable


def lift(f: PlusForm, order: int) -> LiftResult:
    """q^(-h) * prod_{n<=order} (1 - q^n)^{c(n^2)} for a plus-space form f.

    h = sum_{k>=0} c(-k) H(k), with H(0) = -1/12; reading c(n^2) up to
    n = order requires f to be known to order squared.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    s = f.series
    if s.trunc < order * order:
        raise ValueError(f"lift to order {order} reads c(n^2) up to n = {order}; "
                         f"the form is only known to q^{s.trunc}")
    H = hurwitz_range(max((-e for e in s.coeffs if e < 0), default=0))
    h = sum(c * H[-e] for e, c in s.coeffs.items() if e <= 0)  # H(0) = -1/12
    table = ExponentTable(h, {n: s.coeff(n * n) for n in range(1, order + 1)}, order)
    result = product_from_exponents(table)
    return LiftResult(table.h, result, table)


def zero_multiplicity(f: PlusForm, D: int) -> int:
    """Vanishing order of the lift at a quadratic irrational of discriminant D < 0.

    sum_{d>0} c(D d^2); only the finite principal part of f contributes.
    """
    if D >= 0:
        raise ValueError("D must be a negative discriminant")
    s = f.series
    v = s.valuation()
    total = 0
    if v is not None and v < 0:
        d = 1
        while D * d * d >= v:
            total += s.coeffs.get(D * d * d, 0)
            d += 1
    return total


# -- discrepancy reports -----------------------------------------------------

def printed_coefficient_report(name: str) -> list:
    """Formula output vs the published low-order coefficients.

    Returns (exponent, computed, published, agree) rows.  The published
    f_6 numbers are soft goldens: the formula is authoritative, and any
    disagreement shows up here rather than as a construction error.
    """
    if name not in _PRINTED:
        raise ValueError(f"no published expansion recorded for {name!r}")
    printed = _PRINTED[name]
    f = catalog(name, max(printed) + 1).series
    return [(n, f.coeff(n), c, f.coeff(n) == c) for n, c in sorted(printed.items())]


def fj_efactor_report(lifted: QSeries, order: int) -> dict:
    """Which Eisenstein numerator in the f_j formula actually lifts to j.

    The prose around the formula names weight 4 while the display reads
    E_6(4t)/Delta(4t); the lift target j decides.  ``lifted`` is the lift of
    the catalog's f_j to ``order``, which is the displayed E_6 variant
    3 Q G + 168 theta.  The E_4 variant is built and lifted only if that
    one fails, and the outcome is recorded rather than silently resolved.
    """
    target = forms.j_invariant(order)
    report = {"formula_reads": "E6", "prose_reads": "E4", "used": None}
    for weight in (6, 4):
        try:
            if weight == 4:  # f_j = 3 Q G + 168 theta with G = E_4(4t)/Delta(4t)
                cap = order * order
                series = 3 * _qg(4, cap) + 168 * forms.theta_full(cap)
                lifted = lift(PlusForm(series), order).result
            ok = lifted.agrees_with(target, order)
        except ValueError as err:
            ok = False
            report[f"E{weight}_error"] = str(err)
        report[f"E{weight}_lifts_to_j"] = ok
        if ok:
            report["used"] = f"E{weight}"
            break
    if report.get("E6_lifts_to_j"):
        report["resolution"] = "the displayed E6 numerator lifts to j; prose weight 4 is a slip"
    elif report.get("E4_lifts_to_j"):
        report["resolution"] = "the prose E4 numerator lifts to j; the display is a slip"
    else:
        report["resolution"] = "neither Eisenstein numerator lifts to j"
    return report
