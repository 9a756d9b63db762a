"""Hurwitz class numbers and the infinite-product lift of plus-space forms.

A form f = sum c(n) q^n with integer coefficients supported on exponents
n = 0, 1 (mod 4) lifts to q^(-h) * prod_{n>0} (1 - q^n)^{c(n^2)}, where h
is the constant term of f against the class-number series sum H(k) q^k.
The worked catalog (12*theta, f_4, f_6, f_j and their sums) lands on
Delta, E_4, E_6, j and the remaining product-representable Eisenstein
series.
"""

from __future__ import annotations

from math import isqrt
from operator import mul
from typing import NamedTuple

from . import forms
from .series import ExponentTable, QSeries, _dense, _fmt_rat, product_from_exponents


def hurwitz_range(max_n: int) -> dict:
    """{n: 12 H(n)} for 0 <= n <= max_n, from one walk over reduced forms.

    H(n) counts reduced positive-definite ax^2 + bxy + cy^2 of discriminant
    b^2 - 4ac = -n, |b| <= a <= c with b >= 0 when |b| = a or a = c; the
    orbits of k(x^2 + y^2) and k(x^2 + xy + y^2) count 1/2 and 1/3 (Cohen,
    GTM 138, 5.3).  Counts are kept in integer twelfths, so H(0) = -1/12 is
    -1.  For each (a, b) the walk steps c from a, so n steps by 4a: about
    max_n^(3/2) steps.  Every walked value is checked against the
    class-number constraints: H(n) = 0 unless -n is a discriminant, and
    otherwise H(n) >= 0 with a denominator dividing 6, an even count of twelfths.
    """
    if max_n < 0:
        raise ValueError("max must be >= 0")
    twelfths = [0] * (max_n + 1)
    a = 1
    while 3 * a * a <= max_n:
        for b in range(1 - a, a + 1):
            n = 4 * a * a - b * b  # c = a, which needs b >= 0
            if b >= 0 and n <= max_n:
                twelfths[n] += 6 if b == 0 else 4 if b == a else 12
            for i in range(n + 4 * a, max_n + 1, 4 * a):
                twelfths[i] += 12
        a += 1
    twelfths[0] = -1
    values = dict(enumerate(twelfths))
    for n, t in values.items():
        if n and ((t != 0) if n % 4 in (1, 2) else (t < 0 or t % 2)):
            raise ArithmeticError(f"H({n}) = {_fmt_rat(t, 12)} breaks the class-number "
                                  f"constraints")
    return values


# -- the worked catalog ------------------------------------------------------

# The f_6 display carries the constant 876, but the expansion printed next to
# it starts q^-4 + 6 + 504q, which forces 852 (and only 852 makes the lift
# land on E_6); see printed_coefficient_report("f_6").
_F6_CONSTANT = 852

# Each catalog form is a Q G(4t) + b theta + c j(4t) theta, G = E_6/Delta, with
# weights (a, b, c): f_j = 3 Q G(4t) + 168 theta, f_4 = (f_j + 12 theta)/3,
# f_6 = (j(4t) - 852) theta - 2 Q G(4t), f_8 = 2 f_4, f_10 = f_4 + f_6,
# f_14 = 2 f_4 + f_6 and f_delta = 12 theta.
_CATALOG = {"f_delta": (0, 12, 0), "f_4": (1, 60, 0), "f_6": (-2, -_F6_CONSTANT, 1),
            "f_8": (2, 120, 0), "f_10": (-1, 60 - _F6_CONSTANT, 1),
            "f_14": (0, 120 - _F6_CONSTANT, 1), "f_j": (3, 168, 0)}
CATALOG_NAMES = tuple(_CATALOG)

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


def _g_series(top: int) -> QSeries:
    """G = E_6 / Delta in q, pole at q^-1, through q^top: one division on top + 2 terms."""
    return forms.eisenstein(6, top + 1) / forms.delta(top + 2)


def _read(lead: list, tail: list, e: int):
    """[q^e] of A(q^4) B(q), lead holding A's coefficients from q^-1 and tail B's from q^0."""
    return sum(map(mul, lead, map(tail.__getitem__, range(e + 4, -1, -4))))


class PlusForm:
    """A catalog form through q^trunc, read one coefficient at a time.

    It is a Q G(4t) + J(4t) theta with G = E_6/Delta and J = c j + b, so [q^e]
    reads Q and theta at e + 4, e, e - 4, ...: Q through q^(trunc + 4), G and
    j in q through q^(trunc // 4), and only those with a nonzero weight are
    built.  Theta and j(4t) lie in the plus space with integer coefficients,
    and G(4t) is integral and invertible, so the form does if and only if Q
    does, which is checked once.
    """

    __slots__ = ("trunc", "_pieces")

    def __init__(self, weights: tuple, trunc: int):
        a, b, c = weights
        top = trunc // 4
        G = Q = []
        if a:
            series = _q_series(trunc + 4)
            bad = [(e, x) for e, x in sorted(series.coeffs.items())
                   if e % 4 in (2, 3) or not isinstance(x, int)]
            if bad:
                raise ValueError("not in the plus space; offending (exponent, coefficient): "
                                 + ", ".join(f"({e}, {x})" for e, x in bad))
            G = [a * g for g in _dense(_g_series(top), -1, top + 2)]
            Q = _dense(series, 0, trunc + 5)
        J = [c * x for x in _dense(forms.j_invariant(top), -1, top + 2)] if c else [0, 0]
        J[1] += b
        self.trunc = trunc
        self._pieces = ((G, Q), (J, _dense(forms.theta_full(trunc + 4), 0, trunc + 5)))

    def coeff(self, e: int) -> int:
        """The coefficient at q^e; raises if e is beyond trunc."""
        if e > self.trunc:
            raise ValueError(f"coefficient at {e} unknown (trunc {self.trunc})")
        (G, Q), (J, theta) = self._pieces
        return _read(G, Q, e) + _read(J, theta, e)

    def valuation(self):
        """Lowest exponent with nonzero coefficient (every pole is at q^-4 or above)."""
        return next((e for e in range(-4, self.trunc + 1) if self.coeff(e)), None)


def catalog(name: str, order: int) -> PlusForm:
    """One of the worked lift inputs, known through q^order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if name not in _CATALOG:
        raise ValueError(f"unknown catalog form {name!r}; have {', '.join(CATALOG_NAMES)}")
    return PlusForm(_CATALOG[name], int(order))


# -- the lift ----------------------------------------------------------------

class LiftResult(NamedTuple):
    result: QSeries
    table: ExponentTable


def lift(f: PlusForm, order: int) -> LiftResult:
    """q^(-h) * prod_{n<=order} (1 - q^n)^{c(n^2)} for a plus-space form f.

    h = sum_{k>=0} c(-k) H(k), with H(0) = -1/12, summed in twelfths; reading
    c(n^2) up to n = order requires f to be known to order squared.  Only
    f's trunc, valuation() and coeff(e) are read.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if f.trunc < order * order:
        raise ValueError(f"lift to order {order} reads c(n^2) up to n = {order}; "
                         f"the form is only known to q^{f.trunc}")
    low = min(f.valuation() or 0, 0)
    H = hurwitz_range(-low)
    h24 = 2 * sum(f.coeff(e) * H[-e] for e in range(low, 1))  # H in twelfths
    table = ExponentTable(h24, {n: f.coeff(n * n) for n in range(1, order + 1)}, order)
    return LiftResult(product_from_exponents(table), table)


def zero_multiplicity(f: PlusForm, D: int) -> int:
    """Vanishing order of the lift at a quadratic irrational of discriminant D < 0.

    sum_{d>0} c(D d^2); only the finite principal part of f contributes.
    """
    if D >= 0:
        raise ValueError("D must be a negative discriminant")
    low = min(f.valuation() or 0, 0)
    return sum(f.coeff(D * d * d) for d in range(1, isqrt(low // D) + 1))


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
    f = catalog(name, max(printed) + 1)
    return [(n, f.coeff(n), c, f.coeff(n) == c) for n, c in sorted(printed.items())]


def fj_efactor_report(lifted: QSeries, order: int) -> dict:
    """Whether the displayed Eisenstein numerator in the f_j formula lifts to j.

    The prose around the formula names weight 4 while the display reads
    E_6(4t)/Delta(4t); the record has the display right and the prose as
    the slip.  ``lifted`` is the lift of the catalog's f_j to ``order``,
    the displayed E_6 variant 3 Q G + 168 theta, and a lift that misses j
    is reported as a regression against that record.
    """
    ok = lifted.agrees_with(forms.j_invariant(order), order)
    resolution = {True: "the displayed E6 numerator lifts to j; prose weight 4 is a slip",
                  False: "the displayed E6 numerator does not lift to j: a regression "
                         "against the record"}[ok]
    return {"formula_reads": "E6", "prose_reads": "E4", "used": "E6" if ok else None,
            "E6_lifts_to_j": ok, "resolution": resolution}
