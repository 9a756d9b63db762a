"""Verifier for the classical product identities, one label per identity.

Each label binds two independently built sides, a direct summation against
a product, expands both to the requested order, and reports the first
mismatching monomial in graded-lex order.  A two-variable product is one
``BiSeries.mul_binomials`` call over its binomial factors, and every such
side is known in every z-power through q^order, so none needs a z-top.  A
one-variable product is an Euler exponent table q^-h prod (1 - q^n)^{e_n}
(an eta quotient), each factor 1 + q^a written as (1 - q^2a) / (1 - q^a).
Failure is data, not an error: one printed variant of the quintuple identity
is checked exactly as stated and its outcome recorded by the caller.
"""

from __future__ import annotations

from math import isqrt

from . import forms
from .series import (
    HALF,
    BiSeries,
    ExponentTable,
    QSeries,
    VerifyReport,
    product_from_exponents,
)

__all__ = ["IDENTITY_LABELS", "verify", "verify_all", "identity_sides"]


def _sigma_series(ell, order):
    return QSeries(dict(enumerate(forms._sigma_table(ell, order), 1)), order)


# -- two-variable sums against binomial products -----------------------------------
#
# A sum side holds the monomials ((q-exponent, z-exponent), coefficient) of
# each integer m (a lattice sum) or one over (1 - q)...(1 - q^n) for each
# n >= 0 (a Pochhammer sum); a product side is a front monomial times the
# factors (a, b, e, sign) = (1 + sign q^a z^b)^e of each n >= 1.


def _lattice_sum(order, terms):
    """Sum of terms(m) over all integers m, keeping q-exponents <= order.

    Every sum side below has q-exponent at least m^2 - |m|, so |m| <=
    isqrt(order) + 1 reaches every monomial under the cap.
    """
    r = isqrt(order) + 1
    coeffs = {}
    for m in range(-r, r + 1):
        for key, c in terms(m):
            if key[0] <= order:
                coeffs[key] = coeffs.get(key, 0) + c
    return BiSeries(coeffs, order)


def _pochhammer_sum(order, monomial):
    """Sum of monomial(n) / ((1 - q)...(1 - q^n)) over n >= 0, keeping q-exponents <= order.

    The inverse product is one list of q-coefficients, divided by 1 - q^n
    in place as n grows (the partition recurrence).  Every sum side below
    has n <= order for each monomial it keeps, whose q-exponent, n(n+1)/2
    or n, is at most order.
    """
    inv = [1] + [0] * order
    coeffs = {}
    for n in range(order + 1):
        if n:
            for i in range(n, order + 1):
                inv[i] += inv[i - n]
        (e, y), c = monomial(n)
        for i in range(order - e + 1):
            if inv[i]:
                key = (e + i, y)
                coeffs[key] = coeffs.get(key, 0) + c * inv[i]
    return BiSeries(coeffs, order)


def _lattice_product(order, front, factors):
    """front * prod of factors(n) with a <= order; every a >= n - 1, so n <= order + 1.

    The factors go in descending x-step a, so each factor reads only the rows
    that the larger steps have reached.
    """
    return BiSeries(front, order).mul_binomials(sorted(
        (f for n in range(order + 1, 0, -1) for f in factors(n) if f[0] <= order),
        key=lambda f: -f[0]))


def _pentagonal(m):
    return (3 * m * m + m) // 2


# -- one-variable identity sides, one function per label ---------------------------


def _euler3(order):
    # pentagonal-type sum with prefactor q^{1/24} against q^{1/24} prod (1-q^n)
    pentagonal = _lattice_sum(order, lambda m: [((_pentagonal(m), 0), (-1) ** (m % 2))])
    lhs = QSeries({e: c for (e, _), c in pentagonal.coeffs.items()}, order,
                  pre24=1)
    return [(lhs, forms.eta(order))]


def _gauss(order):
    lhs = QSeries({0: 1, **{n * n: 2 for n in range(1, isqrt(order) + 1)}}, order)
    # prod (1-q^{2n})(1+q^{2n-1})^2, with 1 + q^a = (1 - q^{2a}) / (1 - q^a)
    rhs = product_from_exponents(
        ExponentTable(0, {n: (1, -2, 3, -2)[n % 4] for n in range(1, order + 1)}, order))
    return [(lhs, rhs)]


def _eisen_relations(order):
    e4 = forms.eisenstein(4, order)
    e6 = forms.eisenstein(6, order)
    return [
        (e4 * e4, forms.eisenstein(8, order)),
        (e4 * e6, forms.eisenstein(10, order)),
        (e4 * e4 * e6, forms.eisenstein(14, order)),
    ]


def _jacobi_delta(order):
    e4 = forms.eisenstein(4, order)
    e6 = forms.eisenstein(6, order)
    lhs = (e4 ** 3 - e6 ** 2) / 1728
    rhs = product_from_exponents(
        ExponentTable(-24, {n: 24 for n in range(1, order + 1)}, order))
    return [(lhs, rhs)]


def _theta_nullwert_products(order):
    def product(h24, exps):  # q^(-h24/24) prod (1-q^n)^{e_n}, e_n = exps[n mod len(exps)]
        table = ExponentTable(h24, {n: exps[n % len(exps)] for n in range(1, order + 1)}, order)
        return product_from_exponents(table, nome=HALF)

    return [
        # 2 q^{1/4} prod (1-q^{2n})(1+q^{2n})^2, with 1 + q^a = (1 - q^{2a}) / (1 - q^a)
        (forms.theta_nullwerte(2, order), 2 * product(-6, (1, 0, -1, 0))),
        # prod (1-q^{2n})(1+q^{2n-1})^2, with 1 + q^a = (1 - q^{2a}) / (1 - q^a)
        (forms.theta_nullwerte(3, order), product(0, (1, -2, 3, -2))),
        # prod (1-q^{2n})(1-q^{2n-1})^2, which has no 1 + q^a factor
        (forms.theta_nullwerte(4, order), product(0, (1, 2))),
    ]


def _delta_theta(order):
    lhs = product_from_exponents(
        ExponentTable(-48, {2 * n: 24 for n in range(1, order // 2 + 1)}, order),
        nome=HALF)
    t2 = forms.theta_nullwerte(2, order)
    t3 = forms.theta_nullwerte(3, order)
    t4 = forms.theta_nullwerte(4, order)
    rhs = (((t2 * t3 * t4) ** 8) / 256).canonical()
    return [(lhs, rhs)]


def _sigma_convolutions(order):
    s3 = _sigma_series(3, order)
    s5 = _sigma_series(5, order)
    s7 = _sigma_series(7, order)
    s9 = _sigma_series(9, order)
    return [
        (s7, s3 + 120 * (s3 * s3)),
        (11 * s9, 21 * s5 - 10 * s3 + 5040 * (s3 * s5)),
    ]


# -- every identity, in the order ``verify all`` runs them ---------------------------
#
# A label maps to its one-variable builder or to the two-variable rows
# ((sum function, its terms), front, product factors), one per pair;
# the theta rows drop the common factors q^{1/4} (and 1/i for the first one)
# and keep zeta exponents literal, so they are even except in the first two.
_IDENTITIES = {
    # sum (-1)^n q^{n(n+1)/2} z^n / ((1-q)...(1-q^n)) = prod_{n >= 1} (1 - q^n z)
    "euler1": [((_pochhammer_sum, lambda n: ((n * (n + 1) // 2, n), (-1) ** n)), {(0, 0): 1},
                lambda n: [(n, 1, 1, -1)])],
    # sum q^n z^n / ((1-q)...(1-q^n)) = prod_{n >= 1} (1 - q^n z)^{-1}: the printed
    # sum z^n / ((1-q)...(1-q^n)) = prod_{n >= 0} (1 - q^n z)^{-1} times its n = 0
    # factor 1 - z (Andrews, The Theory of Partitions, Cor. 2.2 at t = zq).  That
    # factor has no q, so agreement through q^order in every z-power is the
    # printed identity's, and neither side needs a z-top
    "euler2": [((_pochhammer_sum, lambda n: ((n, n), 1)), {(0, 0): 1},
                lambda n: [(n, 1, -1, -1)])],
    "euler3": _euler3,
    "gauss": _gauss,
    "triple": [((_lattice_sum, lambda m: [((m * m, m), (-1) ** (m % 2))]), {(0, 0): 1},
                lambda n: [(2 * n, 0, 1, -1), (2 * n - 1, 1, 1, -1), (2 * n - 1, -1, 1, -1)])],
    "quintuple_w1": [(
        (_lattice_sum,
         lambda m: [((_pentagonal(m), 3 * m), 1), ((_pentagonal(m), -3 * m - 1), -1)]),
        {(0, 0): 1},
        lambda n: [(n, 0, 1, -1), (n, 1, 1, -1), (n - 1, -1, 1, -1),
                   (2 * n - 1, 2, 1, -1), (2 * n - 1, -2, 1, -1)],
    )],
    # run exactly as printed; the outcome is recorded, not corrected
    "quintuple_w2": [(
        (_lattice_sum,
         lambda m: [((m * (3 * m + 2), -3 * m), 1), ((m * (3 * m + 2), 3 * m + 2), -1)]),
        {(0, 0): 1},
        lambda n: [(2 * n, 0, 1, -1), (2 * n, -2, 1, -1), (2 * n - 2, 2, 1, -1),
                   (2 * n - 1, 1, -1, 1), (2 * n - 1, -1, 1, 1)],
    )],
    "eisen_relations": _eisen_relations,
    "jacobi_delta": _jacobi_delta,
    "theta_products": [
        # theta1 over 1/i: sum (-1)^n q^{n^2+n} z^{2n+1} = (z - 1/z) prod ...
        ((_lattice_sum, lambda m: [((m * m + m, 2 * m + 1), (-1) ** (m % 2))]),
         {(0, 1): 1, (0, -1): -1},
         lambda n: [(2 * n, 0, 1, -1), (2 * n, 2, 1, -1), (2 * n, -2, 1, -1)]),
        # theta2: sum q^{n^2+n} z^{2n+1} = z prod (1-q^{2n})(1+q^{2n}z^2)(1+q^{2n-2}z^-2)
        ((_lattice_sum, lambda m: [((m * m + m, 2 * m + 1), 1)]), {(0, 1): 1},
         lambda n: [(2 * n, 0, 1, -1), (2 * n, 2, 1, 1), (2 * n - 2, -2, 1, 1)]),
        # theta3: sum q^{n^2} z^{2n} = prod (1-q^{2n})(1+q^{2n-1}z^2)(1+q^{2n-1}z^-2)
        ((_lattice_sum, lambda m: [((m * m, 2 * m), 1)]), {(0, 0): 1},
         lambda n: [(2 * n, 0, 1, -1), (2 * n - 1, 2, 1, 1), (2 * n - 1, -2, 1, 1)]),
        # theta4: sum (-1)^n q^{n^2} z^{2n} = prod (1-q^{2n})(1-q^{2n-1}z^2)(1-q^{2n-1}z^-2)
        ((_lattice_sum, lambda m: [((m * m, 2 * m), (-1) ** (m % 2))]), {(0, 0): 1},
         lambda n: [(2 * n, 0, 1, -1), (2 * n - 1, 2, 1, -1), (2 * n - 1, -2, 1, -1)]),
    ],
    "theta_nullwert_products": _theta_nullwert_products,
    "delta_theta": _delta_theta,
    "sigma_convolutions": _sigma_convolutions,
}

IDENTITY_LABELS = tuple(_IDENTITIES)


def identity_sides(name: str, order: int):
    """The independently built (lhs, rhs) pairs behind an identity label."""
    if name not in IDENTITY_LABELS:
        raise ValueError(f"unknown identity label {name!r}")
    if order < 1:
        raise ValueError("order must be >= 1")
    entry = _IDENTITIES[name]
    if callable(entry):
        return entry(order)
    return [(sum_side(order, terms), _lattice_product(order, front, factors))
            for (sum_side, terms), front, factors in entry]


def verify(name: str, order: int) -> VerifyReport:
    """Expand both sides of one identity and compare coefficient-wise."""
    mismatches = (lhs.first_mismatch(rhs) for lhs, rhs in identity_sides(name, order))
    return VerifyReport(name, order, next((m for m in mismatches if m is not None), None))


def verify_all(order: int) -> list:
    """Run every identity label at the given order."""
    return [verify(name, order) for name in IDENTITY_LABELS]
