"""The two-variable monster identities at g = 1.

Both checks compare expansions of j*(p) - j*(q): the denominator form writes
it as p^-1 prod (1 - p^m q^n)^{c(mn)}, the replication form as
p^-1 exp(-sum c(mn) p^{mi} q^{ni} / i).  The coefficients c(n) are read
from the QSeries j - 744, once its shape is checked.  Everything is
coefficient-exact inside rectangular caps.
"""

from __future__ import annotations

from operator import mul

from . import forms
from .series import BiSeries, QSeries, VerifyReport


def moonshine_c(max_n: int) -> QSeries:
    """j - 744 = sum_{n >= -1} c(n) q^n through q^max_n, shape-checked.

    c(-1) = 1 is the lowest term, c(0) = 0 and every c(n) with n >= 1 is
    positive; indexing reads c(n), 0 below -1 and refused past max_n.
    """
    c = forms.jstar(max_n)
    if c.valuation() != -1 or c.coeffs[-1] != 1 or 0 in c.coeffs:
        raise ValueError("moonshine coefficients start q^-1 + 0 + 196884q + ...")
    for n, v in c.coeffs.items():
        if n >= 1 and v <= 0:
            raise ValueError(f"c({n}) = {v} must be positive")
    return c


# -- the two identity sides ----------------------------------------------------
#
# Both sides are built with a p-budget of M = cap_m + 1 before the p^-1 shift.
# Every monomial p^a q^b of a factor has b >= -a, and the one factor with b < 0
# is 1 - p/q, met once as c(-1) = 1 (moonshine_c checks it).  So a monomial the
# denominator product drops above q^(cap_n + 1) comes down at most one q, and
# the q-top mul_binomials gives it is cap_n, from the one term that factor uses.
#
# The replication side, built to hi = cap_n + M, needs no such argument.
# bi_exp runs the exp recurrence m B_m = sum_k w_k B_{m-k} on q-rows: w_k =
# k T_k, for T_k the p^k row of the exponent, is known through q^hi and has
# q-valuation >= -k, so the kernel's truncation bookkeeping shows B_m known
# through q^(hi + 1 - m) by induction, B_0 = 1 being exact.  Its smallest row
# truncation, hi + 1 - M = cap_n + 1, is the result's q-top.

def _grid(cap_m, cap_n):
    big_m = cap_m + 1
    return big_m, cap_n + big_m


def _sum_side(cap_m, cap_n) -> BiSeries:
    """j*(p) - j*(q) on the compared rectangle."""
    c = moonshine_c(max(cap_m, cap_n))
    coeffs = {(m, 0): c[m] for m in range(-1, cap_m + 1)}  # BiSeries drops the zeros
    for n in range(-1, cap_n + 1):
        coeffs[(0, n)] = coeffs.get((0, n), 0) - c[n]
    return BiSeries(coeffs, cap_m, ytop=cap_n)


def denominator_product(cap_m: int, cap_n: int) -> BiSeries:
    """p^-1 prod_{m>0, n>=-1} (1 - p^m q^n)^{c(mn)} within the closed caps."""
    big_m, hi = cap_m + 1, cap_n + 1  # the q-top that 1 - p/q, met once, allows
    c = moonshine_c(big_m * hi)
    # n descending, then m: the slots are repacked less often than with m outer
    factors = [(m, n, c[m * n], -1) for n in range(hi, -2, -1) for m in range(1, big_m + 1)
               if m * n <= c.trunc and c[m * n]]
    return BiSeries.one(big_m, ytop=hi).mul_binomials(factors).shift_x(-1)


def replication_exponent(cap_m: int, cap_n: int) -> BiSeries:
    """w = p dT/dp for the exp argument T = -sum_{i>0} sum_{m>0, n>=-1} c(mn) p^{mi} q^{ni} / i:
    the integers -m c(mn) at p^{mi} q^{ni}, summed over the (m, i, n) that meet there."""
    big_m, hi = _grid(cap_m, cap_n)
    c = moonshine_c(big_m * hi)
    coeffs = {}
    for i in range(1, big_m + 1):
        for m in range(1, big_m // i + 1):
            for n in range(-1, hi // i + 1):
                v = c[m * n] if m * n <= c.trunc else 0
                if v:
                    key = (m * i, n * i)
                    coeffs[key] = coeffs.get(key, 0) - m * v
    return BiSeries(coeffs, big_m, ytop=hi)


def bi_exp(w: BiSeries) -> BiSeries:
    """exp(T) from w = x dT/dx, for a bivariate T whose every term has positive
    first-variable power x.

    The exp recurrence runs on the first-variable rows, each a QSeries in the
    second variable known through the y-top, and the result's y-top is the
    smallest row truncation.  The constant row 1 is exact, so it is known
    far enough never to bind, even under a y-top below 0.  Without a y-top
    the rows are exact: with second-variable exponents in [lo, hi]
    (lo <= 0 <= hi), a row top of cap (hi - lo) keeps every row known
    through cap hi, past any exponent the exp reaches, so the result needs
    no y-top.
    """
    if any(ex < 1 for (ex, _) in w.coeffs):
        raise ValueError("bivariate exp needs a positive power of the first variable")
    ys = [ey for _, ey in w.coeffs] or [0]
    lo = min(min(ys), 0)
    top = w.ytop if w.ytop is not None else w.cap * (max(max(ys), 0) - lo)
    rows = [{} for _ in range(w.cap)]
    for (ex, ey), c in w.coeffs.items():
        rows[ex - 1][ey] = c
    ws = [QSeries(row, top) for row in rows]  # w_k = k T_k, the x^k row of w
    # w_k * 1 is known through min(top, unit top + valuation of w_k) >= top
    b = [QSeries.one(top - lo)]
    for m in range(1, w.cap + 1):  # m B_m = sum_k w_k B_{m-k}
        b.append(sum(map(mul, ws, reversed(b))) / m)
    return BiSeries({(m, ey): c for m, row in enumerate(b) for ey, c in row.coeffs.items()},
                    w.cap, ytop=None if w.ytop is None else min(row.trunc for row in b))


def replication_product(cap_m: int, cap_n: int) -> BiSeries:
    """p^-1 exp(-sum c(mn) p^{mi} q^{ni} / i) within the closed caps."""
    return bi_exp(replication_exponent(cap_m, cap_n)).shift_x(-1)


def denominator_check(cap_m: int, cap_n: int) -> VerifyReport:
    """Product form vs j*(p) - j*(q), exact on p-degree <= cap_m and q-degree <= cap_n."""
    if cap_m < 1 or cap_n < 1:
        raise ValueError("caps must be >= 1")
    lhs = denominator_product(cap_m, cap_n)
    return VerifyReport("monster_denominator", (cap_m, cap_n),
                        lhs.first_mismatch(_sum_side(cap_m, cap_n)))


def replication_check(cap: int) -> VerifyReport:
    """Exponential form vs j*(p) - j*(q) on the square caps (cap, cap)."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    lhs = replication_product(cap, cap)
    return VerifyReport("monster_replication", (cap, cap), lhs.first_mismatch(_sum_side(cap, cap)))
