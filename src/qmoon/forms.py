"""Catalog of classical q-expansions, each built from first principles.

Every call builds an exact QSeries afresh at the requested truncation order;
nothing is cached, so a caller needing several orders builds the deepest once.
Eisenstein series come from Bernoulli numbers, thetas and the discriminant
from lacunary sums (Delta through Jacobi's eta^3), the other eta products from
their defining infinite products.  The Leech theta function is assembled two
independent ways, cross-checked on every build.
"""

from __future__ import annotations

from math import comb, factorial, isqrt

from .series import (
    HALF,
    ExponentTable,
    QSeries,
    _rat,
    product_from_exponents,
)

__all__ = [
    "scaled_bernoulli",
    "eisenstein",
    "delta",
    "eta",
    "j_invariant",
    "jstar",
    "theta_nullwerte",
    "theta_full",
    "leech_theta",
    "partition_series",
    "colored_partition_series",
    "xi_series",
    "xi_from_p8",
    "F_oddsigma",
    "named_form",
]


def scaled_bernoulli(k: int) -> tuple:
    """Integers (a, m) with B_k = a / m, the k-th Bernoulli number, and m = (k + 1)!.

    B_j's denominator, a product of primes p <= j + 1 (von Staudt-Clausen),
    divides m, so sum_{i <= j} C(j + 1, i) B_i = 0 runs on the integers m B_i.
    """
    if k < 0:
        raise ValueError("Bernoulli numbers indexed by nonnegative integers")
    m = factorial(k + 1)
    scaled = {0: m, 1: -m // 2}  # and m B_i = 0 for odd i >= 3
    for j in range(2, k + 1, 2):
        scaled[j] = -sum(comb(j + 1, i) * x for i, x in scaled.items()) // (j + 1)
    return scaled.get(k, 0), m


def _sigma_table(ell: int, order: int) -> list:
    """[sigma_ell(1), ..., sigma_ell(order)] by a divisor sieve, index n-1."""
    table = [0] * (order + 1)
    for d in range(1, order + 1):
        step = d ** ell
        for m in range(d, order + 1, d):
            table[m] += step
    return table[1:]


def eisenstein(weight: int, order: int) -> QSeries:
    """Normalized Eisenstein series E_w = 1 - (2w/B_w) sum sigma_{w-1}(n) q^n."""
    if weight < 4 or weight % 2:
        raise ValueError(f"weight must be even and >= 4, got {weight}")
    a, m = scaled_bernoulli(weight)
    factor = _rat(-2 * weight * m, a)
    coeffs = {n: factor * s for n, s in enumerate(_sigma_table(weight - 1, order), 1)}
    return QSeries({0: 1, **coeffs}, order)


def _euler_power(b: int, h24: int, order: int) -> QSeries:
    """q^(-h24/24) prod_{n <= order} (1 - q^n)^b, through q^order."""
    table = ExponentTable(h24, dict.fromkeys(range(1, order + 1), b), order)
    return product_from_exponents(table).truncate(order)


def delta(order: int) -> QSeries:
    """Discriminant form eta^24 = q * prod (1-q^n)^24; coefficients are Ramanujan tau.

    Built as q (eta^3 / q^(1/8))^8, three squarings of Jacobi's lacunary
    eta^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2 + 1/8) (Hardy & Wright, Thm 357).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    cube = QSeries({k * (k + 1) // 2: (-1) ** k * (2 * k + 1)
                    for k in range(isqrt(2 * order) + 1) if k * (k + 1) // 2 < order}, order - 1)
    return (cube ** 8).shift(1)


def eta(order: int) -> QSeries:
    """Dedekind eta: prefactor q^(1/24) times prod (1-q^n)."""
    return _euler_power(1, -1, order)


def j_invariant(order: int) -> QSeries:
    """Modular invariant j = E_4^3 / delta, leading power -1."""
    n = order + 2
    e4 = eisenstein(4, n)
    return ((e4 * e4 * e4) / delta(n)).truncate(order)


def jstar(order: int) -> QSeries:
    """j with its constant term 744 removed."""
    return j_invariant(order) - 744


def theta_nullwerte(which: int, order: int) -> QSeries:
    """Theta constants on the half nome (variable stands for e^{i*pi*tau}).

    theta2 carries prefactor 1/4 and integer exponents n^2+n; theta3 and
    theta4 are supported on squares, theta4 with alternating signs.
    """
    root = isqrt(max(order, 0))
    if which == 2:
        coeffs = {n * n + n: 2 for n in range(root + 1) if n * n + n <= order}
        return QSeries(coeffs, order, nome=HALF, pre24=6)
    if which in (3, 4):
        sign = 1 if which == 3 else -1
        coeffs = {n * n: 2 * sign ** n for n in range(1, root + 1)}
        return QSeries({0: 1, **coeffs}, order, nome=HALF)
    raise ValueError(f"theta constant index must be 2, 3, or 4, got {which}")


def theta_full(order: int) -> QSeries:
    """theta(tau) = sum q^{n^2} on the full nome: theta3's coefficients."""
    return QSeries(theta_nullwerte(3, order).coeffs, order)


def _at_minus_q(s: QSeries) -> QSeries:
    """s at -q: on the half nome, theta4(q) = theta3(-q), since n^2 = n (mod 2)."""
    return s._like({e: -c if e % 2 else c for e, c in s.coeffs.items()}, s.trunc)


def leech_theta(order: int) -> QSeries:
    """Theta series of the Leech lattice, half nome, exponent = vector norm.

    Built two independent ways: from theta constants as
    (theta2^24 + theta3^24 + theta4^24)/2 - (69/16)(theta2 theta3 theta4)^8,
    and from the coefficient formula N_m = (65520/691)(sigma_11(m/2) - tau(m/2)).
    Any disagreement means a kernel bug, so every build is checked.  The
    theta4 powers are the theta3 powers at -q, and every power comes from
    the eighth powers; theta2^8 = q^2 (sum 2 q^(n^2+n))^8 sits on the
    integer grid, so no coefficient or exponent is a fraction.
    """
    root = isqrt(max(order, 0))
    t2_8 = (QSeries({n * n + n: 2 for n in range(root + 1) if n * n + n <= order}, order,
                    nome=HALF) ** 8).shift(2)
    t3_8 = theta_nullwerte(3, order) ** 8
    t3_24 = t3_8 * t3_8 * t3_8
    from_thetas = (t2_8 * t2_8 * t2_8 + t3_24 + _at_minus_q(t3_24)) / 2 \
        - 69 * (t2_8 * t3_8 * _at_minus_q(t3_8)) / 16
    half = order // 2
    d = delta(half)
    sig = _sigma_table(11, half) if half else []
    coeffs = {0: 1}
    for m in range(1, half + 1):
        n_m = _rat(65520 * (sig[m - 1] - d.coeff(m)), 691)
        if n_m:
            coeffs[2 * m] = n_m
    from_counts = QSeries(coeffs, order, nome=HALF)
    mismatch = from_thetas.first_mismatch(from_counts)
    if mismatch is not None:
        raise ArithmeticError(
            f"Leech theta constructions disagree at exponent {mismatch[0]}: "
            f"{mismatch[1]} vs {mismatch[2]}")
    return from_counts.truncate(min(order, from_thetas.trunc))


def partition_series(order: int) -> QSeries:
    """Generating series of the partition function, 1/prod(1-q^n)."""
    return colored_partition_series(1, order)


def colored_partition_series(k: int, order: int) -> QSeries:
    """Partitions with parts in k colors: 1/prod(1-q^n)^k."""
    if k < 1:
        raise ValueError("number of colors must be >= 1")
    return _euler_power(-k, 0, order)


def xi_series(order: int) -> QSeries:
    """phi(q)^-8 (1 - phi(q^2)/phi(q^4)) with phi(q) = prod(1-q^n)."""
    return xi_from_p8(colored_partition_series(8, order))


def xi_from_p8(inv8: QSeries) -> QSeries:
    """xi_series to the order of inv8 = phi(q)^-8, for a caller that reads
    the 8-colored partitions too and so builds them once."""
    order = inv8.trunc
    phi = _euler_power(1, 0, order)
    phi2 = phi.scale_var(2).truncate(order)
    phi4 = phi.scale_var(4).truncate(order)
    return (inv8 * (1 - phi2 / phi4)).truncate(order)


def F_oddsigma(order: int) -> QSeries:
    """F = sum over odd n of sigma_1(n) q^n."""
    sig = _sigma_table(1, order)
    return QSeries({n: sig[n - 1] for n in range(1, order + 1, 2)}, order)


_NAMED = {"delta": delta, "tau": delta, "eta": eta, "j": j_invariant,
          "jstar": jstar, "j*": jstar, "theta": theta_full, "theta_full": theta_full,
          "leech": leech_theta, "leech_theta": leech_theta, "f": F_oddsigma,
          "f_oddsigma": F_oddsigma, "partition": partition_series, "p": partition_series,
          "xi": xi_series}


def named_form(label: str, order: int) -> QSeries:
    """Resolve a catalog label like 'E6', 'delta', 'theta2', 'p24' to a series."""
    low = label.strip().lower()
    if low in _NAMED:
        return _NAMED[low](order)
    family, index = low[:1], low[1:]
    if index.isascii() and index.isdigit():
        if family == "e":
            return eisenstein(int(index), order)
        if family == "p":
            return colored_partition_series(int(index), order)
    if low in ("theta2", "theta3", "theta4"):
        return theta_nullwerte(int(low[-1]), order)
    raise ValueError(f"unknown form label {label!r}")
