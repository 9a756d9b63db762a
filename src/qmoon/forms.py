"""Catalog of classical q-expansions, each built from first principles.

Every call builds an exact QSeries afresh at the requested truncation order;
nothing is cached, so a caller needing several orders builds the deepest once.
Eisenstein series come from Bernoulli numbers, eta products from their
defining infinite products, thetas as explicit lacunary sums.  The Leech
theta function is assembled two independent ways, cross-checked on every build.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

from .series import (
    HALF,
    ExponentTable,
    QSeries,
    _inverse,
    product_from_exponents,
)

__all__ = [
    "bernoulli",
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
    "F_oddsigma",
    "named_form",
]


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number, k! [x^k] x/(e^x - 1), by the kernel's series inverse."""
    if k < 0:
        raise ValueError("Bernoulli numbers indexed by nonnegative integers")
    inverse = _inverse([Fraction(1, factorial(j + 1)) for j in range(k + 1)], k + 1)
    return Fraction(factorial(k) * inverse[k])


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
    factor = Fraction(-2 * weight) / bernoulli(weight)
    coeffs = {n: factor * s for n, s in enumerate(_sigma_table(weight - 1, order), 1)}
    return QSeries({0: 1, **coeffs}, order)


def _euler_power(b: int, h, order: int) -> QSeries:
    """q^(-h) prod_{n <= order} (1 - q^n)^b, through q^order."""
    table = ExponentTable(h, dict.fromkeys(range(1, order + 1), b), order)
    return product_from_exponents(table).truncate(order)


def delta(order: int) -> QSeries:
    """Discriminant form eta^24 = q * prod (1-q^n)^24; coefficients are Ramanujan tau."""
    return _euler_power(24, -1, order)


def eta(order: int) -> QSeries:
    """Dedekind eta: prefactor q^(1/24) times prod (1-q^n)."""
    return _euler_power(1, Fraction(-1, 24), order)


def j_invariant(order: int) -> QSeries:
    """Modular invariant j = E_4^3 / delta, leading power -1."""
    n = order + 2
    e4 = eisenstein(4, n)
    return ((e4 * e4 * e4) * delta(n).invert()).truncate(order)


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
        return QSeries(coeffs, order, nome=HALF, prefactor=Fraction(1, 4))
    if which in (3, 4):
        sign = 1 if which == 3 else -1
        coeffs = {n * n: 2 * sign ** n for n in range(1, root + 1)}
        return QSeries({0: 1, **coeffs}, order, nome=HALF)
    raise ValueError(f"theta constant index must be 2, 3, or 4, got {which}")


def theta_full(order: int) -> QSeries:
    """theta(tau) = sum q^{n^2} on the full nome: theta3's coefficients."""
    return QSeries(theta_nullwerte(3, order).coeffs, order)


def leech_theta(order: int) -> QSeries:
    """Theta series of the Leech lattice, half nome, exponent = vector norm.

    Built two independent ways: from theta constants as
    (theta2^24 + theta3^24 + theta4^24)/2 - (69/16)(theta2 theta3 theta4)^8,
    and from the coefficient formula N_m = (65520/691)(sigma_11(m/2) - tau(m/2)).
    Any disagreement means a kernel bug, so every build is checked.
    """
    t2 = theta_nullwerte(2, order)
    t3 = theta_nullwerte(3, order)
    t4 = theta_nullwerte(4, order)
    from_thetas = ((t2 ** 24).canonical() + t3 ** 24 + t4 ** 24) * Fraction(1, 2) \
        - Fraction(69, 16) * ((t2 * t3 * t4) ** 8).canonical()
    half = order // 2
    d = delta(half)
    sig = _sigma_table(11, half) if half else []
    coeffs = {0: 1}
    for m in range(1, half + 1):
        n_m = Fraction(65520, 691) * (sig[m - 1] - d.coeff(m))
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
    phi = _euler_power(1, 0, order)
    phi2 = phi.scale_var(2).truncate(order)
    phi4 = phi.scale_var(4).truncate(order)
    inv8 = colored_partition_series(8, order)
    return (inv8 * (1 - phi2 * phi4.invert())).truncate(order)


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
