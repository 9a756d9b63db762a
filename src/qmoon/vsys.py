"""Vector systems on a positive-definite lattice and their Jacobi-type products.

A vector system is a finite symmetric multiplicity function c on lattice
vectors whose second moment is isotropic; it carries Weyl data (rho, d,
index m) and the product

    psi(tau, z) = q^(d/24) zeta^(-rho) prod_{(v,n)>0} (1 - q^n zeta^v),

expanded here into a plain {(n, r): c} dict with the zeta-exponent r on
the doubled grid, where the half-integral rho is held as the integers 2 rho.
The two elliptic shift laws are checked by formal substitution, coefficient
for coefficient.  A system is taken as given: its symmetry and isotropy are
not checked on load, and a system that lacks them shows up as a failed
shift law.
"""

from __future__ import annotations

from operator import sub
from typing import NamedTuple

from .series import (BiSeries, VerifyReport, _first_mismatch, _fmt_rat, _fmt_tuple,
                     _json_fields, _json_table, _num, _rat)


def _positive_definite(gram) -> bool:
    """Sylvester's criterion in O(n^3): a fraction-free (Bareiss) elimination,
    whose k-th pivot is the k-th leading principal minor (divisions are exact)."""
    m, prev = [list(r) for r in gram], 1
    for k, row in enumerate(m):
        if row[k] <= 0:
            return False
        for r in m[k + 1:]:
            r[k + 1:] = [(x * row[k] - r[k] * y) // prev for x, y in zip(r[k + 1:], row[k + 1:])]
        prev = row[k]
    return True


class VectorSystem:
    """Lattice dimension, gram matrix, and the multiplicity function c."""

    __slots__ = ("dim", "gram", "mult")

    def __init__(self, dim: int, gram, mult):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self.gram = tuple(tuple(int(x) for x in row) for row in gram)
        if len(self.gram) != self.dim or any(len(r) != self.dim for r in self.gram):
            raise ValueError("gram matrix must be dim x dim")
        if any(self.gram[i][j] != self.gram[j][i] for i in range(self.dim)
               for j in range(self.dim)):
            raise ValueError("gram matrix must be symmetric")
        if not _positive_definite(self.gram):
            raise ValueError("gram matrix must be positive definite")
        self.mult = {}
        for v, c in mult.items():
            v = tuple(int(x) for x in v)
            if len(v) != self.dim:
                raise ValueError(f"vector {v} has wrong dimension")
            if int(c) < 0:
                raise ValueError(f"multiplicity c({v}) = {c} must be nonnegative")
            if c:
                self.mult[v] = int(c)

    def pair(self, a, b):
        """(a, b) under the gram matrix; exact on rational input."""
        total = 0
        for i, ai in enumerate(a):
            if ai:
                total += ai * sum(self.gram[i][j] * b[j] for j in range(self.dim))
        return total

    @classmethod
    def from_json(cls, data: dict) -> "VectorSystem":
        dim, _ = _json_fields(data, "vector system", dim=int, mult=dict)
        gram = data.get("gram")
        if not isinstance(gram, list) or not all(
                isinstance(row, list) and all(isinstance(x, int) and not isinstance(x, bool)
                                              for x in row) for row in gram):
            raise ValueError("vector system field 'gram' must be a list of integer rows")
        return cls(dim, gram, _json_table(data, "vector system", "mult", dim))

    def __repr__(self):
        return f"VectorSystem(dim={self.dim}, support={len(self.mult)})"


class WeylData(NamedTuple):
    """Chamber vector, twice the Weyl vector rho, count d, and index m."""

    chamber: tuple
    two_rho: tuple
    d: int
    m: int


def weyl_data(V: VectorSystem, lam) -> WeylData:
    """2 rho = sum_{v>0} c(v) v, d = sum c(v), m = (2s)^-1 sum c(v)(v,v).

    lam fixes the chamber; it must pair nonzero with every nonzero support
    vector.  The index must come out a nonnegative integer.
    """
    lam = tuple(_rat(x) for x in lam)
    if len(lam) != V.dim:
        raise ValueError("chamber vector has wrong dimension")
    zero = (0,) * V.dim
    two_rho = [0] * V.dim
    norm_sum = 0
    for v, c in V.mult.items():
        norm_sum += c * V.pair(v, v)
        if v == zero:
            continue
        p = V.pair(v, lam)
        if p == 0:
            raise ValueError(f"chamber vector is orthogonal to support vector {v}")
        if p > 0:
            for i in range(V.dim):
                two_rho[i] += c * v[i]
    m = _rat(norm_sum, 2 * V.dim)
    if m.denominator != 1:
        raise ArithmeticError(f"index {m} is not an integer; not a vector system")
    return WeylData(lam, tuple(two_rho), sum(V.mult.values()), m)


def psi(V: VectorSystem, lam, order: int) -> tuple:
    """psi through q^order as (d, {(n, r): c}), psi = q^(d/24) sum c q^n zeta^(r/2).

    The product over positive affine vectors (n > 0 all of V, n = 0 only
    v > 0) runs as one BiSeries product in q and a single packed zeta
    exponent.  Each factor moves r by 2v, so r = 2u - 2 rho for the
    half-offset u, a sum of support vectors, and u is coded as sum u_i
    base^i with balanced digits |u_i| <= reach.  A kept term has sum k n <=
    order, so reach, the n = 0 factors' sum of c |v_i| plus order times the
    largest |v_i|, bounds every coordinate any partial product can hold: the
    code is one-to-one and the result decodes digit by digit.  A row's codes
    span up to base^dim, but the product keeps far-apart codes in separate
    runs, so the work follows the terms, not that span.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    wd = weyl_data(V, lam)
    zero = (0,) * V.dim
    support = sorted(V.mult.items())
    # (n, v, c): the factor (1 - q^n zeta^v)^c, largest q-step first and the
    # n = 0 factors last, so that each factor reads only the rows already reached
    positive = [(0, v, c) for v, c in support if v != zero and V.pair(v, wd.chamber) > 0]
    reach = max(sum(c * abs(v[i]) for _, v, c in positive)
                + order * max((abs(v[i]) for v in V.mult), default=0) for i in range(V.dim))
    factors = [(n, v, c) for n in range(order, 0, -1) for v, c in support] + positive
    base = 2 * reach + 1
    acc = BiSeries.one(order).mul_binomials(
        [(n, sum(x * base ** i for i, x in enumerate(v)), c, -1) for n, v, c in factors])
    coeffs = {}
    for (n, y), c in acc.coeffs.items():
        r = []
        for x in wd.two_rho:
            u = (y + reach) % base - reach
            r.append(2 * u - x)
            y = (y - u) // base
        coeffs[(n, tuple(r))] = c
    return wd.d, coeffs


def _integral_pair(V, a, b, what):
    p = V.pair(a, b)
    if p.denominator != 1:
        raise ValueError(f"{what} pairs non-integrally: {_fmt_tuple((a, b))} = {p}")
    return int(p)


def elliptic_transform_check(V: VectorSystem, lam, shift, order: int) -> tuple:
    """Formal substitution checks of both elliptic shift laws of one psi.

    mu:  psi(tau, z + mu)      = (-1)^(2(rho,mu)) psi(tau, z)
    tau: psi(tau, z + L*tau)   = (-1)^(2(rho,L)) q^(-m(L,L)/2) zeta^(-mL) psi

    The shift, taken as mu and as L, must pair integrally with every support
    vector; the (mu, tau) reports come back as a pair.  For the tau law both
    sides pick up column-dependent fractional q-exponents, so each
    zeta-column is compared within its own known range, keyed by twice the
    q-exponent.
    """
    shift = tuple(_rat(x) for x in shift)
    if len(shift) != V.dim:
        raise ValueError("shift vector has wrong dimension")
    for v in V.mult:
        _integral_pair(V, shift, v, "shift vector")
    _, coeffs = psi(V, lam, order)
    wd = weyl_data(V, lam)
    sign = -1 if V.pair(shift, wd.two_rho) % 2 else 1  # 2 rho sums support vectors
    m_ll = _num(wd.m * V.pair(shift, shift))  # rhs q-exponent drops by m(L,L)/2
    key_shift = tuple(2 * wd.m * x for x in shift)
    if any(x.denominator != 1 for x in key_shift):
        raise ValueError(f"zeta^(-m*shift) leaves the doubled grid: {_fmt_tuple(key_shift)}")
    key_shift = tuple(int(x) for x in key_shift)
    # 2(shift, r/2) per column r, an integer: r/2 is -rho plus support vectors
    pairs = {r: int(V.pair(shift, r)) for r in {r for _, r in coeffs}}
    top = 2 * order - m_ll
    mu_lhs, tau_lhs, tau_rhs = {}, {}, {}
    for (n, r), c in coeffs.items():
        t = pairs[r]
        mu_lhs[(n, r)] = -c if t % 2 else c
        # keyed (column, twice the q-exponent), each side keeping the keys both
        # know: column c through 2 order + 2(shift, c/2) on the lhs and through
        # 2 order - m(L,L) on the rhs, whose column r - 2mL pairs 2m(L,L) less
        if 2 * n + t <= top:
            tau_lhs[(r, 2 * n + t)] = c
        if 2 * n + m_ll <= 2 * order + t:
            tau_rhs[(tuple(map(sub, r, key_shift)), 2 * n - m_ll)] = sign * c
    mu = VerifyReport("elliptic_mu_shift", order,
                      _first_mismatch(mu_lhs, {k: sign * c for k, c in coeffs.items()}))
    mismatch = _first_mismatch(tau_lhs, tau_rhs)
    if mismatch is not None:  # its q-exponent e/2 printed as the report has it
        (r, e), left, right = mismatch
        mismatch = ((_fmt_rat(e, 2), r), left, right)
    return mu, VerifyReport("elliptic_tau_shift", order, mismatch)
