"""Vector systems on a positive-definite lattice and their Jacobi-type products.

A vector system is a finite symmetric multiplicity function c on lattice
vectors whose second moment is isotropic; it carries Weyl data (rho, d,
weight k = c(0)/2, index m) and the product

    psi(tau, z) = q^(d/24) zeta^(-rho) prod_{(v,n)>0} (1 - q^n zeta^v),

expanded here with zeta-exponents stored on the doubled grid so the
half-integral rho stays exact.  The two elliptic shift laws are checked by
formal substitution, coefficient for coefficient.  A system is taken as
given: its symmetry and isotropy are not checked on load, and a system
that lacks them shows up as a failed shift law.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .identities import VerifyReport
from .series import BiSeries, _first_mismatch, _json_fields, _json_table


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

    def to_json(self) -> dict:
        return {"dim": self.dim, "gram": [list(r) for r in self.gram],
                "mult": {",".join(map(str, v)): c for v, c in sorted(self.mult.items())}}

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
    """Chamber vector, Weyl vector rho, count d, weight k, and index m."""

    chamber: tuple
    rho: tuple
    d: int
    k: Fraction
    m: int


def weyl_data(V: VectorSystem, lam) -> WeylData:
    """rho = (1/2) sum_{v>0} v, d = sum c(v), k = c(0)/2, m = (2s)^-1 sum c(v)(v,v).

    lam fixes the chamber; it must pair nonzero with every nonzero support
    vector.  The index must come out a nonnegative integer.
    """
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != V.dim:
        raise ValueError("chamber vector has wrong dimension")
    zero = (0,) * V.dim
    rho = [Fraction(0)] * V.dim
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
                rho[i] += Fraction(c * v[i], 2)
    m = Fraction(norm_sum, 2 * V.dim)
    if m.denominator != 1:
        raise ArithmeticError(f"index {m} is not an integer; not a vector system")
    d = sum(V.mult.values())
    return WeylData(lam, tuple(rho), d, Fraction(V.mult.get(zero, 0), 2), int(m))


class PsiSeries:
    """q^qpre * sum c(n, r) q^n zeta^(r/2), with r an integer tuple (doubled grid)."""

    __slots__ = ("s", "qpre", "coeffs", "trunc")

    def __init__(self, s, qpre, coeffs, trunc):
        self.s = int(s)
        self.qpre = Fraction(qpre)
        self.trunc = int(trunc)
        self.coeffs = {}
        for (n, r), c in coeffs.items():
            if n > self.trunc:
                raise ValueError(f"stored q-exponent {n} above trunc {self.trunc}")
            if c:
                self.coeffs[(int(n), tuple(int(x) for x in r))] = c

    def coeff(self, n: int, r):
        if n > self.trunc:
            raise ValueError(f"coefficient at q^{n} unknown (trunc {self.trunc})")
        return self.coeffs.get((n, tuple(r)), 0)

    def __eq__(self, other):
        if not isinstance(other, PsiSeries):
            return NotImplemented
        if self.s != other.s or self.qpre != other.qpre:
            return False
        hi = min(self.trunc, other.trunc)
        return _first_mismatch(self.coeffs, other.coeffs, lambda k: k[0] <= hi) is None

    __hash__ = None

    def __repr__(self):
        return f"PsiSeries(s={self.s}, qpre={self.qpre}, trunc={self.trunc})"

    def to_json(self) -> dict:
        terms = [{"q": n, "zeta2": list(r), "c": c}
                 for (n, r), c in sorted(self.coeffs.items())]
        return {"dim": self.s, "qpre": str(self.qpre), "trunc": self.trunc,
                "terms": terms}


def psi(V: VectorSystem, lam, order: int) -> PsiSeries:
    """The product over positive affine vectors: n > 0 all of V, n = 0 only v > 0.

    It runs as one BiSeries product in q and a single packed zeta exponent:
    r is coded as sum r_i base^i with balanced digits |r_i| <= reach, where
    reach bounds every coordinate any partial product can hold, so the code
    is one-to-one and the result decodes digit by digit.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    wd = weyl_data(V, lam)
    zero = (0,) * V.dim
    support = sorted(V.mult.items())
    # (n, v, c, kmax): the factor (1 - q^n zeta^v)^c and its last term within order
    factors = [(0, v, c, c) for v, c in support if v != zero and V.pair(v, wd.chamber) > 0]
    factors += [(n, v, c, min(c, order // n)) for n in range(1, order + 1) for v, c in support]
    start = tuple(-int(2 * x) for x in wd.rho)
    reach = max(abs(x) + sum(2 * k * abs(v[i]) for _, v, _, k in factors)
                for i, x in enumerate(start))
    base = 2 * reach + 1

    def code(r):
        return sum(x * base ** i for i, x in enumerate(r))

    acc = BiSeries({(0, code(start)): 1}, order).mul_binomials(
        [(n, code([2 * x for x in v]), c, -1) for n, v, c, _ in factors])
    coeffs = {}
    for (n, y), c in acc.coeffs.items():
        r = []
        for _ in range(V.dim):
            r.append((y + reach) % base - reach)
            y = (y - r[-1]) // base
        coeffs[(n, tuple(r))] = c
    return PsiSeries(V.dim, Fraction(wd.d, 24), coeffs, order)


def _integral_pair(V, a, b, what):
    p = V.pair(a, b)
    if Fraction(p).denominator != 1:
        raise ValueError(f"{what} pairs non-integrally: ({a}, {b}) = {p}")
    return int(p)


def elliptic_transform_check(V: VectorSystem, lam, shift, order: int,
                             kind: str = "mu") -> VerifyReport:
    """Formal substitution check of one elliptic shift law of psi.

    kind "mu":  psi(tau, z + mu)      = (-1)^(2(rho,mu)) psi(tau, z)
    kind "tau": psi(tau, z + L*tau)   = (-1)^(2(rho,L)) q^(-m(L,L)/2) zeta^(-mL) psi

    The shift must pair integrally with every support vector.  For the tau
    law both sides pick up column-dependent fractional q-exponents, so each
    zeta-column is compared within its own known range.
    """
    if kind not in ("mu", "tau"):
        raise ValueError("kind must be 'mu' or 'tau'")
    shift = tuple(Fraction(x) for x in shift)
    if len(shift) != V.dim:
        raise ValueError("shift vector has wrong dimension")
    for v in V.mult:
        _integral_pair(V, shift, v, "shift vector")
    p = psi(V, lam, order)
    wd = weyl_data(V, lam)
    two_rho = tuple(int(2 * x) for x in wd.rho)
    sign = -1 if _integral_pair(V, shift, two_rho, "shift vector") % 2 else 1

    if kind == "mu":
        lhs = {}
        for (n, r), c in p.coeffs.items():
            flip = _integral_pair(V, shift, r, "shift vector")  # 2(mu, r/2)
            lhs[(n, r)] = -c if flip % 2 else c
        rhs = {k: sign * c for k, c in p.coeffs.items()}
        return VerifyReport("elliptic_mu_shift", order, _first_mismatch(lhs, rhs))

    m_ll = wd.m * V.pair(shift, shift)  # rhs q-exponent drops by m(L,L)/2
    key_shift = tuple(2 * wd.m * x for x in shift)
    if any(Fraction(x).denominator != 1 for x in key_shift):
        raise ValueError(f"zeta^(-m*shift) leaves the doubled grid: {key_shift}")
    key_shift = tuple(int(x) for x in key_shift)
    # both sides keyed (column r, q-exponent e), each column known through
    # the smaller of the two sides' tops there
    lhs = {(r, n + Fraction(V.pair(shift, r), 2)): c for (n, r), c in p.coeffs.items()}
    rhs = {(tuple(a - b for a, b in zip(r, key_shift)), n - Fraction(m_ll, 2)): sign * c
           for (n, r), c in p.coeffs.items()}
    rhs_known = order - Fraction(m_ll, 2)
    mismatch = _first_mismatch(
        lhs, rhs, lambda k: k[1] <= min(order + Fraction(V.pair(shift, k[0]), 2), rhs_known))
    if mismatch is not None:
        (r, e), left, right = mismatch
        mismatch = ((e, r), left, right)
    return VerifyReport("elliptic_tau_shift", order, mismatch)
