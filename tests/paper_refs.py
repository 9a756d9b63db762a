"""Fixtures and reference checks of the paper's claims, kept for testing.

No subcommand reaches these, so they live beside the tests that use them:

- ``sample_system`` builds the three small vector systems the tests share: a
  1-dim pair, the norm-zero system and an orthogonal sum.
- ``validate`` checks the two defining properties of a vector system that
  ``qmoon.vsys`` takes as given, symmetry and the isotropy of the second
  moment.  It is the oracle of a property test: a system it accepts passes
  both elliptic shift laws.
- ``CharTable`` and ``mult_g`` give the root multiplicities of the monster
  Lie algebra as a Moebius sum over a character table.  At g = 1 they are
  c(mn), the exponents of ``qmoon.moonshine.denominator_product``.
"""

from fractions import Fraction
from math import gcd

from qmoon.moonshine import moonshine_c
from qmoon.series import divisors, moebius
from qmoon.vsys import VectorSystem

SAMPLE_NAMES = ("pair", "trivial", "orthogonal")


def sample_system(name: str) -> VectorSystem:
    """The shipped examples: a 1-dim pair, the norm-zero system, an orthogonal sum."""
    if name == "pair":
        return VectorSystem(1, ((2,),), {(1,): 1, (-1,): 1})
    if name == "trivial":
        return VectorSystem(1, ((2,),), {(0,): 2})
    if name == "orthogonal":
        return VectorSystem(2, ((2, 0), (0, 2)),
                            {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})
    raise ValueError(f"unknown sample {name!r}; have {', '.join(SAMPLE_NAMES)}")


def validate(V: VectorSystem) -> dict:
    """Diagnostics for the three defining properties; never raises.

    Finiteness holds by construction; symmetry and the isotropy of the
    second moment (sum c(v) (Sv)(Sv)^T must be a rational multiple of S)
    are checked, returning the scalar or the failing direction.
    """
    failures = []
    for v in sorted(V.mult):
        if V.mult[v] != V.mult.get(tuple(-x for x in v), 0):
            failures.append({"property": "symmetry", "vector": list(v)})
            break
    s = V.dim
    moment = [[0] * s for _ in range(s)]
    for v, c in V.mult.items():
        sv = [sum(V.gram[i][j] * v[j] for j in range(s)) for i in range(s)]
        for i in range(s):
            for j in range(s):
                moment[i][j] += c * sv[i] * sv[j]
    scalar = Fraction(moment[0][0], V.gram[0][0])
    for i in range(s):
        for j in range(s):
            if moment[i][j] != scalar * V.gram[i][j]:
                failures.append({"property": "sphere", "direction": [i, j]})
                scalar = None
                break
        if scalar is None:
            break
    return {"valid": not failures, "scalar": scalar, "failures": failures}


class CharTable:
    """Traces tr(g^d | V_k) for an element of order N; the d = N column is c(k)."""

    __slots__ = ("order", "traces")

    def __init__(self, order: int, traces: dict):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.traces = {(int(d), int(k)): v for (d, k), v in traces.items()}
        identity = [k for (d, k) in self.traces if d == order]
        if identity:
            c = moonshine_c(max(max(identity), 1))
            for k in identity:
                if self.traces[(order, k)] != c[k]:
                    raise ValueError(f"tr(g^{order}|V_{k}) = {self.traces[(order, k)]}"
                                     f" must equal c({k}) = {c[k]}")

    @classmethod
    def trivial(cls, max_n: int) -> "CharTable":
        """The g = 1 table: every trace is a dimension c(k)."""
        c = moonshine_c(max_n)
        return cls(1, {(1, k): c[k] for k in range(-1, max_n + 1)})

    def trace(self, d: int, k: int):
        if (d, k) not in self.traces:
            raise ValueError(f"table has no entry for tr(g^{d}|V_{k})")
        return self.traces[(d, k)]


def mult_g(m: int, n: int, table: CharTable):
    """Root multiplicity sum_{ds | (m, n, N)} mu(s)/(ds) * tr(g^d | V_{mn})."""
    if m < 1:
        raise ValueError("m must be positive")
    g = gcd(m, n, table.order)
    k = m * n
    total = Fraction(0)
    for t in divisors(g):
        for d in divisors(t):
            mu = moebius(t // d)
            if mu:
                total += Fraction(mu, t) * table.trace(d, k)
    if total.denominator != 1:
        raise ArithmeticError(f"mult({m},{n}) = {total} is not an integer; "
                              "inconsistent character table")
    return int(total)
