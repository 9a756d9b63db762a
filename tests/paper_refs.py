"""Fixtures and reference checks of the paper's claims, kept for testing.

No subcommand reaches these, so they live beside the tests that use them:

- ``sample_system`` builds the three small vector systems the tests share: a
  1-dim pair, the norm-zero system and an orthogonal sum.  ``system_json``
  writes a system as the JSON object ``vsys`` input files hold.
- ``validate`` checks the two defining properties of a vector system that
  ``qmoon.vsys`` takes as given, symmetry and the isotropy of the second
  moment.  It is the oracle of a property test: a system it accepts passes
  both elliptic shift laws.
- ``CharTable`` and ``mult_g`` give the root multiplicities of the monster
  Lie algebra as a Moebius sum over a character table.  At g = 1 they are
  c(mn), the exponents of ``qmoon.moonshine.denominator_product``.
- ``catalog_series`` builds a lift input of ``qmoon.borcherds`` as one whole
  series through q^order, from the formulas whose coefficients
  ``borcherds.catalog`` reads one at a time (``_raw_catalog`` and ``_qg``,
  which ``qmoon.borcherds`` ran before it read them).  ``plus_space`` checks a series
  as a lift input and returns it; ``borcherds.lift`` and
  ``zero_multiplicity`` take such a series as they take a catalog form.
"""

from fractions import Fraction
from math import gcd

from kernel_oracle import divisors, moebius
from qmoon import borcherds, forms
from qmoon.moonshine import moonshine_c
from qmoon.series import FULL, QSeries
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


def system_json(V: VectorSystem) -> dict:
    """The JSON object ``VectorSystem.from_json`` reads back into V."""
    return {"dim": V.dim, "gram": [list(r) for r in V.gram],
            "mult": {",".join(map(str, v)): c for v, c in sorted(V.mult.items())}}


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


def plus_space(series: QSeries) -> QSeries:
    """series, checked as a lift input: full nome, integral exponents, and
    integer coefficients supported on exponents 0, 1 (mod 4)."""
    if series.nome != FULL:
        raise ValueError("plus-space forms live in the full nome")
    if series.pre24:
        raise ValueError("plus-space forms have integral exponents")
    bad = [(e, c) for e, c in sorted(series.coeffs.items())
           if e % 4 in (2, 3) or not isinstance(c, int)]
    if bad:
        raise ValueError("not in the plus space; offending (exponent, coefficient): "
                         + ", ".join(f"({e}, {c})" for e, c in bad))
    return series


def _qg(order: int) -> QSeries:
    """Q G for G = E_6(4t)/Delta(4t), pole at q^-3, through q^order, as the one
    quotient (Q E_6(4t)) / Delta(4t)."""
    m = order // 4 + 2  # Delta(4t) known through q^(4m + 3) >= q^(order + 8)
    e6t, d4t = forms.eisenstein(6, m).scale_var(4), forms.delta(m).scale_var(4)
    return (borcherds._q_series(order + 4) * e6t) / d4t


def _raw_catalog(name: str, order: int) -> QSeries:
    """The catalog form ``name`` as a whole series through q^order, unchecked:
    f_j = 3 Q G + 168 theta, f_4 = (f_j + 12 theta)/3, f_6 = (j(4t) - 852) theta
    - 2 Q G, f_8 = 2 f_4, f_10 = f_4 + f_6, f_14 = 2 f_4 + f_6 and f_delta = 12 theta."""
    if name == "f_delta":
        return 12 * forms.theta_full(order)
    cap = order + 8  # formula pieces have poles at q^-4 and eat four orders per multiply
    theta = forms.theta_full(cap)
    QG = _qg(order)
    f_j = (3 * QG + 168 * theta).truncate(order)
    f_4 = (f_j + 12 * theta) / 3
    j4 = forms.j_invariant(cap // 4 + 4).scale_var(4).truncate(cap)
    f_6 = ((j4 - borcherds._F6_CONSTANT) * theta - 2 * QG).truncate(order)
    return {"f_j": f_j, "f_4": f_4, "f_8": f_4 * 2, "f_6": f_6, "f_10": f_4 + f_6,
            "f_14": f_4 * 2 + f_6}[name]


def catalog_series(name: str, order: int) -> QSeries:
    """The catalog form ``name`` as a whole series through q^order, checked by
    ``plus_space``."""
    return plus_space(_raw_catalog(name, order))
