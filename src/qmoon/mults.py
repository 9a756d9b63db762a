"""Root multiplicities from partition-type formulas, and the partition bound.

Exact multiplicities come from generating series: xi(3 - norm/2) for E10
at level two, and the 24-colored p24(1 - norm/2) for the fake monster.
frenkel_compare tabulates each against the bound p^(l-2)(1 - norm/2), every
row read from one expansion per column built at the deepest norm; whether
the bound ever fails is an output of the run, not an assumption.  The one
floating-point routine in the package sits at the bottom: the Rademacher
expansion of p24(1+n) with the Bessel factor summed from its ascending series.
"""

from __future__ import annotations

import math
from math import cos, factorial, pi

from . import forms

ALGEBRAS = ("E10_level2", "fake_monster")


class MultReport:
    """Rows (norm, exact, bound, violated) comparing a formula to a bound."""

    __slots__ = ("algebra", "rows")

    def __init__(self, algebra: str, rows):
        self.algebra = algebra
        self.rows = []
        for norm, exact, bound, flag in rows:
            if norm % 2:
                raise ValueError(f"norms must be even, got {norm}")
            if exact < 0:
                raise ValueError(f"multiplicity must be >= 0, got {exact}")
            self.rows.append((norm, exact, bound, bool(flag)))

    def to_json(self) -> dict:
        return {"algebra": self.algebra,
                "rows": [{"norm": n, "exact": e, "bound": b, "violated": f}
                         for n, e, b, f in self.rows]}

    def __repr__(self):
        return (f"MultReport({self.algebra}, rows={len(self.rows)}, "
                f"violations={sum(row[3] for row in self.rows)})")


def frenkel_compare(algebra: str, norms) -> MultReport:
    """Exact multiplicity against p^(l-2)(1 - norm/2) for each even norm <= 2.

    l = 10 for the level-two E10 formula, l = 26 for the fake monster (where
    bound and formula coincide, so every row is equality by construction).
    """
    if algebra not in ALGEBRAS:
        raise ValueError(f"algebra must be one of {ALGEBRAS}, got {algebra!r}")
    norms = sorted(set(norms), reverse=True)
    for norm in norms:
        if norm % 2 or norm > 2:
            raise ValueError(f"rows need even norms <= 2, got {norm}")
    deep = 1 - min(norms, default=2) // 2
    if algebra == "E10_level2":  # xi(3 - norm/2) against p8(1 - norm/2)
        bound = forms.colored_partition_series(8, deep + 2)
        exact = forms.xi_from_p8(bound).shift(-2)
    else:  # p24(1 - norm/2) is both columns
        exact = bound = forms.colored_partition_series(24, deep)
    rows = [(n, exact.coeff(1 - n // 2), bound.coeff(1 - n // 2)) for n in norms]
    return MultReport(algebra, [(n, e, b, e > b) for n, e, b in rows])


_FACT13 = factorial(13)


def _bessel_i13(x: float) -> float:
    # ascending series sum_j (x/2)^(13+2j) / (j! (13+j)!), run to stagnation
    half = x / 2.0
    term = half ** 13 / _FACT13
    total = 0.0
    j = 0
    while total + term != total:
        total += term
        j += 1
        term *= half * half / (j * (13 + j))
    return total


def p24_rademacher(n: int, terms: int) -> float:
    """Partial Rademacher sum for p24(1 + n), k running to the given depth.

    Each k carries the sum of cos(2 pi (n h + h')/k) over residue pairs with
    h h' = -1 (mod k); k = 1 contributes the single pair h = h' = 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    total = 0.0
    for k in range(1, terms + 1):
        twiddle = 0.0
        for h in range(k):
            for hp in range(k):
                if (h * hp + 1) % k == 0:
                    twiddle += cos(2 * pi * (n * h + hp) / k)
        total += _bessel_i13(4 * pi * math.sqrt(n) / k) / k * twiddle
    if not math.isfinite(total):  # the k = 1 term alone overflows past n = 3229
        raise ValueError(f"Rademacher sum for p24({n + 1}) overflows double precision "
                         f"(about 1.8e308); the float path needs n <= 3229")
    return 2 * pi * n ** -6.5 * total
