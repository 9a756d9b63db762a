"""The kernel's products and solves at workload size, checked modulo three primes with numpy.

``lift f_j 50`` reads Q through q^2,504 and G = E_6/Delta through q^625.  Q
is three kernel products of 2,505 terms, and G one kernel division of 627.
Here each product c = a b is checked as c = a b (mod p), and the division
as G Delta = E_6 (mod p), by numpy's float64 ``np.convolve`` on residues.
The dense-lift ops ``factor j 240`` and ``factor unit 200`` solve
g u = -q u' for the unit part u of their series, and ``expand j 300``
divides E_4^3 by Delta: each solve is checked the same way, from what it
returns.
For primes below 2^20 that is exact: every sum of n products of residues
stays below n p^2 < 2^53 for n <= 8,191.  One prime can miss an error that
is a multiple of it, so three are used.

``moonshine denom 14`` is checked the same way, on a dense (p, q) grid of
residues that the slope of 1 - p/q alone shows exact.
"""

import random
from functools import lru_cache
from math import comb

import pytest

from qmoon import borcherds, forms, moonshine
from qmoon.series import BiSeries, QSeries, exponents_from_series

np = pytest.importorskip("numpy")

PRIMES = (1048573, 1048571, 1048559)  # the three largest below 2^20


def _window(s: QSeries, start: int, n: int) -> list:
    """The coefficients of s at q^start, ..., q^(start + n - 1)."""
    return [s.coeffs.get(e, 0) for e in range(start, start + n)]


def _residues(cs: list, p: int):
    return np.array([c % p for c in cs], dtype=np.float64)


def _product(factors: list, n: int, p: int):
    """The first n coefficients of the product of the coefficient lists, modulo p."""
    out = _residues(factors[0][:n], p)
    for cs in factors[1:]:
        out = np.fmod(np.convolve(out, _residues(cs[:n], p))[:n], p)
    return out


def products_agree(left: list, right: list, n: int) -> bool:
    """Whether the two products of coefficient lists agree in their first n terms, modulo
    every prime; the lists of each side start at valuations that add up to the same."""
    return all(np.array_equal(_product(left, n, p), _product(right, n, p)) for p in PRIMES)


def product_holds(a: list, b: list, c: list) -> bool:
    """Whether c is the product of a and b through len(c) terms, modulo every prime;
    the three lists start at valuations that add up."""
    return products_agree([a, b], [c], len(c))


def _as_lists(a: QSeries, b: QSeries, c: QSeries) -> tuple:
    """The operands and product of c = a b as lists from their valuations, through c's trunc."""
    va, vb = min(a.coeffs), min(b.coeffs)
    n = c.trunc - va - vb + 1
    return _window(a, va, n), _window(b, vb, n), _window(c, va + vb, n)


@pytest.fixture(scope="module")
def q_products():
    """The three (a, b, a b) the kernel multiplies to build the Q of lift f_j 50."""
    seen, real = [], QSeries.__mul__

    def recorded(self, other):
        out = real(self, other)
        seen.append((self, other, out))
        return out

    mp = pytest.MonkeyPatch()
    mp.setattr(QSeries, "__mul__", recorded)
    try:
        borcherds._q_series(2504)
    finally:
        mp.undo()
    return [_as_lists(*triple) for triple in seen]


def test_the_three_products_of_q_hold_mod_three_primes(q_products):
    # F theta and Q start at q^1, (theta^4 - 2F)(theta^4 - 16F) at q^0
    assert [len(c) for _, _, c in q_products] == [2504, 2505, 2504]
    for a, b, c in q_products:
        assert product_holds(a, b, c)


# an error of p1 p2 is a multiple of two of the primes; the third catches it
_OFFSETS = [1, -1, PRIMES[0] * PRIMES[1]]


@pytest.mark.parametrize("delta", _OFFSETS)
@pytest.mark.parametrize("e", [1997, 2000, 2001])  # a prime exponent and two composite ones
def test_a_q_off_near_2000_is_caught(q_products, e, delta):
    a, b, c = q_products[-1]  # Q itself, from q^1
    assert c[e - 1]
    wrong = list(c)
    wrong[e - 1] += delta
    assert not product_holds(a, b, wrong)


@pytest.fixture(scope="module")
def g_delta_e6():
    G = borcherds._g_series(625)
    assert (min(G.coeffs), G.trunc) == (-1, 625)
    g = _window(G, -1, 627)
    return g, _window(forms.delta(627), 1, 627), _window(forms.eisenstein(6, 626), 0, 627)


def test_g_times_delta_is_e6_mod_three_primes(g_delta_e6):
    g, d, e6 = g_delta_e6
    assert product_holds(g, d, e6)


@pytest.mark.parametrize("k, delta", [(400, 1), (400, -1), (623, 1), (7, _OFFSETS[2])])
def test_a_wrong_g_coefficient_is_caught(g_delta_e6, k, delta):
    g, d, e6 = g_delta_e6
    wrong = list(g)
    wrong[k + 1] += delta  # the coefficient of q^k
    assert not product_holds(wrong, d, e6)


# The solves of dense-lift's factor and expand ops.  exponents_from_series
# returns the e_d of a = q^(-h) prod (1 - q^d)^(e_d); from them the check
# rebuilds g_m = sum_{d | m} d e_d and asks g u = -q u' for a's unit part u.
def _unit_200():
    """A unit of 200 terms past its constant 1, each coefficient below 2^8 in size."""
    rng = random.Random(3816)
    return QSeries({0: 1, **{n: rng.randint(-256, 256) for n in range(1, 201)}}, 200)


@pytest.fixture(scope="module")
def solves():
    """{name: (operands, solved list, its valuation, the other side, terms)}: each holds
    when the product of the operands and the solved list is the other side's product."""
    out = {}
    for name, a, order in (("factor j 240", forms.j_invariant(240), 240),
                           ("factor unit 200", _unit_200(), 200)):
        v = min(a.coeffs)
        u = _window(a, v, order + 1)
        g = [0] * (order + 1)
        for d, e in exponents_from_series(a, order).exps.items():
            for m in range(d, order + 1, d):
                g[m] += int(d * e)  # d e_d is an integer even where e_d is not
        out[name] = ([u], g, 0, [[-m * c for m, c in enumerate(u)]], order + 1)
    j = forms.j_invariant(300)
    e4 = _window(forms.eisenstein(4, 301), 0, 302)
    out["expand j 300"] = ([_window(forms.delta(302), 1, 302)], _window(j, -1, 302), -1,
                           [e4, e4, e4], 302)
    return out


_SOLVES = ["factor j 240", "factor unit 200", "expand j 300"]


@pytest.mark.parametrize("name", _SOLVES)
def test_the_dense_lift_solves_hold_mod_three_primes(solves, name):
    operands, solved, _, other, n = solves[name]
    assert len(solved) == n and any(solved[n - 40:])
    assert products_agree(operands + [solved], other, n)


@pytest.mark.parametrize("delta", _OFFSETS)
@pytest.mark.parametrize("name, prime, composite", [
    ("factor j 240", 239, 240), ("factor unit 200", 199, 200), ("expand j 300", 293, 300)])
@pytest.mark.parametrize("at", ["prime", "composite"])
def test_a_solve_off_near_its_top_is_caught(solves, name, prime, composite, at, delta):
    operands, solved, start, other, n = solves[name]
    wrong = list(solved)
    wrong[(prime if at == "prime" else composite) - start] += delta
    assert not products_agree(operands + [wrong], other, n)


# The monster denominator p^-1 prod (1 - p^m q^n)^c(mn), rebuilt factor by
# factor with numpy on residues.  A monomial p^a q^b of any factor has
# b >= -a, so on a grid of p^0..p^M (M = cap + 1) cut at q^(top + M), a term
# dropped above the cut comes down by at most one q per p and never reaches
# q^top: the grid is exact through q^top with no appeal to how often 1 - p/q
# is met.  Each binomial term (-1)^k C(c(mn), k) p^km q^kn is one shifted
# add, with C(c(mn), k) reduced mod the prime; every sum stays below
# 22 p^2 < 2^63.
@lru_cache(maxsize=None)
def _denominator_grids(cap, top) -> tuple:
    """p prod (1 - p^m q^n)^c(mn) mod each prime, as int64 arrays whose entry
    [a, b + M] holds p^a q^b, for a <= M = cap + 1 and -M <= b <= top."""
    big_m, hi = cap + 1, top + cap + 1
    c = moonshine.moonshine_c(big_m * hi)
    factors = [(m, n, c[m * n]) for m in range(1, big_m + 1) for n in range(-1, hi + 1)
               if m * n <= c.trunc and c[m * n]]
    grids = []
    for prime in PRIMES:
        grid = np.zeros((big_m + 1, big_m + hi + 1), dtype=np.int64)
        grid[0, big_m] = 1
        for m, n, e in factors:
            old = grid.copy()
            for k in range(1, big_m // m + 1):
                dx, dy, ck = k * m, k * n, (-1) ** k * comb(e, k) % prime
                if dy >= grid.shape[1]:  # past the cut from every column
                    break
                if dy >= 0:
                    grid[dx:, dy:] += ck * old[:big_m + 1 - dx, :old.shape[1] - dy]
                else:
                    grid[dx:, :dy] += ck * old[:big_m + 1 - dx, -dy:]
            grid %= prime
        grids.append(grid[:, :big_m + top + 1])
    return tuple(grids)


def denominator_holds(d: BiSeries) -> bool:
    """Whether every coefficient d claims, within its cap and y-top, is that of
    p^-1 prod (1 - p^m q^n)^c(mn) modulo every prime."""
    big_m = d.cap + 1
    got = np.zeros((big_m + 1, big_m + d.ytop + 1), dtype=object)
    for (x, y), v in d.coeffs.items():
        if x <= d.cap and y <= d.ytop:
            if y < -big_m:  # below any monomial the product has
                return False
            got[x + 1, y + big_m] = v
    return all(np.array_equal(got % prime, grid)
               for prime, grid in zip(PRIMES, _denominator_grids(d.cap, d.ytop)))


@pytest.fixture(scope="module")
def denominators():
    return {caps: moonshine.denominator_product(*caps) for caps in ((14, 14), (20, 10))}


@pytest.mark.parametrize("caps", [(14, 14), (20, 10)])
def test_the_denominator_product_holds_mod_three_primes(denominators, caps):
    d = denominators[caps]
    assert (d.cap, d.ytop) == caps
    assert denominator_holds(d)


@pytest.mark.parametrize("delta", _OFFSETS)
@pytest.mark.parametrize("key", [(0, 14), (14, 0), (7, 7)])  # j(q), j(p) and a mixed zero
def test_a_wrong_denominator_coefficient_is_caught(denominators, key, delta):
    d = denominators[14, 14]
    wrong = BiSeries({**d.coeffs, key: d.coeffs.get(key, 0) + delta}, d.cap, ytop=d.ytop)
    assert not denominator_holds(wrong)


@pytest.mark.parametrize("mutant", ["without 1 - p/q", "q-top one higher"])
def test_a_wrong_denominator_build_is_caught(monkeypatch, mutant):
    real = BiSeries.mul_binomials

    def mul_binomials(self, factors):
        if mutant == "without 1 - p/q":
            return real(self, [f for f in factors if f[:2] != (1, -1)])
        out = real(self, factors)
        return BiSeries(out.coeffs, out.cap, ytop=out.ytop + 1)

    monkeypatch.setattr(BiSeries, "mul_binomials", mul_binomials)
    d = moonshine.denominator_product(14, 14)
    assert d.ytop == 15 and not denominator_holds(d)
