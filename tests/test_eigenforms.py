"""Self-certifying checks at workload sizes: Hecke relations and congruences.

The differential tests stop at a few hundred terms, while the workloads
multiply and divide at about 2,500.  Here the catalog's Delta and j are
built through q^2500 and checked against relations their coefficients must
satisfy, with no reference series:

- Delta = sum tau(n) q^n is a Hecke eigenform: tau(mn) = tau(m) tau(n) for
  coprime m and n, tau(p^(r+1)) = tau(p) tau(p^r) - p^11 tau(p^(r-1))
  (Hecke, 1937), and tau(n) = sigma_11(n) mod 691 (Ramanujan).
- j = sum c(n) q^n satisfies Lehner's congruences (Amer. J. Math. 71, 1949):
  for a >= 1, c(2^a n) = 0 mod 2^(3a+8), c(3^a n) = 0 mod 3^(2a+3),
  c(5^a n) = 0 mod 5^(a+1), c(7^a n) = 0 mod 7^a and c(11 n) = 0 mod 11.
  They say nothing about c(n) for n prime to 2310, so the check also asks
  j Delta = E_4^3 = 1 mod 240, which reads every c(n) through tau(1) = 1.
  That product is taken here, on residues, apart from the kernel.

The congruences catch a coefficient that is off by anything but a multiple
of their modulus: a tau(p) for a prime p past 1,250 is bound only mod 691.
Each check is run on mutants it must catch: one coefficient near n = 2,000
changed by 1, once at a prime and once at a composite, and the series one
term short.
"""

from math import gcd, isqrt

import pytest

from kernel_oracle import sigma
from qmoon import forms
from qmoon.series import QSeries

N = 2500
PRIME, COMPOSITE = 1999, 2000  # mutation sites near n = 2,000


def _primes(top):
    return [p for p in range(2, top + 1) if all(p % d for d in range(2, isqrt(p) + 1))]


def delta_violations(delta: QSeries, top: int = N) -> list:
    """The relations that tau, read from delta through q^top, breaks."""
    if delta.trunc < top:
        return [f"known through q^{delta.trunc} only"]
    tau = [delta.coeff(n) for n in range(top + 1)]
    bad = [] if tau[:2] == [0, 1] else ["tau(0), tau(1) != 0, 1"]
    bad += [f"tau({m * n}) != tau({m}) tau({n})"
            for m in range(2, top + 1) for n in range(m + 1, top // m + 1)
            if gcd(m, n) == 1 and tau[m * n] != tau[m] * tau[n]]
    for p in _primes(top):
        r, q = 1, p * p  # q = p^(r + 1)
        while q <= top:
            if tau[q] != tau[p] * tau[q // p] - p ** 11 * tau[q // (p * p)]:
                bad.append(f"Hecke's recursion fails at tau({p}^{r + 1})")
            r, q = r + 1, q * p
    bad += [f"tau({n}) != sigma_11({n}) mod 691" for n in range(1, top + 1)
            if (tau[n] - sigma(11, n)) % 691]
    return bad


def _product_mod(a: list, b: list, modulus: int) -> list:
    """The coefficients of a b mod modulus, for lists of residues 0 <= c < modulus,
    read off one integer product whose byte slots hold every sum whole."""
    width = (2 * modulus.bit_length() + len(a).bit_length()) // 8 + 1

    def pack(cs):
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in cs), "little")

    z = (pack(a) * pack(b)).to_bytes(width * (len(a) + len(b)), "little")
    return [int.from_bytes(z[i:i + width], "little") % modulus for i in range(0, len(z), width)]


# (p, the exponent of the power of p that divides c(n) when p^a exactly divides n)
LEHNER = ((2, lambda a: 3 * a + 8), (3, lambda a: 2 * a + 3), (5, lambda a: a + 1),
          (7, lambda a: a), (11, lambda a: 1))


def j_violations(j: QSeries, delta: QSeries, top: int = N) -> list:
    """The congruences that c(n), read from j through q^top, breaks; delta must
    reach q^(top + 1) and pass ``delta_violations``."""
    if j.trunc < top:
        return [f"known through q^{j.trunc} only"]
    c = [j.coeff(n) for n in range(-1, top + 1)]  # c[n + 1] = c(n)
    bad = []
    for n in range(1, top + 1):
        for p, power in LEHNER:
            a, m = 0, n
            while m % p == 0:
                a, m = a + 1, m // p
            if a and c[n + 1] % p ** power(a):
                bad.append(f"c({n}) != 0 mod {p}^{power(a)}")
    tau = [delta.coeff(n) % 240 for n in range(1, top + 2)]
    # q^m of j Delta, m = 0..top, is sum_k c(k) tau(m - k): entry m of this product
    product = _product_mod([x % 240 for x in c], tau, 240)[:top + 1]
    bad += [f"j Delta != 1 mod 240 at q^{m}" for m, x in enumerate(product) if x != (m == 0)]
    return bad


@pytest.fixture(scope="module")
def delta():
    return forms.delta(N + 1)


@pytest.fixture(scope="module")
def j():
    return forms.j_invariant(N)


def _mutants(s: QSeries, top: int) -> dict:
    """s with one coefficient changed by 1 at a prime and at a composite, and
    s one term short of top."""
    def bumped(n):
        return QSeries({**s.coeffs, n: s.coeff(n) + 1}, s.trunc)

    return {"prime": bumped(PRIME), "composite": bumped(COMPOSITE),
            "short": s.truncate(top - 1)}


def test_delta_is_a_hecke_eigenform_through_q2500(delta):
    assert delta_violations(delta) == []
    for name, mutant in _mutants(delta, N).items():
        assert delta_violations(mutant) != [], name


def test_j_meets_lehners_congruences_through_q2500(j, delta):
    assert delta_violations(delta, N + 1) == []
    assert j_violations(j, delta) == []
    for name, mutant in _mutants(j, N).items():
        assert j_violations(mutant, delta) != [], name
