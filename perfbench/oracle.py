"""Reference values for checking qmoon's output, computed without qmoon.

Everything here is written from the textbook formulas on dense coefficient
lists (index i holds the coefficient of q^i) and shares no code with the
package under test: infinite products go through the Euler-transform
recurrence, Eisenstein series through a divisor sieve, thetas through their
lacunary sums, Hurwitz class numbers through the Kronecker-Hurwitz relation.
Series come back as ``Expected(prefactor, nome, coeffs, trunc)`` with
``coeffs`` holding only the nonzero exponents.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

# -2w / B_w for the normalized Eisenstein series E_w = 1 + c_w sum sigma_{w-1}(n) q^n.
EISENSTEIN_CONST = {4: 240, 6: -504, 8: 480, 10: -264,
                    12: Fraction(65520, 691), 14: -24}

# Principal parts of the worked lift inputs, from the published displays
# (f_4 = q^-3 + ..., f_6 = q^-4 + ..., f_j = 3 f_4 - 12 theta, f_8 = 2 f_4, ...).
PRINCIPAL_PARTS = {"f_delta": {}, "f_4": {-3: 1}, "f_6": {-4: 1}, "f_8": {-3: 2},
                   "f_10": {-3: 1, -4: 1}, "f_14": {-3: 2, -4: 1}, "f_j": {-3: 3}}

# What each lift input lifts to: (target label, h).
LIFT_TARGETS = {"f_delta": ("delta", -1), "f_4": ("e4", 0), "f_6": ("e6", 0),
                "f_8": ("e8", 0), "f_10": ("e10", 0), "f_14": ("e14", 0), "f_j": ("j", 1)}


class Expected(NamedTuple):
    prefactor: Fraction
    nome: str
    coeffs: dict
    trunc: int


def norm(x):
    """Fractions with denominator 1 become ints."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def parse_rat(text) -> int | Fraction:
    text = str(text).strip()
    if "/" in text:
        n, d = text.split("/")
        return norm(Fraction(int(n), int(d)))
    return int(text)


def fmt_rat(x) -> str:
    x = norm(x)
    return str(x) if isinstance(x, int) else f"{x.numerator}/{x.denominator}"


# -- dense series arithmetic --------------------------------------------------


def mul(a, b, n):
    """Product of two coefficient lists, through q^n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[:n + 1]):
        if x:
            for j, y in enumerate(b[:n + 1 - i]):
                out[i + j] += x * y
    return out


def inverse(a, n):
    """1/a through q^n for a list with a[0] = +-1."""
    if a[0] not in (1, -1):
        raise ValueError("inverse needs a unit constant term")
    r = [a[0]] + [0] * n
    for m in range(1, n + 1):
        s = sum(a[k] * r[m - k] for k in range(1, min(m, len(a) - 1) + 1))
        r[m] = -s * a[0]
    return r


def euler_product(exps: dict, n: int):
    """prod_k (1 - q^k)^{e_k} through q^n, by m u_m = -sum g_k u_{m-k}, g_k = sum_{d|k} d e_d."""
    g = [0] * (n + 1)
    for d, e in exps.items():
        if e and 1 <= d <= n:
            for k in range(d, n + 1, d):
                g[k] += d * e
    u = [1] + [0] * n
    for m in range(1, n + 1):
        s = -sum(g[k] * u[m - k] for k in range(1, m + 1) if g[k])
        u[m] = norm(Fraction(s) / m)
    return u


@lru_cache(maxsize=None)
def sigma_list(k: int, n: int):
    """[0, sigma_k(1), ..., sigma_k(n)]."""
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        p = d ** k
        for m in range(d, n + 1, d):
            out[m] += p
    return tuple(out)


@lru_cache(maxsize=None)
def phi(n: int):
    """prod (1 - q^k) through q^n from Euler's pentagonal theorem."""
    out = [0] * (n + 1)
    k = 0
    while True:
        hit = False
        for j in ((k * (3 * k - 1)) // 2, (k * (3 * k + 1)) // 2):
            if j <= n:
                out[j] = -1 if k % 2 else 1
                hit = True
        if not hit:
            return tuple(out)
        k += 1


@lru_cache(maxsize=None)
def colored_partitions(k: int, n: int):
    return tuple(euler_product({d: -k for d in range(1, n + 1)}, n))


@lru_cache(maxsize=None)
def tau_list(n: int):
    """Ramanujan tau(0..n), tau(0) = 0."""
    unit = euler_product({d: 24 for d in range(1, n + 1)}, n)
    return tuple([0] + unit[:n])


@lru_cache(maxsize=None)
def xi_list(n: int):
    """phi(q)^-8 (1 - phi(q^2)/phi(q^4)) through q^n."""
    p = phi(n)
    p2 = [0] * (n + 1)
    p4 = [0] * (n + 1)
    for i, c in enumerate(p):
        if 2 * i <= n:
            p2[2 * i] = c
        if 4 * i <= n:
            p4[4 * i] = c
    ratio = mul(p2, inverse(p4, n), n)
    inner = [-c for c in ratio]
    inner[0] += 1
    return tuple(mul(list(colored_partitions(8, n)), inner, n))


def eisenstein_list(w: int, n: int):
    c = EISENSTEIN_CONST[w]
    sig = sigma_list(w - 1, n)
    return [1] + [norm(c * sig[m]) for m in range(1, n + 1)]


@lru_cache(maxsize=None)
def j_list(n: int):
    """Coefficients of j at q^-1, q^0, ..., q^n (index shifted by one)."""
    e4 = eisenstein_list(4, n + 1)
    e4_cubed = mul(mul(e4, e4, n + 1), e4, n + 1)
    return tuple(mul(e4_cubed, list(colored_partitions(24, n + 1)), n + 1))


def _sparse(dense, offset=0):
    return {i + offset: c for i, c in enumerate(dense) if c}


def named_form(label: str, order: int) -> Expected:
    """The q-expansion ``qmoon expand LABEL --order ORDER`` should print."""
    low = label.lower()
    full, half, zero = "full", "half", Fraction(0)
    if low.startswith("e") and low[1:].isdigit():
        return Expected(zero, full, _sparse(eisenstein_list(int(low[1:]), order)), order)
    if low in ("delta", "tau"):
        return Expected(zero, full, _sparse(tau_list(order)), order)
    if low == "eta":
        return Expected(Fraction(1, 24), full, _sparse(phi(order)), order)
    if low in ("j", "jstar", "j*"):
        coeffs = _sparse(j_list(order), -1)
        if low != "j":
            coeffs.pop(0, None)
        return Expected(zero, full, coeffs, order)
    if low in ("theta", "theta_full", "theta3", "theta4"):
        nome = full if low.startswith("theta_") or low == "theta" else half
        sign = -1 if low == "theta4" else 1
        coeffs = {0: 1}
        for m in range(1, isqrt(order) + 1):
            coeffs[m * m] = 2 * sign ** m
        return Expected(zero, nome, coeffs, order)
    if low == "theta2":
        coeffs = {}
        m = 0
        while m * m + m <= order:
            coeffs[m * m + m] = 2
            m += 1
        return Expected(Fraction(1, 4), half, coeffs, order)
    if low in ("leech", "leech_theta"):
        half_order = order // 2
        sig, tau = sigma_list(11, half_order), tau_list(half_order)
        coeffs = {0: 1}
        for m in range(1, half_order + 1):
            c = norm(Fraction(65520, 691) * (sig[m] - tau[m]))
            if c:
                coeffs[2 * m] = c
        return Expected(zero, half, coeffs, order)
    if low in ("f", "f_oddsigma"):
        sig = sigma_list(1, order)
        return Expected(zero, full, {m: sig[m] for m in range(1, order + 1, 2)}, order)
    if low in ("p", "partition"):
        return Expected(zero, full, _sparse(colored_partitions(1, order)), order)
    if low.startswith("p") and low[1:].isdigit():
        return Expected(zero, full, _sparse(colored_partitions(int(low[1:]), order)), order)
    if low == "xi":
        return Expected(zero, full, _sparse(xi_list(order)), order)
    raise ValueError(f"no reference for form {label!r}")


def lift_target(name: str, order: int) -> tuple:
    """(h, Expected) for ``qmoon lift --name NAME --order ORDER``."""
    label, h = LIFT_TARGETS[name]
    trunc = order - h  # q^(-h) times a product known through q^order
    return h, named_form(label, trunc)


def zero_multiplicity(name: str, disc: int) -> int:
    part = PRINCIPAL_PARTS[name]
    total, d = 0, 1
    while disc * d * d >= min(part, default=0):
        total += part.get(disc * d * d, 0)
        d += 1
    return total


def hurwitz_problems(values: dict) -> list:
    """Contradictions between a table H(0..N) and the Kronecker-Hurwitz relation.

    sum_{t in Z} H(4n - t^2) = 2 sigma(n) - sum_{d | n} min(d, n/d) for every
    n with 4n <= N, plus H(0) = -1/12 and H(n) = 0 for n = 1, 2 mod 4.
    """
    top = max(values)
    problems = []
    if values.get(0) != Fraction(-1, 12):
        problems.append("H(0) != -1/12")
    problems += [f"H({n}) != 0" for n, h in values.items() if n % 4 in (1, 2) and h]
    sig = sigma_list(1, top // 4)
    for n in range(1, top // 4 + 1):
        lhs = sum(values[4 * n - t * t] for t in range(-isqrt(4 * n), isqrt(4 * n) + 1))
        rhs = 2 * sig[n] - sum(min(d, n // d) for d in range(1, n + 1) if n % d == 0)
        if lhs != rhs:
            problems.append(f"class number relation fails at n={n}")
    return problems


def maass_table(k: int, jacobi: dict, disc_bound: int, max_m: int) -> dict:
    """a(n, r, m) = sum_{d | (n, r, m)} d^(k-1) c(nm/d^2, r/d) for every index in range."""
    top = max((n for n, _ in jacobi), default=0)
    out = {}
    for m in range(1, max_m + 1):
        for n in range(top * m + 1):  # a source index nm/d^2 <= top needs n <= top * m
            for r in range(-isqrt(4 * n * m), isqrt(4 * n * m) + 1):
                if 4 * n * m - r * r > disc_bound:
                    continue
                g = gcd(gcd(n, abs(r)), m)
                a = sum(d ** (k - 1) * jacobi.get((n * m // (d * d), r // d), 0)
                        for d in range(1, g + 1) if g % d == 0)
                if a:
                    out[(n, r, m)] = a
    return out


def psi_terms(dim: int, gram, mult: dict, chamber, order: int) -> tuple:
    """(qpre, {(n, doubled r): c}) of the vector-system product, factor by factor.

    q^(d/24) zeta^(-rho) prod_{v > 0} (1 - zeta^v)^c(v) prod_{n >= 1, v} (1 - q^n zeta^v)^c(v),
    expanded by multiplying in one linear factor at a time.
    """
    def pair(a, b):
        return sum(a[i] * gram[i][j] * b[j] for i in range(dim) for j in range(dim))

    zero = (0,) * dim
    positive = {v: c for v, c in mult.items() if v != zero and pair(v, chamber) > 0}
    two_rho = [0] * dim
    for v, c in positive.items():
        for i in range(dim):
            two_rho[i] += c * v[i]
    acc = {(0, tuple(-x for x in two_rho)): 1}

    def times(acc, n, v):
        out = dict(acc)
        for (qn, r), c in acc.items():
            if qn + n <= order:
                key = (qn + n, tuple(a + 2 * b for a, b in zip(r, v)))
                out[key] = out.get(key, 0) - c
        return {k: c for k, c in out.items() if c}

    for v, c in sorted(positive.items()):
        for _ in range(c):
            acc = times(acc, 0, v)
    for n in range(1, order + 1):
        for v, c in sorted(mult.items()):
            for _ in range(c):
                acc = times(acc, n, v)
    return Fraction(sum(mult.values()), 24), acc


# -- parsing qmoon's text output ----------------------------------------------

_TERM = re.compile(r"^(\d+|\((\d+/\d+)\))?(?:(q)(?:\^(-?\d+))?)?$")


def parse_pretty(line: str) -> Expected:
    """Parse a one-line display such as ``q^(1/24) * (1 - q - q^2 + O(q^5))``."""
    prefactor = Fraction(0)
    m = re.fullmatch(r"q\^\((-?\d+(?:/\d+)?)\) \* \((.*)\)", line)
    if m:
        prefactor, line = Fraction(m.group(1)), m.group(2)
    body, _, tail = line.rpartition(" + O(q^")
    if not tail.endswith(")"):
        raise ValueError(f"no O-term in {line!r}")
    trunc = int(tail[:-1]) - 1
    coeffs = {}
    if body != "0":
        tokens = body.split(" ")
        signs = [1]
        terms = [tokens[0]]
        for i in range(1, len(tokens), 2):
            signs.append(1 if tokens[i] == "+" else -1)
            terms.append(tokens[i + 1])
        for sign, term in zip(signs, terms):
            if term.startswith("-"):
                sign, term = -sign, term[1:]
            t = _TERM.match(term)
            if not t or not term:
                raise ValueError(f"bad term {term!r}")
            mag = parse_rat(t.group(2) or t.group(1) or "1")
            e = 0 if not t.group(3) else int(t.group(4) or 1)
            coeffs[e] = sign * mag
    return Expected(prefactor, None, coeffs, trunc)


def series_from_json(data: dict) -> Expected:
    return Expected(Fraction(parse_rat(data["prefactor"])), data["nome"],
                    {int(e): parse_rat(c) for e, c in data["coeffs"].items()},
                    int(data["trunc"]))


def series_problem(got: Expected, want: Expected) -> str | None:
    """None when two series agree in prefactor, nome, truncation and every known coefficient."""
    if got.prefactor != want.prefactor:
        return f"prefactor {got.prefactor} != {want.prefactor}"
    if got.nome is not None and got.nome != want.nome:
        return f"nome {got.nome} != {want.nome}"
    if got.trunc != want.trunc:
        return f"trunc {got.trunc} != {want.trunc}"
    for e in sorted(set(got.coeffs) | set(want.coeffs)):
        if e <= want.trunc and got.coeffs.get(e, 0) != want.coeffs.get(e, 0):
            return f"coefficient at q^{e}: {got.coeffs.get(e, 0)} != {want.coeffs.get(e, 0)}"
    return None
