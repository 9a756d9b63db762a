"""Reference implementations of the kernel, kept for testing.

These are the plain dict algorithms the dense kernel in ``qmoon.series``
replaced: schoolbook multiplication over stored terms, term-by-term
inversion, ``log`` and ``exp`` as power series in ``a - 1`` and ``a``,
binomial expansion one factor at a time, and Moebius inversion of
``-log``.  ``mul_binomials`` also expands the printed products of the gauss
and theta-nullwert identities, (1 + q^a) factors included, which
``qmoon.identities`` builds as Euler exponent tables.  Each binomial term is its own falling factorial (``binomial``),
not the kernel's recurrence.  They share no arithmetic with the kernel
beyond the ``QSeries`` container, addition and scalar multiplication, so
the differential tests compare two independent derivations of every
coefficient; ``tests/test_imports.py`` holds the import from
``qmoon.series`` to that.  ``mul_lists`` is the one-point Kronecker multiply
that ``qmoon.series._mul_lists`` ran before it evaluated at two points: one
integer per list, one slot per coefficient, one product, and no split into
residue classes.

The two-variable references (``bi_mul`` and friends) use nothing from
``qmoon.series`` at all: they read the ``coeffs``, ``cap`` and ``ytop`` of
their operands and return a plain ``Bi`` record.  ``bi_mul`` is the dict
convolution ``BiSeries`` multiplied with before ``mul_binomials`` applied
its factors to the coefficients itself.  ``bi_exp`` is the power
sum of t^k / k! that ``qmoon.moonshine.bi_exp`` ran before it moved onto the
exp recurrence.  ``euler1_sum`` and ``euler2_sum`` are the sum sides of the
two Euler partition identities as printed and as ``qmoon.identities`` built
them before they became Pochhammer-sum entries: one running product of
(1 - q^n)^-1 factors, each monomial multiplied in and added up one n at a
time.  ``euler2_qz_sum`` is the same loop on the sum side the identity table
now checks for euler2, the printed sum at z -> qz.
``psi`` is the vector-system product expanded one factor at a time on
tuple-valued zeta exponents, the way ``qmoon.vsys`` did before it packed
them.

``hurwitz`` is the per-n class-number loop ``qmoon.borcherds`` ran before one
walk over reduced forms served a whole discriminant range: for each n it
tries every a <= sqrt(n/3) and b in [-a, a], and adds the weights as
``Fraction``s.

``maass_relation`` is the Maass relation check ``qmoon.maass`` ran before it
replayed ``v_operator`` on the table's layer 1: it pulls each expected
a(n, r, m) as the divisor sum over d | gcd(n, |r|, m) of d^(k-1)
a(mn/d^2, r/d, 1), over the table's support plus every index its layer-1
entries feed within the bound on a layer m > 1 the table holds, and returns
the first mismatch by its own scan over the sorted keys.

The comparison references are the hand-written first-disagreement scans
that ``QSeries.first_mismatch``, ``BiSeries.first_mismatch`` and the two
elliptic shift laws of ``qmoon.vsys`` ran before they all went through one
shared scan.
"""

from fractions import Fraction
from math import comb, gcd, isqrt
from typing import NamedTuple

from qmoon.series import ExponentTable, QSeries, _num, divisors, moebius
from qmoon.vsys import _integral_pair, psi as vsys_psi, weyl_data


def _like(s, coeffs, trunc, prefactor=None):
    return QSeries(coeffs, trunc, nome=s.nome,
                   prefactor=s.prefactor if prefactor is None else prefactor)


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Schoolbook product over the stored terms, with the honest truncation."""
    a._check_compat(b)
    # Unknown tails poison the product past these bounds; a zero series is
    # known only through its trunc, so its valuation is at least trunc + 1.
    va, vb = min(a.coeffs, default=a.trunc + 1), min(b.coeffs, default=b.trunc + 1)
    trunc = min(a.trunc + vb, b.trunc + va)
    out = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = ea + eb
            if e <= trunc:
                out[e] = out.get(e, 0) + ca * cb
    return _like(a, out, trunc, a.prefactor + b.prefactor)


def mul_lists(a: list, b: list, n: int) -> list:
    """The first n coefficients of a * b by one-point Kronecker substitution.

    Each list becomes one integer with a width-byte slot per coefficient, one
    multiply convolves them, and a bias of half per slot reads the signed
    slots back; rationals are first put over one denominator.
    """
    den = 1
    for c in a[:n] + b[:n]:
        den = den * Fraction(c).denominator // gcd(den, Fraction(c).denominator)
    a, b = ([int(c * den) for c in x[:n]] for x in (a, b))
    top_a, top_b = max(map(abs, a), default=0), max(map(abs, b), default=0)
    if not top_a or not top_b:
        return [0] * n
    bits = top_a.bit_length() + top_b.bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (bits + 7) // 8
    half = 1 << (8 * width - 1)

    def pack(cs):
        return int.from_bytes(b"".join((c + half).to_bytes(width, "little") for c in cs),
                              "little") - sum(half << (8 * width * i) for i in range(len(cs)))

    z = pack(a) * pack(b) + sum(half << (8 * width * i) for i in range(n))
    data = (z % (1 << 8 * width * n)).to_bytes(width * n, "little")
    out = [int.from_bytes(data[i:i + width], "little") - half for i in range(0, width * n, width)]
    return [_num(Fraction(c, den * den)) for c in out]


def invert(a: QSeries) -> QSeries:
    """Multiplicative inverse, one coefficient at a time."""
    v = a.valuation()
    if v is None:
        raise ValueError("cannot invert the zero series")
    lead = a.coeffs[v]
    n_max = a.trunc - v
    u = {e - v: c for e, c in a.coeffs.items()}
    r = {0: _num(Fraction(1) / lead)}
    for n in range(1, n_max + 1):
        acc = 0
        for e, c in u.items():
            if 0 < e <= n:
                rk = r.get(n - e)
                if rk:
                    acc += c * rk
        if acc:
            r[n] = _num(Fraction(-acc) / lead)
    return _like(a, {e - v: c for e, c in r.items()}, n_max - v, -a.prefactor)


def exp_series(a: QSeries) -> QSeries:
    """sum a^k / k! until the powers vanish below the truncation."""
    if a.prefactor:
        raise ValueError("exp_series requires zero prefactor")
    v = a.valuation()
    if v is not None and v < 1:
        raise ValueError("exp_series requires valuation >= 1 (no constant term)")
    n = a.trunc
    result = QSeries.one(n, nome=a.nome)
    term = QSeries.one(n, nome=a.nome)
    k = 1
    while True:
        term = mul(term, a).truncate(n)
        if term.is_zero():
            break
        term = term * Fraction(1, k)
        result = result + term
        k += 1
    return result


def log_series(a: QSeries) -> QSeries:
    """sum (-1)^(k+1) (a - 1)^k / k until the powers vanish below the truncation."""
    if a.prefactor:
        raise ValueError("log_series requires zero prefactor")
    if a.coeffs.get(0) != 1 or (a.valuation() is not None and a.valuation() < 0):
        raise ValueError("log_series requires constant term 1")
    n = a.trunc
    x = a - 1
    result = QSeries.zero(n, nome=a.nome)
    term = QSeries.one(n, nome=a.nome)
    k = 1
    while True:
        term = mul(term, x).truncate(n)
        if term.is_zero():
            break
        result = result + term * Fraction((-1) ** (k + 1), k)
        k += 1
    return result


def binomial(e, k):
    """C(e, k) as the falling factorial e (e - 1) ... (e - k + 1) / k!, recomputed per k."""
    c = Fraction(1)
    for i in range(k):
        c = c * (Fraction(e) - i) / (i + 1)
    return _num(c)


def mul_binomials(s: QSeries, factors) -> QSeries:
    """Multiply by (1 + sign q^a)^e one factor at a time, binomial terms within the span."""
    v = s.valuation()
    if v is None:
        return s
    trunc = s.trunc
    acc = s.coeffs
    for a, e, sign in factors:
        if a < 1:
            raise ValueError("factor exponent must be positive")
        terms = [(a * k, sign ** k * binomial(e, k)) for k in range((trunc - v) // a + 1)]
        out = {}
        for ea, ca in acc.items():
            for eb, cb in terms:
                t = ea + eb
                if t <= trunc:
                    out[t] = out.get(t, 0) + ca * cb
        acc = {t: c for t, c in out.items() if c}
    return _like(s, acc, trunc)


def product_from_exponents(t: ExponentTable, *, nome="full") -> QSeries:
    """q^(-h) prod (1 - q^n)^{e_n} by binomial expansion of each factor."""
    minus_h = -Fraction(t.h)
    shift = minus_h.numerator // minus_h.denominator
    unit = QSeries.one(t.order, nome=nome, prefactor=minus_h - shift)
    return mul_binomials(unit, [(n, e, -1) for n, e in sorted(t.exps.items())]).shift(shift)


def exponents_from_series(a: QSeries, order: int) -> ExponentTable:
    """Moebius inversion of m [q^m](-log u) = sum_{d | m} d e_d."""
    v = a.valuation()
    if v is None:
        raise ValueError("zero series has no product expansion")
    if a.coeffs[v] != 1:
        raise ValueError("unit part's constant term must be 1")
    if a.trunc - v < order:
        raise ValueError(f"series known to order {a.trunc - v} after normalization, need {order}")
    u = QSeries({e - v: c for e, c in a.coeffs.items() if e - v <= order}, order,
                nome=a.nome)
    minus_log = -log_series(u)
    g = {m: m * Fraction(minus_log.coeffs.get(m, 0)) for m in range(1, order + 1)}
    exps = {}
    for d in range(1, order + 1):
        acc = Fraction(0)
        for m in divisors(d):
            mu = moebius(d // m)
            if mu:
                acc += mu * g[m]
        e = acc / d
        if e:
            exps[d] = _num(e)
    return ExponentTable(-(v + a.prefactor), exps, order)


def first_mismatch(a: QSeries, b: QSeries, order=None):
    """First (exponent, lhs, rhs) disagreement in ascending order on canonical form,
    up to the shared truncation (and order), or None."""
    a._check_compat(b)
    a, b = a.canonical(), b.canonical()
    if a.prefactor != b.prefactor:
        raise ValueError(f"prefactor mismatch in comparison: {a.prefactor} vs {b.prefactor}")
    hi = min(a.trunc, b.trunc)
    if order is not None:
        hi = min(hi, order)
    for e in sorted(set(a.coeffs) | set(b.coeffs)):
        if e > hi:
            break
        ca, cb = a.coeffs.get(e, 0), b.coeffs.get(e, 0)
        if ca != cb:
            return (e, ca, cb)
    return None


class Bi(NamedTuple):
    """A two-variable result with the fields ``BiSeries`` exposes."""

    coeffs: dict
    cap: int
    ytop: int | None


def _norm(c):
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def _top(t1, t2):
    # the smaller y-top, None standing for no top
    if t1 is None or t2 is None:
        return t2 if t1 is None else t1
    return min(t1, t2)


def bi(coeffs, cap, ytop) -> Bi:
    """Nonzero coefficients within cap and y-top, Fractions over 1 as ints."""
    return Bi({(x, y): _norm(c) for (x, y), c in coeffs.items()
               if c and x <= cap and (ytop is None or y <= ytop)},
              cap, ytop)


def _xval(a):
    # a zero series is known only through its cap
    return min((x for x, _ in a.coeffs), default=a.cap + 1)


def bi_mul(a, b) -> Bi:
    """Schoolbook product; unknown tails cap it at min(cap_a + xval_b, cap_b + xval_a)."""
    ytop = _top(a.ytop, b.ytop)
    cap = min(a.cap + _xval(b), b.cap + _xval(a))
    out = {}
    for (ax, ay), ca in a.coeffs.items():
        for (bx, by), cb in b.coeffs.items():
            key = (ax + bx, ay + by)
            out[key] = out.get(key, 0) + ca * cb
    return bi(out, cap, ytop)


def bi_first_mismatch(a, b):
    """First disagreeing monomial in graded-lex order (x+y, x, y), or None.

    Comparison runs within the smaller cap and the smaller y-top.
    """
    hi = min(a.cap, b.cap)
    top = _top(a.ytop, b.ytop)
    for key in sorted(set(a.coeffs) | set(b.coeffs), key=lambda k: (k[0] + k[1], k[0], k[1])):
        ex, ey = key
        if ex > hi or (top is not None and ey > top):
            continue
        ca, cb = a.coeffs.get(key, 0), b.coeffs.get(key, 0)
        if ca != cb:
            return (key, ca, cb)
    return None


def bi_add(a, b) -> Bi:
    out = dict(a.coeffs)
    for key, c in b.coeffs.items():
        out[key] = out.get(key, 0) + c
    return bi(out, min(a.cap, b.cap), _top(a.ytop, b.ytop))


def bi_scale(a, s) -> Bi:
    return bi({key: c * s for key, c in a.coeffs.items()}, a.cap, a.ytop)


def bi_shift_x(a, n) -> Bi:
    return bi({(x + n, y): c for (x, y), c in a.coeffs.items()}, a.cap + n, a.ytop)


def bi_exp(t) -> Bi:
    """exp t as the power sum of t^k / k!, each power one schoolbook product."""
    if any(x < 1 for x, _ in t.coeffs):
        raise ValueError("bivariate exp needs a positive power of the first variable")
    acc = term = bi({(0, 0): 1}, t.cap, t.ytop)
    for k in range(1, t.cap + 2):
        term = bi_scale(bi_mul(term, t), Fraction(1, k))
        if not term.coeffs:
            break
        acc = bi_add(acc, term)
    return acc


def _pochhammer_loop(order, ytop, ns, monomial) -> Bi:
    # 1 + sum over ns of monomial(n) * prod_{k <= n} (1 - q^k)^-1, schoolbook throughout
    lhs = inv = bi({(0, 0): 1}, order, ytop)
    for n in ns:
        inv = bi_mul(inv, bi({(n * k, 0): 1 for k in range(order // n + 1)}, order, None))
        (e, y), c = monomial(n)
        lhs = bi_add(lhs, bi_mul(bi({(e, y): c}, order, ytop), inv))
    return lhs


def euler1_sum(order) -> Bi:
    """sum (-1)^n q^{n(n+1)/2} z^n / ((1-q)...(1-q^n)) through q^order."""
    return _pochhammer_loop(order, None, range(1, (isqrt(8 * order + 1) + 1) // 2),
                            lambda n: ((n * (n + 1) // 2, n), (-1) ** n))


def euler2_sum(order) -> Bi:
    """sum z^n / ((1-q)...(1-q^n)) through q^order and z^order."""
    return _pochhammer_loop(order, order, range(1, order + 1), lambda n: ((0, n), 1))


def euler2_qz_sum(order) -> Bi:
    """sum q^n z^n / ((1-q)...(1-q^n)) through q^order, in every z-power."""
    return _pochhammer_loop(order, None, range(1, order + 1), lambda n: ((n, n), 1))


def psi(V, lam, order) -> tuple:
    """q^(d/24) zeta^(-rho) prod (1 - q^n zeta^v)^c(v), one factor at a time,
    as (d/24, {(n, r): c}) with r on the doubled grid."""
    wd = weyl_data(V, lam)
    zero = (0,) * V.dim
    acc = {(0, tuple(-int(2 * x) for x in wd.rho)): 1}
    support = sorted(V.mult.items())
    for v, c in support:
        if v != zero and V.pair(v, wd.chamber) > 0:
            acc = _psi_factor(acc, 0, v, c, order)
    for n in range(1, order + 1):
        for v, c in support:
            acc = _psi_factor(acc, n, v, c, order)
    return Fraction(wd.d, 24), acc


def _psi_factor(acc, n, v, mult, order):
    # one factor (1 - q^n zeta^v)^mult, binomially expanded on the doubled grid
    terms = []
    for k in range(mult + 1):
        if n * k > order:
            break
        terms.append((n * k, tuple(2 * k * x for x in v), (-1) ** k * comb(mult, k)))
    out = {}
    for (qn, r), c in acc.items():
        for dq, dr, fc in terms:
            q2 = qn + dq
            if q2 > order:
                continue
            key = (q2, tuple(a + b for a, b in zip(r, dr)))
            val = out.get(key, 0) + c * fc
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


def elliptic_mismatch(V, lam, shift, order, kind):
    """The first mismatch of one elliptic shift law of psi, scanned per zeta-column.

    The mu law compares (n, r)-keyed coefficients in sorted order.  The tau
    law compares column r in sorted order, each within its own known range:
    the smaller of order + (L, r)/2 and order - m(L,L)/2.
    """
    shift = tuple(Fraction(x) for x in shift)
    _, coeffs = vsys_psi(V, lam, order)
    wd = weyl_data(V, lam)
    two_rho = tuple(int(2 * x) for x in wd.rho)
    sign = -1 if _integral_pair(V, shift, two_rho, "shift") % 2 else 1
    if kind == "mu":
        lhs = {(n, r): -c if _integral_pair(V, shift, r, "shift") % 2 else c
               for (n, r), c in coeffs.items()}
        rhs = {k: sign * c for k, c in coeffs.items()}
        for key in sorted(set(lhs) | set(rhs)):
            if lhs.get(key, 0) != rhs.get(key, 0):
                return (key, lhs.get(key, 0), rhs.get(key, 0))
        return None
    m_ll = wd.m * V.pair(shift, shift)
    key_shift = tuple(int(2 * wd.m * x) for x in shift)
    lhs_cols, rhs_cols = {}, {}
    for (n, r), c in coeffs.items():
        lhs_cols.setdefault(r, {})[n + Fraction(V.pair(shift, r), 2)] = c
        col = tuple(a - b for a, b in zip(r, key_shift))
        rhs_cols.setdefault(col, {})[n - Fraction(m_ll, 2)] = sign * c
    for r in sorted(set(lhs_cols) | set(rhs_cols)):
        left, right = lhs_cols.get(r, {}), rhs_cols.get(r, {})
        known = min(order + Fraction(V.pair(shift, r), 2), order - Fraction(m_ll, 2))
        for e in sorted(set(left) | set(right)):
            if e <= known and left.get(e, 0) != right.get(e, 0):
                return ((e, r), left.get(e, 0), right.get(e, 0))
    return None


def hurwitz(n: int):
    """Hurwitz class number H(n), by enumerating the reduced forms of one n."""
    if n < 0:
        raise ValueError("H(n) is indexed by n >= 0")
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 in (1, 2):
        return 0
    total = Fraction(0)
    a = 1
    while 3 * a * a <= n:
        for b in range(-a, a + 1):
            if b < 0 and -b == a:
                continue  # (a, -a, c) ~ (a, a, c)
            if (b * b + n) % (4 * a):
                continue
            c = (b * b + n) // (4 * a)
            if c < a or (b < 0 and a == c):
                continue  # reduced: |b| <= a <= c, with b >= 0 on the boundary
            if b == 0 and a == c:
                total += Fraction(1, 2)
            elif a == b == c:
                total += Fraction(1, 3)
            else:
                total += 1
        a += 1
    return _num(total)


def _layer_one_feeds(sources, m: int, disc_bound: int):
    """(d, (ns, rs), (n, r)) for each layer-1 source that feeds index m through d | m.

    The target is n = d^2 ns / m, r = d rs; it must be integral with d | n,
    and its discriminant 4nm - r^2 within disc_bound.
    """
    for d in range(1, m + 1):
        if m % d:
            continue
        for ns, rs in sources:
            if (d * d * ns) % m:
                continue
            n, r = d * d * ns // m, d * rs
            if n % d or 4 * n * m - r * r > disc_bound:
                continue
            yield d, (ns, rs), (n, r)


def maass_relation(s):
    """First mismatch of a(n,r,m) = sum_{d | gcd(n,|r|,m)} d^(k-1) a(mn/d^2, r/d, 1)."""
    layers = sorted({m for (_, _, m) in s.coeffs if m > 1})
    ones = [(n, r) for (n, r, m) in s.coeffs if m == 1]
    candidates = set(s.coeffs)
    for m in layers:
        candidates.update((n, r, m) for _, _, (n, r) in _layer_one_feeds(ones, m, s.disc_bound))
    expected = {(n, r, m): sum(d ** (s.k - 1) * s.coeff(m * n // (d * d), r // d, 1)
                               for d in range(1, m + 1) if gcd(n, abs(r), m) % d == 0)
                for n, r, m in candidates}
    for key in sorted(set(s.coeffs) | set(expected)):
        got, want = s.coeffs.get(key, 0), expected.get(key, 0)
        if got != want:
            return (key, got, want)
    return None
