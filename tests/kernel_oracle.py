"""Reference implementations of the one-variable kernel, kept for testing.

These are the plain dict algorithms the dense kernel in ``qmoon.series``
replaced: schoolbook multiplication over stored terms, term-by-term
inversion, ``log`` and ``exp`` as power series in ``a - 1`` and ``a``,
binomial expansion one factor at a time, and Moebius inversion of
``-log``.  They share no arithmetic with the kernel beyond the ``QSeries``
container, addition and scalar multiplication, so the differential tests
compare two independent derivations of every coefficient.
"""

from fractions import Fraction

from qmoon.series import ExponentTable, QSeries, _binomial_terms, _num, divisors, moebius


def _like(s, coeffs, trunc, prefactor=None):
    return QSeries(coeffs, trunc, var=s.var, nome=s.nome,
                   prefactor=s.prefactor if prefactor is None else prefactor)


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Schoolbook product over the stored terms, with the honest truncation."""
    a._check_compat(b)
    va, vb = a.valuation(), b.valuation()
    if va is None or vb is None:
        return _like(a, {}, min(a.trunc, b.trunc), a.prefactor + b.prefactor)
    # Unknown tails poison the product past these bounds.
    trunc = min(a.trunc + vb, b.trunc + va)
    out = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = ea + eb
            if e <= trunc:
                out[e] = out.get(e, 0) + ca * cb
    return _like(a, out, trunc, a.prefactor + b.prefactor)


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
    result = QSeries.one(n, var=a.var, nome=a.nome)
    term = QSeries.one(n, var=a.var, nome=a.nome)
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
    result = QSeries.zero(n, var=a.var, nome=a.nome)
    term = QSeries.one(n, var=a.var, nome=a.nome)
    k = 1
    while True:
        term = mul(term, x).truncate(n)
        if term.is_zero():
            break
        result = result + term * Fraction((-1) ** (k + 1), k)
        k += 1
    return result


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
        terms = [(a * k, c) for k, c in _binomial_terms(e, sign, (trunc - v) // a)]
        out = {}
        for ea, ca in acc.items():
            for eb, cb in terms:
                t = ea + eb
                if t <= trunc:
                    out[t] = out.get(t, 0) + ca * cb
        acc = {t: c for t, c in out.items() if c}
    return _like(s, acc, trunc)


def product_from_exponents(t: ExponentTable, *, var="q", nome="full") -> QSeries:
    """q^(-h) prod (1 - q^n)^{e_n} by binomial expansion of each factor."""
    minus_h = -Fraction(t.h)
    shift = minus_h.numerator // minus_h.denominator
    unit = QSeries.one(t.order, var=var, nome=nome, prefactor=minus_h - shift)
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
                var=a.var, nome=a.nome)
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
