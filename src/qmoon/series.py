"""Exact truncated Laurent series in one and two variables.

Every coefficient is an exact rational (Python int or Fraction); nothing in
this module touches floating point.  A series knows its truncation order:
coefficients at exponents above ``trunc`` are *unknown*, never silently zero,
and every operation propagates the honest truncation of its result.

Two nome conventions coexist in the catalog built on top of this module:
``FULL`` means the variable stands for e^(2*pi*i*tau), ``HALF`` for
e^(pi*i*tau).  They are plain data tags here, but mixing them in arithmetic
is a hard error.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, isqrt, lcm
from operator import mul

__all__ = [
    "FULL",
    "HALF",
    "NomeMismatch",
    "QSeries",
    "BiSeries",
    "ExponentTable",
    "exp_series",
    "log_series",
    "product_from_exponents",
    "exponents_from_series",
    "divisors",
    "moebius",
    "sigma",
    "gbinom",
]

FULL = "full"
HALF = "half"


class NomeMismatch(ValueError):
    """Raised when series with different nome conventions are combined."""


def _num(x):
    """Normalize an exact number: Fractions with denominator 1 become ints."""
    if type(x) is int:  # the common case, without the ABC check Fraction costs
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def _frac24(x, what="prefactor exponent") -> Fraction:
    f = Fraction(x)
    if 24 % f.denominator:
        raise ValueError(f"{what} {f} has denominator not dividing 24")
    return f


def _fmt_rat(x) -> str:
    x = _num(x)
    return str(x) if isinstance(x, int) else f"{x.numerator}/{x.denominator}"


def _parse_rat(s: str, what: str):
    """The exact rational that "n" or "n/d" spells; a ValueError names ``what`` if none."""
    n, slash, d = s.partition("/")
    try:
        return _num(Fraction(int(n), int(d) if slash else 1))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} must be an integer or a fraction n/d, got {s!r}") from None


def _json_fields(data, what: str, **kinds) -> list:
    """The named fields of a JSON object, each checked to be of its kind.

    A kind is int, dict or ``int | None`` (an integer, or a null or missing
    field).  Raises ValueError naming the object or the first bad field.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object")
    for field, kind in kinds.items():
        value = data.get(field)
        if not isinstance(value, kind) or isinstance(value, bool):
            noun = {int: "an integer", dict: "an object"}.get(kind, "an integer or null")
            raise ValueError(f"{what} field {field!r} must be {noun}")
    return [data.get(field) for field in kinds]


def _json_table(data: dict, what: str, field: str, arity: int) -> dict:
    """data[field], an object keyed like "1,-2", as {(1, -2): integer value}.

    Two keys that spell one index (such as "1" and "01") are rejected.
    """
    table, keys = {}, {}
    for key, value in data[field].items():
        try:
            index = tuple(int(x) for x in key.split(","))
        except ValueError:
            index = ()
        if len(index) != arity:
            raise ValueError(f"{what} field {field!r} key {key!r} must be "
                             f"{arity} comma-separated integers")
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{what} field {field!r} entry {key!r} must be an integer, "
                             f"got {value!r}")
        if index in keys:
            raise ValueError(f"{what} field {field!r} keys {keys[index]!r} and {key!r} "
                             f"name the same entry")
        table[index], keys[index] = value, key
    return table


def _first_mismatch(lhs: dict, rhs: dict, known=None, key=None):
    """First (key, lhs value, rhs value) where two coefficient dicts differ, or None.

    Walks the union of their keys in sorted order (by ``key``) and skips the
    keys where ``known(key)`` is false; a key missing from one side is 0 there.
    """
    for k in sorted(lhs.keys() | rhs.keys(), key=key):
        a, b = lhs.get(k, 0), rhs.get(k, 0)
        if a != b and (known is None or known(k)):
            return (k, a, b)
    return None


class QSeries:
    """Truncated Laurent series  q^prefactor * sum coeffs[e] * q^e.

    ``coeffs`` maps integer exponents (negative allowed) to exact rationals;
    ``trunc`` is the largest exponent whose coefficient is known; ``prefactor``
    is a symbolic fractional power with denominator dividing 24, carried
    outside the integer exponent grid.  Instances are immutable by convention:
    no method mutates self, and callers must not mutate ``coeffs``.
    """

    __slots__ = ("nome", "prefactor", "coeffs", "trunc")

    def __init__(self, coeffs, trunc, *, nome=FULL, prefactor=0):
        if nome not in (FULL, HALF):
            raise ValueError(f"unknown nome convention {nome!r}")
        self.nome = nome
        self.prefactor = _frac24(prefactor)
        self.trunc = int(trunc)
        clean = {}
        for e, c in coeffs.items():
            c = _num(c)
            if not c:  # not stored, so a zero above trunc is no error
                continue
            e = int(e)
            if e > self.trunc:
                raise ValueError(f"stored exponent {e} above trunc {self.trunc}")
            clean[e] = c
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc, **kw):
        return cls({}, trunc, **kw)

    @classmethod
    def const(cls, c, trunc, **kw):
        """The constant c, which is unknown (so not stored) when trunc < 0."""
        return cls({0: c} if trunc >= 0 else {}, trunc, **kw)

    @classmethod
    def one(cls, trunc, **kw):
        return cls.const(1, trunc, **kw)

    # -- inspection --------------------------------------------------------

    def coeff(self, e: int):
        """Coefficient at integer exponent e; raises if e is beyond trunc."""
        if e > self.trunc:
            raise ValueError(f"coefficient at {e} unknown (trunc {self.trunc})")
        return self.coeffs.get(e, 0)

    __getitem__ = coeff

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self):
        """Lowest exponent with nonzero coefficient, or None for the zero series."""
        return min(self.coeffs) if self.coeffs else None

    def __repr__(self):
        return (f"QSeries({self.nome}, prefactor={self.prefactor}, "
                f"{len(self.coeffs)} terms, trunc={self.trunc})")

    # -- structural helpers ------------------------------------------------

    def _like(self, coeffs, trunc, prefactor=None):
        return QSeries(coeffs, trunc, nome=self.nome,
                       prefactor=self.prefactor if prefactor is None else prefactor)

    def _check_compat(self, other: "QSeries"):
        if self.nome != other.nome:
            raise NomeMismatch(f"cannot combine {self.nome}-nome with {other.nome}-nome series")

    def truncate(self, order: int) -> "QSeries":
        if order >= self.trunc:
            return self
        return self._like({e: c for e, c in self.coeffs.items() if e <= order}, order)

    def shift(self, n: int) -> "QSeries":
        """Multiply by the integer power q^n."""
        return self._like({e + n: c for e, c in self.coeffs.items()}, self.trunc + n)

    def canonical(self) -> "QSeries":
        """Fold the integer part of the prefactor into the exponent grid."""
        s = self.prefactor.numerator // self.prefactor.denominator
        if s == 0:
            return self
        return self._like({e + s: c for e, c in self.coeffs.items()}, self.trunc + s,
                          self.prefactor - s)

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return self._like({e: -c for e, c in self.coeffs.items()}, self.trunc)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.const(other, self.trunc, nome=self.nome)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_compat(other)
        if self.prefactor != other.prefactor:
            raise ValueError(f"prefactor mismatch on add: {self.prefactor} vs {other.prefactor}")
        trunc = min(self.trunc, other.trunc)
        out = {e: c for e, c in self.coeffs.items() if e <= trunc}
        for e, c in other.coeffs.items():
            if e <= trunc:
                out[e] = out.get(e, 0) + c
        return self._like(out, trunc)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, QSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._like({e: c * other for e, c in self.coeffs.items()}, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_compat(other)
        # Unknown tails poison the product past these bounds.  A zero operand
        # is known only through its trunc: its valuation is at least trunc + 1.
        va, vb = (min(s.coeffs, default=s.trunc + 1) for s in (self, other))
        trunc = min(self.trunc + vb, other.trunc + va)
        if self.is_zero() or other.is_zero():
            return self._like({}, trunc, prefactor=self.prefactor + other.prefactor)
        n = trunc - va - vb + 1
        a = _dense(self, va, n)
        out = _mul_lists(a, a if other is self else _dense(other, vb, n), n)
        return self._like({i + va + vb: c for i, c in enumerate(out)}, trunc,
                          prefactor=self.prefactor + other.prefactor)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.invert() ** (-k)
        if k < 2:
            return self if k else QSeries.one(self.trunc, nome=self.nome)
        half = self ** (k // 2)
        return half * half * self if k & 1 else half * half

    def invert(self) -> "QSeries":
        """Multiplicative inverse; the lowest monomial moves to a negative power."""
        v = self.valuation()
        if v is None:
            raise ValueError("cannot invert the zero series")
        n = self.trunc - v + 1  # unit part known through q^(n-1)
        r = _inverse(_dense(self, v, n), n)
        return self._like({i - v: c for i, c in enumerate(r)}, n - 1 - v,
                          prefactor=-self.prefactor)

    def mul_binomials(self, factors) -> "QSeries":
        """Multiply by prod (1 + sign * q^a)^e over the (a, e, sign) factors.

        Every factor is an exactly known unit (a >= 1), so the truncation and
        the valuation stay; e may be any exact rational.  The factors become
        one Euler product, as (1 + q^a)^e = (1 - q^2a)^e (1 - q^a)^-e.
        """
        v = self.valuation()
        if v is None:
            return self
        exps = {}
        for a, e, sign in factors:
            if a < 1 or sign not in (1, -1):
                raise ValueError("factor needs exponent a >= 1 and sign +1 or -1")
            for d, x in ([(a, e)] if sign == -1 else [(2 * a, e), (a, -e)]):
                exps[d] = exps.get(d, 0) + x
        span = self.trunc - v
        table = ExponentTable(0, {d: x for d, x in exps.items() if d <= span}, span)
        return self * product_from_exponents(table, nome=self.nome)

    def scale_var(self, k: int) -> "QSeries":
        """Substitute q -> q^k (i.e. tau -> k*tau on the same nome grid)."""
        if k < 1:
            raise ValueError("scale factor must be a positive integer")
        # exponents between k*trunc and k*(trunc+1)-1 are known zeros
        return self._like({e * k: c for e, c in self.coeffs.items()},
                          k * (self.trunc + 1) - 1, self.prefactor * k)

    # -- comparison --------------------------------------------------------

    def agrees_with(self, other: "QSeries", order: int | None = None) -> bool:
        return self.first_mismatch(other, order) is None

    def first_mismatch(self, other: "QSeries", order: int | None = None):
        """First (exponent, lhs, rhs) disagreement in ascending exponent order.

        Comparison happens on canonical form (integer prefactor part folded
        in) up to the shared truncation, or None when the sides agree.
        """
        self._check_compat(other)
        a, b = self.canonical(), other.canonical()
        if a.prefactor != b.prefactor:
            raise ValueError(f"prefactor mismatch in comparison: {a.prefactor} vs {b.prefactor}")
        hi = min(a.trunc, b.trunc) if order is None else min(a.trunc, b.trunc, order)
        return _first_mismatch(a.coeffs, b.coeffs, lambda e: e <= hi)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.agrees_with(other)

    __hash__ = None

    # -- serialization and display ------------------------------------------

    def to_json(self) -> dict:
        return {
            "var": "q",
            "nome": self.nome,
            "prefactor": _fmt_rat(self.prefactor),
            "trunc": self.trunc,
            "coeffs": {str(e): _fmt_rat(c) for e, c in sorted(self.coeffs.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "QSeries":
        coeffs, trunc = _json_fields(data, "series", coeffs=dict, trunc=int)
        terms, keys = {}, {}
        for e, c in coeffs.items():
            if not isinstance(c, str):
                raise ValueError(f"series field 'coeffs' entry {e!r} must be a string, got {c!r}")
            try:
                n = int(e)
            except ValueError:
                raise ValueError(f"series field 'coeffs' key {e!r} must be an integer") from None
            if n in keys:
                raise ValueError(f"series field 'coeffs' keys {keys[n]!r} and {e!r} "
                                 f"name the same exponent")
            terms[n], keys[n] = _parse_rat(c, f"series field 'coeffs' entry {e!r}"), e
            if n > trunc and terms[n]:
                raise ValueError(f"series field 'coeffs' key {e!r} is above trunc {trunc}")
        prefactor, nome = data.get("prefactor", "0"), data.get("nome", FULL)
        if not isinstance(prefactor, str):
            raise ValueError("series field 'prefactor' must be a string")
        what = "series field 'prefactor'"
        prefactor = _frac24(_parse_rat(prefactor, what), what)
        if nome not in (FULL, HALF):
            raise ValueError(f"series field 'nome' must be {FULL!r} or {HALF!r}, got {nome!r}")
        return cls(terms, trunc, nome=nome, prefactor=prefactor)

    def pretty(self) -> str:
        """Paper-style one-line display: ascending exponents, explicit signs."""
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            mag = abs(c)
            num = str(mag) if isinstance(mag, int) else f"({_fmt_rat(mag)})"
            power = "" if e == 0 else "q" if e == 1 else f"q^{e}"
            body = power if power and mag == 1 else num + power
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        parts.append(f"+ O(q^{self.trunc + 1})" if parts else f"0 + O(q^{self.trunc + 1})")
        body = " ".join(parts)
        if self.prefactor:
            return f"q^({_fmt_rat(self.prefactor)}) * ({body})"
        return body


# -- dense exact kernel, exponential and logarithm -----------------------------
#
# Coefficient lists (entry i belongs to q^(v + i)) multiplied by two-point Kronecker
# substitution; inverse, log, exp and Euler products all build on that multiply.

_EXP_BLOCK = 128  # exp terms the plain recurrence finds between products; 96-192 measure alike


def _dense(s: QSeries, v: int, n: int) -> list:
    """The coefficients of s at q^v, ..., q^(v + n - 1)."""
    out = [0] * n
    for e, c in s.coeffs.items():
        if 0 <= e - v < n:
            out[e - v] = c
    return out


def _integral(cs: list):
    """(ints, den) with cs[i] == ints[i] / den, den the lcm of the denominators."""
    den = lcm(*(c.denominator for c in cs if type(c) is not int))
    return [c * den if type(c) is int else c.numerator * (den // c.denominator) for c in cs], den


def _pack(cs: list, width: int, half: int) -> int:
    """sum cs[i] 2^(8 width i) for |cs[i]| < half: slot i holds the bytes of cs[i] + half."""
    slot = half.to_bytes(width, "little")
    buf = bytearray(slot * len(cs))
    for i, c in enumerate(cs):
        if c:
            buf[i * width:(i + 1) * width] = (c + half).to_bytes(width, "little")
    return int.from_bytes(buf, "little") - int.from_bytes(slot * len(cs), "little")


def _at_both_signs(cs: list, width: int, half: int) -> tuple:
    """(c(2^N), c(-2^N)) for N = 4 width: the even and odd coefficients packed apart."""
    even, odd = _pack(cs[0::2], width, half), _pack(cs[1::2], width, half) << 4 * width
    return even + odd, even - odd


def _mul_lists(a: list, b: list, n: int) -> list:
    """The first n coefficients of the product of coefficient lists a and b.

    Two-point Kronecker substitution, KS2 (D. Harvey, J. Symbolic Comput. 44,
    2009): half-size products give p(2^N) and p(-2^N); their half-sum and -difference
    hold the even and odd coefficients in width-byte slots (width even, N = 4 width)
    of min(len) max|a| max|b| and a sign, biased by half.  Rationals share one den.
    """
    square = a is b
    a, b = a[:n], b[:n]
    for x, y in ((a, b), (b, a)):
        step = gcd(*(i for i, c in enumerate(y) if c))
        if step > 1:  # y is a series in q^step: one product per residue class of x
            out, ys = [0] * n, y[::step]
            for r in range(step):
                out[r::step] = _mul_lists(x[r::step], ys, len(range(r, n, step)))
            return out
    a, den = _integral(a)
    b, den_b = (a, den) if square else _integral(b)
    den *= den_b
    top_a, top_b = max(map(abs, a), default=0), max(map(abs, b), default=0)
    if not top_a or not top_b:
        return [0] * n
    bits = top_a.bit_length() + top_b.bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (bits + 15) // 16 * 2
    half = 1 << (8 * width - 1)
    xp, xm = _at_both_signs(a, width, half)
    yp, ym = (xp, xm) if square else _at_both_signs(b, width, half)  # squares stay squares
    zp, zm = xp * yp, xm * ym
    out = [0] * n
    for r, z in ((0, (zp + zm) >> 1), (1, (zp - zm) >> (4 * width + 1))):
        k = width * len(range(r, n, 2))  # bytes in the slots of this parity
        z += int.from_bytes(half.to_bytes(width, "little") * (k // width), "little")
        data = memoryview((z & ((1 << 8 * k) - 1)).to_bytes(k, "little"))
        out[r::2] = [int.from_bytes(data[i:i + width], "little") - half for i in range(0, k, width)]
    return out if den == 1 else [_num(Fraction(c, den)) for c in out]


def _inverse(u: list, n: int) -> list:
    """The first n coefficients (at least one) of 1/u, for u[0] != 0, by Newton doubling."""
    r = [_num(Fraction(1) / u[0])]
    while len(r) < n:  # u r = 1 + q^k e mod q^2k, so 1/u = r - q^k r e mod q^2k
        k, m = len(r), min(2 * len(r), n)
        r += [-c for c in _mul_lists(r, _mul_lists(u, r, m)[k:], m - k)]
    return r


def _exp_recurrence(w: list, n: int) -> list:
    """Terms 0..n of the b = 1 + ... with q b'/b = sum_k w[k-1] q^k, where
    m b_m = sum_{k <= m} w[k-1] b_{m-k}.

    Semi-relaxed divide and conquer (J. van der Hoeven, J. Symbolic Comput. 34,
    2002), in O(M(n) log n): once b[lo:mid] is known, its share of the sums for
    m in [mid, hi) is one ``_mul_lists`` product; the recurrence finds at most
    _EXP_BLOCK terms at a time, exact quotients staying ints.
    """
    b, acc = [1], [0] * (n + 1)

    def solve(lo: int, hi: int):  # b[lo:hi], when acc holds the share of b[:lo]
        if hi - lo <= _EXP_BLOCK:
            run = b[lo:]  # this run's terms: b_0 alone, or none yet
            for m in range(max(lo, 1), hi):
                run.append(_num(Fraction(sum(map(mul, w, reversed(run)), acc[m]), m)))
            b[lo:] = run
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        share = _mul_lists(b[lo:mid], w[:hi - lo], hi - lo - 1)
        for m in range(mid, hi):
            acc[m] += share[m - lo - 1]
        solve(mid, hi)

    solve(0, n + 1)
    return b


def exp_series(a: QSeries) -> QSeries:
    """Formal exponential; requires zero constant term, zero prefactor."""
    if a.prefactor:
        raise ValueError("exp_series requires zero prefactor")
    v = a.valuation()
    if v is not None and v < 1:
        raise ValueError("exp_series requires valuation >= 1 (no constant term)")
    n = a.trunc
    w = [k * c for k, c in enumerate(_dense(a, 0, n + 1))][1:]
    return QSeries(dict(enumerate(_exp_recurrence(w, n))), n, nome=a.nome)


def log_series(a: QSeries) -> QSeries:
    """Formal logarithm, the integral of a'/a; requires constant term 1, zero prefactor."""
    if a.prefactor:
        raise ValueError("log_series requires zero prefactor")
    if a.coeffs.get(0) != 1 or (a.valuation() is not None and a.valuation() < 0):
        raise ValueError("log_series requires constant term 1")
    n = a.trunc
    derivative = QSeries({e - 1: e * c for e, c in a.coeffs.items() if e}, n - 1, nome=a.nome)
    ratio = derivative * a.invert()
    return QSeries({e + 1: Fraction(c, e + 1) for e, c in ratio.coeffs.items()}, n, nome=a.nome)


# -- product <-> exponent conversion ----------------------------------------


class ExponentTable:
    """Data of an infinite product q^(-h) * prod_{n>0} (1 - q^n)^{e_n}."""

    __slots__ = ("h", "exps", "order")

    def __init__(self, h, exps, order):
        self.h = _num(Fraction(h))
        self.order = int(order)
        self.exps = {}
        for n, e in exps.items():
            n = int(n)
            if not 1 <= n <= self.order:
                raise ValueError(f"exponent index {n} outside 1..{self.order}")
            e = _num(e)
            if e:
                self.exps[n] = e

    def __getitem__(self, n: int):
        if not 1 <= n <= self.order:
            raise ValueError(f"exponent e_{n} unknown (order {self.order})")
        return self.exps.get(n, 0)

    def __eq__(self, other):
        if not isinstance(other, ExponentTable):
            return NotImplemented
        order = min(self.order, other.order)
        return self.h == other.h and \
            _first_mismatch(self.exps, other.exps, lambda n: n <= order) is None

    __hash__ = None

    def __repr__(self):
        return f"ExponentTable(h={self.h}, order={self.order})"

    def to_json(self) -> dict:
        return {"h": _fmt_rat(self.h), "order": self.order,
                "exponents": {str(n): _fmt_rat(e) for n, e in sorted(self.exps.items())}}


def gbinom(e, k: int):
    """Generalized binomial coefficient C(e, k) for integer or rational e."""
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    return dict(_binomial_terms(e, 1, k)).get(k, 0)


def _binomial_terms(e, sign, kmax):
    """(k, sign^k C(e, k)) for k <= kmax, by C(e, k) = C(e, k - 1) (e - k + 1) / k for
    every exponent e, up to the first zero term (k = e + 1 for an integer e >= 0)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    c, k = 1, 0
    while c and k <= kmax:
        yield k, c
        k += 1
        c = _num(Fraction(sign * c * (e - k + 1), k))


def product_from_exponents(t: ExponentTable, *, nome=FULL) -> QSeries:
    """Expand q^(-h) * prod_{n <= order} (1 - q^n)^{e_n} exactly (Euler transform).

    The fractional part of -h becomes the prefactor; missing factors beyond
    the table's order are 1 + O(q^{order+1}), so the expansion is exact to
    the shifted truncation.
    """
    w = [0] * t.order  # q u'/u = sum_k w[k-1] q^k, w[k-1] = -sum_{d | k} d e_d
    for d, e in t.exps.items():
        for k in range(d, t.order + 1, d):
            w[k - 1] -= d * e
    unit = _exp_recurrence(w, t.order)
    minus_h = -Fraction(t.h)
    shift = minus_h.numerator // minus_h.denominator
    return QSeries({i + shift: c for i, c in enumerate(unit)}, t.order + shift,
                   nome=nome, prefactor=minus_h - shift)


def exponents_from_series(a: QSeries, order: int) -> ExponentTable:
    """Recover the exponent table of a = q^(-h) * prod (1-q^n)^{e_n}.

    With u the unit part of a (constant term 1), -q u'/u = -q (log u)' =
    sum_m g_m q^m and g_m = sum_{d | m} d e_d, so a sieve over d peels off
    d e_d in order.
    """
    v = a.valuation()
    if v is None:
        raise ValueError("zero series has no product expansion")
    if a.coeffs[v] != 1:
        raise ValueError("unit part's constant term must be 1")
    if not 0 <= order <= a.trunc - v:
        raise ValueError(f"series known to order {a.trunc - v} after normalization, need {order}")
    u = QSeries(a.shift(-v).truncate(order).coeffs, order, nome=a.nome)
    log = log_series(u).coeffs
    g = [_num(-m * log.get(m, 0)) for m in range(1, order + 1)]
    exps = {}
    for d, x in enumerate(g, 1):
        if x:  # x = d e_d: the proper divisors' terms are already subtracted
            exps[d] = _num(Fraction(x, d))
            for m in range(2 * d, order + 1, d):
                g[m - 1] -= x
    return ExponentTable(-(v + a.prefactor), exps, order)


# -- elementary arithmetic functions ----------------------------------------


def divisors(n: int) -> list[int]:
    if n < 1:
        raise ValueError("divisors defined for n >= 1")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius defined for n >= 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


def sigma(k: int, n: int) -> int:
    if n < 1:
        raise ValueError("sigma defined for n >= 1")
    return sum(d ** k for d in divisors(n))


# -- two-variable series -----------------------------------------------------


class BiSeries:
    """Series in a capped primary variable and a topped Laurent secondary one.

    ``cap`` bounds knowledge of the first variable's exponent, exactly like
    QSeries.trunc.  ``ytop`` does the same for the second variable: terms
    above it are unknown and dropped on construction, and None means every
    second-variable exponent is known.  The one product, ``mul_binomials``,
    works in place on rows {x: {y: c}} and keeps both honest on its own: it
    lowers the y-top by as far as its factors can carry an unknown term
    down.  No product needs a bound below.
    """

    __slots__ = ("coeffs", "cap", "ytop")

    def __init__(self, coeffs, cap, *, ytop=None):
        self.cap = int(cap)
        self.ytop = None if ytop is None else int(ytop)
        clean = {}
        for (ex, ey), c in coeffs.items():
            ex, ey = int(ex), int(ey)
            if ex > self.cap:
                raise ValueError(f"stored exponent {ex} above cap {self.cap}")
            if self.ytop is not None and ey > self.ytop:
                continue
            c = _num(c)
            if c:
                clean[(ex, ey)] = c
        self.coeffs = clean

    @classmethod
    def one(cls, cap, **kw):
        """The constant 1, which is unknown (so not stored) when cap < 0."""
        return cls({(0, 0): 1} if cap >= 0 else {}, cap, **kw)

    def __repr__(self):
        return f"BiSeries({len(self.coeffs)} terms, cap={self.cap}, ytop={self.ytop})"

    def shift_x(self, n: int) -> "BiSeries":
        return BiSeries({(ex + n, ey): c for (ex, ey), c in self.coeffs.items()},
                        self.cap + n, ytop=self.ytop)

    def mul_binomials(self, factors) -> "BiSeries":
        """Multiply by prod (1 + sign * x^a y^b)^e over the (a, b, e, sign) factors.

        It takes the factors its callers build and raises ValueError on any
        other: every stored x and every a is >= 0, and e is an int >= -1.  A
        factor constant in x (a == 0) either multiplies (e >= 0), with b >= 0
        under a y-top, or divides (e = -1), with b > 0 and a y-top.

        The running product is held as rows {x: {y: c}} from entry to exit,
        and each factor acts on it in place in one of two ways.  Dividing by
        a unit factor (e = -1) runs the partition-counting recurrence
        c[k] -= sign c[k - (a, b)] on new values, in ascending x or, for
        a == 0, ascending y along each row.  Every other factor, like
        (1 - p^m q^n)^c(mn) whose exponent runs to dozens of digits,
        multiplies by its exact binomial terms sign^k C(e, k) x^(ka) y^(kb),
        as far as the cap can use (all e + 1 of them for a == 0): walking x
        downward, term k >= 1 of each old row x is added into row x + ka
        shifted by kb, and for a == 0 each row becomes the sum of its shifted
        copies.  A unit multiply (e = 1) is the two-term case.

        Keys above the cap or the y-top are dropped, and a term that cancels
        leaves its row, so rows hold only nonzero terms.  No x-valuation is
        below 0, so the cap stays.  The y-top follows the unknown terms above
        it, which only factors with a > 0 and b < 0 carry down: at most
        |b| / a per step in x and max(cap, 0) steps in all.  The result's
        y-top is lowered by the ceiling of max(cap, 0) times the steepest
        |b| / a.
        """
        rows = {}
        for (x, y), v in self.coeffs.items():
            rows.setdefault(x, {})[y] = v
        if min(rows, default=0) < 0:
            raise ValueError("stored first-variable exponents must be >= 0")
        cap, ytop = self.cap, self.ytop
        steep = 0  # how far b < 0 factors carry unknown terms down
        for a, b, e, sign in factors:
            if sign not in (1, -1) or a < 0 or not isinstance(e, int) or e < -1:
                raise ValueError("factor needs a >= 0, sign +1 or -1 and an integer e >= -1")
            if a == 0 and (b < 0 and ytop is not None or e == -1 and (b <= 0 or ytop is None)):
                raise ValueError("factor constant in the capped variable needs b >= 0 under "
                                 "a y-top, and to divide, b > 0 and a y-top")
            if a and b < 0:
                steep = max(steep, -(max(cap, 0) * b // a))
            xs = range(min(rows, default=cap), cap - a + 1)
            lim = None if ytop is None or b <= 0 else ytop - b
            if e == -1:  # divide, reading each source after its own update
                steps = [(a, b, -sign, lim)]
            else:  # multiply, reading each source before any update
                steps = [(k * a, k * b, c, None if ytop is None or b <= 0 else ytop - k * b)
                         for k, c in _binomial_terms(e, sign, max(cap, 0) // a if a else e) if k]
                xs = reversed(xs)
            for x in xs:
                src = rows.get(x)
                if not src:
                    continue
                if a:
                    items = src.items()
                elif e == -1:  # ascending y along the row, on new values
                    items = ((y, src[y]) for y in range(min(src), lim + 1) if y in src)
                else:
                    items = list(src.items())
                for dx, dy, c, top in steps:
                    to = x + dx
                    if to > cap:
                        break
                    row = rows.get(to)
                    if row is None:
                        row = rows[to] = {}
                    get = row.get
                    for y, v in items:
                        if top is None or y <= top:
                            y += dy
                            v = get(y, 0) + c * v
                            if v:
                                row[y] = v
                            else:  # rows hold only nonzero terms
                                del row[y]
        return BiSeries({(x, y): v for x, row in rows.items() for y, v in row.items()}, cap,
                        ytop=None if ytop is None else ytop - steep)

    def first_mismatch(self, other: "BiSeries"):
        """First disagreeing monomial in graded-lex order (x+y, x, y), or None.

        Comparison runs within the smaller cap and the smaller y-top.
        """
        hi = min(self.cap, other.cap)
        top = min((t for t in (self.ytop, other.ytop) if t is not None), default=inf)
        return _first_mismatch(self.coeffs, other.coeffs,
                               lambda k: k[0] <= hi and k[1] <= top,
                               lambda k: (k[0] + k[1], k[0], k[1]))

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self.first_mismatch(other) is None

    __hash__ = None

