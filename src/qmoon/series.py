"""Exact truncated Laurent series in one and two variables.

Every coefficient is an exact rational, an int unless truly rational: ``_rat``
imports fractions for the first Fraction it needs.  Nothing in this module
touches floating point.  A series knows its truncation order:
coefficients at exponents above ``trunc`` are *unknown*, never silently zero,
and every operation propagates the honest truncation of its result.

Two nome conventions coexist in the catalog built on top of this module:
``FULL`` means the variable stands for e^(2*pi*i*tau), ``HALF`` for
e^(pi*i*tau).  They are plain data tags here, but mixing them in arithmetic
is a hard error.
"""

from __future__ import annotations

import sys
from itertools import compress, repeat
from math import gcd, inf, lcm
from operator import add, index, mul, sub
from struct import Struct

__all__ = [
    "FULL",
    "HALF",
    "QSeries",
    "BiSeries",
    "ExponentTable",
    "VerifyReport",
    "product_from_exponents",
    "exponents_from_series",
]

FULL = "full"
HALF = "half"


class NomeMismatch(ValueError):
    """Raised when series with different nome conventions are combined."""


def _rat(n, d=1):
    """n / d for exact rationals n and d != 0: an int when d divides n, else a Fraction.
    An n alone may be anything Fraction(n) reads, such as a float or "1/4"."""
    if type(n) is int and type(d) is int:
        q, r = divmod(n, d)
        if not r:
            return q
    elif type(n) is str and n.strip().removeprefix("-").isdecimal():
        return _rat(int(n), d)  # an integer spelled out, read without fractions
    Fraction = (sys.modules.get("fractions") or __import__("fractions")).Fraction
    return _num(Fraction(n) if d == 1 else Fraction(n, d))


def _exact(x) -> bool:
    """x is an int or a Fraction, asked without importing fractions: no Fraction predates it."""
    fractions = sys.modules.get("fractions")
    return isinstance(x, int) or fractions is not None and isinstance(x, fractions.Fraction)


def _num(x):
    """Normalize an exact number: Fractions with denominator 1 become ints."""
    if type(x) is int:  # the common case, without the ABC check Fraction costs
        return x
    if not _exact(x):
        raise TypeError(f"exact rational expected, got {type(x).__name__}")
    return int(x) if x.denominator == 1 else x


def _fmt_rat(n, d=1) -> str:
    """The rational n / d, for an int or Fraction n and an int d > 0, as -3 or 23/4."""
    if type(n) is int and d == 1:
        return str(n)
    d *= n.denominator
    g = gcd(n.numerator, d)
    return str(n.numerator // g) if d == g else f"{n.numerator // g}/{d // g}"


def _fmt_tuple(m) -> str:
    """A tuple as its repr reads, with rationals inside as -3 or 23/4 and strs as they are."""
    if not isinstance(m, tuple):
        return m if isinstance(m, str) else _fmt_rat(m)
    parts = [_fmt_tuple(x) for x in m]
    return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"


def _parse_rat(s: str, what: str):
    """The exact rational that "n" or "n/d" spells; a ValueError names ``what`` if none."""
    n, slash, d = s.partition("/")
    try:
        return _rat(int(n), int(d) if slash else 1)
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
    Equal dicts hold the same keys with values equal under the walk's own !=,
    so they return None before any sort.
    """
    if lhs == rhs:
        return None
    for k in sorted(lhs.keys() | rhs.keys(), key=key):
        a, b = lhs.get(k, 0), rhs.get(k, 0)
        if a != b and (known is None or known(k)):
            return (k, a, b)
    return None


class VerifyReport:
    """Outcome of one check: the first (monomial, lhs, rhs) mismatch, or None."""

    __slots__ = ("name", "order", "first_mismatch")

    def __init__(self, name, order, first_mismatch):
        self.name, self.order, self.first_mismatch = name, order, first_mismatch

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None

    def __repr__(self):
        tail = "passed" if self.passed else f"mismatch at {self.first_mismatch[0]}"
        return f"VerifyReport({self.name}, order={self.order}, {tail})"

    def to_json(self) -> dict:
        data = {"name": self.name, "order": self.order, "passed": self.passed,
                "first_mismatch": None}
        if self.first_mismatch is not None:
            monomial, lhs, rhs = self.first_mismatch
            if isinstance(monomial, tuple):
                monomial = list(monomial)
            data["first_mismatch"] = {"monomial": monomial,
                                      "lhs": str(lhs), "rhs": str(rhs)}
        return data


class QSeries:
    """Truncated Laurent series  q^(pre24/24) * sum coeffs[e] * q^e.

    ``coeffs`` maps integer exponents (negative allowed) to exact rationals;
    ``trunc`` is the largest exponent whose coefficient is known; ``pre24``,
    an int, counts the twenty-fourths of a symbolic prefactor power carried
    outside the integer exponent grid.  Instances are immutable by convention:
    no method mutates self, and callers must not mutate ``coeffs``.
    """

    __slots__ = ("nome", "pre24", "coeffs", "trunc")

    def __init__(self, coeffs, trunc, *, nome=FULL, pre24=0):
        if nome not in (FULL, HALF):
            raise ValueError(f"unknown nome convention {nome!r}")
        self.nome = nome
        self.pre24 = index(pre24)
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

    def valuation(self):
        """Lowest exponent with nonzero coefficient, or None for the zero series."""
        return min(self.coeffs) if self.coeffs else None

    def __repr__(self):
        return (f"QSeries({self.nome}, prefactor={_fmt_rat(self.pre24, 24)}, "
                f"{len(self.coeffs)} terms, trunc={self.trunc})")

    # -- structural helpers ------------------------------------------------

    def _like(self, coeffs, trunc, pre24=None):
        return QSeries(coeffs, trunc, nome=self.nome,
                       pre24=self.pre24 if pre24 is None else pre24)

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
        """Fold the whole powers of q in the prefactor into the exponent grid."""
        s, pre24 = divmod(self.pre24, 24)
        if s == 0:
            return self
        return self._like({e + s: c for e, c in self.coeffs.items()}, self.trunc + s, pre24)

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return self._like({e: -c for e, c in self.coeffs.items()}, self.trunc)

    def __add__(self, other):
        if _exact(other):
            other = QSeries.const(other, self.trunc, nome=self.nome)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_compat(other)
        if self.pre24 != other.pre24:
            raise ValueError(f"prefactor mismatch on add: {_fmt_rat(self.pre24, 24)} vs "
                             f"{_fmt_rat(other.pre24, 24)}")
        trunc = min(self.trunc, other.trunc)
        out = {e: c for e, c in self.coeffs.items() if e <= trunc}
        for e, c in other.coeffs.items():
            if e <= trunc:
                out[e] = out.get(e, 0) + c
        return self._like(out, trunc)

    __radd__ = __add__

    def __sub__(self, other):
        if not (_exact(other) or isinstance(other, QSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _exact(other):
            return self._like({e: c * other for e, c in self.coeffs.items()}, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_compat(other)
        # Unknown tails poison the product past these bounds.  A zero operand
        # is known only through its trunc: its valuation is at least trunc + 1.
        va, vb = (min(s.coeffs, default=s.trunc + 1) for s in (self, other))
        trunc = min(self.trunc + vb, other.trunc + va)
        prod = self._like({}, trunc, self.pre24 + other.pre24)
        if self.coeffs and other.coeffs:  # _mul_lists's terms are clean and at most trunc
            n = trunc - va - vb + 1
            a = _dense(self, va, n)
            out = _mul_lists(a, a if other is self else _dense(other, vb, n), n)
            prod.coeffs = dict(compress(zip(range(va + vb, trunc + 1), out), out))
        return prod

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        if k < 2:
            return self if k else QSeries.one(self.trunc, nome=self.nome)
        half = self ** (k // 2)
        return half * half * self if k & 1 else half * half

    def __truediv__(self, other):
        """The quotient by a rational, or by a series as far as self times its inverse is known."""
        if _exact(other):
            _rat(0, other)  # a zero divisor raises ZeroDivisionError here, terms or none
            return self._like({e: _rat(c, other) for e, c in self.coeffs.items()}, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_compat(other)
        v = other.valuation()
        if v is None:
            raise ValueError("cannot divide by the zero series")
        va = min(self.coeffs, default=self.trunc + 1)
        trunc = min(self.trunc - v, other.trunc - 2 * v + va)
        b = []
        if self.coeffs:  # b u = a on the n terms from q^va and q^v
            n = trunc - va + v + 1
            b = _div_lists(_dense(self, va, n), _dense(other, v, n), n)
        return self._like({i + va - v: c for i, c in enumerate(b)}, trunc,
                          self.pre24 - other.pre24)

    def invert(self) -> "QSeries":
        """Multiplicative inverse; the lowest monomial moves to a negative power."""
        return QSeries.one(self.trunc - min(self.coeffs, default=0), nome=self.nome) / self

    def scale_var(self, k: int) -> "QSeries":
        """Substitute q -> q^k (i.e. tau -> k*tau on the same nome grid)."""
        if k < 1:
            raise ValueError("scale factor must be a positive integer")
        # exponents between k*trunc and k*(trunc+1)-1 are known zeros
        return self._like({e * k: c for e, c in self.coeffs.items()},
                          k * (self.trunc + 1) - 1, self.pre24 * k)

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
        if a.pre24 != b.pre24:
            raise ValueError(f"prefactor mismatch in comparison: {_fmt_rat(a.pre24, 24)} vs "
                             f"{_fmt_rat(b.pre24, 24)}")
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
            "prefactor": _fmt_rat(self.pre24, 24),
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
        value = _parse_rat(prefactor, what)
        pre24 = _rat(24 * value)
        if type(pre24) is not int:
            raise ValueError(f"{what} {value} has denominator not dividing 24")
        if nome not in (FULL, HALF):
            raise ValueError(f"series field 'nome' must be {FULL!r} or {HALF!r}, got {nome!r}")
        return cls(terms, trunc, nome=nome, pre24=pre24)

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
        if self.pre24:
            return f"q^({_fmt_rat(self.pre24, 24)}) * ({body})"
        return body


# -- dense exact kernel, exponential and logarithm -----------------------------
#
# Coefficient lists (entry i belongs to q^(v + i)) multiplied by two-point Kronecker
# substitution; division, log, exp and Euler products are one triangular solve on it.

_LITTLE = sys.byteorder == "little"  # 8-byte slots then read as native words
_BLOCK = 128  # bounds _solve's plain-recurrence runs in exp, division and log; 128-192 alike


def _dense(s: QSeries, v: int, n: int) -> list:
    """The coefficients of s at q^v, ..., q^(v + n - 1)."""
    out = [0] * n
    for e, c in s.coeffs.items():
        if 0 <= e - v < n:
            out[e - v] = c
    return out


def _integral(cs: list):
    """(ints, den) with cs[i] == ints[i] / den, den the lcm of the denominators."""
    if set(map(type, cs)) <= {int}:
        return cs, 1
    den = lcm(*(c.denominator for c in cs if type(c) is not int))
    return [c * den if type(c) is int else c.numerator * (den // c.denominator) for c in cs], den


def _pack(cs: list, width: int, half: int) -> int:
    """sum cs[i] 2^(8 width i) for |cs[i]| < half: slot i holds the bytes of cs[i] + half."""
    le = "little"  # map stops at the end of cs
    data = b"".join(map(int.to_bytes, map(add, cs, repeat(half)), repeat(width), repeat(le)))
    return int.from_bytes(data, le) - int.from_bytes(half.to_bytes(width, le) * len(cs), le)


def _unpack(z: int, width: int, count: int, half: int) -> list:
    """The count low width-byte slots of z = sum c_i 2^(8 width i), each |c_i| < half."""
    k = width * count
    z += int.from_bytes(half.to_bytes(width, "little") * count, "little")
    data = (z & ((1 << 8 * k) - 1)).to_bytes(k, "little")
    if width == 8 and _LITTLE:  # the 64-bit slots rows start with, read as machine words
        return [c - half for c in memoryview(data).cast("Q")]
    slots = Struct(f"{width}s" * count).unpack(data)  # uncached: formats are many and long
    return list(map(sub, map(int.from_bytes, slots, repeat("little")), repeat(half)))


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
        step = gcd(*compress(range(len(y)), y))
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
        out[r::2] = _unpack(z, width, len(range(r, n, 2)), half)
    return out if den == 1 else [_rat(c, den) for c in out]


def _div_lists(a: list, u: list, n: int) -> list:
    """The first n coefficients of a / u for coefficient lists a and u, u[0] != 0."""
    step = gcd(*compress(range(n), u))
    if step > 1:  # u is a series in q^step: one quotient per residue class of a
        out, us = [0] * n, u[::step]
        for r in range(min(step, n)):
            if any(a[r::step]):  # an empty class stays zero
                out[r::step] = _div_lists(a[r::step], us, len(range(r, n, step)))
        return out
    lead = u[0]  # u_0 b_m = a_m - sum_{k >= 1} u_k b_(m-k)
    return _solve([-c for c in u[1:n]], n - 1, _rat(a[0], lead),
                  lambda m, s: a[m] + s if lead == 1 else _rat(a[m] + s, lead))


def _solve(c: list, n: int, b0, finish) -> list:
    """Terms 0..n of the b with b_0 = b0 and b_m = finish(m, sum_{1 <= k <= m} c[k-1] b_{m-k}).

    Semi-relaxed divide and conquer (J. van der Hoeven, J. Symbolic Comput. 34,
    2002), in O(M(n) log n): once b[lo:mid] is known, its share of the sums for
    m in [mid, hi) is one ``_mul_lists`` product; the recurrence finds at most
    _BLOCK terms at a time.
    """
    b, acc = [b0], [0] * (n + 1)

    def solve(lo: int, hi: int):  # b[lo:hi], when acc holds the share of b[:lo]
        if hi - lo <= _BLOCK:
            run = b[lo:]  # this run's terms: b_0 alone, or none yet
            for m in range(max(lo, 1), hi):
                run.append(finish(m, sum(map(mul, c, reversed(run)), acc[m])))
            b[lo:] = run
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        share = _mul_lists(b[lo:mid], c[:hi - lo], hi - lo - 1)
        for m in range(mid, hi):
            acc[m] += share[m - lo - 1]
        solve(mid, hi)

    solve(0, n + 1)
    return b


def exp_series(a: QSeries) -> QSeries:
    """Formal exponential; requires zero constant term, zero prefactor."""
    if a.pre24:
        raise ValueError("exp_series requires zero prefactor")
    v = a.valuation()
    if v is not None and v < 1:
        raise ValueError("exp_series requires valuation >= 1 (no constant term)")
    n = a.trunc
    w = [k * c for k, c in enumerate(_dense(a, 0, n + 1))][1:]  # m b_m = sum_k w_k b_(m-k)
    b = _solve(w, n, 1, lambda m, s: _rat(s, m))
    return QSeries(dict(enumerate(b)), n, nome=a.nome)


def log_series(a: QSeries) -> QSeries:
    """Formal logarithm, the integral of a'/a; requires constant term 1, zero prefactor."""
    if a.pre24:
        raise ValueError("log_series requires zero prefactor")
    if a.coeffs.get(0) != 1 or (a.valuation() is not None and a.valuation() < 0):
        raise ValueError("log_series requires constant term 1")
    n = a.trunc
    ratio = QSeries({e - 1: e * c for e, c in a.coeffs.items() if e}, n - 1, nome=a.nome) / a
    return QSeries({e + 1: _rat(c, e + 1) for e, c in ratio.coeffs.items()}, n, nome=a.nome)


# -- product <-> exponent conversion ----------------------------------------


class ExponentTable:
    """Data of an infinite product q^(-h) * prod_{n>0} (1 - q^n)^{e_n}, h = h24/24."""

    __slots__ = ("h24", "exps", "order")

    def __init__(self, h24, exps, order):
        self.h24 = index(h24)
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
        return self.h24 == other.h24 and \
            _first_mismatch(self.exps, other.exps, lambda n: n <= order) is None

    __hash__ = None

    def __repr__(self):
        return f"ExponentTable(h={_fmt_rat(self.h24, 24)}, order={self.order})"

    def to_json(self) -> dict:
        return {"h": _fmt_rat(self.h24, 24), "order": self.order,
                "exponents": {str(n): _fmt_rat(e) for n, e in sorted(self.exps.items())}}


def _binomial_terms(e: int, sign: int, kmax: int):
    """(k, sign^k C(e, k)) for k <= kmax and sign +1 or -1, by the exact integer
    division C(e, k) = C(e, k - 1) (e - k + 1) / k, up to the first zero term
    (k = e + 1 for e >= 0)."""
    c, k = 1, 0
    while c and k <= kmax:
        yield k, c
        k += 1
        c = sign * c * (e - k + 1) // k


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
    unit = _solve(w, t.order, 1, lambda m, s: _rat(s, m))
    shift, pre24 = divmod(-t.h24, 24)
    return QSeries({i + shift: c for i, c in enumerate(unit)}, t.order + shift,
                   nome=nome, pre24=pre24)


def exponents_from_series(a: QSeries, order: int) -> ExponentTable:
    """Recover the exponent table of a = q^(-h) * prod (1-q^n)^{e_n}.

    With u the unit part of a (constant term 1), -q u'/u = sum_m g_m q^m, the
    division u g = -q u', and g_m = sum_{d | m} d e_d, so a sieve over d peels
    off d e_d in order.
    """
    v = a.valuation()
    if v is None:
        raise ValueError("zero series has no product expansion")
    if a.coeffs[v] != 1:
        raise ValueError("unit part's constant term must be 1")
    if not 0 <= order <= a.trunc - v:
        raise ValueError(f"series known to order {a.trunc - v} after normalization, need {order}")
    u = _dense(a, v, order + 1)  # g = -q u' / u, g_0 = 0
    g = _div_lists([-m * c for m, c in enumerate(u)], u, order + 1)[1:]
    exps = {}
    for d, x in enumerate(g, 1):
        if x:  # x = d e_d: the proper divisors' terms are already subtracted
            exps[d] = _rat(x, d)
            for m in range(2 * d, order + 1, d):
                g[m - 1] -= x
    return ExponentTable(-(24 * v + a.pre24), exps, order)


# -- two-variable series -----------------------------------------------------
#
# BiSeries.mul_binomials holds each row {y: c} of its running product as a list
# of runs (lo, hi, v), ascending, with v = sum c_y 2^(8 width (y - lo)) over
# lo <= y <= hi: Kronecker substitution in y, in signed slots of width bytes
# that every row shares.  Terms at most _GAP apart share a run and runs at most
# _GAP apart merge, so a dense row is one integer, and a sparse row, like the
# packed zeta exponents of a long or high-dimensional vector system, costs at
# most _GAP slots per term it has held, however wide its span.

_GAP = 32  # the largest y-step inside a run; 16 and 128 ran psi alike, 8 and 512 slower


def _cut(v: int, bits: int) -> int:
    """The slots of a packed run below bit ``bits``, a positive multiple of its slot width.

    Every slot holds less than 2^(slot bits - 2) in size, so the low part L
    is less than 2^(bits - 1) in size: it is v mod 2^bits, less 2^bits when
    that has its top bit set.  For v >= 0 the mask reads only the low bits.
    """
    m = 1 << bits
    low = v & (m - 1)
    return low - m if low.bit_length() == bits else low


def _cut_runs(row: list, top: int, w: int) -> list:
    """The runs of a row of w-bit slots cut to y <= top."""
    if not row or row[-1][1] <= top:
        return row
    out = []
    for lo, hi, v in row:
        if hi > top:
            if lo <= top:
                v = _cut(v, w * (top - lo + 1))
                if v:
                    out.append((lo, top, v))
            break
        out.append((lo, hi, v))
    return out


def _add_runs(dst: list, src: list, dy: int, c: int, w: int) -> list:
    """The runs of dst + c src y^dy, rows of w-bit slots; neither list changes."""
    out, i, n = [], 0, len(dst)
    for lo, hi, v in src:
        lo, hi, v = lo + dy, hi + dy, c * v
        while i < n and dst[i][1] < lo - _GAP:
            out.append(dst[i])
            i += 1
        if out and out[-1][1] >= lo - _GAP:  # lies below lo
            plo, phi, pv = out.pop()
            lo, hi, v = plo, max(hi, phi), pv + (v << w * (lo - plo))
        while i < n and dst[i][0] <= hi + _GAP:
            dlo, dhi, dv = dst[i]
            i += 1
            if dlo < lo:
                lo, v = dlo, dv + (v << w * (lo - dlo))
            else:
                v += dv << w * (dlo - lo)
            hi = max(hi, dhi)
        if v:
            out.append((lo, hi, v))
    out.extend(dst[i:])
    return out


def _terms(rows: list, width: int) -> dict:
    """The {(x, y): c} of the nonzero slots of each row x, ascending."""
    half, out = 1 << (8 * width - 1), {}
    for x, row in enumerate(rows):
        for lo, hi, v in row:
            for y, c in enumerate(_unpack(v, width, hi - lo + 1, half), lo):
                if c:
                    out[x, y] = c
    return out


def _runs(terms: list, width: int) -> list:
    """The runs of a row's nonzero (y, c) terms, ascending, in width-byte slots."""
    half, runs, i = 1 << (8 * width - 1), [], 0
    for j in range(1, len(terms) + 1):
        if j == len(terms) or terms[j][0] - terms[j - 1][0] > _GAP:
            lo, hi = terms[i][0], terms[j - 1][0]
            cs = [0] * (hi - lo + 1)
            for y, c in terms[i:j]:
                cs[y - lo] = c
            runs.append((lo, hi, _pack(cs, width, half)))
            i = j
    return runs


def _fill(rows: list, bnd: list, terms: dict, width: int, to=0, x=0, ac=0) -> int:
    """Pack the ascending {(x, y): c} terms into the rows, and each row's largest
    size into bnd; the width.

    The width in bytes stays while every size fits its slots, below
    2^(8 width - 2).  For a step about to run (ac > 0), whose size is
    bnd[to] + ac bnd[x], or sizes that do not fit, it becomes at least twice
    what they need with two bits to spare, so that a few repacks reach any size.
    """
    per_row = [[] for _ in rows]
    for (r, y), c in terms.items():
        per_row[r].append((y, c))
    bnd[:] = [max((abs(c) for _, c in t), default=0) for t in per_row]
    need = max(bnd, default=0)
    if ac:
        need = max(need, bnd[to] + ac * bnd[x])
    if ac or need >> 8 * width - 2:
        width = max(width, (need.bit_length() + 5) // 4)
    rows[:] = [_runs(t, width) for t in per_row]
    return width


def _room(rows: list, bnd: list, width: int, to: int, x: int, ac: int) -> int:
    """The width once the slots can take bnd[to] + ac bnd[x]: the same while that
    stays below 2^(8 width - 2), else every row is read and repacked by ``_fill``."""
    if bnd[to] + ac * bnd[x] >> 8 * width - 2:
        return _fill(rows, bnd, _terms(rows, width), width, to, x, ac)
    return width


class BiSeries:
    """Series in a capped primary variable and a topped Laurent secondary one.

    ``cap`` bounds knowledge of the first variable's exponent, exactly like
    QSeries.trunc.  ``ytop`` does the same for the second variable: terms
    above it are unknown and dropped on construction, and None means every
    second-variable exponent is known.  The one product, ``mul_binomials``,
    works in place on packed rows, one list of runs of nearby terms per
    first-variable exponent, and keeps both honest on its own: it lowers the
    y-top by as far as its factors can carry an unknown term down.  Every
    factor under a y-top moves x, so the cap bounds its terms, and no
    product needs a bound below.
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

        It takes the starts and factors its callers build and raises
        ValueError on any other: every stored coefficient is an int, every
        stored x and every a is >= 0, and e is an int >= -1.  A factor
        constant in x (a == 0) is a polynomial (e >= 0) with no y-top.

        Row x of the running product is a list of runs of W-bit signed slots,
        each one integer sum c_y 2^(W (y - lo)) from its own offset lo, the
        width shared by all rows.  A step adds c times row x, cut to y <= top,
        into row x + dx shifted by dy, merging the runs that come within _GAP
        of each other.  Dividing by a unit factor (e = -1) is that step in
        ascending x, reading each row after its own update.  Every other
        factor, like (1 - p^m q^n)^c(mn) whose exponent runs to dozens of
        digits, steps by its exact binomial terms sign^k C(e, k) x^(ka)
        y^(kb), as far as the cap can use, in descending x on old rows; a
        unit multiply is the one-step case.  A one-step factor runs its step
        down every row; any other takes each row's steps in turn.  A factor
        constant in x replaces each row by the sum of its shifted copies.

        Cost: one interpreted step for each nonempty source row and binomial
        term, so the order of the factors, which never changes the result,
        sets the work.  List them with the largest x-step first: each factor
        then reads only the rows that sums of the larger steps have reached,
        while in ascending order the rows fill after a few factors and every
        later one reads them all.  The monster denominator is the measured
        exception: its n-descending, then m-ascending order ran faster than
        one sorted by descending m, whose slots grew wider sooner.

        Each row keeps a bound on its coefficients' size, updated as
        bound[to] += |c| bound[x].  Before a slot could reach 2^(W - 2),
        every row is unpacked, its bound set to its true largest coefficient,
        and repacked at twice the width those and the step about to run
        need.  The slots start at 64 bits, or wider for a start that does not
        fit them.

        Keys above the cap or the y-top are dropped.  No x-valuation is below
        0, so the cap stays.  The y-top follows the unknown terms above it,
        which only factors with a > 0 and b < 0 carry down, by |b| per term
        used.  The result's y-top is lowered by the smaller of two bounds:
        max(cap, 0) steps in x at the steepest |b| / a, rounded up, and the
        sum of |b| K, for the K = cap // a terms that fit the cap (min(e, K)
        for e >= 0): 1 for the monster denominator's 1 - p/q, met once.
        """
        cap, ytop = self.cap, self.ytop
        n = max(cap + 1, 0)  # rows 0..cap; a stored x above the cap cannot exist
        if any(x < 0 or not isinstance(c, int) for (x, _), c in self.coeffs.items()):
            raise ValueError("stored coefficients must be integers and "
                             "first-variable exponents >= 0")
        rows, bnd = [[] for _ in range(n)], []
        width = _fill(rows, bnd, dict(sorted(self.coeffs.items())), 8)
        steep = carry = 0  # how far b < 0 factors carry unknown terms down
        gap = _GAP
        for a, b, e, sign in factors:
            if sign not in (1, -1) or a < 0 or not isinstance(e, int) or e < -1:
                raise ValueError("factor needs a >= 0, sign +1 or -1 and an integer e >= -1")
            if a == 0:  # a polynomial in y: each row becomes the sum of its shifted copies
                if e < 0 or ytop is not None:
                    raise ValueError("factor constant in the capped variable needs e >= 0 "
                                     "and no y-top")
                terms = list(_binomial_terms(e, sign, e))
                grow = sum(abs(c) for _, c in terms)
                for x in range(n):
                    if rows[x]:
                        width = _room(rows, bnd, width, x, x, grow - 1)
                        w, row, out = 8 * width, rows[x], []
                        for k, c in terms:
                            out = _add_runs(out, row, k * b, c, w)
                        rows[x], bnd[x] = out, grow * bnd[x]
                continue
            if b < 0:  # by slope over the cap, and by the terms the cap lets in
                steep, k = max(steep, -(max(cap, 0) * b // a)), max(cap, 0) // a
                carry -= b * (k if e < 0 else min(e, k))
            cut = ytop is not None and b > 0  # a row's copies stop at the y-top
            if e == -1:  # divide, reading each source after its own update
                steps = [(a, b, -sign, 1, ytop - b if cut else None)]
                xs = range(cap - a + 1)
            else:  # multiply, reading each source before any update
                steps = [(k * a, k * b, c, abs(c), ytop - k * b if cut else None)
                         for k, c in _binomial_terms(e, sign, max(cap, 0) // a) if k]
                xs = range(cap - a, -1, -1)
            if len(steps) == 1:  # one step down every row, its terms loop-invariant
                plan = [(steps[0], xs)]
            else:  # a multiply: each row's steps in turn, skipping those that copy
                # nothing, as a row reads as it is now until its own steps run
                plan = [(step, (x,)) for x in xs if rows[x] for step in steps
                        if x + step[0] <= cap and (step[4] is None or rows[x][0][0] <= step[4])]
            w = 8 * width
            lim = w - 2
            for (dx, dy, c, ac, top), group in plan:
                for x in group:
                    src = rows[x]
                    if not src:
                        continue
                    to = x + dx
                    nb = bnd[to] + ac * bnd[x]
                    if nb >> lim:  # _room's test, kept out of the call
                        width = _room(rows, bnd, width, to, x, ac)
                        w, src = 8 * width, rows[x]
                        lim = w - 2
                        nb = bnd[to] + ac * bnd[x]
                    if top is not None and src[-1][1] > top:
                        src = _cut_runs(src, top, w)
                        if not src:
                            continue
                    dst = rows[to]
                    bnd[to] = nb
                    if len(src) == 1 == len(dst):  # one run each, as in dense rows
                        (lo, hi, v), (dlo, dhi, dv) = src[0], dst[0]
                        lo += dy
                        hi += dy
                        if dlo - gap <= hi and lo - gap <= dhi:
                            if dlo < lo:
                                lo, v = dlo, dv + (c * v << w * (lo - dlo))
                            else:
                                v = c * v + (dv << w * (dlo - lo))
                            if v:  # no two rows share a list: update it in place
                                dst[0] = lo, hi if hi > dhi else dhi, v
                            else:
                                dst.clear()
                            continue
                    rows[to] = _add_runs(dst, src, dy, c, w)
        out = BiSeries({}, cap, ytop=None if ytop is None else ytop - min(steep, carry))
        if ytop is not None:
            rows = [_cut_runs(row, out.ytop, 8 * width) for row in rows]
        out.coeffs = _terms(rows, width)  # the clean terms the constructor would keep
        return out

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

