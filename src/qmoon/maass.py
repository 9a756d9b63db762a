"""Index-raising operators on Jacobi coefficient tables and the Maass relation.

Coefficients live in sparse integer tables rather than analytic forms: a
table knows every value whose discriminant 4nm - r^2 lies within its bound
(absent means zero there) and refuses to answer beyond it.  V_m raises the
index of a weight-k, index-1 table, and assembly stacks the layers
m = 1..max_m into a Siegel table.  The relation check replays V_m on the
layer 1 of any table handed to it, for each layer the table holds, so the
divisor sum is written once, in ``v_operator``.  The m = 0 Fourier-Jacobi
layer depends only on tau and carries an Eisenstein normalization outside
this model, so assembly starts at m = 1.
"""

from __future__ import annotations

from .series import VerifyReport, _first_mismatch, _json_fields, _json_table


class _CoeffTable:
    """Sparse integer coefficients of weight k, keyed by (n, r) or (n, r, m).

    A key stands for the half-integral matrix [[n, r/2], [r/2, m]]: an entry
    whose discriminant 4nm - r^2 is negative is zero, and one above
    disc_bound is unknown.  A subclass says how its keys spell (n, r, m)
    (``_matrix``), the letter its messages name an entry by, the fields that
    head its JSON and repr, and the length of its JSON keys.
    """

    __slots__ = ("k", "coeffs", "disc_bound")

    def __init__(self, k: int, coeffs, disc_bound=None):
        if not isinstance(k, int) or k <= 0 or k % 2:
            raise ValueError(f"weight must be an even positive integer, got {k}")
        self.k = k
        self.coeffs = {}
        worst = 0
        for key, c in coeffs.items():
            key, c = tuple(map(int, key)), int(c)
            n, r, m = self._matrix(key)
            if n < 0 or m < 1:
                raise ValueError(f"need n >= 0 and m >= 1, got {key}")
            disc = 4 * n * m - r * r
            if disc < 0:
                if c:
                    raise ValueError(f"{self._name(key)} nonzero outside the support r^2 <= 4nm")
                continue
            if c:
                self.coeffs[key] = c
                worst = max(worst, disc)
        self.disc_bound = worst if disc_bound is None else int(disc_bound)
        if self.disc_bound < worst:
            raise ValueError(f"disc_bound {disc_bound} below stored support {worst}")

    def _name(self, key) -> str:
        return f"{self._letter}({','.join(map(str, key))})"

    def coeff(self, *key) -> int:
        """The coefficient at key: 0 off the support, ValueError beyond disc_bound."""
        n, r, m = self._matrix(key)
        disc = 4 * n * m - r * r
        if disc < 0:
            return 0
        if disc > self.disc_bound:
            raise ValueError(f"{self._name(key)} has discriminant {disc} beyond known bound "
                             f"{self.disc_bound}")
        return self.coeffs.get(key, 0)

    def _head(self) -> dict:
        return {field: getattr(self, field) for field in self._fields}

    def __eq__(self, other):
        """Same type, head fields and stored coefficients; disc_bound is not compared."""
        if type(other) is not type(self):
            return NotImplemented
        return (self._head(), self.coeffs) == (other._head(), other.coeffs)

    __hash__ = None

    def to_json(self) -> dict:
        return {**self._head(), "disc_bound": self.disc_bound,
                "coeffs": {",".join(map(str, key)): c for key, c in sorted(self.coeffs.items())}}

    @classmethod
    def from_json(cls, data: dict):
        *head, _, disc_bound = _json_fields(data, cls._what, **dict.fromkeys(cls._fields, int),
                                            coeffs=dict, disc_bound=int | None)
        return cls(*head, _json_table(data, cls._what, "coeffs", cls._arity), disc_bound)

    def __repr__(self):
        head = "".join(f"{field}={value}, " for field, value in self._head().items())
        return (f"{type(self).__name__}({head}support={len(self.coeffs)}, "
                f"disc_bound={self.disc_bound})")


class JacobiCoeffTable(_CoeffTable):
    """Sparse c(n, r) for a weight-k index-m form, known within disc_bound."""

    __slots__ = ("m",)
    _letter = "c"
    _what = "Jacobi table"
    _fields = ("k", "m")
    _arity = 2

    def __init__(self, k: int, m: int, coeffs, disc_bound=None):
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"index must be a positive integer, got {m}")
        self.m = m
        super().__init__(k, coeffs, disc_bound)

    def _matrix(self, key):
        return (*key, self.m)


class SiegelCoeffTable(_CoeffTable):
    """Sparse a(n, r, m) indexing the half-integral matrix [[n, r/2], [r/2, m]]."""

    __slots__ = ()
    _letter = "a"
    _what = "Siegel table"
    _fields = ("k",)
    _arity = 3

    def _matrix(self, key):
        return key


def v_operator(t: JacobiCoeffTable, m: int) -> JacobiCoeffTable:
    """(V_m t)(n, r) = sum_{d | gcd(n, |r|, m)} d^(k-1) c(mn/d^2, r/d).

    The source must have index 1.  Each source (ns, rs) feeds the target
    n = d^2 ns / m, r = d rs through every d | m that makes n integral with
    d | n.  The layer keeps the source's disc bound: a target beyond it
    would reference unknown coefficients, so it is left out and the
    returned table refuses to answer there.
    """
    if t.m != 1:
        raise ValueError(f"V_m acts on index-1 tables, got index {t.m}")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    out = {}
    for d in range(1, m + 1):
        if m % d:
            continue
        for (ns, rs), c in t.coeffs.items():
            if (d * d * ns) % m:
                continue
            n, r = d * d * ns // m, d * rs
            if n % d or 4 * n * m - r * r > t.disc_bound:
                continue
            out[(n, r)] = out.get((n, r), 0) + d ** (t.k - 1) * c
    return JacobiCoeffTable(t.k, m, out, t.disc_bound)


def _stack(t: JacobiCoeffTable, layers) -> dict:
    """a(n, r, m) = (V_m t)(n, r) for each m in layers."""
    return {(n, r, m): a for m in layers for (n, r), a in v_operator(t, m).coeffs.items()}


def assemble_maass(t: JacobiCoeffTable, max_m: int) -> SiegelCoeffTable:
    """Stack a(n, r, m) = (V_m t)(n, r) for m = 1..max_m into one table."""
    if not isinstance(max_m, int) or max_m < 1:
        raise ValueError(f"max_m must be a positive integer, got {max_m}")
    return SiegelCoeffTable(t.k, _stack(t, range(1, max_m + 1)), t.disc_bound)


def maass_relation_check(s: SiegelCoeffTable) -> VerifyReport:
    """a(n,r,m) = sum_{d | gcd(n,|r|,m)} d^(k-1) a(mn/d^2, r/d, 1), everywhere.

    Replays V_m on the table's own layer 1, under the table's bound, for
    each layer m present, and compares the stack with the table entry by
    entry; an entry wrongly cancelled to zero is still caught.  A layer
    absent from the table is not compared.
    """
    ones = {(n, r): a for (n, r, m), a in s.coeffs.items() if m == 1}
    expected = _stack(JacobiCoeffTable(s.k, 1, ones, s.disc_bound),
                      {m for (_, _, m) in s.coeffs})
    return VerifyReport("maass_relation", s.disc_bound, _first_mismatch(s.coeffs, expected))
