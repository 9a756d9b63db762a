import itertools
import json
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import kernel_oracle as oracle
from paper_refs import SAMPLE_NAMES, sample_system, system_json, validate
from qmoon import cli, vsys
from qmoon.vsys import VectorSystem, elliptic_transform_check, psi, weyl_data


def euler_factors(order, power=1):
    # independent expansion of prod_{n<=order} (1 - q^n)^power, plain dict arithmetic
    acc = {0: 1}
    for n in range(1, order + 1):
        for _ in range(power):
            new = dict(acc)
            for e, c in acc.items():
                if e + n <= order:
                    new[e + n] = new.get(e + n, 0) - c
            acc = {e: c for e, c in new.items() if c}
    return acc


def test_validate_pair_system():
    diag = validate(sample_system("pair"))
    assert diag["valid"]
    assert diag["scalar"] == 4
    assert diag["failures"] == []


def test_validate_orthogonal_sum():
    diag = validate(sample_system("orthogonal"))
    assert diag["valid"] and diag["scalar"] == 4


def test_validate_norm_zero_system():
    diag = validate(sample_system("trivial"))
    assert diag["valid"] and diag["scalar"] == 0


def test_validate_rank_one_support_fails_sphere():
    V = VectorSystem(2, ((2, 0), (0, 2)), {(1, 0): 1, (-1, 0): 1})
    diag = validate(V)
    assert not diag["valid"]
    assert diag["scalar"] is None
    assert {"property": "sphere", "direction": [1, 1]} in diag["failures"]


def test_validate_asymmetric_multiplicity():
    V = VectorSystem(1, ((2,),), {(1,): 2, (-1,): 1})
    diag = validate(V)
    assert not diag["valid"]
    assert {"property": "symmetry", "vector": [-1]} in diag["failures"]


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError, match="symmetric"):
        VectorSystem(2, ((2, 1), (0, 2)), {})
    with pytest.raises(ValueError, match="positive definite"):
        VectorSystem(2, ((1, 2), (2, 1)), {})
    with pytest.raises(ValueError, match="dimension"):
        VectorSystem(2, ((2, 0), (0, 2)), {(1,): 1})
    with pytest.raises(ValueError, match="nonnegative"):
        VectorSystem(1, ((2,),), {(1,): -1})
    with pytest.raises(ValueError, match="unknown sample"):
        sample_system("octonionic")


def test_from_json_rejects_two_keys_for_one_vector():
    data = {"dim": 1, "gram": [[2]], "mult": {"1": 1, "-1": 1, "01": 5}}
    with pytest.raises(ValueError, match="'mult' keys '1' and '01' name the same entry"):
        VectorSystem.from_json(data)


def test_large_diagonal_gram_validates_quickly():
    start = time.perf_counter()
    V = VectorSystem(12, tuple(tuple(2 * (i == j) for j in range(12)) for i in range(12)), {})
    assert V.dim == 12 and time.perf_counter() - start < 0.5


@pytest.mark.parametrize("gram", [
    ((2, 1, 1), (1, 2, 1), (1, 1, 0)),        # leading minors 2, 3, -2
    ((1, 1, 1), (1, 2, 2), (1, 2, 2)),        # 1, 1, 0
    ((4, 2, 0, 0), (2, 4, 2, 0), (0, 2, 4, 2), (0, 0, 2, 1)),  # 4, 12, 32, -16
])
def test_only_last_leading_minor_nonpositive_rejected(gram):
    with pytest.raises(ValueError, match="gram matrix must be positive definite"):
        VectorSystem(len(gram), gram, {})
    trimmed = tuple(row[:-1] for row in gram[:-1])
    assert VectorSystem(len(trimmed), trimmed, {}).dim == len(trimmed)


def test_json_round_trip():
    for name in ("pair", "orthogonal", "trivial"):
        V = sample_system(name)
        data = system_json(V)
        W = VectorSystem.from_json(data)
        assert W.dim == V.dim and W.gram == V.gram and W.mult == V.mult
    data = system_json(sample_system("orthogonal"))
    assert "1,0" in data["mult"] and "-1,0" in data["mult"]


def test_weyl_data_pair_system():
    wd = weyl_data(sample_system("pair"), (1,))
    assert wd.two_rho == (1,)
    assert wd.d == 2
    assert wd.m == 2


def test_weyl_data_norm_zero_system():
    wd = weyl_data(sample_system("trivial"), (1,))
    assert wd.two_rho == (0,)
    assert (wd.d, wd.m) == (2, 0)


def test_weyl_data_chamber_boundary():
    with pytest.raises(ValueError, match="orthogonal to support vector"):
        weyl_data(sample_system("orthogonal"), (0, 1))
    with pytest.raises(ValueError, match="wrong dimension"):
        weyl_data(sample_system("pair"), (1, 0))


def test_weyl_data_non_integer_index():
    V = VectorSystem(2, ((1, 0), (0, 3)), {(1, 0): 1, (-1, 0): 1})
    with pytest.raises(ArithmeticError, match="not an integer"):
        weyl_data(V, (1, 1))


def test_psi_pair_low_terms():
    d, coeffs = psi(sample_system("pair"), (1,), 2)
    assert d == 2  # q^(1/12)
    assert coeffs == {
        (0, (-1,)): 1, (0, (1,)): -1,
        (1, (-3,)): -1, (1, (-1,)): 1, (1, (1,)): -1, (1, (3,)): 1,
        (2, (-3,)): -1, (2, (-1,)): 2, (2, (1,)): -2, (2, (3,)): 1,
    }


def test_psi_norm_zero_is_eta_power_shape():
    d, coeffs = psi(sample_system("trivial"), (1,), 12)
    assert d == 2
    expect = euler_factors(12, power=2)
    assert {n: c for (n, r), c in coeffs.items() if r == (0,)} == expect
    assert all(r == (0,) for (n, r) in coeffs)


def test_psi_empty_system_is_one():
    assert psi(VectorSystem(1, ((2,),), {}), (1,), 5) == (0, {(0, (0,)): 1})


def test_psi_triple_product_pattern():
    # psi * prod(1-q^n) must collapse to sum_{j in Z} (-1)^(j+1) q^(j(j+1)/2) zeta^(j+1/2)
    order = 10
    _, coeffs = psi(sample_system("pair"), (1,), order)
    euler = euler_factors(order)
    lhs = {}
    for (n, r), c in coeffs.items():
        for e, ec in euler.items():
            if n + e <= order:
                key = (n + e, r)
                lhs[key] = lhs.get(key, 0) + c * ec
    lhs = {k: c for k, c in lhs.items() if c}
    rhs = {}
    for j in range(-6, 7):
        q = j * (j + 1) // 2
        if q <= order:
            rhs[(q, (2 * j + 1,))] = (-1) ** (j + 1)
    assert lhs == rhs


def test_psi_chamber_independence():
    V = sample_system("pair")
    assert psi(V, (1,), 8) == psi(V, (5,), 8)
    W = sample_system("orthogonal")
    assert psi(W, (1, 2), 6) == psi(W, (3, 1), 6)


def test_psi_chamber_flip_sign():
    # flipping the chamber rescales by (-1)^(number of positive vectors)
    V = sample_system("pair")  # one positive vector: sign flips
    (_, p), (_, m) = psi(V, (1,), 6), psi(V, (-1,), 6)
    assert m == {k: -c for k, c in p.items()}
    W = sample_system("orthogonal")  # two positive vectors: series agree
    assert psi(W, (1, 2), 6) == psi(W, (-1, -2), 6)


def test_weyl_vectors_differ_by_lattice():
    for name in ("pair", "orthogonal"):
        V = sample_system(name)
        lam = (1,) * V.dim
        plus = weyl_data(V, lam).two_rho
        minus = weyl_data(V, tuple(-x for x in lam)).two_rho
        assert all((a - b) % 2 == 0 for a, b in zip(plus, minus))


def test_psi_series_guards():
    # the dict stores no zero and nothing past the order asked for
    _, coeffs = psi(sample_system("pair"), (1,), 4)
    assert coeffs[(2, (-1,))] == 2
    assert (3, (99,)) not in coeffs
    assert all(n <= 4 and c for (n, _), c in coeffs.items())
    assert max(n for n, _ in coeffs) == 4


def test_psi_json_shape(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(system_json(sample_system("pair"))))
    assert cli.run(["vsys", "psi", "--file", str(path), "--order", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["qpre"] == "1/12" and data["dim"] == 1 and data["trunc"] == 1
    assert {"q": 0, "zeta2": [-1], "c": 1} in data["terms"]


# elliptic_transform_check returns the (mu, tau) reports of one psi
KINDS = ("mu", "tau")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shift", [1, -1])
def test_pair_system_shift_laws(kind, shift):
    report = elliptic_transform_check(sample_system("pair"), (1,), (shift,), 12)[
        KINDS.index(kind)]
    assert report.passed and report.first_mismatch is None
    assert report.name == f"elliptic_{kind}_shift"
    assert report.order == 12


@pytest.mark.parametrize("kind", KINDS)
def test_pair_system_dual_half_shift(kind):
    # gram (2) has dual lattice (1/2)Z; the laws hold for genuine dual vectors
    report = elliptic_transform_check(
        sample_system("pair"), (1,), (Fraction(1, 2),), 12)[KINDS.index(kind)]
    assert report.passed


@pytest.mark.parametrize("shift", [(1, 0), (0, 1), (1, -1),
                                   (Fraction(1, 2), Fraction(1, 2))])
@pytest.mark.parametrize("kind", KINDS)
def test_orthogonal_sum_shift_laws(shift, kind):
    report = elliptic_transform_check(sample_system("orthogonal"), (1, 2), shift, 8)[
        KINDS.index(kind)]
    assert report.passed


def test_shift_outside_dual_lattice_rejected():
    with pytest.raises(ValueError, match="non-integrally"):
        elliptic_transform_check(sample_system("pair"), (1,), (Fraction(1, 4),), 6)


def test_one_psi_per_check(monkeypatch, tmp_path):
    # both laws read one expansion, and the CLI asks for both in one call
    calls = []
    real = vsys.psi

    def spy(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(vsys, "psi", spy)
    mu, tau = elliptic_transform_check(sample_system("orthogonal"), (1, 2), (1, 0), 5)
    assert calls == [5] and mu.passed and tau.passed
    path = tmp_path / "pair.json"
    path.write_text('{"dim": 1, "gram": [[2]], "mult": {"1": 1, "-1": 1}}')
    calls.clear()
    assert cli.run(["vsys", "check", "--file", str(path), "--shift", "1", "--order", "7"]) == 0
    assert calls == [7]


@pytest.mark.parametrize("name", SAMPLE_NAMES)
def test_sample_reports_as_before(name):
    # every sample system passes both laws for each shift with entries 0
    # and 1 at orders 0-12, as a (mu, tau) pair of reports
    V = sample_system(name)
    for shift in itertools.product((0, 1), repeat=V.dim):
        for order in range(13):
            reports = elliptic_transform_check(V, (1, 2)[:V.dim], shift, order)
            assert [r.to_json() for r in reports] == [
                {"name": f"elliptic_{kind}_shift", "order": order, "passed": True,
                 "first_mismatch": None} for kind in KINDS]


def test_shift_law_catches_wrong_sign(monkeypatch):
    # breaking the product by hand must surface as a first mismatch, not a pass
    V = sample_system("pair")
    d, coeffs = psi(V, (1,), 6)
    bad = dict(coeffs)
    bad[(1, (1,))] = bad[(1, (1,))] + 1
    monkeypatch.setattr(vsys, "psi", lambda *args: (d, bad))
    mu, tau = elliptic_transform_check(V, (1,), (1,), 6)
    # a changed value keeps the zeta-parity that the mu law reads
    assert mu.passed and tau.first_mismatch is not None


# -- validate as the oracle of the shift laws ---------------------------------

# the shells the benchmark draws its systems from: gram matrix, one vector of
# each +-pair grouped by Weyl orbit, a chamber vector, and shifts that pair
# integrally with every shell vector
SHELLS = {
    "line": (((2,),), [[(1,)], [(2,)]], (1,),
             [(1,), (-1,), (2,), (Fraction(1, 2),), (Fraction(-3, 2),)]),
    "square": (((2, 0), (0, 2)), [[(1, 0), (0, 1)], [(1, 1), (1, -1)]], (3, 1),
               [(1, 0), (0, 1), (1, 1), (Fraction(1, 2), 0), (Fraction(1, 2), Fraction(-1, 2))]),
    "hex": (((2, -1), (-1, 2)), [[(1, 0), (0, 1), (1, 1)]], (3, 1),
            [(1, 0), (0, 1), (1, 1), (1, -1)]),
}


@st.composite
def shell_systems(draw):
    """Multiplicities up to 3 on a shell and c(0) in {0, 2, 4}, drawn once per
    Weyl orbit, per +-pair or per vector, so some systems are not isotropic
    or not symmetric."""
    gram, orbits, chamber, shifts = SHELLS[draw(st.sampled_from(sorted(SHELLS)))]
    per = draw(st.sampled_from(("orbit", "pair", "vector")))
    mult = {(0,) * len(gram): draw(st.sampled_from((0, 2, 4)))}
    for orbit in orbits:
        c = draw(st.integers(0, 3))
        for v in orbit:
            if per != "orbit":
                c = draw(st.integers(0, 3))
            mult[v] = c
            mult[tuple(-x for x in v)] = draw(st.integers(0, 3)) if per == "vector" else c
    return VectorSystem(len(gram), gram, mult), chamber, draw(st.sampled_from(shifts))


@settings(max_examples=120, deadline=None)
@given(shell_systems(), st.integers(2, 4))
def test_systems_that_validate_accepts_pass_both_shift_laws(case, order):
    V, chamber, shift = case
    assume(validate(V)["valid"])
    for kind, report in zip(KINDS, elliptic_transform_check(V, chamber, shift, order)):
        assert report.passed, (kind, report.first_mismatch)


# -- psi against the factor-by-factor reference on tuple zeta exponents -------


def same_psi(got, want):
    # both sides are built at one order, so their dicts compare in full
    (got_d, got), (want_d, want) = got, want
    assert {k: (type(c), c) for k, c in got.items()} == \
        {k: (type(c), c) for k, c in want.items()}
    assert (type(got_d), got_d) == (type(want_d), want_d)


def symmetric_mult(draw, dim, coord):
    """c(v) = c(-v) on a few small vectors, c(0) optional."""
    vectors = draw(st.lists(st.tuples(*[coord] * dim), max_size=3))
    mult = {}
    for v in vectors:
        c = draw(st.integers(1, 3))
        mult[v] = mult[tuple(-x for x in v)] = c
    return mult


@st.composite
def one_dim_systems(draw):
    V = VectorSystem(1, ((draw(st.integers(1, 4)),),),
                     symmetric_mult(draw, 1, st.integers(-3, 3)))
    return V, (draw(st.sampled_from((1, -1, 2))),)


@st.composite
def small_systems(draw):
    dim = draw(st.integers(2, 3))
    off = [[draw(st.integers(-1, 1)) for _ in range(dim)] for _ in range(dim)]
    gram = [[draw(st.integers(2, 4)) if i == j else off[min(i, j)][max(i, j)]
             for j in range(dim)] for i in range(dim)]
    try:
        V = VectorSystem(dim, gram, symmetric_mult(draw, dim, st.integers(-1, 1)))
    except ValueError:  # not positive definite
        assume(False)
    return V, tuple(draw(st.integers(-3, 3)) for _ in range(dim))


def psi_or_reject(V, lam, order):
    try:
        return psi(V, lam, order)
    except (ValueError, ArithmeticError):  # chamber on a wall, or no integral index
        assume(False)


A2 = VectorSystem(2, ((2, -1), (-1, 2)), {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1,
                                          (1, 1): 1, (-1, -1): 1})


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    one_dim_systems(),
    st.sampled_from([(sample_system("pair"), (1,)), (sample_system("trivial"), (-2,)),
                     (sample_system("orthogonal"), (1, 2))]),
    small_systems(),
), st.integers(0, 5))
@example((A2, (1, 3)), 4)
def test_psi_matches_factor_by_factor_reference(system, order):
    V, lam = system
    got = psi_or_reject(V, lam, order)
    same_psi(got, oracle.psi(V, lam, order))


@pytest.mark.parametrize("V", [
    VectorSystem(1, ((2,),), {(1,): 3}),
    VectorSystem(2, ((2, 0), (0, 2)), {(1, 0): 2, (0, 1): 2}),
])
def test_psi_at_the_packing_bound(V):
    # with no positive vectors and order 1, each coordinate's bound is the one
    # n = 1 factor's |v_i| = 1 in half-offsets, and the q^1 zeta^(2v) term
    # attains it: a packing base of 2 * 1 instead of 2 * 1 + 1 would decode it
    # as -1 plus a carry
    lam = (-1,) * V.dim
    got = psi(V, lam, 1)
    assert max(x for _, r in got[1] for x in r) == 2
    same_psi(got, oracle.psi(V, lam, 1))


@pytest.mark.parametrize("V,lam,order,reach", [
    (VectorSystem(1, ((2,),), {(1,): 3, (-1,): 3}), (1,), 3, 3 + 3),
    (VectorSystem(2, ((2, 0), (0, 2)), {(1, 0): 3, (-1, 0): 3, (0, 1): 4, (0, -1): 4}),
     (1, 2), 2, 4 + 2),
])
def test_psi_half_offsets_at_the_packing_bound(V, lam, order, reach):
    # psi packs the half-offset u = (r - start) / 2.  Its coordinate i stays
    # within the n = 0 factors' sum of c |v_i| plus order times the largest
    # |v_i|, and with n = 0 multiplicities of 3 and more some coordinate
    # attains that bound here: every n = 0 factor at its top term, and the
    # q^1 factor of one vector at its order-th
    got = psi(V, lam, order)
    same_psi(got, oracle.psi(V, lam, order))
    start = [-x for x in weyl_data(V, lam).two_rho]
    assert max(abs(x - s) // 2 for _, r in got[1] for x, s in zip(r, start)) == reach


def unit_system(dim):
    """The vectors +-e_i, each once, under the gram matrix 2I."""
    mult = {tuple(s * (i == j) for j in range(dim)): 1 for i in range(dim) for s in (1, -1)}
    return VectorSystem(dim, [[2 * (i == j) for j in range(dim)] for i in range(dim)], mult)


def d4_system():
    """The 24 roots +-e_i +-e_j of D4, each once, with c(0) = 8, under the identity gram."""
    mult = {(0, 0, 0, 0): 8}
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            v = [0] * 4
            v[i], v[j] = si, sj
            mult[tuple(v)] = 1
    return VectorSystem(4, [[int(i == j) for j in range(4)] for i in range(4)], mult)


def test_psi_on_d4_matches_factor_by_factor_reference():
    # a root system of dimension 4: its rows end as 36-108 runs each, and
    # the zero vector's factor (1 - q)^8 steps three times per row
    V = d4_system()
    assert len(V.mult) == 25 and weyl_data(V, (8, 4, 2, 1)).m == 6
    same_psi(psi(V, (8, 4, 2, 1), 3), oracle.psi(V, (8, 4, 2, 1), 3))


@pytest.mark.parametrize("V,lam,order", [
    (VectorSystem(1, ((2,),), {(10 ** 6,): 1, (-10 ** 6,): 1}), (1,), 10),
    (VectorSystem(1, ((2,),), {(10 ** 6,): 1, (-10 ** 6,): 1, (1,): 2, (-1,): 2}), (1,), 8),
    (unit_system(6), tuple(10 ** i for i in range(6)), 3),
])
def test_psi_memory_follows_its_terms_not_its_code_span(V, lam, order):
    # the packed zeta code of row q^n spans about 2 * 10^6 n slots for the
    # long vectors, and up to base^6 = 9^6 slots for the unit system, while
    # psi holds at most about five thousand terms: the product keeps each row
    # as runs of nearby terms, so its peak stays a few megabytes
    tracemalloc.start()
    try:
        got = psi(V, lam, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    same_psi(got, oracle.psi(V, lam, order))
    assert peak < 8 * 2 ** 20


# -- both shift laws against the per-column scans they replaced ---------------


@st.composite
def line_systems_with_shifts(draw):
    """Rank-one systems, symmetric or not (so a law may fail), and a shift
    that pairs integrally with the support, possibly by a half-integer."""
    g = draw(st.integers(1, 4))
    mult = draw(st.dictionaries(st.integers(-3, 3).map(lambda v: (v,)), st.integers(1, 3),
                                max_size=4))
    shift = (draw(st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-3, 2),
                                   Fraction(1, 4)))),)
    assume(all((g * shift[0] * v[0]).denominator == 1 for v in mult))
    return VectorSystem(1, ((g,),), mult), (draw(st.sampled_from((1, -1))),), shift


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    line_systems_with_shifts(),
    st.tuples(st.sampled_from([sample_system("orthogonal"), A2]), st.just((1, 3)),
              st.sampled_from([(1, 0), (0, -1), (1, 1), (Fraction(1, 3), Fraction(2, 3))])),
), st.integers(0, 6), st.sampled_from(KINDS))
@example((VectorSystem(1, ((2,),), {(-1,): 1, (1,): 2}), (1,), (1,)), 6, "tau")
# one-sided systems: a known range half a step too wide or too narrow shows here
@example((VectorSystem(1, ((1,),), {(2,): 1}), (-1,), (Fraction(1, 2),)), 0, "tau")
@example((VectorSystem(1, ((1,),), {(2,): 1}), (-1,), (Fraction(3, 2),)), 2, "tau")
@example((VectorSystem(1, ((1,),), {(2,): 2}), (1,), (Fraction(1, 2),)), 1, "tau")
def test_shift_laws_match_per_column_scan(case, order, kind):
    V, lam, shift = case
    try:
        got = elliptic_transform_check(V, lam, shift, order)[KINDS.index(kind)].first_mismatch
    except (ValueError, ArithmeticError):  # off the dual lattice or grid; no integral index
        assume(False)
    want = oracle.elliptic_mismatch(V, lam, shift, order, kind)
    assert got == want and repr(got) == repr(want)
