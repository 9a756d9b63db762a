import random
from collections import Counter
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

import kernel_oracle as oracle
from qmoon import maass
from qmoon.maass import (
    JacobiCoeffTable,
    SiegelCoeffTable,
    assemble_maass,
    maass_relation_check,
    v_operator,
)


def random_table(rng, k=None):
    k = k or rng.choice([4, 6, 10])
    coeffs = {}
    for _ in range(rng.randrange(1, 12)):
        n = rng.randrange(0, 7)
        rmax = int((4 * n) ** 0.5)
        r = rng.randrange(-rmax, rmax + 1) if rmax else 0
        coeffs[(n, r)] = rng.randrange(-9, 10)
    return JacobiCoeffTable(k, 1, coeffs)


SAMPLE = JacobiCoeffTable(
    10, 1, {(0, 0): 2, (1, 1): 3, (1, 2): 11, (2, 1): 5, (4, 2): 7, (1, 0): -4})


def test_v1_is_identity():
    assert v_operator(SAMPLE, 1) == SAMPLE
    rng = random.Random(3)
    for _ in range(5):
        t = random_table(rng)
        assert v_operator(t, 1) == t


def test_v2_single_divisor_entry():
    assert v_operator(SAMPLE, 2).coeff(1, 1) == SAMPLE.coeff(2, 1) == 5


def test_v2_two_divisor_entry():
    # gcd(2,2,2) = 2: c(4,2) + 2^9 c(1,1) = 7 + 512*3
    assert v_operator(SAMPLE, 2).coeff(2, 2) == 1543


def test_vm_at_origin_sums_divisor_powers():
    # gcd(0,0,m) = m, so every divisor contributes: (1 + 2^3 + 4^3) c(0,0)
    t = JacobiCoeffTable(4, 1, {(0, 0): 2})
    assert v_operator(t, 4).coeff(0, 0) == 73 * 2


def test_vm_requires_index_one():
    t = JacobiCoeffTable(4, 2, {(1, 1): 1})
    with pytest.raises(ValueError, match="index-1"):
        v_operator(t, 2)
    with pytest.raises(ValueError, match="positive"):
        v_operator(SAMPLE, 0)


def test_prime_m_entrywise_consequence():
    t = JacobiCoeffTable(
        6, 1, {(0, 0): 1, (1, 1): 2, (1, -2): 3, (2, 2): -1, (3, 3): 4, (9, 3): 5})
    for p in (2, 3, 5):
        layer = v_operator(t, p)
        for (n, r), val in layer.coeffs.items():
            want = t.coeff(p * n, r)
            if n % p == 0 and r % p == 0:
                want += p ** (t.k - 1) * t.coeff(n // p, r // p)
            assert val == want


def test_v_operator_linearity():
    ta = JacobiCoeffTable(6, 1, {(1, 1): 2, (2, 0): 3}, 16)
    tb = JacobiCoeffTable(6, 1, {(1, 1): -1, (3, 2): 4}, 16)
    comb = {key: 5 * ta.coeffs.get(key, 0) - 2 * tb.coeffs.get(key, 0)
            for key in set(ta.coeffs) | set(tb.coeffs)}
    tc = JacobiCoeffTable(6, 1, comb, 16)
    for m in (2, 3, 4, 6):
        la, lb, lc = v_operator(ta, m), v_operator(tb, m), v_operator(tc, m)
        keys = set(la.coeffs) | set(lb.coeffs) | set(lc.coeffs)
        for key in keys:
            assert lc.coeffs.get(key, 0) == (
                5 * la.coeffs.get(key, 0) - 2 * lb.coeffs.get(key, 0))


def test_assembly_layer_one_copies_table():
    s = assemble_maass(SAMPLE, 3)
    assert {(n, r): a for (n, r, m), a in s.coeffs.items() if m == 1} == SAMPLE.coeffs


def test_assembly_of_zero_table_is_zero():
    s = assemble_maass(JacobiCoeffTable(4, 1, {}), 5)
    assert s.coeffs == {}


def test_assembled_table_satisfies_relation():
    report = maass_relation_check(assemble_maass(SAMPLE, 4))
    assert report.passed and report.first_mismatch is None
    assert report.name == "maass_relation"
    assert report.order == SAMPLE.disc_bound


def test_relation_on_random_tables():
    rng = random.Random(11)
    for _ in range(100):
        t = random_table(rng)
        s = assemble_maass(t, rng.randrange(1, 6))
        assert maass_relation_check(s).passed


def test_perturbed_entry_fails_at_its_index():
    s = assemble_maass(SAMPLE, 4)
    bad = dict(s.coeffs)
    bad[(1, 1, 2)] = bad.get((1, 1, 2), 0) + 1
    report = maass_relation_check(SiegelCoeffTable(s.k, bad, s.disc_bound))
    assert not report.passed
    key, got, want = report.first_mismatch
    assert key == (1, 1, 2) and got == want + 1


def test_entry_cancelled_to_zero_is_still_caught():
    s = assemble_maass(SAMPLE, 4)
    key = sorted(k for k in s.coeffs if k[2] == 2)[0]
    bad = dict(s.coeffs)
    bad[key] = 0
    report = maass_relation_check(SiegelCoeffTable(s.k, bad, s.disc_bound))
    assert not report.passed
    assert report.first_mismatch[0] == key
    assert report.first_mismatch[1] == 0


def test_layers_inherit_discriminant_dependence():
    # source depends only on 4n - r^2 over a region closed under all the
    # references a window of targets (n <= 6, m <= 4) can make
    f = {d: (d * d + 3) % 17 - 8 for d in range(0, 97)}
    coeffs = {}
    for n in range(0, 25):
        r = 0
        while r * r <= 4 * n:
            for rr in (r, -r):
                coeffs[(n, rr)] = f[4 * n - rr * rr]
            r += 1
    s = assemble_maass(JacobiCoeffTable(4, 1, coeffs, 96), 4)
    groups = {}
    for (n, r, m), a in s.coeffs.items():
        if n <= 6:
            groups.setdefault((m, 4 * n * m - r * r, r % (2 * m)), set()).add(a)
    assert len(groups) > 100
    assert all(len(values) == 1 for values in groups.values())


def test_table_validation():
    with pytest.raises(ValueError, match="even positive"):
        JacobiCoeffTable(5, 1, {})
    with pytest.raises(ValueError, match="positive integer"):
        JacobiCoeffTable(4, 0, {})
    with pytest.raises(ValueError, match="outside the support"):
        JacobiCoeffTable(4, 1, {(0, 1): 3})
    with pytest.raises(ValueError, match=">= 0"):
        JacobiCoeffTable(4, 1, {(-1, 0): 3})
    with pytest.raises(ValueError, match="below stored support"):
        JacobiCoeffTable(4, 1, {(2, 0): 3}, 7)
    with pytest.raises(ValueError, match="m >= 1"):
        SiegelCoeffTable(4, {(1, 0, 0): 1})
    # zero entries outside the cusp support are tolerated and dropped
    t = JacobiCoeffTable(4, 1, {(0, 5): 0, (1, 1): 2})
    assert t.coeffs == {(1, 1): 2}


def test_coeff_outside_bound_raises():
    assert SAMPLE.coeff(3, 4) == 0  # below-diagonal support is zero by fiat
    with pytest.raises(ValueError, match="beyond known bound"):
        SAMPLE.coeff(100, 0)
    layer = v_operator(SAMPLE, 2)
    assert layer.disc_bound == SAMPLE.disc_bound
    with pytest.raises(ValueError, match="beyond known bound"):
        layer.coeff(50, 1)


def test_json_round_trips():
    t = JacobiCoeffTable.from_json(SAMPLE.to_json())
    assert t == SAMPLE and t.disc_bound == SAMPLE.disc_bound
    s = assemble_maass(SAMPLE, 3)
    s2 = SiegelCoeffTable.from_json(s.to_json())
    assert s2 == s and s2.disc_bound == s.disc_bound
    # equality is by type, head fields and stored coefficients, not disc_bound
    assert SiegelCoeffTable(s.k, s.coeffs, s.disc_bound + 4) == s
    assert SiegelCoeffTable(s.k + 2, s.coeffs, s.disc_bound) != s
    assert JacobiCoeffTable(10, 2, {}) != JacobiCoeffTable(10, 1, {})
    assert s != SAMPLE and SAMPLE != s
    assert "1,1" in SAMPLE.to_json()["coeffs"]
    assert all("," in key for key in s.to_json()["coeffs"])


def test_from_json_rejects_two_keys_for_one_entry():
    jacobi = {"k": 10, "m": 1, "coeffs": {"1,1": 3, "01,1": 4}}
    with pytest.raises(ValueError, match="'coeffs' keys '1,1' and '01,1' name the same entry"):
        JacobiCoeffTable.from_json(jacobi)
    siegel = {"k": 10, "coeffs": {"1,1,1": 3, "1,+1,1": 4}}
    with pytest.raises(ValueError, match=r"'coeffs' keys '1,1,1' and '1,\+1,1'"):
        SiegelCoeffTable.from_json(siegel)


@st.composite
def jacobi_tables(draw):
    """Index-1 tables of weight 4..12 with n <= 8, bound at or above the support."""
    k = draw(st.sampled_from([4, 6, 8, 10, 12]))
    keys = st.integers(0, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(-isqrt(4 * n), isqrt(4 * n))))
    coeffs = draw(st.dictionaries(keys, st.integers(-9, 9), max_size=12))
    support = max((4 * n - r * r for (n, r), c in coeffs.items() if c), default=0)
    return JacobiCoeffTable(k, 1, coeffs, support + draw(st.integers(0, 12)))


PERTURBATIONS = ("none", "bump", "cancel", "drop_layer_one", "drop_layer", "new_layer",
                 "drop_random")


def _perturb(data, s, max_m, kind):
    coeffs = dict(s.coeffs)
    upper = sorted({m for (_, _, m) in coeffs if m >= 2})
    if kind in ("bump", "cancel") and coeffs:
        key = data.draw(st.sampled_from(sorted(coeffs)))
        coeffs[key] = 0 if kind == "cancel" else coeffs[key] + data.draw(
            st.sampled_from([-2, -1, 1, 3]))
    elif kind == "drop_layer_one":
        coeffs = {key: a for key, a in coeffs.items() if key[2] != 1}
    elif kind == "drop_layer" and upper:
        m = data.draw(st.sampled_from(upper))
        coeffs = {key: a for key, a in coeffs.items() if key[2] != m}
    elif kind == "new_layer":
        m = data.draw(st.integers(max_m + 1, max_m + 3))
        n = data.draw(st.integers(0, s.disc_bound // (4 * m)))
        r = data.draw(st.integers(-isqrt(4 * n * m), isqrt(4 * n * m)))
        coeffs[(n, r, m)] = data.draw(st.integers(1, 5))
    elif kind == "drop_random":
        dropped = data.draw(st.sets(st.sampled_from(sorted(coeffs)))) if coeffs else ()
        coeffs = {key: a for key, a in coeffs.items() if key not in dropped}
    return SiegelCoeffTable(s.k, coeffs, s.disc_bound)


@settings(max_examples=400, deadline=None)
@given(jacobi_tables(), st.integers(1, 6), st.sampled_from(PERTURBATIONS), st.data())
def test_relation_check_matches_pull_oracle(t, max_m, kind, data):
    s = _perturb(data, assemble_maass(t, max_m), max_m, kind)
    report = maass_relation_check(s)
    assert report.first_mismatch == oracle.maass_relation(s)
    assert report.order == s.disc_bound
    if kind == "none":
        assert report.passed


def test_relation_check_runs_v_operator_once_per_present_layer(monkeypatch):
    calls = Counter()

    def counting(t, m):
        calls[m] += 1
        return v_operator(t, m)

    s = assemble_maass(SAMPLE, 4)
    skipped = SiegelCoeffTable(s.k, {key: a for key, a in s.coeffs.items() if key[2] != 3},
                               s.disc_bound)
    no_layer_one = SiegelCoeffTable(s.k, {key: a for key, a in s.coeffs.items() if key[2] > 2},
                                    s.disc_bound)
    monkeypatch.setattr(maass, "v_operator", counting)
    assert maass_relation_check(skipped).passed
    assert calls == Counter({1: 1, 2: 1, 4: 1})
    calls.clear()
    assert not maass_relation_check(no_layer_one).passed
    assert calls == Counter({3: 1, 4: 1})


def _agree_up_to(a, b, disc, bound):
    return all(a.get(key, 0) == b.get(key, 0) for key in a.keys() | b.keys() if disc(key) <= bound)


@settings(max_examples=200, deadline=None)
@given(jacobi_tables(), st.data())
def test_maass_producers_keep_an_honest_bound(t, data):
    """Built from t cut to bound B, V_m and assembly claim B and agree with t's builds there."""
    assume(t.disc_bound > 0)
    bound = data.draw(st.integers(0, t.disc_bound - 1))
    cut = JacobiCoeffTable(t.k, 1, {(n, r): c for (n, r), c in t.coeffs.items()
                                    if 4 * n - r * r <= bound}, bound)
    for m in range(1, 7):
        got = v_operator(cut, m)
        assert got.disc_bound == bound
        assert _agree_up_to(got.coeffs, v_operator(t, m).coeffs,
                            lambda key: 4 * key[0] * m - key[1] ** 2, bound)
        with pytest.raises(ValueError, match="beyond known bound"):
            got.coeff(bound // (4 * m) + 1, 0)
    got = assemble_maass(cut, 5)
    assert got.disc_bound == bound
    assert _agree_up_to(got.coeffs, assemble_maass(t, 5).coeffs,
                        lambda key: 4 * key[0] * key[2] - key[1] ** 2, bound)
    for m in range(1, 6):
        with pytest.raises(ValueError, match="beyond known bound"):
            got.coeff(bound // (4 * m) + 1, 0, m)
