"""End-to-end acceptance gate: eleven criteria, one printed pass/fail line each.

Every test rechecks a concrete numeric claim through an independent path and
prints ``ACCEPTANCE NN <name>: PASS|FAIL`` with its runtime, so the suite log
doubles as a release checklist.  Budgets are part of the criteria and are
asserted; all hold with wide margin on commodity hardware.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from paper_refs import sample_system
from qmoon import (
    ExponentTable,
    QSeries,
    exp_series,
    exponents_from_series,
    log_series,
    product_from_exponents,
    sigma,
)
from qmoon import borcherds, forms, identities, maass, moonshine, mults, vsys


@pytest.fixture
def gate(capsys):
    @contextmanager
    def _gate(num, name, budget):
        notes = []
        t0 = time.perf_counter()
        try:
            yield notes.append
        except BaseException:
            with capsys.disabled():
                print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
            raise
        dt = time.perf_counter() - t0
        verdict = "PASS" if dt < budget else "FAIL"
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:02d} {name}: {verdict} ({dt:.2f}s, budget {budget:g}s)")
            for line in notes:
                print(f"  {line}")
        assert dt < budget, f"{name} took {dt:.2f}s, budget {budget:g}s"
    return _gate


def test_01_catalog_coefficients(gate):
    with gate(1, "catalog coefficient spot checks", 1.0):
        j = forms.j_invariant(50)
        assert j.coeff(-1) == 1 and j.coeff(0) == 744
        assert j.coeff(1) == 196884 and j.coeff(2) == 21493760
        d = forms.delta(50)
        assert (d.coeff(1), d.coeff(2), d.coeff(3), d.coeff(4)) == (1, -24, 252, -1472)
        e4 = forms.eisenstein(4, 50)
        e6 = forms.eisenstein(6, 50)
        e12 = forms.eisenstein(12, 50)
        assert (e4.coeff(0), e4.coeff(1), e4.coeff(2)) == (1, 240, 2160)
        assert (e6.coeff(0), e6.coeff(1), e6.coeff(2)) == (1, -504, -16632)
        assert e12.coeff(0) == 1
        assert e12.coeff(1) == Fraction(65520, 691)
        assert e12.coeff(2) == Fraction(65520, 691) * 2049


def test_02_printed_product_exponents(gate):
    want = {
        "E4": (-240, 26760, -4096240),
        "E6": (504, 143388, 51180024),
        "E8": (-480, 53520, -8192480),
        "E10": (264, 170148, 47083784),
        "E14": (24, 196908, 42987544),
        "j": (-744, 80256, -12288744),
    }
    with gate(2, "printed product exponents", 5.0) as note:
        for label, exps in want.items():
            t = exponents_from_series(forms.named_form(label, 60), 60)
            assert (t[1], t[2], t[3]) == exps, label
        note("all printed exponents of the six cataloged products reproduced at order 60")


def test_03_lift_round_trips(gate):
    with gate(3, "lift round trips", 10.0) as note:
        # targets rebuilt from Bernoulli/sigma definitions only
        e4 = forms.eisenstein(4, 50)
        e6 = forms.eisenstein(6, 50)
        delta_ind = (e4 ** 3 - e6 ** 2) * Fraction(1, 1728)
        j_ind = (e4 ** 3) * delta_ind.invert()
        L = borcherds.lift(borcherds.catalog("f_delta", 2500), 50)
        assert L.h == -1 and L.result.agrees_with(delta_ind, 50)
        lifts = {}
        for name, h, target in (("f_4", 0, e4), ("f_6", 0, e6), ("f_j", 1, j_ind)):
            L = lifts[name] = borcherds.lift(borcherds.catalog(name, 900), 30)
            assert L.h == h, name
            assert L.result.agrees_with(target, 30), name
        rep = borcherds.fj_efactor_report(lifts["f_j"].result, 30)
        assert rep["used"] == "E6"
        note("f_j E-factor: " + rep["resolution"])


def test_04_hurwitz_values(gate):
    want = {0: Fraction(-1, 12), 3: Fraction(1, 3), 4: Fraction(1, 2),
            7: 1, 8: 1, 11: 1, 12: Fraction(4, 3)}
    with gate(4, "Hurwitz class numbers", 1.0):
        for n, h in want.items():
            assert borcherds.hurwitz_range(n, n)[n] == h
        for n in range(201):
            if n % 4 in (1, 2):
                assert borcherds.hurwitz_range(n, n)[n] == 0


def test_05_leech_theta(gate):
    with gate(5, "Leech theta two ways", 5.0) as note:
        theta = forms.leech_theta(20)  # raises if its two constructions disagree
        assert theta.coeff(0) == 1 and theta.coeff(2) == 0
        assert theta.coeff(4) == 196560
        assert theta.coeff(6) == 16773120
        assert theta.coeff(8) == 398034000
        d = forms.delta(10)
        for norm in (4, 6, 8):
            m = norm // 2
            assert theta.coeff(norm) == Fraction(65520, 691) * (sigma(11, m) - d.coeff(m))
        note("theta-constant and sigma11-tau constructions agree through norm 20")


def test_06_identity_suite(gate):
    with gate(6, "product identity suite", 20.0) as note:
        reports = {r.name: r for r in identities.verify_all(30)}
        assert set(reports) == set(identities.IDENTITY_LABELS)
        for name, rep in reports.items():
            if name != "quintuple_w2":
                assert rep.passed, (name, rep.first_mismatch)
        w2 = reports["quintuple_w2"]
        assert not w2.passed and w2.first_mismatch == ((1, -1), -1, 1)
        note("quintuple_w2 fails as printed, first mismatch at q z^-1 (recorded outcome)")


def test_07_monster_denominator_replication(gate):
    with gate(7, "monster denominator and replication", 30.0) as note:
        den = moonshine.denominator_check(6, 6)
        assert den.passed, den.first_mismatch
        rep = moonshine.replication_check(4)
        assert rep.passed, rep.first_mismatch
        for prod in (moonshine.denominator_product(6, 6),
                     moonshine.replication_product(4, 4)):
            mixed = [k for k, c in prod.coeffs.items() if k[0] * k[1] < 0 and c]
            assert mixed == []
        note("no mixed-sign monomials survive on either product side")


def test_08_vector_system_psi(gate):
    with gate(8, "pair system psi and shift laws", 5.0):
        order = 10
        V = sample_system("pair")
        p = vsys.psi(V, (1,), order)
        # psi * prod(1-q^n) must collapse to the alternating theta pattern
        euler = {0: 1}
        for n in range(1, order + 1):
            new = dict(euler)
            for e, c in euler.items():
                if e + n <= order:
                    new[e + n] = new.get(e + n, 0) - c
            euler = {e: c for e, c in new.items() if c}
        lhs = {}
        for (n, r), c in p.coeffs.items():
            for e, ec in euler.items():
                if n + e <= order:
                    lhs[(n + e, r)] = lhs.get((n + e, r), 0) + c * ec
        lhs = {k: c for k, c in lhs.items() if c}
        rhs = {}
        for jj in range(-6, 7):
            qe = jj * (jj + 1) // 2
            if qe <= order:
                rhs[(qe, (2 * jj + 1,))] = (-1) ** (jj + 1)
        assert lhs == rhs
        for shift in ((1,), (-1,)):
            for kind in ("mu", "tau"):
                rep = vsys.elliptic_transform_check(V, (1,), shift, order, kind=kind)
                assert rep.passed, (shift, kind, rep.first_mismatch)


def test_09_maass_random_tables(gate):
    rng = random.Random(20260815)
    with gate(9, "Maass relation on random tables", 5.0) as note:
        for trial in range(100):
            k = rng.choice((4, 6, 10))
            bound = rng.choice((16, 20, 24))
            coeffs = {(1, 1): rng.randint(1, 9)}
            for _ in range(rng.randint(3, 10)):
                n = rng.randint(0, 5)
                r = rng.randint(-4, 4)
                if 0 <= 4 * n - r * r <= bound:
                    coeffs[(n, r)] = rng.randint(-9, 9)
            coeffs = {key: v for key, v in coeffs.items() if v}
            coeffs.setdefault((1, 1), 1)
            t = maass.JacobiCoeffTable(k, 1, coeffs, bound)
            s = maass.assemble_maass(t, 4)
            rep = maass.maass_relation_check(s)
            assert rep.passed, (trial, rep.first_mismatch)
            keys = sorted(key for key in s.coeffs if key[2] >= 2)
            key = rng.choice(keys)
            bad = dict(s.coeffs)
            bad[key] = bad.get(key, 0) + rng.choice((1, -1, 3))
            pert = maass.SiegelCoeffTable(k, bad, bound)
            assert not maass.maass_relation_check(pert).passed, (trial, key)
        note("100 random tables pass; one-entry perturbations all fail")


def test_10_rademacher_convergence(gate):
    with gate(10, "Rademacher approximation", 10.0) as note:
        exact = forms.colored_partition_series(24, 13)
        for n in range(1, 13):
            true = exact.coeff(n + 1)
            errs = [abs(mults.p24_rademacher(n, K) - true) / true
                    for K in range(1, 11)]
            assert errs[-1] < 1e-3, (n, errs[-1])
            # non-increasing down to the double-precision floor, flat jitter below
            for a, b in zip(errs, errs[1:]):
                assert b <= a or a < 1e-12, (n, errs)
            assert errs[-1] < 1e-12
        note("K=10 relative error sits at the double-precision floor for n = 1..12")


def _random_series(rng, lo, hi, unit=False):
    trunc = rng.randint(5, 9)
    v = 0 if unit else rng.randint(lo, hi)
    coeffs = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
              for e in range(v, trunc + 1) if rng.random() < 0.6}
    coeffs[v] = 1 if unit else Fraction(rng.randint(1, 9), rng.randint(1, 3))
    return QSeries(coeffs, trunc)


def test_11_kernel_property_suite(gate):
    rng = random.Random(1729)
    cases = 0
    with gate(11, "kernel property suite", 10.0) as note:
        for _ in range(300):  # ring axioms
            a = _random_series(rng, -3, 2)
            b = _random_series(rng, -3, 2)
            c = _random_series(rng, -3, 2)
            assert ((a + b) + c).agrees_with(a + (b + c))
            assert (a * (b + c)).agrees_with(a * b + a * c)
            assert (a * b).agrees_with(b * a)
            cases += 1
        for _ in range(250):  # multiplicative inverse
            a = _random_series(rng, -1, 1)
            prod = a * a.invert()
            assert prod.agrees_with(QSeries.one(prod.trunc))
            cases += 1
        for _ in range(250):  # exp/log inverse pair
            u = _random_series(rng, 0, 0, unit=True)
            assert exp_series(log_series(u)).agrees_with(u)
            w = _random_series(rng, 1, 2)
            assert log_series(exp_series(w)).agrees_with(w)
            cases += 1
        for _ in range(100):  # product/exponent round trip
            h = rng.randint(-3, 3)
            order = rng.randint(4, 8)
            exps = {n: rng.randint(-6, 6)
                    for n in range(1, order + 1) if rng.random() < 0.7}
            t = ExponentTable(h, exps, order)
            f = product_from_exponents(t)
            assert exponents_from_series(f, order) == t
            cases += 1
        for _ in range(100):  # truncation monotonicity
            a = _random_series(rng, -3, 3)
            j_, k_ = sorted((rng.randint(0, a.trunc), rng.randint(0, a.trunc)))
            cut = a.truncate(j_)
            assert a.truncate(k_).truncate(j_) == cut
            assert cut.trunc == j_
            for e in range(a.valuation(), j_ + 1):
                assert cut.coeff(e) == a.coeff(e)
            cases += 1
        assert cases == 1000
        note(f"{cases} randomized cases, all exact")
