"""The catalog memo: one longest expansion per form, shorter orders served as truncations.

The differential test runs every memoized builder through ascending,
descending and repeated orders in one process and compares each answer with
a fresh build taken with an empty memo.  The count tests swap in a memo that
counts the builds stored under each key.
"""

from collections import Counter

import pytest

from qmoon import borcherds, forms, mults

MEMOIZED = (
    [(forms.eisenstein, (w,)) for w in (4, 6, 10, 14)]
    + [(forms.delta, ()), (forms.eta, ()), (forms.j_invariant, ())]
    + [(forms.theta_nullwerte, (w,)) for w in (2, 3, 4)]
    + [(forms.theta_full, ()), (forms.leech_theta, ())]
    + [(forms.colored_partition_series, (k,)) for k in (1, 8, 24)]
    + [(forms.xi_series, ()), (forms.F_oddsigma, ())]
    + [(borcherds._eisenstein_over_delta4, (w,)) for w in (4, 6)]
    + [(borcherds._q_series, ())]
    + [(borcherds._raw_catalog, (name,)) for name in borcherds.CATALOG_NAMES]
)

SWEEPS = {
    "ascending": (0, 1, 2, 5, 9, 14, 22),
    "descending": (22, 14, 9, 5, 2, 1, 0),
    "repeated": (9, 9, 4, 9, 16, 4, 16, 0, 16),
}


def _shape(s):
    """Everything a caller can read off a series: coefficients with their types included."""
    coeffs = {e: (type(c), c) for e, c in s.coeffs.items()}
    return s.var, s.nome, s.prefactor, s.trunc, coeffs


def _label(case):
    builder, lead = case
    return "-".join([builder.__name__, *map(str, lead)])


@pytest.mark.parametrize("sweep", SWEEPS)
@pytest.mark.parametrize("case", MEMOIZED, ids=_label)
def test_memo_matches_fresh_builds(monkeypatch, case, sweep):
    builder, lead = case
    monkeypatch.setattr(forms, "_LONGEST", {})
    for order in SWEEPS[sweep]:
        served = _shape(builder(*lead, order))
        with monkeypatch.context() as fresh:
            fresh.setattr(forms, "_LONGEST", {})
            built = _shape(builder(*lead, order))
        assert served == built, (order, served[:4], built[:4])
    # one entry per form, keyed without the order, holding the deepest order asked for
    mine = [k for k in forms._LONGEST if k[0] is builder.__wrapped__]
    assert all(len(k) == 1 + len(lead) for k in mine)
    assert forms._LONGEST[(builder.__wrapped__, *lead)][0] == max(SWEEPS[sweep])


def test_negative_order_is_never_stored(monkeypatch):
    monkeypatch.setattr(forms, "_LONGEST", {})
    forms.theta_nullwerte(2, 6)
    stored = dict(forms._LONGEST)
    assert forms.theta_nullwerte(2, -1).trunc == -1
    with pytest.raises(ValueError):
        forms.delta(-2)
    assert forms._LONGEST == stored


class _CountingMemo(dict):
    """A memo that counts the builds stored under each (builder name, leading args)."""

    def __init__(self):
        super().__init__()
        self.builds = Counter()

    def __setitem__(self, key, value):
        self.builds[(key[0].__name__, *key[1:])] += 1
        super().__setitem__(key, value)


@pytest.fixture
def builds(monkeypatch):
    memo = _CountingMemo()
    monkeypatch.setattr(forms, "_LONGEST", memo)
    return memo.builds


def test_e10_table_builds_xi_once(builds):
    report = mults.frenkel_compare("E10_level2", range(2, -42, -2))
    assert [row[0] for row in report.rows] == list(range(2, -42, -2))
    assert builds[("xi_series",)] == 1
    assert builds[("colored_partition_series", 8)] == 1


def test_fake_monster_table_builds_p24_once(builds):
    report = mults.frenkel_compare("fake_monster", range(2, -42, -2))
    assert [row[0] for row in report.rows] == list(range(2, -42, -2))
    assert builds[("colored_partition_series", 24)] == 1


@pytest.mark.parametrize("name", ["f_j", "f_4"])
def test_fj_and_f4_never_build_j(monkeypatch, builds, name):
    def no_j(order):
        raise AssertionError(f"{name} built j at order {order}")

    monkeypatch.setattr(forms, "j_invariant", no_j)
    assert borcherds.catalog(name, 36).series.trunc == 36
    assert not any(key[0] == "j_invariant" for key in builds)


def test_leech_cross_check_runs_on_every_longer_build(monkeypatch, builds):
    forms.leech_theta(20)
    real = forms._sigma_table

    def broken(ell, order):  # corrupts the count construction only
        table = real(ell, order)
        return [x + 1 for x in table] if ell == 11 else table

    monkeypatch.setattr(forms, "_sigma_table", broken)
    assert forms.leech_theta(12).trunc == 12  # a truncation of the checked build
    assert builds[("leech_theta",)] == 1
    with pytest.raises(ArithmeticError, match="Leech theta constructions disagree"):
        forms.leech_theta(24)
