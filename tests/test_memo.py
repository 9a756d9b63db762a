"""Every catalog builder expands its form afresh, so orders agree and tables build once.

Nothing in qmoon caches a series.  The differential test runs every catalog
builder, and the whole-series lift inputs the catalog's reads are checked
against, through ascending, descending and repeated orders in one process and
compares each answer with the sweep's deepest build cut to that order.  The
count tests swap in counting builders and check that a multiplicity table
and a catalog form each build their shared series once, however many rows
or formulas read from them, and that the largest lift divides no series
longer than the G it reads.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

import paper_refs
from qmoon import borcherds, cli, forms, mults, series

BUILDERS = (
    [(forms.eisenstein, (w,)) for w in (4, 6, 10, 14)]
    + [(forms.delta, ()), (forms.eta, ()), (forms.j_invariant, ())]
    + [(forms.theta_nullwerte, (w,)) for w in (2, 3, 4)]
    + [(forms.theta_full, ()), (forms.leech_theta, ())]
    + [(forms.colored_partition_series, (k,)) for k in (1, 8, 24)]
    + [(forms.xi_series, ()), (forms.F_oddsigma, ())]
    + [(borcherds._q_series, ()), (borcherds._g_series, ()), (paper_refs._qg, ())]
    + [(paper_refs._raw_catalog, (name,)) for name in borcherds.CATALOG_NAMES]
)

SWEEPS = {
    "ascending": (0, 1, 2, 5, 9, 14, 22),
    "descending": (22, 14, 9, 5, 2, 1, 0),
    "repeated": (9, 9, 4, 9, 16, 4, 16, 0, 16),
}


def _shape(s):
    """Everything a caller can read off a series: coefficients with their types included."""
    coeffs = {e: (type(c), c) for e, c in s.coeffs.items()}
    return s.nome, s.pre24, s.trunc, coeffs


def _label(case):
    builder, lead = case
    return "-".join([builder.__name__, *map(str, lead)])


@pytest.mark.parametrize("sweep", SWEEPS)
@pytest.mark.parametrize("case", BUILDERS, ids=_label)
def test_memo_matches_fresh_builds(case, sweep):
    builder, lead = case
    deepest = builder(*lead, max(SWEEPS[sweep]))
    for order in SWEEPS[sweep]:
        built = _shape(builder(*lead, order))
        cut = _shape(deepest.truncate(order))
        assert built == cut, (order, built[:4], cut[:4])


def test_negative_order_is_never_stored():
    assert forms.theta_nullwerte(2, -1).trunc == -1
    with pytest.raises(ValueError):
        forms.delta(-2)


def _count_calls(monkeypatch, owner, names):
    """Replace each named builder of the owner with one that counts its calls."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _builder=getattr(owner, name)):
            calls[(_name, *args[:-1])] += 1
            return _builder(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _table_builds(monkeypatch, algebra, min_norm):
    # mults reads its builders off a copy of forms: calls made inside forms go uncounted
    stand_in = SimpleNamespace(**vars(forms))
    monkeypatch.setattr(mults, "forms", stand_in)
    calls = _count_calls(monkeypatch, stand_in, ["xi_from_p8", "colored_partition_series"])
    report = mults.frenkel_compare(algebra, range(2, min_norm - 1, -2))
    assert [row[0] for row in report.rows] == list(range(2, min_norm - 1, -2))
    return calls


def test_e10_table_builds_xi_once(monkeypatch):
    for min_norm in (2, -6, -40, -120):
        builds = _table_builds(monkeypatch, "E10_level2", min_norm)
        assert builds == {("xi_from_p8",): 1, ("colored_partition_series", 8): 1}, min_norm


def test_e10_table_builds_p8_once(monkeypatch):
    # counted on forms itself, so a build inside xi counts too
    calls = _count_calls(monkeypatch, forms, ["colored_partition_series"])
    for min_norm in (2, -6, -40, -120):
        calls.clear()
        mults.frenkel_compare("E10_level2", range(2, min_norm - 1, -2))
        assert calls == {("colored_partition_series", 8): 1}, min_norm


def test_fake_monster_table_builds_p24_once(monkeypatch):
    for min_norm in (2, -6, -40, -120):
        builds = _table_builds(monkeypatch, "fake_monster", min_norm)
        assert builds == {("colored_partition_series", 24): 1}, min_norm


@pytest.mark.parametrize("name", ["f_4", "f_6", "f_8", "f_10", "f_j"])
def test_a_form_with_a_qg_term_builds_q_and_g_once(monkeypatch, name):
    calls = _count_calls(monkeypatch, borcherds, ["_q_series", "_g_series"])
    assert borcherds.catalog(name, 36).coeff(36) is not None
    assert calls == {("_q_series",): 1, ("_g_series",): 1}


@pytest.mark.parametrize("name", ["f_delta", "f_14"])
def test_f_delta_and_f14_build_neither_q_nor_g(monkeypatch, name):
    # f_14 = 2 f_4 + f_6 = j(4t) theta - 732 theta: its Q G terms cancel
    calls = _count_calls(monkeypatch, borcherds, ["_q_series", "_g_series"])
    assert borcherds.catalog(name, 36).coeff(36) is not None
    assert calls == {}


def test_no_division_in_the_largest_lift_runs_past_628_terms(monkeypatch, capsys):
    # the whole-series f_j divided 2,505 terms at once; G = E_6/Delta in q
    # through q^625 divides 627
    sizes = []

    def counted(a, u, n, _real=series._div_lists):
        sizes.append(n)
        return _real(a, u, n)

    monkeypatch.setattr(series, "_div_lists", counted)
    assert cli.run(["lift", "--name", "f_j", "--order", "50"]) == 0
    assert capsys.readouterr().out.startswith("h = 1\n")
    assert sizes and max(sizes) <= 628, max(sizes)


@pytest.mark.parametrize("name", ["f_j", "f_4"])
def test_fj_and_f4_never_build_j(monkeypatch, name):
    def no_j(order):
        raise AssertionError(f"{name} built j at order {order}")

    monkeypatch.setattr(forms, "j_invariant", no_j)
    assert borcherds.catalog(name, 36).trunc == 36


def test_leech_cross_check_runs_on_every_longer_build(monkeypatch):
    forms.leech_theta(20)
    real = forms._sigma_table

    def broken(ell, order):  # corrupts the count construction only
        table = real(ell, order)
        return [x + 1 for x in table] if ell == 11 else table

    monkeypatch.setattr(forms, "_sigma_table", broken)
    for order in (12, 24):
        with pytest.raises(ArithmeticError, match="Leech theta constructions disagree"):
            forms.leech_theta(order)
