import ast
from itertools import combinations
from pathlib import Path

import pytest

import kernel_oracle as oracle
from qmoon.identities import IDENTITY_LABELS, identity_sides, verify, verify_all
from qmoon.series import HALF, QSeries, VerifyReport


def test_all_labels_present():
    assert len(IDENTITY_LABELS) == 13
    assert "triple" in IDENTITY_LABELS and "quintuple_w2" in IDENTITY_LABELS


def test_benchmark_runs_the_labels_in_verify_all_order():
    # the benchmark's oracle keeps its own copy of the ``verify all`` order;
    # read it as source text so nothing under perfbench/ is imported
    source = (Path(__file__).parents[1] / "perfbench" / "workloads.py").read_text()
    copies = [ast.literal_eval(node.value) for node in ast.parse(source).body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["IDENTITY_LABELS"]]
    assert copies == [IDENTITY_LABELS]


@pytest.mark.parametrize("name", [n for n in IDENTITY_LABELS if n != "quintuple_w2"])
def test_identity_passes_at_order_20(name):
    report = verify(name, 20)
    assert report.passed, report.first_mismatch


def test_quintuple_w2_fails_as_printed():
    # the printed variant inverts (1+q^{2n-1}z) but not (1+q^{2n-1}z^{-1});
    # the check runs it verbatim and the first bad monomial is q z^-1
    report = verify("quintuple_w2", 20)
    assert not report.passed
    assert report.first_mismatch == ((1, -1), -1, 1)


def test_order_one_all_labels():
    for report in verify_all(1):
        if report.name == "quintuple_w2":
            assert not report.passed
        else:
            assert report.passed, (report.name, report.first_mismatch)


def test_report_invariant_and_json():
    ok = verify("triple", 10)
    assert ok.passed and ok.first_mismatch is None
    data = ok.to_json()
    assert data == {"name": "triple", "order": 10, "passed": True,
                    "first_mismatch": None}
    bad = verify("quintuple_w2", 10)
    j = bad.to_json()
    assert j["passed"] is False
    assert j["first_mismatch"]["monomial"] == [1, -1]
    # the verdict follows the mismatch and cannot contradict it
    assert VerifyReport("x", 5, ((0, 0), 1, 2)).passed is False
    assert VerifyReport("x", 5, None).passed is True
    assert VerifyReport("x", 5, ((0, 0), 0, 2)).to_json()["passed"] is False


def test_unknown_label_and_bad_order():
    with pytest.raises(ValueError):
        verify("not_a_label", 10)
    with pytest.raises(ValueError):
        verify("triple", 0)


def test_euler1_against_direct_expansion():
    # brute force both sides at tiny order with plain dict arithmetic
    order = 6
    (lhs, rhs), = identity_sides("euler1", order)
    poly = {(0, 0): 1}
    for n in range(1, order + 1):
        new = dict(poly)
        for (a, b), c in poly.items():
            if a + n <= order:
                key = (a + n, b + 1)
                new[key] = new.get(key, 0) - c
        poly = new
    poly = {k: c for k, c in poly.items() if c}
    assert rhs.coeffs == poly
    assert lhs.coeffs == poly


def typed(side):
    return ({k: (type(c), c) for k, c in side.coeffs.items()}, side.cap, side.ytop)


@pytest.mark.parametrize("order", list(range(1, 41)) + [90])
def test_euler_sum_sides_match_running_products(order):
    # the Pochhammer sums against one schoolbook product and sum per n
    (lhs1, _), = identity_sides("euler1", order)
    (lhs2, _), = identity_sides("euler2", order)
    assert typed(lhs1) == typed(oracle.euler1_sum(order))
    assert typed(lhs2) == typed(oracle.euler2_qz_sum(order))


@pytest.mark.parametrize("order", list(range(1, 41)) + [90])
def test_euler2_restatement_is_the_printed_sum_times_one_minus_z(order):
    # (1 - z) sum z^n / ((1-q)...(1-q^n)) = sum q^n z^n / ((1-q)...(1-q^n)):
    # the printed sum, known through z^order, times 1 - z, which has no q,
    # against the side the table checks, on every z-power the printed one knows
    one_minus_z = oracle.bi({(0, 0): 1, (0, 1): -1}, order, None)
    want = oracle.bi_mul(one_minus_z, oracle.euler2_sum(order))
    (lhs, _), = identity_sides("euler2", order)
    assert (lhs.cap, lhs.ytop, want.cap, want.ytop) == (order, None, order, order)
    assert {k: c for k, c in lhs.coeffs.items() if k[1] <= order} == want.coeffs


def partitions(k, largest):
    """Every partition of k into parts <= largest, as a tuple of descending parts."""
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest), 0, -1):
        for rest in partitions(k - part, part):
            yield (part,) + rest


@pytest.mark.parametrize("order", range(1, 13))
def test_euler_sum_sides_count_partitions(order):
    # euler2's z^n q^k counts partitions of k whose largest part is n (the
    # empty one's is 0); euler1's is (-1)^n times the number of partitions of
    # k into n distinct parts
    want1, want2 = {}, {}
    for k in range(order + 1):
        for p in partitions(k, k):
            key = (k, len(p) and p[0])
            want2[key] = want2.get(key, 0) + 1
        for n in range(order + 1):
            count = sum(1 for c in combinations(range(1, k + 1), n) if sum(c) == k)
            if count:
                want1[(k, n)] = (-1) ** n * count
    (lhs1, _), = identity_sides("euler1", order)
    (lhs2, _), = identity_sides("euler2", order)
    assert (lhs1.coeffs, lhs1.cap, lhs1.ytop) == (want1, order, None)
    assert (lhs2.coeffs, lhs2.cap, lhs2.ytop) == (want2, order, None)


def printed_products(order):
    """The gauss and theta-nullwert product sides as printed, one factor at a time."""
    even = [(2 * n, 1, -1) for n in range(1, order // 2 + 1)]
    odd = range(1, (order + 1) // 2 + 1)
    one, half_one = QSeries.one(order), QSeries.one(order, nome=HALF)
    front = QSeries({0: 2}, order, nome=HALF, pre24=6)
    return {
        # prod (1-q^{2n})(1+q^{2n-1})^2
        "gauss": [oracle.mul_binomials(one, even + [(2 * n - 1, 2, 1) for n in odd])],
        "theta_nullwert_products": [
            # 2 q^{1/4} prod (1-q^{2n})(1+q^{2n})^2
            oracle.mul_binomials(front, even + [(2 * n, 2, 1) for n in range(1, order // 2 + 1)]),
            # prod (1-q^{2n})(1+q^{2n-1})^2 and prod (1-q^{2n})(1-q^{2n-1})^2
            oracle.mul_binomials(half_one, even + [(2 * n - 1, 2, 1) for n in odd]),
            oracle.mul_binomials(half_one, even + [(2 * n - 1, 2, -1) for n in odd]),
        ],
    }


@pytest.mark.parametrize("order", list(range(1, 61)) + [127])
def test_euler_table_products_match_the_printed_products(order):
    # the Euler exponent tables against the printed factors (1 + q^a) and
    # (1 - q^a), each expanded by its own binomial terms
    def typed_q(s):
        return ({e: (type(c), c) for e, c in s.coeffs.items()}, s.trunc, s.pre24, s.nome)

    for name, wants in printed_products(order).items():
        sides = identity_sides(name, order)
        assert [typed_q(rhs) for _, rhs in sides] == [typed_q(want) for want in wants]


def at_z(side, z):
    """The second variable set to z = +1 or -1: {q exponent: coefficient}."""
    out = {}
    for (a, b), c in side.coeffs.items():
        out[a] = out.get(a, 0) + c * z ** abs(b)
    return {a: c for a, c in out.items() if c}


def test_triple_reduces_to_gauss_at_z_minus_one():
    order = 30
    (t_lhs, t_rhs), = identity_sides("triple", order)
    (g_lhs, g_rhs), = identity_sides("gauss", order)
    assert at_z(t_lhs, -1) == dict(g_lhs.coeffs)
    assert at_z(t_rhs, -1) == dict(g_rhs.coeffs)


def test_triple_reduces_to_euler3_on_doubled_grid():
    # q -> q^{3/2}, z -> q^{1/2}: a triple monomial q^a z^b lands on the
    # doubled-grid exponent 3a + b; euler3's pentagonal exponents (3m^2+m)/2
    # double to 3m^2 + m, and its product side becomes prod (1 - q^{2n})
    order = 36
    target = 30
    (t_lhs, t_rhs), = identity_sides("triple", order)
    (e_lhs, e_rhs), = identity_sides("euler3", target)

    def substitute(side):
        out = {}
        for (a, b), c in side.coeffs.items():
            e = 3 * a + b
            if e <= 2 * target:
                out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c}

    doubled_sum = {2 * e: c for e, c in e_lhs.coeffs.items()}
    doubled_prod = {2 * e: c for e, c in e_rhs.coeffs.items()}
    assert substitute(t_lhs) == doubled_sum
    assert substitute(t_rhs) == doubled_prod


def test_theta1_product_vanishes_at_zeta_one():
    (lhs, rhs), _, _, _ = identity_sides("theta_products", 20)
    assert at_z(lhs, 1) == {}
    assert at_z(rhs, 1) == {}


def test_disjoint_paths_sum_side_is_sparse():
    # the sum sides really are direct summations: lacunary support
    (lhs, _), = identity_sides("triple", 50)
    assert len(lhs.coeffs) < 20
    (e_lhs, _), = identity_sides("euler3", 50)
    assert len(e_lhs.coeffs) < 14
