from fractions import Fraction

import pytest

from qmoon import forms
from qmoon.forms import (
    F_oddsigma,
    bernoulli,
    colored_partition_series,
    delta,
    eisenstein,
    eta,
    j_invariant,
    jstar,
    leech_theta,
    named_form,
    partition_series,
    theta_full,
    theta_nullwerte,
    xi_series,
)
from qmoon.series import HALF, QSeries, exponents_from_series, sigma
from test_golden_cli import _EXPAND as GOLDEN_FORMS


# -- independent oracles ------------------------------------------------------

def poly_mul(a, b, order):
    """Dense list convolution, the no-frills cross-check path."""
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if i + j > order:
                    break
                out[i + j] += x * y
    return out


def poly_inv(a, order):
    assert a[0] == 1
    out = [0] * (order + 1)
    out[0] = 1
    for n in range(1, order + 1):
        out[n] = -sum(a[k] * out[n - k] for k in range(1, min(n, len(a) - 1) + 1))
    return out


def phi_list(order, step=1):
    """prod (1 - q^{step*n}) as a dense list."""
    out = [0] * (order + 1)
    out[0] = 1
    for n in range(step, order + 1, step):
        new = out[:]
        for i in range(order + 1 - n):
            new[i + n] -= out[i]
        out = new
    return out


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_eisenstein_first_coefficients():
    e4 = eisenstein(4, 6)
    assert [e4.coeff(n) for n in range(4)] == [1, 240, 2160, 6720]
    e6 = eisenstein(6, 6)
    assert [e6.coeff(n) for n in range(3)] == [1, -504, -16632]
    e12 = eisenstein(12, 3)
    assert e12.coeff(1) == Fraction(65520, 691)


def test_eisenstein_rejects_bad_weight():
    for w in (2, 3, 5, 0):
        with pytest.raises(ValueError):
            eisenstein(w, 5)


def test_delta_tau_values():
    d = delta(12)
    expected = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048,
                7: -16744, 8: 84480, 9: -113643, 10: -115920, 11: 534612}
    for n, tau in expected.items():
        assert d.coeff(n) == tau
    assert d.coeff(0) == 0


@pytest.mark.parametrize("n", [0, 1, 2, 3, 127, 128, 129, 631])
def test_delta_from_jacobi_matches_the_euler_product(n):
    # q (eta^3 / q^(1/8))^8 against q prod (1 - q^n)^24, trunc and types included
    new, old = delta(n), forms._euler_power(24, -1, n)
    assert (new.trunc, new.prefactor, new.nome) == (old.trunc, old.prefactor, old.nome)
    assert new.trunc == n
    assert new.coeffs == old.coeffs
    assert all(type(c) is int for c in new.coeffs.values())


def test_delta_rejects_negative_order():
    with pytest.raises(ValueError):
        delta(-2)


def test_delta_from_eisenstein():
    n = 30
    e4, e6 = eisenstein(4, n), eisenstein(6, n)
    combo = (e4 ** 3 - e6 ** 2) * Fraction(1, 1728)
    assert combo == delta(n)


def test_eta_to_24_is_delta():
    e = eta(20)
    d = (e ** 24).canonical()
    assert d.prefactor == 0
    assert d == delta(20)


def test_eta_quotient_shape_1_8_2_8():
    e = eta(6)
    q = (e * e.scale_var(2).truncate(6)) ** 8
    assert q.prefactor == 1
    recip = q.invert()
    # brute force: dense expansion of (phi(q) phi(q^2))^8, then invert
    base = phi_list(6)
    acc = [1] + [0] * 6
    for _ in range(8):
        acc = poly_mul(acc, base, 6)
    acc2 = acc[:]
    base2 = phi_list(6, step=2)
    for _ in range(8):
        acc2 = poly_mul(acc2, base2, 6)
    expected = poly_inv(acc2, 6)
    for n in range(7):
        assert recip.coeff(n) == expected[n]
    assert recip.coeff(1) == 8
    assert recip.coeff(2) == 52
    assert recip.coeff(3) == 256


def test_j_invariant_values():
    j = j_invariant(3)
    assert j.coeff(-1) == 1
    assert j.coeff(0) == 744
    assert j.coeff(1) == 196884
    assert j.coeff(2) == 21493760
    assert j.coeff(3) == 864299970


def test_jstar_constant_term_zero():
    js = jstar(2)
    assert js.coeff(0) == 0
    assert js.coeff(-1) == 1
    assert js.coeff(1) == 196884


def test_j_times_delta_is_e4_cubed():
    n = 20
    assert (j_invariant(n) * delta(n + 2)).agrees_with(eisenstein(4, n) ** 3, n)


def test_theta_nullwerte():
    t3 = theta_nullwerte(3, 10)
    assert t3.nome == HALF
    assert [t3.coeff(n) for n in range(5)] == [1, 2, 0, 0, 2]
    t4 = theta_nullwerte(4, 10)
    assert [t4.coeff(n) for n in range(5)] == [1, -2, 0, 0, 2]
    t2 = theta_nullwerte(2, 10)
    assert t2.prefactor == Fraction(1, 4)
    assert t2.coeffs == {0: 2, 2: 2, 6: 2}
    with pytest.raises(ValueError):
        theta_nullwerte(5, 4)


def test_theta4_is_theta3_alternating():
    t3 = theta_nullwerte(3, 16)
    t4 = theta_nullwerte(4, 16)
    flipped = QSeries({e: c if e % 2 == 0 else -c for e, c in t3.coeffs.items()},
                      16, nome=HALF)
    assert flipped == t4


@pytest.mark.parametrize("order", [0, 1, 9, 40])
def test_theta3_powers_at_minus_q_are_theta4_powers(order):
    # leech_theta takes theta4^8 and theta4^24 from the theta3 powers this way
    t3, t4 = theta_nullwerte(3, order), theta_nullwerte(4, order)
    for k in (1, 8, 24):
        reflected, want = forms._at_minus_q(t3 ** k), t4 ** k
        assert (reflected.nome, reflected.trunc) == (want.nome, want.trunc)
        assert reflected.coeffs == want.coeffs


def test_theta_full_support_squares():
    t = theta_full(17)
    assert t.coeffs == {0: 1, 1: 2, 4: 2, 9: 2, 16: 2}


def test_leech_theta_coefficients():
    lt = leech_theta(20)
    assert lt.nome == HALF
    assert lt.coeff(0) == 1
    assert lt.coeff(2) == 0
    assert lt.coeff(4) == 196560
    assert lt.coeff(6) == 16773120
    assert lt.coeff(8) == 398034000
    assert all(lt.coeff(n) == 0 for n in range(1, 20, 2))


def test_partition_series_values():
    p = partition_series(10)
    assert [p.coeff(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_colored_partition_series():
    p24 = colored_partition_series(24, 5)
    assert p24.coeff(1) == 24
    assert p24.coeff(2) == 324
    assert p24.coeff(3) == 3200
    with pytest.raises(ValueError):
        colored_partition_series(0, 5)


def test_xi_series_values():
    xi = xi_series(12)
    assert xi.coeff(0) == 0
    assert xi.coeff(1) == 0
    # independent path: phi(q^2)/phi(q^4) = prod over odd m of (1 - q^{2m})
    order = 12
    odd_prod = [1] + [0] * order
    for m in range(1, order + 1, 2):
        if 2 * m > order:
            break
        new = odd_prod[:]
        for i in range(order + 1 - 2 * m):
            new[i + 2 * m] -= odd_prod[i]
        odd_prod = new
    one_minus = [-c for c in odd_prod]
    one_minus[0] += 1
    inv8 = [1] + [0] * order
    base = phi_list(order)
    for _ in range(8):
        inv8 = poly_mul(inv8, base, order)
    inv8 = poly_inv(inv8, order)
    expected = poly_mul(inv8, one_minus, order)
    for n in range(order + 1):
        assert xi.coeff(n) == expected[n]
    assert xi.coeff(2) == 1
    assert xi.coeff(3) == 8
    assert xi.coeff(4) == 44
    assert xi.coeff(6) == 727


def test_F_oddsigma_values():
    f = F_oddsigma(9)
    assert [f.coeff(n) for n in range(1, 10)] == [1, 0, 4, 0, 6, 0, 8, 0, 13]
    assert f.coeff(9) == sigma(1, 9) == 13


def test_p24_is_the_reciprocal_of_delta_over_q():
    assert colored_partition_series(24, 5) == delta(6).shift(-1).invert()


def test_eisenstein_product_relations():
    n = 50
    e4, e6 = eisenstein(4, n), eisenstein(6, n)
    assert e4 * e4 == eisenstein(8, n)
    assert e4 * e6 == eisenstein(10, n)
    assert e4 * e4 * e6 == eisenstein(14, n)


def test_sigma_convolutions():
    for n in range(1, 51):
        conv33 = sum(sigma(3, m) * sigma(3, n - m) for m in range(1, n))
        assert sigma(7, n) == sigma(3, n) + 120 * conv33
        conv35 = sum(sigma(3, m) * sigma(5, n - m) for m in range(1, n))
        assert 11 * sigma(9, n) == 21 * sigma(5, n) - 10 * sigma(3, n) + 5040 * conv35


def test_exponent_tables_of_catalog_forms_are_integral():
    order = 12
    for series in (delta(order + 1), eisenstein(4, order), eisenstein(6, order),
                   j_invariant(order)):
        t = exponents_from_series(series, order)
        assert all(isinstance(e, int) for e in t.exps.values())


def test_named_form_dispatch():
    assert named_form("E4", 5) == eisenstein(4, 5)
    assert named_form("delta", 5) == delta(5)
    assert named_form("j", 5) == j_invariant(5)
    assert named_form("theta2", 5) == theta_nullwerte(2, 5)
    assert named_form("p24", 5) == colored_partition_series(24, 5)
    assert named_form("leech", 6) == leech_theta(6)
    for label in ("nope", "e²", "p٢٤", "E٤", "p²4", "theta٢", "e 4", "p-1"):
        with pytest.raises(ValueError, match="^unknown form label"):
            named_form(label, 5)


# every fixed label and alias of named_form, with the builder it names
_FIXED_LABELS = {"delta": delta, "tau": delta, "eta": eta, "j": j_invariant, "jstar": jstar,
                 "j*": jstar, "theta": theta_full, "theta_full": theta_full,
                 "leech": leech_theta, "leech_theta": leech_theta, "f": F_oddsigma,
                 "f_oddsigma": F_oddsigma, "partition": partition_series,
                 "p": partition_series, "xi": xi_series}


def test_every_fixed_label_builds_its_form():
    assert sorted(forms._NAMED) == sorted(_FIXED_LABELS)
    for label, builder in _FIXED_LABELS.items():
        for order in (0, 1, 6):
            got, want = named_form(f" {label.upper()} ", order), builder(order)
            assert (got.trunc, got.nome, got.prefactor) == (want.trunc, want.nome, want.prefactor)
            assert [(e, c, type(c)) for e, c in got.coeffs.items()] == \
                [(e, c, type(c)) for e, c in want.coeffs.items()]


@pytest.mark.parametrize("label", GOLDEN_FORMS)
def test_named_forms_are_honest_across_orders(label):
    # a form built at order o claims q^o, and a build at o + 4 agrees with
    # it there
    for order in range(14):
        shallow = named_form(label, order)
        deep = named_form(label, order + 4)
        assert shallow.trunc == order and deep.trunc >= order
        assert shallow.first_mismatch(deep) is None
