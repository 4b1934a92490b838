"""Bessel kernels: closed forms, independent series oracles, recurrences,
derivative reduction, and the cross-product identity."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expwell import bessel_j, bessel_j_dn, crum, lommel_residual, specfun
from expwell.errors import ConvergenceError
from expwell.verify import run_battery

# sum_{m<200} (-1)^m / (m!)^2 at x = 2, in exact rational arithmetic
J0_AT_2 = 0.2238907791412356680518  # frozen from the Fraction oracle


def _j0_at_2_rational() -> float:
    total = Fraction(0)
    term = Fraction(1)
    for m in range(200):
        if m > 0:
            term *= Fraction(-1, m * m)
        total += term
    return float(Fraction(total.numerator, total.denominator))


def test_half_integer_closed_form():
    for x in (1.0, 2.0, 5.0):
        expected = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert bessel_j(0.5, x) == pytest.approx(expected, rel=1e-14)


def test_small_argument_power_behavior():
    # J(2k, rho) / (rho/2)^(2k) -> 1/Gamma(2k+1) as rho -> 0
    kappa = 0.8
    nu = 2.0 * kappa
    r = 1e-6
    ratio = bessel_j(nu, r) / (r / 2.0) ** nu * math.gamma(nu + 1.0)
    assert abs(ratio - 1.0) <= 1e-12


def test_j0_at_2_against_rational_oracle():
    oracle = _j0_at_2_rational()
    assert abs(oracle - J0_AT_2) < 1e-18
    assert bessel_j(0.0, 2.0) == pytest.approx(J0_AT_2, rel=1e-14)


def test_convergence_error_when_term_cap_too_small(monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_TERMS", 50)
    specfun._series_cached.cache_clear()
    for nu in (0.0, 2j * 0.7):  # real and complex orders sum separately
        with pytest.raises(ConvergenceError):
            bessel_j(nu, 40.0)


_ROUTE_XS = (1e-3, 0.5, 2.0, 10.0, 24.0, 40.0, 80.0)


def _route_orders(x):
    # negative real orders next to and away from integers, where the
    # normalised series' (nu+1)_m nearly vanishes; 0.00498 is the g = 0.05
    # ground state, where J' of an order formed as nu -+ 1 in double
    # loses digits
    real = [-3.9999999, -3.3, -2.5, -1.0000001, -0.7, 0.0, 0.00498, 0.3,
            1.0, 2.7, x / 2, 0.97 * x, x + 3.1]
    imag = [1j * tau + shift for tau in (0.002, 0.7, 5.0, 20.0)
            for shift in (0.0, 1.0, -1.0)]
    return real + imag


@pytest.mark.parametrize("x", _ROUTE_XS)
def test_bessel_j_against_mpmath_hypergeometric_route(x):
    # mpmath.besselj sums a hypergeometric series of its own, not ours;
    # n = 1 is the kernel's weighted sum, n >= 2 Bessel's equation
    worst = 0.0
    for n in range(4):
        for nu in _route_orders(x):
            with mp.workdps(60):
                ref = complex(mp.besselj(nu, x, n))
            val = bessel_j(nu, x) if n == 0 else bessel_j_dn(nu, x, n)
            worst = max(worst, abs(val - ref) / abs(ref))
    assert worst <= 1e-15


def test_argument_validation():
    with pytest.raises(ValueError):
        bessel_j(1.0, 0.0)
    with pytest.raises(ValueError):
        bessel_j(1.0, -2.0)


def test_negative_integer_order_reflection():
    # J_{-n} = (-1)^n J_n
    assert bessel_j(-1.0, 2.0) == pytest.approx(-bessel_j(1.0, 2.0), rel=1e-14)
    assert bessel_j(-2.0, 3.0) == pytest.approx(bessel_j(2.0, 3.0), rel=1e-14)


def test_three_term_recurrence_random_orders():
    # J_{nu-1} + J_{nu+1} = (2 nu / x) J_nu for real and imaginary order
    import random

    rng = random.Random(445303)
    for _ in range(50):
        x = rng.uniform(1e-3, 20.0)
        if rng.random() < 0.5:
            nu = rng.uniform(0.0, 10.0)
        else:
            nu = 1j * rng.uniform(0.0, 10.0)
        lhs = bessel_j(nu - 1, x) + bessel_j(nu + 1, x)
        rhs = 2.0 * nu / x * bessel_j(nu, x) if nu != 0 else 0.0 * lhs
        scale = max(abs(bessel_j(nu - 1, x)), abs(bessel_j(nu + 1, x)), 1e-300)
        assert abs(lhs - rhs) / scale <= 1e-11, (nu, x)


@settings(max_examples=40, deadline=None)
@given(tau=st.floats(min_value=0.01, max_value=8.0),
       x=st.floats(min_value=0.05, max_value=15.0))
def test_conjugation_symmetry_bit_exact(tau, x):
    val = bessel_j(2j * tau, x)
    conj_val = bessel_j(-2j * tau, x)
    assert conj_val == val.conjugate()


def test_derivative_order_zero_is_identity():
    assert bessel_j_dn(0.8, 1.7, 0) == bessel_j(0.8, 1.7)


def test_first_derivative_matches_two_term_recurrence():
    lhs = bessel_j_dn(1.0, 2.0, 1)
    rhs = (bessel_j(0.0, 2.0) - bessel_j(2.0, 2.0)) / 2.0
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_second_derivative_against_finite_difference():
    # Richardson-extrapolated central second difference of J itself
    nu, x, h = 0.8, 1.7, 1e-4

    def d2(step):
        return (bessel_j(nu, x + step) - 2.0 * bessel_j(nu, x)
                + bessel_j(nu, x - step)) / step ** 2

    fd = (4.0 * d2(h / 2.0) - d2(h)) / 3.0
    assert abs(bessel_j_dn(nu, x, 2) - fd) <= 1e-8


def test_derivative_order_out_of_range():
    with pytest.raises(ValueError):
        bessel_j_dn(0.5, 1.0, 13)
    with pytest.raises(ValueError):
        bessel_j_dn(0.5, 1.0, -1)


@pytest.mark.parametrize("nu,x,bound", [
    (0.5, 2.0, 1e-12),
    (2j * 0.7, 2.0, 1e-11),
    (0.0, 2.0, 1e-15),
])
def test_lommel_residual_examples(nu, x, bound):
    assert lommel_residual(nu, x) <= bound


def test_lommel_residual_grid():
    worst = 0.0
    for nu in (0.3, 0.7, 1.9, 0.8j, 2.6j):
        for x in (0.5, 2.0, 8.0):
            worst = max(worst, lommel_residual(nu, x))
    assert worst <= 1e-11


def _lommel_row(g):
    (row,) = [c for c in run_battery(g) if c.name == "kernel_lommel_residual"]
    return row


def test_battery_kernel_lommel_row_passes():
    # 1.9158...: j_11/2 (1 + 1e-13), where J'_(+-nu) ~ -J_1 ~ 0
    for g in (2.1, 1.9158529851039476):
        row = _lommel_row(g)
        assert row.passed and row.value <= 1e-24


def test_battery_kernel_lommel_row_fails_on_perturbed_kernel(monkeypatch):
    exact = specfun._series_cached

    def perturbed(nu_re, nu_im, x):
        val = exact(nu_re, nu_im, x)
        if nu_re >= 0.0:
            return val
        # J and J' of negative orders
        return tuple(v * (1 + 1e-9) for v in val)

    monkeypatch.setattr(specfun, "_series_cached", perturbed)
    crum._wronskian_det_mp.cache_clear()
    try:
        row = _lommel_row(2.1)
    finally:
        # determinants built from perturbed values must not outlive the test
        crum._wronskian_det_mp.cache_clear()
    assert not row.passed
    assert row.value >= 1e-10


def test_real_order_returns_float_complex_order_returns_complex():
    assert isinstance(bessel_j(0.7, 1.0), float)
    assert isinstance(bessel_j(0.7 + 0j, 1.0), float)
    assert isinstance(bessel_j(1j, 1.0), complex)
