"""Bound-state module: quantization conditions, spectra, eigenfunctions,
overlaps.  Independent checks come from the Numerov oracle and from exact
symmetry and small-argument structure."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros

from expwell import (
    PotentialParams,
    ShootingConfig,
    bessel_j,
    count_nodes,
    eigenfunction,
    even_condition,
    find_spectrum,
    inner_product,
    normalize,
    numerov_eigenvalue,
    numerov_wavefunction,
    odd_condition,
    order_zeros,
    rho,
)
from expwell import bound, specfun
from expwell.errors import ConvergenceError, InterlacingViolation
from expwell.quadrature import gauss_geometric
from expwell.scatter import find_poles
from expwell.verify import run_battery

# high-precision order-zero references (50-digit root refinement, frozen)
KAPPA0_G1 = 0.5627207610599921544
KAPPAS_G5 = (4.1654197764373349, 3.02762252022764307, 2.28870511963466401,
             1.59065474523115488, 1.01089892967817991, 0.441491095812354945)


def test_rho_at_origin():
    assert rho(0.0, 2.5) == 5.0


def test_rho_symmetry():
    assert rho(1.37, 2.0) == rho(-1.37, 2.0)


def test_rho_forced_value():
    assert rho(2.0 * math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(min_value=-30, max_value=30, allow_nan=False),
       g=st.floats(min_value=1e-3, max_value=25.0))
def test_rho_range_and_monotonicity(x, g):
    r = rho(x, g)
    assert 0.0 < r <= 2.0 * g
    assert rho(abs(x) + 0.5, g) < r


def test_params_validation():
    with pytest.raises(ValueError):
        PotentialParams(0.0)
    with pytest.raises(ValueError):
        PotentialParams(-3.0)


def test_even_condition_is_derivative():
    # against the order recurrence J'_nu = J_{nu-1} - (nu/x) J_nu
    kappa, g = 0.8, 1.0
    assert even_condition(kappa, g) == pytest.approx(
        bessel_j(2.0 * kappa - 1.0, 2.0 * g)
        - (kappa / g) * bessel_j(2.0 * kappa, 2.0 * g), abs=1e-12)


def test_even_condition_sign_bracket_at_g1():
    assert even_condition(0.5, 1.0) < 0.0
    assert even_condition(1.0, 1.0) > 0.0


def test_even_condition_residual_at_root(spectrum_of):
    k0 = spectrum_of(1.0).states[0].kappa
    assert abs(even_condition(k0, 1.0)) <= 1e-12


def test_odd_condition_sign_structure():
    # no odd root below threshold, at least one well above it
    ks = np.linspace(1e-6, 1.0, 400)
    vals = [odd_condition(float(k), 1.0) for k in ks]
    assert all(v > 0 for v in vals)
    ks5 = np.linspace(1e-6, 5.0, 400)
    vals5 = [odd_condition(float(k), 5.0) for k in ks5]
    signs = np.sign(vals5)
    assert np.any(signs[:-1] != signs[1:])


def test_spectrum_g1(spectrum_of):
    s = spectrum_of(1.0)
    assert s.count == 1
    st0 = s.states[0]
    assert st0.parity == "even"
    assert 0.5 < st0.kappa < 1.0
    assert st0.kappa == pytest.approx(KAPPA0_G1, abs=1e-10)
    assert st0.energy == pytest.approx(-KAPPA0_G1 ** 2, rel=1e-9)


def test_spectrum_g1_against_numerov(spectrum_of):
    st0 = spectrum_of(1.0).states[0]
    cfg = ShootingConfig(parity="even", kappa_bracket=(0.5, 0.7))
    assert abs(numerov_eigenvalue(PotentialParams(1.0), cfg) - st0.kappa) <= 1e-8


def test_spectrum_g5_reference_roots(spectrum_of):
    s = spectrum_of(5.0)
    assert s.count == 6
    for st_, ref in zip(s.states, KAPPAS_G5):
        assert st_.kappa == pytest.approx(ref, abs=1e-9)
    assert [st_.parity for st_ in s.states] == \
        ["even", "odd", "even", "odd", "even", "odd"]


def test_small_g_two_term_seed(spectrum_of):
    s = spectrum_of(0.05)
    assert s.count == 1
    nu = s.states[0].order
    assert s.states[0].kappa == pytest.approx(0.05 ** 2, rel=0.05)
    assert (2 * 0.05) ** 2 == pytest.approx(4 * nu * (nu + 1) / (nu + 2),
                                            rel=5e-3)


_THRESHOLDS = np.sort(np.concatenate([jn_zeros(0, 4), jn_zeros(1, 4)]))[:4] / 2


@pytest.mark.parametrize("t", _THRESHOLDS)
def test_no_missed_state_just_above_threshold(t):
    # the state entering at this threshold has nu of order eps
    for eps in (1e-13, 1e-10, 1e-6, 1e-3):
        g = float(t * (1 + eps))
        s = find_spectrum(PotentialParams(g))
        n_even = sum(st_.parity == "even" for st_ in s.states)
        assert (n_even, s.count - n_even) == (
            1 + int(np.sum(jn_zeros(1, 4) < 2 * g)),
            int(np.sum(jn_zeros(0, 4) < 2 * g)))
        report = find_poles(s.params, s)
        assert report.matched_state_indices == tuple(range(s.count))


@pytest.mark.parametrize("g", [1e-7, 1e-5, 1e-4, 7.0e-4, 1.3e-3])
def test_tiny_ground_state_relative_accuracy(g):
    nu = find_spectrum(PotentialParams(g)).states[0].order
    with mp.workdps(60):
        ref = mp.findroot(lambda v: mp.besselj(v, 2 * mp.mpf(g), 1),
                          mp.mpf(nu))
        assert float(abs(nu - ref) / ref) <= 1e-15


@pytest.mark.parametrize("passes_missing", [1, 7])
def test_missed_root_rescans_then_raises(passes_missing, monkeypatch):
    # state 2 (even) is missing from the first passes_missing scans; the
    # parities then fail to alternate, and the engine halves the step
    params = PotentialParams(5.0)
    clean = find_spectrum(params)
    scan, steps = bound._scan, []

    def drop_state_2(x, h, tol):
        steps.append(h)
        events = scan(x, h, tol)
        return events[:2] + events[3:] if len(steps) <= passes_missing \
            else events

    monkeypatch.setattr(bound, "_scan", drop_state_2)
    if passes_missing == 1:
        assert find_spectrum(params) == clean
        assert steps == [0.5, 0.25]
    else:
        with pytest.raises(InterlacingViolation):
            find_spectrum(params)
        assert len(steps) == 7


def test_unconverged_root_raises(monkeypatch):
    # no end of the bracket is returned as a root in place of a converged one
    monkeypatch.setattr(bound, "_MAX_NEWTON", 1)
    with pytest.raises(ConvergenceError):
        find_spectrum(PotentialParams(5.0))


def test_scan_takes_no_series_entry():
    # the scan reads the integer sums directly, not the (J, J') cache
    specfun._series_cached.cache_clear()
    find_spectrum(PotentialParams(5.0))
    assert specfun._series_cached.cache_info().misses == 0


def test_spectrum_tol_validation():
    with pytest.raises(ValueError):
        find_spectrum(PotentialParams(1.0), tol=1e-14)


@pytest.mark.parametrize("g", [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0])
def test_existence_and_bounds_small_grid(g, spectrum_of):
    s = spectrum_of(g)
    assert s.count >= 1
    assert s.states[0].parity == "even"
    assert -g * g < s.states[0].energy < 0.0
    assert s.states[-1].energy < 0.0
    assert all(0.0 < st_.kappa < g for st_ in s.states)


def test_monotone_state_count(spectrum_of):
    counts = [spectrum_of(g).count for g in (0.1, 0.5, 1.0, 2.0, 5.0, 8.0)]
    assert counts == sorted(counts)


def test_order_zeros_g1(spectrum_of):
    z = order_zeros(PotentialParams(1.0))
    assert len(z.lam) == 1 and len(z.mu) == 0
    assert z.lam[0] == pytest.approx(2.0 * KAPPA0_G1, abs=1e-9)
    assert z.lam[0] < z.x_arg


def test_order_zeros_interlacing_g5():
    z = order_zeros(PotentialParams(5.0))
    chain = [z.x_arg]
    for i in range(len(z.lam)):
        chain.append(z.lam[i])
        if i < len(z.mu):
            chain.append(z.mu[i])
    assert all(a > b for a, b in zip(chain[:-1], chain[1:]))
    assert chain[-1] > 0.0
    assert len(z.mu) in (len(z.lam), len(z.lam) - 1)


def test_lambda0_below_argument(spectrum_of):
    for g in (0.5, 2.0, 5.0, 8.0):
        z = order_zeros(PotentialParams(g))
        assert z.lam[0] < 2.0 * g


def test_odd_eigenfunction_vanishes_at_origin(spectrum_of):
    s = spectrum_of(5.0)
    st1 = s.states[1]
    assert eigenfunction(st1, s.params, 0.0) == 0.0


def test_eigenfunction_parity(spectrum_of):
    s = spectrum_of(5.0)
    for st_ in s.states[:4]:
        vp = eigenfunction(st_, s.params, 0.9)
        vm = eigenfunction(st_, s.params, -0.9)
        assert vm == pytest.approx((-1.0) ** st_.m * vp, rel=1e-12)


def test_eigenfunction_exponential_tail(spectrum_of):
    s = spectrum_of(1.0)
    st0 = s.states[0]
    vals = [eigenfunction(st0, s.params, x) * math.exp(st0.kappa * x)
            for x in np.linspace(20.0, 30.0, 11)]
    spread = (max(vals) - min(vals)) / abs(vals[0])
    assert spread <= 1e-6


def test_inner_product_opposite_parity_is_zero(spectrum_of):
    s = spectrum_of(5.0)
    assert inner_product(s.states[0], s.states[1], s.params) == 0.0


def test_normalized_diagonals(normalized_spectrum_of):
    s = normalized_spectrum_of(5.0)
    for st_ in s.states:
        val = inner_product(st_, st_, s.params) * st_.norm_const ** 2
        assert val == pytest.approx(1.0, abs=1e-9)


def test_same_parity_orthogonality_g5(normalized_spectrum_of):
    s = normalized_spectrum_of(5.0)
    worst = 0.0
    for i, a in enumerate(s.states):
        for b in s.states[i + 1:]:
            if a.parity != b.parity:
                continue
            ip = inner_product(a, b, s.params) * a.norm_const * b.norm_const
            worst = max(worst, abs(ip))
    assert worst <= 1e-8


def test_norm_scheme_swap_invariance(spectrum_of, monkeypatch):
    s = spectrum_of(5.0)
    st0 = s.states[0]
    a = inner_product(st0, st0, s.params)
    monkeypatch.setattr(bound, "tanh_sinh",
                        lambda f, lo, hi: gauss_geometric(f, hi))
    b = inner_product(st0, st0, s.params)
    assert abs(a - b) <= 1e-8 * abs(a)


def test_weak_binding_norm_route(normalized_spectrum_of):
    # combined order ~ 2 g^2 forces the x-space route with analytic tail
    s = normalized_spectrum_of(0.05)
    st0 = s.states[0]
    val = inner_product(st0, st0, s.params) * st0.norm_const ** 2
    assert val == pytest.approx(1.0, abs=1e-9)


def _lommel_norm(order: float, x: float) -> float:
    """4 * integral_0^x J_nu(t)^2 dt/t, the full-line norm of J(nu, rho(x))
    at x = 2g.  Lommel's integral in the limit mu -> nu (DLMF 10.22) gives
    the integral as (x/2nu) (J dJ'/dnu - J' dJ/dnu); evaluated at 40 digits
    with mpmath's own Bessel functions and numerical order derivatives."""
    with mp.workdps(40):
        nu, x = mp.mpf(order), mp.mpf(x)
        j, dj = mp.besselj(nu, x), mp.besselj(nu, x, 1)
        dj_dnu = mp.diff(lambda n: mp.besselj(n, x), nu)
        ddj_dnu = mp.diff(lambda n: mp.besselj(n, x, 1), nu)
        return float(2 * x / nu * (j * ddj_dnu - dj * dj_dnu))


_J01 = float(jn_zeros(0, 1)[0])
_J11 = float(jn_zeros(1, 1)[0])


@pytest.mark.parametrize("g, m", [
    (0.05, 0),                         # weak route: the ground state
    (_J01 / 2 * (1 + 1e-4), 1),        # weak route: just past the odd threshold
    (_J11 / 2 * (1 + 1e-4), 2),        # weak route: just past an even threshold
    (40.0, 0),                         # nu = 76.6: mass next to rho = 2g
])
def test_norm_against_lommel_closed_form(g, m, spectrum_of):
    s = spectrum_of(g)
    st_ = s.states[m]
    # inner_product takes the x-space route for combined orders below 0.2
    assert (2 * st_.order < 0.2) == (g != 40.0)
    val = inner_product(st_, st_, s.params)
    assert val == pytest.approx(_lommel_norm(st_.order, s.params.x_arg),
                                rel=1e-14)


@pytest.mark.parametrize("g", [0.001, 0.05, 1.0, 5.0, 20.0, 40.0])
def test_closed_form_norm_against_lommel_reference(g, spectrum_of):
    s = normalize(spectrum_of(g))
    for st_ in s.states:
        ref = _lommel_norm(st_.order, s.params.x_arg)
        assert st_.norm_const ** -2 == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("g", [0.05, 5.0, 20.0])
def test_normalize_runs_no_quadrature(g, spectrum_of, monkeypatch):
    def refuse(*args):
        raise AssertionError("normalize called tanh_sinh")

    monkeypatch.setattr(bound, "tanh_sinh", refuse)
    s = normalize(spectrum_of(g))
    assert all(st_.norm_const > 0.0 for st_ in s.states)


def test_orthonormality_row_fails_on_scaled_norm(monkeypatch):
    # the row compares closed-form norms with tanh-sinh overlaps
    exact = specfun._lommel_integral
    monkeypatch.setattr(specfun, "_lommel_integral",
                        lambda nu, x: exact(nu, x) * (1 + 1e-7))
    (row,) = [c for c in run_battery(2.1) if c.name == "orthonormality"]
    assert not row.passed
    assert row.value >= 5e-8


def test_norm_against_numerov_trapezoid(normalized_spectrum_of):
    s = normalized_spectrum_of(1.0)
    st0 = s.states[0]
    params = s.params
    cfg = ShootingConfig(parity="even", kappa_bracket=(0.5, 0.7))
    kappa = numerov_eigenvalue(params, cfg)
    xs, psi = numerov_wavefunction(kappa, params, cfg)
    # scale the oracle solution to match psi(0) of the closed form
    psi = psi * (eigenfunction(st0, params, 0.0) / st0.norm_const / psi[0])
    full_line = 2.0 * np.trapezoid(psi * psi, xs)
    oracle_norm_const = 1.0 / math.sqrt(full_line)
    assert st0.norm_const == pytest.approx(oracle_norm_const, rel=1e-5)


@pytest.mark.parametrize("g", [2.0, 5.0])
def test_node_counts(g, spectrum_of):
    s = spectrum_of(g)
    for st_ in s.states:
        assert count_nodes(st_, s.params) == st_.m
