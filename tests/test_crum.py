"""Associated-Hamiltonian hierarchy.

The load-bearing checks are independent of the reduction implemented in
the package: Wronskians are re-derived by finite differences of the
eigenfunctions themselves (x side) and of the Bessel kernels (rho side),
and eigenfunction claims are checked through the eigen-equation residual
with the potential built by the determinant route."""

import dataclasses

import mpmath as mp
import numpy as np
import pytest

from expwell import (
    PotentialParams,
    associated_eigenfunction,
    associated_orthogonality_residuals,
    associated_potential,
    bessel_j,
    bessel_j_dn,
    build_crum_system,
    crum_wronskian_x,
    eigen_equation_residual,
    eigenfunction,
    origin_continuity_residual,
    potential,
    rho,
    shape_invariance_residual,
    v1_closed_form,
    wronskian_bessel,
)
from expwell import bound, crum, specfun
from expwell.crum import fit_exponential_family
from expwell.errors import UndefinedAtOrigin
from expwell.quadrature import gauss_geometric
from expwell.verify import run_battery


def test_wronskian_single_order_is_j():
    assert wronskian_bessel([0.7], 1.3) == pytest.approx(bessel_j(0.7, 1.3),
                                                         rel=1e-14)


def test_wronskian_antisymmetry():
    a = wronskian_bessel([1.1, 2.3], 1.3)
    b = wronskian_bessel([2.3, 1.1], 1.3)
    assert a == pytest.approx(-b, rel=1e-13)


def test_wronskian_distinct_orders_required():
    with pytest.raises(ValueError):
        wronskian_bessel([1.1, 1.1], 1.0)


def test_wronskian_two_orders_against_finite_difference():
    # W[J_a, J_b] = J_a J_b' - J_a' J_b with Richardson derivatives of J
    a, b, r, h = 0.9, 2.4, 2.0, 1e-4

    def dj(nu):
        d1 = (bessel_j(nu, r + h) - bessel_j(nu, r - h)) / (2 * h)
        d2 = (bessel_j(nu, r + h / 2) - bessel_j(nu, r - h / 2)) / h
        return (4 * d2 - d1) / 3

    fd = bessel_j(a, r) * dj(b) - dj(a) * bessel_j(b, r)
    assert abs(wronskian_bessel([a, b], r) - fd) <= 1e-7


def test_gauge_identity_with_rho_multiplier():
    # W[g f1, g f2] = g^2 W[f1, f2] for g(rho) = rho
    a, b, r = 1.2, 3.1, 2.7
    ja, jb = bessel_j(a, r), bessel_j(b, r)
    dja, djb = bessel_j_dn(a, r, 1), bessel_j_dn(b, r, 1)
    lhs = (r * ja) * (jb + r * djb) - (ja + r * dja) * (r * jb)
    rhs = r ** 2 * wronskian_bessel([a, b], r)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def _cofactor_det(a):
    if len(a) == 1:
        return a[0][0]
    return mp.fsum((-1) ** j * a[0][j]
                   * _cofactor_det([row[:j] + row[j + 1:] for row in a[1:]])
                   for j in range(len(a)))


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_determinant_against_mpmath_cofactor_expansion(size):
    # independent route: mpmath's own derivatives of J and a Laplace
    # expansion in place of the column recurrence and the elimination
    orders = (0.37, 1.83, 2.61, 4.29)[:size]
    for r in (0.9, 3.7, 7.2):
        for rows in (tuple(range(size)), tuple(range(size - 1)) + (size,)):
            with mp.workdps(60):
                ref = _cofactor_det([[mp.besselj(nu, r, d) for nu in orders]
                                     for d in rows])
            got = crum._wronskian_det_mp(orders, rows, r)
            assert abs(got - ref) <= 1e-14 * abs(ref), (rows, r)


def test_determinant_builds_one_column_per_order(monkeypatch):
    calls = []
    column = specfun.bessel_j_derivs_mp

    def counted(nu, x, n):
        calls.append(nu)
        return column(nu, x, n)

    monkeypatch.setattr(specfun, "bessel_j_derivs_mp", counted)
    crum._wronskian_det_mp.cache_clear()
    crum._wronskian_det_mp((0.41, 1.57, 2.93, 3.38), (0, 1, 2, 3), 2.3)
    assert len(calls) == 4


def test_crum_wronskian_no_extra_is_ground_state(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    for x in (0.6, -1.4):
        assert crum_wronskian_x(s.states[:1], x, p) == pytest.approx(
            eigenfunction(s.states[0], p, x), rel=1e-12)


def test_crum_wronskian_matches_displayed_reduction_even_border(spectrum_of):
    # for even bordered index the displayed prefactor
    # (sign(-x))^(1+n) (rho/2) W[J,J] is the actual Wronskian
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    n = 2
    for x in (0.8, -0.8):
        r = rho(x, 5.0)
        displayed = ((-1.0 if x > 0 else 1.0) ** (1 + n)) * (r / 2.0) * \
            wronskian_bessel([s.states[0].order, s.states[n].order], r)
        got = crum_wronskian_x(s.states[:1], x, p, extra=s.states[n])
        assert got == pytest.approx(displayed, rel=1e-11)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_crum_wronskian_against_x_space_finite_difference(n, spectrum_of):
    # independent route: W[psi_0, psi_n](x) from the eigenfunctions
    # themselves, derivatives by Richardson central differences
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    x, h = 0.7, 1e-4

    def dpsi(st_, x0):
        d1 = (eigenfunction(st_, p, x0 + h) - eigenfunction(st_, p, x0 - h)) / (2 * h)
        d2 = (eigenfunction(st_, p, x0 + h / 2) - eigenfunction(st_, p, x0 - h / 2)) / h
        return (4 * d2 - d1) / 3

    for x0 in (x, -x):
        fd = (eigenfunction(s.states[0], p, x0) * dpsi(s.states[n], x0)
              - dpsi(s.states[0], x0) * eigenfunction(s.states[n], p, x0))
        got = crum_wronskian_x(s.states[:1], x0, p, extra=s.states[n])
        assert got == pytest.approx(fd, rel=1e-7), (n, x0)


def test_crum_wronskian_parity_L2(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    for n in (2, 3, 4):
        vp = crum_wronskian_x(s.states[:2], 0.7, p, extra=s.states[n])
        vm = crum_wronskian_x(s.states[:2], -0.7, p, extra=s.states[n])
        assert vm == pytest.approx((-1.0) ** (2 + n) * vp, rel=1e-10)


def test_seed_wronskian_is_even(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    for L in (1, 2, 3):
        vp = crum_wronskian_x(s.states[:L], 1.1, p)
        vm = crum_wronskian_x(s.states[:L], -1.1, p)
        assert vm == pytest.approx(vp, rel=1e-12)


def test_crum_wronskian_independent_of_caller_precision(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    cases = [(s.states[:3], 1.3, None), (s.states[:3], 1.3, s.states[3]),
             (s.states[:1], 0.0, s.states[1])]
    ref = [crum_wronskian_x(seeds, x, p, extra=e) for seeds, x, e in cases]
    with mp.workdps(60):
        got = [crum_wronskian_x(seeds, x, p, extra=e) for seeds, x, e in cases]
    assert got == ref


def test_potential_closed_form_vs_determinant(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    for x in (0.4, 1.0, 2.5, 6.0):
        assert abs(associated_potential(1, p, s, x)
                   - v1_closed_form(p, s, x)) <= 1e-9


def test_battery_crum_gap_fails_on_perturbed_derivative(monkeypatch):
    # the determinant route takes J' from the series entry, the closed form
    # from the order recurrence: a J' off by 1e-9 must show in the gap
    exact = specfun._series_cached

    def perturbed(nu_re, nu_im, x):
        val = exact(nu_re, nu_im, x)
        return val[0], val[1] * (1 + 1e-9)

    monkeypatch.setattr(specfun, "_series_cached", perturbed)
    crum._wronskian_det_mp.cache_clear()
    try:
        (row,) = [c for c in run_battery(2.1)
                  if c.name == "crum_potential_closed_form_gap"]
    finally:
        # determinants built from perturbed values must not outlive the test
        crum._wronskian_det_mp.cache_clear()
    assert not row.passed
    assert row.value >= 2e-9


def test_potential_parity(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    for L in (1, 2):
        assert associated_potential(L, p, s, 1.1) == pytest.approx(
            associated_potential(L, p, s, -1.1), rel=1e-12)


def test_potential_tail_vanishes(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    for L in (1, 2):
        assert abs(associated_potential(L, p, s, 40.0)) <= 1e-8


def test_potential_level_zero_is_base_potential(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    assert associated_potential(0, p, s, 1.3) == pytest.approx(
        potential(1.3, p), rel=1e-14)


def test_potential_origin_symmetric_limit(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    v0 = associated_potential(1, p, s, 0.0)
    assert v0 == pytest.approx(associated_potential(1, p, s, 1e-6), rel=1e-9)


def test_potential_insufficient_states(spectrum_of):
    s1 = spectrum_of(1.0)
    with pytest.raises(ValueError):
        associated_potential(2, PotentialParams(1.0), s1, 0.5)


def test_eigenfunction_parity_relation(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    for L in (1, 2):
        for n in range(L, min(s.count, L + 3)):
            vp = associated_eigenfunction(L, n, p, s, 0.9)
            vm = associated_eigenfunction(L, n, p, s, -0.9)
            assert vm == pytest.approx((-1.0) ** (L + n) * vp, rel=1e-10), (L, n)


def test_eigenfunction_odd_level_combination_vanishes_at_origin(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    assert associated_eigenfunction(1, 2, p, s, 0.0) == 0.0


def test_level1_ground_state_nodeless(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    vals = [associated_eigenfunction(1, 1, p, s, float(x))
            for x in np.linspace(0.05, 12.0, 200)]
    signs = np.sign(vals)
    assert int(np.sum(signs[:-1] != signs[1:])) == 0


@pytest.mark.parametrize("level,n", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_eigen_equation_residual(level, n, spectrum_of):
    s = spectrum_of(5.0)
    assert eigen_equation_residual(level, n, PotentialParams(5.0), s) <= 1e-6


def test_origin_continuity(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    for L, n in ((1, 1), (1, 2), (2, 2), (2, 3)):
        assert origin_continuity_residual(L, n, p, s) <= 1e-8, (L, n)


def test_residual_steps_scale_with_g(spectrum_of):
    # fixed steps read 1.23e-6 (eigen) and 1.88e-8 (origin) here
    s = spectrum_of(40.0)
    p = PotentialParams(40.0)
    assert eigen_equation_residual(1, 1, p, s) <= 1e-6
    assert max(origin_continuity_residual(1, n, p, s) for n in (1, 2)) <= 1e-8
    states = list(s.states)
    states[1] = dataclasses.replace(states[1],
                                    energy=states[1].energy * (1 + 1e-8))
    wrong = dataclasses.replace(s, states=tuple(states))
    assert eigen_equation_residual(1, 1, p, wrong) > 1e-6


def test_level_index_validation(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    with pytest.raises(ValueError):
        associated_eigenfunction(2, 1, p, s, 0.5)
    with pytest.raises(ValueError):
        associated_eigenfunction(1, 99, p, s, 0.5)


def test_orthogonality_residuals_L1(spectrum_of):
    s = spectrum_of(5.0)
    res = associated_orthogonality_residuals(1, PotentialParams(5.0), s)
    assert res, "expected same-parity pairs at g = 5"
    assert max(res.values()) <= 1e-7


def test_orthogonality_reduces_to_base_at_L0(spectrum_of):
    s = spectrum_of(5.0)
    res = associated_orthogonality_residuals(
        0, PotentialParams(5.0), s, pairs=[(0, 2), (1, 3), (2, 4)])
    assert max(res.values()) <= 1e-8


def test_orthogonality_dual_scheme_cross_check(spectrum_of, monkeypatch):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    pair = [(1, 3)]
    r1 = associated_orthogonality_residuals(1, p, s, pairs=pair)
    monkeypatch.setattr(crum, "tanh_sinh",
                        lambda f, lo, hi: gauss_geometric(f, hi))
    r2 = associated_orthogonality_residuals(1, p, s, pairs=pair)
    assert abs(r1[(1, 3)] - r2[(1, 3)]) <= 1e-8


@pytest.mark.parametrize("g, level", [(4.7, 1), (4.7, 2), (8.0, 3)])
def test_closed_diagonal_against_quadrature(g, level, spectrum_of):
    s = spectrum_of(g)
    p = PotentialParams(g)
    for n in range(level, level + 3):
        # the overlap is integrated divided by the closed-form diagonals
        assert abs(crum._overlap_integral(level, n, n, p, s) - 1.0) <= 1e-13


def test_orthogonality_residual_L4_at_g12(spectrum_of):
    # the off-diagonal integrand is as large as the diagonals (6e6-2e8)
    # here; unscaled, tanh-sinh could not meet its absolute tolerance
    s = spectrum_of(12.0)
    res = associated_orthogonality_residuals(4, PotentialParams(12.0), s,
                                             pairs=[(4, 6)])
    assert res[(4, 6)] <= 1e-12


def _norm_identity_row(g):
    (row,) = [c for c in run_battery(g) if c.name == "crum_norm_identity"]
    return row


def test_battery_crum_norm_identity_row():
    row = _norm_identity_row(2.1)
    assert row.passed and row.value <= 1e-14
    # one bound state; a second one too weakly bound for the rho quadrature
    assert _norm_identity_row(1.0).skipped
    assert _norm_identity_row(1.21).skipped


def test_battery_crum_norm_identity_fails_on_perturbed_energy(monkeypatch):
    exact = bound.find_spectrum

    def perturbed(params, tol=1e-12):
        s = exact(params, tol)
        s0 = dataclasses.replace(s.states[0],
                                 energy=s.states[0].energy * (1 + 1e-9))
        return dataclasses.replace(s, states=(s0,) + s.states[1:])

    monkeypatch.setattr(bound, "find_spectrum", perturbed)
    row = _norm_identity_row(2.1)
    assert not row.passed
    assert row.value >= 1e-9


def test_battery_crum_norm_identity_fails_on_perturbed_norm(monkeypatch):
    exact = specfun._lommel_integral
    monkeypatch.setattr(specfun, "_lommel_integral",
                        lambda nu, x: exact(nu, x) * (1 + 1e-9))
    row = _norm_identity_row(2.1)
    assert not row.passed
    assert row.value >= 5e-10


def _crum_orthogonality_row(g):
    (row,) = [c for c in run_battery(g)
              if c.name == "crum_orthogonality_residual"]
    return row


def test_battery_crum_orthogonality_row():
    row = _crum_orthogonality_row(5.0)
    assert not row.skipped and row.passed


def test_battery_crum_orthogonality_fails_on_perturbed_state(monkeypatch):
    exact = bound.find_spectrum
    eps = 1e-6

    def perturbed(params, tol=1e-12):
        s = exact(params, tol)
        s3 = s.states[3]
        s3 = dataclasses.replace(s3, kappa=s3.kappa * (1 + eps),
                                 order=s3.order * (1 + eps),
                                 energy=s3.energy * (1 + eps) ** 2)
        return dataclasses.replace(s, states=s.states[:3] + (s3,)
                                   + s.states[4:])

    monkeypatch.setattr(bound, "find_spectrum", perturbed)
    crum._wronskian_det_mp.cache_clear()
    try:
        row = _crum_orthogonality_row(5.0)
    finally:
        # determinants built from perturbed orders must not outlive the test
        crum._wronskian_det_mp.cache_clear()
    assert not row.passed
    assert row.value >= 1e-6


def test_wronskian_composition_identity(spectrum_of):
    # W[W[f..., g], W[f..., h]] = W[f...] W[f..., g, h] with Bessel rows
    import random

    from expwell.crum import _wronskian_det_mp

    s = spectrum_of(8.0)
    nus = [st.order for st in s.states]
    rng = random.Random(2016)
    for n_seeds in (1, 2):
        seeds = tuple(nus[:n_seeds])
        ga, hb = nus[n_seeds], nus[n_seeds + 1]
        for _ in range(10):
            r = rng.uniform(0.5, 15.9)
            rows = tuple(range(n_seeds + 1))
            a_val = float(_wronskian_det_mp(seeds + (ga,), rows, r))
            b_val = float(_wronskian_det_mp(seeds + (hb,), rows, r))
            raised = tuple(range(n_seeds)) + (n_seeds + 1,)
            da = float(_wronskian_det_mp(seeds + (ga,), raised, r))
            db = float(_wronskian_det_mp(seeds + (hb,), raised, r))
            lhs = a_val * db - da * b_val
            ws = float(_wronskian_det_mp(seeds, tuple(range(n_seeds)), r))
            big = float(_wronskian_det_mp(seeds + (ga, hb),
                                          tuple(range(n_seeds + 2)), r))
            rhs = ws * big
            scale = max(abs(lhs), abs(rhs), 1e-280)
            assert abs(lhs - rhs) / scale <= 1e-7, (n_seeds, r)


def test_shape_invariance_witness(spectrum_of):
    for g in (1.0, 5.0):
        s = spectrum_of(g)
        assert shape_invariance_residual(PotentialParams(g), s) > 1e-3


def test_base_potential_fits_its_own_family():
    p = PotentialParams(5.0)
    xs = np.linspace(0.0, 10.0, 201)
    vals = np.array([potential(float(x), p) for x in xs])
    f_sq, c, rel = fit_exponential_family(xs, vals)
    assert rel <= 1e-12
    assert f_sq == pytest.approx(25.0, rel=1e-10)
    assert abs(c) <= 1e-10


def test_undefined_at_origin_detection(spectrum_of):
    # tampering the bordered state's order breaks the boundary condition
    # that makes the odd combination continuous at the origin
    import dataclasses

    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    bad = dataclasses.replace(s.states[2], order=s.states[2].order + 0.2)
    with pytest.raises(UndefinedAtOrigin):
        crum_wronskian_x(s.states[:1], 0.0, p, extra=bad)


def test_build_crum_system_grid(spectrum_of):
    s = spectrum_of(5.0)
    p = PotentialParams(5.0)
    xs = np.linspace(-6.0, 6.0, 41)
    sys_ = build_crum_system(1, p, s, xs, n_states=2)
    assert sys_.V_L.shape == xs.shape
    assert set(sys_.psi_L) == {1, 2}
    np.testing.assert_allclose(sys_.V_L, sys_.V_L[::-1], rtol=1e-11)
