"""ODE oracle: Numerov shooting and plane-wave transmission.

These are the Bessel-free reference paths, so they are tested both for
internal consistency (method order, flux conservation) and against the
closed-form results."""

import cmath

import mpmath
import numpy as np
import pytest
from scipy import special

from expwell import (
    BoundState,
    PotentialParams,
    ShootingConfig,
    amplitudes,
    find_spectrum,
    numerov_eigenvalue,
    numerov_wavefunction,
    shooting_kappa,
    transmission_numeric,
)
from expwell import oracle
from expwell.errors import BracketError, ExpwellError
from expwell.verify import run_battery


def _bracket(kappa):
    return (max(kappa - 1e-4, kappa / 2), kappa + 1e-4)


def test_numerov_matches_g1(spectrum_of):
    st0 = spectrum_of(1.0).states[0]
    cfg = ShootingConfig(parity="even", kappa_bracket=(0.5, 0.7))
    assert abs(numerov_eigenvalue(PotentialParams(1.0), cfg) - st0.kappa) <= 1e-8


def test_numerov_full_spectrum_g5(spectrum_of):
    s = spectrum_of(5.0)
    for st_ in s.states:
        cfg = ShootingConfig(parity=st_.parity, kappa_bracket=_bracket(st_.kappa))
        assert abs(numerov_eigenvalue(s.params, cfg) - st_.kappa) <= 1e-7, st_.m


def test_numerov_sweeps_per_state_g5(spectrum_of, monkeypatch):
    s = spectrum_of(5.0)
    calls = []
    sweep = oracle._defect

    def counted(*args):
        calls.append(args[0])
        return sweep(*args)

    monkeypatch.setattr(oracle, "_defect", counted)
    for st_ in s.states:
        calls.clear()
        shooting_kappa(st_, s.params)
        assert len(calls) <= 15, (st_.m, len(calls))


@pytest.mark.parametrize("order", [0, 1], ids=["first_odd", "first_even"])
def test_shooting_near_threshold(order):
    # states appear where J_0 (odd) or J_1 (even) vanishes at 2g
    g = float(special.jn_zeros(order, 1)[0]) / 2.0 * (1.0 + 1e-4)
    params = PotentialParams(g)
    weakest = min(find_spectrum(params).states, key=lambda st_: st_.kappa)
    assert weakest.parity == ("odd" if order == 0 else "even")
    assert weakest.kappa < 1e-3
    kappa = shooting_kappa(weakest, params)
    assert kappa is not None
    assert abs(kappa - weakest.kappa) <= 1e-7


def test_shooting_skips_below_floor():
    st_ = BoundState(m=0, parity="even", kappa=oracle.SHOOTING_KAPPA_MIN / 2,
                     energy=-(oracle.SHOOTING_KAPPA_MIN / 2) ** 2,
                     order=oracle.SHOOTING_KAPPA_MIN)
    assert shooting_kappa(st_, PotentialParams(1e-3)) is None


def test_battery_checks_weakly_bound_ground_state():
    (check,) = [c for c in run_battery(0.05) if c.name == "oracle_eigenvalue_gap"]
    assert not check.skipped
    assert check.passed
    assert check.note == "1 of 1 states"


def test_numerov_step_refinement_order(spectrum_of):
    st0 = spectrum_of(1.0).states[0]
    p = PotentialParams(1.0)
    k_coarse = numerov_eigenvalue(
        p, ShootingConfig(parity="even", kappa_bracket=(0.5, 0.7), h=1e-3))
    k_fine = numerov_eigenvalue(
        p, ShootingConfig(parity="even", kappa_bracket=(0.5, 0.7), h=5e-4))
    assert abs(k_coarse - k_fine) <= 1e-9
    assert abs(k_fine - st0.kappa) <= 1e-9


def test_numerov_bracket_error():
    cfg = ShootingConfig(parity="even", kappa_bracket=(0.8, 0.9))
    with pytest.raises(BracketError):
        numerov_eigenvalue(PotentialParams(1.0), cfg)


def test_shooting_config_validation():
    with pytest.raises(ValueError):
        ShootingConfig(parity="mixed", kappa_bracket=(0.1, 0.2))
    with pytest.raises(ValueError):
        ShootingConfig(parity="even", kappa_bracket=(0.2, 0.1))
    with pytest.raises(ValueError):
        ShootingConfig(parity="even", kappa_bracket=(0.1, 0.2), h=2e-3)


def test_numerov_wave_node_counts(spectrum_of):
    s = spectrum_of(5.0)
    for st_ in s.states[:4]:
        cfg = ShootingConfig(parity=st_.parity,
                             kappa_bracket=_bracket(st_.kappa))
        kappa = numerov_eigenvalue(s.params, cfg)
        xs, psi = numerov_wavefunction(kappa, s.params, cfg)
        interior = psi[(xs > 1e-9) & (xs < xs[-1] - 5.0)]
        sgn = np.sign(interior[np.abs(interior) > 0])
        changes = int(np.sum(sgn[:-1] != sgn[1:]))
        total = 2 * changes + (1 if st_.parity == "odd" else 0)
        assert total == st_.m


def test_numerov_wavefunction_overflow_is_numerical_error():
    # kappa * x_max = 20 * 40.4 > 600: the stored samples would overflow
    cfg = ShootingConfig(parity="even", kappa_bracket=(19.0, 21.0))
    with pytest.raises(ExpwellError):
        numerov_wavefunction(20.0, PotentialParams(25.0), cfg)


def test_transmission_against_closed_form(spectrum_of):
    pt = amplitudes(1.0, PotentialParams(1.0))
    r, t = transmission_numeric(1.0, PotentialParams(1.0))
    assert abs(abs(t) ** 2 - abs(pt.t) ** 2) <= 1e-4
    # complex amplitudes: the closed form's Bessel normalisation differs
    # from plane waves by the common phase chi = 2 arg Gamma(1 + 2ik)
    for g in (0.3, 1.0, 5.0, 20.0):
        params = PotentialParams(g)
        for k in (0.05, 0.5, 1.0, 3.0):
            pt = amplitudes(k, params)
            phase = cmath.exp(2j * float(mpmath.loggamma(1 + 2j * k).imag))
            r, t = transmission_numeric(k, params)
            assert abs(r - pt.r * phase) <= 1e-7, (g, k)
            assert abs(t - pt.t * phase) <= 1e-7, (g, k)


def test_transmission_flux_conservation():
    r, t = transmission_numeric(0.7, PotentialParams(2.0))
    assert abs(abs(r) ** 2 + abs(t) ** 2 - 1.0) <= 1e-6


def test_transmission_vanishing_potential():
    r, t = transmission_numeric(1.0, PotentialParams(1e-4))
    assert abs(t) ** 2 >= 1.0 - 1e-6
    assert abs(r) ** 2 <= 1e-6


def test_transmission_validation():
    with pytest.raises(ValueError):
        transmission_numeric(0.0, PotentialParams(1.0))
