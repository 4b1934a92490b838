"""Scattering amplitudes: unitarity, the closed-form Wronskian, pole
matching against the spectrum, and the ODE oracle."""

import math

import mpmath as mp
import numpy as np
import pytest

from expwell import (
    PotentialParams,
    amplitudes,
    find_poles,
    transmission_numeric,
    wronskian_identity_residual,
)
from expwell.errors import PoleMismatch
from expwell.scatter import _wronskian_parts


K_GRID = [float(k) for k in np.geomspace(0.1, 5.0, 20)]
G_GRID = [0.5, 1.0, 2.0, 5.0, 10.0]


def test_unitarity_over_grid():
    worst_unit = worst_ortho = 0.0
    for g in G_GRID:
        p = PotentialParams(g)
        for k in K_GRID:
            pt = amplitudes(k, p)
            worst_unit = max(worst_unit, pt.unitarity_residual)
            worst_ortho = max(worst_ortho, pt.ortho_residual)
    assert worst_unit <= 1e-10
    assert worst_ortho <= 1e-10


def test_amplitude_definitions_consistent():
    pt = amplitudes(0.8, PotentialParams(2.0))
    assert pt.r == pytest.approx(pt.B / pt.A, rel=1e-12)
    assert pt.t == pytest.approx(1.0 / pt.A, rel=1e-12)


def test_wronskian_identity_residual_examples():
    # reference magnitude sinh(2 pi k)/(pi g) from the closed form
    p1 = PotentialParams(1.0)
    assert wronskian_identity_residual(0.5, p1) <= 1e-10
    pt = amplitudes(0.5, p1)
    assert abs(pt.W) == pytest.approx(math.sinh(math.pi) / math.pi, rel=1e-11)
    assert wronskian_identity_residual(2.0, PotentialParams(5.0)) <= 1e-9


def test_wronskian_purely_imaginary_on_grid():
    worst = 0.0
    for g in (0.5, 2.0, 10.0):
        p = PotentialParams(g)
        for k in (0.1, 1.0, 5.0):
            pt = amplitudes(k, p)
            worst = max(worst, abs(pt.W.real) / abs(pt.W))
    assert worst <= 1e-11


def test_wronskian_residual_large_momentum_no_overflow():
    # 2 pi k far beyond double exp range; extended precision handles it
    assert wronskian_identity_residual(200.0, PotentialParams(1.0)) <= 1e-9


def test_symmetric_combination_is_real():
    u, du, v, dv, _ = _wronskian_parts(0.9, 2.0)
    s = du * v + dv * u
    assert float(abs(mp.im(s))) / float(abs(s)) <= 1e-11


def test_conjugated_inputs_conjugate_the_amplitudes():
    # rebuilding A, B with the two order branches swapped (the conjugate
    # data set) must conjugate r and t
    k, g = 0.8, 2.0
    u, du, v, dv, w = _wronskian_parts(k, g)
    phase = mp.exp(mp.mpc(0.0, 4.0 * k) * mp.log(mp.mpf(g)))
    a = 2 * phase * dv * v / w
    b = -(du * v + dv * u) / w
    a_sw = 2 * mp.conj(phase) * du * u / (-w)
    b_sw = -(dv * u + du * v) / (-w)
    assert abs(complex(a_sw)) > 0.0
    assert abs(complex(b_sw / a_sw) - complex(b / a).conjugate()) <= 1e-12
    assert abs(complex(1 / a_sw) - complex(1 / a).conjugate()) <= 1e-12


def test_amplitudes_independent_of_caller_precision():
    # all mpmath arithmetic runs at the module's own working precision
    p = PotentialParams(3.0)
    for k in (0.3, 1.3, 4.0):
        ref = amplitudes(k, p)
        with mp.workdps(60):
            assert amplitudes(k, p) == ref


def test_weak_coupling_transparent():
    pt = amplitudes(1.0, PotentialParams(1e-4))
    assert abs(pt.t) ** 2 >= 1.0 - 1e-6
    assert abs(pt.r) ** 2 <= 1e-6


def test_small_momentum_regular():
    pt = amplitudes(1e-3, PotentialParams(1.0))
    assert pt.unitarity_residual <= 1e-10
    assert abs(pt.W) > 0.0


def test_momentum_validation():
    with pytest.raises(ValueError):
        amplitudes(0.0, PotentialParams(1.0))
    with pytest.raises(ValueError):
        amplitudes(-1.0, PotentialParams(1.0))


def test_oracle_transmission_agreement():
    for g, k in ((1.0, 1.0), (5.0, 0.5)):
        pt = amplitudes(k, PotentialParams(g))
        _, t = transmission_numeric(k, PotentialParams(g))
        assert abs(abs(t) ** 2 - abs(pt.t) ** 2) <= 1e-4


def test_poles_single_state_g1(spectrum_of):
    s = spectrum_of(1.0)
    rep = find_poles(PotentialParams(1.0), s)
    assert len(rep.kappa_poles) == 1
    assert rep.parities == ("even",)
    assert rep.kappa_poles[0] == pytest.approx(s.states[0].kappa, abs=1e-6)


def test_poles_bijection_g5(spectrum_of):
    s = spectrum_of(5.0)
    rep = find_poles(PotentialParams(5.0), s)
    assert len(rep.kappa_poles) == s.count
    for kp, par, m in zip(rep.kappa_poles, rep.parities,
                          rep.matched_state_indices):
        st_ = s.states[m]
        assert abs(kp - st_.kappa) <= 1e-6
        assert par == st_.parity


def test_pole_mismatch_detected(spectrum_of):
    import dataclasses

    s = spectrum_of(1.0)
    tampered = dataclasses.replace(s.states[0], kappa=s.states[0].kappa + 0.01)
    bad = dataclasses.replace(s, states=(tampered,))
    with pytest.raises(PoleMismatch):
        find_poles(PotentialParams(1.0), bad)
