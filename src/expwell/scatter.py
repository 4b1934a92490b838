"""Reflection and transmission amplitudes at energy E = k^2.

The scattering solution is assembled from Bessel functions of purely
imaginary order +-2ik evaluated at the fixed argument 2g.  Matching the
value and slope at the origin gives a 2x2 linear system whose
determinant is the cross-product Wronskian

    W = J(2ik) J'(-2ik) - J'(2ik) J(-2ik) = -i sinh(2 pi k) / (pi g),

purely imaginary and nonzero for every k > 0, so the system is never
degenerate.  Amplitudes follow as t = 1/A, r = B/A.  Continuing k to
the positive imaginary axis turns A's numerator into
J'(2 kappa, 2g) J(2 kappa, 2g), whose zeros reproduce the bound-state
quantization conditions factor by factor: find_poles lists them, each
with its factor, and matches them to a spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from . import specfun
from .bound import PotentialParams, Spectrum, find_spectrum
from .errors import DegenerateWronskian, PoleMismatch

__all__ = [
    "ScatterPoint",
    "PoleReport",
    "amplitudes",
    "wronskian_identity_residual",
    "find_poles",
]


@dataclass(frozen=True)
class ScatterPoint:
    """Amplitudes and diagnostics at one momentum."""

    k: float
    A: complex
    B: complex
    r: complex
    t: complex
    W: complex
    unitarity_residual: float   # | |r|^2 + |t|^2 - 1 |
    ortho_residual: float       # | Re(r conj(t)) |


@dataclass(frozen=True)
class PoleReport:
    """Amplitude poles on the positive imaginary momentum axis."""

    kappa_poles: tuple[float, ...]
    parities: tuple[str, ...]               # factor that vanished per pole
    matched_state_indices: tuple[int, ...]  # aligned bound-state index m


def _parts_dps(k: float, g: float) -> int:
    return specfun.working_dps(2j * k, 2.0 * g) + 5


def _wronskian_parts(k: float, g: float):
    """u = J(2ik, 2g), du = J'(2ik, 2g), their conjugates, and W (mpmath)."""
    x = 2.0 * g
    with specfun.MP_LOCK, mp.workdps(_parts_dps(k, g)):
        u, du = specfun.bessel_j_derivs_mp(2j * k, x, 1)
        v = mp.conj(u)       # J(-2ik, 2g), exact by conjugation symmetry
        dv = mp.conj(du)
        w = u * dv - du * v
        return u, du, v, dv, w


def amplitudes(k: float, params: PotentialParams) -> ScatterPoint:
    """Solve the origin-matching system at momentum k.

    The only phase convention is the principal real logarithm in
    g^(4ik) = exp(4ik ln g).
    """
    if k <= 0.0:
        raise ValueError("momentum k must be positive")
    g = params.g
    with specfun.MP_LOCK, mp.workdps(_parts_dps(k, g)):
        u, du, v, dv, w = _wronskian_parts(k, g)
        if abs(w) < 1e-14:
            raise DegenerateWronskian(f"|W| = {float(abs(w)):.3e} at k = {k}")
        phase = mp.exp(mp.mpc(0.0, 4.0 * k) * mp.log(mp.mpf(g)))
        a_amp = 2 * phase * dv * v / w
        b_amp = -(du * v + dv * u) / w
        a_c, b_c = complex(a_amp), complex(b_amp)
        r_c, t_c = complex(b_amp / a_amp), complex(1 / a_amp)
        w_c = complex(w)
    unit = abs(abs(r_c) ** 2 + abs(t_c) ** 2 - 1.0)
    ortho = abs((r_c * t_c.conjugate()).real)
    return ScatterPoint(k=k, A=a_c, B=b_c, r=r_c, t=t_c, W=w_c,
                        unitarity_residual=unit, ortho_residual=ortho)


def wronskian_identity_residual(k: float, params: PotentialParams) -> float:
    """Relative deviation of the computed W from -i sinh(2 pi k)/(pi g).

    Evaluated in extended precision, so large 2 pi k cannot overflow.
    """
    if k <= 0.0:
        raise ValueError("momentum k must be positive")
    g = params.g
    *_, w = _wronskian_parts(k, g)
    with specfun.MP_LOCK, mp.workdps(30 + int(2.8 * k)):
        closed = mp.mpc(0, -1) * mp.sinh(2 * mp.pi * mp.mpf(k)) / (mp.pi * mp.mpf(g))
        return float(abs(w - closed) / abs(closed))


def find_poles(params: PotentialParams, spectrum: Spectrum) -> PoleReport:
    """Zeros of J'(2 kappa, 2g) * J(2 kappa, 2g) on kappa in (0, g).

    The product is the continued numerator of A with the pure scale
    factor removed, so its zeros are those of its two factors, the two
    quantization conditions.  They are found by the same order-root
    engine as find_spectrum's, run here on its own; each zero's parity
    is the factor it is a zero of (J' <-> even, J <-> odd).  Each must
    match a bound state within 1e-6, parity included; otherwise
    PoleMismatch is raised.  Nothing is taken from the spectrum it is
    matched against, but as both sides come from one engine, a match
    checks the matching and not a second route.
    """
    poles = find_spectrum(params).states
    states = spectrum.states
    if len(poles) != len(states):
        raise PoleMismatch(
            f"{len(poles)} poles vs {len(states)} bound states at g = {params.g}"
        )
    for p, s in zip(poles, states):
        if abs(p.kappa - s.kappa) > 1e-6 or p.parity != s.parity:
            raise PoleMismatch(
                f"pole {p.kappa} ({p.parity}) does not match state m={s.m} "
                f"(kappa={s.kappa}, {s.parity})"
            )
    return PoleReport(kappa_poles=tuple(p.kappa for p in poles),
                      parities=tuple(p.parity for p in poles),
                      matched_state_indices=tuple(s.m for s in states))
