"""Bessel-free cross-checks by direct ODE integration.

Every solution is one half-line piece matched at the origin, as in the
paper: a fourth-order Numerov sweep of psi'' = (V - E) psi from a far
cutoff inward to x = 0, never across the kink of V there.  Bound states
start from the decaying e^(-kappa x), and a bracketing false-position
search drives the origin defect (psi' for even parity, psi for odd) to
zero in kappa.  Scattering starts from the transmitted wave e^(ikx);
since V is even, r and t follow from psi(0) and psi'(0) alone.

Nothing here touches the Bessel kernels, which is the point: agreement
with the closed-form spectra and amplitudes is evidence for both.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bound import BoundState, PotentialParams
from .errors import BracketError, NonFiniteValueError

__all__ = [
    "SHOOTING_KAPPA_MIN",
    "ShootingConfig",
    "numerov_eigenvalue",
    "numerov_wavefunction",
    "shooting_kappa",
    "transmission_numeric",
]

# weakest binding that verify and `spectrum --verify` check against the
# oracle.  Shooting meets their absolute 1e-7 gap gate further down (probes
# near the thresholds down to kappa ~ 1e-7 stay within 4e-8), but below
# this the gate is over a fifth of kappa and would pass a visibly wrong one
SHOOTING_KAPPA_MIN = 5e-7

# Numerov step of the scattering sweep; shooting takes it from ShootingConfig
_STEP = 1e-3

# eigenvalue search stops at this bracket width, below the error of a
# sweep with h = 1e-3 against the closed form (up to ~1e-9)
_KAPPA_XTOL = 1e-10


@dataclass(frozen=True)
class ShootingConfig:
    """Inward-shooting setup; bracket endpoints must straddle the defect zero."""

    parity: str
    kappa_bracket: tuple[float, float]
    h: float = _STEP

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if not (0.0 < self.h <= 1e-3):
            raise ValueError("step size h must satisfy 0 < h <= 1e-3")
        lo, hi = self.kappa_bracket
        if not (0.0 < lo < hi):
            raise ValueError(f"invalid kappa bracket {self.kappa_bracket}")


def _sweep(e0: float, g: float, h: float, n: int, p0, p1, out=None):
    """Integrate psi'' = (e0 - g^2 e^(-x)) psi inward from x = n h to 0.

    p0, p1 are psi at x = n h and (n - 1) h, real or complex.  Numerov runs
    in summed form, z = (1 - h^2 f/12) psi, d += h^2 f psi, z += d, which
    keeps h^2 f/12 where the three-term form (12 - 10w) psi rounds it away
    below 1e-16 of 1.  Returns psi(0) and psi'(0) (one-sided five-point
    stencil).  With ``out`` the samples are stored from x = n h down to 0;
    without it, growth is rescaled away by a common factor.
    """
    hh = h * h
    c = hh / 12.0
    gg = g * g
    f = e0 - gg * math.exp(-n * h)
    z = (1.0 - c * f) * p0
    f = e0 - gg * math.exp(-(n - 1) * h)
    d = (1.0 - c * f) * p1 - z
    z += d
    psi = p1
    # psi at x = 4h, 3h, 2h, h once the sweep ends
    q4 = q3 = q2 = q1 = p0
    if out is not None:
        out[0] = p0
        out[1] = p1
    for j in range(n - 2, -1, -1):
        d += hh * f * psi
        z += d
        f = e0 - gg * math.exp(-j * h)
        q4, q3, q2, q1 = q3, q2, q1, psi
        psi = z / (1.0 - c * f)
        if out is not None:
            out[n - j] = psi
        elif abs(psi) > 1e250:
            z *= 1e-250
            d *= 1e-250
            psi *= 1e-250
            q4, q3, q2, q1 = q4 * 1e-250, q3 * 1e-250, q2 * 1e-250, q1 * 1e-250
    slope = (-25.0 * psi + 48.0 * q1 - 36.0 * q2 + 16.0 * q3 - 3.0 * q4) / (12.0 * h)
    return psi, slope


def _grid_size(kappa: float, g: float, h: float) -> int:
    """Steps from the cutoff to the origin.

    The inward start e^(-kappa x) solves the free equation, so at the
    cutoff it carries an admixture of the growing solution of order
    V(x_max)/kappa^2 = g^2 e^(-x_max)/kappa^2.  Integrating inward damps
    that admixture only by e^(-2 kappa x_max), which is close to 1 for a
    weakly bound state, so a cutoff scaled with 1/kappa buys nothing
    there.  The cutoff instead ends the grid where the potential is
    negligible, g^2 e^(-x_max)/kappa^2 = e^(-40), which bounds the
    admixture directly, and never before x = 40.  The scattering start
    e^(ikx) is bounded the same way with k in place of kappa.
    """
    x_max = max(40.0, math.log(g * g / (kappa * kappa)) + 40.0)
    return int(math.ceil(x_max / h))


def _defect(kappa: float, params: PotentialParams, cfg: ShootingConfig) -> float:
    """Origin defect of one sweep, psi' (even) or psi (odd), over
    |psi(0)| + |psi(h)|, which never both vanish."""
    n = _grid_size(kappa, params.g, cfg.h)
    psi, slope = _sweep(kappa * kappa, params.g, cfg.h, n,
                        1.0, math.exp(kappa * cfg.h))
    norm = abs(psi) + abs(psi + cfg.h * slope)
    return (slope if cfg.parity == "even" else psi) / norm


def numerov_eigenvalue(params: PotentialParams, cfg: ShootingConfig) -> float:
    """Zero of the shooting defect inside the configured bracket.

    False position, bisecting whenever two steps in a row fail to halve
    the bracket, down to a width of _KAPPA_XTOL.  Points stay _KAPPA_XTOL/4
    inside the bracket, so a one-sided approach ends by stepping across.
    """
    lo, hi = cfg.kappa_bracket
    f_lo, f_hi = _defect(lo, params, cfg), _defect(hi, params, cfg)
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketError(
            f"defect has equal signs at bracket {cfg.kappa_bracket}: "
            f"{f_lo:.3e}, {f_hi:.3e}"
        )
    slow = 0
    while hi - lo > _KAPPA_XTOL:
        width = hi - lo
        if slow >= 2:
            kappa, slow = 0.5 * (lo + hi), 0
        else:
            kappa = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            kappa = min(max(kappa, lo + 0.25 * _KAPPA_XTOL), hi - 0.25 * _KAPPA_XTOL)
        f = _defect(kappa, params, cfg)
        if f == 0.0:
            return kappa
        if (f < 0.0) == (f_lo < 0.0):
            lo, f_lo = kappa, f
        else:
            hi, f_hi = kappa, f
        slow = slow + 1 if hi - lo > 0.5 * width else 0
    return 0.5 * (lo + hi)


def shooting_kappa(state: BoundState, params: PotentialParams) -> float | None:
    """The state's kappa re-derived by Numerov shooting, with no Bessel call.

    The bracket spans 1e-4 either side of the closed-form kappa, clamped
    to stay above kappa/2.  Returns None for a state bound more weakly
    than SHOOTING_KAPPA_MIN, which the oracle does not check.
    """
    if state.kappa < SHOOTING_KAPPA_MIN:
        return None
    cfg = ShootingConfig(
        parity=state.parity,
        kappa_bracket=(max(state.kappa - 1e-4, state.kappa / 2),
                       state.kappa + 1e-4))
    return numerov_eigenvalue(params, cfg)


def numerov_wavefunction(kappa: float, params: PotentialParams,
                         cfg: ShootingConfig):
    """Samples of the shooting solution on x = 0..x_max (ascending).

    Unnormalized; intended for node counting and norm cross-checks at a
    converged kappa.
    """
    n = _grid_size(kappa, params.g, cfg.h)
    if kappa * n * cfg.h > 600.0:
        raise NonFiniteValueError(
            f"stored sweep would overflow: kappa * x_max = {kappa * n * cfg.h:.0f}")
    out = np.empty(n + 1)
    _sweep(kappa * kappa, params.g, cfg.h, n, 1.0, math.exp(kappa * cfg.h), out)
    xs = cfg.h * np.arange(n + 1)
    return xs, out[::-1].copy()


def transmission_numeric(k: float, params: PotentialParams):
    """Reflection and transmission amplitudes from one half-line sweep.

    u starts as e^(ikx) at the cutoff and is swept in to x = 0.  A wave
    incident from the left is t u(x) for x > 0 and conj(u(-x)) + r u(-x)
    for x < 0, since V is even; continuity of psi and psi' at the origin
    gives t - r = a and t + r = -b, with a = conj(u(0))/u(0) and
    b = conj(u'(0))/u'(0).  Returns (r, t).
    """
    if k <= 0.0:
        raise ValueError("momentum k must be positive")
    n = _grid_size(k, params.g, _STEP)
    u, slope = _sweep(-k * k, params.g, _STEP, n, cmath.exp(1j * k * n * _STEP),
                      cmath.exp(1j * k * (n - 1) * _STEP))
    a = u.conjugate() / u
    b = slope.conjugate() / slope
    return -0.5 * (a + b), 0.5 * (a - b)
