"""Bessel-free cross-checks by direct ODE integration.

Bound states: fourth-order Numerov integration of -psi'' + V psi =
-kappa^2 psi from a far cutoff inward with a decaying start; the
matching defect at the origin (psi' for even parity, psi for odd) is
driven to zero in kappa by Brent's method.  Scattering: the complex
second-order ODE is integrated right-to-left with an adaptive RK45
stepper and projected onto plane waves to extract the
transmitted/reflected amplitudes.

Nothing here touches the Bessel kernels, which is the point: agreement
with the closed-form spectra and amplitudes is evidence for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .bound import BoundState, PotentialParams
from .errors import BracketError, StepSizeUnderflow

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

# cutoff of the scattering integration, where g^2 e^(-x) has fallen by e^40
TRANSMISSION_X_MAX = 40.0


@dataclass(frozen=True)
class ShootingConfig:
    """Inward-shooting setup; bracket endpoints must straddle the defect zero."""

    parity: str
    kappa_bracket: tuple[float, float]
    h: float = 1e-3

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if not (0.0 < self.h <= 1e-3):
            raise ValueError("step size h must satisfy 0 < h <= 1e-3")
        lo, hi = self.kappa_bracket
        if not (0.0 < lo < hi):
            raise ValueError(f"invalid kappa bracket {self.kappa_bracket}")


def _numerov_sweep(kappa: float, g: float, h: float, n: int, even: bool,
                   keep: bool, out: np.ndarray) -> float:
    """Integrate inward over n steps ending exactly at x = 0.

    Returns the origin defect normalized by the local solution scale.
    When ``keep`` is set the (rescaled) samples are stored in ``out``
    ordered from x = x_max down to 0.
    """
    xmax = n * h
    c = h * h / 12.0
    # w_i = 1 - c * f(x_i), f = kappa^2 - g^2 e^(-x), x decreasing
    x = xmax
    f0 = kappa * kappa - g * g * math.exp(-x)
    x1 = xmax - h
    f1 = kappa * kappa - g * g * math.exp(-x1)
    p0 = 1.0
    p1 = math.exp(kappa * h)
    w0 = 1.0 - c * f0
    w1 = 1.0 - c * f1
    if keep:
        out[0] = p0
        out[1] = p1
    p2 = p1
    pm3 = 0.0
    pm4 = 0.0
    pm2 = p0
    for i in range(1, n):
        x2 = xmax - (i + 1) * h
        f2 = kappa * kappa - g * g * math.exp(-x2)
        w2 = 1.0 - c * f2
        p2 = ((12.0 - 10.0 * w1) * p1 - w0 * p0) / w2
        pm4 = pm3
        pm3 = pm2
        pm2 = p0
        p0, w0 = p1, w1
        p1, w1 = p2, w2
        if keep:
            out[i + 1] = p2
        elif abs(p2) > 1e250:
            # homogeneous rescale; the normalized defect is unaffected
            p0 *= 1e-250
            p1 *= 1e-250
            pm2 *= 1e-250
            pm3 *= 1e-250
            pm4 *= 1e-250
    # trailing five samples at x = 4h, 3h, 2h, h, 0 are pm4, pm3, pm2, p0, p1
    norm = abs(p1) + abs(p0)
    if even:
        d = (-25.0 * p1 + 48.0 * p0 - 36.0 * pm2 + 16.0 * pm3 - 3.0 * pm4) / (12.0 * h)
        return d / norm
    return p1 / norm


def _grid_size(kappa: float, g: float, h: float) -> int:
    """Steps from the cutoff to the origin.

    The inward start e^(-kappa x) solves the free equation, so at the
    cutoff it carries an admixture of the growing solution of order
    V(x_max)/kappa^2 = g^2 e^(-x_max)/kappa^2.  Integrating inward damps
    that admixture only by e^(-2 kappa x_max), which is close to 1 for a
    weakly bound state, so a cutoff scaled with 1/kappa buys nothing
    there.  The cutoff instead ends the grid where the potential is
    negligible, g^2 e^(-x_max)/kappa^2 = e^(-40), which bounds the
    admixture directly, and never before x = 40.
    """
    x_max = max(40.0, math.log(g * g / (kappa * kappa)) + 40.0)
    return int(math.ceil(x_max / h))


def _defect(kappa: float, params: PotentialParams, cfg: ShootingConfig) -> float:
    n = _grid_size(kappa, params.g, cfg.h)
    dummy = np.empty(0)
    return _numerov_sweep(kappa, params.g, cfg.h, n, cfg.parity == "even",
                          False, dummy)


def numerov_eigenvalue(params: PotentialParams, cfg: ShootingConfig) -> float:
    """Brent root of the shooting defect inside the configured bracket."""
    lo, hi = cfg.kappa_bracket
    ends = {lo: _defect(lo, params, cfg), hi: _defect(hi, params, cfg)}
    if math.copysign(1.0, ends[lo]) == math.copysign(1.0, ends[hi]):
        raise BracketError(
            f"defect has equal signs at bracket {cfg.kappa_bracket}: "
            f"{ends[lo]:.3e}, {ends[hi]:.3e}"
        )
    # brentq evaluates both endpoints again; reuse the sweeps just made
    return brentq(
        lambda k: ends[k] if k in ends else _defect(k, params, cfg),
        lo, hi, xtol=1e-12)


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
        raise ValueError("stored sweep would overflow; reduce kappa")
    out = np.empty(n + 1)
    _numerov_sweep(kappa, params.g, cfg.h, n, cfg.parity == "even", True, out)
    xs = cfg.h * np.arange(n + 1)
    return xs, out[::-1].copy()


def transmission_numeric(k: float, params: PotentialParams):
    """Reflection and transmission amplitudes from direct integration.

    Starts from psi = e^(ikx) at +TRANSMISSION_X_MAX, integrates to
    -TRANSMISSION_X_MAX, and projects onto e^(+-ikx) there; returns (r, t).
    """
    if k <= 0.0:
        raise ValueError("momentum k must be positive")
    g = params.g
    x_max = TRANSMISSION_X_MAX

    def rhs(x, y):
        coeff = -g * g * math.exp(-abs(x)) - k * k
        return (y[2], y[3], coeff * y[0], coeff * y[1])

    y0 = (math.cos(k * x_max), math.sin(k * x_max),
          -k * math.sin(k * x_max), k * math.cos(k * x_max))
    sol = solve_ivp(rhs, (x_max, -x_max), y0, method="RK45",
                    rtol=1e-11, atol=1e-11)
    if not sol.success:
        raise StepSizeUnderflow(f"transmission integration failed: {sol.message}")
    pr, pi, qr, qi = sol.y[:, -1]
    psi = pr + 1j * pi
    dpsi = qr + 1j * qi
    phase = np.exp(-1j * k * (-x_max))
    a = (dpsi + 1j * k * psi) / (2j * k) * phase
    b = -(dpsi - 1j * k * psi) / (2j * k) / phase
    return b / a, 1.0 / a
