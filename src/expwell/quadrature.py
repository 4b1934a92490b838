"""Adaptive quadrature for integrands with an integrable power endpoint.

The overlap integrals of the package integrate f over (0, b] where f
may behave like rho^(s-1), s > 0, at the lower endpoint.  They use
tanh-sinh (double exponential), which clusters nodes toward the
endpoints at double-exponential rate, so the power behavior needs no
special casing; levels halve the mesh and reuse previous nodes.

Composite Gauss-Legendre with a geometric endpoint split (fixed-order
panels on [b 2^-(j+1), b 2^-j], continued until panel contributions are
negligible) is kept as an independent reference that the tests compare
against.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureNotConverged

__all__ = [
    "tanh_sinh",
    "gauss_geometric",
]


_T_CAP = 6.5  # |t| beyond which double-exponential weights underflow
ABS_TOL = 1e-11
MAX_LEVELS = 12
# gauss_geometric: 16-point Legendre panels; it also stops at ABS_TOL
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_PANELS = 4000


def _de_node(t: float, a: float, b: float):
    """Abscissa and weight of the tanh-sinh map on [a, b] at parameter t.

    The abscissa is formed as an offset from the nearer endpoint so that
    nodes approach the endpoints gracefully instead of rounding onto them.
    """
    u = 0.5 * math.pi * math.sinh(t)
    span = b - a
    em = math.exp(-2.0 * abs(u))
    sech2 = 4.0 * em / (1.0 + em) ** 2
    off = span * em / (1.0 + em)
    x = b - off if u >= 0.0 else a + off
    w = 0.5 * span * 0.5 * math.pi * math.cosh(t) * sech2
    return x, w


def tanh_sinh(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate f on [a, b]; converged when successive levels agree.

    Agreement is tested against ABS_TOL widened by a relative floor a
    little above machine precision: level sums over tens of thousands of
    nodes cannot distinguish finer than ~1e-13 of the integral itself.
    """
    if a >= b:
        raise ValueError("need a < b")
    trunc = ABS_TOL * 1e-6

    def level_sum(h: float, odd_only: bool) -> float:
        total = 0.0
        comp = 0.0  # Kahan carry
        if not odd_only:
            x0, w0 = _de_node(0.0, a, b)
            total = w0 * f(x0)
        k = 1
        step = 2 if odd_only else 1
        small_run = 0
        while k * h <= _T_CAP:
            contrib = 0.0
            for t in (k * h, -k * h):
                x, w = _de_node(t, a, b)
                if w == 0.0 or not (a < x < b):
                    continue
                contrib += w * f(x)
            y = contrib - comp
            s = total + y
            comp = (s - total) - y
            total = s
            # count only once the sum has mass: the flat middle of an
            # integrand peaked at an endpoint gives small pairs too
            if abs(contrib) < trunc and abs(total) > trunc:
                small_run += 1
                if small_run >= 3:
                    break
            else:
                small_run = 0
            k += step
        return total

    h = 1.0
    prev_value = h * level_sum(h, odd_only=False)
    for _ in range(MAX_LEVELS):
        h *= 0.5
        new_value = 0.5 * prev_value + h * level_sum(h, odd_only=True)
        if abs(new_value - prev_value) <= max(ABS_TOL, 2e-13 * abs(new_value)):
            return new_value
        prev_value = new_value
    raise QuadratureNotConverged(
        f"tanh-sinh did not reach {ABS_TOL} within {MAX_LEVELS} levels"
    )


def _gl_panel(f, lo: float, hi: float) -> float:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * sum(w * f(mid + half * t) for t, w in zip(_GL_NODES, _GL_WEIGHTS))


def gauss_geometric(f: Callable[[float], float], b: float) -> float:
    """Integrate f on (0, b] with panels split geometrically toward 0."""
    total = 0.0
    hi = b
    small_run = 0
    for j in range(_MAX_PANELS):
        lo = 0.5 * hi
        contrib = _gl_panel(f, lo, hi)
        total += contrib
        if abs(contrib) < 0.125 * ABS_TOL:
            small_run += 1
            if small_run >= 3 and j >= 8:
                return total
        else:
            small_run = 0
        hi = lo
    raise QuadratureNotConverged(
        f"geometric Gauss splitting did not decay within {_MAX_PANELS} panels"
    )
