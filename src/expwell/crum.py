"""Isospectral hierarchy built from Wronskians of the eigenfunctions.

Level L deletes the lowest L states: the new potential is
V - 2 (log|W[psi_0..psi_{L-1}]|)'' and the surviving eigenfunctions are
ratios of a bordered Wronskian to the seed Wronskian.  Because every
eigenfunction is (up to parity signs) J(nu_m, rho(x)), all Wronskians in
x reduce to Wronskians of Bessel functions in rho times a power of rho
and a parity prefactor.  The reduction used here keeps the exact
constants obtained from the chain rule (y = rho(x), y' = sign(-x) rho/2)
and the multilinearity over the odd-state sign flips:

    W[psi_0..psi_{L-1}](x)        = (-1)^Q (rho/2)^Q  W_B(rho),
                                     Q = L(L-1)/2   (even in x)
    W[psi_0..psi_{L-1}, psi_n](x) = (-1)^(Q+n) s^(L+n) (rho/2)^P W_B^n(rho),
                                     P = L(L+1)/2,  s = sign(-x)

where W_B stacks rho-derivative rows of J at the seed orders.  Both are
continuous across x = 0: whenever L+n is odd the boundary conditions at
rho = 2g force the bordered Bessel Wronskian to vanish there.

Derivatives of determinants are taken analytically (raise the last row;
the second derivative adds the two single-row-raised terms).  So every
determinant is a minor of one table of rho-derivatives with one column
per order: a determinant builds each order's column once (J and J' from
one series entry, higher rows from Bessel's equation) and always goes
through the same elimination.  Ratios are formed in extended precision
because the row scales span rho^(nu - i), far outside double range near
the endpoint.

Overlaps are integrated already divided by Crum's closed-form diagonals,
so the quadrature works on a quantity of size 1 at every level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from . import specfun
from .bound import PotentialParams, Spectrum, rho
from .errors import NodeSingularity, UndefinedAtOrigin
from .quadrature import tanh_sinh

__all__ = [
    "CrumSystem",
    "wronskian_bessel",
    "crum_wronskian_x",
    "associated_potential",
    "v1_closed_form",
    "associated_eigenfunction",
    "associated_orthogonality_residuals",
    "eigen_equation_residual",
    "origin_continuity_residual",
    "shape_invariance_residual",
    "fit_exponential_family",
    "build_crum_system",
]

_EIGEN_XS = (0.35, 0.6, 1.0, 1.6, 2.4, 3.5, 5.0)  # clear of the origin kink
# finite-difference steps, times min(1, 20/g): the states steepen with g,
# and unscaled steps fail verify's crum bounds from g ~ 35 on truncation
_EIGEN_STEP = 2e-3
_ORIGIN_EPS = 1e-4
# where a potential is fitted to the family -f^2 e^(-|x|) + c
FIT_GRID = np.linspace(0.0, 10.0, 201)
FIT_GRID.flags.writeable = False


@dataclass(frozen=True)
class CrumSystem:
    """Grid representation of one associated system."""

    L: int
    params: PotentialParams
    seeds: tuple
    x_grid: np.ndarray
    V_L: np.ndarray
    psi_L: dict  # state index n -> samples on x_grid


def _det_dps(orders: tuple[float, ...], r: float) -> int:
    worst = max((abs(o) for o in orders), default=0.0)
    return specfun.working_dps(complex(worst), r) + 10


def _det_gauss(a):
    """Determinant by partial-pivot elimination on mpmath entries.

    mpmath's own det() declares matrices whose entries span hundreds of
    orders of magnitude "numerically singular" (norm-relative pivot
    tolerance) and silently returns 0; near rho = 0 these Wronskian
    tables do exactly that, so elimination is done here with no such
    shortcut: arbitrary-exponent pivots are perfectly usable.
    """
    n = len(a)
    det = mp.mpf(1)
    for col in range(n):
        piv = max(range(col, n), key=lambda i: abs(a[i][col]))
        if a[piv][col] == 0:
            return mp.mpf(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            factor = a[i][col] * inv
            for j in range(col + 1, n):
                a[i][j] -= factor * a[col][j]
    return det


@lru_cache(maxsize=200_000)
def _wronskian_det_mp(orders: tuple[float, ...], rows: tuple[int, ...],
                      r: float):
    """det of [d^rows[i] J(orders[j], r) / dr^rows[i]] as an mpmath value.

    Each order's column of derivatives is built once, to depth max(rows),
    and the rows are read from it.
    """
    with specfun.MP_LOCK, mp.workdps(_det_dps(orders, r)):
        depth = max(rows, default=0)
        cols = [specfun.bessel_j_derivs_mp(nu, r, depth) for nu in orders]
        return _det_gauss([[c[d] for c in cols] for d in rows])


def wronskian_bessel(orders, r: float) -> float:
    """Wronskian of {J(nu_j, .)} at r, rows = derivative orders 0..n-1."""
    orders = tuple(float(o) for o in orders)
    if len(set(orders)) != len(orders):
        raise ValueError("orders must be distinct")
    rows = tuple(range(len(orders)))
    return float(_wronskian_det_mp(orders, rows, float(r)))


def _seed_orders(seeds) -> tuple[float, ...]:
    for i, s in enumerate(seeds):
        if s.m != i:
            raise ValueError("seeds must be the lowest states 0..L-1 in order")
    return tuple(s.order for s in seeds)


def crum_wronskian_x(seeds, x: float, params: PotentialParams,
                     extra=None) -> float:
    """W[psi_0..psi_{L-1}(, psi_n)](x) via the Bessel reduction."""
    orders = _seed_orders(seeds)
    L = len(orders)
    g = params.g
    if extra is None:
        if L == 0:
            return 1.0
        q = L * (L - 1) // 2
        r = rho(x, g)
        sign = -1.0 if q % 2 else 1.0
        with specfun.MP_LOCK, mp.workdps(_det_dps(orders, r)):
            wb = _wronskian_det_mp(orders, tuple(range(L)), r)
            return float(sign * mp.power(mp.mpf(r) / 2, q) * wb)

    n = extra.m
    if n < L:
        raise ValueError(f"bordered state must satisfy n >= L, got n={n}, L={L}")
    full = orders + (extra.order,)
    rows = tuple(range(L + 1))
    p = L * (L + 1) // 2
    const = -1.0 if (L * (L - 1) // 2 + n) % 2 else 1.0
    if x == 0.0:
        r = 2.0 * g
        with specfun.MP_LOCK, mp.workdps(_det_dps(full, r)):
            limit = const * mp.power(mp.mpf(g), p) * _wronskian_det_mp(full, rows, r)
            if (L + n) % 2 == 0:
                # s^(L+n) = +1 from either side
                return float(limit)
            # odd combination: the one-sided limits are +-limit and the
            # matching conditions force W_B(2g) = 0; tolerate numerical noise
            scale = max(abs(_wronskian_det_mp(full, rows, r * (1.0 - 1e-3))),
                        mp.mpf(1e-300))
            ratio = float(abs(limit) / scale)
        if ratio > 1e-9:
            raise UndefinedAtOrigin(
                f"one-sided limits differ by {float(abs(limit)):.3e} at x=0"
            )
        return 0.0
    s = -1.0 if x > 0.0 else 1.0
    r = rho(x, g)
    pref = const * s ** (L + n)
    with specfun.MP_LOCK, mp.workdps(_det_dps(full, r)):
        wb = _wronskian_det_mp(full, rows, r)
        return float(pref * mp.power(mp.mpf(r) / 2, p) * wb)


def _potential_ratio_terms(orders: tuple[float, ...], r: float):
    """(W1/W0, W2/W0) for the seed determinant, derivatives in rho."""
    L = len(orders)
    with specfun.MP_LOCK, mp.workdps(_det_dps(orders, r)):
        w0 = _wronskian_det_mp(orders, tuple(range(L)), r)
        if w0 == 0:
            raise NodeSingularity(f"seed Wronskian vanished at rho = {r}")
        w1 = _wronskian_det_mp(orders, tuple(range(L - 1)) + (L,), r)
        w2 = _wronskian_det_mp(orders, tuple(range(L - 1)) + (L + 1,), r)
        if L >= 2:
            w2 += _wronskian_det_mp(
                orders, tuple(range(L - 2)) + (L - 1, L), r)
        return w1 / w0, w2 / w0


def associated_potential(L: int, params: PotentialParams, spectrum: Spectrum,
                         x: float) -> float:
    """V^[L](x) = V(x) - 2 (log|W[seeds]|)'' by the determinant route.

    The x = 0 value is the symmetric limit, evaluated once at x = 1e-6:
    only rho(|x|) enters, so both sides give the same value.
    """
    if L < 0:
        raise ValueError("level L must be >= 0")
    if spectrum.count < L:
        raise ValueError(f"need at least {L} states, have {spectrum.count}")
    g = params.g
    r = rho(x if x != 0.0 else 1e-6, g)
    if L == 0:
        return -0.25 * r * r
    orders = tuple(s.order for s in spectrum.states[:L])
    t1, t2 = _potential_ratio_terms(orders, r)
    with specfun.MP_LOCK, mp.workdps(_det_dps(orders, r)):
        rm = mp.mpf(r)
        val = -rm * rm / 4 - (rm / 2) * (t1 + rm * (t2 - t1 * t1))
        out = float(val)
    if not math.isfinite(out):
        raise NodeSingularity(f"associated potential non-finite at x = {x}")
    return out


def v1_closed_form(params: PotentialParams, spectrum: Spectrum,
                   x: float) -> float:
    """Independent closed form for the first associated potential:

        rho^2/4 - 2 kappa_0^2 + (rho^2/2) (J'(2k0, rho)/J(2k0, rho))^2
    """
    s0 = spectrum.states[0]
    r = rho(x, params.g)
    nu0 = s0.order
    with specfun.MP_LOCK, mp.workdps(specfun.working_dps(complex(nu0), r) + 5):
        rm = mp.mpf(r)
        j = specfun.bessel_j_mp(nu0, r)
        # J' by the order recurrence J_{nu-1} - (nu/rho) J_nu, not from the
        # series entry: with J'' from Bessel's equation the determinant
        # route reduces to this formula algebraically, so the check that
        # compares the two needs a second route to J'.
        dj = specfun.bessel_j_mp(nu0 - 1.0, r) - mp.mpf(nu0) / rm * j
        val = rm * rm / 4 - mp.mpf(nu0) ** 2 / 2 + rm * rm / 2 * (dj / j) ** 2
        return float(val)


def associated_eigenfunction(L: int, n: int, params: PotentialParams,
                             spectrum: Spectrum, x: float) -> float:
    """psi_n^[L](x) as the ratio of bordered to seed Wronskians.

    Formed in extended precision: numerator and denominator separately
    underflow doubles near the tails while their ratio stays tame.
    """
    if n < L:
        raise ValueError(f"need n >= L, got n={n}, L={L}")
    if spectrum.count <= n:
        raise ValueError(f"state {n} not available (count={spectrum.count})")
    if L == 0:
        from .bound import eigenfunction
        return eigenfunction(spectrum.states[n], params, x)
    g = params.g
    orders = tuple(s.order for s in spectrum.states[:L])
    nu_n = spectrum.states[n].order
    full = orders + (nu_n,)
    if x == 0.0:
        if (L + n) % 2:
            return 0.0
        r = 2.0 * g
    else:
        r = rho(x, g)
    with specfun.MP_LOCK, mp.workdps(_det_dps(full, r)):
        w_seed = _wronskian_det_mp(orders, tuple(range(L)), r)
        if w_seed == 0:
            raise NodeSingularity(f"seed Wronskian vanished at x = {x}")
        w_bord = _wronskian_det_mp(full, tuple(range(L + 1)), r)
        ratio = mp.power(mp.mpf(r) / 2, L) * w_bord / w_seed
        out = float(ratio)
    if x == 0.0:
        sgn = -1.0 if L % 2 else 1.0           # (-1)^n * s^(L+n) at s = -1
        return sgn * out
    s = -1.0 if x > 0.0 else 1.0
    pref = (-1.0 if n % 2 else 1.0) * s ** (L + n)
    return pref * out


def _overlap_integral(L: int, a: int, b: int, params: PotentialParams,
                      spectrum: Spectrum) -> float:
    """I_ab / sqrt(D_a D_b) by tanh-sinh over the determinant ratios, with

        I_ab = int_0^2g W[seeds, J_a] W[seeds, J_b] / W[seeds]^2
                        * rho^(2L-1) drho

    and D_n = I_nn in closed form (_closed_diagonal).  The integrand is
    scaled before it is summed, so the quadrature's absolute tolerance
    applies to a quantity of size 1 whatever the size of the diagonals.
    """
    orders = tuple(s.order for s in spectrum.states[:L])
    seed_rows = tuple(range(L))
    bord_rows = tuple(range(L + 1))
    nu_a = spectrum.states[a].order
    nu_b = spectrum.states[b].order
    norm = math.sqrt(_closed_diagonal(L, a, params, spectrum)
                     * _closed_diagonal(L, b, params, spectrum))

    def f(r: float) -> float:
        with specfun.MP_LOCK, mp.workdps(_det_dps(orders + (nu_a, nu_b), r)):
            ws = _wronskian_det_mp(orders, seed_rows, r)
            if ws == 0:
                raise NodeSingularity(f"seed Wronskian vanished at rho={r}")
            wa = _wronskian_det_mp(orders + (nu_a,), bord_rows, r)
            wb = _wronskian_det_mp(orders + (nu_b,), bord_rows, r)
            val = wa * wb / (ws * ws) * mp.power(mp.mpf(r), 2 * L - 1) / norm
            return float(val)

    return tanh_sinh(f, 0.0, params.x_arg)


def _closed_diagonal(L: int, n: int, params: PotentialParams,
                     spectrum: Spectrum) -> float:
    """The diagonal I_nn of _overlap_integral in closed form.

    Crum (1955): the Wronskian-ratio eigenfunctions have
    ||psi_n^[L]||^2 = prod_{j<L} (E_n - E_j) ||psi_n||^2.  In the rho
    form this reads 4^(L-1) prod_{j<L} (E_n - E_j) N_n, with N_n the
    full-line norm 4 int_0^2g J(nu_n, rho)^2 drho/rho of the base state,
    itself in closed form (Lommel's integral).
    """
    e_n = spectrum.states[n].energy
    prod = math.prod(e_n - s.energy for s in spectrum.states[:L])
    return 4.0 ** L * prod * specfun._lommel_integral(
        spectrum.states[n].order, params.x_arg)


def associated_orthogonality_residuals(L: int, params: PotentialParams,
                                       spectrum: Spectrum,
                                       pairs=None) -> dict:
    """Normalized overlap residuals of the level-L eigenfunctions.

    For states a != b of equal parity the overlap I_ab (_overlap_integral)
    vanishes identically; the returned dict maps (a, b) to
    |I_ab| / sqrt(I_aa I_bb).  L = 0 reduces to plain same-parity
    orthogonality of J(nu_m, rho) with weight 1/rho.
    """
    if spectrum.count < L + 2:
        raise ValueError(f"need at least L+2 = {L + 2} states")
    indices = list(range(L, spectrum.count))
    if pairs is None:
        pairs = [(a, b) for i, a in enumerate(indices) for b in indices[i + 1:]
                 if (a - b) % 2 == 0]
    return {(a, b): abs(_overlap_integral(L, a, b, params, spectrum))
            for a, b in pairs}


def eigen_equation_residual(L: int, n: int, params: PotentialParams,
                            spectrum: Spectrum) -> float:
    """max |(-psi'' + V^[L] psi - E_n psi)| / max|psi| on sample points.

    The second derivative is a fourth-order central difference, so the
    samples must stay away from the origin kink.
    """
    h = _EIGEN_STEP * min(1.0, 20.0 / params.g)
    e_n = spectrum.states[n].energy
    worst = 0.0
    scale = 0.0
    for x in _EIGEN_XS:
        p = [associated_eigenfunction(L, n, params, spectrum, x + j * h)
             for j in (-2, -1, 0, 1, 2)]
        d2 = (-p[0] + 16 * p[1] - 30 * p[2] + 16 * p[3] - p[4]) / (12 * h * h)
        v = associated_potential(L, params, spectrum, x)
        worst = max(worst, abs(-d2 + (v - e_n) * p[2]))
        scale = max(scale, abs(p[2]))
    return worst / scale if scale > 0.0 else worst


def origin_continuity_residual(L: int, n: int, params: PotentialParams,
                               spectrum: Spectrum) -> float:
    """Mismatch of one-sided values and slopes of psi_n^[L] at x = 0.

    One-sided slopes use third-order stencils so the extrapolation error
    is O(eps^3); for a C^1 function both residuals sit at rounding level.
    """
    def psi(x: float) -> float:
        return associated_eigenfunction(L, n, params, spectrum, x)

    eps = _ORIGIN_EPS * min(1.0, 20.0 / params.g)
    vals = {j: psi(j * eps) for j in (-3, -2, -1, 0, 1, 2, 3)}
    vscale = max(abs(v) for v in vals.values()) or 1.0
    value_gap = abs(vals[1] - vals[-1]) if (L + n) % 2 == 0 else abs(vals[0])
    d_plus = (-11 * vals[0] + 18 * vals[1] - 9 * vals[2] + 2 * vals[3]) / (6 * eps)
    d_minus = (11 * vals[0] - 18 * vals[-1] + 9 * vals[-2] - 2 * vals[-3]) / (6 * eps)
    if (L + n) % 2 == 0:
        # even function: both one-sided slopes must vanish in the limit
        slope_gap = max(abs(d_plus), abs(d_minus))
    else:
        slope_gap = abs(d_plus - d_minus)
    sscale = max(abs(d_plus), abs(d_minus), vscale)
    return max(value_gap / vscale, slope_gap / sscale)


def fit_exponential_family(xs: np.ndarray, vals: np.ndarray):
    """Least-squares fit of vals to -f^2 e^(-|x|) + c with real f.

    The family has f real, so the exponential coefficient is constrained
    nonnegative: an unconstrained negative f^2 is clamped to zero and the
    offset refit.  Returns (f_sq, c, relative rms residual).
    """
    basis = np.column_stack([-np.exp(-np.abs(xs)), np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    f_sq, c = float(coef[0]), float(coef[1])
    if f_sq < 0.0:
        f_sq = 0.0
        c = float(np.mean(vals))
    resid = vals - (basis @ np.array([f_sq, c]))
    denom = float(np.sqrt(np.mean((vals - np.mean(vals)) ** 2)))
    if denom == 0.0:
        denom = max(float(np.sqrt(np.mean(vals ** 2))), 1e-300)
    return f_sq, c, float(np.sqrt(np.mean(resid ** 2))) / denom


def shape_invariance_residual(params: PotentialParams,
                              spectrum: Spectrum) -> float:
    """Relative rms misfit of V^[1] against the original two-parameter
    family; a value above 1e-3 certifies the family is not reproduced."""
    v1 = np.array([associated_potential(1, params, spectrum, float(x))
                   for x in FIT_GRID])
    *_, rel = fit_exponential_family(FIT_GRID, v1)
    return rel


def build_crum_system(L: int, params: PotentialParams, spectrum: Spectrum,
                      x_grid: np.ndarray, n_states: int | None = None) -> CrumSystem:
    """Sample V^[L] and the surviving eigenfunctions on a grid."""
    if spectrum.count < L:
        raise ValueError(f"need at least {L} states, have {spectrum.count}")
    v = np.array([associated_potential(L, params, spectrum, float(x))
                  for x in x_grid])
    hi = spectrum.count if n_states is None else min(spectrum.count, L + n_states)
    psi = {
        n: np.array([associated_eigenfunction(L, n, params, spectrum, float(x))
                     for x in x_grid])
        for n in range(L, hi)
    }
    return CrumSystem(L=L, params=params, seeds=tuple(spectrum.states[:L]),
                      x_grid=np.asarray(x_grid), V_L=v, psi_L=psi)
