"""Seeded inputs, independent correctness gates and the rationale of each workload.

Inputs are drawn from numpy's generator seeded by the seed and shaped
with scipy.special only; the program under test sees nothing but
the argv of each op.  Every expectation a gate checks comes from
scipy.special as well, never from expwell itself.

A workload is run in *sets*: one set is a fixed, cost-balanced list of
ops (a stratified sample over the workload's input range), and a timed
run executes whole sets, each in a fresh interpreter.  Balancing cost
inside a set is what keeps throughput and median latency comparable
between seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import optimize, special

# bound.inner_product integrates in x instead of rho when the combined
# order of the two states is below this; normalize pairs a state with
# itself, so an op takes that route when its smallest order is below half
WEAK_COMBINED_ORDER = 0.2

# default --tol of `expwell scatter`; the gate holds reports to it
SCATTER_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One `expwell` command and what an independent route expects of it."""

    argv: tuple[str, ...]
    g: float
    k: float | None = None
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_set: Callable[[int, int], list[Op]]   # (seed, set index)
    gate: Callable[[Op, dict | None, str], str | None]


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# share of each bin or band over which the seed moves an input: op costs
# change steeply with g (near the thresholds where states appear and the
# weak-binding route), and the median op of a run must not jump between
# seeds
JITTER = 0.2


def positions(seed: int, index: int, n: int) -> np.ndarray:
    """n numbers in [0, 1) that place the inputs of set ``index``.

    One uniform draw per seed, moved along a golden-ratio (Weyl) sequence
    from set to set: the few sets of one run then sit evenly spread over
    the jitter window, whatever the seed, so runs of different seeds cost
    about the same.
    """
    u0 = np.random.default_rng(seed).random(n)
    return 0.5 + JITTER * ((u0 + index * GOLDEN) % 1.0 - 0.5)


# ---------------------------------------------------------------------------
# the spectrum at 2g from scipy: counts from the zeros of J_0 and J_1,
# orders from a vectorised sign scan refined by brentq


def _zeros_below(order: int, x: float) -> int:
    n = int(x / math.pi) + 3
    zeros = special.jn_zeros(order, n)
    if zeros[-1] <= x:
        raise RuntimeError(f"jn_zeros({order}, {n}) does not reach {x}")
    return int(np.count_nonzero(zeros < x))


def state_counts(g: float) -> tuple[int, int]:
    """(N_even, N_odd): even states start where J_1 has a zero at 2g, odd
    ones where J_0 does, and the even ground state always exists."""
    x = 2.0 * g
    return 1 + _zeros_below(1, x), _zeros_below(0, x)


def _even_f(nu, x):
    return special.jvp(nu, x)


def _odd_f(nu, x):
    return special.jv(nu, x)


def scipy_orders(g: float) -> list[float]:
    """Order-zeros nu = 2 kappa of J'_nu(2g) and J_nu(2g) on (0, 2g)."""
    x = 2.0 * g
    # zeros of either family lie at least ~1 apart in nu, so this step
    # leaves at most one zero of each family per cell
    n = int(math.ceil(x / min(0.01, x / 400.0))) + 1
    grid = np.linspace(1e-12, x * (1.0 - 1e-12), n)
    orders = []
    for f in (_even_f, _odd_f):
        vals = f(grid, x)
        for i in np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]:
            orders.append(optimize.brentq(f, grid[i], grid[i + 1], args=(x,),
                                          xtol=1e-15, rtol=1e-13))
    n_even, n_odd = state_counts(g)
    if len(orders) != n_even + n_odd:
        raise RuntimeError(f"scipy scan found {len(orders)} orders at g={g}, "
                           f"zero counts give {n_even + n_odd}")
    return sorted(orders, reverse=True)


def _weakest(g: float) -> dict:
    nu_min = scipy_orders(g)[-1]
    return {"kappa_min": nu_min / 2.0,
            "weak_route": 2.0 * nu_min < WEAK_COMBINED_ORDER}


def _spectrum_expect(g: float) -> dict:
    n_even, n_odd = state_counts(g)
    return {"n_even": n_even, "n_odd": n_odd, **_weakest(g)}


def _log_strata(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """A point in each of len(u) equal log-width bins of [lo, hi], placed
    in its bin by u."""
    edges = np.linspace(math.log(lo), math.log(hi), len(u) + 1)
    return np.exp(edges[:-1] + u * np.diff(edges))


# ---------------------------------------------------------------------------
# gates: each returns None when the op's output is right, else the reason


def _brackets_sign_change(f, nu: float, x: float) -> bool:
    h = max(1e-7 * nu, 1e-12)
    return bool(np.signbit(f(nu - h, x)) != np.signbit(f(nu + h, x)))


def gate_spectrum(op: Op, report: dict | None, stdout: str) -> str | None:
    if report is None or not report.get("pass"):
        return "report missing or pass is false"
    states = report["results"]["states"]
    x = 2.0 * op.g
    n_even = sum(s["parity"] == "even" for s in states)
    n_odd = len(states) - n_even
    if (n_even, n_odd) != (op.expect["n_even"], op.expect["n_odd"]):
        return (f"state count {n_even} even / {n_odd} odd, zeros of J_1, J_0 "
                f"give {op.expect['n_even']} / {op.expect['n_odd']}")
    for s in states:
        f = _even_f if s["parity"] == "even" else _odd_f
        if not _brackets_sign_change(f, s["order"], x):
            return f"order {s['order']!r} ({s['parity']}) brackets no sign change"
        c = s["norm_const"]
        if not (isinstance(c, float) and math.isfinite(c) and c > 0.0):
            return f"norm_const {c!r} of state {s['m']} is not finite and positive"
    return None


def gate_scatter(op: Op, report: dict | None, stdout: str) -> str | None:
    if report is None or not report.get("pass"):
        return "report missing or pass is false"
    for p in report["results"]["points"]:
        unit = abs(p["re_r"] ** 2 + p["im_r"] ** 2 + p["re_t"] ** 2
                   + p["im_t"] ** 2 - 1.0)
        worst = max(unit, p["unitarity_residual"], p["wronskian_residual"])
        if not worst <= SCATTER_TOL:
            return f"residual {worst:.3e} above {SCATTER_TOL:g} at k={p['k']}"
    return None


def _no_failed_rows(report: dict | None, stdout: str) -> str | None:
    if report is None or not report.get("pass"):
        return "report missing or pass is false"
    for line in stdout.splitlines():
        cols = line.split()
        if len(cols) >= 2 and cols[1] == "FAIL":
            return f"FAIL row: {line.strip()}"
    return None


def gate_crum(op: Op, report: dict | None, stdout: str) -> str | None:
    bad = _no_failed_rows(report, stdout)
    if bad:
        return bad
    if not report["results"]["orthogonality_residuals"]:
        return "orthogonality block did not run"
    return None


def gate_verify(op: Op, report: dict | None, stdout: str) -> str | None:
    bad = _no_failed_rows(report, stdout)
    if bad:
        return bad
    failed = [c["name"] for c in report["results"]["checks"] if not c["passed"]]
    return f"failed checks: {failed}" if failed else None


# ---------------------------------------------------------------------------
# input sets


SPECTRUM_G = (0.05, 12.0)
SPECTRUM_BINS = 20


def spectrum_set(seed: int, index: int) -> list[Op]:
    u = positions(seed, index, SPECTRUM_BINS)
    return [Op(("spectrum", "--g", repr(float(g))), float(g),
               expect=_spectrum_expect(float(g)))
            for g in _log_strata(u, *SPECTRUM_G)]


SCATTER_G = (0.05, 20.0)
SCATTER_K = (1e-3, 10.0)
SCATTER_G_BINS, SCATTER_K_BINS = 12, 80


def scatter_set(seed: int, index: int) -> list[Op]:
    # a cell per (g bin, k bin), each k bin placed anew for every g bin
    u = positions(seed, index, SCATTER_G_BINS * (1 + SCATTER_K_BINS))
    gs = np.repeat(_log_strata(u[:SCATTER_G_BINS], *SCATTER_G), SCATTER_K_BINS)
    ks = np.concatenate([_log_strata(uk, *SCATTER_K) for uk in
                         u[SCATTER_G_BINS:].reshape(SCATTER_G_BINS, -1)])
    return [Op(("scatter", "--g", repr(float(g)), "--k", repr(float(k))),
               float(g), float(k))
            for g, k in zip(gs, ks)]


# the orthogonality block needs a same-parity pair above the L seeds, so
# six states for L = 3: g above j_{0,3}/2 = 4.327 and below j_{1,3}/2 =
# 5.087, starting far enough above the threshold that no state is
# barely bound
CRUM_G = (4.6, 4.8)
CRUM_LEVELS = (1, 2, 3)


def crum_set(seed: int, index: int) -> list[Op]:
    u = positions(seed, index, 1)[0]
    g = float(CRUM_G[0] + (CRUM_G[1] - CRUM_G[0]) * u)
    # crum never calls bound.inner_product, so it has no weak route
    expect = {"kappa_min": _weakest(g)["kappa_min"]}
    return [Op(("crum", "--g", repr(g), "--L", str(level)), g, expect=expect)
            for level in CRUM_LEVELS]


# one coupling per window of 1, 2 and 3 bound states, placed where the
# weakest state has kappa in this band: the oracle's shooting grid grows
# as 60/kappa, so the band fixes the oracle's share of each op
VERIFY_STATE_COUNTS = (1, 2, 3)
VERIFY_KAPPA = (0.38, 0.42)


def _thresholds() -> np.ndarray:
    """Couplings at which a new bound state appears: j_{0,n}/2 and j_{1,n}/2."""
    return np.sort(np.concatenate([special.jn_zeros(0, 8),
                                   special.jn_zeros(1, 8)])) / 2.0


def _coupling_for(n_states: int, kappa: float) -> float:
    """The g with n_states bound states whose weakest has this kappa."""
    t = _thresholds()
    lo = 1e-3 if n_states == 1 else t[n_states - 2] * (1.0 + 1e-9)
    hi = t[n_states - 1] * (1.0 - 1e-9)
    return optimize.brentq(lambda g: _weakest(g)["kappa_min"] - kappa, lo, hi,
                           xtol=1e-12)


def verify_set(seed: int, index: int) -> list[Op]:
    ops = []
    u = positions(seed, index, len(VERIFY_STATE_COUNTS))
    for n, un in zip(VERIFY_STATE_COUNTS, u):
        kappa = VERIFY_KAPPA[0] + (VERIFY_KAPPA[1] - VERIFY_KAPPA[0]) * un
        g = _coupling_for(n, kappa)
        ops.append(Op(("verify", "--g", repr(g)), g, expect=_weakest(g)))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload(
        "spectrum-sweep",
        "Real-order specfun, bound.find_spectrum, normalize and quadrature "
        "over log-spread g incl. g<0.2; bypasses scatter, crum, oracle; "
        "no cross-op reuse (each op has its own 2g)",
        spectrum_set, gate_spectrum),
    Workload(
        "scatter-points",
        "Only load on complex-order specfun (order 2ik) and scatter; cheap "
        "ops give a real tail percentile; bypasses bound, quadrature, crum, "
        "oracle; no cross-op reuse",
        scatter_set, gate_scatter),
    Workload(
        "crum-hierarchy",
        "Wronskian determinants, n-th derivatives and tanh-sinh over "
        "determinant ratios in crum; bypasses scatter, oracle; cross-op "
        "reuse: L=1,2,3 share one g",
        crum_set, gate_crum),
    Workload(
        "verify-battery",
        "Only load on oracle and scatter.find_poles, plus the whole verify "
        "battery; most in-op kernel reuse (order_zeros reruns find_spectrum); "
        "no cross-op reuse",
        verify_set, gate_verify),
)}


def provenance(name: str, ops: list[Op]) -> dict:
    """Input shape of the ops a run executed."""
    gs = [op.g for op in ops]
    ks = [op.k for op in ops if op.k is not None]
    kappas = [op.expect["kappa_min"] for op in ops if "kappa_min" in op.expect]
    return {
        "workload": name,
        "ops": len(ops),
        "g_range": [min(gs), max(gs)],
        "k_range": [min(ks), max(ks)] if ks else None,
        "weak_route_share": sum(bool(op.expect.get("weak_route")) for op in ops)
        / len(ops),
        "kappa_min": min(kappas) if kappas else None,
        "kappa_min_per_op": kappas if name == "verify-battery" else None,
    }
