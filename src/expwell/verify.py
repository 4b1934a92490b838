"""Cross-module invariant battery for a single coupling.

Each check returns its measured value and the bound it must satisfy;
checks that need more bound states than the coupling supports are
reported as skipped rather than failed.  The battery backs the
``expwell verify`` command and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bound, crum, oracle, scatter
from .bound import PotentialParams
from .errors import ExpwellError
from .specfun import bessel_j_dn, lommel_residual

__all__ = ["CheckResult", "run_battery"]

# orthonormality is checked over the lowest states only, for speed
_MAX_PAIR_STATES = 8

# imaginary orders 2ik of the kernel's Lommel check
_LOMMEL_KS = (0.25, 0.5, 1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float | None
    threshold: float | None
    comparator: str      # "<=", ">", "==", "bool"
    passed: bool
    note: str = ""

    def __post_init__(self):
        # a comparison of numpy floats gives numpy.bool_
        object.__setattr__(self, "passed", bool(self.passed))

    @property
    def skipped(self) -> bool:
        return self.comparator == "skip"


def _skip(name: str, why: str) -> CheckResult:
    return CheckResult(name, None, None, "skip", True, why)


def _le(name: str, value: float, threshold: float, note: str = "") -> CheckResult:
    return CheckResult(name, value, threshold, "<=", value <= threshold, note)


def _gt(name: str, value: float, threshold: float, note: str = "") -> CheckResult:
    return CheckResult(name, value, threshold, ">", value > threshold, note)


def _ok(name: str, passed: bool, note: str = "") -> CheckResult:
    return CheckResult(name, None, None, "bool", passed, note)


def _cross_product_scale(nu, x: float) -> float:
    """(|J_nu| + |J'_nu|)(|J_-nu| + |J'_-nu|), which bounds both products
    whose difference lommel_residual compares with its closed form and,
    unlike them, does not vanish where J' or J does."""
    return ((abs(bessel_j_dn(nu, x, 0)) + abs(bessel_j_dn(nu, x, 1)))
            * (abs(bessel_j_dn(-nu, x, 0)) + abs(bessel_j_dn(-nu, x, 1))))


def run_battery(g: float) -> list[CheckResult]:
    """All module invariants at coupling g; order is deterministic."""
    params = PotentialParams(g)
    out: list[CheckResult] = []

    spectrum = bound.find_spectrum(params)
    states = spectrum.states
    count = spectrum.count

    out.append(_ok("ground_state_even",
                   count >= 1 and states[0].parity == "even",
                   f"count={count}"))
    margin = min(states[0].energy - (-g * g), -states[-1].energy)
    out.append(_gt("energy_bounds_margin", margin, 0.0,
                   "-g^2 < E_0 and E_max < 0"))
    out.append(_ok("parity_alternation",
                   all(s.parity == ("even" if s.m % 2 == 0 else "odd")
                       for s in states)))
    try:
        zeros = bound.order_zeros(params)
        out.append(_ok("interlacing_chain", True,
                       f"{len(zeros.lam)} even / {len(zeros.mu)} odd"))
    except ExpwellError as exc:  # InterlacingViolation
        out.append(_ok("interlacing_chain", False, str(exc)))

    out.append(_le("quantization_residual",
                   bound._condition_residual(states, g), 1e-10))

    # Kernel check: the cross product J_nu J'_-nu - J'_nu J_-nu against its
    # closed form -2 sin(nu pi)/(pi x), relative to the size of the values
    # it is formed from (the closed form vanishes near integer nu, and
    # just past a threshold, where the new state's nu is tiny and
    # J'_(+-nu) ~ -J_1 ~ 0, both products do; that scale does not).  Each
    # J and J' holds the working precision, at least 25 digits, and a
    # correct kernel reads at most 1.2e-27 for g = 0.001-25 and just past
    # the first thresholds; the bound leaves room for that and fails a J
    # or J' off in its 16th digit.
    x_arg = params.x_arg
    lommel = 0.0
    for nu in [s.order for s in states] + [2j * k for k in _LOMMEL_KS]:
        lommel = max(lommel, lommel_residual(nu, x_arg)
                     / _cross_product_scale(nu, x_arg))
    out.append(_le("kernel_lommel_residual", lommel, 1e-20,
                   f"orders of {count} states, 2ik for k in {_LOMMEL_KS}"))

    out.append(_ok("node_counts",
                   all(bound.count_nodes(s, params) == s.m for s in states)))

    if g <= 0.1:
        nu = states[0].order
        two_term = 4.0 * nu * (nu + 1.0) / (nu + 2.0)
        out.append(_le("small_g_two_term",
                       abs((2.0 * g) ** 2 / two_term - 1.0), 5e-3))

    # orthonormality: closed-form norms (Lommel's integral) against
    # tanh-sinh overlaps, so the diagonal compares two routes
    head = states[:_MAX_PAIR_STATES]
    normalized = bound.normalize(
        bound.Spectrum(params=params, states=tuple(head)))
    worst = 0.0
    for i, a in enumerate(normalized.states):
        for b in normalized.states[i:]:
            ip = bound.inner_product(a, b, params)
            ip *= a.norm_const * b.norm_const
            target = 1.0 if a.m == b.m else 0.0
            worst = max(worst, abs(ip - target))
    out.append(_le("orthonormality", worst, 1e-8,
                   f"first {len(head)} states; closed-form Lommel norms "
                   "vs tanh-sinh overlaps"))

    # oracle: eigenvalues; states below oracle.SHOOTING_KAPPA_MIN are skipped
    gaps = [abs(k - s.kappa) for s in states
            if (k := oracle.shooting_kappa(s, params)) is not None]
    if gaps:
        out.append(_le("oracle_eigenvalue_gap", max(gaps), 1e-7,
                       f"{len(gaps)} of {count} states"))
    else:
        out.append(_skip("oracle_eigenvalue_gap",
                         "all states too weakly bound for the shooting check"))

    # scattering block
    ks = np.geomspace(0.05, 5.0, 12)
    unit = ortho = wres = realw = 0.0
    for k in ks:
        pt = scatter.amplitudes(float(k), params)
        unit = max(unit, pt.unitarity_residual)
        ortho = max(ortho, pt.ortho_residual)
        realw = max(realw, abs(pt.W.real) / abs(pt.W))
        wres = max(wres, scatter.wronskian_identity_residual(float(k), params))
    out.append(_le("unitarity_residual", unit, 1e-10))
    out.append(_le("amplitude_orthogonality_residual", ortho, 1e-10))
    out.append(_le("wronskian_closed_form_residual", wres, 1e-9))
    out.append(_le("wronskian_imaginary_part", realw, 1e-11))

    pt = scatter.amplitudes(1.0, params)
    _, t_ode = oracle.transmission_numeric(1.0, params)
    out.append(_le("oracle_transmission_gap",
                   abs(abs(pt.t) ** 2 - abs(t_ode) ** 2), 1e-4))

    try:
        scatter.find_poles(params, spectrum)
        out.append(_ok("pole_spectrum_bijection", True))
    except ExpwellError as exc:  # PoleMismatch
        out.append(_ok("pole_spectrum_bijection", False, str(exc)))

    # associated-system block
    gap = max(abs(crum.associated_potential(1, params, spectrum, x)
                  - crum.v1_closed_form(params, spectrum, x))
              for x in (0.3, 0.7, 1.3, 2.1, 4.0))
    out.append(_le("crum_potential_closed_form_gap", gap, 1e-9))
    out.append(_le("crum_potential_tail",
                   abs(crum.associated_potential(1, params, spectrum, 40.0)),
                   1e-8))

    if count >= 2:
        worst = 0.0
        for n in range(1, min(count, 4)):
            vp = crum.associated_eigenfunction(1, n, params, spectrum, 0.9)
            vm = crum.associated_eigenfunction(1, n, params, spectrum, -0.9)
            scale = max(abs(vp), abs(vm), 1e-300)
            worst = max(worst, abs(vm - (-1.0) ** (1 + n) * vp) / scale)
        out.append(_le("crum_parity", worst, 1e-10))
        out.append(_le("crum_eigen_equation_residual",
                       crum.eigen_equation_residual(1, 1, params, spectrum),
                       1e-6))
        out.append(_le("crum_origin_continuity",
                       max(crum.origin_continuity_residual(1, n, params, spectrum)
                           for n in range(1, min(count, 3))),
                       1e-8))
    else:
        out.append(_skip("crum_parity", "needs >= 2 states"))
        out.append(_skip("crum_eigen_equation_residual", "needs >= 2 states"))
        out.append(_skip("crum_origin_continuity", "needs >= 2 states"))

    if count >= 4:
        pairs = [(a, b) for a in range(1, count)
                 for b in range(a + 2, count, 2)][:4]
        res = crum.associated_orthogonality_residuals(1, params, spectrum,
                                                      pairs=pairs)
        out.append(_le("crum_orthogonality_residual", max(res.values()), 1e-7,
                       f"{len(res)} pairs"))
    else:
        out.append(_skip("crum_orthogonality_residual", "needs >= 4 states"))

    # Crum's closed-form diagonal (E_1 - E_0) N_1 against tanh-sinh over
    # the determinant ratio.  A correct build reads at most 2.1e-15 over
    # 73 couplings g = 1.3-40; the bound fails an E_0 or a base norm off
    # by 1e-9.  The rho-form quadrature cannot resolve a state whose mass
    # lies below double range, so state 1 must pass inner_product's rule.
    if count < 2:
        out.append(_skip("crum_norm_identity", "needs >= 2 states"))
    elif 2.0 * states[1].order < 0.2:
        out.append(_skip("crum_norm_identity",
                         "state 1 too weakly bound for the rho quadrature"))
    else:
        ratio = crum._overlap_integral(1, 1, 1, params, spectrum)
        out.append(_le("crum_norm_identity", abs(ratio - 1.0), 1e-12,
                       "L = 1, state 1: tanh-sinh vs (E_1 - E_0) N_1"))

    v0 = np.array([bound.potential(float(x), params) for x in crum.FIT_GRID])
    *_, rel0 = crum.fit_exponential_family(crum.FIT_GRID, v0)
    out.append(_le("base_potential_family_fit", rel0, 1e-12))
    out.append(_gt("shape_invariance_misfit",
                   crum.shape_invariance_residual(params, spectrum), 1e-3))

    return out
