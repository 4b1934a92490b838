"""Discrete spectrum of the well V(x) = -g^2 exp(-|x|).

With rho(x) = 2g e^(-|x|/2) the eigenproblem at energy E = -kappa^2
reduces to Bessel's equation of order nu = 2 kappa in rho, and the
square-integrable branch is J(2 kappa, rho).  Matching at the origin
quantizes kappa through order-zeros at the fixed argument 2g:

    even states:  J'(2 kappa, 2g) = 0     (derivative in the argument)
    odd states:   J(2 kappa, 2g) = 0

A new state enters at nu = 0 each time 2g crosses a zero of J_1 (even)
or J_0 (odd); at 2g equal to such a zero there is no extra bound state.
For nu >= 0 the prefactor (g^nu / Gamma(nu+1)) of J is positive, so the
two conditions have the signs and zeros of the series' integer sums S
and nu S + 2W, whose order derivatives come from the same loop
(specfun._order_sums).  One engine finds both families: it walks a
grid in nu = 2 kappa on [0, 2g] with step min(0.5, g), from nu = 0
itself, where the conditions read -J_1(2g) and J_0(2g), so the root of
a state just past its threshold, and the ground state at weak coupling,
lie in the first cell like any other.  It refines each sign change by
Newton in nu, and uses the strict interlacing of the two zero families
as a completeness certificate: parities must alternate even/odd/even/...
when sorted by decreasing kappa, otherwise a root was missed and the
scan is repeated at half the step.  _condition_residual (the battery's
quantization_residual row) re-evaluates the conditions at the roots
through the (J, J') series entries, a second route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from . import specfun
from .errors import (ConvergenceError, InterlacingViolation, NoGroundState,
                     NonFiniteValueError)
from .quadrature import tanh_sinh

__all__ = [
    "PotentialParams",
    "BoundState",
    "Spectrum",
    "OrderZeros",
    "rho",
    "even_condition",
    "odd_condition",
    "find_spectrum",
    "order_zeros",
    "eigenfunction",
    "inner_product",
    "normalize",
    "count_nodes",
]

_J01 = 2.404825557695773  # first positive zero of J_0


@dataclass(frozen=True)
class PotentialParams:
    """Coupling of the well; units with hbar = 2m = 1."""

    g: float

    def __post_init__(self):
        if not (self.g > 0.0 and math.isfinite(self.g)):
            raise ValueError(f"coupling g must be positive, got {self.g}")

    @property
    def x_arg(self) -> float:
        """Fixed Bessel argument 2g at which order-zeros are taken."""
        return 2.0 * self.g


@dataclass(frozen=True)
class BoundState:
    """One eigenstate; m counts nodes, parity alternates starting even."""

    m: int
    parity: str            # "even" | "odd"
    kappa: float
    energy: float          # -kappa^2
    order: float           # nu = 2 kappa
    norm_const: float | None = None


@dataclass(frozen=True)
class Spectrum:
    params: PotentialParams
    states: tuple[BoundState, ...]

    @property
    def count(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class OrderZeros:
    """Interlaced order-zero families at fixed argument x_arg.

    lam[j] are zeros of nu -> J'_nu(x_arg), mu[j] zeros of nu -> J_nu(x_arg),
    both strictly decreasing, with x_arg > lam[0] > mu[0] > lam[1] > ...
    """

    x_arg: float
    lam: tuple[float, ...]
    mu: tuple[float, ...]


def rho(x: float, g: float) -> float:
    """Auxiliary variable 2g e^(-|x|/2); maps each half line onto (0, 2g]."""
    if g <= 0.0:
        raise ValueError("g must be positive")
    return 2.0 * g * math.exp(-0.5 * abs(x))


def potential(x: float, params: PotentialParams) -> float:
    """The well itself: -g^2 e^(-|x|), smooth except the kink at x = 0."""
    return -params.g ** 2 * math.exp(-abs(x))


def even_condition(kappa: float, g: float) -> float:
    """J'(2k, 2g), the argument derivative; zero exactly at even-state
    eigenvalues."""
    return specfun.bessel_j_dn(2.0 * kappa, 2.0 * g, 1)


def odd_condition(kappa: float, g: float) -> float:
    """J(2k, 2g); zero exactly at odd-state eigenvalues.  It reads the
    same series entry as even_condition at that kappa."""
    return specfun.bessel_j_dn(2.0 * kappa, 2.0 * g, 0)


def _condition_residual(states: Sequence[BoundState], g: float) -> float:
    """Largest |quantization condition| of each state's own parity."""
    return max(
        abs(even_condition(s.kappa, g)) if s.parity == "even"
        else abs(odd_condition(s.kappa, g))
        for s in states
    )


# ---------------------------------------------------------------------------
# root finding in the order variable nu = 2 kappa

# Newton steps per root before the engine gives up
_MAX_NEWTON = 100


def _newton_step(vals: tuple, k: int) -> float:
    # the ints share one scale, so their ratio is rounded once
    return vals[k] / vals[k + 2] if vals[k + 2] else math.inf


def _newton(x: float, k: int, lo: float, hi: float, vlo: tuple,
            vhi: tuple, tol: float) -> float:
    """Root in (lo, hi) of value k of specfun._order_sums (0: J, odd;
    1: J', even), whose sign differs at the two ends.

    Newton on the order, from the end with the shorter step, bisecting
    whenever a step leaves the bracket.  The new point nu is accepted as
    soon as the step to it is at most min(tol, 1e-6 nu)/4, before the
    bracket test: a converged point may round onto a bracket end.  The
    relative bound keeps a root near 0 (a state just past its threshold,
    or the ground state at weak coupling) to its relative accuracy; for
    roots above 1e-6 it is tol.
    """
    neg_lo = (vlo[k] or vlo[k + 2]) < 0
    slo, shi = _newton_step(vlo, k), _newton_step(vhi, k)
    nu, step = (lo, slo) if abs(slo) <= abs(shi) else (hi, shi)
    for _ in range(_MAX_NEWTON):
        nu -= step
        if abs(step) <= min(tol, 1e-6 * nu) / 4:
            return nu
        if not lo < nu < hi:
            nu = 0.5 * (lo + hi)
        vals = specfun._order_sums(nu, x)
        if (vals[k] < 0) == neg_lo:
            lo = nu
        else:
            hi = nu
        step = _newton_step(vals, k)
    raise ConvergenceError(
        f"order root in ({lo}, {hi}) at x = {x} did not converge "
        f"within {_MAX_NEWTON} Newton steps")


def _scan(x: float, h: float, tol: float) -> list[tuple[float, str]]:
    """One pass over the order grid 0, h, 2h, ... < x, then x: every root
    of both conditions, as (nu, parity) by decreasing nu.

    Each grid point is one integer sum serving both families.  A value
    that is exactly 0 takes the sign of its order derivative, the sign
    just above it: a root exactly at a grid point is counted once, and a
    root at nu = 0 itself, where 2g equals a zero of J_0 or J_1, is not
    counted.
    """
    grid = [i * h for i in range(math.ceil(x / h))] + [x]
    vals = [specfun._order_sums(nu, x) for nu in grid]
    roots = []
    for i in range(1, len(grid)):
        a, b = vals[i - 1], vals[i]
        for k, parity in ((0, "odd"), (1, "even")):
            if ((a[k] or a[k + 2]) < 0) != ((b[k] or b[k + 2]) < 0):
                nu = _newton(x, k, grid[i - 1], grid[i], a, b, tol)
                roots.append((nu, parity))
    return sorted(roots, key=lambda r: -r[0])


def find_spectrum(params: PotentialParams, tol: float = 1e-12) -> Spectrum:
    """All bound states, ordered by increasing energy (decreasing kappa).

    The order nu = 2 kappa is scanned on [0, 2g] in steps of
    min(0.5, g); each sign change of J(nu, 2g) (odd) or J'(nu, 2g) (even)
    is refined by Newton in nu to min(tol, 1e-6 nu) (see _newton).  At
    2g equal to a zero of J_1 or J_0 exactly the new root sits at nu = 0,
    kappa = 0, and is no bound state; just above, it is one.

    Raises InterlacingViolation if root parities fail to alternate after
    repeated grid refinement, NoGroundState if no even root exists, and
    ConvergenceError if a root does not converge.
    """
    if tol < 1e-13:
        raise ValueError("tol must be >= 1e-13")
    g = params.g
    x = params.x_arg
    found_even = False
    for attempt in range(7):
        events = _scan(x, min(0.5, g) / 2 ** attempt, tol)
        found_even = found_even or any(p == "even" for _, p in events)
        parities_ok = bool(events) and all(
            p == ("even" if i % 2 == 0 else "odd")
            for i, (_, p) in enumerate(events)
        )
        if parities_ok and events[0][0] < x:
            states = tuple(
                BoundState(m=i, parity=p, kappa=nu / 2.0,
                           energy=-(nu / 2.0) ** 2, order=nu)
                for i, (nu, p) in enumerate(events)
            )
            return Spectrum(params=params, states=states)
        # otherwise a root was missed (or the chain is inconsistent):
        # rescan at half the step
    if not found_even:
        raise NoGroundState(f"no even root located for g = {g}")
    raise InterlacingViolation(
        f"parities failed to alternate for g = {g} after grid refinement"
    )


def order_zeros(params: PotentialParams) -> OrderZeros:
    """Interlaced zero families; validates the strict chain and counts."""
    spectrum = find_spectrum(params)
    lam = tuple(s.order for s in spectrum.states if s.parity == "even")
    mu = tuple(s.order for s in spectrum.states if s.parity == "odd")
    chain = [params.x_arg]
    for i in range(max(len(lam), len(mu))):
        if i < len(lam):
            chain.append(lam[i])
        if i < len(mu):
            chain.append(mu[i])
    if not all(chain[i] > chain[i + 1] for i in range(len(chain) - 1)) \
            or chain[-1] <= 0.0:
        raise InterlacingViolation(f"zero chain not strictly interlaced: {chain}")
    if len(mu) not in (len(lam), len(lam) - 1):
        raise InterlacingViolation(
            f"family sizes violate interlacing: {len(lam)} vs {len(mu)}"
        )
    return OrderZeros(x_arg=params.x_arg, lam=lam, mu=mu)


def eigenfunction(state: BoundState, params: PotentialParams, x: float) -> float:
    """psi_m(x): J(2 kappa, rho(x)), odd states antisymmetrized by sign(x)."""
    r = rho(x, params.g)
    if r == 0.0:  # |x| beyond double range of the tail; true value underflows
        return 0.0
    val = specfun.bessel_j(state.order, r)
    if state.parity == "odd":
        if x == 0.0:
            return 0.0
        if x < 0.0:
            val = -val
    if state.norm_const is not None:
        val *= state.norm_const
    return val


def _leading_amplitude(order: float, g: float) -> float:
    # J(nu, rho) ~ (rho/2)^nu / Gamma(nu+1) with rho = 2 g e^(-x/2)
    return g ** order / math.gamma(1.0 + order)


def inner_product(a: BoundState, b: BoundState, params: PotentialParams) -> float:
    """Full-line overlap integral of two (unnormalized) eigenfunctions.

    Opposite parities vanish identically.  Equal parities reduce exactly,
    via x -> rho, to 4 * integral_0^2g J_a(rho) J_b(rho) drho/rho.  When
    the combined order is very small the rho-form concentrates its mass
    at values of rho below double-precision range (the state is nearly
    unbound and spreads over x ~ 1/kappa), so the integral is done in x
    with the exponential tail added in closed form.
    """
    if a.parity != b.parity:
        return 0.0
    g = params.g
    s = a.order + b.order
    if s >= 0.2:
        def f(r: float) -> float:
            return specfun.bessel_j(a.order, r) * specfun.bessel_j(b.order, r) / r

        return 4.0 * tanh_sinh(f, 0.0, params.x_arg)

    # weak-binding route: numeric part to x_c, then the pure-exponential tail
    x_c = 2.0 * (math.log(params.x_arg) + 34.0)

    def fx(x: float) -> float:
        r = rho(x, g)
        return specfun.bessel_j(a.order, r) * specfun.bessel_j(b.order, r)

    body = tanh_sinh(fx, 0.0, x_c)
    tail = (_leading_amplitude(a.order, g) * _leading_amplitude(b.order, g)
            * 2.0 / s * math.exp(-0.5 * s * x_c))
    return 2.0 * (body + tail)


def normalize(spectrum: Spectrum) -> Spectrum:
    """Attach norm_const = 1/sqrt(<psi, psi>) to every state (positive sign,
    so each normalized state decays to +0 as x -> +infinity).

    The norm is 4 * integral_0^2g J(nu, rho)^2 drho/rho in closed form,
    from Lommel's integral (specfun._lommel_integral); no quadrature runs.
    inner_product, the quadrature route, is the independent check.

    Raises NonFiniteValueError when a norm is NaN, infinite or not
    positive.
    """
    x = spectrum.params.x_arg
    states = []
    for s in spectrum.states:
        nn = 4.0 * specfun._lommel_integral(s.order, x)
        if not (nn > 0.0 and math.isfinite(nn)):
            raise NonFiniteValueError(
                f"norm {nn!r} of state {s.m} is not finite and positive")
        states.append(replace(s, norm_const=1.0 / math.sqrt(nn)))
    return Spectrum(params=spectrum.params, states=tuple(states))


def count_nodes(state: BoundState, params: PotentialParams) -> int:
    """Nodes of psi_m on the whole line, counted from sign changes.

    Interior zeros on x > 0 are zeros of J(nu, rho) for rho in (0, 2g);
    they all lie above the first argument-zero of J_0, so the scan starts
    at rho = 2 and uses a step well under the minimal zero spacing.  Odd
    states contribute one more node at the origin.
    """
    x = params.x_arg
    changes = 0
    if x > _J01:
        lo, hi = 2.0, x * (1.0 - 1e-9)
        n = max(16, int(math.ceil((hi - lo) / 0.25)))
        prev = None
        for i in range(n + 1):
            r = lo + (hi - lo) * i / n
            val = specfun.bessel_j(state.order, r)
            if val == 0.0:
                continue
            sgn = val > 0.0
            if prev is not None and sgn != prev:
                changes += 1
            prev = sgn
    return 2 * changes + (1 if state.parity == "odd" else 0)
