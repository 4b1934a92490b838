"""Self-contained special-function kernels.

Everything here reduces to one primitive, the ascending power series

    J(nu, x) = sum_m (-1)^m (x/2)^(nu+2m) / (m! Gamma(nu+m+1))

evaluated for real or complex order nu and real argument x > 0.  Its
alternating terms cancel down from a peak of order e^x; in plain double
arithmetic the result would lose roughly 0.43*x digits, which is not
acceptable at the argument sizes this library needs (x up to ~50).  So
J = (x/2)^nu / Gamma(nu+1) * S is split: the normalised series S, which
carries all of the cancellation, is summed in Python-int fixed point
from nu and x taken as exact rationals, and the prefactor, which has
none, is computed in mpmath at the working precision.  The argument
derivative J' comes from the same sum, and higher derivatives from
Bessel's equation.  Results are returned as ordinary floats/complex.
"""

from __future__ import annotations

import math
import operator
import threading
from functools import lru_cache

import mpmath as mp

# mpmath's precision is a global context; every extended-precision block
# in the package takes this (reentrant) lock so concurrent callers cannot
# interleave precision switches.
MP_LOCK = threading.RLock()

from .errors import ConvergenceError, NonFiniteValueError

__all__ = [
    "bessel_j",
    "bessel_j_dn",
    "lommel_residual",
    "bessel_j_mp",
    "bessel_j_derivs_mp",
    "working_dps",
]

# Term cap of the ascending series; real order needs about 120 terms at
# x = 50 and about 320 at x = 160.
_MAX_TERMS = 400


def working_dps(nu: complex, x: float) -> int:
    """Decimal digits needed so the alternating series keeps ~17 digits.

    The sum of absolute term values peaks near e^x (0.434*x digits of
    cancellation); purely imaginary order tau adds growth up to
    ~1/|Gamma(1+i tau)| ~ e^(pi tau / 2) (0.69*tau digits).
    """
    return 25 + int(math.ceil(0.45 * x + 0.70 * abs(nu.imag)))


def _is_negative_integer(nu: complex) -> int | None:
    if nu.imag != 0.0:
        return None
    n = round(nu.real)
    if n < 0 and nu.real == n:
        return int(n)
    return None


def _not_converged(nu: complex, x: float) -> ConvergenceError:
    return ConvergenceError(
        f"Bessel series for nu={nu}, x={x} "
        f"did not converge within {_MAX_TERMS} terms"
    )


def _sum_real(nu: float, x: float, dps: int, bits: int,
              harmonic: bool) -> tuple[int, int, int, int]:
    """Fixed-point sums of the real-order series, as ints: S and
    sum_m m t_m times 2^bits; if harmonic, also A = sum_m t_m H_m and
    B = sum_m m t_m H_m times 2^(2 bits), with H_m = sum_{j=1..m}
    1/(nu+j), else A = B = 0."""
    a, b = nu.as_integer_ratio()
    c, d = x.as_integer_ratio()
    # q / (m (nu + m)) = num / (den m (a + m b))
    num, den = c * c * b, 4 * d * d
    one = 1 << bits
    term = total = one
    mtotal = harm = htotal = mhtotal = 0
    scale = 10 ** (dps + 5)
    small_run = 0
    for m in range(1, _MAX_TERMS + 1):
        term = -(term * num // (den * m * (a + m * b)))
        total += term
        mtotal += m * term
        if harmonic:
            # 1/(nu + m) = b / (a + m b)
            harm += one * b // (a + m * b)
            th = term * harm
            htotal += th
            mhtotal += m * th
        if abs(term) * scale <= abs(total):
            small_run += 1
            if small_run >= 3:
                return total, mtotal, htotal, mhtotal
        else:
            small_run = 0
    raise _not_converged(complex(nu), x)


def _sum_complex(nu_re: float, nu_im: float, x: float, dps: int,
                 bits: int):
    """S and the sum of m t_m for complex order, as (re, im) int pairs
    times 2^bits."""
    a, b_re = nu_re.as_integer_ratio()
    c, b_im = nu_im.as_integer_ratio()
    # both denominators are powers of two: the larger is a common one
    b = max(b_re, b_im)
    a, c = a * (b // b_re), c * (b // b_im)
    p, d = x.as_integer_ratio()
    num, den = p * p * b, 4 * d * d
    t_re = s_re = 1 << bits
    t_im = s_im = 0
    w_re = w_im = 0
    scale2 = 10 ** (2 * (dps + 5))
    small_run = 0
    for m in range(1, _MAX_TERMS + 1):
        # t / (u + i c) = t (u - i c) / (u^2 + c^2)
        u = a + m * b
        div = den * m * (u * u + c * c)
        t_re, t_im = (-((t_re * u + t_im * c) * num // div),
                      -((t_im * u - t_re * c) * num // div))
        s_re += t_re
        s_im += t_im
        w_re += m * t_re
        w_im += m * t_im
        if (t_re * t_re + t_im * t_im) * scale2 <= s_re * s_re + s_im * s_im:
            small_run += 1
            if small_run >= 3:
                return (s_re, s_im), (w_re, w_im)
        else:
            small_run = 0
    raise _not_converged(complex(nu_re, nu_im), x)


def _fixed_to_mp(v, bits: int):
    """An int (real) or an (re, im) int pair, times 2^-bits, in mpmath."""
    if isinstance(v, tuple):
        return mp.mpc(mp.mpf((v[0], -bits)), mp.mpf((v[1], -bits)))
    return mp.mpf((v, -bits))


@lru_cache(maxsize=200_000)
def _series_cached(nu_re: float, nu_im: float, x: float):
    """The pair (J, J') at the working precision, as mpf/mpc.

    J = P S with the prefactor P = (x/2)^nu / Gamma(nu+1) and the
    normalised series S = sum_m t_m, t_m = (-q)^m / (m! (nu+1)_m),
    q = (x/2)^2.  All of the cancellation is in S, so S is summed in
    Python-int fixed point with about 3.33*dps + 20 bits and t_0 = 1,
    from nu and x taken as exact rationals: t_m = -t_{m-1} q / (m (nu+m))
    is one integer multiply and one floor division.  Summation stops
    after three consecutive terms with |t| <= 10^-(dps+5) |S|, which
    guards against the alternating series pausing near a zero crossing
    of the partial sums.

    Since t_m goes as x^(2m) and P as x^nu, the argument derivative is
    J' = (P/x) (nu S + 2 sum_m m t_m); the weighted sum is accumulated in
    the same loop, so J and J' share one sum and one prefactor, and one
    entry per point serves every caller, J-only ones included.  Order
    nu = 0 is an ordinary entry, with J'_0 = -J_1.

    The prefactor has no cancellation, and an error that scales the
    whole value cannot move a zero; it is computed in mpmath at the
    working precision, the only step that takes MP_LOCK.
    """
    dps = working_dps(complex(nu_re, nu_im), x)
    bits = int(3.33 * dps) + 20
    if nu_im == 0.0:
        s_fix, w_fix = _sum_real(nu_re, x, dps, bits, False)[:2]
    else:
        s_fix, w_fix = _sum_complex(nu_re, nu_im, x, dps, bits)
    with MP_LOCK, mp.workdps(dps):
        nu = mp.mpf(nu_re) if nu_im == 0.0 else mp.mpc(nu_re, nu_im)
        s = _fixed_to_mp(s_fix, bits)
        pref = mp.power(mp.mpf(x) / 2, nu) / mp.gamma(nu + 1)
        return pref * s, pref * (nu * s + 2 * _fixed_to_mp(w_fix, bits)) / x


def _order_sums(nu: float, x: float) -> tuple[int, int, int, int, int]:
    """(S, nu S + 2W, -A, S - nu A - 2B, D) for real order nu >= 0:
    four exact values as ints over the common power of two D.

    S and nu S + 2W are J and x J' divided by the prefactor
    P = (x/2)^nu / Gamma(nu+1), which is positive for nu >= 0, so they
    carry the signs and zeros of J and J'.  With d_nu t_m = -t_m H_m,
    the next two are their order derivatives (W = sum_m m t_m,
    A = sum_m t_m H_m, B = sum_m m t_m H_m).  All four come from one
    integer loop with nu taken as an exact ratio, whose denominator is a
    power of two, and are combined exactly in ints; a caller rounds a
    ratio of two of them, or their combination, once.  No prefactor, no
    mpmath, no cache.
    """
    dps = working_dps(complex(nu), x)
    bits = int(3.33 * dps) + 20
    s, w, a, b = _sum_real(nu, x, dps, bits, True)
    n, d = nu.as_integer_ratio()
    one = 1 << bits
    return (d * s * one, (n * s + 2 * d * w) * one, -d * a,
            d * s * one - n * a - 2 * d * b, d * one * one)


def _lommel_integral(nu: float, x: float) -> float:
    """integral_0^x J(nu, t)^2 dt/t for real order nu > 0, in closed form.

    Lommel's integral in the limit mu -> nu (DLMF 10.22, Watson 5.11)
    gives it as (x/2nu) (J d_nu J' - J' d_nu J).  With J = P S and
    J' = (P/x)(nu S + 2W), the order derivative of the prefactor,
    P (ln(x/2) - psi(nu+1)), cancels from that combination, and with the
    values of _order_sums

        integral = P^2 (S d_nu(nu S + 2W) - (nu S + 2W) d_nu S) / (2 nu)
                 = P^2 (S^2 - 2 S B + 2 W A) / (2 nu),

    combined exactly in ints; P is formed as in _series_cached.  One
    expression serves both parities, so it does not rely on J or J'
    vanishing exactly at a rounded root.
    """
    s, e, ds, de, den = _order_sums(nu, x)
    with MP_LOCK, mp.workdps(working_dps(complex(nu), x)):
        pref = mp.power(mp.mpf(x) / 2, nu) / mp.gamma(mp.mpf(nu) + 1)
        comb = mp.mpf(s * de - e * ds) / (den * den)
        return float(pref * pref * comb / (2 * nu))


def _entry(nu: complex, x: float) -> tuple:
    """(J, J') as mpmath values, with the conjugation and
    negative-integer reductions of bessel_j_mp applied to both."""
    if x <= 0.0 or not math.isfinite(x):
        raise ValueError(f"argument must be positive and finite, got {x}")
    nu = complex(nu)
    k = _is_negative_integer(nu)
    if k is not None:
        vals = _series_cached(float(-k), 0.0, float(x))
        fix = operator.neg if k % 2 else operator.pos
    elif nu.imag < 0.0:
        vals = _series_cached(nu.real, -nu.imag, float(x))
        fix = mp.conj
    else:
        vals = _series_cached(nu.real, nu.imag, float(x))
        fix = None
    return vals if fix is None else tuple(fix(v) for v in vals)


def bessel_j_mp(nu: complex, x: float):
    """Bessel J of the first kind as an mpmath value.

    Orders with negative imaginary part are evaluated at the conjugate
    order and conjugated back, so J(conj nu, x) == conj(J(nu, x)) holds
    bit-for-bit.  Negative integer orders reduce to J(-n) = (-1)^n J(n).
    """
    return _entry(nu, x)[0]


def _to_py(val, want_complex: bool):
    if isinstance(val, mp.mpc) and not want_complex:
        val = val.real
    if want_complex:
        out = complex(val)
        if not (math.isfinite(out.real) and math.isfinite(out.imag)):
            raise NonFiniteValueError("non-finite Bessel value")
        return out
    out = float(val)
    if not math.isfinite(out):
        raise NonFiniteValueError("non-finite Bessel value")
    return out


def _order_is_complex(nu) -> bool:
    return isinstance(nu, complex) and nu.imag != 0.0


def bessel_j(nu, x: float):
    """J(nu, x) for real or complex order, real x > 0.

    Returns float for real order, complex otherwise.
    """
    val = bessel_j_mp(nu, x)
    return _to_py(val, _order_is_complex(nu))


def bessel_j_derivs_mp(nu: complex, x: float, n: int) -> list:
    """[J, J', ..., J^(n)] of J(nu, .) at x as mpmath values.

    J and J' are read off one series entry.  Higher derivatives follow
    from Bessel's equation differentiated k times,

        x^2 y^(k+2) = -[(2k+1) x y^(k+1) + (x^2 + k^2 - nu^2) y^(k)
                        + 2k x y^(k-1) + k(k-1) y^(k-2)],

    run once up the column at ten digits above the working precision of
    (nu, x), whatever precision the caller has set; entry k does not
    depend on n.

    Small-x limit: for an integer order below k the derivative y^(k) is
    far smaller than the terms that cancel to give it, and each step
    loses about 2 log10(1/x) digits; against mpmath at 120 digits,
    J^(5)(0, 1e-3) is off by 1.05e-11 relative and J^(6)(1, 1e-3) by
    8.8e-8.  A non-integer order, such as every eigen-order, has
    y^(k) ~ x^(nu-k), as large as the terms, and loses no such digits.
    """
    if not 0 <= n <= 12:
        raise ValueError(f"derivative order must be in [0, 12], got {n}")
    ys = list(_entry(nu, x))
    if n <= 1:
        return ys[:n + 1]
    nu = complex(nu)
    with MP_LOCK, mp.workdps(working_dps(nu, x) + 10):
        xm = mp.mpf(x)
        x2 = xm * xm
        nu2 = (mp.mpc(nu) if nu.imag else mp.mpf(nu.real)) ** 2
        for k in range(n - 1):
            acc = (2 * k + 1) * xm * ys[k + 1] + (x2 + k * k - nu2) * ys[k]
            if k >= 1:
                acc += 2 * k * xm * ys[k - 1]
            if k >= 2:
                acc += k * (k - 1) * ys[k - 2]
            ys.append(-acc / x2)
    return ys


def bessel_j_dn(nu, x: float, n: int):
    """n-th derivative of J in its argument; see bessel_j_derivs_mp."""
    val = bessel_j_derivs_mp(nu, x, n)[n]
    return _to_py(val, _order_is_complex(nu))


def lommel_residual(nu, x: float) -> float:
    """Deviation from the cross-product identity

        J(nu,x) J'(-nu,x) - J'(nu,x) J(-nu,x) = -2 sin(nu pi) / (pi x).

    Returns the absolute residual; zero for nu = 0 by symmetry.
    """
    nu = complex(nu)
    with MP_LOCK, mp.workdps(working_dps(nu, x) + 5):
        jp, djp = _entry(nu, x)
        jm, djm = _entry(-nu, x)
        nupi = mp.pi * mp.mpc(nu) if nu.imag else mp.pi * mp.mpf(nu.real)
        resid = jp * djm - djp * jm + 2 * mp.sin(nupi) / (mp.pi * mp.mpf(x))
        return float(abs(resid))
