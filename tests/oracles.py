"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the package's own quadrature and ODE
machinery: integrals use composite Simpson on a fixed truncated interval,
profile integration uses classical fixed-step RK4.  Oracle values frozen
into the tests were produced by exactly these routines.  The exceptions are
frozen copies of replaced code: kronrod_panel_oracle, the loop-form G7/K15
panel that the straight-line panel must reproduce bit for bit,
sampled_mode_screen, the sampled positivity screen that the closed-form
screen must agree with wherever the sampled one is sharp,
rotation_angle_reference, the quadrature of the rotation-angle integrand
that the closed-form angle replaced (with mpmath where that quadrature
cannot reach), and f_quadrature_reference and mass_quadrature_reference,
the semi-infinite quadratures that the closed forms of F and the curvature
mass replaced.  The *_carlson_reference functions evaluate those closed
forms in mpmath at 50 digits, and f_integrand_mpmath_reference integrates
F's original integrand in mpmath, independent of the closed form.  The
*_fd_reference functions are the finite-difference certifiers in the form
that the one-block versions replaced: scalar `embed` points differenced one
coordinate at a time, multiplied by a left-to-right scalar Minkowski loop.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from hypstab import helicoid, spherical_catenoid
from hypstab.lorentz import FD_STEP
from hypstab.quadrature import (
    _WG,
    _WGK,
    _XGK,
    QuadratureError,
    QuadratureResult,
    integrate_adaptive,
    integrate_semi_infinite,
)
from hypstab.spectral import _catenoid_profiles


def simpson(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, cells: int) -> float:
    """Composite Simpson with `cells` even subdivisions of [lo, hi]."""
    if cells % 2 != 0:
        raise ValueError("Simpson needs an even cell count")
    s = np.linspace(lo, hi, cells + 1)
    y = f(s)
    return float((hi - lo) / (3.0 * cells) * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2])))


def mass_integral_oracle(a: float, cutoff: float = 40.0, cells: int = 200_000) -> float:
    """8 pi (a^2 - 1/4) int_0^cutoff (a cosh 2s - 1/2)^{-3/2} ds.

    The integrand decays like e^{-3s}; at the default cutoff the discarded
    tail is below e^{-115}, far under double precision.
    """

    def integrand(s: np.ndarray) -> np.ndarray:
        return (a * np.cosh(2.0 * s) - 0.5) ** -1.5

    return 8.0 * math.pi * (a * a - 0.25) * simpson(integrand, 0.0, cutoff, cells)


def f_functional_oracle(a: float, cutoff: float = 40.0, cells: int = 200_000) -> float:
    """32 pi (a^2 - 1/4) int_0^cutoff [w^{-3/2} - a^2 sinh^2(2s) w^{-7/2}] ds."""

    def integrand(s: np.ndarray) -> np.ndarray:
        w = a * np.cosh(2.0 * s) - 0.5
        return w**-1.5 - a * a * np.sinh(2.0 * s) ** 2 * w**-3.5

    return 32.0 * math.pi * (a * a - 0.25) * simpson(integrand, 0.0, cutoff, cells)


def grad_mass_integral_oracle(a: float, cutoff: float = 40.0, cells: int = 200_000) -> float:
    """32 pi a^2 (a^2 - 1/4) int_0^cutoff sinh^2(2s) w^{-7/2} ds, the total
    squared gradient of |A| over the surface."""

    def integrand(s: np.ndarray) -> np.ndarray:
        w = a * np.cosh(2.0 * s) - 0.5
        return np.sinh(2.0 * s) ** 2 * w**-3.5

    return 32.0 * math.pi * a * a * (a * a - 0.25) * simpson(integrand, 0.0, cutoff, cells)


def rotation_angle_oracle(a: float, s_end: float, cells: int = 200_000) -> float:
    """sqrt(a^2 - 1/4) int_0^s_end dt / ((a cosh 2t + 1/2) sqrt(a cosh 2t - 1/2))."""

    def integrand(s: np.ndarray) -> np.ndarray:
        w = a * np.cosh(2.0 * s) - 0.5
        return 1.0 / ((w + 1.0) * np.sqrt(w))

    return math.sqrt(a * a - 0.25) * simpson(integrand, 0.0, s_end, cells)


def rotation_angle_reference(a: float, s_end: float) -> float:
    """The rotation angle sqrt(a^2 - 1/4) int_0^s_end dt / ((w + 1) sqrt(w)),
    w = a cosh 2t - 1/2, by quadrature of that integrand: the package's
    adaptive G7/K15 rule at tol 1e-13 for a >= 0.51, and mpmath's
    tanh-sinh rule at 20 digits closer to 1/2, where the peak of width
    sqrt(a - 1/2) at t = 0 defeats the adaptive rule's budget."""
    if a >= 0.51:

        def integrand(t: float) -> float:
            w = a * math.cosh(2.0 * t) - 0.5
            return 1.0 / ((w + 1.0) * math.sqrt(w))

        return math.sqrt(a * a - 0.25) * integrate_adaptive(integrand, 0.0, s_end, 1e-13).value

    import mpmath

    with mpmath.workdps(20):
        am, half = mpmath.mpf(a), mpmath.mpf(0.5)
        eps = am - half

        def integrand_mp(t):
            w = am * mpmath.cosh(2 * t) - half
            return 1 / ((w + 1) * mpmath.sqrt(w))

        # split at multiples of the peak width so each piece is smooth on its scale
        cuts = [k * mpmath.sqrt(eps) for k in (1, 10, 100, 1000, 10000)]
        points = [0] + [c for c in cuts if c < s_end] + [mpmath.mpf(s_end)]
        return float(mpmath.sqrt(eps * (am + half)) * mpmath.quad(integrand_mp, points))


def _mass_integrand(a: float, s: float) -> float:
    try:
        c = math.cosh(2.0 * s)
    except OverflowError:
        return 0.0
    w = a * c - 0.5
    return w**-1.5


def _f_integrand(a: float, s: float) -> float:
    try:
        c = math.cosh(2.0 * s)
        sh = math.sinh(2.0 * s)
    except OverflowError:
        return 0.0
    w = a * c - 0.5
    return w**-1.5 - a * a * sh * sh * w**-3.5


def _scaled_semi_infinite(integrand, pref: float, a: float, tol: float) -> QuadratureResult:
    # both integrands decay like exp(-3s), from the leading w^{-3/2} term
    res = integrate_semi_infinite(lambda s: integrand(a, s), tol, decay_hint=3.0)
    return QuadratureResult(pref * res.value, pref * res.error_estimate, res.evaluations)


def mass_quadrature_reference(a: float, tol: float = 1e-13) -> QuadratureResult:
    """8 pi (a^2 - 1/4) int_0^inf w^{-3/2} ds by the package's semi-infinite
    G7/K15 quadrature: the curvature mass as computed before its closed
    form.  Fails or loses its error bound for large a."""
    return _scaled_semi_infinite(_mass_integrand, 8.0 * math.pi * (a * a - 0.25), a, tol)


def f_quadrature_reference(a: float, tol: float = 1e-13) -> QuadratureResult:
    """32 pi (a^2 - 1/4) int_0^inf [w^{-3/2} - a^2 sinh^2(2s) w^{-7/2}] ds by
    the package's semi-infinite G7/K15 quadrature: F as computed before its
    closed form.  Fails or loses its error bound for large a."""
    return _scaled_semi_infinite(_f_integrand, 32.0 * math.pi * (a * a - 0.25), a, tol)


def _carlson_mp(a: float):
    """(a^2 - 1/4, R_D(0, 2a, a - 1/2), R_F(0, 2a, a - 1/2)) in mpmath at
    the working precision of the caller."""
    import mpmath

    am = mpmath.mpf(a)
    alpha = am - mpmath.mpf(0.5)
    r_d = mpmath.elliprd(0, 2 * am, alpha)
    r_f = mpmath.elliprf(0, 2 * am, alpha)
    return alpha * (am + mpmath.mpf(0.5)), r_d, r_f


def f_carlson_reference(a: float) -> float:
    """(32 pi / 45) [(9 (a^2 - 1/4) - 2) R_D(0, 2a, a - 1/2) - 3 R_F(...)]
    at 50 digits, rounded once."""
    import mpmath

    with mpmath.workdps(50):
        a2q, r_d, r_f = _carlson_mp(a)
        return float(32 * mpmath.pi / 45 * ((9 * a2q - 2) * r_d - 3 * r_f))


def mass_carlson_reference(a: float) -> float:
    """(8 pi / 3) (a^2 - 1/4) R_D(0, 2a, a - 1/2) at 50 digits, rounded once."""
    import mpmath

    with mpmath.workdps(50):
        a2q, r_d, _ = _carlson_mp(a)
        return float(8 * mpmath.pi / 3 * a2q * r_d)


def f_integrand_mpmath_reference(a: float) -> float:
    """F by mpmath's tanh-sinh quadrature of its original integrand at 30
    digits, split where the integrand changes scale; about 0.1 s a call."""
    import mpmath

    with mpmath.workdps(30):
        am, half = mpmath.mpf(a), mpmath.mpf(0.5)

        def integrand(s):
            w = am * mpmath.cosh(2 * s) - half
            return w**-1.5 - am * am * mpmath.sinh(2 * s) ** 2 * w**-3.5

        width = mpmath.sqrt(am - half)
        cuts = sorted({width, 10 * width, mpmath.mpf(1), mpmath.mpf(3), mpmath.mpf(8)})
        points = [0] + [c for c in cuts if c <= 8] + [mpmath.inf]
        return float(32 * mpmath.pi * (am * am - mpmath.mpf(0.25)) * mpmath.quad(integrand, points))


def c0_carlson_reference() -> float:
    """Sign change of F by mpmath's secant root finder on the 50-digit
    closed form, started at a = 0.7341."""
    import mpmath

    with mpmath.workdps(50):

        def f(a):
            a2q, r_d, r_f = _carlson_mp(a)
            return (9 * a2q - 2) * r_d - 3 * r_f

        return float(mpmath.findroot(f, mpmath.mpf("0.7341")))


def c0_oracle(cells: int = 20_000) -> float:
    """Sign change of the catenoid functional by plain bisection over
    Simpson evaluations; accurate to the 1e-6 bisection width."""
    lo, hi = 0.70, 0.76
    f_lo = f_functional_oracle(lo, cells=cells)
    f_hi = f_functional_oracle(hi, cells=cells)
    assert f_lo < 0.0 < f_hi
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if f_functional_oracle(mid, cells=cells) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rk4_profile_oracle(
    n: int, t: float, s_end: float, h: float, launch: float = 1e-3
) -> tuple[float, float]:
    """(x, x') of the catenoid profile at s_end by fixed-step RK4.

    Launches from the quartic Taylor state at `launch` (the start itself is
    a degenerate point of the arclength parametrization) and takes uniform
    steps of size h from there.
    """
    a = t ** (n - 1) * math.sqrt(t * t - 1.0)
    a_sq = a * a

    def accel(x: float) -> float:
        return x + (n - 1) * a_sq * x ** (1 - 2 * n)

    c = accel(t)
    g_prime = 1.0 + (n - 1) * (1 - 2 * n) * a_sq * t ** (-2 * n)
    s0 = launch
    x = t + 0.5 * c * s0 * s0 + g_prime * c * s0**4 / 24.0
    v = c * s0 + g_prime * c * s0**3 / 6.0

    steps = int(round((s_end - s0) / h))
    hh = (s_end - s0) / steps
    for _ in range(steps):
        k1x, k1v = v, accel(x)
        k2x, k2v = v + 0.5 * hh * k1v, accel(x + 0.5 * hh * k1x)
        k3x, k3v = v + 0.5 * hh * k2v, accel(x + 0.5 * hh * k2x)
        k4x, k4v = v + hh * k3v, accel(x + hh * k3x)
        x += hh * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        v += hh * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
    return x, v


def csv_rows_oracle(rows, ncols: int) -> str:
    """The numeric body of a CSV table: every value through one "%.15g"
    row template, rows joined by newlines, no trailing newline."""
    values = [float(v) for row in rows for v in row]
    if not values:
        return ""
    template = ",".join(["%.15g"] * ncols)
    return "\n".join([template] * (len(values) // ncols)) % tuple(values)


def _eval_checked(f: Callable[[float], float], x: float) -> float:
    y = f(x)
    if not math.isfinite(y):
        raise QuadratureError(
            f"integrand returned non-finite value {y!r} at abscissa {x!r}",
            abscissa=x,
        )
    return float(y)


def kronrod_panel_oracle(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """One G7/K15 evaluation on [lo, hi] in the loop form: each value checked
    as it is computed, the sums accumulated left to right."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)

    f_mid = _eval_checked(f, mid)
    resg = _WG[3] * f_mid
    resk = _WGK[7] * f_mid
    fv = [f_mid] * 15
    for j in range(7):
        x_off = half * _XGK[j]
        f_lo = _eval_checked(f, mid - x_off)
        f_hi = _eval_checked(f, mid + x_off)
        fv[j] = f_lo
        fv[14 - j] = f_hi
        resk += _WGK[j] * (f_lo + f_hi)
        if j % 2 == 1:
            resg += _WG[j // 2] * (f_lo + f_hi)

    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(f_mid - reskh)
    for j in range(7):
        resasc += _WGK[j] * (abs(fv[j] - reskh) + abs(fv[14 - j] - reskh))

    value = resk * half
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return value, err


_SCREEN_SPAN = 20.0  # beyond this the potential is within 2^-100 of its limit 2
_SCREEN_POINTS = 4001


def sampled_mode_screen(cat, m: int) -> bool:
    """Certify q_m >= 0 everywhere, which makes mode m positive without any
    eigenvalue computation.

    Checks a dense grid on [0, 20]; the potential is even in s, and beyond
    that span it sits within 2^-100 of its limit 2, so the grid covers all
    possible dips.  Between nodes the potential can fall below the smaller
    endpoint by at most h^2 max|q''|/8, estimated from the largest second
    difference with a 4x safety factor.  Conservative: returns False near
    the boundary of positivity and never certifies a negative mode.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"mode must be a nonnegative integer, got {m!r}")
    _, q = _catenoid_profiles(cat, m)
    s = np.linspace(0.0, _SCREEN_SPAN, _SCREEN_POINTS)
    values = q(s)
    curvature = float(np.max(np.abs(values[2:] - 2.0 * values[1:-1] + values[:-2])))
    return bool(float(np.min(values)) - 0.5 * curvature >= 0.0)


# a*, where the boundary-angle slope changes sign and the spherical index
# drops from 1 to 0: the critical point of phi_inf in 40-digit mpmath
INDEX_THRESHOLD = 0.76660128910422


def boundary_angle_slope_reference(a: float) -> float:
    """a^{3/2} dphi_inf/da by mpmath's numerical derivative of phi's Carlson
    form at s = inf, phi_inf = sqrt(y / (a + 1/2)) (R_F(0, y, 1) - 2a y
    R_J(0, y, 1, p) / (3 (a + 1/2))), y = (a - 1/2)/(2a), p = (a - 1/2)/(a +
    1/2), at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        half = mpmath.mpf(0.5)

        def phi_inf(a):
            y, p = (a - half) / (2 * a), (a - half) / (a + half)
            r_j = mpmath.elliprj(0, y, 1, p)
            return mpmath.sqrt(y / (a + half)) * (
                mpmath.elliprf(0, y, 1) - 2 * a * y * r_j / (3 * (a + half))
            )

        am = mpmath.mpf(a)
        return float(am**1.5 * mpmath.diff(phi_inf, am))


def _minkowski_loop(x, y) -> float:
    acc = -x[0] * y[0]
    for xi, yi in zip(x[1:], y[1:]):
        acc += xi * yi
    return acc


def _first_fd_reference(embed, u: float, v: float) -> tuple[float, float, float]:
    inv = 0.5 / FD_STEP

    def central(plus, minus):
        return tuple((p - m) * inv for p, m in zip(plus, minus))

    d_u = central(embed(u + FD_STEP, v), embed(u - FD_STEP, v))
    d_v = central(embed(u, v + FD_STEP), embed(u, v - FD_STEP))
    return _minkowski_loop(d_u, d_u), _minkowski_loop(d_u, d_v), _minkowski_loop(d_v, d_v)


def helicoid_first_fd_reference(h, s: float, t: float) -> tuple[float, float, float]:
    return _first_fd_reference(lambda u, v: helicoid.embed(h, u, v), s, t)


def metric_residual_fd_reference(cat, s: float, theta: float) -> float:
    e, f, g = _first_fd_reference(lambda u, v: spherical_catenoid.embed(cat, u, v), s, theta)
    return max(abs(e - 1.0), abs(f), abs(g - spherical_catenoid._warp_sq(cat, s)))


def helicoid_second_fd_reference(h, s: float, t: float) -> tuple[float, float, float]:
    """The nine-point stencil with step 3e-4, one scalar `embed` per point."""
    step = 3e-4
    embed = helicoid.embed
    nrm = helicoid.normal(h, s, t)
    x_00 = embed(h, s, t)
    inv_sq = 1.0 / (step * step)
    x_ss = tuple(
        (p - 2.0 * c + m) * inv_sq
        for p, c, m in zip(embed(h, s + step, t), x_00, embed(h, s - step, t))
    )
    x_tt = tuple(
        (p - 2.0 * c + m) * inv_sq
        for p, c, m in zip(embed(h, s, t + step), x_00, embed(h, s, t - step))
    )
    inv_cross = 0.25 * inv_sq
    x_st = tuple(
        (pp - pm - mp + mm) * inv_cross
        for pp, pm, mp, mm in zip(
            embed(h, s + step, t + step),
            embed(h, s + step, t - step),
            embed(h, s - step, t + step),
            embed(h, s - step, t - step),
        )
    )
    return _minkowski_loop(x_ss, nrm), _minkowski_loop(x_st, nrm), _minkowski_loop(x_tt, nrm)
