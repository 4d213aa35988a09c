"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the package's own quadrature and ODE
machinery: integrals use composite Simpson on a fixed truncated interval,
profile integration uses classical fixed-step RK4.  Oracle values frozen
into the tests were produced by exactly these routines.  The exceptions are
frozen copies of replaced code: kronrod_panel_oracle, the loop-form G7/K15
panel that the straight-line panel must reproduce bit for bit, and
sampled_mode_screen, the sampled positivity screen that the closed-form
screen must agree with wherever the sampled one is sharp.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from hypstab.quadrature import _WG, _WGK, _XGK, QuadratureError
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
