"""Spherical minimal catenoids in three-dimensional hyperbolic space.

The family is parametrized by a shape parameter a > 1/2.  Everything here is
expressed through the squared warp w(s) = a*cosh(2s) - 1/2: the profile
radius is sqrt(w), the squared second fundamental form is 2*(a^2 - 1/4)/w^2,
and the rotation angle of the generating curve is a convergent quadrature.

Two global quantities drive the stability analysis: the total squared
curvature mass (finite for every member) and a curvature-versus-gradient
functional F whose negative values certify instability.  find_c0 locates
its sign change; members just past it can still be unstable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .lorentz import first_fundamental_fd
from .quadrature import (
    DEFAULT_TOL,
    QuadratureError,
    QuadratureResult,
    _root_with_bracket,
    integrate_adaptive,
    integrate_semi_infinite,
)

__all__ = [
    "SphericalCatenoid",
    "warp_rho",
    "norm_A_sq",
    "grad_norm_A",
    "sup_norm_A_sq",
    "phi",
    "embed",
    "embed_grid",
    "metric_residual",
    "total_A_sq",
    "F",
    "find_c0",
]

# Both global integrands inherit exp(-3s) decay from the leading w^{-3/2}
# term; used as the truncation hint for the semi-infinite quadratures.
DECAY_RATE = 3.0

# Coarse scan that brackets the sign change of F before root refinement.
SCAN_LO = 0.55
SCAN_HI = 1.50
SCAN_STEP = 0.05

# Tight quadrature tolerance for the rotation angle when it feeds finite
# differences: the angle error must sit far below the h^2 truncation floor.
_PHI_FD_TOL = 1e-13


@dataclass(frozen=True)
class SphericalCatenoid:
    """One member of the rotationally symmetric catenoid family, a > 1/2."""

    a: float

    def __post_init__(self) -> None:
        a = float(self.a)
        if not (math.isfinite(a) and a > 0.5):
            raise ValueError(f"shape parameter must satisfy a > 1/2, got {self.a}")
        object.__setattr__(self, "a", a)


def _warp_sq(cat: SphericalCatenoid, s: float) -> float:
    """w(s) = a*cosh(2s) - 1/2 with overflow mapped to +inf."""
    try:
        return cat.a * math.cosh(2.0 * s) - 0.5
    except OverflowError:
        return math.inf


def warp_rho(cat: SphericalCatenoid, s: float) -> float:
    """Profile radius rho(s) = sqrt(a*cosh(2s) - 1/2); positive everywhere."""
    return math.sqrt(_warp_sq(cat, s))


def norm_A_sq(cat: SphericalCatenoid, s: float) -> float:
    """Squared norm of the second fundamental form, 2*(a^2 - 1/4)/w(s)^2."""
    w = _warp_sq(cat, s)
    if math.isinf(w):
        return 0.0
    return 2.0 * (cat.a * cat.a - 0.25) / (w * w)


def grad_norm_A(cat: SphericalCatenoid, s: float) -> float:
    """Norm of the intrinsic gradient of |A|, closed form in s.

    |A|(s) = sqrt(2*(a^2 - 1/4))/w(s) gives |grad |A|| =
    sqrt(2*(a^2 - 1/4)) * 2a*|sinh 2s| / w(s)^2; even in s and decaying
    like exp(-2s).
    """
    try:
        sh = math.sinh(2.0 * s)
    except OverflowError:
        return 0.0
    w = _warp_sq(cat, s)
    if math.isinf(w):
        return 0.0
    return math.sqrt(2.0 * (cat.a * cat.a - 0.25)) * 2.0 * cat.a * abs(sh) / (w * w)


def sup_norm_A_sq(cat: SphericalCatenoid) -> float:
    """Supremum of |A|^2, attained on the neck circle s = 0.

    Equals 2*(a^2 - 1/4)/(a - 1/2)^2 = 2*(a + 1/2)/(a - 1/2); decreasing in
    a and crossing every positive level exactly once.
    """
    return 2.0 * (cat.a + 0.5) / (cat.a - 0.5)


@lru_cache(maxsize=8192)
def _phi_abs(a: float, s_abs: float, tol: float) -> float:
    """Rotation angle at s_abs >= 0 for shape parameter a (cached)."""
    if s_abs == 0.0:
        return 0.0

    def integrand(u: float) -> float:
        try:
            c = math.cosh(2.0 * u)
        except OverflowError:
            return 0.0
        w = a * c - 0.5
        return 1.0 / ((w + 1.0) * math.sqrt(w))

    res = integrate_adaptive(integrand, 0.0, s_abs, tol)
    return math.sqrt(a * a - 0.25) * res.value


def phi(cat: SphericalCatenoid, s: float, tol: float = DEFAULT_TOL) -> float:
    """Rotation angle phi(s) of the generating curve; odd in s.

    phi(s) = sqrt(a^2 - 1/4) * int_0^s dt / ((a*cosh 2t + 1/2) *
    sqrt(a*cosh 2t - 1/2)).  The integrand is smooth and bounded, so the
    quadrature tolerance tol transfers directly to the angle.
    """
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    value = _phi_abs(cat.a, abs(float(s)), float(tol))
    return math.copysign(value, s) if s != 0.0 else 0.0


def embed(
    cat: SphericalCatenoid, s: float, theta: float, tol: float = DEFAULT_TOL
) -> tuple[float, float, float, float]:
    """Isometric embedding into the hyperboloid model of hyperbolic 3-space.

    f(s, theta) = (B cosh phi, B sinh phi, rho cos theta, rho sin theta)
    with B(s) = sqrt(a*cosh 2s + 1/2) and rho(s) the profile radius; the
    Minkowski square is -B^2 + rho^2 = -1 identically, independent of the
    accuracy of phi.
    """
    w = _warp_sq(cat, s)
    big = math.sqrt(w + 1.0)
    rho = math.sqrt(w)
    p = phi(cat, s, tol)
    return (
        big * math.cosh(p),
        big * math.sinh(p),
        rho * math.cos(theta),
        rho * math.sin(theta),
    )


def embed_grid(
    cat: SphericalCatenoid,
    s_values: Sequence[float],
    theta_values: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """`embed` over the grid s_values x theta_values, s outer: an
    (len(s_values) * len(theta_values), 4) array whose rows equal the
    `embed` coordinates bit for bit.

    The first two coordinates depend on s alone and the last two are
    rho(s) times cos or sin theta, so each transcendental is evaluated once
    per axis value, with `math` as in `embed`.
    """
    s_axis = [float(s) for s in s_values]
    cos_t = np.array([math.cos(float(t)) for t in theta_values])
    sin_t = np.array([math.sin(float(t)) for t in theta_values])
    x1, x2, rho = [], [], []
    for s in s_axis:
        w = _warp_sq(cat, s)
        big = math.sqrt(w + 1.0)
        p = phi(cat, s, tol)
        x1.append(big * math.cosh(p))
        x2.append(big * math.sinh(p))
        rho.append(math.sqrt(w))
    out = np.empty((len(s_axis), len(cos_t), 4))
    out[:, :, 0] = np.array(x1)[:, None]
    out[:, :, 1] = np.array(x2)[:, None]
    out[:, :, 2] = np.multiply.outer(rho, cos_t)
    out[:, :, 3] = np.multiply.outer(rho, sin_t)
    return out.reshape(-1, 4)


def metric_residual(cat: SphericalCatenoid, s: float, theta: float) -> float:
    """Worst deviation of the finite-difference first fundamental form from
    the closed form ds^2 + rho^2 dtheta^2 at (s, theta).

    Central differences of the embedding with step `lorentz.FD_STEP` (1e-5);
    the rotation angle is computed to 1e-13 so quadrature noise stays far
    below the step^2 truncation error of the differences.  Small values
    certify that the embedding, the profile radius, and the rotation angle
    are mutually consistent.
    """
    e_fd, f_fd, g_fd = first_fundamental_fd(
        lambda u, v: embed(cat, u, v, _PHI_FD_TOL), s, theta
    )
    return max(abs(e_fd - 1.0), abs(f_fd), abs(g_fd - _warp_sq(cat, s)))


def _mass_integrand(a: float, s: float) -> float:
    try:
        c = math.cosh(2.0 * s)
    except OverflowError:
        return 0.0
    w = a * c - 0.5
    return w**-1.5


def total_A_sq(cat: SphericalCatenoid, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Total squared curvature mass int |A|^2 dv over the whole surface.

    Rotational symmetry and the even profile reduce it to
    8*pi*(a^2 - 1/4) * int_0^inf w(s)^{-3/2} ds.
    """
    a = cat.a
    pref = 8.0 * math.pi * (a * a - 0.25)
    res = integrate_semi_infinite(
        partial(_mass_integrand, a), tol, decay_hint=DECAY_RATE
    )
    return QuadratureResult(pref * res.value, pref * res.error_estimate, res.evaluations)


def _f_integrand(a: float, s: float) -> float:
    try:
        c = math.cosh(2.0 * s)
        sh = math.sinh(2.0 * s)
    except OverflowError:
        return 0.0
    w = a * c - 0.5
    return w**-1.5 - a * a * sh * sh * w**-3.5


def F(cat: SphericalCatenoid, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Curvature-versus-gradient functional along the catenoid family.

    F(a) = 32*pi*(a^2 - 1/4) * int_0^inf [w^{-3/2} - a^2 sinh^2(2s) w^{-7/2}] ds,
    which equals 4*int |A|^2 dv - int |grad |A||^2 dv.  Negative F
    certifies an unstable member; F changes sign exactly once on the scan
    window, at the threshold located by find_c0.  The two terms share the
    exp(-3s) leading order but it cancels in the difference, so the stated
    decay hint is conservative.
    """
    a = cat.a
    pref = 32.0 * math.pi * (a * a - 0.25)
    res = integrate_semi_infinite(
        partial(_f_integrand, a), tol, decay_hint=DECAY_RATE
    )
    return QuadratureResult(pref * res.value, pref * res.error_estimate, res.evaluations)


def _locate_c0(tol: float, quad_tol: float) -> tuple[float, float, float]:
    """Scan for the sign change of F, then refine; returns (root, lo, hi)."""
    steps = int(round((SCAN_HI - SCAN_LO) / SCAN_STEP))
    grid = [SCAN_LO + SCAN_STEP * k for k in range(steps + 1)]
    bracket = None
    prev_a = grid[0]
    prev_f = F(SphericalCatenoid(prev_a), quad_tol).value
    for a in grid[1:]:
        cur_f = F(SphericalCatenoid(a), quad_tol).value
        if prev_f == 0.0:
            return prev_a, prev_a, prev_a
        if (prev_f < 0.0) != (cur_f < 0.0):
            bracket = (prev_a, a, (prev_f, cur_f))
            break
        prev_a, prev_f = a, cur_f
    if bracket is None:
        raise QuadratureError(
            f"no sign change of F on the scan window "
            f"[{SCAN_LO}, {grid[-1]}] with step {SCAN_STEP}"
        )

    lo, hi, ends = bracket
    root, b_lo, b_hi = _root_with_bracket(
        lambda a: F(SphericalCatenoid(a), quad_tol).value, lo, hi, tol, ends
    )
    return root, b_lo, b_hi


def find_c0(tol: float = 1e-4, quad_tol: float = DEFAULT_TOL) -> float:
    """Shape parameter at which F changes sign, to bracket width tol.

    Scans a in [0.55, 1.50] with step 0.05 for a sign change of F, then
    refines with the bracketed root finder.  Each F evaluation uses the
    quadrature tolerance quad_tol, which must sit well below the scale of F
    near the root for the sign tests to be trustworthy.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    root, _, _ = _locate_c0(tol, quad_tol)
    return root
