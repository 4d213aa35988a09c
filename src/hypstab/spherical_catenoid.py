"""Spherical minimal catenoids in three-dimensional hyperbolic space.

The family is parametrized by a shape parameter a > 1/2.  Everything here is
expressed through the squared warp w(s) = a*cosh(2s) - 1/2: the profile
radius is sqrt(w), the squared second fundamental form is 2*(a^2 - 1/4)/w^2,
and the rotation angle of the generating curve is an incomplete elliptic
integral of the third kind in Carlson's symmetric forms R_F and R_J.

Two global quantities drive the stability analysis: the total squared
curvature mass (finite for every member) and a curvature-versus-gradient
functional F whose negative values certify instability.  find_c0 locates
its sign change; members just past it can still be unstable.

Both are closed forms.  With alpha = a - 1/2 and J_p = int_0^inf w^{-p} ds,
the substitution w = t + alpha, ds = dt / (2 sqrt(t (t + 2a))), gives
J_{3/2} = R_D / 3 and J_{5/2} = (2 R_D + 3 R_F) / (9 alpha (a + 1/2)), with
Carlson's R_D and R_F at (0, 2a, alpha); by homogeneity they are
alpha^{-3/2} R_D(0, r, 1) and alpha^{-1/2} R_F(0, r, 1), r = 2a/alpha.  The
mass is 8 pi (a^2 - 1/4) J_{3/2}.  Integrating F's gradient term by parts
with dw/ds = 2a sinh 2s gives (2/5)(J_{3/2} + J_{5/2} / 2), so
F(a) = (32 pi / 45) [(9 (a^2 - 1/4) - 2) R_D - 3 R_F].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lorentz import FD_STEP, first_fundamental_fd
from .quadrature import (
    QuadratureResult,
    _root_with_bracket,
    integrate_adaptive,
    integrate_semi_infinite,
)

# integrate_semi_infinite and integrate_adaptive are not called here (F and
# total_A_sq are closed forms).  They stay importable from this module
# because bench/tracing.py wraps them by name, as it wraps _root_with_bracket.

__all__ = [
    "SphericalCatenoid",
    "warp_rho",
    "norm_A_sq",
    "grad_norm_A",
    "sup_norm_A_sq",
    "phi",
    "boundary_angle_slope",
    "embed",
    "embed_grid",
    "metric_residual",
    "total_A_sq",
    "F",
    "find_c0",
]

# Window on which F changes sign exactly once: the root finder's bracket.
SCAN_LO = 0.55
SCAN_HI = 1.50


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


def _norm_A_sq(a: float, inv_w: float | np.ndarray) -> float | np.ndarray:
    """|A|^2 = 2 (a^2 - 1/4) / w^2 from a and inv_w = 1/w, factored so that
    no a^2 and no w^2 is formed: nothing overflows, and a - 1/2 is exact
    near a = 1/2.  Operators only, so inv_w may be an array."""
    return 2.0 * ((a - 0.5) * inv_w) * ((a + 0.5) * inv_w)


def norm_A_sq(cat: SphericalCatenoid, s: float) -> float:
    """Squared norm of the second fundamental form, 2*(a^2 - 1/4)/w(s)^2."""
    return _norm_A_sq(cat.a, 1.0 / _warp_sq(cat, s))


def grad_norm_A(cat: SphericalCatenoid, s: float) -> float:
    """Norm of the intrinsic gradient of |A|, closed form in s.

    |A|(s) = sqrt(2*(a^2 - 1/4))/w(s) and w' = 2a sinh 2s give |grad |A||
    = |A| * 2a*|sinh 2s| / w(s), computed from `_norm_A_sq` and a/w so that
    no a^2 and no w^2 is formed; even in s and decaying like exp(-2s).
    """
    try:
        sh = math.sinh(2.0 * s)
    except OverflowError:
        return 0.0
    if math.isinf(sh):  # 2s itself overflowed, and sinh(inf) does not raise
        return 0.0
    inv_w = 1.0 / _warp_sq(cat, s)
    return math.sqrt(_norm_A_sq(cat.a, inv_w)) * 2.0 * (cat.a * inv_w) * abs(sh)


def sup_norm_A_sq(cat: SphericalCatenoid) -> float:
    """Supremum of |A|^2, attained on the neck circle s = 0.

    Equals 2*(a^2 - 1/4)/(a - 1/2)^2 = 2*(a + 1/2)/(a - 1/2); decreasing in
    a and crossing every positive level exactly once.
    """
    return 2.0 * (cat.a + 0.5) / (cat.a - 0.5)


def phi(cat: SphericalCatenoid, s: float) -> float:
    """Rotation angle phi(s) = sqrt(a^2 - 1/4) int_0^s dt / ((w + 1) sqrt(w))
    of the generating curve, w = a*cosh 2t - 1/2; odd in s.

    The substitution u = csch^2 t - csch^2 s turns the integral into
    Carlson's symmetric forms R_F and R_J.  Scaled by their homogeneity so
    that every argument lies in [0, 1], for s > 0

        phi = tanh s sqrt(y / (a + 1/2)) (R_F(x, y, 1) - 2a y tanh^2 s
              R_J(x, y, 1, (a - 1/2 + x) / (a + 1/2)) / (3 (a + 1/2)))

    with x = (a - 1/2) / w(s) and y = x cosh^2 s.  Nothing cancels near
    s = 0 or a = 1/2, and no argument grows with a or s (scipy's elliprj
    returns nan once its arguments pass about 1e103).
    """
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if s == 0.0:
        return 0.0
    # Imported on first use: at module level scipy.special would add about
    # 0.3 s to every `import hypstab.cli`, whatever the command.
    from scipy.special import elliprf, elliprj

    a = cat.a
    tanh_s = math.tanh(abs(s))
    try:
        sech_sq = 1.0 / math.cosh(s) ** 2
    except OverflowError:
        sech_sq = 0.0
    tanh_sq = tanh_s * tanh_s
    mu = (a - 0.5) / a
    y = mu / (mu * sech_sq + 2.0 * tanh_sq)
    x = y * sech_sq
    r_j = elliprj(x, y, 1.0, (a - 0.5 + x) / (a + 0.5))
    bracket = elliprf(x, y, 1.0) - 2.0 / 3.0 * (a / (a + 0.5)) * y * tanh_sq * r_j
    return math.copysign(tanh_s * math.sqrt(y / (a + 0.5)) * bracket, s)


def boundary_angle_slope(cat: SphericalCatenoid) -> QuadratureResult:
    """Scaled slope a^{3/2} dphi_inf/da of the boundary angle phi_inf = phi(inf);
    its sign decides the index (spectral.morse_index).

    At tanh s = 1, sech s = 0 phi's formula is phi_inf = sqrt(b) G(b) with
    b = 1/(2a), G = sqrt(p) (R_F(0, y, 1) - p R_J(0, y, 1, p) / 3), y =
    (a - 1/2)/(2a) and p = (a - 1/2)/(a + 1/2).  So the scaled slope is
    -(G + 2b G') / 2^{3/2}, finite where the raw slope underflows (it tends
    to -0.2995 as a grows).  G' is a complex step in b (Squire-Trapp 1998)
    through scipy's complex elliprf and elliprj, so nothing cancels.  Its
    error estimate is 16 eps of the terms' magnitudes; evaluations is 0.
    """
    from scipy.special import elliprf, elliprj  # on first use, as in phi

    b = 0.5 / cat.a
    mu = (cat.a - 0.5) / cat.a  # 1 - b without its cancellation near a = 1/2
    h = 1e-20 * mu  # the step's O(h^2) error is far below rounding
    y = complex(mu, -h) / 2.0
    p = 2.0 * y / complex(1.0 + b, h)
    t1 = cmath.sqrt(p) * complex(elliprf(0.0, y, 1.0))
    t2 = cmath.sqrt(p) * p * complex(elliprj(0.0, y, 1.0, p)) / 3.0
    g = t1 - t2
    terms = abs(t1.real) + abs(t2.real) + 2.0 * b * ((abs(t1.imag) + abs(t2.imag)) / h)
    value = -(g.real + 2.0 * b * (g.imag / h)) / 2.0**1.5
    return QuadratureResult(value, 16.0 * math.ulp(1.0) * terms / 2.0**1.5, 0)


def embed(cat: SphericalCatenoid, s: float, theta: float) -> tuple[float, float, float, float]:
    """Isometric embedding into the hyperboloid model of hyperbolic 3-space.

    f(s, theta) = (B cosh phi, B sinh phi, rho cos theta, rho sin theta)
    with B(s) = sqrt(a*cosh 2s + 1/2) and rho(s) the profile radius; the
    Minkowski square is -B^2 + rho^2 = -1 identically, independent of the
    accuracy of phi.  Row 0 of the one-point `embed_grid`; raises
    OverflowError naming a and s when a coordinate is not a finite float.
    """
    return tuple(embed_grid(cat, [s], [theta])[0].tolist())


def embed_grid(
    cat: SphericalCatenoid, s_values: Sequence[float], theta_values: Sequence[float]
) -> np.ndarray:
    """`embed` over the grid s_values x theta_values, s outer: an
    (len(s_values) * len(theta_values), 4) array of the points.

    The first two coordinates depend on s alone and the last two are
    rho(s) times cos or sin theta, so each transcendental is evaluated once
    per axis value, with `math`.  B cosh phi bounds every coordinate, so one
    check of that column finds any overflow: raises OverflowError naming a
    and the first s whose coordinates are not finite floats.
    """
    s_axis = [float(s) for s in s_values]
    rows = []
    for s in s_axis:
        w = _warp_sq(cat, s)
        big = math.sqrt(w + 1.0)
        p = phi(cat, s)
        rows.append((big * math.cosh(p), big * math.sinh(p), math.sqrt(w)))
    terms = np.array(rows).reshape(-1, 3)
    bad = np.flatnonzero(np.isinf(terms[:, 0]))
    if bad.size:
        raise OverflowError(
            f"spherical catenoid embedding overflows at a = {cat.a}, s = {s_axis[bad[0]]}"
        )
    cos_t = np.array([math.cos(float(t)) for t in theta_values])
    sin_t = np.array([math.sin(float(t)) for t in theta_values])
    out = np.empty((len(terms), len(cos_t), 4))
    out[:, :, :2] = terms[:, None, :2]
    out[:, :, 2] = np.multiply.outer(terms[:, 2], cos_t)
    out[:, :, 3] = np.multiply.outer(terms[:, 2], sin_t)
    return out.reshape(-1, 4)


def metric_residual(cat: SphericalCatenoid, s: float, theta: float) -> float:
    """Worst deviation of the finite-difference first fundamental form from
    the closed form ds^2 + rho^2 dtheta^2 at (s, theta).

    Central differences of the embedding with step `lorentz.FD_STEP` (1e-5),
    read from one 3 x 3 `embed_grid` block about (s, theta); the closed-form
    rotation angle is accurate to rounding, far below the step^2 truncation
    error of the differences.  Small values certify that the embedding, the
    profile radius, and the rotation angle are mutually consistent.
    """
    axes = [s - FD_STEP, s, s + FD_STEP], [theta - FD_STEP, theta, theta + FD_STEP]
    e_fd, f_fd, g_fd = first_fundamental_fd(embed_grid(cat, *axes))
    return max(abs(e_fd - 1.0), abs(f_fd), abs(g_fd - _warp_sq(cat, s)))


def _carlson_terms(a: float) -> tuple[float, float, float]:
    """(R_D(0, r, 1), R_F(0, r, 1), sqrt(alpha)), alpha = a - 1/2, r = 2a/alpha.
    r is 2*(a/alpha), not 2/(1 - 1/(2a)), which cancels near a = 1/2."""
    from scipy.special import elliprd, elliprf  # on first use, as in phi

    alpha = a - 0.5
    r = 2.0 * (a / alpha)
    return float(elliprd(0.0, r, 1.0)), float(elliprf(0.0, r, 1.0)), math.sqrt(alpha)


def total_A_sq(cat: SphericalCatenoid) -> QuadratureResult:
    """Total squared curvature mass int |A|^2 dv over the whole surface.

    Rotational symmetry and the even profile reduce it to 8 pi (a^2 - 1/4)
    J_{3/2} = (8 pi / 3) ((a + 1/2) / sqrt(alpha)) R_D(0, r, 1) (module
    docstring), finite up to the float maximum.  Its error estimate is 16
    eps of the value; no quadrature runs, so evaluations is 0.
    """
    r_d, _, root = _carlson_terms(cat.a)
    value = 8.0 * math.pi / 3.0 * ((cat.a + 0.5) / root) * r_d
    return QuadratureResult(value, 16.0 * math.ulp(1.0) * value, 0)


def F(cat: SphericalCatenoid) -> QuadratureResult:
    """Curvature-versus-gradient functional along the catenoid family.

    F(a) = 32*pi*(a^2 - 1/4) * int_0^inf [w^{-3/2} - a^2 sinh^2(2s) w^{-7/2}] ds,
    which equals 4*int |A|^2 dv - int |grad |A||^2 dv.  Negative F
    certifies an unstable member; F changes sign exactly once on find_c0's
    window, at its threshold c0.  By parts and in Carlson's
    forms (module docstring), F = (32 pi / 45)(t1 - t2) with t1 = (9 (a +
    1/2) / sqrt(alpha) - 2 / alpha^{3/2}) R_D(0, r, 1) and t2 = 3 R_F(0, r,
    1) / sqrt(alpha), each product finite up to the float maximum.  Its
    error estimate is 16 eps of (32 pi / 45)(|t1| + |t2|); evaluations is 0.
    """
    a = cat.a
    r_d, r_f, root = _carlson_terms(a)
    t1 = (9.0 * ((a + 0.5) / root) - (2.0 / (a - 0.5)) / root) * r_d
    t2 = 3.0 * (r_f / root)
    scale = 32.0 * math.pi / 45.0
    err = 16.0 * math.ulp(1.0) * scale * (abs(t1) + abs(t2))
    return QuadratureResult(scale * (t1 - t2), err, 0)


def _locate_c0(tol: float) -> tuple[float, float, float]:
    """Refine F's sign change on [SCAN_LO, SCAN_HI]; returns (root, lo, hi)."""
    return _root_with_bracket(
        lambda a: F(SphericalCatenoid(a)).value, SCAN_LO, SCAN_HI, tol
    )


def find_c0(tol: float = 1e-4) -> float:
    """Shape parameter at which F changes sign, to bracket width tol.

    Refines the window a in [0.55, 1.50], where F changes sign exactly once,
    with the bracketed root finder, which rejects a tol that is not finite
    and positive before any F.  Near the root F's error bound is about 1e-13
    and its slope about 260, so its sign is right wherever a is more than a
    few ulps from the root.
    """
    root, _, _ = _locate_c0(tol)
    return root
