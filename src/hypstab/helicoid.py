"""Minimal helicoids in three-dimensional hyperbolic space.

The family is parametrized by the angular pitch alpha >= 0:

    X(s, t) = (cosh s cosh t, sinh s cosh t, cos(alpha s) sinh t,
               sin(alpha s) sinh t),

which rules the surface by hyperbolic translations along a geodesic axis
combined with rotation at rate alpha.  The first fundamental form is
diagonal, E = cosh^2 t + alpha^2 sinh^2 t, G = 1, and the second
fundamental form has a single off-diagonal entry, so the surface is minimal
for every pitch.

The only stability test here is pointwise: |A|^2 <= 2 alpha^2 <= 9/4, that
is alpha^2 <= 9/8, certifies stability.  It is sufficient, not necessary.

Screw motions shift s and leave E and |A|^2, functions of t alone,
unchanged.  So the stability form Q(u) = int (|grad u|^2 + (2 - |A|^2) u^2)
dA, with Ric(nu, nu) = -2, |grad u|^2 = u_s^2 / E + u_t^2 and
dA = sqrt(E) ds dt, separates under the Fourier transform in s: the mode
g(t) e^{iks} contributes

    int (g'^2 + (k^2 / E + 2 - |A|^2) g^2) sqrt(E) dt.

A mode k != 0 only adds k^2 / E >= 0, so Q >= 0 on compactly supported u
whenever the k = 0 form is nonnegative.  Conversely, a g with negative
k = 0 form times a cutoff chi(s / L) gives Q(u) = L Q_0(g) int chi^2 + O(1/L),
negative for a long enough cutoff.  The helicoid is therefore stable
exactly when the one-dimensional k = 0 form is nonnegative.  Its lowest
eigenvalue under `spectral.discretize` changes sign near alpha = 2.18; no
verdict in this module uses that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lorentz
from .criteria import _real
from .lorentz import minkowski_inner

__all__ = [
    "Helicoid",
    "STABLE_PITCH_SQ",
    "embed",
    "embed_grid",
    "first_fundamental",
    "second_fundamental",
    "norm_A_sq",
    "sup_norm_A_sq",
    "is_stable_by_pitch",
    "normal",
    "first_fundamental_fd",
    "second_fundamental_fd",
]

STABLE_PITCH_SQ = 9.0 / 8.0

# Step of `second_fundamental_fd`.  It balances the O(step^2) truncation of
# the stencil against the eps/step^2 rounding noise of second differences;
# on the order-ten coordinates reached by |t| <= 2 the total error bottoms
# out near 2e-7 at this step.
_SECOND_FD_STEP = 3e-4


@dataclass(frozen=True)
class Helicoid:
    """Helicoid with angular pitch alpha; alpha = 0 is the totally geodesic
    plane through the axis."""

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _real(self.alpha, "pitch alpha", least=0))


def _overflow(h: Helicoid, s: float, t: float) -> OverflowError | None:
    """OverflowError naming alpha and what overflows at (s, t): the cosh of
    s, else of t, else the rotation angle alpha * s, else the product
    cosh s * cosh t; None when every coordinate there is a finite float."""
    for name, x in (("s", s), ("t", t)):
        try:
            math.cosh(x)
        except OverflowError:
            return OverflowError(
                f"helicoid embedding overflows at alpha = {h.alpha}, {name} = {x}"
            )
    if math.isinf(h.alpha * s):
        return OverflowError(
            f"helicoid rotation angle alpha * s overflows at alpha = {h.alpha}, s = {s}"
        )
    if math.isinf(math.cosh(s) * math.cosh(t)):
        return OverflowError(
            f"helicoid embedding overflows at alpha = {h.alpha}, s = {s}, t = {t}"
        )
    return None


def embed(h: Helicoid, s: float, t: float) -> tuple[float, float, float, float]:
    """Ruled embedding into the hyperboloid model; Minkowski square is -1
    identically in (s, t).  Row 0 of the one-point `embed_grid`; raises
    OverflowError naming alpha and the coordinates when a coordinate or the
    rotation angle alpha * s is not a finite float."""
    return tuple(embed_grid(h, [s], [t])[0].tolist())


def embed_grid(h: Helicoid, s_values: Sequence[float], t_values: Sequence[float]) -> np.ndarray:
    """`embed` over the grid s_values x t_values, s outer: an
    (len(s_values) * len(t_values), 4) array of the points.

    Every coordinate is a function of s times a function of t, so each
    transcendental is evaluated once per axis value, with `math`, and the
    grid is formed by outer products.  Raises OverflowError through
    `_overflow` at the point of largest |s| and |t|, where a coordinate or
    the rotation angle alpha * s is not a finite float.
    """
    al = h.alpha
    s_axis = [float(s) for s in s_values]
    t_axis = [float(t) for t in t_values]
    # Every coordinate and angle is largest in modulus where |s| and |t|
    # are, so that one point decides overflow for the whole grid.
    error = _overflow(h, max(s_axis, key=abs, default=0.0), max(t_axis, key=abs, default=0.0))
    if error is not None:
        raise error
    ch_t = [math.cosh(t) for t in t_axis]
    sh_t = [math.sinh(t) for t in t_axis]
    out = np.empty((len(s_axis), len(t_axis), 4))
    out[:, :, 0] = np.multiply.outer([math.cosh(s) for s in s_axis], ch_t)
    out[:, :, 1] = np.multiply.outer([math.sinh(s) for s in s_axis], ch_t)
    out[:, :, 2] = np.multiply.outer([math.cos(al * s) for s in s_axis], sh_t)
    out[:, :, 3] = np.multiply.outer([math.sin(al * s) for s in s_axis], sh_t)
    return out.reshape(-1, 4)


def first_fundamental(h: Helicoid, t: float) -> tuple[float, float, float]:
    """Coefficients (E, F, G) of the induced metric; independent of s.

    E = cosh^2 t + (alpha sinh t)^2, F = 0, G = 1; no alpha^2 is formed,
    so E stays finite for a huge pitch near the axis.  Raises OverflowError
    when E is not a finite float.
    """
    t = _real(t, "t")
    try:
        ch, sh = math.cosh(t), math.sinh(t)
    except OverflowError:
        ch = sh = math.inf
    e_coef = ch * ch + (h.alpha * sh) * (h.alpha * sh)
    if not math.isfinite(e_coef):
        raise OverflowError(f"helicoid metric E overflows at alpha = {h.alpha}, t = {t}")
    return e_coef, 0.0, 1.0


def second_fundamental(h: Helicoid, t: float) -> tuple[float, float, float]:
    """Coefficients (e, f, g) of the second fundamental form for the unit
    normal selected by `normal`; only the cross term survives:
    (0, -alpha/sqrt(E), 0), so the mean curvature vanishes for every pitch.
    """
    e_coef, _, _ = first_fundamental(h, t)
    return 0.0, -h.alpha / math.sqrt(e_coef), 0.0


def norm_A_sq(h: Helicoid, t: float) -> float:
    """Squared norm of the second fundamental form at ruling parameter t.

    The trace of S^2 for the shape operator S = I^-1 II of the closed forms
    (E, 0, 1) and (0, -alpha/sqrt(E), 0): 2 (alpha/E)^2.  Even in t, maximal
    on the axis t = 0, and bounded by 2 alpha^2.  Raises OverflowError when
    the value is not a finite float.
    """
    e_coef, _, _ = first_fundamental(h, t)
    ratio = h.alpha / e_coef
    value = 2.0 * ratio * ratio
    if not math.isfinite(value):
        raise OverflowError(f"helicoid |A|^2 overflows at alpha = {h.alpha}, t = {t}")
    return value


def sup_norm_A_sq(h: Helicoid) -> float:
    """Supremum 2 alpha^2 of |A|^2, attained on the axis t = 0.  Raises
    OverflowError when the value is not a finite float."""
    value = 2.0 * h.alpha * h.alpha
    if not math.isfinite(value):
        raise OverflowError(f"helicoid |A|^2 overflows at alpha = {h.alpha}")
    return value


def is_stable_by_pitch(h: Helicoid) -> bool:
    """True iff alpha^2 <= 9/8, where the pointwise test sup |A|^2 =
    2 alpha^2 <= 9/4 certifies stability.  False does not mean unstable:
    the test is sufficient, not necessary."""
    return h.alpha * h.alpha <= STABLE_PITCH_SQ


def normal(h: Helicoid, s: float, t: float) -> tuple[float, float, float, float]:
    """Unit spacelike normal to the surface inside hyperbolic space.

    The closed form (alpha sinh t sinh s, alpha sinh t cosh s,
    cosh t sin(alpha s), -cosh t cos(alpha s)) / sqrt(E), orthogonal to X,
    X_s and X_t with det[X, X_s, X_t, N] < 0, the orientation of
    `second_fundamental`'s sign.  Raises OverflowError when E does, or by
    `_overflow` at t = 0 when cosh s or alpha * s does; being bounded by
    cosh s, the normal stays finite where cosh s * cosh t overflows.
    """
    s = _real(s, "s")
    e_coef, _, _ = first_fundamental(h, t)
    error = _overflow(h, s, 0.0)
    if error is not None:
        raise error
    inv = 1.0 / math.sqrt(e_coef)
    al_sh_t = h.alpha * inv * math.sinh(t)
    ch_t = inv * math.cosh(t)
    al_s = h.alpha * s
    return (
        al_sh_t * math.sinh(s),
        al_sh_t * math.cosh(s),
        ch_t * math.sin(al_s),
        -ch_t * math.cos(al_s),
    )


def first_fundamental_fd(h: Helicoid, s: float, t: float) -> tuple[float, float, float]:
    """(E, F, G) from central differences of the embedding with step
    `lorentz.FD_STEP` (1e-5), read from one 3 x 3 `embed_grid` block about
    (s, t); agreement with the closed form certifies the embedding against
    the metric."""
    step = lorentz.FD_STEP
    block = embed_grid(h, [s - step, s, s + step], [t - step, t, t + step])
    return lorentz.first_fundamental_fd(block)


def second_fundamental_fd(h: Helicoid, s: float, t: float) -> tuple[float, float, float]:
    """(e, f, g) from second differences of the embedding with step 3e-4,
    read from one 3 x 3 `embed_grid` block about (s, t) and paired with
    `normal`; agreement with the closed form certifies the shape operator
    sign convention.  Raises OverflowError when e, f or g is not a finite
    float, which can happen where the closed form is still finite."""
    step = _SECOND_FD_STEP
    nrm = normal(h, s, t)
    x = embed_grid(h, [s - step, s, s + step], [t - step, t, t + step]).reshape(3, 3, 4)
    inv_sq = 1.0 / (step * step)
    x_ss = (x[2, 1] - 2.0 * x[1, 1] + x[0, 1]) * inv_sq
    x_tt = (x[1, 2] - 2.0 * x[1, 1] + x[1, 0]) * inv_sq
    x_st = (x[2, 2] - x[2, 0] - x[0, 2] + x[0, 0]) * (0.25 * inv_sq)
    efg = tuple(minkowski_inner([x_ss, x_st, x_tt], nrm).tolist())
    if not all(map(math.isfinite, efg)):
        raise OverflowError(
            f"helicoid finite-difference (e, f, g) = {efg} is not finite"
            f" at alpha = {h.alpha}, s = {s}, t = {t}"
        )
    return efg
