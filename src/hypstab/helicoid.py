"""Minimal helicoids in three-dimensional hyperbolic space.

The family is parametrized by the angular pitch alpha >= 0:

    X(s, t) = (cosh s cosh t, sinh s cosh t, cos(alpha s) sinh t,
               sin(alpha s) sinh t),

which rules the surface by hyperbolic translations along a geodesic axis
combined with rotation at rate alpha.  The first fundamental form is
diagonal, E = cosh^2 t + alpha^2 sinh^2 t, G = 1, and the second
fundamental form has a single off-diagonal entry, so the surface is minimal
for every pitch.  Stability holds exactly for alpha^2 <= 9/8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lorentz import LorentzVector, minkowski_inner

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

_ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True)
class Helicoid:
    """Helicoid with angular pitch alpha; alpha = 0 is the totally geodesic
    plane through the axis."""

    alpha: float

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        if not (math.isfinite(alpha) and alpha >= 0.0):
            raise ValueError(f"pitch must be finite and >= 0, got {self.alpha}")
        object.__setattr__(self, "alpha", alpha)


def embed(h: Helicoid, s: float, t: float) -> LorentzVector:
    """Ruled embedding into the hyperboloid model; Minkowski square is -1
    identically in (s, t)."""
    al = h.alpha
    return LorentzVector(
        (
            math.cosh(s) * math.cosh(t),
            math.sinh(s) * math.cosh(t),
            math.cos(al * s) * math.sinh(t),
            math.sin(al * s) * math.sinh(t),
        )
    )


def embed_grid(h: Helicoid, s_values: Sequence[float], t_values: Sequence[float]) -> np.ndarray:
    """`embed` over the grid s_values x t_values, s outer: an
    (len(s_values) * len(t_values), 4) array whose rows equal the `embed`
    coordinates bit for bit.

    Every coordinate is a function of s times a function of t, so each
    transcendental is evaluated once per axis value, with `math` as in
    `embed`, and the grid is formed by outer products.
    """
    al = h.alpha
    s_axis = [float(s) for s in s_values]
    t_axis = [float(t) for t in t_values]
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

    E = cosh^2 t + alpha^2 sinh^2 t, F = 0, G = 1.
    """
    ch, sh = math.cosh(t), math.sinh(t)
    return ch * ch + h.alpha * h.alpha * sh * sh, 0.0, 1.0


def second_fundamental(h: Helicoid, t: float) -> tuple[float, float, float]:
    """Coefficients (e, f, g) of the second fundamental form for the unit
    normal selected by `normal`; only the cross term survives:
    (0, -alpha/sqrt(E), 0), so the mean curvature vanishes for every pitch.
    """
    e_coef, _, _ = first_fundamental(h, t)
    return 0.0, -h.alpha / math.sqrt(e_coef), 0.0


def norm_A_sq(h: Helicoid, t: float) -> float:
    """Squared norm of the second fundamental form at ruling parameter t.

    alpha^2/E + alpha^2/E^3 with E = cosh^2 t + alpha^2 sinh^2 t; even in t,
    maximal on the axis t = 0, and bounded by 2 alpha^2.
    """
    e_coef, _, _ = first_fundamental(h, t)
    al_sq = h.alpha * h.alpha
    return al_sq / e_coef + al_sq / e_coef**3


def sup_norm_A_sq(h: Helicoid) -> float:
    """Supremum 2 alpha^2 of |A|^2, attained on the axis t = 0."""
    return 2.0 * h.alpha * h.alpha


def is_stable_by_pitch(h: Helicoid) -> bool:
    """True iff alpha^2 <= 9/8, the exact stability threshold for the
    helicoid family."""
    return h.alpha * h.alpha <= STABLE_PITCH_SQ


def _partials(h: Helicoid, s: float, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    al = h.alpha
    ch_s, sh_s = math.cosh(s), math.sinh(s)
    ch_t, sh_t = math.cosh(t), math.sinh(t)
    cos_a, sin_a = math.cos(al * s), math.sin(al * s)
    x = np.array([ch_s * ch_t, sh_s * ch_t, cos_a * sh_t, sin_a * sh_t])
    x_s = np.array(
        [sh_s * ch_t, ch_s * ch_t, -al * sin_a * sh_t, al * cos_a * sh_t]
    )
    x_t = np.array([ch_s * sh_t, sh_s * sh_t, cos_a * ch_t, sin_a * ch_t])
    return x, x_s, x_t


def normal(h: Helicoid, s: float, t: float) -> LorentzVector:
    """Unit spacelike normal to the surface inside hyperbolic space.

    Built by Minkowski Gram-Schmidt: a seed basis vector is orthogonalized
    against the position (timelike, square -1) and both tangents, then
    normalized.  The orientation is fixed by det[X, X_s, X_t, N] < 0, which
    matches the sign convention of `second_fundamental`.
    """
    x, x_s, x_t = _partials(h, s, t)
    span = (x, x_s, x_t)  # Minkowski squares: position -1, tangents positive

    cand = None
    for seed_idx in (3, 2, 1, 0):
        seed = np.zeros(4)
        seed[seed_idx] = 1.0
        v = seed.copy()
        ok = True
        for u in span:
            uu = float(u @ _ETA @ u)
            if abs(uu) < 1e-12:
                ok = False
                break
            v = v - (float(v @ _ETA @ u) / uu) * u
        if not ok:
            continue
        vv = float(v @ _ETA @ v)
        if vv > 1e-10:
            cand = v / math.sqrt(vv)
            break
    if cand is None:
        raise RuntimeError(f"normal construction degenerated at (s, t) = ({s}, {t})")

    if np.linalg.det(np.column_stack([x, x_s, x_t, cand])) > 0.0:
        cand = -cand
    return LorentzVector(tuple(float(c) for c in cand))


def first_fundamental_fd(
    h: Helicoid, s: float, t: float, step: float = 1e-5
) -> tuple[float, float, float]:
    """(E, F, G) from central differences of the embedding; agreement with
    the closed form certifies the embedding against the metric."""
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    inv = 0.5 / step
    d_s = tuple(
        (p - m) * inv
        for p, m in zip(embed(h, s + step, t).coords, embed(h, s - step, t).coords)
    )
    d_t = tuple(
        (p - m) * inv
        for p, m in zip(embed(h, s, t + step).coords, embed(h, s, t - step).coords)
    )
    return (
        minkowski_inner(d_s, d_s),
        minkowski_inner(d_s, d_t),
        minkowski_inner(d_t, d_t),
    )


def second_fundamental_fd(
    h: Helicoid, s: float, t: float, step: float = 3e-4
) -> tuple[float, float, float]:
    """(e, f, g) from second differences of the embedding paired with the
    Gram-Schmidt normal; agreement with the closed form certifies the shape
    operator sign convention.

    The default step balances the O(step^2) truncation of the stencil
    against the eps/step^2 rounding noise of second differences; on the
    order-ten coordinates reached by |t| <= 2 the total error bottoms out
    near 2e-7 there."""
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    nrm = normal(h, s, t).coords
    x_00 = embed(h, s, t).coords
    inv_sq = 1.0 / (step * step)

    x_ss = tuple(
        (p - 2.0 * c + m) * inv_sq
        for p, c, m in zip(embed(h, s + step, t).coords, x_00, embed(h, s - step, t).coords)
    )
    x_tt = tuple(
        (p - 2.0 * c + m) * inv_sq
        for p, c, m in zip(embed(h, s, t + step).coords, x_00, embed(h, s, t - step).coords)
    )
    inv_cross = 0.25 * inv_sq
    x_st = tuple(
        (pp - pm - mp + mm) * inv_cross
        for pp, pm, mp, mm in zip(
            embed(h, s + step, t + step).coords,
            embed(h, s + step, t - step).coords,
            embed(h, s - step, t + step).coords,
            embed(h, s - step, t - step).coords,
        )
    )
    return (
        minkowski_inner(x_ss, nrm),
        minkowski_inner(x_st, nrm),
        minkowski_inner(x_tt, nrm),
    )
