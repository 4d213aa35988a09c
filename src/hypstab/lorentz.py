"""Lorentzian linear algebra for the hyperboloid model of hyperbolic space.

Vectors live in Minkowski space with signature (-, +, ..., +), timelike
coordinate first.  Hyperbolic space of dimension d is realized as the upper
sheet of the unit timelike hyperboloid <x, x> = -1, x1 >= 1, inside the
(d+1)-dimensional Minkowski space.  Dimension is carried by the coordinate
tuple itself; mixing dimensions is rejected, not broadcast.
"""

from __future__ import annotations

import sys
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "FD_STEP",
    "ROUNDING_SLACK",
    "first_fundamental_fd",
    "minkowski_inner",
    "on_hyperboloid",
    "on_hyperboloid_rows",
]

# Multiple of eps * sum(x_i^2) that the sheet check forgives in <x, x> + 1.
# Rounding in the embeddings and in the square itself was measured at up to
# 3.5 eps * sum(x_i^2) over the exported families (spherical a in [0.51, 3]
# and |s| <= 20, helicoid |s|, |t| <= 12, hyperbolic curves to s = 20).
ROUNDING_SLACK = 16.0

# Central-difference step of `first_fundamental_fd`.  Relative to the size
# of the coordinates and their derivatives, the step^2 truncation (1e-10)
# and the eps/step rounding noise (2e-11) both stay far below the 1e-7
# agreement that the metric checks ask for.
FD_STEP = 1e-5


def _coords(x: Sequence[float]) -> tuple[float, ...]:
    return tuple(float(c) for c in x)


def minkowski_inner(x: Sequence[float], y: Sequence[float]) -> float:
    """Indefinite product -x1*y1 + sum_{i>=2} xi*yi.

    Accepts any coordinate sequence.  The arguments must have equal
    dimension; a mismatch raises ValueError.
    """
    xc = _coords(x)
    yc = _coords(y)
    if len(xc) != len(yc):
        raise ValueError(f"dimension mismatch: {len(xc)} vs {len(yc)}")
    acc = -xc[0] * yc[0]
    for xi, yi in zip(xc[1:], yc[1:]):
        acc += xi * yi
    return acc


def first_fundamental_fd(
    embed: Callable[[float, float], Sequence[float]], u: float, v: float
) -> tuple[float, float, float]:
    """(E, F, G) of the metric induced by the Minkowski product on the
    surface embed(u, v), from central differences with step FD_STEP (1e-5).

    Comparing the result with a family's closed form certifies its embedding
    against its metric; the O(step^2) truncation sets the agreement floor.
    """
    inv = 0.5 / FD_STEP

    def central(plus: Sequence[float], minus: Sequence[float]) -> tuple[float, ...]:
        return tuple((p - m) * inv for p, m in zip(_coords(plus), _coords(minus)))

    d_u = central(embed(u + FD_STEP, v), embed(u - FD_STEP, v))
    d_v = central(embed(u, v + FD_STEP), embed(u, v - FD_STEP))
    return minkowski_inner(d_u, d_u), minkowski_inner(d_u, d_v), minkowski_inner(d_v, d_v)


def on_hyperboloid_rows(points: np.ndarray, tol: float) -> np.ndarray:
    """Row-wise membership of an (n, d) array of points in the upper unit
    hyperboloid; returns n booleans.

    A row passes when |<x, x> + 1| <= max(tol, ROUNDING_SLACK * eps *
    sum(x_i^2)) and x1 >= 1 - tol.  The second bound is the rounding scale
    of the Minkowski square, so correct points far out on the sheet pass
    while their coordinates grow.  Non-finite rows fail.  The square is
    summed in the order of `minkowski_inner`.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError(f"points must be an (n, d) array with d >= 2, got shape {x.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        square = -x[:, 0] * x[:, 0]
        for i in range(1, x.shape[1]):
            square += x[:, i] * x[:, i]
        bound = np.maximum(tol, ROUNDING_SLACK * sys.float_info.epsilon * (x * x).sum(axis=1))
        return (np.abs(square + 1.0) <= bound) & (x[:, 0] >= 1.0 - tol)


def on_hyperboloid(x: Sequence[float], tol: float) -> bool:
    """True iff x lies on the upper unit hyperboloid within tolerance tol,
    by the rule of `on_hyperboloid_rows`."""
    return bool(on_hyperboloid_rows([_coords(x)], tol)[0])
