"""Lorentzian linear algebra for the hyperboloid model of hyperbolic space.

Vectors live in Minkowski space with signature (-, +, ..., +), timelike
coordinate first.  Hyperbolic space of dimension d is realized as the upper
sheet of the unit timelike hyperboloid <x, x> = -1, x1 >= 1, inside the
(d+1)-dimensional Minkowski space.  Dimension is carried by the last axis
of the coordinates; mixing dimensions is rejected, not broadcast.

`minkowski_inner` is the one Minkowski product, for points and (n, d) row
arrays alike.  The finite-difference first fundamental form reads one 3 x 3
block of a family's `embed_grid`, so a certificate is one grid evaluation.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from numpy.typing import ArrayLike

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


def minkowski_inner(x: ArrayLike, y: ArrayLike) -> float | np.ndarray:
    """Indefinite product -x1*y1 + sum_{i>=2} xi*yi over the last axis,
    summed left to right: a float for two vectors, n products for (n, d) row
    arrays (leading axes broadcast).  The last axes must have equal length;
    a mismatch raises ValueError.  Overflow gives inf or nan, as in floats.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim == 0 or ya.ndim == 0 or xa.shape[-1] != ya.shape[-1]:
        raise ValueError(f"dimension mismatch: {xa.shape} vs {ya.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        acc = -xa[..., 0] * ya[..., 0]
        for i in range(1, xa.shape[-1]):
            acc = acc + xa[..., i] * ya[..., i]
    return float(acc) if np.ndim(acc) == 0 else acc


def first_fundamental_fd(block: ArrayLike) -> tuple[float, float, float]:
    """(E, F, G) of the induced metric at (u, v), from central differences
    of block, a family's `embed_grid` over (u - FD_STEP, u, u + FD_STEP) x
    (v - FD_STEP, v, v + FD_STEP) with FD_STEP = 1e-5.

    Comparing the result with the family's closed form certifies its
    embedding against its metric; the O(step^2) truncation sets the
    agreement floor.  Raises OverflowError when E, F or G is not a finite
    float, which can happen where the closed form is still finite.
    """
    x = np.asarray(block, dtype=float).reshape(3, 3, -1)
    inv = 0.5 / FD_STEP
    with np.errstate(over="ignore", invalid="ignore"):
        d_u = (x[2, 1] - x[0, 1]) * inv
        d_v = (x[1, 2] - x[1, 0]) * inv
    efg = tuple(minkowski_inner([d_u, d_u, d_v], [d_u, d_v, d_v]).tolist())
    if not all(map(math.isfinite, efg)):
        raise OverflowError(f"finite-difference metric (E, F, G) = {efg} is not finite")
    return efg


def on_hyperboloid_rows(points: ArrayLike, tol: float) -> np.ndarray:
    """Row-wise membership of an (n, d) array of points in the upper unit
    hyperboloid; returns n booleans.

    A row passes when |<x, x> + 1| <= max(tol, ROUNDING_SLACK * eps *
    sum(x_i^2)) and x1 >= 1 - tol.  The second bound is the rounding scale
    of the Minkowski square, so correct points far out on the sheet pass
    while their coordinates grow.  Non-finite rows fail.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError(f"points must be an (n, d) array with d >= 2, got shape {x.shape}")
    square = minkowski_inner(x, x)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.maximum(tol, ROUNDING_SLACK * sys.float_info.epsilon * (x * x).sum(axis=1))
        return (np.abs(square + 1.0) <= bound) & (x[:, 0] >= 1.0 - tol)


def on_hyperboloid(x: ArrayLike, tol: float) -> bool:
    """True iff x lies on the upper unit hyperboloid within tolerance tol,
    by the rule of `on_hyperboloid_rows`."""
    return bool(on_hyperboloid_rows([x], tol)[0])
