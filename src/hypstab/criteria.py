"""Stability certificates for complete minimal hypersurfaces in hyperbolic
space, generic in the dimension n of the hypersurface.

Every test returns a StabilityReport rather than a bare boolean: the verdict
records whether the criterion certifies stability, certifies instability, or
says nothing, together with the witness quantity and the threshold it was
compared against.  One-sided criteria never report the opposite verdict; a
failed stability certificate is inconclusive, not instability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "STABLE",
    "UNSTABLE",
    "INCONCLUSIVE",
    "StabilityReport",
    "lambda1_bounds",
    "lambda1_bounds_pinched",
    "pointwise_stability_test",
    "sobolev_stability_test",
    "grad_condition_deficit",
    "grad_condition_report",
]

STABLE = "stable-certified"
UNSTABLE = "unstable-certified"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one stability criterion.

    verdict is one of STABLE, UNSTABLE, INCONCLUSIVE; criterion names the
    test that produced it; witness is the quantity the test examined and
    threshold the value it was compared against.
    """

    verdict: str
    criterion: str
    witness: float
    threshold: float

    def __post_init__(self) -> None:
        if self.verdict not in (STABLE, UNSTABLE, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")


def _require_dim(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"hypersurface dimension must be an integer >= 2, got {n!r}")


def lambda1_bounds(n: int) -> tuple[float, float]:
    """Bracket ((n-1)^2/4, n^2) for the bottom of the Laplace spectrum.

    The lower bound holds for every complete hypersurface of dimension n in
    hyperbolic space; the upper bound additionally assumes stability and
    finite total squared curvature.  Raises OverflowError naming n when n^2
    is not a finite float."""
    _require_dim(n)
    try:
        return (n - 1) ** 2 / 4.0, float(n * n)
    except OverflowError:
        raise OverflowError(f"lambda1 bound n^2 overflows at n = {n}") from None


def lambda1_bounds_pinched(a: float, b: float) -> tuple[float, float]:
    """Bracket (a^2/4, 4*b^2/3) under curvature pinching -b^2 <= K <= -a^2
    of the ambient space, 0 < a <= b, with 4 (b^2 / 3) where (4 b) b alone
    overflows.  Raises OverflowError naming a and b when 4*b^2/3, the larger
    bound, is not a finite float."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and 0.0 < a <= b):
        raise ValueError(f"pinching constants need 0 < a <= b, got a={a}, b={b}")
    upper = 4.0 * b * b / 3.0
    if math.isinf(upper):
        upper = 4.0 * (b * b / 3.0)
    if math.isinf(upper):
        raise OverflowError(f"pinched lambda1 bound 4 b^2 / 3 overflows at a = {a}, b = {b}")
    return a * a / 4.0, upper


def pointwise_stability_test(n: int, sup_A_sq: float) -> StabilityReport:
    """Stability from a uniform curvature bound.

    If sup |A|^2 <= (n+1)^2/4 the hypersurface is stable; above the
    threshold the test is inconclusive (larger curvature does not by itself
    imply instability).
    """
    _require_dim(n)
    sup_A_sq = float(sup_A_sq)
    if not (math.isfinite(sup_A_sq) and sup_A_sq >= 0.0):
        raise ValueError(f"sup_A_sq must be finite and >= 0, got {sup_A_sq}")
    threshold = (n + 1) ** 2 / 4.0
    verdict = STABLE if sup_A_sq <= threshold else INCONCLUSIVE
    return StabilityReport(verdict, "pointwise-curvature-bound", sup_A_sq, threshold)


def sobolev_stability_test(n: int, C_s: float, A_n_norm_to_n: float) -> StabilityReport:
    """Stability from a small total curvature in the L^n sense, n >= 3.

    With C_s the Sobolev constant of the hypersurface, int |A|^n below
    C_s^(-n/2) certifies stability.  The constant depends on the geometry
    and must be supplied by the caller; no default is assumed.  Raises
    OverflowError naming n and C_s when the threshold is not a finite float.
    """
    _require_dim(n)
    if n < 3:
        raise ValueError(f"the total-curvature test needs dimension n >= 3, got {n}")
    C_s = float(C_s)
    A_n_norm_to_n = float(A_n_norm_to_n)
    if not (math.isfinite(C_s) and C_s > 0.0):
        raise ValueError(f"Sobolev constant must be positive, got {C_s}")
    if not (math.isfinite(A_n_norm_to_n) and A_n_norm_to_n >= 0.0):
        raise ValueError(f"curvature mass must be finite and >= 0, got {A_n_norm_to_n}")
    try:
        threshold = C_s ** (-0.5 * n)
    except OverflowError:
        raise OverflowError(f"Sobolev threshold C_s^(-n/2) overflows at n = {n}, C_s = {C_s}")
    verdict = STABLE if A_n_norm_to_n <= threshold else INCONCLUSIVE
    return StabilityReport(verdict, "total-curvature-smallness", A_n_norm_to_n, threshold)


def grad_condition_deficit(n: int, mass_A_sq: float, mass_grad_A_sq: float) -> float:
    """Deficit n^2 * int |A|^2 dv - int |grad |A||^2 dv between the total
    squared curvature and the total squared curvature gradient (both masses
    supplied by the caller).  A negative deficit certifies instability; the
    spherical catenoid functional F equals this deficit for n = 2.  Raises
    OverflowError naming the inputs when n^2 * int |A|^2 dv is not a finite
    float."""
    _require_dim(n)
    mass_A_sq = float(mass_A_sq)
    mass_grad_A_sq = float(mass_grad_A_sq)
    if not (math.isfinite(mass_A_sq) and mass_A_sq >= 0.0):
        raise ValueError(f"mass_A_sq must be finite and >= 0, got {mass_A_sq}")
    if not (math.isfinite(mass_grad_A_sq) and mass_grad_A_sq >= 0.0):
        raise ValueError(f"mass_grad_A_sq must be finite and >= 0, got {mass_grad_A_sq}")
    weighted = n * n * mass_A_sq
    if math.isinf(weighted):
        raise OverflowError("curvature-gradient deficit overflows: n^2 mass_A_sq is not finite at "
                            f"n = {n}, mass_A_sq = {mass_A_sq}, mass_grad_A_sq = {mass_grad_A_sq}")
    return weighted - mass_grad_A_sq


def grad_condition_report(
    n: int, mass_A_sq: float, mass_grad_A_sq: float
) -> StabilityReport:
    """Instability from a negative curvature-gradient deficit; nonnegative
    deficit is inconclusive."""
    deficit = grad_condition_deficit(n, mass_A_sq, mass_grad_A_sq)
    verdict = UNSTABLE if deficit < 0.0 else INCONCLUSIVE
    return StabilityReport(verdict, "curvature-gradient-deficit", deficit, 0.0)
