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
import numbers
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

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


def _integer(value: int, name: str, least: int) -> int:
    """The package's one integer rule: value, an integer (numpy's too, not a
    bool) of at least least, as a Python int, whose arithmetic cannot wrap."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            least, f"an integer >= {least}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


_HALF_WIDTH_MAX = sys.float_info.max / 2  # the largest x whose span [-x, x] is finite


def _real(value: float, name: str, *, above: float | None = None,
          least: float | None = None, most: float | None = None) -> float:
    """The package's one real-number rule: value, a real number (numpy's and
    ints too, not a bool) that is a finite float with value > above,
    value >= least and value <= most for each bound given, as a Python
    float.  Anything else, an int past the float range among them, raises
    ValueError naming name and the bounds."""
    shown = None
    # float (numpy's float64 too) first: numbers.Real's check costs 5x as much
    if isinstance(value, float):
        x = float(value)
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x, shown = math.inf, "a number past the float range"
    else:
        x, shown = math.nan, repr(value)
    if (math.isfinite(x) and (above is None or x > above) and (least is None or x >= least)
            and (most is None or x <= most)):
        return x
    bounds = " and".join(f" {op} {bound!r}" for op, bound in ((">", above), (">=", least),
                                                                ("<=", most)) if bound is not None)
    raise ValueError(f"{name} must be a finite real number{bounds}, got {shown or repr(x)}")


def _reals(values: Iterable[float], name: str, **bounds: float) -> np.ndarray:
    """`_real` with bounds on each value, as a 1-D float64 array; the message
    names name[k], the first value that fails.  A 1-D float64 array passes
    on its extremes alone (a NaN spoils both)."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1:
        try:  # an empty array's min raises too, and the loop below takes it
            _real(values.min(), name, **bounds)
            _real(values.max(), name, **bounds)
            return values
        except ValueError:
            pass
    return np.array([_real(v, f"{name}[{k}]", **bounds) for k, v in enumerate(values)])


def lambda1_bounds(n: int) -> tuple[float, float]:
    """Bracket ((n-1)^2/4, n^2) for the bottom of the Laplace spectrum.

    The lower bound holds for every complete hypersurface of dimension n in
    hyperbolic space; the upper bound additionally assumes stability and
    finite total squared curvature.  Raises OverflowError naming n when n^2
    is not a finite float."""
    n = _integer(n, "hypersurface dimension", 2)
    try:
        return (n - 1) ** 2 / 4.0, float(n * n)
    except OverflowError:
        raise OverflowError(f"lambda1 bound n^2 overflows at n = {n}") from None


def lambda1_bounds_pinched(a: float, b: float) -> tuple[float, float]:
    """Bracket (a^2/4, 4*b^2/3) under curvature pinching -b^2 <= K <= -a^2
    of the ambient space, 0 < a <= b, with 4 (b^2 / 3) where (4 b) b alone
    overflows.  Raises OverflowError naming a and b when 4*b^2/3, the larger
    bound, is not a finite float."""
    a = _real(a, "pinching constant a", above=0)
    b = _real(b, "pinching constant b", least=a)
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
    imply instability).  Raises OverflowError naming n when the threshold
    is not a finite float.
    """
    n = _integer(n, "hypersurface dimension", 2)
    sup_A_sq = _real(sup_A_sq, "sup_A_sq", least=0)
    try:  # int true division: one rounding, and no overflow while the quotient fits
        threshold = (n + 1) ** 2 / 4
    except OverflowError:
        raise OverflowError(f"pointwise threshold (n + 1)^2 / 4 overflows at n = {n}") from None
    verdict = STABLE if sup_A_sq <= threshold else INCONCLUSIVE
    return StabilityReport(verdict, "pointwise-curvature-bound", sup_A_sq, threshold)


def sobolev_stability_test(n: int, C_s: float, A_n_norm_to_n: float) -> StabilityReport:
    """Stability from a small total curvature in the L^n sense, n >= 3.

    With C_s the Sobolev constant of the hypersurface, int |A|^n below
    C_s^(-n/2) certifies stability.  The constant depends on the geometry
    and must be supplied by the caller; no default is assumed.  Raises
    OverflowError naming n and C_s when the threshold is not a finite float.
    """
    n = _integer(n, "hypersurface dimension", 2)
    if n < 3:
        raise ValueError(f"the total-curvature test needs dimension n >= 3, got {n}")
    C_s = _real(C_s, "Sobolev constant C_s", above=0)
    A_n_norm_to_n = _real(A_n_norm_to_n, "curvature mass A_n_norm_to_n", least=0)
    try:
        threshold = C_s ** (-0.5 * n)
    except OverflowError:
        raise OverflowError(
            f"Sobolev threshold C_s^(-n/2) overflows at n = {n}, C_s = {C_s}"
        ) from None
    verdict = STABLE if A_n_norm_to_n <= threshold else INCONCLUSIVE
    return StabilityReport(verdict, "total-curvature-smallness", A_n_norm_to_n, threshold)


def grad_condition_deficit(n: int, mass_A_sq: float, mass_grad_A_sq: float) -> float:
    """Deficit n^2 * int |A|^2 dv - int |grad |A||^2 dv between the total
    squared curvature and the total squared curvature gradient (both masses
    supplied by the caller).  A negative deficit certifies instability; the
    spherical catenoid functional F equals this deficit for n = 2.  Raises
    OverflowError naming the inputs when n^2 * int |A|^2 dv is not a finite
    float."""
    n = _integer(n, "hypersurface dimension", 2)
    mass_A_sq = _real(mass_A_sq, "mass_A_sq", least=0)
    mass_grad_A_sq = _real(mass_grad_A_sq, "mass_grad_A_sq", least=0)
    try:
        weighted = n * n * mass_A_sq
    except OverflowError:  # the int n^2 is past the float range; n may not be
        try:
            weighted = n * (n * mass_A_sq)
        except OverflowError:  # n is past it too
            weighted = math.inf
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
