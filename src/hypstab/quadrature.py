"""Quadrature results and errors, bracketed root finding, and the G7/K15
integrators kept as references.

No command integrates: F, the curvature mass and the rotation angle are
closed forms.  The package uses QuadratureResult, QuadratureError and the
bracketed root finder.  The integrators stay as the tests' references and
are importable from this module only.  Finite intervals use a 7-point
Gauss / 15-point Kronrod pair with adaptive panel bisection: the worst panel
(largest error estimate) is split until the summed estimate meets the
tolerance or the evaluation budget runs out.  Semi-infinite integrals of
exponentially decaying integrands are truncated at a point where a
probe-based tail bound certifies the discarded mass.

All failures raise QuadratureError and carry enough context (offending
abscissa, partial result) to diagnose the integrand.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .criteria import _real

__all__ = [
    "DEFAULT_TOL",
    "PANEL_BUDGET",
    "QuadratureError",
    "QuadratureResult",
    "integrate_adaptive",
    "integrate_semi_infinite",
    "find_root_bracketed",
]

DEFAULT_TOL = 1e-9
PANEL_BUDGET = 1_000_000  # integrand evaluations per integral before giving up
_ROOT_MAX_ITER = 200  # bracket refinements before the root finder gives up

# Kronrod-15 abscissae on [0, 1] side of [-1, 1] (nodes are symmetric) and the
# matching Kronrod weights; every other abscissa is a Gauss-7 node.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_EVALS_PER_PANEL = 15


class QuadratureError(RuntimeError):
    """Numerical failure during quadrature or root refinement.

    Attributes
    ----------
    abscissa : float or None
        Point at which the integrand produced a non-finite value, if any.
    partial : QuadratureResult or None
        Best available result when the budget ran out, if any.
    """

    def __init__(
        self,
        message: str,
        *,
        abscissa: Optional[float] = None,
        partial: Optional["QuadratureResult"] = None,
    ) -> None:
        super().__init__(message)
        self.abscissa = abscissa
        self.partial = partial


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with an error estimate and the evaluation count."""

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if not self.error_estimate >= 0.0:
            raise ValueError("error_estimate must be nonnegative, not NaN")
        if self.evaluations < 0:
            raise ValueError("evaluations must be nonnegative")


def _eval_checked(f: Callable[[float], float], x: float) -> float:
    y = f(x)
    if not math.isfinite(y):
        raise QuadratureError(
            f"integrand returned non-finite value {y!r} at abscissa {x!r}",
            abscissa=x,
        )
    return float(y)


def _kronrod_panel(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """One G7/K15 evaluation on [lo, hi].

    Returns (kronrod_value, error_estimate).  The estimate follows the
    classical rescaling err = resasc * min(1, (200*|K - G|/resasc)^1.5),
    which sharpens the raw |K - G| difference on smooth panels.

    The 15 abscissae are evaluated in the order mid, then mid - d_j,
    mid + d_j for j = 0..6 (d_j = half-width * _XGK[j], outermost first).
    All 15 values are computed before the one finiteness check, which
    reports the first non-finite value in that order; an integrand that
    raises after an earlier non-finite value therefore surfaces its own
    exception.  The Kronrod sum, the Gauss sum (odd j) and resasc are then
    accumulated in loops over j = 0..6, left to right after the midpoint
    term.  A panel whose value or error estimate overflows raises
    QuadratureError naming [lo, hi].
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = [mid]
    for x in _XGK[:7]:
        xs += (mid - half * x, mid + half * x)
    ys = list(map(f, xs))
    if not math.isfinite(sum(ys)):
        # the sum of finite values may overflow: only a non-finite value fails
        for x, y in zip(xs, ys):
            if not math.isfinite(y):
                raise QuadratureError(
                    f"integrand returned non-finite value {y!r} at abscissa {x!r}",
                    abscissa=x,
                )

    pairs = list(zip(ys[1::2], ys[2::2]))  # (f(mid - d_j), f(mid + d_j))
    resk = _WGK[7] * ys[0]
    resg = _WG[3] * ys[0]
    for j, (f_lo, f_hi) in enumerate(pairs):
        resk += _WGK[j] * (f_lo + f_hi)
        if j % 2 == 1:
            resg += _WG[j // 2] * (f_lo + f_hi)
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(ys[0] - reskh)
    for j, (f_lo, f_hi) in enumerate(pairs):
        resasc += _WGK[j] * (abs(f_lo - reskh) + abs(f_hi - reskh))

    value = resk * half
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise QuadratureError(
            f"panel [{lo!r}, {hi!r}] overflowed: value {value!r}, "
            f"error estimate {err!r}"
        )
    return float(value), float(err)


def integrate_adaptive(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    max_evals: int = PANEL_BUDGET,
) -> QuadratureResult:
    """Integrate f over the finite interval [lo, hi].

    Bisects the panel with the largest error estimate until the summed
    estimate satisfies sum <= tol * max(1, |value|).  Raises QuadratureError
    on a non-finite integrand value or when max_evals is exhausted; in the
    latter case the exception carries the partial result.
    """
    lo = _real(lo, "integration limit lo")
    hi = _real(hi, "integration limit hi")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    tol = _real(tol, "tol", above=0)

    value, err = _kronrod_panel(f, lo, hi)
    evals = _EVALS_PER_PANEL
    # Heap of (-err, tie_breaker, lo, hi, value, err); tie breaker keeps the
    # ordering deterministic when estimates coincide exactly.
    seq = 0
    panels = [(-err, seq, lo, hi, value, err)]
    total_value = value
    total_err = err

    while total_err > tol * max(1.0, abs(total_value)):
        if evals + 2 * _EVALS_PER_PANEL > max_evals:
            raise QuadratureError(
                f"evaluation budget {max_evals} exhausted at "
                f"estimated error {total_err:.3e} (target "
                f"{tol * max(1.0, abs(total_value)):.3e})",
                partial=QuadratureResult(total_value, total_err, evals),
            )
        _, _, p_lo, p_hi, p_value, p_err = heapq.heappop(panels)
        p_mid = 0.5 * (p_lo + p_hi)
        v1, e1 = _kronrod_panel(f, p_lo, p_mid)
        v2, e2 = _kronrod_panel(f, p_mid, p_hi)
        evals += 2 * _EVALS_PER_PANEL
        seq += 1
        heapq.heappush(panels, (-e1, seq, p_lo, p_mid, v1, e1))
        seq += 1
        heapq.heappush(panels, (-e2, seq, p_mid, p_hi, v2, e2))
        total_value += v1 + v2 - p_value
        total_err += e1 + e2 - p_err
        if len(panels) % 256 == 0:
            # Refresh the running sums; incremental updates drift slightly.
            total_value = math.fsum(p[4] for p in panels)
            total_err = math.fsum(p[5] for p in panels)

    value = math.fsum(p[4] for p in panels)
    err = math.fsum(p[5] for p in panels)
    return QuadratureResult(value, err, evals)


def integrate_semi_infinite(
    f: Callable[[float], float],
    tol: float = DEFAULT_TOL,
    decay_hint: float = 1.0,
) -> QuadratureResult:
    """Integrate f over [0, infinity) assuming |f(s)| decays like exp(-lam*s)
    with lam >= decay_hint for large s.

    The interval is truncated at S with the tail bounded by
    sup_{s >= S} |f(s)| e^{lam (s - S)} / lam, estimated from probe points
    past S with a 1.25 safety factor; S grows geometrically until the bound
    fits inside tol/2.  The returned error estimate includes the tail bound.
    Probes and panels together get PANEL_BUDGET (10^6) integrand
    evaluations.  Raises QuadratureError when no admissible S is found,
    which is the symptom of a decay_hint that overstates the true decay
    rate, or when the budget runs out.
    """
    tol = _real(tol, "tol", above=0)
    decay_hint = _real(decay_hint, "decay_hint", above=0)

    lam = decay_hint
    cut = max(1.0, 6.0 / lam)
    probe_evals = 0
    tail = math.inf
    for _ in range(80):
        # Peak of |f| e^{lam s} past the cut, in a log-shifted form so the
        # exponential factor never overflows.
        peak = 0.0
        for k in range(4):
            p = cut + k / lam
            y = abs(_eval_checked(f, p))
            probe_evals += 1
            peak = max(peak, y * math.exp(lam * (p - cut)))
        tail = 1.25 * peak / lam
        if tail <= 0.5 * tol:
            break
        cut *= 1.5
    else:
        raise QuadratureError(
            f"truncation point search failed: tail bound {tail:.3e} at "
            f"S = {cut:.3e} still exceeds {0.5 * tol:.3e}; the stated decay "
            f"rate {decay_hint} appears violated"
        )

    base = integrate_adaptive(f, 0.0, cut, tol, PANEL_BUDGET - probe_evals)
    return QuadratureResult(
        base.value,
        base.error_estimate + tail,
        base.evaluations + probe_evals,
    )


def _root_with_bracket(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
) -> tuple[float, float, float]:
    """Shared refinement loop; returns (root, bracket_lo, bracket_hi).

    g is evaluated at both ends only after the bracket and tol are validated.
    """
    lo = _real(lo, "bracket end lo")
    hi = _real(hi, "bracket end hi")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    tol = _real(tol, "tol", above=0)

    fa, fb = _eval_checked(g, lo), _eval_checked(g, hi)
    if fa == 0.0:
        return lo, lo, lo
    if fb == 0.0:
        return hi, hi, hi
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: g(lo) = {fa:.6g}, g(hi) = {fb:.6g}"
        )

    a, b = lo, hi
    for it in range(_ROOT_MAX_ITER):
        if b - a <= tol:
            break
        width = b - a
        x = 0.5 * (a + b)
        if it % 2 == 0 and fb != fa:
            # Secant candidate, accepted only well inside the bracket; the
            # alternated bisection guarantees geometric width reduction.
            xs = b - fb * width / (fb - fa)
            if a + 0.01 * width < xs < b - 0.01 * width:
                x = xs
        fx = _eval_checked(g, x)
        if fx == 0.0:
            return x, x, x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
    if b - a > tol:
        raise QuadratureError(
            f"bracket width {b - a:.3e} stalled above tol {tol:.3e} after "
            f"{_ROOT_MAX_ITER} iterations; tol is below floating resolution here"
        )
    root = a if abs(fa) <= abs(fb) else b
    return root, a, b


def find_root_bracketed(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Root of g inside the sign-changing bracket [lo, hi].

    Bisection interleaved with secant steps; iterates never leave the
    bracket, and the bracket is shrunk to width <= tol before the endpoint
    with the smaller |g| is returned.  A bracket without a sign change is
    rejected with ValueError; an exact zero at an endpoint is returned as is.
    """
    root, _, _ = _root_with_bracket(g, lo, hi, tol)
    return root
