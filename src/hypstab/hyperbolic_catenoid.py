"""Hyperbolic minimal catenoids in hyperbolic (n+1)-space.

The rotational profile x(s), parametrized by arclength and starting on the
neck sphere at height x(0) = t > 1, obeys the second-order equation

    x'' = x + (n - 1) * a^2 * x^(1 - 2n),      a = t^(n-1) * sqrt(t^2 - 1),

whose first integral is x'^2 = x^2 - 1 - a^2 x^(2 - 2n).  The module
integrates the second-order form directly so the first integral stays a
genuine consistency check rather than a definition, and carries the rotation
angle of the generating curve alongside.

The start s = 0 is a degenerate point of the arclength parametrization
(x' = 0 there), so integration launches from a quartic Taylor state at a
small offset instead of stepping through the degeneracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "ProfileError",
    "HyperbolicCatenoid",
    "ProfileSample",
    "shape_constant",
    "integrate_profile",
    "norm_A_sq",
    "sup_norm_A_sq",
    "principal_curvatures",
    "stability_window_max_t",
    "is_stable_by_window",
    "generating_curve",
    "generating_curve_points",
    "DEFAULT_S_MAX",
    "DEFAULT_STEP_TOL",
    "S_MAX_CAP",
]

DEFAULT_S_MAX = 15.0
DEFAULT_STEP_TOL = 1e-10
S_MAX_CAP = 300.0  # x grows like e^s; past this x^2 approaches double overflow
_LAUNCH = 1e-3  # offset of the Taylor launch from the degenerate start
_MAX_STEPS = 200_000
_MIN_STEP = 1e-13

# Cash-Karp embedded Runge-Kutta pair, orders 5 and 4: _A are the stage
# coefficients, _B the 5th-order and _BS the 4th-order weights, with the zero
# weights of stages 2 and 5 left out.  The difference of the two solutions
# estimates the local error.
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0
_A51, _A52, _A53, _A54 = -11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0
_A61, _A62, _A63 = 1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0
_A64, _A65 = 44275.0 / 110592.0, 253.0 / 4096.0
_B1, _B3, _B4, _B6 = 37.0 / 378.0, 250.0 / 621.0, 125.0 / 594.0, 512.0 / 1771.0
_BS1, _BS3, _BS4 = 2825.0 / 27648.0, 18575.0 / 48384.0, 13525.0 / 55296.0
_BS5, _BS6 = 277.0 / 14336.0, 1.0 / 4.0
_SAFETY = 0.9
_GROW_EXP = -0.2
_SHRINK_EXP = -0.25
_State = tuple[float, float, float]  # (x, x', phi)


class ProfileError(RuntimeError):
    """Profile integration failed or produced geometrically invalid state."""


def shape_constant(n: int, t: float) -> float:
    """Conserved flux constant a = t^(n-1) * sqrt(t^2 - 1) of the profile.

    Requires integer n >= 2 and t >= 1; vanishes exactly at t = 1 (the
    degenerate cylinder-free limit) and is strictly increasing in t.
    Raises OverflowError when a is not a finite float.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"dimension n must be an integer >= 2, got {n!r}")
    t = float(t)
    if not (math.isfinite(t) and t >= 1.0):
        raise ValueError(f"neck height t must satisfy t >= 1, got {t}")
    try:
        a = t ** (n - 1) * math.sqrt(t * t - 1.0)
    except OverflowError:
        a = math.inf
    if not math.isfinite(a):
        raise OverflowError(f"shape constant a overflows at n = {n}, t = {t}")
    return a


@dataclass(frozen=True)
class HyperbolicCatenoid:
    """Catenoid with neck height t > 1 in hyperbolic (n+1)-space, n >= 2."""

    n: int
    t: float
    a: float = field(init=False)

    def __post_init__(self) -> None:
        t = float(self.t)
        if not (math.isfinite(t) and t > 1.0):
            raise ValueError(f"neck height must satisfy t > 1, got {self.t}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "a", shape_constant(self.n, t))


@dataclass(frozen=True)
class ProfileSample:
    """Profile state at arclength s: height x(s) and slope x'(s)."""

    s: float
    x: float
    x_prime: float


def _accel(cat: HyperbolicCatenoid, x: float) -> float:
    """x'' from the profile equation."""
    return x + (cat.n - 1) * cat.a * cat.a * x ** (1 - 2 * cat.n)


def _phi_rate(cat: HyperbolicCatenoid, x: float) -> float:
    """d(phi)/ds of the rotation angle, closed in x via the flux constant."""
    return cat.a * x ** (1 - cat.n) / (x * x - 1.0)


def _launch(cat: HyperbolicCatenoid, s_end: float) -> tuple[float, _State]:
    """Launch offset s0 = min(_LAUNCH, s_end / 2) and the quartic Taylor
    state (x, x', phi) there, about the degenerate start.

    With c = x''(0) and G the acceleration as a function of x, the expansion
    is x = t + c s^2/2 + G'(t) c s^4/24, x' = c s + G'(t) c s^3/6, and the
    angle integrates its own rate to phi = H(t) s + H'(t) c s^3/6.  The
    truncation error is O(s0^6), far below the step tolerance at s0 = 1e-3.
    Every pass starts here, so here a ProfileError names n and t when the
    largest coefficient of the equation, (n - 1)(2n - 1) a^2, overflows.
    """
    n, t, a = cat.n, cat.t, cat.a
    s0 = min(_LAUNCH, 0.5 * s_end)
    a_sq = a * a
    coef = (n - 1) * (1 - 2 * n) * a_sq
    if not math.isfinite(coef):
        raise ProfileError(f"profile equation overflows at n = {n}, t = {t}: "
                           "(n - 1)(2n - 1) a^2 is not a finite float")
    c = _accel(cat, t)
    g_prime = 1.0 + coef * t ** (-2 * n)
    x = t + 0.5 * c * s0 * s0 + g_prime * c * s0**4 / 24.0
    v = c * s0 + g_prime * c * s0**3 / 6.0
    denom = t * t - 1.0
    h_prime = a * t ** (-n) * ((1 - n) * denom - 2.0 * t * t) / (denom * denom)
    p = _phi_rate(cat, t) * s0 + h_prime * c * s0**3 / 6.0
    return s0, (x, v, p)


def _ck_step(
    cat: HyperbolicCatenoid, y: _State, h: float
) -> tuple[_State, _State]:
    """One embedded Cash-Karp step of size h; returns the 5th-order and the
    4th-order states, whose difference each caller turns into its error
    estimate.

    The system is x' = v, v' = _accel(x), phi' = _phi_rate(x): each stage's
    x-slope is its own v and phi feeds nothing back, so only x and v are
    staged, and phi sums the six stage rates at the end.  Every operation is
    elementwise, so the state and h may also be float arrays, one step per
    element; arrays report overflow as inf or nan rather than raising.
    """
    x, v, p = y
    try:
        a1, r1 = _accel(cat, x), _phi_rate(cat, x)
        x2 = x + h * (_A21 * v)
        v2 = v + h * (_A21 * a1)
        a2, r2 = _accel(cat, x2), _phi_rate(cat, x2)
        x3 = x + h * (_A31 * v + _A32 * v2)
        v3 = v + h * (_A31 * a1 + _A32 * a2)
        a3, r3 = _accel(cat, x3), _phi_rate(cat, x3)
        x4 = x + h * (_A41 * v + _A42 * v2 + _A43 * v3)
        v4 = v + h * (_A41 * a1 + _A42 * a2 + _A43 * a3)
        a4, r4 = _accel(cat, x4), _phi_rate(cat, x4)
        x5 = x + h * (_A51 * v + _A52 * v2 + _A53 * v3 + _A54 * v4)
        v5 = v + h * (_A51 * a1 + _A52 * a2 + _A53 * a3 + _A54 * a4)
        a5, r5 = _accel(cat, x5), _phi_rate(cat, x5)
        x6 = x + h * (_A61 * v + _A62 * v2 + _A63 * v3 + _A64 * v4 + _A65 * v5)
        v6 = v + h * (_A61 * a1 + _A62 * a2 + _A63 * a3 + _A64 * a4 + _A65 * a5)
        a6, r6 = _accel(cat, x6), _phi_rate(cat, x6)
    except OverflowError as exc:
        raise ProfileError(
            f"profile state overflowed in the step from x = {x!r}"
        ) from exc
    hi = (
        x + h * (_B1 * v + _B3 * v3 + _B4 * v4 + _B6 * v6),
        v + h * (_B1 * a1 + _B3 * a3 + _B4 * a4 + _B6 * a6),
        p + h * (_B1 * r1 + _B3 * r3 + _B4 * r4 + _B6 * r6),
    )
    lo = (
        x + h * (_BS1 * v + _BS3 * v3 + _BS4 * v4 + _BS5 * v5 + _BS6 * v6),
        v + h * (_BS1 * a1 + _BS3 * a3 + _BS4 * a4 + _BS5 * a5 + _BS6 * a6),
        p + h * (_BS1 * r1 + _BS3 * r3 + _BS4 * r4 + _BS5 * r5 + _BS6 * r6),
    )
    return hi, lo


# What `_check_state` rejects, in the order it tests: finiteness first, then
# the five bounds of `_state_faults`; a partial step of a curve export is also
# rejected for its error estimate.
_FAULT_MESSAGES = (
    "non-finite profile state at s = {s}",
    "profile height {x} fell below the neck {t} at s = {s}",
    "profile slope {v} went negative at s = {s}",
    "first-integral drift {residual:.3e} at s = {s} exceeds tolerance",
    "upper slope bracket violated at s = {s}",
    "lower slope bracket violated at s = {s}",
    "partial step to s = {s} has error estimate {err:.3e} above the step tolerance",
)


def _state_faults(
    cat: HyperbolicCatenoid, x: float | np.ndarray, v: float | np.ndarray
) -> tuple[float | np.ndarray, tuple[bool | np.ndarray, ...]]:
    """First-integral residual and the five bound violations of a finite
    state (neck, slope sign, first integral, upper and lower slope bracket),
    each true where the state breaks the bound.

    Written with operators only, so float states give bools and array states
    give boolean arrays.  A bound c * max(1, y) is tested as two comparisons,
    against c and against c * y, which is exact because rounding is
    monotone.
    """
    t = cat.t
    a_sq = cat.a * cat.a
    x_sq = x * x
    v_sq = v * v
    gap = x_sq - 1.0
    # First integral; drift here means the step control failed.
    residual = v_sq - (gap - a_sq * x ** (2 - 2 * cat.n))
    drift = abs(residual)
    # Slope brackets sqrt(x^2 - 1 - a^2) < x' < sqrt(x^2 - 1); checked on the
    # squares with slack for accumulated rounding, since the upper gap falls
    # under one ulp of x^2 at large s.
    floor = gap - a_sq
    return residual, (
        x < t - 1e-9 * max(1.0, t),
        (v < -1e-9) & (v < -1e-9 * x),
        (drift > 1e-6) & (drift > 1e-6 * x_sq),
        v_sq > gap * (1.0 + 1e-9) + 1e-9,
        (v_sq < floor - 1e-9) & (v_sq < floor - 1e-9 * x_sq),
    )


def _check_state(cat: HyperbolicCatenoid, s: float, y: _State) -> None:
    """Geometric sanity of an accepted state; violations are integrator bugs
    or blow-ups, not user errors, hence ProfileError."""
    x, v, p = y
    residual = math.nan
    if math.isfinite(x) and math.isfinite(v) and math.isfinite(p):
        residual, faults = _state_faults(cat, x, v)
        if not any(faults):
            return
        fault = 1 + faults.index(True)
    else:
        fault = 0
    raise ProfileError(
        _FAULT_MESSAGES[fault].format(s=s, x=x, v=v, t=cat.t, residual=residual)
    )


def _check_rows(
    cat: HyperbolicCatenoid, s: np.ndarray, state: np.ndarray, err: np.ndarray
) -> None:
    """`_check_state` on each column of a (3, k) array of states reached at
    arclengths s by partial steps whose error estimates err must also stay
    within DEFAULT_STEP_TOL; the first failing column raises ProfileError."""
    x, v, _ = state
    residual, faults = _state_faults(cat, x, v)
    failed = np.array(
        [~np.isfinite(state).all(axis=0), *faults, ~(err <= DEFAULT_STEP_TOL)]
    )
    bad = failed.any(axis=0)
    if bad.any():
        k = int(bad.argmax())
        raise ProfileError(
            _FAULT_MESSAGES[int(failed[:, k].argmax())].format(
                s=s[k], x=x[k], v=v[k], t=cat.t, residual=residual[k], err=err[k]
            )
        )


def _profile_pass(cat: HyperbolicCatenoid, s_end: float) -> tuple[list[float], list[_State]]:
    """Arclengths and states of one adaptive pass from the neck to s_end > 0
    at scaled local error DEFAULT_STEP_TOL: the neck (0, (t, 0, 0)), the
    Taylor launch, then every accepted step, the last clipped to land
    exactly on s_end.

    The launch and every accepted state pass `_check_state`, and no
    accepted height may fall below the one before it.
    """
    s, y = _launch(cat, s_end)
    _check_state(cat, s, y)
    s_nodes = [0.0, s]
    nodes = [(cat.t, 0.0, 0.0), y]
    h = min(0.1, s_end - s)
    steps = 0
    while s < s_end:
        steps += 1
        if steps > _MAX_STEPS:
            raise ProfileError(f"step budget {_MAX_STEPS} exhausted at s = {s} of {s_end}")
        h = min(h, s_end - s)
        y_trial, (x_lo, v_lo, p_lo) = _ck_step(cat, y, h)
        x_hi, v_hi, p_hi = y_trial
        err = max(
            abs(x_hi - x_lo) / max(1.0, abs(x_hi)),
            abs(v_hi - v_lo) / max(1.0, abs(v_hi)),
            abs(p_hi - p_lo) / max(1.0, abs(p_hi)),
        )
        if err <= DEFAULT_STEP_TOL:
            s = s_end if s + h >= s_end else s + h
            _check_state(cat, s, y_trial)
            # equal passes: too short a step leaves x unchanged in floating point
            if x_hi < y[0]:
                raise ProfileError(f"profile height failed to increase at s = {s}")
            y = y_trial
            s_nodes.append(s)
            nodes.append(y)
            if err > 0.0:
                h *= min(5.0, _SAFETY * (err / DEFAULT_STEP_TOL) ** _GROW_EXP)
            else:
                h *= 5.0
        else:
            h *= max(0.1, _SAFETY * (err / DEFAULT_STEP_TOL) ** _SHRINK_EXP)
            if h < _MIN_STEP:
                raise ProfileError(f"step size underflow at s = {s}")
    return s_nodes, nodes


def integrate_profile(
    cat: HyperbolicCatenoid, s_max: float = DEFAULT_S_MAX
) -> list[ProfileSample]:
    """Profile samples on [0, s_max] at the integrator's accepted steps,
    taken at scaled local error DEFAULT_STEP_TOL (1e-10).

    The first sample is exactly (0, t, 0), the last lands exactly on s_max.
    The height never decreases; it stays equal only across a step too
    short to move it in floating point.  Each state past the neck is
    validated against the first integral and the slope brackets.  s_max
    is capped at S_MAX_CAP because the height grows exponentially.
    """
    s_max = float(s_max)
    if not (math.isfinite(s_max) and 0.0 < s_max <= S_MAX_CAP):
        raise ValueError(f"s_max must lie in (0, {S_MAX_CAP}], got {s_max}")
    s_nodes, nodes = _profile_pass(cat, s_max)
    return [ProfileSample(s, x, v) for s, (x, v, _) in zip(s_nodes, nodes)]


def norm_A_sq(cat: HyperbolicCatenoid, sample: ProfileSample) -> float:
    """Squared norm of the second fundamental form at a profile sample.

    Computed two independent ways: the closed form n(n-1) a^2 x^(-2n) and
    the state-based form n(n-1)(x^2 - x'^2 - 1)/x^2, which agree through
    the first integral.  Disagreement beyond 1e-6 reports integration
    failure; healthy profiles agree to well below 1e-8.
    """
    n = cat.n
    x, v = sample.x, sample.x_prime
    if not (math.isfinite(x) and x >= 1.0):
        raise ValueError(f"sample height must satisfy x >= 1, got {x}")
    closed = n * (n - 1) * cat.a * cat.a * x ** (-2 * n)
    from_state = n * (n - 1) * (x * x - v * v - 1.0) / (x * x)
    if abs(closed - from_state) > 1e-6:
        raise ProfileError(
            f"curvature cross-check failed at s = {sample.s}: "
            f"{closed:.12e} vs {from_state:.12e}"
        )
    return closed


def sup_norm_A_sq(cat: HyperbolicCatenoid) -> float:
    """Supremum n(n-1)(1 - 1/t^2) of |A|^2 = n(n-1) a^2 x^(-2n), attained on
    the neck x = t; computed as (t - 1)(t + 1)/t^2, which does not cancel
    near t = 1."""
    t = cat.t
    return cat.n * (cat.n - 1) * ((t - 1.0) * (t + 1.0) / (t * t))


def principal_curvatures(
    cat: HyperbolicCatenoid, sample: ProfileSample
) -> tuple[float, float]:
    """Principal curvatures (profile direction, orbit direction) at a sample.

    The orbit curvature sqrt(x^2 - x'^2 - 1)/x has multiplicity n - 1 and
    the profile curvature is -(n-1) times it, so the trace vanishes.  A
    negative radicand beyond rounding means the sample does not come from a
    valid profile.
    """
    n = cat.n
    x, v = sample.x, sample.x_prime
    rad = x * x - v * v - 1.0
    if rad < 0.0:
        if rad < -1e-9 * max(1.0, x * x):
            raise ProfileError(
                f"degenerate curvature radicand {rad:.3e} at s = {sample.s}"
            )
        rad = 0.0
    orbit = math.sqrt(rad) / x
    return -(n - 1) * orbit, orbit


def stability_window_max_t(n: int) -> float:
    """Upper endpoint 1 + (n+1)^2 / (4 n (n-1)) of the stable neck range."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"dimension n must be an integer >= 2, got {n!r}")
    return 1.0 + (n + 1) ** 2 / (4 * n * (n - 1))


def is_stable_by_window(cat: HyperbolicCatenoid) -> bool:
    """True iff the neck height lies strictly inside the stable window
    1 < t < stability_window_max_t(n).

    The pointwise test backs the window only for n = 2 and 3, where the
    exact neck value n(n-1)(1 - 1/t^2) of |A|^2 stays at or below
    (n+1)^2 / 4 across it.  For n >= 4 the top of the window, past the
    pointwise edge (t from 1.4446 to 1.5208 at n = 4), rests on no
    certificate in this package.
    """
    return cat.t < stability_window_max_t(cat.n)


def generating_curve(
    cat: HyperbolicCatenoid, sample: ProfileSample
) -> tuple[float, float, float]:
    """Point of the generating curve at the sample's arclength, as a point of
    the hyperbolic plane slice in hyperboloid coordinates (x, y, z).

    The curve is (x, sqrt(x^2 - 1) sin phi, sqrt(x^2 - 1) cos phi) with phi
    the accumulated rotation angle; the Minkowski square is -1 identically.
    The point at |s| comes from `generating_curve_points`, mirrored for
    negative s, and the sample's height is cross-checked against it so
    samples from a different catenoid are rejected.
    """
    s = sample.s
    if not (math.isfinite(s) and abs(s) <= S_MAX_CAP):
        raise ValueError(f"sample arclength must lie in [-{S_MAX_CAP}, {S_MAX_CAP}]")
    [(x, y, z)] = generating_curve_points(cat, [abs(s)]).tolist()
    if abs(x - sample.x) > 1e-6 * max(1.0, abs(sample.x)):
        raise ValueError(
            f"sample height {sample.x} does not match this catenoid's profile "
            f"height {x} at s = {s}"
        )
    return (x, -y, z) if s < 0.0 else (x, y, z)


def generating_curve_points(
    cat: HyperbolicCatenoid, s_values: Iterable[float]
) -> np.ndarray:
    """Generating-curve points at many nonnegative arclengths: a
    (len(s_values), 3) float64 array whose row k is the point (x, y, z) at
    the k-th arclength.

    s_values must be sorted ascending.  The export takes the integrator's
    own steps: it makes `integrate_profile`'s pass to the last arclength,
    at scaled local error DEFAULT_STEP_TOL (1e-10), however many samples
    there are.  Each sample is then reached by one partial Cash-Karp step
    from the last accepted state at or before it, all samples in one array
    step; a sample on an accepted state is that state bit for bit.  Every
    partial step is checked like an accepted one: its own error estimate
    must stay within DEFAULT_STEP_TOL and its state must pass
    `_check_state`'s conditions, or ProfileError names the first failing
    arclength.
    """
    targets = np.fromiter(s_values, dtype=np.float64)
    if not (np.isfinite(targets).all() and (targets >= 0.0).all()):
        raise ValueError("arclength targets must be finite and nonnegative")
    if (np.diff(targets) < 0.0).any():
        raise ValueError("arclength targets must be sorted ascending")
    if targets.size and targets[-1] > S_MAX_CAP:
        raise ValueError(f"arclength targets must not exceed {S_MAX_CAP}")

    s_nodes, nodes = [0.0], [(cat.t, 0.0, 0.0)]
    if targets.size and targets[-1] > 0.0:
        s_nodes, nodes = _profile_pass(cat, float(targets[-1]))
    # the last accepted state at or before each target
    base = np.searchsorted(s_nodes, targets, side="right") - 1
    y0 = tuple(np.array(nodes)[base].T)
    h = targets - np.array(s_nodes)[base]
    with np.errstate(all="ignore"):
        hi, lo = _ck_step(cat, y0, h)
        state = np.array(hi)
        err = (np.abs(state - lo) / np.maximum(1.0, np.abs(state))).max(axis=0)
        _check_rows(cat, targets, state, err)
        x, _, p = state
        r = np.sqrt(x * x - 1.0)
        return np.column_stack((x, r * np.sin(p), r * np.cos(p)))

