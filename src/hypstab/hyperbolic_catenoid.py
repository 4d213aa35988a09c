"""Hyperbolic minimal catenoids in hyperbolic (n+1)-space.

The rotational profile x(s), parametrized by arclength and starting on the
neck sphere at height x(0) = t > 1, has the first integral

    x'^2 = x^2 - 1 - a^2 x^(2 - 2n),      a = t^(n-1) * sqrt(t^2 - 1)

(do Carmo-Dajczer 1983), and the rotation angle phi of the generating curve
turns at the rate a x^(1-n) / (x^2 - 1).  In the height v, x = t cosh v,
the arclength and the angle are two integrals.  With w = sqrt((t-1)(t+1)),
eps = w / t and G(v) = sum_{j=1}^{n-1} sech^(2j) v,

    ds/dv   = 1 / sqrt(1 + eps^2 G),
    dphi/dv = (eps/t) sech^(n-1) v / ((eps^2 + sinh^2 v) sqrt(1 + eps^2 G)),
    x'      = t sinh v sqrt(1 + eps^2 G),      sqrt(x^2 - 1) = hypot(w, t sinh v).

Nothing there cancels near the neck and no a^2 is formed.  One pass
integrates both rates with composite 20-node Gauss-Legendre panels in v,
graded toward v = 0 on the width min(eps, 1/sqrt(n - 1)) of the angle's
peak, and reaches every
requested arclength by interpolation on the nodes of its panel
(`_profile_pass`, `_interpolate`).  Each row carries the pass's error
estimate, and the first integral and the slope brackets check every row
independently (`_check_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .criteria import _integer, _real, _reals

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
    "generating_curve_points",
    "DEFAULT_S_MAX",
    "S_MAX_CAP",
]

DEFAULT_S_MAX = 15.0
S_MAX_CAP = 300.0  # x grows like e^s; past this x^2 approaches double overflow
_ROW_TOL = 1e-10  # bound on each row's error estimate, in v and phi


def _panel_rule(order: int) -> tuple[np.ndarray, ...]:
    """Gauss-Legendre nodes and weights on [-1, 1], the matrix whose row j
    integrates the node values' interpolant from -1 to node j, and the rows
    that give that interpolant's two highest Legendre coefficients."""
    legendre = np.polynomial.legendre
    nodes, weights = legendre.leggauss(order)
    degrees = np.arange(order)
    # discrete Legendre transform, exact for the rule: coefficients = to_coef @ values
    to_coef = (degrees[:, None] + 0.5) * legendre.legvander(nodes, order - 1).T * weights
    antiderivatives = legendre.legint(np.eye(order), lbnd=-1.0)
    cumulative = legendre.legval(nodes, antiderivatives).T @ to_coef
    return nodes, weights, cumulative, to_coef[-2:]


_U, _W, _CUMULATIVE, _TAIL = _panel_rule(20)


class ProfileError(RuntimeError):
    """Profile integration failed or produced geometrically invalid state."""


def shape_constant(n: int, t: float) -> float:
    """Conserved flux constant a = t^(n-1) * sqrt(t^2 - 1) of the profile.

    Requires integer n >= 2 and t >= 1; vanishes exactly at t = 1 (the
    degenerate cylinder-free limit) and is strictly increasing in t.
    Raises OverflowError when a is not a finite float.
    """
    n = _integer(n, "dimension n", 2)
    t = _real(t, "neck height t", least=1)
    try:
        a = t ** (n - 1) * math.sqrt((t - 1.0) * (t + 1.0))
    except OverflowError:
        a = math.inf
    if not math.isfinite(a):
        raise OverflowError(f"shape constant a overflows at n = {n}, t = {t}")
    return a


@dataclass(frozen=True)
class HyperbolicCatenoid:
    """Catenoid with neck height t > 1 in hyperbolic (n+1)-space, n >= 2,
    whose neck constants (t - 1)(t + 1) and n(n - 1) are finite floats."""

    n: int
    t: float

    def __post_init__(self) -> None:
        t = _real(self.t, "neck height t", above=1)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "n", _integer(self.n, "dimension n", 2))
        try:
            finite = math.isfinite((t - 1.0) * (t + 1.0)) and math.isfinite(
                float(self.n * (self.n - 1))
            )
        except OverflowError:  # float() of an int n(n - 1) past the float range
            finite = False
        if not finite:
            raise OverflowError(
                f"catenoid neck overflows at n = {self.n}, t = {t}: "
                "(t - 1)(t + 1) or n(n - 1) is not a finite float"
            )


@dataclass(frozen=True)
class ProfileSample:
    """Profile state at arclength s: height x(s) and slope x'(s)."""

    s: float
    x: float
    x_prime: float


def _neck(cat: HyperbolicCatenoid) -> tuple[float, float, float]:
    """(t, w, eps) with w = sqrt((t - 1)(t + 1)), free of cancellation near
    t = 1, and eps = w / t."""
    t = cat.t
    w = math.sqrt((t - 1.0) * (t + 1.0))
    return t, w, w / t


def _slope_factor(cat: HyperbolicCatenoid, eps: float, sinh_sq: np.ndarray) -> np.ndarray:
    """sqrt(1 + eps^2 G(v)) = x' / (t sinh v) from sinh^2 v, with G summed in
    closed form as (1 - cosh^(2 - 2n) v) / sinh^2 v; G(0) = n - 1.  Its
    callers run it under np.errstate, as np.where evaluates 0/0 at v = 0."""
    m = cat.n - 1
    g = np.where(sinh_sq > 1e-300, -np.expm1(-m * np.log1p(sinh_sq)) / sinh_sq, m)
    return np.sqrt(1.0 + eps * eps * g)


def _rates(cat: HyperbolicCatenoid, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ds/dv and dphi/dv at heights v.  sech^(n-1) v is taken as
    exp(-(n-1)/2 log(1 + sinh^2 v)), which rounding in cosh v would spoil
    for large n."""
    t, _, eps = _neck(cat)
    sinh_sq = np.sinh(v) ** 2
    q = _slope_factor(cat, eps, sinh_sq)
    sech_power = np.exp(0.5 * (1 - cat.n) * np.log1p(sinh_sq))
    return 1.0 / q, (eps / t) * sech_power / ((eps * eps + sinh_sq) * q)


class _Pass(NamedTuple):
    """One quadrature pass, panel by panel: the arclength s0 where each
    panel starts (with one entry more, where the last one ends), its
    arclength span, the height v and angle phi at its start, its 22
    interpolation nodes (both edges and the Gauss nodes) as fractions of the
    span with their barycentric weights, the (v, phi) gained from the start
    at each node, and the error estimate of a row in the panel."""

    s0: np.ndarray
    span: np.ndarray
    start: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    gains: np.ndarray
    err: np.ndarray


@np.errstate(all="ignore")  # a non-finite rate reaches the rows, and `_check_rows` names it
def _profile_pass(cat: HyperbolicCatenoid, s_end: float) -> _Pass:
    """Integrate ds/dv and dphi/dv from the neck far enough to pass s_end > 0.

    Since dv/ds = sqrt(1 + eps^2 G) lies between 1 and q0 = sqrt(1 + (n - 1)
    eps^2), and s >= ln cosh v > v - ln 2, the height at s_end is below
    min(q0 s_end, s_end + ln 2).  The panels in v have edges h 2^(k/2 - 1)
    below 1, then every integer, with h = min(eps, 1/sqrt(n - 1)): the
    angle's peak at v = 0 has width eps, and sech^(n-1) v has width
    1/sqrt(n - 1) there.  Run to s = 15 on every neck of a grid of n from 2
    to 1195 and t from 1 + 1e-9 to 50, this grading keeps every error
    estimate under 4e-12.
    The arclength and angle at each node come from the integration matrix
    of the rule.  A row's error estimate adds two parts: the Legendre tail
    of both rates' interpolants, summed over the panels up to the row's, and
    the interpolation error of its panel, taken as the largest change of the
    interpolant at a node when that node is left out.
    """
    t, _, eps = _neck(cat)
    q0 = math.sqrt(1.0 + (cat.n - 1) * eps * eps)
    v_end = min(q0 * s_end, s_end + math.log(2.0))
    h = min(eps, 1.0 / math.sqrt(cat.n - 1))
    graded = 0.5 * h * 2.0 ** (0.5 * np.arange(math.ceil(2.0 * math.log2(2.0 / h))))
    edges = np.concatenate(([0.0], graded[graded < 1.0], np.arange(1.0, math.ceil(v_end) + 1.0)))
    edges = edges[: np.searchsorted(edges, v_end) + 1]
    half = 0.5 * np.diff(edges)[:, None]
    ds, dphi = _rates(cat, edges[:-1, None] + half * (1.0 + _U))
    s_span, phi_span = half[:, 0] * (ds @ _W), half[:, 0] * (dphi @ _W)
    tail = q0 * np.abs(ds @ _TAIL.T).sum(axis=1) + np.abs(dphi @ _TAIL.T).sum(axis=1)
    zero = np.zeros_like(half)
    nodes = np.hstack((zero, half * (ds @ _CUMULATIVE.T), s_span[:, None])) / s_span[:, None]
    gains = np.stack((
        np.hstack((zero, half * (1.0 + _U), 2.0 * half)),
        np.hstack((zero, half * (dphi @ _CUMULATIVE.T), phi_span[:, None])),
    ), axis=-1)
    gaps = nodes[:, :, None] - nodes[:, None, :] + np.eye(nodes.shape[1])
    weights = 1.0 / gaps.prod(axis=2)
    weights /= np.abs(weights).max(axis=1, keepdims=True)
    # leaving node j out moves the interpolant there by (sum_k weights_k y_k) / weights_j
    leave_one_out = np.abs(weights[:, None, :] @ gains).sum(axis=(1, 2))
    return _Pass(
        s0=np.concatenate(([0.0], np.cumsum(s_span))),
        span=s_span,
        start=np.column_stack((edges[:-1], np.concatenate(([0.0], np.cumsum(phi_span)[:-1])))),
        nodes=nodes,
        weights=weights,
        gains=gains,
        err=np.cumsum(2.0 * half[:, 0] * tail) + leave_one_out / np.abs(weights).min(axis=1),
    )


def _interpolate(pas: _Pass, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Height v, angle phi and error estimate at sorted arclengths s within
    the pass, by barycentric interpolation on the nodes of each one's panel; an
    arclength within 1e-300 spans of a node, so on it up to rounding, takes
    that node's values, and the weights, at most 1, stay finite over the
    gaps to the other nodes."""
    p = np.clip(np.searchsorted(pas.s0, s, side="right") - 1, 0, len(pas.span) - 1)
    gap = ((s - pas.s0[p]) / pas.span[p])[:, None] - pas.nodes[p]
    hit = abs(gap) < 1e-300
    c = pas.weights[p] / np.where(hit, 1.0, gap)
    on_node = hit.any(axis=1)
    c[on_node] = hit[on_node]
    v_phi = (c[:, None, :] @ pas.gains[p])[:, 0] / c.sum(axis=1)[:, None]
    # both rise with s; the running maximum evens out rounding between
    # arclengths an ulp apart, which may otherwise put a row one ulp back
    v, phi = np.maximum.accumulate(pas.start[p] + v_phi, axis=0).T
    return v, phi, pas.err[p]


# What `_check_rows` rejects, in the order it tests: finiteness first, then
# the six bounds of `_state_faults`, then the row's error estimate.
_FAULT_MESSAGES = (
    "non-finite profile state at s = {s}",
    "profile point overflows at n = {n}, t = {t}, s = {s}: x^2 is not a finite float",
    "profile height {x} fell below the neck {t} at s = {s}",
    "profile slope {v} went negative at s = {s}",
    "first-integral drift {residual:.3e} at s = {s} exceeds tolerance",
    "upper slope bracket violated at s = {s}",
    "lower slope bracket violated at s = {s}",
    "profile row at s = {s} has error estimate {err:.3e} above the row tolerance",
)


def _state_faults(
    cat: HyperbolicCatenoid, x: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """First-integral residual, relative to x^2, and the six bound
    violations of finite states (square overflow, neck, slope sign, first
    integral, upper and lower slope bracket), each true where the state
    breaks the bound.

    Every test is divided through by x^2, with g = 1/x: the first integral
    reads (x'g)^2 = 1 - g^2 - (wg)^2 (tg)^(2n-2), and the slope brackets
    x^2 - t^2 <= x'^2 < x^2 - 1 read 1 - (tg)^2 <= (x'g)^2 < 1 - g^2, so
    nothing overflows and no a^2 is formed.
    """
    t, w, _ = _neck(cat)
    g = 1.0 / x
    slope_sq = (v * g) ** 2
    upper = 1.0 - g * g
    residual = slope_sq - (upper - (w * g) ** 2 * (t * g) ** (2 * cat.n - 2))
    return residual, (
        ~np.isfinite(x * x),
        x < t - 1e-9 * max(1.0, t),
        (v < -1e-9) & (v < -1e-9 * x),
        abs(residual) > 1e-9,
        # with slack for rounding, since the upper gap falls under one ulp of 1 at large s
        slope_sq > upper * (1.0 + 1e-9) + 1e-9 * g * g,
        slope_sq < 1.0 - (t * g) ** 2 - 1e-9,
    )


def _check_rows(
    cat: HyperbolicCatenoid, s: np.ndarray, state: np.ndarray, err: np.ndarray
) -> None:
    """Geometric sanity of the columns of a (3, k) array of states (x, x',
    phi) reached at arclengths s with error estimates err, which must stay
    within _ROW_TOL.  This is the one state check, made once per pass on
    all of its rows.  Violations are integrator bugs or blow-ups, not user
    errors, so the first failing column raises ProfileError naming its
    arclength."""
    x, v, _ = state
    with np.errstate(all="ignore"):
        residual, faults = _state_faults(cat, x, v)
        failed = np.array([~np.isfinite(state).all(axis=0), *faults, ~(err <= _ROW_TOL)])
    bad = failed.any(axis=0)
    if bad.any():
        k = int(bad.argmax())
        raise ProfileError(
            _FAULT_MESSAGES[int(failed[:, k].argmax())].format(
                s=s[k], x=x[k], v=v[k], n=cat.n, t=cat.t, residual=residual[k], err=err[k]
            )
        )


def _profile_rows(
    cat: HyperbolicCatenoid, s: np.ndarray, pas: _Pass | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Checked rows x, x', phi and sqrt(x^2 - 1) at sorted arclengths s,
    interpolated in the pass; without a pass every s is the neck."""
    with np.errstate(all="ignore"):
        if pas is None:
            v = phi = err = np.zeros_like(s)
        else:
            v, phi, err = _interpolate(pas, s)
        t, w, eps = _neck(cat)
        sinh = np.sinh(v)
        x, slope = t * np.cosh(v), t * sinh * _slope_factor(cat, eps, sinh * sinh)
        radius = np.hypot(w, t * sinh)
    _check_rows(cat, s, np.array([x, slope, phi]), err)
    return x, slope, phi, radius


def integrate_profile(
    cat: HyperbolicCatenoid, s_max: float = DEFAULT_S_MAX
) -> list[ProfileSample]:
    """Profile samples on [0, s_max]: one at each panel edge of the
    quadrature pass below s_max, and one at s_max.

    The first sample is exactly (0, t, 0), the last lands exactly on s_max,
    and the height rises from each sample to the next.  Every sample passes
    the checks of `_check_rows`: the first integral, the slope brackets, and
    an error estimate within 1e-10.  s_max is capped at S_MAX_CAP because
    the height grows exponentially.
    """
    s_max = _real(s_max, "s_max", above=0, most=S_MAX_CAP)
    pas = _profile_pass(cat, s_max)
    s = np.append(pas.s0[pas.s0 < s_max], s_max)
    x, slope, _, _ = _profile_rows(cat, s, pas)
    return [ProfileSample(*row) for row in zip(s.tolist(), x.tolist(), slope.tolist())]


def norm_A_sq(cat: HyperbolicCatenoid, sample: ProfileSample) -> float:
    """Squared norm n(n-1) kappa^2 of the second fundamental form at a
    profile sample, kappa = eps (t/x)^n the orbit curvature; a sample that
    fails the state check of `principal_curvatures` raises ProfileError."""
    return cat.n * (cat.n - 1) * principal_curvatures(cat, sample)[1] ** 2


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

    The orbit curvature is the closed form kappa = eps (t/x)^n = a x^(-n),
    of multiplicity n - 1, and the profile curvature is -(n-1) kappa, so
    the trace vanishes.  The sample is checked as the state (x, |x'|) by
    `_check_rows`, whose first-integral residual is kappa^2 minus the
    radicand 1 - (x'/x)^2 - 1/x^2, so a sample that does not come from this
    profile raises ProfileError; |x'| admits the mirrored branch s < 0.
    """
    t, _, eps = _neck(cat)
    x = _real(sample.x, "sample height x", least=1)
    state = np.array([[x], [abs(sample.x_prime)], [0.0]])
    _check_rows(cat, np.array([sample.s]), state, np.zeros(1))
    kappa = eps * (t / x) ** cat.n
    return -(cat.n - 1) * kappa, kappa


def stability_window_max_t(n: int) -> float:
    """Upper endpoint 1 + (n+1)^2 / (4 n (n-1)) of the stable neck range."""
    n = _integer(n, "dimension n", 2)
    return 1.0 + (n + 1) ** 2 / (4 * n * (n - 1))


def is_stable_by_window(cat: HyperbolicCatenoid) -> bool:
    """True iff the neck height lies strictly inside the stable window
    1 < t < stability_window_max_t(n).  The window is one sufficient test:
    False means it is silent, not that the neck is unstable.

    The pointwise test backs the window only for n = 2 and 3, where the
    exact neck value n(n-1)(1 - 1/t^2) of |A|^2 stays at or below
    (n+1)^2 / 4 across it, and reaches past it there: every neck at n = 2,
    up to t = sqrt(3) at n = 3.  For n >= 4 the top of the window, past the
    pointwise edge (t from 1.4446 to 1.5208 at n = 4), rests on no
    certificate in this package.
    """
    return cat.t < stability_window_max_t(cat.n)


def generating_curve_points(
    cat: HyperbolicCatenoid, s_values: Iterable[float]
) -> np.ndarray:
    """Generating-curve points at many nonnegative arclengths: a
    (len(s_values), 3) float64 array whose row k is the point (x, y, z) at
    the k-th arclength.

    s_values, any iterable of finite reals in [0, S_MAX_CAP] (ValueError
    names the first other, as arclength s[k]), must be sorted ascending.  One
    quadrature pass runs to the last arclength, the pass `integrate_profile`
    makes, with the same panels however many samples there are; each sample
    is then interpolated on the nodes of its panel, all samples in one array
    evaluation.  The row at s = 0 is exactly (t, 0, sqrt((t - 1)(t + 1))).
    Every row is checked once, all together, by `_check_rows`: its error
    estimate must stay within 1e-10 and its state must keep the first
    integral and the slope brackets, or ProfileError names the first failing
    arclength.
    """
    targets = _reals(s_values, "arclength s", least=0, most=S_MAX_CAP)
    if (np.diff(targets) < 0.0).any():
        raise ValueError("arclength targets must be sorted ascending")

    pas = None
    if targets.size and targets[-1] > 0.0:
        pas = _profile_pass(cat, float(targets[-1]))
    x, _, phi, radius = _profile_rows(cat, targets, pas)
    return np.column_stack((x, radius * np.sin(phi), radius * np.cos(phi)))
