"""Hyperbolic catenoid profiles against a fixed-step RK4 oracle, an mpmath
profile reference and the n = 2 closed form, plus the closed-form geometry
at the neck and the stability window."""

import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hypstab.hyperbolic_catenoid as hyperbolic_catenoid
from hypstab.cli import EXIT_NUMERICAL, main
from hypstab.hyperbolic_catenoid import (
    HyperbolicCatenoid,
    ProfileError,
    ProfileSample,
    generating_curve_points,
    integrate_profile,
    is_stable_by_window,
    norm_A_sq,
    principal_curvatures,
    shape_constant,
    stability_window_max_t,
    sup_norm_A_sq,
)
from hypstab.lorentz import minkowski_inner, on_hyperboloid_rows

import oracles

GRID = [(n, t) for n in (2, 3, 4) for t in (1.1, 1.5, 2.0)]

# rk4_profile_oracle(n, t, 2.0, h=1e-4): profile height at s = 2.
X2_ORACLE = {
    (2, 1.1): 4.459691167958986,
    (2, 1.5): 6.949058027029926,
    (2, 2.0): 9.801980153318986,
    (3, 1.1): 4.656793957149479,
    (3, 1.5): 7.613301765516539,
    (3, 2.0): 10.879080252925574,
    (4, 1.1): 4.796059070715552,
    (4, 1.5): 8.014717199634969,
    (4, 2.0): 11.497672816756142,
}


def test_shape_constant_values_and_validation():
    assert shape_constant(2, 1.0) == 0.0
    assert shape_constant(2, math.sqrt(2.0)) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert shape_constant(3, 2.0) == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-15)
    with pytest.raises(ValueError):
        shape_constant(1, 1.5)
    with pytest.raises(ValueError):
        shape_constant(2, 0.9)
    with pytest.raises(ValueError):
        shape_constant(2.0, 1.5)  # non-integer dimension
    with pytest.raises(ValueError):
        shape_constant(True, 1.5)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("t_minus_1", [1e-12, 1e-9, 1e-6, 1e-4])
def test_shape_constant_is_free_of_cancellation_near_the_neck(n, t_minus_1):
    """a = t^(n-1) sqrt(t^2 - 1) against 40-digit mpmath at the same float t;
    forming t*t - 1 in floats loses up to 1e-10 relative here."""
    import mpmath

    t = 1.0 + t_minus_1
    with mpmath.workdps(40):
        exact = mpmath.mpf(t) ** (n - 1) * mpmath.sqrt(mpmath.mpf(t) ** 2 - 1)
        rel = abs((shape_constant(n, t) - exact) / exact)
    assert rel <= 1e-15


def test_catenoid_constructor():
    cat = HyperbolicCatenoid(3, 1.5)
    assert [f.name for f in fields(cat)] == ["n", "t"]
    with pytest.raises(ValueError):
        HyperbolicCatenoid(3, 1.0)  # neck height must be strictly above 1
    with pytest.raises(ValueError):
        HyperbolicCatenoid(3, math.inf)
    for n in (1, 2.0, True):
        with pytest.raises(ValueError, match=re.escape(f"got {n!r}")):
            HyperbolicCatenoid(n, 1.5)


def test_profile_endpoints_are_exact():
    """The samples are the pass's panel edges below s_max, then s_max."""
    cat = HyperbolicCatenoid(2, 1.5)
    samples = integrate_profile(cat, 3.0)
    assert samples[0] == ProfileSample(0.0, 1.5, 0.0)
    assert samples[-1].s == 3.0
    edges = hyperbolic_catenoid._profile_pass(cat, 3.0).s0
    assert [smp.s for smp in samples[:-1]] == edges[edges < 3.0].tolist()
    assert len(samples) >= 3


def test_pass_grading_bounds_every_buildable_neck():
    """The grading claim of `_profile_pass`: run to s = 15, every error
    estimate stays under 4e-12 on each of the 90 necks of the grid."""
    for n in (2, 3, 6, 20, 60, 180, 500, 1000, 1195):
        for t in (1 + 1e-9, 1 + 1e-6, 1.0001, 1.05, 1.5, 1.8, 2.0, 3.0, 10.0, 50.0):
            cat = HyperbolicCatenoid(n, t)
            worst = hyperbolic_catenoid._profile_pass(cat, 15.0).err.max()
            assert worst < 4e-12, f"(n, t) = ({n}, {t}): {worst:.3e}"


def test_profile_height_strictly_increases():
    for n, t in GRID:
        samples = integrate_profile(HyperbolicCatenoid(n, t), 3.0)
        xs = [smp.x for smp in samples]
        assert all(b > a for a, b in zip(xs, xs[1:]))


def test_profile_matches_rk4_oracle():
    for (n, t), want in X2_ORACLE.items():
        samples = integrate_profile(HyperbolicCatenoid(n, t), 2.0)
        assert samples[-1].x == pytest.approx(want, abs=1e-8), f"(n, t) = ({n}, {t})"


def test_slope_brackets_hold_on_every_sample():
    """sqrt(x^2 - 1 - a^2) < x' < sqrt(x^2 - 1) past the neck, strictly at
    moderate arclength where the gaps are many ulps wide."""
    for n, t in GRID:
        cat = HyperbolicCatenoid(n, t)
        a = shape_constant(n, t)
        for smp in integrate_profile(cat, 3.0)[1:]:
            upper = smp.x * smp.x - 1.0
            lower = upper - a * a
            v_sq = smp.x_prime * smp.x_prime
            assert v_sq < upper
            assert v_sq > lower


def test_first_integral_conserved():
    for n, t in GRID:
        cat = HyperbolicCatenoid(n, t)
        a = shape_constant(n, t)
        a_sq = a * a
        for smp in integrate_profile(cat, 3.0):
            residual = smp.x_prime**2 - (
                smp.x**2 - 1.0 - a_sq * smp.x ** (2 - 2 * n)
            )
            assert abs(residual) <= 1e-9 * max(1.0, smp.x**2)


def test_curvature_two_forms_agree():
    for n, t in GRID:
        cat = HyperbolicCatenoid(n, t)
        for smp in integrate_profile(cat, 3.0):
            closed = n * (n - 1) * shape_constant(n, t) ** 2 * smp.x ** (-2 * n)
            state = n * (n - 1) * (smp.x**2 - smp.x_prime**2 - 1.0) / smp.x**2
            assert abs(closed - state) < 1e-8
            assert norm_A_sq(cat, smp) == pytest.approx(closed, rel=1e-14)


def test_neck_curvature_closed_form():
    for n, t in GRID:
        cat = HyperbolicCatenoid(n, t)
        neck = ProfileSample(0.0, t, 0.0)
        assert norm_A_sq(cat, neck) == pytest.approx(
            n * (n - 1) * (t * t - 1.0) / (t * t), rel=1e-12
        )


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("t", [1.01, 1.05, 1.5, 2.2, 3.0, 40.0])
def test_sup_norm_A_sq_is_the_neck_value(n, t):
    cat = HyperbolicCatenoid(n, t)
    sup = sup_norm_A_sq(cat)
    assert sup == pytest.approx(norm_A_sq(cat, ProfileSample(0.0, t, 0.0)), rel=1e-13)
    for smp in integrate_profile(cat, 2.0):
        assert norm_A_sq(cat, smp) <= sup * (1.0 + 1e-13)


def test_corrupted_sample_fails_cross_check():
    cat = HyperbolicCatenoid(2, 1.5)
    good = integrate_profile(cat, 2.0)[-1]
    bad = ProfileSample(good.s, good.x, good.x_prime + 0.05)
    with pytest.raises(ProfileError):
        norm_A_sq(cat, bad)
    with pytest.raises(ValueError):
        norm_A_sq(cat, ProfileSample(0.0, 0.5, 0.0))  # height below 1


def test_principal_curvatures_neck_and_trace():
    cat = HyperbolicCatenoid(2, 2.0)
    lam1, lam2 = principal_curvatures(cat, ProfileSample(0.0, 2.0, 0.0))
    assert lam2 == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
    assert lam1 == pytest.approx(-math.sqrt(3.0) / 2.0, rel=1e-14)
    for n, t in GRID:
        cat = HyperbolicCatenoid(n, t)
        eps = math.sqrt((t - 1.0) * (t + 1.0)) / t
        for smp in integrate_profile(cat, 40.0):
            lam1, lam2 = principal_curvatures(cat, smp)
            kappa = eps * (t / smp.x) ** n  # a x^(-n)
            assert lam2 == pytest.approx(kappa, rel=1e-13)
            assert lam1 == pytest.approx(-(n - 1) * kappa, rel=1e-13)
            assert lam1 * lam1 + (n - 1) * lam2 * lam2 == pytest.approx(
                norm_A_sq(cat, smp), rel=1e-13
            )


@pytest.mark.parametrize("n, t, s, want", [(4, 2.0, 10.0, 1.01e-17), (2, 1.5, 15.0, 1.79e-13)])
def test_orbit_curvature_far_from_the_neck(n, t, s, want):
    """The radicand x^2 - x'^2 - 1 cancels to rounding here; the closed
    form a x^(-n) does not."""
    cat = HyperbolicCatenoid(n, t)
    smp = integrate_profile(cat, s)[-1]
    kappa = shape_constant(n, t) * smp.x ** -n
    assert kappa == pytest.approx(want, rel=0.01)
    assert principal_curvatures(cat, smp)[1] == pytest.approx(kappa, rel=1e-13)
    assert norm_A_sq(cat, smp) == pytest.approx(n * (n - 1) * kappa**2, rel=1e-13)


def test_principal_curvatures_degenerate_radicand():
    cat = HyperbolicCatenoid(2, 1.5)
    with pytest.raises(ProfileError):
        principal_curvatures(cat, ProfileSample(1.0, 1.0, 0.9))


def test_principal_curvatures_accept_the_mirrored_branch():
    """The catenoid is symmetric about its neck: the sample (-s, x, -x')
    lies on the profile and has the curvatures of (s, x, x')."""
    cat = HyperbolicCatenoid(3, 1.5)
    for smp in integrate_profile(cat, 8.0)[1:]:
        assert smp.x_prime > 0.0
        mirrored = ProfileSample(-smp.s, smp.x, -smp.x_prime)
        assert principal_curvatures(cat, mirrored) == principal_curvatures(cat, smp)


def test_stability_window_values():
    assert stability_window_max_t(2) == 2.125  # 1 + 9/8, exact in binary
    assert stability_window_max_t(3) == pytest.approx(1.0 + 16.0 / 24.0, rel=1e-15)
    assert stability_window_max_t(4) == pytest.approx(1.0 + 25.0 / 48.0, rel=1e-15)
    assert stability_window_max_t(10**160) == 1.25  # an int past the float range
    with pytest.raises(ValueError):
        stability_window_max_t(1)
    with pytest.raises(ValueError):
        stability_window_max_t(2.0)


def test_window_membership():
    assert is_stable_by_window(HyperbolicCatenoid(2, 1.5))
    assert is_stable_by_window(HyperbolicCatenoid(2, 2.1))
    assert not is_stable_by_window(HyperbolicCatenoid(2, 2.125))  # boundary excluded
    assert not is_stable_by_window(HyperbolicCatenoid(2, 3.0))
    assert is_stable_by_window(HyperbolicCatenoid(5, 1.4))
    assert not is_stable_by_window(HyperbolicCatenoid(5, 1.5))


@pytest.mark.parametrize("n, t", [(1000, 3.0), (2, 1e200)])
def test_shape_constant_overflow_names_n_and_t(n, t):
    with pytest.raises(OverflowError, match=re.escape(f"overflows at n = {n}, t = {t}")):
        shape_constant(n, t)


@pytest.mark.parametrize("n, t", [(2, 1e200), (10**160, 1.5), (10**400, 1.5)],
                         ids=["t-1e200", "n-1e160", "n-1e400"])
def test_neck_past_the_float_range_names_n_and_t(n, t):
    """(t - 1)(t + 1) or n(n - 1) is not a finite float: the neck is refused
    by name, before any pass."""
    message = (f"catenoid neck overflows at n = {n}, t = {t}: "
               "(t - 1)(t + 1) or n(n - 1) is not a finite float")
    with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
        HyperbolicCatenoid(n, t)


@pytest.mark.parametrize(
    "n, t", [(1000, 3.0), (1100, 2.0), (2000, 1.5), (5000, 1.1), (8000, 1.1)]
)
def test_large_dimension_necks_build(n, t):
    """The curve to s = 6 is on the sheet with rising height.  At all but
    (5000, 1.1), where a is 3.8e206, a = t^(n-1) sqrt(t^2 - 1) is past
    the float range, and nothing forms it."""
    rows = generating_curve_points(HyperbolicCatenoid(n, t), np.linspace(0.0, 6.0, 61))
    assert on_hyperboloid_rows(rows, 1e-8).all()
    assert (np.diff(rows[:, 0]) > 0.0).all()


def test_shape_constant_stays_finite_below_the_float_range():
    assert shape_constant(1000, 1.5) == pytest.approx(1.5**999 * math.sqrt(1.25), rel=1e-12)


@pytest.mark.parametrize("n, t", [(2, 8.8e76), (3, 1.7e51), (6, 3.5e25)])
def test_former_equation_overflows_integrate(n, t):
    """(n - 1)(2n - 1) a^2 is not a finite float at these necks, and no part
    of the profile forms it: both sweeps run, and the rows are on the sheet."""
    cat = HyperbolicCatenoid(n, t)
    assert stability_window_max_t(n) > 1.0 and not is_stable_by_window(cat)
    a = shape_constant(n, t)
    assert not math.isfinite((n - 1) * (2 * n - 1) * a * a)
    samples = integrate_profile(cat, 1.0)
    assert samples[-1].s == 1.0 and math.isfinite(samples[-1].x)
    rows = generating_curve_points(cat, np.linspace(0.0, 15.0, 31))
    assert on_hyperboloid_rows(rows, 1e-8).all()
    assert (np.diff(rows[:, 0]) > 0.0).all()


@pytest.mark.parametrize("n, t", [(2, 1e150)])
def test_profile_point_overflow_names_n_t_and_s(n, t):
    """From s = 9.9 on the height exceeds 1.3e154, so x^2 and the point's
    Minkowski square are not finite floats; the first such row is named."""
    cat = HyperbolicCatenoid(n, t)
    assert integrate_profile(cat, 9.0)[-1].s == 9.0
    message = re.escape(f"profile point overflows at n = {n}, t = {t}, s = ")
    with pytest.raises(ProfileError, match=f"^{message}\\S+: x\\^2 is not a finite float$"):
        integrate_profile(cat, 15.0)
    with pytest.raises(ProfileError, match=f"^{message}15\\.0: x\\^2 is not a finite float$"):
        generating_curve_points(cat, [0.0, 7.5, 15.0])


@pytest.mark.parametrize("n, t", [(2, 8.7e76), (6, 3.4e25)])
def test_profile_equation_just_below_its_overflow_integrates(n, t):
    samples = integrate_profile(HyperbolicCatenoid(n, t), 1.0)
    assert samples[-1].s == 1.0 and math.isfinite(samples[-1].x)


def test_integrate_profile_validation():
    cat = HyperbolicCatenoid(2, 1.5)
    with pytest.raises(ValueError):
        integrate_profile(cat, 0.0)
    with pytest.raises(ValueError):
        integrate_profile(cat, 301.0)  # beyond the exponential-growth cap


def test_long_run_stays_within_cap():
    samples = integrate_profile(HyperbolicCatenoid(2, 1.5), 40.0)
    assert samples[-1].s == 40.0
    assert math.isfinite(samples[-1].x)


def test_generating_curve_on_hyperbolic_plane():
    """The curve at the arclengths of `integrate_profile` is on the sheet
    and has each sample's height."""
    cat = HyperbolicCatenoid(2, 1.5)
    samples = integrate_profile(cat, 3.0)
    rows = generating_curve_points(cat, [smp.s for smp in samples])
    assert rows.shape == (len(samples), 3)
    assert on_hyperboloid_rows(rows, 1e-8).all()
    assert rows[:, 0] == pytest.approx([smp.x for smp in samples], abs=1e-7)


def test_generating_curve_is_unit_speed():
    """First difference of the curve has Minkowski square +1: the curve is
    parametrized by hyperbolic arclength."""
    cat = HyperbolicCatenoid(3, 1.3)
    h = 1e-4
    for s in (0.5, 1.2, 2.4):
        pts = generating_curve_points(cat, [s - h, s + h])
        diff = [(b - a) / (2.0 * h) for a, b in zip(pts[0], pts[1])]
        assert minkowski_inner(diff, diff) == pytest.approx(1.0, abs=1e-6)


def test_generating_curve_points_validation():
    cat = HyperbolicCatenoid(2, 1.5)
    with pytest.raises(ValueError):
        generating_curve_points(cat, [1.0, 0.5])  # unsorted
    with pytest.raises(ValueError):
        generating_curve_points(cat, [-1.0])
    with pytest.raises(ValueError, match="must not exceed 300.0"):
        generating_curve_points(cat, [0.0, hyperbolic_catenoid.S_MAX_CAP * (1.0 + 1e-15)])
    assert generating_curve_points(cat, []).shape == (0, 3)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.floats(1.01, 3.0),
    st.lists(st.floats(0.0, 7.5), min_size=1, max_size=30).map(sorted),
)
def test_curve_sweep_is_one_array_of_sheet_points(n, t, targets):
    """One (k, 3) float64 row per target, on the sheet, rising in x, and the
    last row agrees with a sweep that runs straight to the last target."""
    cat = HyperbolicCatenoid(n, t)
    rows = generating_curve_points(cat, targets)
    assert rows.dtype == np.float64
    assert rows.shape == (len(targets), 3)
    assert on_hyperboloid_rows(rows, 1e-8).all()
    assert (np.diff(rows[:, 0]) >= 0.0).all()
    fresh = generating_curve_points(cat, targets[-1:])[0]
    assert np.abs(rows[-1] - fresh).max() <= 1e-8 * np.abs(fresh).max()


@pytest.mark.parametrize("t", [1.0001, 1.01, 1.5, 3.0])
def test_n2_export_matches_the_elementary_profile(t):
    """At n = 2 the profile is elementary: x^2 = 1/2 + sqrt(1/4 + a^2) cosh 2s."""
    cat = HyperbolicCatenoid(2, t)
    s = np.linspace(0.0, 7.5, 2001)
    a = shape_constant(2, t)
    want = np.sqrt(0.5 + math.sqrt(0.25 + a * a) * np.cosh(2.0 * s))
    got = generating_curve_points(cat, s)[:, 0]
    assert np.abs(got / want - 1.0).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("t_minus_1", [1e-12, 1e-8, 1e-6, 1e-4, 0.05, 0.5])
def test_profile_matches_the_mpmath_reference_near_the_neck(n, t_minus_1):
    """Height and rotation angle at s = 12 against an mpmath integration of
    the first integral; near t = 1 the angle's peak at the neck has width
    sqrt(t^2 - 1)/t, and the angle tends to pi/2."""
    t = 1.0 + t_minus_1
    x_want, phi_want = oracles.profile_reference(n, t, 12.0)
    cat = HyperbolicCatenoid(n, t)
    x, y, z = generating_curve_points(cat, [0.0, 12.0])[1]
    assert x == pytest.approx(x_want, rel=1e-12)
    assert math.atan2(y, z) == pytest.approx(phi_want, abs=1e-12)
    assert integrate_profile(cat, 12.0)[-1].x == pytest.approx(x_want, rel=1e-12)


@pytest.mark.parametrize("s_max", [1e-12, 1e-9])
def test_profile_too_short_to_move_the_height_returns(s_max):
    """Steps this short leave x equal to the neck height in floating point;
    equal heights are not a decrease."""
    for n, t in GRID:
        samples = integrate_profile(HyperbolicCatenoid(n, t), s_max)
        assert samples[-1].s == s_max
        xs = [smp.x for smp in samples]
        assert all(b >= a for a, b in zip(xs, xs[1:]))
        assert xs[-1] == pytest.approx(t, rel=1e-15)


def test_profile_height_may_not_decrease():
    """Arclengths one ulp apart interpolate to heights that may round
    either way; the rows' heights still never step back."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        t = 1.0 + 10.0 ** rng.uniform(-12.0, 0.3)
        base = np.sort(rng.uniform(0.0, 7.5, 20))
        s = np.sort(np.concatenate((base, np.nextafter(base, np.inf), base[:3])))
        rows = generating_curve_points(HyperbolicCatenoid(n, t), s)
        assert (np.diff(rows[:, 0]) >= 0.0).all(), (n, t)


def test_accepted_state_breaking_the_first_integral_is_named(monkeypatch):
    """Every row with x > t sqrt(2) gets its slope raised by half after the
    pass; the first such row names its arclength and its drift."""
    cat = HyperbolicCatenoid(2, 1.5)
    sweeps = {
        "profile": (lambda: integrate_profile(cat, 3.0),
                    np.array([smp.s for smp in integrate_profile(cat, 3.0)])),
        "export": (lambda: generating_curve_points(cat, np.linspace(0.0, 3.0, 7)),
                   np.linspace(0.0, 3.0, 7)),
    }
    first = {}
    a = shape_constant(2, 1.5)
    for name, (_, s) in sweeps.items():
        x = generating_curve_points(cat, s)[:, 0]
        k = int(np.argmax(x > 1.5 * math.sqrt(2.0)))
        slope = 1.5 * math.sqrt(x[k] ** 2 - 1.0 - a**2 / x[k] ** 2)
        residual = (slope / x[k]) ** 2 - (1.0 - 1.0 / x[k] ** 2 - a**2 / x[k] ** 4)
        first[name] = (s[k], residual)
    slope_factor = hyperbolic_catenoid._slope_factor

    def drifting(cat, eps, sinh_sq):
        q = slope_factor(cat, eps, sinh_sq)
        # the rows ask for one dimension, the pass for a (panels, nodes) grid
        return np.where(sinh_sq > 1.0, 1.5 * q, q) if sinh_sq.ndim == 1 else q

    monkeypatch.setattr(hyperbolic_catenoid, "_slope_factor", drifting)
    for name, (sweep, _) in sweeps.items():
        s, residual = first[name]
        with pytest.raises(ProfileError) as info:
            sweep()
        named = re.fullmatch(r"first-integral drift (\S+) at s = (\S+) exceeds tolerance",
                             str(info.value))
        assert named and named[2] == str(s), name
        assert float(named[1]) == pytest.approx(residual, rel=1e-3), name


def test_one_row_check_per_pass(monkeypatch):
    check_rows = hyperbolic_catenoid._check_rows
    calls = []

    def counting(cat, s, state, err):
        calls.append(len(s))
        return check_rows(cat, s, state, err)

    monkeypatch.setattr(hyperbolic_catenoid, "_check_rows", counting)
    cat = HyperbolicCatenoid(3, 1.2)
    samples = integrate_profile(cat, 7.5)
    assert calls == [len(samples)]  # every sample, the neck included, at once
    calls.clear()
    generating_curve_points(cat, np.linspace(0.0, 7.5, 500))
    assert calls == [500]
    calls.clear()
    generating_curve_points(cat, [0.0, 0.0])  # no pass: the neck only
    assert calls == [2]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.floats(1.01, 5.0), st.floats(1e-6, 15.0))
def test_accepted_heights_are_the_export_rows(n, t, s_max):
    """The profile and the export make one pass: at every sample's
    arclength (panel edges and s_max) the export's row is the sample's
    height, bit for bit."""
    cat = HyperbolicCatenoid(n, t)
    samples = integrate_profile(cat, s_max)
    rows = generating_curve_points(cat, [smp.s for smp in samples])
    assert rows[:, 0].tolist() == [smp.x for smp in samples]


def test_export_work_does_not_grow_with_the_samples(monkeypatch):
    """The export makes the profile's one pass, whose rates are evaluated
    at the panel nodes only, however many samples it asks for."""
    rates = hyperbolic_catenoid._rates
    calls = []

    def counting(cat, v):
        calls.append(v.size)
        return rates(cat, v)

    monkeypatch.setattr(hyperbolic_catenoid, "_rates", counting)
    cat = HyperbolicCatenoid(3, 1.2)
    integrate_profile(cat, 7.5)
    free = list(calls)
    assert len(free) == 1
    for k in (200, 2000):
        calls.clear()
        generating_curve_points(cat, np.linspace(0.0, 7.5, k))
        assert calls == free, k


def test_overflow_in_a_step_is_a_profile_error(monkeypatch, tmp_path, capsys):
    """Rates that overflow past v = 1 in the quadrature pass make every
    later row non-finite: a typed failure naming the first such arclength,
    without a RuntimeWarning."""
    rates = hyperbolic_catenoid._rates

    def overflowing(cat, v):
        ds, dphi = rates(cat, v)
        return ds, np.where(v > 1.0, np.inf, dphi)

    monkeypatch.setattr(hyperbolic_catenoid, "_rates", overflowing)
    cat = HyperbolicCatenoid(2, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert generating_curve_points(cat, [0.0, 0.5]).shape == (2, 3)
        with pytest.raises(ProfileError, match=r"^non-finite profile state at s = 1\.0$"):
            generating_curve_points(cat, [0.5, 1.0, 2.0])
        out = tmp_path / "curve.csv"
        code = main(["embed-export", "--family", "hyperbolic-curve", "--s-max", "2",
                     "--samples", "3", "--output", str(out)])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == [
        "hypstab embed-export: numerical failure: non-finite profile state at s = 1.0"
    ]
    assert not out.exists()


def test_overflow_in_the_array_step_is_a_profile_error(monkeypatch, tmp_path, capsys):
    """The pass stays finite and only the array evaluation of the rows
    overflows: a typed failure naming the first failing arclength, without
    a RuntimeWarning."""
    slope_factor = hyperbolic_catenoid._slope_factor

    def overflowing(cat, eps, sinh_sq):
        # the rows ask for one dimension, the pass for a (panels, nodes) grid
        q = slope_factor(cat, eps, sinh_sq)
        return np.full_like(q, np.inf) if sinh_sq.ndim == 1 else q

    monkeypatch.setattr(hyperbolic_catenoid, "_slope_factor", overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProfileError, match=r"^non-finite profile state at s = 0\.5$"):
            generating_curve_points(HyperbolicCatenoid(2, 1.5), [0.5, 1.0, 2.0])
        out = tmp_path / "curve.csv"
        code = main(["embed-export", "--family", "hyperbolic-curve", "--output", str(out)])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == [
        "hypstab embed-export: numerical failure: non-finite profile state at s = 0.0"
    ]
    assert not out.exists()


def test_row_beyond_the_error_tolerance_is_a_profile_error(monkeypatch):
    """A ripple in the angle's rate past v = 1 leaves a Legendre tail far
    above the row tolerance in those panels: the first row there is named,
    and rows before it pass."""
    rates = hyperbolic_catenoid._rates

    def rippled(cat, v):
        ds, dphi = rates(cat, v)
        return ds, dphi + np.where(v > 1.0, 1e-6 * np.cos(300.0 * v), 0.0)

    monkeypatch.setattr(hyperbolic_catenoid, "_rates", rippled)
    cat = HyperbolicCatenoid(2, 1.5)
    assert generating_curve_points(cat, [0.0, 0.5]).shape == (2, 3)
    with pytest.raises(ProfileError, match=r"^profile row at s = 1\.0 has error estimate \S+ above"):
        generating_curve_points(cat, [0.0, 0.5, 1.0, 2.0])


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.floats(1.05, 3.0))
def test_profile_brackets_generic(n, t):
    cat = HyperbolicCatenoid(n, t)
    samples = integrate_profile(cat, 2.0)
    assert samples[0].x == t
    for smp in samples[1:]:
        assert smp.x > t
        assert 0.0 < smp.x_prime
        assert smp.x_prime**2 < smp.x**2 - 1.0
