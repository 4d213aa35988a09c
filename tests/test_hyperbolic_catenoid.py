"""Hyperbolic catenoid profiles against a fixed-step RK4 oracle, plus the
closed-form geometry at the neck and the stability window."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hypstab.hyperbolic_catenoid as hyperbolic_catenoid
from hypstab.cli import EXIT_NUMERICAL, main
from hypstab.hyperbolic_catenoid import (
    HyperbolicCatenoid,
    ProfileError,
    ProfileSample,
    generating_curve,
    generating_curve_points,
    integrate_profile,
    is_stable_by_window,
    norm_A_sq,
    principal_curvatures,
    shape_constant,
    stability_window_max_t,
    sup_norm_A_sq,
)
from hypstab.lorentz import minkowski_inner, on_hyperboloid, on_hyperboloid_rows

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


def test_catenoid_constructor():
    cat = HyperbolicCatenoid(3, 1.5)
    assert cat.a == pytest.approx(shape_constant(3, 1.5), rel=1e-15)
    with pytest.raises(ValueError):
        HyperbolicCatenoid(3, 1.0)  # neck height must be strictly above 1
    with pytest.raises(ValueError):
        HyperbolicCatenoid(3, math.inf)


def test_profile_endpoints_are_exact():
    cat = HyperbolicCatenoid(2, 1.5)
    samples = integrate_profile(cat, 3.0)
    assert samples[0] == ProfileSample(0.0, 1.5, 0.0)
    assert samples[-1].s == 3.0
    assert len(samples) > 10


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
        for smp in integrate_profile(cat, 3.0)[1:]:
            upper = smp.x * smp.x - 1.0
            lower = upper - cat.a * cat.a
            v_sq = smp.x_prime * smp.x_prime
            assert v_sq < upper
            assert v_sq > lower


def test_first_integral_conserved():
    for n, t in GRID:
        cat = HyperbolicCatenoid(n, t)
        a_sq = cat.a * cat.a
        for smp in integrate_profile(cat, 3.0):
            residual = smp.x_prime**2 - (
                smp.x**2 - 1.0 - a_sq * smp.x ** (2 - 2 * n)
            )
            assert abs(residual) <= 1e-9 * max(1.0, smp.x**2)


def test_curvature_two_forms_agree():
    for n, t in GRID:
        cat = HyperbolicCatenoid(n, t)
        for smp in integrate_profile(cat, 3.0):
            closed = n * (n - 1) * cat.a**2 * smp.x ** (-2 * n)
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
        for smp in integrate_profile(cat, 2.0)[::7]:
            lam1, lam2 = principal_curvatures(cat, smp)
            assert lam1 + (n - 1) * lam2 == pytest.approx(0.0, abs=1e-13)
            # curvature norm consistency with the two eigenvalues
            assert lam1 * lam1 + (n - 1) * lam2 * lam2 == pytest.approx(
                norm_A_sq(cat, smp), abs=1e-8
            )


def test_principal_curvatures_degenerate_radicand():
    cat = HyperbolicCatenoid(2, 1.5)
    with pytest.raises(ProfileError):
        principal_curvatures(cat, ProfileSample(1.0, 1.0, 0.9))


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
    with pytest.raises(OverflowError, match=re.escape(f"overflows at n = {n}, t = {t}")):
        HyperbolicCatenoid(n, t)


def test_shape_constant_stays_finite_below_the_float_range():
    assert shape_constant(1000, 1.5) == pytest.approx(1.5**999 * math.sqrt(1.25), rel=1e-12)


@pytest.mark.parametrize("n, t", [(2, 1e150), (2, 8.8e76), (3, 1.7e51), (6, 3.5e25)])
def test_profile_equation_overflow_names_n_and_t(n, t):
    """A neck whose shape constant is finite but too large for the profile
    equation builds, and both sweeps fail at the launch naming n and t."""
    cat = HyperbolicCatenoid(n, t)
    assert stability_window_max_t(n) > 1.0 and not is_stable_by_window(cat)
    message = re.escape(
        f"profile equation overflows at n = {n}, t = {t}: "
        "(n - 1)(2n - 1) a^2 is not a finite float"
    )
    with pytest.raises(ProfileError, match=f"^{message}$"):
        integrate_profile(cat, 1.0)
    with pytest.raises(ProfileError, match=f"^{message}$"):
        generating_curve_points(cat, [0.0, 0.5, 1.0])


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
    cat = HyperbolicCatenoid(2, 1.5)
    samples = integrate_profile(cat, 3.0)
    for smp in samples[::9]:
        point = generating_curve(cat, smp)
        assert len(point) == 3
        assert on_hyperboloid(point, 1e-8)
        assert point[0] == pytest.approx(smp.x, abs=1e-7)


def test_generating_curve_is_unit_speed():
    """First difference of the curve has Minkowski square +1: the curve is
    parametrized by hyperbolic arclength."""
    cat = HyperbolicCatenoid(3, 1.3)
    h = 1e-4
    for s in (0.5, 1.2, 2.4):
        pts = generating_curve_points(cat, [s - h, s + h])
        diff = [(b - a) / (2.0 * h) for a, b in zip(pts[0], pts[1])]
        assert minkowski_inner(diff, diff) == pytest.approx(1.0, abs=1e-6)


def test_generating_curve_odd_angle():
    cat = HyperbolicCatenoid(2, 1.5)
    smp = integrate_profile(cat, 1.5)[-1]
    plus = generating_curve(cat, smp)
    minus = generating_curve(cat, ProfileSample(-smp.s, smp.x, smp.x_prime))
    assert minus[0] == pytest.approx(plus[0], rel=1e-12)
    assert minus[1] == pytest.approx(-plus[1], rel=1e-12)
    assert minus[2] == pytest.approx(plus[2], rel=1e-12)


def test_generating_curve_rejects_foreign_sample():
    cat = HyperbolicCatenoid(2, 1.5)
    with pytest.raises(ValueError):
        generating_curve(cat, ProfileSample(2.0, 3.0, 1.0))  # not on this profile


def test_generating_curve_points_validation():
    cat = HyperbolicCatenoid(2, 1.5)
    with pytest.raises(ValueError):
        generating_curve_points(cat, [1.0, 0.5])  # unsorted
    with pytest.raises(ValueError):
        generating_curve_points(cat, [-1.0])
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


@pytest.mark.parametrize("t", [1.01, 1.5, 3.0])
def test_n2_export_matches_the_elementary_profile(t):
    """At n = 2 the profile is elementary: x^2 = 1/2 + sqrt(1/4 + a^2) cosh 2s."""
    cat = HyperbolicCatenoid(2, t)
    s = np.linspace(0.0, 7.5, 2001)
    want = np.sqrt(0.5 + math.sqrt(0.25 + cat.a * cat.a) * np.cosh(2.0 * s))
    got = generating_curve_points(cat, s)[:, 0]
    assert np.abs(got / want - 1.0).max() <= 1e-8


@pytest.mark.parametrize(
    "n, t, s_max, k", [(2, 1.5, 3.0, 101), (3, 1.2, 7.5, 777), (6, 3.0, 4.0, 333)]
)
def test_each_row_is_one_float_step_from_its_accepted_state(n, t, s_max, k):
    cat = HyperbolicCatenoid(n, t)
    targets = np.linspace(0.0, s_max, k)
    rows = generating_curve_points(cat, targets)
    nodes, states = hyperbolic_catenoid._profile_pass(cat, s_max)
    for target, row in zip(targets.tolist(), rows):
        k_node = np.searchsorted(nodes, target, side="right") - 1
        s_node, y = nodes[k_node], states[k_node]
        (x, _, p), _ = hyperbolic_catenoid._ck_step(cat, y, target - s_node)
        r = math.sqrt(x * x - 1.0)
        want = np.array([x, r * math.sin(p), r * math.cos(p)])
        assert np.abs(row - want).max() <= 1e-14 * np.abs(want).max(), target
        if target == s_node:  # h = 0: the accepted state itself
            assert row[0] == y[0]


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


def test_profile_height_may_not_decrease(monkeypatch):
    ck_step = hyperbolic_catenoid._ck_step

    def sinking(cat, y, h):
        if y[0] <= 2.0:
            return ck_step(cat, y, h)
        # one ulp below the last accepted state: a valid state, err = 0
        sunk = (math.nextafter(y[0], 0.0), y[1], y[2])
        return sunk, sunk

    monkeypatch.setattr(hyperbolic_catenoid, "_ck_step", sinking)
    with pytest.raises(ProfileError, match="profile height failed to increase"):
        integrate_profile(HyperbolicCatenoid(2, 1.5), 3.0)


def test_accepted_state_breaking_the_first_integral_is_named(monkeypatch):
    """Once x > 2 every step returns its state with the slope raised by half,
    with err 0, so it is accepted; the first such state names its arclength."""
    cat = HyperbolicCatenoid(2, 1.5)
    heights = {smp.x: smp.s for smp in integrate_profile(cat, 3.0)}
    ck_step = hyperbolic_catenoid._ck_step
    first = []

    def drifting(cat, y, h):
        hi, lo = ck_step(cat, y, h)
        if y[0] <= 2.0:
            return hi, lo
        bad = (hi[0], 1.5 * hi[1], hi[2])
        if not first:
            first.append((heights[y[0]] + h, bad))
        return bad, bad

    monkeypatch.setattr(hyperbolic_catenoid, "_ck_step", drifting)
    for integrate in (lambda: integrate_profile(cat, 3.0),
                      lambda: generating_curve_points(cat, [1.0, 3.0])):
        first.clear()
        with pytest.raises(ProfileError) as info:
            integrate()
        s, (x, v, _) = first[0]
        residual = v * v - (x * x - 1.0 - cat.a * cat.a * x ** -2)
        assert str(info.value) == (
            f"first-integral drift {residual:.3e} at s = {s} exceeds tolerance"
        )


def test_one_state_check_per_pass_and_two_per_export(monkeypatch):
    check_rows = hyperbolic_catenoid._check_rows
    calls = []

    def counting(cat, s, state, err):
        calls.append(len(s))
        return check_rows(cat, s, state, err)

    monkeypatch.setattr(hyperbolic_catenoid, "_check_rows", counting)
    cat = HyperbolicCatenoid(3, 1.2)
    samples = integrate_profile(cat, 7.5)
    assert calls == [len(samples) - 1]  # every state past the neck, at once
    calls.clear()
    generating_curve_points(cat, np.linspace(0.0, 7.5, 500))
    assert calls == [len(samples) - 1, 500]
    calls.clear()
    generating_curve_points(cat, [0.0, 0.0])  # no pass: the neck only
    assert calls == [2]


def test_launch_state_is_checked(monkeypatch):
    launch = hyperbolic_catenoid._launch

    def below_the_neck(cat, s_end):
        s0, (x, v, p) = launch(cat, s_end)
        return s0, (cat.t - 0.1, v, p)

    monkeypatch.setattr(hyperbolic_catenoid, "_launch", below_the_neck)
    with pytest.raises(ProfileError, match=r"^profile height 1\.4 fell below the neck 1\.5 at s = 0\.001$"):
        integrate_profile(HyperbolicCatenoid(2, 1.5), 3.0)
    with pytest.raises(ProfileError, match="fell below the neck"):
        generating_curve_points(HyperbolicCatenoid(2, 1.5), [1.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.floats(1.01, 5.0), st.floats(1e-6, 15.0))
def test_accepted_heights_are_the_export_rows(n, t, s_max):
    """The profile and the export make one pass: at every accepted
    arclength the export's row is the accepted height, bit for bit."""
    cat = HyperbolicCatenoid(n, t)
    samples = integrate_profile(cat, s_max)
    rows = generating_curve_points(cat, [smp.s for smp in samples])
    assert rows[:, 0].tolist() == [smp.x for smp in samples]


def test_export_work_does_not_grow_with_the_samples(monkeypatch):
    """The export takes the integrator's own steps and one array step for
    all samples, however many there are."""
    ck_step = hyperbolic_catenoid._ck_step
    calls = {"float": 0, "array": 0}

    def counting(cat, y, h):
        calls["array" if isinstance(h, np.ndarray) else "float"] += 1
        return ck_step(cat, y, h)

    monkeypatch.setattr(hyperbolic_catenoid, "_ck_step", counting)
    cat = HyperbolicCatenoid(3, 1.2)
    integrate_profile(cat, 7.5)
    free = dict(calls)
    assert free["array"] == 0
    for k in (200, 2000):
        calls.update(float=0, array=0)
        generating_curve_points(cat, np.linspace(0.0, 7.5, k))
        assert calls == {"float": free["float"], "array": 1}, k


def test_overflow_in_a_step_is_a_profile_error(monkeypatch, tmp_path, capsys):
    phi_rate = hyperbolic_catenoid._phi_rate

    def overflowing(cat, x):
        if x > 2.0:  # the launch at the neck and the first steps still pass
            raise OverflowError("math range error")
        return phi_rate(cat, x)

    monkeypatch.setattr(hyperbolic_catenoid, "_phi_rate", overflowing)
    with pytest.raises(ProfileError, match="profile state overflowed"):
        generating_curve_points(HyperbolicCatenoid(2, 1.5), [0.5, 1.0, 2.0])
    out = tmp_path / "curve.csv"
    code = main(["embed-export", "--family", "hyperbolic-curve", "--output", str(out)])
    assert code == EXIT_NUMERICAL
    assert "profile state overflowed" in capsys.readouterr().err
    assert not out.exists()


def test_overflow_in_the_array_step_is_a_profile_error(monkeypatch, tmp_path, capsys):
    """The float steps pass and only the array step overflows: a typed
    failure naming the first failing arclength, without a RuntimeWarning."""
    accel = hyperbolic_catenoid._accel

    def overflowing(cat, x):
        return np.full_like(x, np.inf) if isinstance(x, np.ndarray) else accel(cat, x)

    monkeypatch.setattr(hyperbolic_catenoid, "_accel", overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProfileError, match=r"^non-finite profile state at s = 0\.5$"):
            generating_curve_points(HyperbolicCatenoid(2, 1.5), [0.5, 1.0, 2.0])
        out = tmp_path / "curve.csv"
        code = main(["embed-export", "--family", "hyperbolic-curve", "--output", str(out)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "hypstab embed-export: numerical failure: non-finite profile state at s = 0.0"
    ]
    assert not out.exists()


def test_partial_step_beyond_the_step_tolerance_is_a_profile_error(monkeypatch):
    """A partial step whose own error estimate exceeds DEFAULT_STEP_TOL is
    rejected like a failed accepted state, naming its arclength."""
    ck_step = hyperbolic_catenoid._ck_step

    def loose(cat, y, h):
        hi, lo = ck_step(cat, y, h)
        if isinstance(h, np.ndarray):
            lo = (lo[0] + np.where(h > 0.0, 1e-6, 0.0), lo[1], lo[2])
        return hi, lo

    monkeypatch.setattr(hyperbolic_catenoid, "_ck_step", loose)
    cat = HyperbolicCatenoid(2, 1.5)
    assert generating_curve_points(cat, [0.0, 2.0]).shape == (2, 3)  # h = 0 only
    with pytest.raises(ProfileError, match=r"^partial step to s = 0\.5 has error estimate"):
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
