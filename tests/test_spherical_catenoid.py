"""Spherical catenoid geometry and the instability functional.

Frozen reference values come from the composite Simpson and bisection
oracles in oracles.py, evaluated once and pasted here verbatim.  The closed
forms of F and the curvature mass are also checked live, against mpmath and
against the quadrature they replaced.
"""

import math
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hypstab.spherical_catenoid as spherical_catenoid
from hypstab.lorentz import minkowski_inner, on_hyperboloid
from hypstab.quadrature import QuadratureError, find_root_bracketed, integrate_adaptive
from hypstab.spherical_catenoid import (
    F,
    SphericalCatenoid,
    boundary_angle_slope,
    embed,
    embed_grid,
    find_c0,
    grad_norm_A,
    metric_residual,
    norm_A_sq,
    phi,
    sup_norm_A_sq,
    total_A_sq,
    warp_rho,
)

import oracles

# Simpson oracle, cutoff 40, 200k cells.
MASS_ORACLE = {
    0.6: 23.919319567658405,
    1.0: 23.882348144006638,
    2.0: 27.30135956702773,
}
F_ORACLE = {
    0.55: -207.3843608371483,
    0.6: -74.8659361997317,
    0.65: -31.161762288767516,
    0.7: -9.464259823995317,
    0.75: 3.525920930252432,
    0.8: 12.214735465569632,
    1.0: 30.114742739764772,
    1.5: 46.46356479184024,
}
# Bisection over Simpson evaluations, width 1e-6.
C0_ORACLE = 0.7341194152832031
# sqrt(a^2 - 1/4) * int_0^2 dt/((a cosh 2t + 1/2) sqrt(a cosh 2t - 1/2)), a = 0.6.
PHI_ORACLE_06_2 = 0.4637266558315866


def test_shape_parameter_validation():
    with pytest.raises(ValueError):
        SphericalCatenoid(0.5)
    with pytest.raises(ValueError):
        SphericalCatenoid(0.2)
    with pytest.raises(ValueError):
        SphericalCatenoid(math.nan)
    with pytest.raises(ValueError):
        SphericalCatenoid(math.inf)
    assert SphericalCatenoid(0.500001).a == pytest.approx(0.500001)


def test_warp_and_curvature_closed_forms():
    cat = SphericalCatenoid(0.7)
    assert warp_rho(cat, 0.0) == pytest.approx(math.sqrt(0.2), rel=1e-15)
    s = 1.3
    w = 0.7 * math.cosh(2.6) - 0.5
    assert warp_rho(cat, s) == pytest.approx(math.sqrt(w), rel=1e-15)
    assert norm_A_sq(cat, s) == pytest.approx(2.0 * (0.49 - 0.25) / w**2, rel=1e-15)
    # evenness is exact, cosh never sees the sign
    assert norm_A_sq(cat, s) == norm_A_sq(cat, -s)
    assert warp_rho(cat, s) == warp_rho(cat, -s)


def test_sup_norm_A_sq_two_routes():
    """Equality of 2(a^2-1/4)/(a-1/2)^2 and 2(a+1/2)/(a-1/2), and the fact
    that the supremum sits at the neck."""
    for a in (0.51, 0.6, 1.0, 3.0, 10.0):
        cat = SphericalCatenoid(a)
        assert sup_norm_A_sq(cat) == pytest.approx(norm_A_sq(cat, 0.0), rel=1e-12)
        for s in (0.1, 0.5, 2.0, 5.0):
            assert norm_A_sq(cat, s) < sup_norm_A_sq(cat)


def test_norm_A_sq_decays_monotonically():
    cat = SphericalCatenoid(0.8)
    values = [norm_A_sq(cat, 0.25 * k) for k in range(30)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert norm_A_sq(cat, 400.0) == 0.0  # overflow guard path


def test_grad_norm_A_matches_finite_difference():
    cat = SphericalCatenoid(0.9)
    h = 1e-6
    for s in (0.0, 0.3, 1.0, 2.5):
        fd = abs(math.sqrt(norm_A_sq(cat, s + h)) - math.sqrt(norm_A_sq(cat, s - h))) / (
            2.0 * h
        )
        assert grad_norm_A(cat, s) == pytest.approx(fd, abs=1e-6)
    assert grad_norm_A(cat, 0.0) == 0.0
    # sinh 2s overflows past s = 355; the gradient has long decayed to 0
    assert grad_norm_A(cat, 400.0) == 0.0
    assert grad_norm_A(cat, -400.0) == 0.0
    # past |s| ~ 9e307, 2s is inf and sinh(inf) returns inf without raising
    assert grad_norm_A(cat, 1.7e308) == 0.0
    assert grad_norm_A(cat, -1.7e308) == 0.0


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_phi_rejects_a_non_finite_s(s):
    with pytest.raises(ValueError, match=f"s must be a finite real number, got {s}"):
        phi(SphericalCatenoid(0.9), s)


@pytest.mark.parametrize("a", [0.5 + 1e-8, 1e154, 1e200, 1e300])
def test_curvature_and_its_gradient_against_mpmath_at_extreme_a(a):
    """Finite and within 1e-14 relative of 30-digit mpmath where a - 1/2
    cancels in a^2 - 1/4 and where a^2 or w^2 leaves the float range."""
    import mpmath

    cat = SphericalCatenoid(a)
    with mpmath.workdps(30):
        am, half = mpmath.mpf(a), mpmath.mpf(0.5)
        for s in (0.0, 0.5, 3.0):
            w = am * mpmath.cosh(2 * mpmath.mpf(s)) - half
            want = 2 * (am * am - half * half) / (w * w)
            want_grad = mpmath.sqrt(want) * 2 * am * abs(mpmath.sinh(2 * mpmath.mpf(s))) / w
            for got, ref in ((norm_A_sq(cat, s), want), (grad_norm_A(cat, s), want_grad)):
                assert math.isfinite(got), (a, s)
                assert abs(got - ref) <= 1e-14 * ref, (a, s)


def test_phi_against_simpson_oracle():
    cat = SphericalCatenoid(0.6)
    assert phi(cat, 2.0) == pytest.approx(PHI_ORACLE_06_2, abs=1e-13)
    assert phi(SphericalCatenoid(1.0), 1.0) == pytest.approx(0.4451949661550624, abs=1e-13)


PHI_REF_A = (0.5 + 1e-14, 0.5 + 1e-10, 0.5 + 1e-6, 0.505, 0.51, 0.55, 0.7, 1.0, 1.5, 3.0,
             10.0, 100.0, 1000.0)
PHI_REF_S = (1e-8, 1e-3, 0.05, 0.3, 0.7, 1.0, 2.5, 4.0, 6.0, 9.0, 13.0, 20.0)


def test_phi_against_quadrature_reference():
    """The closed form against quadrature of the defining integrand on 156
    cases, a from 1/2 + 1e-14 to 1000 and |s| from 1e-8 to 20, signs
    alternating: within 1e-14 absolute and relative, so small angles near
    the neck keep their digits too."""
    for i, a in enumerate(PHI_REF_A):
        cat = SphericalCatenoid(a)
        for j, s_abs in enumerate(PHI_REF_S):
            sign = -1.0 if (i + j) % 2 else 1.0
            want = sign * oracles.rotation_angle_reference(a, s_abs)
            err = abs(phi(cat, sign * s_abs) - want)
            assert err <= 1e-14 * min(1.0, abs(want)), (a, sign * s_abs)


def test_phi_reaches_its_limit_across_the_range_of_cosh():
    # past |s| = 710 cosh overflows, sech = 0 and the angle is its limit
    cat = SphericalCatenoid(0.8)
    limit = phi(cat, 800.0)
    assert phi(cat, 1e300) == limit == -phi(cat, -800.0)
    for s in range(20, 800, 5):
        assert phi(cat, float(s)) == pytest.approx(limit, abs=1e-15), s


def test_phi_for_huge_a_against_quadrature():
    """For a >> 1, sqrt(a) phi(s) = int_0^s cosh(2t)^(-3/2) dt to rounding;
    R_J arguments that grew with a would pass 1e103 here."""
    for a in (1e20, 1e120, 1e300, 1.7e308):
        cat = SphericalCatenoid(a)
        for s in (0.3, 1.0, 5.0, 20.0):
            want = integrate_adaptive(lambda t: math.cosh(2.0 * t) ** -1.5, 0.0, s, 1e-13).value
            assert math.sqrt(a) * phi(cat, s) == pytest.approx(want, rel=1e-14), (a, s)


def test_phi_keeps_its_digits_at_tiny_s():
    # phi(s) = s / sqrt(a + 1/2) (1 + O(s^2 / (a - 1/2)))
    for a in (0.5 + 1e-10, 0.7, 3.0, 1000.0):
        for s in (1e-300, 1e-100, 1e-20):
            assert phi(SphericalCatenoid(a), s) == pytest.approx(s / math.sqrt(a + 0.5), rel=1e-15)


def test_embedding_overflow_names_a_and_s():
    cat = SphericalCatenoid(0.8)
    with pytest.raises(OverflowError, match=re.escape("overflows at a = 0.8, s = 400.0")):
        embed(cat, 400.0, 1.0)
    with pytest.raises(OverflowError, match=re.escape("overflows at a = 0.8, s = -400.0")):
        embed_grid(cat, [0.0, -400.0, 400.0], [0.0, 1.0])


def test_phi_is_odd_and_increasing():
    cat = SphericalCatenoid(0.75)
    assert phi(cat, 0.0) == 0.0
    for s in (0.2, 0.9, 2.0):
        assert phi(cat, -s) == -phi(cat, s)
    values = [phi(cat, 0.5 * k) for k in range(8)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_embed_lies_on_hyperboloid_exactly():
    """The Minkowski square is -B^2 + rho^2 = -1 by construction, so
    membership holds to rounding regardless of the angle accuracy."""
    for a in (0.6, 1.0, 2.0):
        cat = SphericalCatenoid(a)
        for s in (-2.5, -1.0, 0.0, 0.4, 3.0):
            for theta in (0.0, 1.0, 2.0, 5.0):
                p = embed(cat, s, theta)
                assert len(p) == 4
                assert abs(minkowski_inner(p, p) + 1.0) < 1e-11
                assert on_hyperboloid(p, 1e-9)


def test_embed_theta_periodicity():
    cat = SphericalCatenoid(1.0)
    p0 = embed(cat, 0.7, 0.3)
    p1 = embed(cat, 0.7, 0.3 + 2.0 * math.pi)
    assert max(abs(x - y) for x, y in zip(p0, p1)) < 1e-12


def test_metric_residual_small_on_sample_points():
    cat = SphericalCatenoid(0.6)
    for s in (-2.0, -0.5, 0.0, 1.0, 2.9):
        for theta in (0.1, 2.0, 4.0):
            assert metric_residual(cat, s, theta) < 1e-7


def test_metric_residual_overflow_is_named():
    # the coordinates are finite at s = 355.2, their differences squared are not
    with pytest.raises(OverflowError, match="finite-difference metric"):
        metric_residual(SphericalCatenoid(1.0), 355.2, 0.0)


def test_total_A_sq_against_oracle():
    for a, want in MASS_ORACLE.items():
        r = total_A_sq(SphericalCatenoid(a))
        assert r.value == pytest.approx(want, abs=1e-7)
        assert abs(r.value - want) <= r.error_estimate + 1e-9
        assert r.evaluations == 0  # a closed form: no quadrature ran


def test_F_against_oracle_table():
    for a, want in F_ORACLE.items():
        r = F(SphericalCatenoid(a))
        assert r.value == pytest.approx(want, abs=2e-7), f"a = {a}"
        assert abs(r.value - want) <= r.error_estimate + 1e-9


def test_F_equals_grad_condition_decomposition():
    """F = 4 * total curvature mass - total squared curvature gradient,
    each piece integrated independently."""
    for a in (0.6, 1.0, 2.0):
        total = total_A_sq(SphericalCatenoid(a)).value
        assert F(SphericalCatenoid(a)).value == pytest.approx(
            4.0 * total - oracles.grad_mass_integral_oracle(a), abs=1e-6
        )


def test_F_sign_pattern():
    for a in (0.55, 0.6, 0.65, 0.7):
        assert F(SphericalCatenoid(a)).value < 0.0
    for a in (0.75, 0.8, 1.0, 1.5):
        assert F(SphericalCatenoid(a)).value > 0.0


def test_find_c0_matches_bisection_oracle():
    c0 = find_c0(1e-4)
    assert abs(c0 - C0_ORACLE) < 2e-4
    assert 0.72 <= c0 <= 0.74
    # straddling evaluations confirm the sign change
    assert F(SphericalCatenoid(c0 - 0.01)).value < 0.0
    assert F(SphericalCatenoid(c0 + 0.01)).value > 0.0


def test_find_c0_evaluates_each_a_once(monkeypatch):
    # the root finder evaluates the ends of the fixed window first and once,
    # then only points inside the shrinking bracket
    seen = []

    def counting_F(cat):
        seen.append(cat.a)
        return F(cat)

    monkeypatch.setattr(spherical_catenoid, "F", counting_F)
    for tol in (1e-4, 1e-6):
        seen.clear()
        find_c0(tol)
        assert len(seen) == len(set(seen)), tol
        assert seen[:2] == [spherical_catenoid.SCAN_LO, spherical_catenoid.SCAN_HI]


@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
def test_locate_c0_brackets_the_reference_root(tol):
    root, lo, hi = spherical_catenoid._locate_c0(tol)
    assert lo <= root <= hi
    assert hi - lo <= tol
    reference = oracles.c0_carlson_reference()
    assert lo - 1e-15 <= reference <= hi + 1e-15


def test_find_c0_deterministic():
    assert find_c0(1e-5) == find_c0(1e-5)


def test_find_c0_validation():
    with pytest.raises(ValueError):
        find_c0(0.0)
    with pytest.raises(ValueError):
        find_c0(-1e-4)
    with pytest.raises(ValueError, match="tol must be a finite real number > 0, got inf"):
        find_c0(math.inf)


def test_find_c0_needs_resolvable_sign():
    # the error of F must not flip the root bracket at a loose root tolerance
    assert find_c0(1e-3) == pytest.approx(C0_ORACLE, abs=2e-3)


def test_find_c0_against_mpmath_root():
    assert abs(find_c0(1e-12) - oracles.c0_carlson_reference()) <= 1e-12


# a - 1/2 from 1e-15 to 1e-2, then a from 0.51 to 1e3, then to the float maximum
NEAR_HALF = [0.5 + d for d in np.geomspace(1e-15, 1e-2, 40).tolist()]
MIDDLE = np.geomspace(0.51, 999.0, 60).tolist()
LARGE = np.geomspace(1e3, 1.7e308, 60).tolist() + [sys.float_info.max]


@pytest.mark.parametrize("a", NEAR_HALF + LARGE)
def test_closed_forms_against_mpmath_carlson(a):
    cat = SphericalCatenoid(a)
    f_res, mass = F(cat), total_A_sq(cat)
    assert abs(f_res.value - oracles.f_carlson_reference(a)) <= f_res.error_estimate
    assert abs(mass.value - oracles.mass_carlson_reference(a)) <= mass.error_estimate
    assert f_res.evaluations == mass.evaluations == 0


@pytest.mark.parametrize("a", MIDDLE)
def test_closed_forms_against_the_quadrature_they_replaced(a):
    cat = SphericalCatenoid(a)
    f_res, mass = F(cat), total_A_sq(cat)
    f_ref = oracles.f_quadrature_reference(a)
    mass_ref = oracles.mass_quadrature_reference(a)
    assert abs(f_res.value - f_ref.value) <= f_res.error_estimate + f_ref.error_estimate
    assert abs(mass.value - mass_ref.value) <= mass.error_estimate + mass_ref.error_estimate


@pytest.mark.parametrize("a", [0.5 + 1e-12, 0.5 + 1e-6, 0.55, 0.6872, 0.7341, 1.0, 2.5, 40.0])
def test_F_against_mpmath_quadrature_of_its_integrand(a):
    # checks the derivation itself: this reference never uses R_D or R_F
    r = F(SphericalCatenoid(a))
    assert abs(r.value - oracles.f_integrand_mpmath_reference(a)) <= r.error_estimate


@pytest.mark.parametrize(
    "a", [0.5 + 1e-6, 0.5 + 1e-4, 0.6, 0.7, 0.9, 1.0, 1.5, 10.0, 1e3, 1e6]
)
def test_boundary_angle_slope_against_mpmath_derivative(a):
    r = boundary_angle_slope(SphericalCatenoid(a))
    ref = oracles.boundary_angle_slope_reference(a)
    assert abs(r.value - ref) <= 1e-13 * abs(ref)
    assert abs(r.value - ref) <= r.error_estimate
    assert r.evaluations == 0


@pytest.mark.parametrize("a", [0.7666, 0.76655, 0.767])
def test_boundary_angle_slope_error_bound_near_its_root(a):
    # the slope is 1e-6 to 3e-4 here, so rounding of terms near 0.3 limits
    # its relative accuracy; the absolute bound still holds
    r = boundary_angle_slope(SphericalCatenoid(a))
    assert abs(r.value - oracles.boundary_angle_slope_reference(a)) <= r.error_estimate


@pytest.mark.parametrize("a", [1e100, 1e290, sys.float_info.max])
def test_boundary_angle_slope_is_scaled_past_underflow(a):
    # the raw slope is about -0.3 a^{-3/2}: -0.0 in floats at a = 1e290
    import mpmath

    with mpmath.workdps(30):
        limit = -(mpmath.elliprf(0, 0.5, 1) - mpmath.elliprj(0, 0.5, 1, 1) / 3) / 2**1.5
    r = boundary_angle_slope(SphericalCatenoid(a))
    assert r.value == pytest.approx(float(limit), rel=1e-13)
    assert r.error_estimate < 1e-14


def test_boundary_angle_slope_changes_sign_once_at_the_index_threshold():
    def slope(a):
        return boundary_angle_slope(SphericalCatenoid(a)).value

    root = find_root_bracketed(slope, 0.7, 0.8, 1e-15)
    assert abs(root - oracles.INDEX_THRESHOLD) <= 1e-13
    for a in (0.5 + np.geomspace(1e-12, 1e6, 200)).tolist():
        if abs(a - oracles.INDEX_THRESHOLD) > 1e-9:
            assert (slope(a) > 0.0) == (a < oracles.INDEX_THRESHOLD), a


@settings(max_examples=30, deadline=None)
@given(st.floats(0.55, 3.0))
def test_curvature_bounded_by_neck_value(a):
    cat = SphericalCatenoid(a)
    sup = sup_norm_A_sq(cat)
    for s in (0.0, 0.7, 1.9, 4.0):
        assert norm_A_sq(cat, s) <= sup * (1.0 + 1e-12)


@settings(max_examples=15, deadline=None)
@given(st.floats(0.55, 2.5), st.floats(-3.0, 3.0), st.floats(0.0, 2 * math.pi))
def test_embedding_always_on_sheet(a, s, theta):
    assert on_hyperboloid(embed(SphericalCatenoid(a), s, theta), 1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.5, 3.0, exclude_min=True),
    st.floats(0.01, 6.0),
    st.integers(2, 7),
    st.integers(1, 7),
)
def test_embed_grid_rows_equal_embed_bit_for_bit(a, s_max, s_grid, theta_grid):
    cat = SphericalCatenoid(a)
    s_values = np.linspace(-s_max, s_max, s_grid)
    theta_values = np.linspace(0.0, 2.0 * math.pi, theta_grid, endpoint=False)
    expected = np.array(
        [embed(cat, float(s), float(t)) for s in s_values for t in theta_values]
    )
    assert embed_grid(cat, s_values, theta_values).tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.floats(0.5001, 3.0), st.floats(-5.0, 5.0), st.floats(0.0, 2 * math.pi))
def test_metric_residual_matches_the_scalar_stencil_bit_for_bit(a, s, theta):
    cat = SphericalCatenoid(a)
    got = metric_residual(cat, s, theta)
    assert struct.pack("d", got) == struct.pack(
        "d", oracles.metric_residual_fd_reference(cat, s, theta)
    )


def test_metric_residual_takes_one_grid_block_and_no_scalar_point(monkeypatch):
    calls = []
    grid = spherical_catenoid.embed_grid

    def counting(cat, s_values, theta_values):
        calls.append((len(s_values), len(theta_values)))
        return grid(cat, s_values, theta_values)

    def forbidden(*args):
        raise AssertionError("scalar embed called")

    monkeypatch.setattr(spherical_catenoid, "embed_grid", counting)
    monkeypatch.setattr(spherical_catenoid, "embed", forbidden)
    metric_residual(SphericalCatenoid(0.8), 1.2, 0.3)
    assert calls == [(3, 3)]
