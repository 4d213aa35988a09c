"""Spherical catenoid geometry and the instability functional.

Frozen reference values come from the composite Simpson and bisection
oracles in oracles.py, evaluated once and pasted here verbatim.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hypstab.spherical_catenoid as spherical_catenoid
from hypstab.lorentz import minkowski_inner, on_hyperboloid
from hypstab.quadrature import QuadratureError
from hypstab.spherical_catenoid import (
    F,
    SphericalCatenoid,
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


def test_phi_against_simpson_oracle():
    cat = SphericalCatenoid(0.6)
    assert phi(cat, 2.0, 1e-12) == pytest.approx(PHI_ORACLE_06_2, abs=1e-9)
    assert phi(SphericalCatenoid(1.0), 1.0, 1e-12) == pytest.approx(
        0.4451949661550624, abs=1e-9
    )


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


def test_total_A_sq_against_oracle():
    for a, want in MASS_ORACLE.items():
        r = total_A_sq(SphericalCatenoid(a))
        assert r.value == pytest.approx(want, abs=1e-7)
        assert abs(r.value - want) <= r.error_estimate + 1e-9
        assert r.evaluations > 0


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
    # the bracket ends found by the scan are handed to the root finder, not
    # evaluated again
    seen = []

    def counting_F(cat, *args):
        seen.append(cat.a)
        return F(cat, *args)

    monkeypatch.setattr(spherical_catenoid, "F", counting_F)
    for tol, quad_tol in ((1e-4, 1e-9), (1e-6, 1e-10)):
        seen.clear()
        find_c0(tol, quad_tol)
        assert len(seen) == len(set(seen)), tol


def test_find_c0_deterministic():
    assert find_c0(1e-5) == find_c0(1e-5)


def test_find_c0_validation():
    with pytest.raises(ValueError):
        find_c0(0.0)
    with pytest.raises(ValueError):
        find_c0(-1e-4)


def test_find_c0_needs_resolvable_sign():
    # quadrature noise at loose quad_tol must not flip the scan bracket
    assert find_c0(1e-3, quad_tol=1e-6) == pytest.approx(C0_ORACLE, abs=2e-3)


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
    st.floats(0.5 + 1e-6, 3.0),  # phi exhausts its budget within ~1e-9 of 1/2
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
