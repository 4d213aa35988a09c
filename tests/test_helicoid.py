"""Helicoid fundamental forms, curvature profile, and the pitch criterion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypstab.helicoid import (
    STABLE_PITCH_SQ,
    Helicoid,
    embed,
    embed_grid,
    first_fundamental,
    first_fundamental_fd,
    is_stable_by_pitch,
    normal,
    norm_A_sq,
    second_fundamental,
    second_fundamental_fd,
    sup_norm_A_sq,
)
from hypstab.lorentz import minkowski_inner, on_hyperboloid


def test_pitch_validation():
    with pytest.raises(ValueError):
        Helicoid(-0.1)
    Helicoid(0.0)  # totally geodesic plane is allowed


def test_embedding_on_hyperboloid():
    h = Helicoid(1.2)
    for s in (-2.0, 0.0, 0.7, 3.1):
        for t in (-1.5, 0.0, 0.4, 2.0):
            assert on_hyperboloid(embed(h, s, t), 1e-12)


def test_plane_has_zero_curvature():
    h = Helicoid(0.0)
    for t in (-2.0, 0.0, 1.3):
        assert norm_A_sq(h, t) == 0.0
        e, f, g = second_fundamental(h, t)
        assert (e, f, g) == (0.0, 0.0, 0.0)
    assert sup_norm_A_sq(h) == 0.0


def test_first_fundamental_closed_form():
    h = Helicoid(0.8)
    for t in (-1.0, 0.0, 0.5, 2.0):
        e, f, g = first_fundamental(h, t)
        ch, sh = math.cosh(t), math.sinh(t)
        assert e == pytest.approx(ch * ch + 0.64 * sh * sh, rel=1e-15)
        assert f == 0.0
        assert g == 1.0


def test_second_fundamental_sign_and_value():
    h = Helicoid(1.5)
    for t in (-1.0, 0.0, 1.0):
        e2, f2, g2 = second_fundamental(h, t)
        e1, _, _ = first_fundamental(h, t)
        assert e2 == 0.0
        assert g2 == 0.0
        assert f2 == pytest.approx(-1.5 / math.sqrt(e1), rel=1e-13)


def test_curvature_profile():
    h = Helicoid(1.1)
    a2 = 1.21
    vals = [norm_A_sq(h, t) for t in np.linspace(0.0, 3.0, 40)]
    # peak at the axis, even in t, decreasing outward
    assert vals[0] == pytest.approx(2.0 * a2, rel=1e-15)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    for t in (0.3, 1.2):
        assert norm_A_sq(h, t) == norm_A_sq(h, -t)
    assert sup_norm_A_sq(h) == pytest.approx(2.0 * a2, rel=1e-15)


def test_norm_A_sq_from_forms():
    """|A|^2 recomputed from the forms: with F = 0 and G = 1 the shape
    operator has entries e2/E and f2 couplings, giving f2^2/E + f2^2/(E G^2)
    only through the stated closed form; cross-check against it."""
    h = Helicoid(0.9)
    for t in (0.0, 0.8, 1.7):
        e1, _, _ = first_fundamental(h, t)
        expected = 0.81 / e1 + 0.81 / e1**3
        assert norm_A_sq(h, t) == pytest.approx(expected, rel=1e-14)


def test_pitch_criterion_table():
    table = {0.0: True, 0.5: True, 1.0: True, 1.06: True, 1.061: False, 1.5: False}
    for alpha, stable in table.items():
        assert is_stable_by_pitch(Helicoid(alpha)) is stable, alpha
    boundary = math.sqrt(STABLE_PITCH_SQ)
    assert is_stable_by_pitch(Helicoid(boundary))
    assert not is_stable_by_pitch(Helicoid(boundary + 1e-12))


def test_first_fundamental_fd_matches():
    h = Helicoid(1.3)
    for t in (-1.5, 0.0, 0.6, 2.0):
        exact = first_fundamental(h, t)
        approx = first_fundamental_fd(h, 0.4, t)
        for x, y in zip(exact, approx):
            assert abs(x - y) <= 1e-6


def test_second_fundamental_fd_matches():
    h = Helicoid(1.3)
    for s in (-0.7, 0.0, 1.9):
        for t in (-2.0, -0.5, 0.0, 1.1, 2.0):
            exact = second_fundamental(h, t)
            approx = second_fundamental_fd(h, s, t)
            for x, y in zip(exact, approx):
                assert abs(x - y) <= 1e-6


def test_normal_is_unit_spacelike_and_orthogonal():
    h = Helicoid(0.7)
    eps = 1e-6
    for s in (-1.0, 0.2, 2.5):
        for t in (-1.2, 0.0, 0.9):
            nu = normal(h, s, t)
            x = embed(h, s, t)
            assert minkowski_inner(nu, nu) == pytest.approx(1.0, abs=1e-9)
            assert minkowski_inner(nu, x) == pytest.approx(0.0, abs=1e-9)
            xs = [
                (p - m) / (2.0 * eps)
                for p, m in zip(embed(h, s + eps, t), embed(h, s - eps, t))
            ]
            xt = [
                (p - m) / (2.0 * eps)
                for p, m in zip(embed(h, s, t + eps), embed(h, s, t - eps))
            ]
            assert minkowski_inner(nu, xs) == pytest.approx(0.0, abs=1e-6)
            assert minkowski_inner(nu, xt) == pytest.approx(0.0, abs=1e-6)


def test_fd_step_validation():
    h = Helicoid(1.0)
    with pytest.raises(ValueError):
        first_fundamental_fd(h, 0.0, 0.0, step=0.0)
    with pytest.raises(ValueError):
        second_fundamental_fd(h, 0.0, 0.0, step=-1e-5)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_curvature_bounded_by_sup(alpha, s, t):
    h = Helicoid(alpha)
    val = norm_A_sq(h, t)
    assert 0.0 <= val <= sup_norm_A_sq(h) + 1e-12
    assert on_hyperboloid(embed(h, s, t), 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 2.0),
    st.floats(0.01, 6.0),
    st.floats(0.01, 6.0),
    st.integers(2, 7),
    st.integers(2, 7),
)
def test_embed_grid_rows_equal_embed_bit_for_bit(alpha, s_max, t_max, s_grid, t_grid):
    h = Helicoid(alpha)
    s_values = np.linspace(-s_max, s_max, s_grid)
    t_values = np.linspace(-t_max, t_max, t_grid)
    expected = np.array(
        [embed(h, float(s), float(t)).coords for s in s_values for t in t_values]
    )
    assert embed_grid(h, s_values, t_values).tobytes() == expected.tobytes()
