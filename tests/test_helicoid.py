"""Helicoid fundamental forms, curvature profile, and the pitch criterion."""

import itertools
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hypstab.helicoid as helicoid
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
from hypstab.spectral import count_negative_eigenvalues, discretize, lowest_eigenvalues

import oracles


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


def test_forms_on_the_axis_of_a_huge_pitch():
    # alpha^2 is inf past alpha ~ 1.3e154, but sinh t = 0 on the axis
    h = Helicoid(1e200)
    for t in (0.0, -0.0):
        assert first_fundamental(h, t) == (1.0, 0.0, 1.0)
        assert second_fundamental(h, t) == (0.0, -1e200, 0.0)
        assert normal(h, 0.0, t) == (0.0, 0.0, 0.0, -1.0)


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
    """|A|^2 equals tr(S^2) for the shape operator S = I^-1 II built from the
    finite-difference forms of `embed` and `normal`, off the axis too."""
    worst = 0.0
    grid = itertools.product((0.0, 0.5, 1.0, 1.5), np.linspace(-2.0, 2.0, 9), (-0.7, 0.4))
    for alpha, t, s in grid:
        h = Helicoid(alpha)
        e1, f1, g1 = first_fundamental_fd(h, s, t)
        e2, f2, g2 = second_fundamental_fd(h, s, t)
        shape = np.linalg.solve([[e1, f1], [f1, g1]], [[e2, f2], [f2, g2]])
        worst = max(worst, abs(norm_A_sq(h, t) - np.trace(shape @ shape)))
    assert worst <= 1e-6


def test_pitch_criterion_table():
    table = {0.0: True, 0.5: True, 1.0: True, 1.06: True, 1.061: False, 1.5: False}
    for alpha, stable in table.items():
        assert is_stable_by_pitch(Helicoid(alpha)) is stable, alpha
    boundary = math.sqrt(STABLE_PITCH_SQ)
    assert is_stable_by_pitch(Helicoid(boundary))
    assert not is_stable_by_pitch(Helicoid(boundary + 1e-12))


def _screw_invariant_form(alpha, R, N):
    """The form int (f'^2 + (2 - |A|^2) f^2) sqrt(E) dt on [-R, R]."""
    h = Helicoid(alpha)

    def rho(t):
        return np.array([math.sqrt(first_fundamental(h, x)[0]) for x in t.tolist()])

    def q(t):
        return np.array([2.0 - norm_A_sq(h, x) for x in t.tolist()])

    return discretize(rho, q, R, N)


@pytest.mark.parametrize("R, N", [(10.0, 2000), (20.0, 8000)])
def test_screw_invariant_eigenvalue_changes_sign_near_2_18(R, N):
    # lowest eigenvalue about +0.023 at alpha = 2.17 and -0.025 at 2.19
    below = _screw_invariant_form(2.17, R, N)
    above = _screw_invariant_form(2.19, R, N)
    assert count_negative_eigenvalues(below) == 0
    assert count_negative_eigenvalues(above) == 1
    assert 0.0 < lowest_eigenvalues(below, 1)[0] < 0.05
    assert -0.05 < lowest_eigenvalues(above, 1)[0] < 0.0
    # the pitch criterion's edge is far on the stable side
    assert lowest_eigenvalues(_screw_invariant_form(math.sqrt(STABLE_PITCH_SQ), R, N), 1)[0] > 0.0


def test_first_fundamental_fd_matches():
    h = Helicoid(1.3)
    for t in (-1.5, 0.0, 0.6, 2.0):
        exact = first_fundamental(h, t)
        approx = first_fundamental_fd(h, 0.4, t)
        for x, y in zip(exact, approx):
            assert abs(x - y) <= 1e-6


@pytest.mark.parametrize("alpha, s, t", [(0.0, 3.0, 355.0), (2.18, 0.0, 709.9)])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_first_fundamental_fd_overflow_is_named(alpha, s, t):
    # E is finite in closed form (5.58e307 at t = 355) where the squared
    # differences are not
    if alpha == 0.0:
        assert math.isfinite(first_fundamental(Helicoid(alpha), t)[0])
    with pytest.raises(OverflowError, match="finite-difference metric"):
        first_fundamental_fd(Helicoid(alpha), s, t)


@pytest.mark.parametrize("alpha", [1.0, 1e10])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_second_fundamental_fd_overflow_is_named(alpha):
    # the coordinates (~1e260) are finite, their second differences paired
    # with the normal are not
    message = f"(e, f, g) = (nan, nan, nan) is not finite at alpha = {alpha}, s = 300.0, t = 300.0"
    with pytest.raises(OverflowError, match=re.escape(message)):
        second_fundamental_fd(Helicoid(alpha), 300.0, 300.0)


def test_second_fundamental_fd_matches():
    h = Helicoid(1.3)
    for s in (-0.7, 0.0, 1.9):
        for t in (-2.0, -0.5, 0.0, 1.1, 2.0):
            exact = second_fundamental(h, t)
            approx = second_fundamental_fd(h, s, t)
            for x, y in zip(exact, approx):
                assert abs(x - y) <= 1e-6


def _fd_tangents(h, s, t, eps=1e-6):
    """Central-difference tangents X_s, X_t of `embed`."""
    xs = [(p - m) / (2.0 * eps) for p, m in zip(embed(h, s + eps, t), embed(h, s - eps, t))]
    xt = [(p - m) / (2.0 * eps) for p, m in zip(embed(h, s, t + eps), embed(h, s, t - eps))]
    return xs, xt


def test_normal_is_unit_spacelike_and_orthogonal():
    for alpha, s, t in itertools.product((0.0, 0.7, 2.5), (-1.0, 0.2, 2.5), (-1.2, 0.0, 0.9)):
        h = Helicoid(alpha)
        nu = normal(h, s, t)
        x = embed(h, s, t)
        assert minkowski_inner(nu, nu) == pytest.approx(1.0, abs=1e-9)
        assert minkowski_inner(nu, x) == pytest.approx(0.0, abs=1e-9)
        xs, xt = _fd_tangents(h, s, t)
        assert minkowski_inner(nu, xs) == pytest.approx(0.0, abs=1e-6)
        assert minkowski_inner(nu, xt) == pytest.approx(0.0, abs=1e-6)


def test_normal_orientation():
    """det[X, X_s, X_t, N] < 0, the orientation that `second_fundamental`'s
    sign assumes, with FD tangents of `embed`; the plane alpha = 0 included."""
    grid = itertools.product(
        (0.0, 0.3, 1.3, 2.5), (-2.0, -0.4, 0.0, 1.1, 2.8), (-2.0, -0.6, 0.0, 0.5, 2.2)
    )
    for alpha, s, t in grid:
        h = Helicoid(alpha)
        xs, xt = _fd_tangents(h, s, t)
        frame = np.column_stack([embed(h, s, t), xs, xt, normal(h, s, t)])
        assert np.linalg.det(frame) < 0.0, (alpha, s, t)


def test_coordinate_overflow_names_the_coordinate():
    h = Helicoid(1.0)
    with pytest.raises(OverflowError, match=re.escape("E overflows at alpha = 1.0, t = 800.0")):
        first_fundamental(h, 800.0)
    cases = [
        (lambda: embed(h, 800.0, 0.0), "s = 800.0"),
        (lambda: embed(h, 0.5, -750.0), "t = -750.0"),
        (lambda: embed_grid(h, [0.0, 900.0], [1.0, 2.0]), "s = 900.0"),
        (lambda: embed_grid(h, [0.0, 1.0], [2.0, -720.0]), "t = -720.0"),
        # cosh s and cosh t are finite, their product is not
        (lambda: embed(h, 400.0, -400.0), "s = 400.0, t = -400.0"),
        (lambda: embed_grid(h, [0.0, -400.0, 400.0], [400.0, 1.0]), "s = -400.0, t = 400.0"),
        (lambda: normal(h, -800.0, 0.5), "s = -800.0"),
        (lambda: second_fundamental_fd(h, 800.0, 0.0), "s = 800.0"),
    ]
    for call, name in cases:
        with pytest.raises(OverflowError, match=re.escape(f"alpha = 1.0, {name}")):
            call()
    # the normal is bounded by cosh s, so it stays finite where cosh s cosh t is not
    assert all(map(math.isfinite, normal(h, 500.0, 300.0)))


def test_overflow_names_the_pitch():
    rotation = "rotation angle alpha * s overflows at alpha = 1e+308, s = {}"
    with pytest.raises(OverflowError, match=re.escape(rotation.format(10.0))):
        embed(Helicoid(1e308), 10.0, 1.0)
    with pytest.raises(OverflowError, match=re.escape(rotation.format(-10.0))):
        embed_grid(Helicoid(1e308), [0.0, -10.0, 10.0], [1.0])
    with pytest.raises(OverflowError, match=re.escape(rotation.format(10.0))):
        normal(Helicoid(1e308), 10.0, 0.0)
    for alpha in (1e160, 1e200):
        with pytest.raises(OverflowError, match=re.escape(f"alpha = {alpha}")):
            normal(Helicoid(alpha), 0.3, 1.0)
    # E = 1 on the axis, so only |A|^2 = 2 alpha^2 leaves the float range
    with pytest.raises(OverflowError, match=re.escape("alpha = 1e+154")):
        norm_A_sq(Helicoid(1e154), 0.0)
    for alpha in (1e154, 1e155, 1e200):
        with pytest.raises(OverflowError, match=re.escape(f"|A|^2 overflows at alpha = {alpha}")):
            sup_norm_A_sq(Helicoid(alpha))


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
        [embed(h, float(s), float(t)) for s in s_values for t in t_values]
    )
    assert embed_grid(h, s_values, t_values).tobytes() == expected.tobytes()


def _bits(values):
    return struct.pack(f"{len(values)}d", *values)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_fd_forms_match_the_scalar_stencils_bit_for_bit(alpha, s, t):
    """The one-block forms reproduce the per-point stencils they replaced."""
    h = Helicoid(alpha)
    assert _bits(first_fundamental_fd(h, s, t)) == _bits(
        oracles.helicoid_first_fd_reference(h, s, t)
    )
    assert _bits(second_fundamental_fd(h, s, t)) == _bits(
        oracles.helicoid_second_fd_reference(h, s, t)
    )


def test_fd_forms_take_one_grid_block_and_no_scalar_point(monkeypatch):
    calls = []
    grid = helicoid.embed_grid

    def counting(h, s_values, t_values):
        calls.append((len(s_values), len(t_values)))
        return grid(h, s_values, t_values)

    def forbidden(*args):
        raise AssertionError("scalar embed called")

    monkeypatch.setattr(helicoid, "embed_grid", counting)
    monkeypatch.setattr(helicoid, "embed", forbidden)
    h = Helicoid(1.3)
    for form in (first_fundamental_fd, second_fundamental_fd):
        calls.clear()
        form(h, 0.4, -0.7)
        assert calls == [(3, 3)], form.__name__
