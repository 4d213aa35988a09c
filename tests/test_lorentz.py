"""Minkowski product and hyperboloid membership."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypstab.lorentz import (
    ROUNDING_SLACK,
    minkowski_inner,
    on_hyperboloid,
    on_hyperboloid_rows,
)


def test_inner_signature():
    assert minkowski_inner((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)) == -1.0
    assert minkowski_inner((0.0, 1.0, 0.0), (0.0, 1.0, 0.0)) == 1.0
    assert minkowski_inner((0.0, 0.0, 2.0), (0.0, 0.0, 3.0)) == 6.0
    # mixed timelike/spacelike cross terms
    assert minkowski_inner((2.0, 3.0), (5.0, 7.0)) == -10.0 + 21.0


def test_inner_accepts_vectors_and_sequences():
    v = np.array([2.0, 1.0, 1.0, 1.0])
    assert minkowski_inner(v, v) == pytest.approx(-1.0)
    assert minkowski_inner(v, (2.0, 1.0, 1.0, 1.0)) == pytest.approx(-1.0)
    assert minkowski_inner([2.0, 1.0, 1.0, 1.0], v) == pytest.approx(-1.0)


def test_inner_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        minkowski_inner((1.0, 0.0), (1.0, 0.0, 0.0))


def test_on_hyperboloid_basepoint_and_sheets():
    assert on_hyperboloid((1.0, 0.0, 0.0, 0.0), 1e-12)
    # lower sheet satisfies the quadric but not the sheet condition
    assert not on_hyperboloid((-1.0, 0.0, 0.0, 0.0), 1e-12)
    # spacelike unit vector is off the quadric entirely
    assert not on_hyperboloid((0.0, 1.0, 0.0, 0.0), 1e-3)


def test_on_hyperboloid_tolerance_semantics():
    x = (1.0, 1e-5, 0.0)  # <x,x> = -1 + 1e-10
    assert on_hyperboloid(x, 1e-9)
    assert not on_hyperboloid(x, 1e-11)
    with pytest.raises(ValueError):
        on_hyperboloid(x, 0.0)
    with pytest.raises(ValueError):
        on_hyperboloid(x, -1e-9)


def test_sheet_bound_scales_with_the_coordinates():
    u = 12.0
    far = (math.cosh(u), math.sinh(u), 0.0)
    scale = ROUNDING_SLACK * sys.float_info.epsilon * (far[0] ** 2 + far[1] ** 2)
    assert scale > 1e-8
    assert on_hyperboloid(far, 1e-8)
    # a relative error of 1e-6 in x1 moves <x,x> by ~2e-6 * x1^2, far past the bound
    assert not on_hyperboloid((far[0] * (1.0 + 1e-6), far[1], 0.0), 1e-8)


def test_rows_check_agrees_with_single_points():
    points = np.array([
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],          # lower sheet
        [math.cosh(2.0), math.sinh(2.0), 0.0],
        [2.0, 1.0, 1.0],           # <x,x> = -2
        [math.nan, 0.0, 0.0],
        [math.inf, math.inf, 0.0],
    ])
    mask = on_hyperboloid_rows(points, 1e-9)
    assert mask.tolist() == [True, False, True, False, False, False]
    assert mask.tolist() == [on_hyperboloid(row, 1e-9) for row in points]
    # one product for rows and points: row arrays give the per-row scalars,
    # bit for bit, and rows against one vector broadcast
    rows = minkowski_inner(points, points)
    assert rows.shape == (len(points),)
    assert rows.tobytes() == np.array([minkowski_inner(r, r) for r in points]).tobytes()
    against = minkowski_inner(points, points[2])
    assert against.tobytes() == np.array([minkowski_inner(r, points[2]) for r in points]).tobytes()
    assert all(isinstance(minkowski_inner(r, r), float) for r in points)
    with pytest.raises(ValueError):
        minkowski_inner(points, points[:, :2])
    assert on_hyperboloid_rows(np.empty((0, 4)), 1e-9).shape == (0,)
    with pytest.raises(ValueError):
        on_hyperboloid_rows(points, 0.0)
    with pytest.raises(ValueError):
        on_hyperboloid_rows(np.ones(3), 1e-9)


@given(st.floats(-5.0, 5.0), st.floats(0.0, 2 * math.pi))
def test_boosted_points_stay_on_hyperboloid(u, theta):
    """Orbit of the basepoint under a boost and a rotation."""
    x = (
        math.cosh(u),
        math.sinh(u) * math.cos(theta),
        math.sinh(u) * math.sin(theta),
    )
    assert on_hyperboloid(x, 1e-9)


@given(
    st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
)
def test_inner_is_symmetric_bilinear(xs, ys):
    assert minkowski_inner(xs, ys) == pytest.approx(minkowski_inner(ys, xs), abs=1e-9)
    doubled = [2.0 * v for v in xs]
    assert minkowski_inner(doubled, ys) == pytest.approx(
        2.0 * minkowski_inner(xs, ys), abs=1e-9
    )
