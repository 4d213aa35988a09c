"""Stability certificates: eigenvalue bounds, pointwise curvature threshold,
Sobolev-constant smallness, and the gradient deficit."""

import math
import re

import numpy as np
import pytest

from hypstab.criteria import (
    INCONCLUSIVE,
    STABLE,
    UNSTABLE,
    StabilityReport,
    grad_condition_deficit,
    grad_condition_report,
    lambda1_bounds,
    lambda1_bounds_pinched,
    pointwise_stability_test,
    sobolev_stability_test,
)


def test_lambda1_bounds_exact():
    assert lambda1_bounds(2) == (0.25, 4.0)
    assert lambda1_bounds(3) == (1.0, 9.0)
    assert lambda1_bounds(4) == (2.25, 16.0)
    assert lambda1_bounds(10**154)[1] == 1e308
    n = 10**160
    with pytest.raises(OverflowError, match=f"^lambda1 bound n\\^2 overflows at n = {n}$"):
        lambda1_bounds(n)
    with pytest.raises(ValueError):
        lambda1_bounds(1)
    with pytest.raises(ValueError):
        lambda1_bounds(2.0)


def test_pinched_bounds():
    lo, hi = lambda1_bounds_pinched(1.0, 1.0)
    assert lo == 0.25
    assert hi == 4.0 / 3.0
    lo, hi = lambda1_bounds_pinched(2.0, 3.0)
    assert lo == 1.0
    assert hi == 12.0
    # (4 b) b / 3 up to its overflow, then 4 (b^2 / 3), finite to b = 1.16e154
    for b in (6.7e153, 6.8e153, 1.1e154, 1.16e154):
        product = 4.0 * b * b / 3.0
        expected = product if math.isfinite(product) else 4.0 * (b * b / 3.0)
        assert math.isfinite(expected) and lambda1_bounds_pinched(1.0, b)[1] == expected
    with pytest.raises(OverflowError, match=r"at a = 1\.0, b = 1\.2e\+154$"):
        lambda1_bounds_pinched(1.0, 1.2e154)
    with pytest.raises(ValueError):
        lambda1_bounds_pinched(0.0, 1.0)
    with pytest.raises(ValueError):
        lambda1_bounds_pinched(2.0, 1.0)  # lower bound above upper


def test_pointwise_threshold():
    # (n + 1)^2 / 4 = 2.25 at n = 2, boundary included
    assert pointwise_stability_test(2, 2.0).verdict == STABLE
    assert pointwise_stability_test(2, 2.25).verdict == STABLE
    assert pointwise_stability_test(2, 2.26).verdict == INCONCLUSIVE
    assert pointwise_stability_test(3, 4.0).verdict == STABLE
    assert pointwise_stability_test(3, 4.1).verdict == INCONCLUSIVE
    with pytest.raises(ValueError):
        pointwise_stability_test(2, -0.5)
    with pytest.raises(ValueError):
        pointwise_stability_test(1, 1.0)
    with pytest.raises(ValueError):
        pointwise_stability_test(2, math.inf)
    assert pointwise_stability_test(2 * 10**154, 1.0).threshold == 1e308  # (n + 1)^2 is not a float
    n = 10**160
    message = f"^pointwise threshold \\(n \\+ 1\\)\\^2 / 4 overflows at n = {n}$"
    with pytest.raises(OverflowError, match=message):
        pointwise_stability_test(n, 1.0)


def test_pointwise_report_fields():
    rep = pointwise_stability_test(2, 2.0)
    assert rep.criterion == "pointwise-curvature-bound"
    assert rep.witness == 2.0
    assert rep.threshold == 2.25
    rep = pointwise_stability_test(4, 5.0)
    assert rep.threshold == 6.25


def test_sobolev_report():
    rep = sobolev_stability_test(3, 1.0, 0.5)
    assert rep.criterion == "total-curvature-smallness"
    assert rep.threshold == 1.0
    assert rep.verdict == STABLE
    assert sobolev_stability_test(3, 1.0, 1.5).verdict == INCONCLUSIVE
    # threshold scales like C_s^(-n/2)
    rep = sobolev_stability_test(4, 2.0, 0.2)
    assert rep.threshold == pytest.approx(0.25, rel=1e-15)
    with pytest.raises(ValueError):
        sobolev_stability_test(2, 1.0, 0.5)  # needs n >= 3
    with pytest.raises(ValueError):
        sobolev_stability_test(3, 0.0, 0.5)
    with pytest.raises(ValueError):
        sobolev_stability_test(3, 1.0, -1.0)


def test_sobolev_threshold_overflow_is_named_without_a_chained_cause():
    message = "^Sobolev threshold C_s\\^\\(-n/2\\) overflows at n = 3, C_s = 1e-300$"
    with pytest.raises(OverflowError, match=message) as exc:
        sobolev_stability_test(3, 1e-300, 1.0)
    assert exc.value.__suppress_context__
    assert exc.value.__cause__ is None


def test_grad_deficit_value():
    assert grad_condition_deficit(2, 10.0, 30.0) == pytest.approx(10.0, rel=1e-15)
    assert grad_condition_deficit(3, 1.0, 9.0) == 0.0
    assert grad_condition_deficit(2, 1.0, 9.0) == -5.0
    with pytest.raises(ValueError):
        grad_condition_deficit(2, -1.0, 3.0)
    with pytest.raises(ValueError):
        grad_condition_deficit(2, 1.0, math.nan)
    # the int n^2 past the float range gets the deficit's own overflow message
    n = 10**160
    message = (f"^curvature-gradient deficit overflows: n\\^2 mass_A_sq is not finite at "
               f"n = {n}, mass_A_sq = 1.0, mass_grad_A_sq = 2.0$")
    with pytest.raises(OverflowError, match=message):
        grad_condition_deficit(n, 1.0, 2.0)
    with pytest.raises(OverflowError, match=message):
        grad_condition_report(n, 1.0, 2.0)


def test_grad_deficit_of_a_finite_product_past_a_float_n_squared():
    # n^2 = 1e310 is no float, but n^2 mass_A_sq is: form it as n (n mass_A_sq)
    n = 10**155
    assert grad_condition_deficit(n, 1e-10, 0.0) == pytest.approx(1e300, rel=1e-15)
    assert grad_condition_deficit(n, 0.0, 0.0) == 0.0
    # a product past the float range, or an n that is no float, still overflows by name
    for n, mass in ((10**155, 1.0), (10**400, 1e-10)):
        message = (f"^curvature-gradient deficit overflows: n\\^2 mass_A_sq is not finite at "
                   f"n = {n}, mass_A_sq = {mass}, mass_grad_A_sq = 0.0$")
        with pytest.raises(OverflowError, match=message):
            grad_condition_deficit(n, mass, 0.0)


def test_grad_report_certifies_only_instability():
    rep = grad_condition_report(2, 1.0, 9.0)
    assert rep.verdict == UNSTABLE
    assert rep.criterion == "curvature-gradient-deficit"
    assert rep.witness == pytest.approx(-5.0)
    # nonnegative deficit never certifies stability
    assert grad_condition_report(2, 10.0, 30.0).verdict == INCONCLUSIVE
    assert grad_condition_report(3, 1.0, 9.0).verdict == INCONCLUSIVE


def test_report_validation():
    with pytest.raises(ValueError):
        StabilityReport("maybe", "pointwise-curvature-bound", 1.0, 2.0)
    rep = StabilityReport(INCONCLUSIVE, "custom", 0.0, 0.0)
    assert rep.verdict == "inconclusive"


def test_numpy_integer_dimensions_match_python_ints():
    for n in (np.int64(3), np.int32(3), np.uint8(3)):
        assert lambda1_bounds(n) == lambda1_bounds(3)
        assert pointwise_stability_test(n, 3.5) == pointwise_stability_test(3, 3.5)
        assert sobolev_stability_test(n, 2.0, 0.1) == sobolev_stability_test(3, 2.0, 0.1)
        assert grad_condition_deficit(n, 1.2, 2.0) == grad_condition_deficit(3, 1.2, 2.0)
    # an np.int64 n * n wraps past n of about 3.04e9; a Python int does not
    assert lambda1_bounds(np.int64(10**10)) == lambda1_bounds(10**10)
    assert grad_condition_deficit(np.int64(10**10), 1.0, 0.0) == 1e20


@pytest.mark.parametrize("n", [True, np.True_, 3.0, "3", 1], ids=repr)
def test_a_dimension_must_be_an_integer_of_at_least_2(n):
    message = f"^hypersurface dimension must be an integer >= 2, got {re.escape(repr(n))}$"
    for call in (lambda1_bounds, lambda n: pointwise_stability_test(n, 1.0),
                 lambda n: sobolev_stability_test(n, 2.0, 0.1),
                 lambda n: grad_condition_deficit(n, 1.0, 1.0)):
        with pytest.raises(ValueError, match=message):
            call(n)
