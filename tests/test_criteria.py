"""Stability certificates: eigenvalue bounds, pointwise curvature threshold,
Sobolev-constant smallness, and the gradient deficit."""

import math

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


def test_grad_deficit_value():
    assert grad_condition_deficit(2, 10.0, 30.0) == pytest.approx(10.0, rel=1e-15)
    assert grad_condition_deficit(3, 1.0, 9.0) == 0.0
    assert grad_condition_deficit(2, 1.0, 9.0) == -5.0
    with pytest.raises(ValueError):
        grad_condition_deficit(2, -1.0, 3.0)
    with pytest.raises(ValueError):
        grad_condition_deficit(2, 1.0, math.nan)


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
