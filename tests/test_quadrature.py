"""Adaptive quadrature and bracketed root finding against closed forms and
the Simpson oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypstab.quadrature import (
    _XGK,
    _kronrod_panel,
    QuadratureError,
    QuadratureResult,
    find_root_bracketed,
    integrate_adaptive,
    integrate_semi_infinite,
)

import oracles


def test_smooth_closed_forms():
    r = integrate_adaptive(lambda x: x**3, 0.0, 1.0, 1e-12)
    assert r.value == pytest.approx(0.25, abs=1e-13)
    r = integrate_adaptive(math.sin, 0.0, math.pi, 1e-12)
    assert r.value == pytest.approx(2.0, abs=1e-12)
    assert r.error_estimate >= 0.0
    assert r.evaluations >= 15


def test_error_estimate_is_honest():
    """|value - truth| should not exceed the reported estimate on a mix of
    smooth and mildly oscillatory integrands."""
    cases = [
        (lambda x: math.exp(-x * x), 0.0, 3.0, math.sqrt(math.pi) / 2 * math.erf(3.0)),
        (lambda x: math.cos(10.0 * x), 0.0, 1.0, math.sin(10.0) / 10.0),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 4.0, math.atan(4.0)),
    ]
    for f, lo, hi, truth in cases:
        r = integrate_adaptive(f, lo, hi, 1e-10)
        assert abs(r.value - truth) <= max(r.error_estimate, 1e-13)


def test_tolerance_scales_the_target():
    # loose tolerance converges with far fewer evaluations
    f = lambda x: math.sin(3.0 * x) ** 2 / (1.0 + x)
    cheap = integrate_adaptive(f, 0.0, 10.0, 1e-4)
    tight = integrate_adaptive(f, 0.0, 10.0, 1e-11)
    assert cheap.evaluations < tight.evaluations
    assert abs(cheap.value - tight.value) < 1e-4 * max(1.0, abs(tight.value)) + 1e-9


def test_refining_tol_never_worsens_oracle_discrepancy():
    """Tolerance refinement moves the result monotonically toward the
    Simpson oracle on the catenoid functional integrand."""
    a = 0.8

    def integrand(s: float) -> float:
        w = a * math.cosh(2.0 * s) - 0.5
        return w**-1.5 - a * a * math.sinh(2.0 * s) ** 2 * w**-3.5

    truth = oracles.simpson(
        lambda s: (a * np.cosh(2.0 * s) - 0.5) ** -1.5
        - a * a * np.sinh(2.0 * s) ** 2 * (a * np.cosh(2.0 * s) - 0.5) ** -3.5,
        0.0,
        10.0,
        200_000,
    )
    last = math.inf
    for tol in (1e-5, 1e-7, 1e-9, 1e-11):
        gap = abs(integrate_adaptive(integrand, 0.0, 10.0, tol).value - truth)
        assert gap <= last + 1e-14
        last = gap


def test_invalid_interval_and_tol_rejected():
    with pytest.raises(ValueError):
        integrate_adaptive(math.sin, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(math.sin, 0.0, 0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(math.sin, 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate_adaptive(math.sin, 0.0, 1.0, tol=0.0)


def test_non_finite_integrand_reports_abscissa():
    with pytest.raises(QuadratureError) as info:
        integrate_adaptive(lambda x: math.inf if x == 0.5 else 1.0, 0.0, 1.0)
    # the K15 rule evaluates the panel midpoint, which is the pole here
    assert info.value.abscissa == pytest.approx(0.5, abs=1e-12)

    with pytest.raises(QuadratureError) as info:
        integrate_adaptive(lambda x: math.nan, 0.0, 1.0)
    assert info.value.abscissa is not None


def test_first_non_finite_node_in_evaluation_order_is_reported():
    # on [0, 1] the order is 0.5, 0.5 - d0, 0.5 + d0, 0.5 - d1, ... with
    # d_j = 0.5 * _XGK[j]: the inf at 0.5 + d0 precedes the NaN at 0.5 - d1
    lo_node = 0.5 - 0.5 * _XGK[1]
    hi_node = 0.5 + 0.5 * _XGK[0]
    bad = {lo_node: math.nan, hi_node: math.inf}
    with pytest.raises(QuadratureError) as info:
        _kronrod_panel(lambda x: bad.get(x, 1.0), 0.0, 1.0)
    assert info.value.abscissa == hi_node
    assert "non-finite value inf" in str(info.value)
    with pytest.raises(QuadratureError) as ref:
        oracles.kronrod_panel_oracle(lambda x: bad.get(x, 1.0), 0.0, 1.0)
    assert str(ref.value) == str(info.value)


def test_panel_evaluates_the_nodes_in_the_loop_order():
    calls, ref_calls = [], []
    _kronrod_panel(lambda x: calls.append(x) or x, -0.3, 1.7)
    oracles.kronrod_panel_oracle(lambda x: ref_calls.append(x) or x, -0.3, 1.7)
    assert calls == ref_calls and len(calls) == 15


def test_finite_panel_whose_sum_overflows_passes_the_node_check():
    # only the midpoint and the outermost lower node (about 0.0043) are big:
    # their sum overflows, the weighted sums do not
    big = 0.6 * 1.7976931348623157e308
    f = lambda x: big if x == 0.5 or x < 0.01 else 0.0
    value, err = _kronrod_panel(f, 0.0, 1.0)
    assert (value, err) == oracles.kronrod_panel_oracle(f, 0.0, 1.0)
    assert math.isfinite(value) and math.isfinite(err)


def test_overflowing_panel_is_a_quadrature_error():
    with pytest.raises(QuadratureError, match=r"panel \[0\.0, 1\.0\] overflowed"):
        integrate_adaptive(lambda x: 1e308, 0.0, 1.0)
    # a step at 0.3 used to return -inf; at 0.5 the panel sums were inf and
    # -inf, and math.fsum raised a bare ValueError
    for step in (0.3, 0.5):
        with pytest.raises(QuadratureError, match="overflowed"):
            integrate_adaptive(lambda x: 1e308 if x < step else -1e308, 0.0, 1.0)


def test_result_rejects_nan_error_estimate():
    with pytest.raises(ValueError):
        QuadratureResult(1.0, math.nan, 15)
    with pytest.raises(ValueError):
        QuadratureResult(1.0, -1.0, 15)
    with pytest.raises(ValueError, match="evaluations must be nonnegative"):
        QuadratureResult(1.0, 0.0, -1)


def test_running_sums_are_refreshed_past_256_panels():
    # about 2.5 rad per panel: cos over [0, 2000] needs hundreds of panels,
    # so the incremental sums are recomputed with fsum along the way
    r = integrate_adaptive(math.cos, 0.0, 2000.0, 1e-12)
    assert (r.evaluations - 15) // 30 + 1 >= 256  # panels left after the bisections
    assert abs(r.value - math.sin(2000.0)) <= 1e-12
    assert r.error_estimate <= 1e-12


PANEL_INTEGRANDS = {
    "poly": lambda x: 3.0 * x**5 - x**2 + 0.25,
    "exp": lambda x: math.exp(-2.0 * x) * math.cosh(x),
    "osc": lambda x: math.sin(40.0 * x) + math.cos(3.0 * x),
    "inv_sqrt": lambda x: 1.0 / math.sqrt(x),
    "int": lambda x: round(7.0 * x) - 3,
    "np_float64": lambda x: np.exp(np.float64(-x)) * np.float64(x) ** 2,
}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(PANEL_INTEGRANDS)),
    st.floats(0.0, 50.0),
    st.floats(1e-9, 20.0),
)
def test_panel_matches_loop_oracle_bit_for_bit(name, lo, width):
    f = PANEL_INTEGRANDS[name]
    hi = lo + width
    value, err = _kronrod_panel(f, lo, hi)
    ref_value, ref_err = oracles.kronrod_panel_oracle(f, lo, hi)
    assert type(value) is float and type(err) is float
    assert value.hex() == float(ref_value).hex()
    assert err.hex() == float(ref_err).hex()


def test_budget_exhaustion_carries_partial_result():
    f = lambda x: math.sin(1.0 / x)
    with pytest.raises(QuadratureError) as info:
        integrate_adaptive(f, 1e-6, 1.0, 1e-13, max_evals=5_000)
    partial = info.value.partial
    assert isinstance(partial, QuadratureResult)
    assert partial.evaluations <= 5_000
    assert partial.error_estimate > 0.0


def test_semi_infinite_exponentials():
    r = integrate_semi_infinite(lambda s: math.exp(-s), 1e-10, decay_hint=1.0)
    assert r.value == pytest.approx(1.0, abs=1e-9)
    r = integrate_semi_infinite(lambda s: math.exp(-3.0 * s), 1e-10, decay_hint=3.0)
    assert r.value == pytest.approx(1.0 / 3.0, abs=1e-9)
    # damped oscillation, conservative hint
    r = integrate_semi_infinite(
        lambda s: math.exp(-2.0 * s) * math.cos(s), 1e-10, decay_hint=2.0
    )
    assert r.value == pytest.approx(0.4, abs=1e-9)


def test_semi_infinite_mass_integrand_matches_oracle():
    # the a = 1 curvature mass integrand, prefactor folded in
    pref = 8.0 * math.pi * 0.75

    def f(s: float) -> float:
        try:
            w = math.cosh(2.0 * s) - 0.5
        except OverflowError:
            return 0.0
        return pref * w**-1.5

    r = integrate_semi_infinite(f, 1e-9, decay_hint=3.0)
    assert r.value == pytest.approx(23.882348144006638, abs=1e-7)
    assert abs(r.value - 23.882348144006638) <= r.error_estimate + 1e-12


def test_decay_hint_violation_fails_loudly():
    with pytest.raises(QuadratureError, match="decay"):
        integrate_semi_infinite(lambda s: 1.0, 1e-9, decay_hint=3.0)


def test_semi_infinite_validation():
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda s: math.exp(-s), 1e-9, decay_hint=0.0)
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda s: math.exp(-s), -1e-9, decay_hint=1.0)


def test_root_cosine():
    r = find_root_bracketed(math.cos, 1.0, 2.0, 1e-12)
    assert r == pytest.approx(math.pi / 2.0, abs=1e-11)
    assert 1.0 <= r <= 2.0


def test_root_requires_sign_change():
    with pytest.raises(ValueError):
        find_root_bracketed(lambda x: x * x + 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        find_root_bracketed(math.cos, 2.0, 1.0)  # inverted bracket


def test_root_validates_the_bracket_before_evaluating():
    calls = []

    def g(x):
        calls.append(x)
        return x

    for lo, hi, tol in ((1.0, -1.0, 1e-12), (-1.0, math.inf, 1e-12), (-1.0, 1.0, 0.0),
                        (-1.0, 1.0, math.inf)):
        with pytest.raises(ValueError):
            find_root_bracketed(g, lo, hi, tol)
    assert calls == []


@pytest.mark.parametrize("lo_value, hi_value", [(math.nan, 1.0), (-1.0, math.nan)])
def test_root_rejects_a_non_finite_end_value(lo_value, hi_value):
    def g(x):
        return lo_value if x == 0.0 else hi_value

    with pytest.raises(QuadratureError, match="non-finite value nan at abscissa"):
        find_root_bracketed(g, 0.0, 1.0)


def test_root_exact_endpoint_zero_returned():
    assert find_root_bracketed(lambda x: x, 0.0, 1.0) == 0.0
    assert find_root_bracketed(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_root_stall_below_float_resolution():
    with pytest.raises(QuadratureError, match="stalled"):
        find_root_bracketed(math.cos, 1.0, 2.0, 1e-25)


def test_root_handles_flat_secant_geometry():
    # strongly convex g keeps the secant on one side; alternated bisection
    # must still shrink the bracket
    g = lambda x: x**9 - 0.5
    r = find_root_bracketed(g, 0.0, 1.0, 1e-13)
    assert r == pytest.approx(0.5 ** (1.0 / 9.0), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95))
def test_root_recovers_planted_location(root):
    found = find_root_bracketed(lambda x: math.tanh(3.0 * (x - root)), 0.0, 1.0, 1e-12)
    assert found == pytest.approx(root, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.5, 2.5))
def test_scaled_exponential_integral(amp, lam):
    r = integrate_semi_infinite(lambda s: amp * math.exp(-lam * s), 1e-10, decay_hint=lam)
    assert r.value == pytest.approx(amp / lam, rel=1e-8)
