"""Command-line interface: output formats, determinism, exit codes, and the
round trip through the table reader."""

import contextlib
import decimal
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import hypstab
import hypstab.cli as cli
import hypstab.spherical_catenoid as spherical_catenoid
from hypstab.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
    read_table,
)
from hypstab.lorentz import on_hyperboloid
from hypstab.spherical_catenoid import F, SphericalCatenoid

import oracles
from test_golden import GOLDEN


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, which RFC 8259 excludes."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


_HUGE_N = "1" + "0" * 160  # an int past the float range


def _format_of(argv):
    """The output format main would use for argv."""
    if "--format" in argv:
        return argv[argv.index("--format") + 1]
    return cli._COMMANDS[argv[0]].formats[0]


def invoke(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out


def test_sweep_f_csv_roundtrip(tmp_path):
    code, out = invoke(
        tmp_path,
        "sweep.csv",
        ["sweep-f", "--a-min", "0.6", "--a-max", "0.8", "--step", "0.1"],
    )
    assert code == EXIT_OK
    meta, columns, rows = read_table(out)
    assert columns == ["a", "F", "err"]
    assert meta["command"] == "sweep-f"
    assert meta["a_min"] == "0.6"
    assert [r[0] for r in rows] == pytest.approx([0.6, 0.7, 0.8])
    for a, f_val, err in rows:
        direct = F(SphericalCatenoid(a))
        assert f_val == pytest.approx(direct.value, rel=1e-12)
        assert err >= 0.0


def test_sweep_f_json_format(tmp_path):
    code, out = invoke(
        tmp_path,
        "sweep.json",
        ["sweep-f", "--a-min", "0.6", "--a-max", "0.7", "--step", "0.1",
         "--format", "json"],
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["command"] == "sweep-f"
    assert doc["columns"] == ["a", "F", "err"]
    assert len(doc["rows"]) == 2
    assert doc["parameters"]["a_min"] == 0.6
    assert "version" in doc


def test_find_c0_json(tmp_path):
    code, out = invoke(tmp_path, "c0.json", ["find-c0", "--tol", "1e-4"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["command"] == "find-c0"
    assert 0.72 < doc["c0"] < 0.74
    lo, hi = doc["bracket"]
    assert lo <= doc["c0"] <= hi
    assert hi - lo <= 1e-4


def test_index_json(tmp_path):
    code, out = invoke(
        tmp_path,
        "index.json",
        ["index", "--a", "0.6", "--radius", "8", "--nodes", "600", "--m-max", "2"],
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["total_index"] == 1
    assert doc["converged"] is True
    assert doc["modes"][0]["mode"] == 0
    assert doc["modes"][0]["negative_count"] == 1
    assert len(doc["modes"][0]["lowest_eigenvalues"]) == 3


def test_hyperbolic_window_table(tmp_path):
    code, out = invoke(
        tmp_path,
        "window.csv",
        ["hyperbolic-window", "--n", "2", "--t-min", "1.05", "--t-max", "1.45",
         "--steps", "9"],
    )
    assert code == EXIT_OK
    meta, columns, rows = read_table(out)
    assert columns == ["t", "window_max_t", "window_stable", "bound_A_sq",
                       "pointwise_stable"]
    for t, max_t, window_ok, bound, pointwise_ok in rows:
        assert max_t == 2.125
        assert window_ok == 1.0  # all necks below the window edge
        assert pointwise_ok == 1.0  # curvature bound under 2.25 here too
        # the exact sup of |A|^2, on the neck
        assert bound == pytest.approx(2.0 * (1.0 - 1.0 / (t * t)), rel=1e-12)


@pytest.mark.parametrize("t_max", ["inf", "1e400"])
def test_hyperbolic_window_rejects_an_infinite_t_max(tmp_path, capsys, t_max):
    # np.linspace to inf warns and fills the grid with NaN
    code, out = invoke(tmp_path, "inf.csv", ["hyperbolic-window", "--n", "2",
                                             "--t-max", t_max])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "invalid parameters: t_max must be a finite real number, got inf" in err
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hyperbolic-window", "--steps", "1"], "steps must be >= 2, got 1"),
        (["helicoid", "--alpha", "1", "--t-grid", "1"], "t_grid must be >= 2, got 1"),
        (["embed-export", "--family", "hyperbolic-curve", "--samples", "1"],
         "samples must be >= 2, got 1"),
        (["embed-export", "--family", "spherical", "--s-grid", "1"],
         "s_grid must be >= 2, got 1"),
        (["embed-export", "--family", "spherical", "--theta-grid", "0"],
         "theta_grid must be >= 1, got 0"),
        (["embed-export", "--family", "helicoid", "--s-grid", "1"],
         "s_grid must be >= 2, got 1"),
        (["embed-export", "--family", "helicoid", "--t-grid", "1"],
         "t_grid must be >= 2, got 1"),
        (["embed-export", "--family", "hyperbolic-curve", "--n", "1"],
         "dimension n must be an integer >= 2, got 1"),
    ],
    ids=["window-steps", "helicoid-t", "curve-samples", "spherical-s", "spherical-theta",
         "export-helicoid-s", "export-helicoid-t", "curve-n"],
)
def test_counts_below_their_minimum_are_usage_errors(tmp_path, capsys, argv, message):
    code, out = invoke(tmp_path, "few.csv", argv)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"hypstab {argv[0]}: invalid parameters: {message}"
    ]
    assert not out.exists()


def test_window_is_one_sufficient_test_not_the_verdict(tmp_path):
    # past the window edge the pointwise certificate still decides: every
    # neck at n = 2 (sup|A|^2 < 2 <= 9/4), and up to t = sqrt(3) at n = 3
    code, out = invoke(tmp_path, "n2.csv", ["hyperbolic-window", "--n", "2",
                                            "--t-max", "1e6", "--steps", "5"])
    assert code == EXIT_OK
    _, _, rows = read_table(out)
    assert [row[2] for row in rows] == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert [row[4] for row in rows] == [1.0] * 5
    code, out = invoke(tmp_path, "n3.csv", ["hyperbolic-window", "--n", "3", "--t-min",
                                            "1.6", "--t-max", "1.8", "--steps", "9"])
    assert code == EXIT_OK
    _, _, rows = read_table(out)
    assert [row[0] for row in rows] == pytest.approx([1.6 + 0.025 * k for k in range(9)])
    assert [row[2] for row in rows] == [1.0] * 3 + [0.0] * 6
    assert [row[4] for row in rows] == [1.0] * 6 + [0.0] * 3


def test_hyperbolic_window_unstable_region(tmp_path):
    code, out = invoke(
        tmp_path,
        "window2.csv",
        ["hyperbolic-window", "--n", "2", "--t-min", "2.2", "--t-max", "3.0",
         "--steps", "9"],
    )
    assert code == EXIT_OK
    _, _, rows = read_table(out)
    for _, _, window_ok, _, pointwise_ok in rows:
        assert window_ok == 0.0
        # the neck sup 2(1 - 1/t^2) is 1.59-1.78 here, under 9/4
        assert pointwise_ok == 1.0


def test_helicoid_table_zero_pitch(tmp_path):
    code, out = invoke(
        tmp_path, "plane.csv", ["helicoid", "--alpha", "0", "--t-grid", "11"]
    )
    assert code == EXIT_OK
    meta, columns, rows = read_table(out)
    assert columns == ["t", "E", "norm_A_sq"]
    assert meta["stable_by_pitch"] == "true"
    for t, e_coef, a_sq in rows:
        assert a_sq == 0.0
        assert e_coef == pytest.approx(math.cosh(t) ** 2, rel=1e-12)


def test_helicoid_unstable_metadata(tmp_path):
    code, out = invoke(
        tmp_path, "heli.csv", ["helicoid", "--alpha", "1.5", "--t-grid", "5"]
    )
    assert code == EXIT_OK
    meta, _, _ = read_table(out)
    assert meta["stable_by_pitch"] == "false"


def test_embed_export_families_stay_on_hyperboloid(tmp_path):
    cases = [
        ("sph.csv", ["embed-export", "--family", "spherical", "--a", "0.8",
                     "--s-grid", "7", "--theta-grid", "8"], 4),
        ("heli.csv", ["embed-export", "--family", "helicoid", "--alpha", "1.1",
                      "--s-grid", "6", "--t-grid", "6"], 4),
        ("curve.csv", ["embed-export", "--family", "hyperbolic-curve",
                       "--n", "2", "--t", "1.5", "--samples", "21"], 3),
        # the rotation angle's integrand peaks with width sqrt(a - 1/2) at s = 0
        ("edge.csv", ["embed-export", "--family", "spherical", "--a", "0.5000000001",
                      "--s-grid", "4", "--theta-grid", "2"], 4),
        ("huge.csv", ["embed-export", "--family", "spherical", "--a", "1e300",
                      "--s-grid", "4", "--theta-grid", "2"], 4),
    ]
    for name, argv, coord_count in cases:
        code, out = invoke(tmp_path, name, argv)
        assert code == EXIT_OK, name
        _, columns, rows = read_table(out)
        assert len(columns) == len(rows[0])
        for row in rows:
            assert on_hyperboloid(row[-coord_count:], 1e-8)


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "spherical", "--s-max", "10"],
        ["--family", "helicoid", "--s-max", "10", "--t-max", "10"],
        ["--family", "hyperbolic-curve", "--samples", "2001", "--s-max", "20"],
    ],
    ids=["spherical", "helicoid", "hyperbolic-curve"],
)
def test_far_correct_points_pass_the_sheet_check(tmp_path, argv):
    # coordinates near e^10-e^20: rounding alone puts <x,x> + 1 beyond 1e-8
    code, out = invoke(tmp_path, "far.csv", ["embed-export", *argv])
    assert code == EXIT_OK
    _, _, rows = read_table(out)
    assert max(row[-1] for row in rows) > 1e4


@pytest.mark.parametrize(
    "argv, grid_fn, message",
    [
        (["--family", "spherical", "--s-max", "2", "--s-grid", "3", "--theta-grid", "4"],
         "catenoid_embed_grid",
         "embedded point at (s, theta) = (0.0, 1.5707963267948966) leaves the hyperboloid"),
        (["--family", "helicoid", "--s-max", "2", "--s-grid", "3", "--t-max", "1",
          "--t-grid", "3"],
         "helicoid_embed_grid",
         "embedded point at (s, t) = (0.0, 1.0) leaves the hyperboloid"),
    ],
    ids=["spherical", "helicoid"],
)
def test_off_sheet_point_is_a_numerical_failure(tmp_path, monkeypatch, capsys,
                                                argv, grid_fn, message):
    original = getattr(cli, grid_fn)

    def perturbed(*args, **kwargs):
        points = original(*args, **kwargs).copy()
        points[[5, 7], 0] += 1e-3  # the first bad row, s outer, is row 5
        return points

    monkeypatch.setattr(cli, grid_fn, perturbed)
    code, out = invoke(tmp_path, "bad.csv", ["embed-export", *argv])
    assert code == EXIT_NUMERICAL
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_overflow_is_a_numerical_failure(tmp_path, capsys):
    code, _ = invoke(tmp_path, "o1.csv", ["embed-export", "--family", "helicoid",
                                          "--s-max", "800", "--s-grid", "3",
                                          "--t-grid", "3"])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    code, _ = invoke(tmp_path, "o2.csv", ["helicoid", "--alpha", "1", "--t-max", "800"])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hyperbolic-window", "--t-max", "1e200", "--steps", "2"],
         "catenoid neck overflows at n = 2, t = 1e+200: "
         "(t - 1)(t + 1) or n(n - 1) is not a finite float"),
        (["hyperbolic-window", "--n", _HUGE_N, "--steps", "2"],
         f"catenoid neck overflows at n = {_HUGE_N}, t = 1.01: "
         "(t - 1)(t + 1) or n(n - 1) is not a finite float"),
        (["embed-export", "--family", "hyperbolic-curve", "--t", "1e200", "--samples", "3"],
         "catenoid neck overflows at n = 2, t = 1e+200: "
         "(t - 1)(t + 1) or n(n - 1) is not a finite float"),
        (["helicoid", "--alpha", "1", "--t-max", "800", "--t-grid", "3"],
         "helicoid metric E overflows at alpha = 1.0, t = -800.0"),
        (["embed-export", "--family", "helicoid", "--s-max", "800", "--s-grid", "3",
          "--t-grid", "3"],
         "helicoid embedding overflows at alpha = 1.0, s = -800.0"),
        (["embed-export", "--family", "helicoid", "--alpha", "1e308", "--s-max", "10",
          "--s-grid", "3", "--t-grid", "3"],
         "helicoid rotation angle alpha * s overflows at alpha = 1e+308, s = -10.0"),
        # cosh s and cosh t are finite, their product is not
        (["embed-export", "--family", "helicoid", "--s-max", "400", "--t-max", "400",
          "--s-grid", "3", "--t-grid", "3"],
         "helicoid embedding overflows at alpha = 1.0, s = -400.0, t = -400.0"),
        (["embed-export", "--family", "spherical", "--a", "0.8", "--s-max", "400",
          "--s-grid", "5", "--theta-grid", "3"],
         "spherical catenoid embedding overflows at a = 0.8, s = -400.0"),
        # a and the coordinates are finite, x^2 is not: from s = 9.9 on at
        # n = 2, from s = 238 on at n = 6
        (["embed-export", "--family", "hyperbolic-curve", "--t", "1e150", "--s-max", "15",
          "--samples", "3"],
         "profile point overflows at n = 2, t = 1e+150, s = 15.0: "
         "x^2 is not a finite float"),
        (["embed-export", "--family", "hyperbolic-curve", "--n", "6", "--t", "1.7e51",
          "--s-max", "300", "--samples", "3"],
         "profile point overflows at n = 6, t = 1.7e+51, s = 300.0: "
         "x^2 is not a finite float"),
    ],
    ids=["window-t", "window-huge-n", "curve-t", "helicoid-t", "export-s",
         "export-pitch", "export-st", "export-spherical-s", "curve-profile-n2",
         "curve-profile-n6"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_names_its_input(tmp_path, capsys, argv, message):
    code, out = invoke(tmp_path, "big.csv", argv)
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert f"numerical failure: {message}" in err
    assert "RuntimeWarning" not in err
    assert not out.exists()


@pytest.mark.parametrize("n, t", [(2, "8.8e76"), (6, "3.5e25")])
def test_curve_exports_where_a_squared_overflows(tmp_path, n, t):
    """(n - 1)(2n - 1) a^2 is not a finite float at these necks; the profile
    never forms it, so the default export runs and stays on the sheet."""
    code, out = invoke(tmp_path, "curve.csv", ["embed-export", "--family", "hyperbolic-curve",
                                               "--n", str(n), "--t", t])
    assert code == EXIT_OK
    _, _, rows = read_table(out)
    assert len(rows) == 101
    assert all(on_hyperboloid(row[1:], 1e-8) for row in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_window_builds_where_the_shape_constant_overflows(tmp_path):
    """a = t^(n-1) sqrt(t^2 - 1) is past the float range at n = 1000, t = 3;
    the window never forms it, and the neck's curve exports on the sheet."""
    code, out = invoke(tmp_path, "window.csv", ["hyperbolic-window", "--n", "1000",
                                                "--steps", "3"])
    assert code == EXIT_OK
    _, _, rows = read_table(out)
    assert [row[0] for row in rows] == [1.01, 2.005, 3.0]
    assert all(math.isfinite(cell) for row in rows for cell in row)
    code, out = invoke(tmp_path, "curve.csv", ["embed-export", "--family", "hyperbolic-curve",
                                               "--n", "1000", "--t", "3"])
    assert code == EXIT_OK
    _, _, rows = read_table(out)
    assert len(rows) == 101
    assert all(on_hyperboloid(row[1:], 1e-8) for row in rows)


def test_near_neck_curve_turns_toward_a_quarter_circle(tmp_path):
    """At t = 1 + 1e-8 the rotation angle jumps toward pi/2 within
    s ~ 1e-4 of the neck: every row past the neck has z > 0 and an angle
    that rises inside [0, pi/2), and the neck row is (t, 0, sqrt(t^2 - 1))."""
    t = 1.00000001
    code, out = invoke(tmp_path, "neck.csv", ["embed-export", "--family", "hyperbolic-curve",
                                              "--t", str(t), "--s-max", "12", "--samples", "7"])
    assert code == EXIT_OK
    _, _, rows = read_table(out)
    neck = math.sqrt((t - 1.0) * (t + 1.0))
    assert rows[0] == [0.0, t, 0.0, float("%.15g" % neck)]
    assert all(row[3] > 0.0 for row in rows)
    phi = [math.atan2(row[2], row[3]) for row in rows]
    assert all(0.0 <= a <= b < math.pi / 2 for a, b in zip(phi, phi[1:]))
    assert phi[-1] > 1.57


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, target):
    path = tmp_path / target
    assert main(["criteria", "--n", "2", "--output", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"cannot write --output {path}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "alpha, t_max", [("1e154", "3"), ("1e155", "3"), ("1e200", "3"), ("1", "400")]
)
def test_helicoid_metric_overflow_is_a_numerical_failure(tmp_path, capsys, alpha, t_max):
    # at t_max = 400, cosh t is finite but E = cosh^2 t + alpha^2 sinh^2 t is not
    code, out = invoke(tmp_path, "big.csv", ["helicoid", "--alpha", alpha, "--t-max", t_max,
                                             "--t-grid", "3"])
    assert code == EXIT_NUMERICAL
    assert f"alpha = {float(alpha)}" in capsys.readouterr().err
    assert not out.exists()


def test_helicoid_of_a_huge_pitch_overflows_only_on_the_axis(tmp_path, capsys):
    # E is finite at t = -1e-150; 2 alpha^2 = |A|^2 on the axis t = 0 is not
    code, out = invoke(tmp_path, "big.csv", ["helicoid", "--alpha", "1e200", "--t-max", "1e-150",
                                             "--t-grid", "3"])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == [
        "hypstab helicoid: numerical failure: helicoid |A|^2 overflows at alpha = 1e+200, t = 0.0"
    ]
    assert not out.exists()


def test_sweep_step_without_finite_grid_count_is_a_usage_error(tmp_path, capsys):
    code, out = invoke(tmp_path, "tiny.csv", ["sweep-f", "--step", "1e-320"])
    assert code == EXIT_USAGE
    assert "step 1e-320" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_step_with_too_many_grid_points_is_a_usage_error(tmp_path, capsys):
    code, out = invoke(tmp_path, "fine.csv", ["sweep-f", "--step", "1e-300"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "step 1e-300" in err and "9.5e+299 grid points" in err
    assert not out.exists()


def test_float_grid_point_bound(monkeypatch):
    monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 10)
    assert len(cli._float_grid(0.0, 0.9, 0.1)) == 10
    with pytest.raises(ValueError, match="step 0.1 gives 11 grid points"):
        cli._float_grid(0.0, 1.0, 0.1)


@pytest.mark.parametrize("flag", ["--s-max", "--t-max"])
@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
def test_helicoid_export_spans_must_be_positive(tmp_path, flag, value):
    code, _ = invoke(tmp_path, "span.csv", ["embed-export", "--family", "helicoid",
                                            flag, value])
    assert code == EXIT_USAGE


def test_criteria_json_full(tmp_path):
    code, out = invoke(
        tmp_path,
        "crit.json",
        ["criteria", "--n", "2", "--sup-a-sq", "2.0", "--pinch-a", "1",
         "--pinch-b", "1", "--mass-a-sq", "1.0", "--mass-grad-a-sq", "9.0"],
    )
    assert code == EXIT_OK
    doc = _strict_json(out.read_text())
    assert doc["lambda1"] == [0.25, 4.0]
    assert doc["lambda1_pinched"] == [0.25, 4.0 / 3.0]
    assert doc["pointwise"]["verdict"] == "stable-certified"
    assert doc["grad_deficit"]["verdict"] == "unstable-certified"
    assert "sobolev" not in doc


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "2", "--pinch-a", "1", "--pinch-b", "1e200"],
         "pinched lambda1 bound 4 b^2 / 3 overflows at a = 1.0, b = 1e+200"),
        (["--n", "3", "--mass-a-sq", "1e308", "--mass-grad-a-sq", "0"],
         "curvature-gradient deficit overflows: n^2 mass_A_sq is not finite at "
         "n = 3, mass_A_sq = 1e+308, mass_grad_A_sq = 0.0"),
        (["--n", "3", "--sobolev-constant", "1e-300", "--a-n-mass", "1"],
         "Sobolev threshold C_s^(-n/2) overflows at n = 3, C_s = 1e-300"),
        # n is a valid int whose square is no float
        (["--n", _HUGE_N], f"lambda1 bound n^2 overflows at n = {_HUGE_N}"),
        (["--n", _HUGE_N, "--sup-a-sq", "1", "--mass-a-sq", "0", "--mass-grad-a-sq", "0"],
         f"lambda1 bound n^2 overflows at n = {_HUGE_N}"),
    ],
    ids=["pinched", "grad-deficit", "sobolev", "huge-n", "huge-n-all"],
)
def test_criteria_overflow_is_a_named_numerical_failure(tmp_path, capsys, argv, message):
    # printed, these values would be the non-JSON tokens Infinity or a bare
    # errno tuple
    code, out = invoke(tmp_path, "big.json", ["criteria", *argv])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == [
        f"hypstab criteria: numerical failure: {message}"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, partner",
    [("--pinch-a", "--pinch-b"), ("--pinch-b", "--pinch-a"),
     ("--sobolev-constant", "--a-n-mass"), ("--a-n-mass", "--sobolev-constant"),
     ("--mass-a-sq", "--mass-grad-a-sq"), ("--mass-grad-a-sq", "--mass-a-sq")],
)
def test_criteria_pair_rejects_a_lone_flag(tmp_path, capsys, flag, partner):
    code, out = invoke(tmp_path, "lone.json", ["criteria", "--n", "3", flag, "1"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "must be given together" in err
    assert flag in err and partner in err
    assert not out.exists()


def test_criteria_near_the_float_range_is_strict_json(tmp_path):
    code, out = invoke(
        tmp_path,
        "edge.json",
        ["criteria", "--n", "3", "--pinch-a", "1", "--pinch-b", "5e153",
         "--mass-a-sq", "1e307", "--mass-grad-a-sq", "0",
         "--sobolev-constant", "1e-200", "--a-n-mass", "1"],
    )
    assert code == EXIT_OK
    doc = _strict_json(out.read_text())
    assert doc["lambda1_pinched"][1] == 4.0 * 5e153 * 5e153 / 3.0
    assert doc["grad_deficit"]["witness"] == 9e307
    assert doc["sobolev"]["threshold"] == pytest.approx(1e300, rel=1e-15)
    # 4 b^2 overflows here, 4 b^2 / 3 does not
    code, out = invoke(tmp_path, "edge2.json",
                       ["criteria", "--n", "2", "--pinch-a", "1", "--pinch-b", "1.1e154"])
    assert code == EXIT_OK
    assert _strict_json(out.read_text())["lambda1_pinched"][1] == 4.0 * (1.1e154 * 1.1e154 / 3.0)


def test_criteria_lambda1_only(tmp_path):
    code, out = invoke(tmp_path, "crit2.json", ["criteria", "--n", "3"])
    assert code == EXIT_OK
    doc = _strict_json(out.read_text())
    assert doc["lambda1"] == [1.0, 9.0]
    assert set(doc) == {"version", "command", "parameters", "lambda1"}


def test_runs_are_deterministic(tmp_path):
    pairs = [
        ["sweep-f", "--a-min", "0.6", "--a-max", "0.9", "--step", "0.1"],
        ["find-c0"],
        ["index", "--a", "0.6", "--radius", "8", "--nodes", "600", "--m-max", "1"],
        ["hyperbolic-window", "--steps", "7"],
        ["helicoid", "--alpha", "1.0", "--t-grid", "9"],
        ["embed-export", "--family", "spherical", "--s-grid", "5",
         "--theta-grid", "5"],
        ["criteria", "--n", "2", "--sup-a-sq", "1.0"],
    ]
    for argv in pairs:
        _, first = invoke(tmp_path, "one.out", argv)
        text_one = first.read_text()
        _, second = invoke(tmp_path, "two.out", argv)
        assert text_one == second.read_text(), argv[0]


def test_usage_errors(tmp_path):
    # neck parameter below the spherical family range
    code, _ = invoke(tmp_path, "u1.csv", ["sweep-f", "--a-min", "0.4"])
    assert code == EXIT_USAGE
    # pinching bounds must come as a pair
    code, _ = invoke(tmp_path, "u2.json", ["criteria", "--n", "2",
                                           "--pinch-a", "1.0"])
    assert code == EXIT_USAGE
    # catenoid shape outside the admissible ray
    code, _ = invoke(tmp_path, "u3.json", ["index", "--a", "0.3"])
    assert code == EXIT_USAGE


def test_index_screens_mode_one_at_an_unresolved_neck(tmp_path):
    # the default grid does not resolve the neck at a = 0.5001; mode 1 is
    # decided by its Jacobi field, not by a discrete eigenvalue
    code, out = invoke(tmp_path, "neck.json", ["index", "--a", "0.5001"])
    assert code == EXIT_OK
    mode_one = json.loads(out.read_text())["modes"][1]
    assert mode_one == {"mode": 1, "negative_count": 0, "lowest_eigenvalues": []}


@pytest.mark.parametrize("a", ["1e154", "1e200", "1e290", "1e295", "1e296", "7e299"])
def test_index_at_huge_a_runs(tmp_path, a):
    # |A|^2 = 2 (a^2 - 1/4) / w^2 is tiny although a^2 overflows
    code, out = invoke(tmp_path, "huge.json", ["index", "--a", a, "--radius", "10"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["total_index"] == 0
    assert doc["converged"] is True


# a cosh(20) passes the float maximum at a = 7.4e299
@pytest.mark.parametrize("a", ["1e300"])
def test_index_overflow_is_a_named_numerical_failure(tmp_path, capsys, a):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = invoke(tmp_path, "over.json", ["index", "--a", a, "--radius", "10"])
    assert code == EXIT_NUMERICAL
    assert caught == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("hypstab index: numerical failure: mode operator overflows")
    assert f"a = {float(a)}" in lines[0]
    assert not out.exists()


def test_index_on_a_grid_too_fine_for_h_squared_names_h(tmp_path, capsys):
    # h = 1e-203: h^2 underflows, and the eigenvalues would pass the float range
    code, out = invoke(tmp_path, "tiny.json", ["index", "--a", "0.9", "--radius", "1e-200"])
    assert code == EXIT_NUMERICAL
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("hypstab index: numerical failure: eigenvalues leave the float "
                           "range at grid spacing h = 1e-203")
    assert not out.exists()


def test_index_at_a_tiny_radius_runs(tmp_path):
    # the scaled form keeps every entry O(1): eigenvalues near (pi / 2R)^2
    code, out = invoke(tmp_path, "small.json", ["index", "--a", "0.9", "--radius", "1e-100"])
    assert code == EXIT_OK
    lams = _strict_json(out.read_text())["modes"][0]["lowest_eigenvalues"]
    assert lams[0] == pytest.approx((math.pi / 2e-100) ** 2, rel=1e-5)


def test_index_eigenvalue_count_is_a_usage_error_before_assembly(tmp_path, capsys):
    # at a = 1e300 the mode operator overflows; a bad --k-eigs is still
    # reported as what it is
    code, out = invoke(tmp_path, "k.json", ["index", "--a", "1e300", "--k-eigs", "0"])
    assert code == EXIT_USAGE
    assert "k_eigs must be a positive integer, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_index_radius_error_names_the_given_radius(tmp_path, capsys):
    code, _ = invoke(tmp_path, "r.json", ["index", "--a", "0.6", "--radius", "301"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "radius R must be a finite real number > 0 and <= 300.0, got 301.0" in err


def test_argparse_rejections():
    with pytest.raises(SystemExit) as exc:
        main(["index"])  # --a is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["find-c0", "--format", "csv"])  # JSON-only command
    assert exc.value.code == 2
    for argv in (
        ["embed-export", "--family", "torus"],  # unknown export family
        ["sweep-f", "--format", "xml"],  # unknown format
        ["index", "--format", "csv"],  # JSON-only commands
        ["criteria", "--format", "csv"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("flag, name", [("--tol", "tol"), ("--quad-tol", "quad_tol")])
def test_find_c0_rejects_a_nan_tolerance_before_any_F(tmp_path, capsys, monkeypatch, flag, name):
    calls = []

    def counted(cat):
        calls.append(cat.a)
        return F(cat)

    monkeypatch.setattr(spherical_catenoid, "F", counted)
    code, out = invoke(tmp_path, "c0.json", ["find-c0", flag, "nan"])
    assert code == EXIT_USAGE
    assert f"invalid parameters: {name} must be a finite real number, got nan" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("flag, name", [("--tol", "tol"), ("--quad-tol", "quad_tol")])
def test_find_c0_rejects_an_infinite_tolerance_before_any_F(tmp_path, capsys, monkeypatch,
                                                           flag, name):
    # an infinite --tol used to return an unrefined bracket as c0
    calls = []

    def counted(cat):
        calls.append(cat.a)
        return F(cat)

    monkeypatch.setattr(spherical_catenoid, "F", counted)
    code, out = invoke(tmp_path, "c0.json", ["find-c0", flag, "inf"])
    assert code == EXIT_USAGE
    assert f"invalid parameters: {name} must be a finite real number, got inf" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_sweep_f_rejects_a_bad_tolerance(tmp_path, capsys, monkeypatch, value):
    # F no longer takes a tolerance; the flag is still validated, before any F
    calls = []

    def counted(cat):
        calls.append(cat.a)
        return F(cat)

    monkeypatch.setattr(cli, "F", counted)
    code, out = invoke(tmp_path, "sweep.csv", ["sweep-f", "--tol", value])
    assert code == EXIT_USAGE
    rule = "a finite real number > 0" if value == "-1" else "a finite real number"
    assert f"invalid parameters: tol must be {rule}, got {float(value)}" in (
        capsys.readouterr().err
    )
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("a", ["1e6", "1e100", "1e160", "1.7e308"])
def test_sweep_f_at_large_a_is_certified(tmp_path, a):
    code, out = invoke(
        tmp_path, "sweep.csv", ["sweep-f", "--a-min", a, "--a-max", a, "--step", "1"]
    )
    assert code == EXIT_OK
    _, _, rows = read_table(out)
    [(a_row, f_val, err)] = rows
    assert math.isfinite(f_val) and math.isfinite(err)
    assert abs(f_val - oracles.f_carlson_reference(a_row)) <= err
    assert err <= 1e-13 * abs(f_val)  # a bound that holds and is also tight


def _fresh_python(*args):
    """Run the interpreter on args in a new process that imports hypstab
    from this checkout."""
    src = str(Path(hypstab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )


def test_module_entry_point_runs_without_warnings():
    proc = _fresh_python("-W", "error::RuntimeWarning", "-m", "hypstab.cli", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == f"hypstab {hypstab.__version__}\n"


def test_cli_import_leaves_scipy_special_unloaded():
    # the rotation angle, F and the curvature mass import scipy.special on
    # first use, keeping it out of the start-up cost of every command
    proc = _fresh_python("-c", "import sys, hypstab.cli; print('scipy.special' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_package_import_leaves_scipy_linalg_unloaded():
    # only `index` needs the eigen-solver, so it is imported on first use
    code = ("import sys, hypstab; print('scipy.linalg' in sys.modules); "
            "import hypstab.cli; print('scipy.linalg' in sys.modules)")
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\nFalse\n"


def test_curve_and_window_commands_load_no_scipy(tmp_path):
    code = (
        "import sys, hypstab.cli as cli\n"
        "out = sys.argv[1]\n"
        "print(cli.main(['embed-export', '--family', 'hyperbolic-curve', "
        "'--output', out + '/curve.csv']), "
        "cli.main(['hyperbolic-window', '--output', out + '/window.csv']), "
        "[m for m in ('scipy.linalg', 'scipy.special') if m in sys.modules])\n"
    )
    proc = _fresh_python("-c", code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0 []\n"
    assert proc.stderr == ""


def test_index_in_a_fresh_process_loads_scipy_linalg_on_first_use(tmp_path):
    argv = ["index", "--a", "0.9", "--radius", "6", "--nodes", "400", "--m-max", "2"]
    code = (
        "import sys, hypstab.cli as cli\n"
        "print('scipy.linalg' in sys.modules, cli.main(sys.argv[1:]), "
        "'scipy.linalg' in sys.modules)\n"
    )
    fresh = tmp_path / "fresh.json"
    proc = _fresh_python("-c", code, *argv, "--output", str(fresh))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False 0 True\n"
    status, here = invoke(tmp_path, "here.json", argv)
    assert status == EXIT_OK
    assert fresh.read_bytes() == here.read_bytes()


def test_numerical_failure_exit_code(tmp_path):
    # a root-bracket width that cannot be met in double precision
    code, _ = invoke(tmp_path, "fail.json", ["find-c0", "--tol", "1e-20"])
    assert code == EXIT_NUMERICAL


def test_stdout_output(capsys):
    code = main(["criteria", "--n", "2"])
    assert code == EXIT_OK
    doc = _strict_json(capsys.readouterr().out)
    assert doc["lambda1"] == [0.25, 4.0]


# CSV rendering against the one-template oracle.  Columns draw from small
# pools so that repeated values are common; the pools hold the values whose
# bit patterns and printed forms differ from what float equality suggests.
_SPECIAL = [
    0.0, -0.0, math.nan, struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0],
    math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0,
    1e308, -1e308, 1.0, 0.1, 1e-15, 123456789012345.67,
]
_CELL = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


def _around(x, count=3):
    """x and the `count` floats on either side of it."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def _ties():
    """Values whose 16th significant digit is an exact 5 with nothing after
    it, for every exponent that prints in fixed notation: m / 2**(k+1) with
    m odd and m * 5**k / 2 between 1e14 and 1e15, so that |v| * 10**k ends
    in .5 exactly.  Neighbouring m give both parities of the 15th digit."""
    ties = []
    for k in range(19):
        first = -(-2 * 10**14 // 5**k) | 1
        last = (2 * 10**15 - 1) // 5**k
        last -= 1 - last % 2
        for m in (first, first + 2, (first + last) // 2 | 1, last - 2, last):
            ties.append(m / 2.0 ** (k + 1))
    return ties


# The values the fixed-notation cells are hardest on.
_POOLS = {
    # round half to even at the 15th digit
    "ties": _ties(),
    # both sides of where fixed notation starts and ends; 999999999999999.5
    # rounds up to 1e+15
    "edges": [v for x in (1e-4, 9.9999999999999995e-5, 1e15, 999999999999999.5)
              for v in _around(x, 4)],
    # a few ulps either side of every power of ten, where log10 rounds
    "powers": [v for j in range(-5, 17) for v in _around(10.0**j, 6)],
    # integer parts that end in zeros, with and without a fraction
    "round": [120000000000000.0, 100000000000000.0, 300000000000000.0, 1200.0, 1200.5,
              10.0, 100.25, 3000000.0, 1e5, 12345678901230.0, 560.0, 20000000000000.5,
              90000000.000001],
    # a carry out of the 15th digit, at several exponents
    "carries": [999999999999999.5, 999999999999999.4, 99999.99999999999, 9.999999999999999,
                0.0009999999999999999, 9999999999999.999, 0.9999999999999999,
                99.99999999999999, 0.00099999999999999995],
}


def test_the_pools_hold_what_they_name():
    for v in _POOLS["ties"]:
        digits = decimal.Decimal(v).as_tuple().digits
        assert len(digits) == 16 and digits[-1] == 5, v
        assert 1e-4 <= v < 1e15, v
    printed = {"%.15g" % v for v in _POOLS["edges"]}
    assert {"0.0001", "9.99999999999999e-05", "1e+15", "999999999999999"} <= printed
    assert all(("%.15g" % v).split(".")[0].endswith("0") for v in _POOLS["round"])
    printed = {"%.15g" % v for v in _POOLS["carries"]}
    assert {"1e+15", "10000000000000", "100000", "100", "10", "1", "0.001"} <= printed


def _rows_body(columns, rows):
    text = cli._render_csv("embed-export", {}, {"columns": columns, "rows": rows})
    _, marker, body = text.partition("# columns=" + ",".join(columns) + "\n")
    assert marker
    return body


def _column(kind, nrows, rng):
    """nrows values of one kind: None, fresh values at one scale; "decades",
    fresh values whose scales span fixed notation and past it; "bits",
    uniformly random 64-bit patterns; a name in _POOLS or a list, draws from
    that pool."""
    if kind is None:
        return rng.standard_normal(nrows) * 10.0 ** rng.integers(-300, 300)
    if kind == "decades":
        return rng.standard_normal(nrows) * 10.0 ** rng.integers(-6, 17, nrows)
    if kind == "bits":
        return rng.integers(0, 2**64, nrows, dtype=np.uint64).view(np.float64)
    pool = np.array(_POOLS[kind] if isinstance(kind, str) else kind)
    return pool[rng.integers(0, pool.size, nrows)]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 600),
    st.lists(st.none() | st.sampled_from(["decades", "bits", *_POOLS])
             | st.lists(_CELL, min_size=1, max_size=12), min_size=6, max_size=6),
    st.lists(st.integers(0, 2**32 - 1), min_size=6, max_size=6),
)
def test_render_csv_matches_oracle(ncols, nrows, pools, seeds):
    # tables of up to 3600 cells fall on both sides of the renderer's size rule
    table = np.empty((nrows, ncols))
    for j in range(ncols):
        table[:, j] = _column(pools[j], nrows, np.random.default_rng(seeds[j]))
    columns = [f"c{j}" for j in range(ncols)]
    expected = oracles.csv_rows_oracle(table.tolist(), ncols) + "\n"
    assert _rows_body(columns, table) == expected
    assert _rows_body(columns, table.tolist()) == expected


@pytest.mark.parametrize("kind", ["decades", "bits", *_POOLS])
@pytest.mark.parametrize("shape", [(1, 5), (100, 5), (300, 5), (7001, 5), (2, 600)])
def test_render_csv_matches_oracle_at_every_size(kind, shape):
    # from one row to several of the renderer's blocks, every pool in every
    # column and both signs
    rng = np.random.default_rng(sum(map(ord, kind)))
    table = _column(kind, shape[0] * shape[1], rng).reshape(shape)
    table.view(np.uint64)[::2] ^= np.uint64(1 << 63)
    columns = [f"c{j}" for j in range(shape[1])]
    assert _rows_body(columns, table) == oracles.csv_rows_oracle(table.tolist(), shape[1]) + "\n"


@pytest.mark.parametrize("argv", [
    ["--family", "spherical", "--a", "0.9", "--s-max", "6", "--s-grid", "140",
     "--theta-grid", "140"],
    ["--family", "helicoid", "--alpha", "1.3", "--s-max", "5", "--t-max", "3.5",
     "--s-grid", "140", "--t-grid", "140"],
    ["--family", "hyperbolic-curve", "--n", "3", "--t", "2", "--s-max", "7.5",
     "--samples", "1500"],
], ids=["spherical", "helicoid", "hyperbolic-curve"])
def test_exports_at_workload_size_match_the_oracle(tmp_path, argv):
    argv = ["embed-export", *argv]
    code, out = invoke(tmp_path, "export.csv", argv)
    assert code == EXIT_OK
    params = vars(cli._build_parser().parse_args(argv))
    for key in ("command", "output", "fmt"):
        del params[key]
    payload = cli._cmd_embed_export(params)
    columns = payload["columns"]
    _, marker, body = out.read_text(encoding="utf-8").partition(
        "# columns=" + ",".join(columns) + "\n")
    assert marker
    assert body == oracles.csv_rows_oracle(payload["rows"].tolist(), len(columns)) + "\n"


def test_csv_cells_do_not_depend_on_numpy_simd_dispatch():
    # numpy's AVX-512 log10 may differ from its other loops in the last bit;
    # no byte of a cell may follow it
    code = (
        "import sys, math\n"
        "import numpy as np\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "import hypstab.cli as cli\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import oracles\n"
        "rng = np.random.default_rng(37)\n"
        "powers = [math.nextafter(10.0**j, d) for j in range(-5, 17) for d in (0, math.inf)]\n"
        "table = np.concatenate([\n"
        "    rng.standard_normal(30000) * 10.0 ** rng.integers(-6, 17, 30000),\n"
        "    rng.integers(0, 2**64, 6000, dtype=np.uint64).view(np.float64),\n"
        "    np.repeat(powers, 20), np.zeros(60)]).reshape(-1, 4)\n"
        "print(cli._render_rows(table) == oracles.csv_rows_oracle(table.tolist(), 4), "
        "__cpu_features__['X86_V4'])\n"
    )
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    src = str(Path(hypstab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, str(Path(oracles.__file__).parent)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True False\n"


def test_render_csv_keeps_the_sign_of_zero():
    rows = [[0.0, 1.0], [-0.0, 2.0], [0.0, 3.0], [-0.0, 4.0], [-0.0, 5.0]]
    body = _rows_body(["z", "k"], rows)
    assert body == "0,1\n-0,2\n0,3\n-0,4\n-0,5\n"
    assert body == oracles.csv_rows_oracle(rows, 2) + "\n"


HUGE_TABLES = [
    ["hyperbolic-window", "--steps", str(10**7)],
    ["helicoid", "--alpha", "1", "--t-grid", str(10**7)],
    ["embed-export", "--family", "hyperbolic-curve", "--samples", str(10**7)],
    ["embed-export", "--family", "spherical", "--s-grid", str(10**7),
     "--theta-grid", str(10**7)],
    ["embed-export", "--family", "helicoid", "--s-grid", str(10**7),
     "--t-grid", str(10**7)],
]


@pytest.mark.parametrize("argv", HUGE_TABLES, ids=lambda argv: " ".join(argv[:3]))
def test_huge_tables_are_usage_errors_before_allocation(tmp_path, capsys, monkeypatch, argv):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated before the row bound")

    monkeypatch.setattr(np, "linspace", no_grid)
    code, out = invoke(tmp_path, "huge.csv", argv)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "table rows, more than 1000000" in err
    assert not out.exists()


OVERFLOWING_HALF_WIDTHS = {
    "spherical-s-max": (["embed-export", "--family", "spherical", "--s-max"], "s_max"),
    "helicoid-export-s-max": (["embed-export", "--family", "helicoid", "--s-max"], "s_max"),
    "helicoid-export-t-max": (["embed-export", "--family", "helicoid", "--t-max"], "t_max"),
    "helicoid-t-max": (["helicoid", "--alpha", "1", "--t-max"], "t_max"),
}


@pytest.mark.parametrize("argv, key", list(OVERFLOWING_HALF_WIDTHS.values()),
                         ids=list(OVERFLOWING_HALF_WIDTHS))
@pytest.mark.parametrize("value", ["1e308", "8.98846567431158e307"])
def test_a_half_width_whose_span_overflows_is_a_usage_error(tmp_path, capsys, argv, key,
                                                            value):
    # np.linspace(-x, x, n) forms 2x, which is inf past half the float maximum
    code, out = invoke(tmp_path, "wide.csv", argv + [value])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{key} must be a finite real number > 0 and <= {sys.float_info.max / 2!r}, got {float(value)}" in err
    assert "Warning" not in err
    assert not out.exists()


def test_the_widest_finite_span_is_not_a_usage_error(tmp_path, capsys):
    # half the float maximum spans exactly the float maximum: the grid is
    # built, and the helicoid's metric overflows by name
    code, _ = invoke(tmp_path, "wide.csv",
                     ["helicoid", "--alpha", "1", "--t-max", repr(sys.float_info.max / 2)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "helicoid metric E overflows at alpha = 1.0, t = -8.988465674311579e+307" in err


@pytest.mark.parametrize("flag", ["--nodes", "--m-max"])
def test_huge_index_runs_are_usage_errors_before_allocation(tmp_path, capsys, monkeypatch, flag):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated before the size bound")

    monkeypatch.setattr(np, "linspace", no_grid)
    code, out = invoke(tmp_path, "huge.json", ["index", "--a", "0.6", flag, str(10**12)])
    assert code == EXIT_USAGE
    assert "more than 1000000" in capsys.readouterr().err
    assert not out.exists()


def test_index_size_bound_counts_cells_and_modes(tmp_path, monkeypatch):
    def argv(nodes, m_max):
        return ["index", "--a", "0.6", "--radius", "4", "--nodes", str(nodes),
                "--m-max", str(m_max)]

    monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 200)
    assert invoke(tmp_path, "fits.json", argv(200, 199))[0] == EXIT_OK
    assert invoke(tmp_path, "cells.json", argv(201, 1))[0] == EXIT_USAGE
    assert invoke(tmp_path, "modes.json", argv(200, 200))[0] == EXIT_USAGE


def test_table_row_bound_counts_grid_products(tmp_path, monkeypatch):
    argv = ["embed-export", "--family", "spherical", "--s-grid", "3", "--theta-grid", "4"]
    monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 12)
    assert invoke(tmp_path, "fits.csv", argv)[0] == EXIT_OK
    monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 11)
    assert invoke(tmp_path, "over.csv", argv)[0] == EXIT_USAGE


# One flag each export family does not read, with a value its own checks
# would never see: the run rejects it rather than echo it in the header.
UNREAD_FLAGS = {"spherical": "--t", "helicoid": "--a", "hyperbolic-curve": "--alpha"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("family", sorted(UNREAD_FLAGS))
def test_a_non_finite_unread_flag_is_a_usage_error(tmp_path, capsys, family, value, fmt):
    flag = UNREAD_FLAGS[family]
    code, out = invoke(tmp_path, "unread.out", ["embed-export", "--family", family,
                                                "--format", fmt, f"{flag}={value}"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"hypstab embed-export: invalid parameters: {flag[2:]} must be a finite real number, "
        f"got {float(value)}"
    ]
    assert not out.exists()


# Each command's numeric entry point, and the float flags that reach it
# (the first ones) or that it never reads (the last one of an export family).
WORK = {
    ("embed-export", "spherical"): ("catenoid_embed_grid", ["--a", "--s-max", "--alpha"]),
    ("embed-export", "helicoid"): ("helicoid_embed_grid", ["--alpha", "--s-max", "--t-max", "--a"]),
    ("embed-export", "hyperbolic-curve"): ("generating_curve_points", ["--t", "--s-max", "--a"]),
    ("index", None): ("morse_index", ["--a", "--radius"]),
}


@pytest.mark.parametrize("value", ["nan", "-inf"])
@pytest.mark.parametrize("command, family, flag", [
    (command, family, flag) for (command, family), (_, flags) in WORK.items() for flag in flags
])
def test_a_non_finite_flag_is_rejected_before_any_work(tmp_path, capsys, monkeypatch,
                                                       command, family, flag, value):
    calls = []

    def counted(work):
        def call(*args, **kwargs):
            calls.append(work.__name__)
            return work(*args, **kwargs)
        return call

    for name, _ in WORK.values():
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    argv = [command] + (["--family", family, "--s-grid", "1000", "--theta-grid", "1000"]
                        if family else ["--a", "0.9", "--nodes", "20000"])
    code, out = invoke(tmp_path, "work.out", argv + [f"{flag}={value}"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"hypstab {command}: invalid parameters: {flag[2:].replace('-', '_')} must be "
        f"a finite real number, got {float(value)}"
    ]
    assert calls == []
    assert not out.exists()


def test_render_json_rejects_a_non_finite_value():
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._render_json("criteria", {}, {"value": math.nan})


@pytest.mark.parametrize("name", sorted(n for n, (argv, _) in GOLDEN.items()
                                        if _format_of(argv) == "json"))
def test_json_golden_outputs_are_strict_json(tmp_path, name):
    code, out = invoke(tmp_path, "golden.json", GOLDEN[name][0])
    assert code == EXIT_OK
    _strict_json(out.read_text())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep-f", "--a-max", "inf"], "a_max must be a finite real number, got inf"),
        (["sweep-f", "--a-min", "0.6", "--step", "0"], "step must be a finite real number > 0, got 0.0"),
        (["sweep-f", "--a-min", "0.9", "--a-max", "0.6"], "need hi >= lo, got [0.9, 0.6]"),
        (["hyperbolic-window", "--t-min", "1"], "t_min must be a finite real number > 1, got 1.0"),
        (["hyperbolic-window", "--t-min", "2", "--t-max", "1.5"],
         "need t_max >= t_min, got [2.0, 1.5]"),
    ],
    ids=["sweep-bound", "sweep-step", "sweep-order", "window-t-min", "window-order"],
)
def test_grid_bounds_are_usage_errors(tmp_path, capsys, argv, message):
    code, out = invoke(tmp_path, "grid.csv", argv)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"hypstab {argv[0]}: invalid parameters: {message}"
    ]
    assert not out.exists()


# Every command with flags drawn from small pools of edge values: each call
# must end in a clean exit code with valid output or one named error line.
_FUZZ_FLOATS = [0.0, -1.0, 5e-324, 1e-300, 1e-12, 0.5000000000000001, 0.51, 1.0, 2.0, 9.0,
                300.0, 301.0, 710.0, 1e154, 1e308, math.inf, math.nan]
_FUZZ_INTS = [0, 1, 2, 3, 4, 5, 100, 1000, 10**6 + 1]
_TABLE_SIZE_FLAGS = ("--s-grid", "--theta-grid", "--t-grid", "--samples", "--steps")
_MAX_ROWS = cli._MAX_GRID_POINTS


@st.composite
def _cli_calls(draw):
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    command = cli._COMMANDS[name]
    argv = [name, "--format", draw(st.sampled_from(command.formats))]
    sizes = []
    for flag, options in command.arguments.items():
        if not (options.get("required") or draw(st.booleans())):
            continue
        if "choices" in options:
            value = draw(st.sampled_from(options["choices"]))
        elif options["type"] is int:
            value = draw(st.sampled_from(_FUZZ_INTS))
        else:
            value = draw(st.sampled_from(_FUZZ_FLOATS))
        if flag in _TABLE_SIZE_FLAGS and value <= _MAX_ROWS:
            sizes.append(value)
        argv.append(f"{flag}={value}")
    # tables past the row bound are rejected before allocation; cap the rest
    assume(math.prod(sizes) <= 10**5)
    return argv


@settings(max_examples=800, deadline=None)
@example(["index", "--a", "0.9", "--radius", "1e-200"])
@example(["embed-export", "--family", "spherical", "--t", "nan", "--alpha", "inf",
          "--format", "json"])
@example(["embed-export", "--family", "spherical", "--t", "nan", "--format", "csv"])
@given(_cli_calls())
def test_every_call_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--output", str(out)])
            except SystemExit as exc:
                assert exc.code == EXIT_USAGE
                return
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL), argv
        if code != EXIT_OK:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
            assert not out.exists()
            return
        assert err.getvalue() == ""
        if _format_of(argv) == "json":
            _strict_json(out.read_text())
        else:
            meta, _, rows = read_table(out)
            assert not {"nan", "inf", "-inf"} & set(meta.values())
            assert all(math.isfinite(cell) for row in rows for cell in row)
