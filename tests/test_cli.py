"""Command-line interface: output formats, determinism, exit codes, and the
round trip through the table reader."""

import json
import math

import pytest

import hypstab.cli as cli
from hypstab.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    embed_export,
    main,
    read_table,
    run,
)
from hypstab.lorentz import on_hyperboloid
from hypstab.spherical_catenoid import F, SphericalCatenoid


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
        assert bound == pytest.approx(2.0 * (t * t - 1.0), rel=1e-12)


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
        assert pointwise_ok == 0.0


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
    doc = json.loads(out.read_text())
    assert doc["lambda1"] == [0.25, 4.0]
    assert doc["lambda1_pinched"] == [0.25, 4.0 / 3.0]
    assert doc["pointwise"]["verdict"] == "stable-certified"
    assert doc["grad_deficit"]["verdict"] == "unstable-certified"
    assert "sobolev" not in doc


def test_criteria_lambda1_only(tmp_path):
    code, out = invoke(tmp_path, "crit2.json", ["criteria", "--n", "3"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
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


def test_thread_cap_does_not_change_output(tmp_path, monkeypatch):
    argv = ["sweep-f", "--a-min", "0.6", "--a-max", "1.0", "--step", "0.1"]
    monkeypatch.setenv("HYPSTAB_THREADS", "1")
    _, serial = invoke(tmp_path, "serial.csv", argv)
    serial_text = serial.read_text()
    monkeypatch.setenv("HYPSTAB_THREADS", "4")
    _, parallel = invoke(tmp_path, "parallel.csv", argv)
    assert serial_text == parallel.read_text()


def test_bad_thread_cap_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPSTAB_THREADS", "abc")
    code, _ = invoke(tmp_path, "x.csv", ["sweep-f", "--a-min", "0.6",
                                         "--a-max", "0.7", "--step", "0.1"])
    assert code == EXIT_USAGE


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


def test_numerical_failure_exit_code(tmp_path):
    # a root-bracket width that cannot be met in double precision
    code, _ = invoke(tmp_path, "fail.json", ["find-c0", "--tol", "1e-20"])
    assert code == EXIT_NUMERICAL


def test_run_with_unknown_command():
    assert run(RunConfig(command="bogus")) == EXIT_USAGE
    assert run(RunConfig(command="find-c0", parameters={"tol": 1e-4,
               "quad_tol": 1e-9}, fmt="csv")) == EXIT_USAGE


def test_embed_export_entry_point(tmp_path):
    out = tmp_path / "entry.csv"
    config = RunConfig(
        command="embed-export",
        parameters={"family": "helicoid", "alpha": 0.9, "s_max": 2.0,
                    "t_max": 1.5, "s_grid": 4, "t_grid": 4},
        output=str(out),
        fmt="csv",
    )
    assert embed_export(config) == EXIT_OK
    _, columns, rows = read_table(out)
    assert columns == ["s", "t", "x1", "x2", "x3", "x4"]
    assert len(rows) == 16
    with pytest.raises(ValueError):
        embed_export(RunConfig(command="sweep-f"))


def test_stdout_output(capsys):
    code = main(["criteria", "--n", "2"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda1"] == [0.25, 4.0]
