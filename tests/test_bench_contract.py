"""The names the benchmark's tracer wraps must stay in the package.

bench/tracing.py replaces module attributes by name; a rename in `hypstab`
would make a traced run fail or leave a layer's spans empty without any
test under tests/ noticing.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

from hypstab.cli import EXIT_OK, main  # noqa: E402


@pytest.mark.parametrize("module, attr", sorted(tracing.WRAPPED))
def test_every_wrapped_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_traced_operations_fill_the_spectral_spans(tmp_path):
    recorder = tracing.Recorder()
    argvs = [
        ["index", "--a", "0.9", "--radius", "6", "--nodes", "400", "--m-max", "3"],
        ["criteria", "--n", "3", "--sup-a-sq", "2.5", "--mass-a-sq", "1.2",
         "--mass-grad-a-sq", "2.0"],
    ]
    with tracing.installed(recorder):
        for op_id, argv in enumerate(argvs, start=1):
            with recorder.operation(op_id):
                assert main(argv + ["--output", str(tmp_path / "out.json")]) == EXIT_OK
    spans = recorder.spans()
    names = np.array(recorder.names)[spans[:, tracing.FIELDS.index("name")].astype(int)]
    for name in ("morse_index", "screen", "assemble", "criteria"):
        assert np.count_nonzero(names == name), name


def test_curve_span_counts_the_exported_points(tmp_path):
    recorder = tracing.Recorder()
    argv = ["embed-export", "--family", "hyperbolic-curve", "--samples", "257",
            "--output", str(tmp_path / "curve.csv")]
    with tracing.installed(recorder):
        with recorder.operation(1):
            assert main(argv) == EXIT_OK
    spans = recorder.spans()
    names = np.array(recorder.names)[spans[:, tracing.FIELDS.index("name")].astype(int)]
    curve = spans[names == "curve"]
    assert len(curve) == 1
    assert curve[0, tracing.FIELDS.index("count")] == 257


@pytest.mark.parametrize(
    "argv, least",
    [
        (["sweep-f", "--a-min", "0.6", "--a-max", "0.9", "--step", "0.1"], {"F": 4}),
        (["find-c0", "--tol", "1e-8"], {"F": 3, "locate_c0": 1, "root": 1}),
    ],
    ids=["sweep-f", "find-c0"],
)
def test_traced_F_commands_fill_the_F_spans(tmp_path, argv, least):
    # the tracer reads result.evaluations from every F; the closed form reports 0
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        with recorder.operation(1):
            assert main(argv + ["--output", str(tmp_path / "out")]) == EXIT_OK
    spans = recorder.spans()
    names = np.array(recorder.names)[spans[:, tracing.FIELDS.index("name")].astype(int)]
    assert not spans[:, tracing.FIELDS.index("failed")].any()
    for name, count in least.items():
        assert np.count_nonzero(names == name) >= count, name
    assert (spans[names == "F", tracing.FIELDS.index("count")] == 0).all()
