"""Tests of the benchmark's own helpers: percentiles, span self times,
seeded streams, the independent hyperboloid bound, and the metric lists.

Run from the repository root with `python3 -m pytest bench/tests`.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Op, Strata, Stream  # noqa: E402


# --- percentiles with failed operations ------------------------------------


def test_percentile_interpolates_finite_samples():
    samples = [float(x) for x in range(1, 11)]
    assert run.percentile(samples, 50) == 5.5
    assert run.percentile(samples, 90) == pytest.approx(9.1)
    assert run.percentile(samples, 0) == 1.0
    assert run.percentile(samples, 100) == 10.0


def test_failed_operations_count_as_infinitely_slow():
    ok = [float(x) for x in range(1, 96)]
    # 5 failures in 100: the median moves up, p90 stays finite.
    samples = ok + [math.inf] * 5
    assert run.percentile(samples, 50) == pytest.approx(50.5)
    assert math.isfinite(run.percentile(samples, 90))
    # 11 failures in 100: the 90th percentile is a failure.
    samples = ok[:89] + [math.inf] * 11
    assert run.percentile(samples, 90) == math.inf
    assert run.percentile([math.inf, math.inf], 50) == math.inf


def test_percentile_at_the_edge_of_the_failures_is_infinite():
    # Rank 0.9 * 9 = 8.1 interpolates between a finite sample and a failure.
    samples = [1.0] * 8 + [math.inf] * 2
    assert run.percentile(samples, 90) == math.inf
    assert run.percentile(samples, 70) == 1.0


def test_scaling_uses_the_probes_around_each_operation():
    ref = run.REF_PROBE_S
    # Operation 0 ran at half the reference speed, operation 1 between
    # half and full speed; the second failed.
    phase = run.Phase(elapsed=[0.1, 0.3], ok=[True, False],
                      probes=[2 * ref, 2 * ref, ref])
    assert phase.scaled() == pytest.approx([0.05, 0.2])
    assert phase.scaled_goodput() == pytest.approx(1 / 0.25)


# --- span self times -------------------------------------------------------


def _span(sid, parent, start, end, thread=1):
    row = np.zeros(len(tracing.FIELDS))
    for name, value in (("id", sid), ("parent", parent), ("start", start),
                        ("end", end), ("thread", thread)):
        row[tracing.FIELDS.index(name)] = value
    return row


def test_self_time_counts_overlapping_pool_children_once():
    spans = np.array([
        _span(1, 0, 0.0, 10.0),
        # Two pool threads run children of the operation at the same time.
        _span(2, 1, 1.0, 6.0, thread=2),
        _span(3, 1, 4.0, 9.0, thread=3),
        # A grandchild is covered by its parent and does not count again.
        _span(4, 2, 2.0, 3.0, thread=2),
    ])
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 8.0)  # union [1, 9]
    assert own[1] == pytest.approx(5.0 - 1.0)
    assert own[2] == pytest.approx(5.0)
    assert own[3] == pytest.approx(1.0)


def test_union_length_clips_to_the_parent():
    assert tracing.union_length([(-1.0, 2.0), (1.5, 3.0), (5.0, 20.0)], 0.0, 10.0) == 8.0
    assert tracing.union_length([], 0.0, 1.0) == 0.0


def test_pool_thread_spans_attach_to_the_operation():
    recorder = tracing.Recorder()
    work = recorder.wrap("work", lambda: time.sleep(0.02))
    with recorder.operation(7):
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(work) for _ in range(4)]:
                future.result()
    spans = recorder.spans()
    col = {name: spans[:, i] for i, name in enumerate(tracing.FIELDS)}
    is_op = col["name"] == recorder.names.index(tracing.OP_SPAN)
    op_id = col["id"][is_op][0]
    children = ~is_op
    assert children.sum() == 4
    assert np.all(col["parent"][children] == op_id)
    assert np.all(col["op"] == 7)
    assert len(set(col["thread"][children])) == 2
    assert threading.get_ident() == col["thread"][is_op][0]
    own = tracing.self_times(spans)
    union = tracing.union_length(
        zip(col["start"][children], col["end"][children]), col["start"][is_op][0], col["end"][is_op][0]
    )
    assert own[is_op][0] == pytest.approx(col["end"][is_op][0] - col["start"][is_op][0] - union)
    # Two threads overlap, so the union is shorter than the summed children.
    assert union < (col["end"] - col["start"])[children].sum()


def test_failed_call_is_recorded_and_reraised():
    recorder = tracing.Recorder()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        recorder.wrap("boom", boom)()
    spans = recorder.spans()
    assert spans[0, tracing.FIELDS.index("failed")] == 1.0


# --- seeded streams --------------------------------------------------------


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    first = Stream(workload, 7, "timed")
    again = Stream(workload, 7, "timed")
    other = Stream(workload, 8, "timed")
    argv = [first.next().argv for _ in range(200)]
    assert argv == [again.next().argv for _ in range(200)]
    assert argv != [other.next().argv for _ in range(200)]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_warmup_stream_is_disjoint_from_timed_stream(workload):
    warm, timed = Stream(workload, 7, "warmup"), Stream(workload, 7, "timed")
    warm_argv = {warm.next().argv for _ in range(50)}
    timed_argv = [timed.next().argv for _ in range(500)]
    assert len(set(timed_argv)) == len(timed_argv)  # fresh parameters every time
    assert warm_argv.isdisjoint(timed_argv)


def test_strata_visit_every_sub_range_once_per_cycle():
    import random

    strata = Strata(random.Random(1), count=10)
    for _ in range(3):
        cells = sorted(int(strata.draw() * 10) for _ in range(10))
        assert cells == list(range(10))


# --- independent output checks ---------------------------------------------


def _helicoid_points(s, t, alpha=1.3):
    return np.column_stack([
        np.cosh(s) * np.cosh(t),
        np.sinh(s) * np.cosh(t),
        np.cos(alpha * s) * np.sinh(t),
        np.sin(alpha * s) * np.sinh(t),
    ])


def _printed(points):
    return np.array([[float(f"{v:.15g}") for v in row] for row in points])


def test_sheet_bound_accepts_large_correct_points():
    s, t = np.meshgrid(np.linspace(-6.5, 6.5, 60), np.linspace(-4.5, 4.5, 60))
    points = _printed(_helicoid_points(s.ravel(), t.ravel()))
    sq = points * points
    residual = np.abs(sq[:, 1:].sum(axis=1) - sq[:, 0] + 1.0)
    assert residual.max() > 1e-8  # the CLI's absolute check rejects these
    assert checks._sheet_problem(points) is None


def test_sheet_bound_rejects_off_sheet_points():
    points = _printed(_helicoid_points(np.linspace(-2, 2, 50), np.full(50, 0.7)))
    points[17, 1] *= 1.0 + 1e-9
    assert "row 17" in checks._sheet_problem(points)


def test_find_c0_check_names_the_problem():
    op = Op("find-c0", ("find-c0",), {"tol": 1e-8, "quad_tol": 1e-10})
    good = json.dumps({"c0": 0.7341, "bracket": [0.7341, 0.7341 + 5e-9]})
    assert checks.check(op, good) is None
    wide = json.dumps({"c0": 0.7341, "bracket": [0.73, 0.74]})
    assert "bracket width" in checks.check(op, wide)
    assert "unreadable" in checks.check(op, "not json")


# --- metric lists ----------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    manifest = json.loads((BENCH / "manifest.json").read_text())
    assert set(manifest["layer_map"]) == set(tracing.PER_LAYER)
