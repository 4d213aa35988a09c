"""Spans around the calls into each `hypstab` layer, and the per-layer
metrics computed from them.

The benchmark wraps the module attributes that callers look up at call
time (for example `hypstab.cli.F`, which `sweep-f` calls, and
`hypstab.spherical_catenoid.F`, which `find-c0` calls), so the package
itself is not modified.  Spans stay in memory while the run lasts; the
caller writes them out when it ends.

A span is (id, parent, name, thread, op, start, end, failed, count):
`count` is a layer-specific work count taken from the call's arguments or
result (integrand evaluations, grid nodes, points).  Spans opened on a
thread with no open span, such as the `sweep-f` pool threads, get the
current operation's span as parent.  A span's self time is its duration
minus the union of its children's intervals; children on different threads
overlap, and the union counts that overlap once.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

FIELDS = ("id", "parent", "name", "thread", "op", "start", "end", "failed", "count")

Counter = Callable[[tuple, Any], float]


def _evaluations(args: tuple, result: Any) -> float:
    return result.evaluations


def _interior_nodes(args: tuple, result: Any) -> float:
    return result.interior


def _length(args: tuple, result: Any) -> float:
    return len(result)


def _true(args: tuple, result: Any) -> float:
    return 1.0 if result else 0.0


def _false(args: tuple, result: Any) -> float:
    return 0.0 if result else 1.0


# (module, attribute) -> (span name, work count).  Attributes are listed
# once per module that looks them up.
WRAPPED: dict[tuple[str, str], tuple[str, Counter | None]] = {
    ("hypstab.cli", "F"): ("F", _evaluations),
    ("hypstab.spherical_catenoid", "F"): ("F", _evaluations),
    ("hypstab.cli", "_locate_c0"): ("locate_c0", None),
    ("hypstab.spherical_catenoid", "_root_with_bracket"): ("root", None),
    ("hypstab.spherical_catenoid", "integrate_semi_infinite"): ("semi_infinite", _evaluations),
    ("hypstab.spherical_catenoid", "integrate_adaptive"): ("adaptive", _evaluations),
    ("hypstab.quadrature", "integrate_adaptive"): ("adaptive", _evaluations),
    ("hypstab.cli", "catenoid_embed"): ("sph_embed", None),
    ("hypstab.cli", "morse_index"): ("morse_index", None),
    ("hypstab.spectral", "mode_is_positive_by_bound"): ("screen", _true),
    ("hypstab.spectral", "assemble_mode_operator"): ("assemble", _interior_nodes),
    ("hypstab.spectral", "lowest_eigenvalues"): ("eig", None),
    ("hypstab.cli", "generating_curve_points"): ("curve", _length),
    ("hypstab.cli", "helicoid_embed"): ("hel_embed", None),
    ("hypstab.cli", "on_hyperboloid"): ("check", _false),
    ("hypstab.cli", "lambda1_bounds"): ("criteria", None),
    ("hypstab.cli", "lambda1_bounds_pinched"): ("criteria", None),
    ("hypstab.cli", "pointwise_stability_test"): ("criteria", None),
    ("hypstab.cli", "sobolev_stability_test"): ("criteria", None),
    ("hypstab.cli", "grad_condition_report"): ("criteria", None),
}

OP_SPAN = "op"

# Per-layer metric -> (unit, better).  Counts and times are per attempted
# operation of the traced half of a run.
PER_LAYER: dict[str, tuple[str, str]] = {
    "quadrature.calls": ("count/op", "lower"),
    "quadrature.evals": ("count/op", "lower"),
    "quadrature.adaptive_ms": ("ms/op", "lower"),
    "quadrature.truncation_ms": ("ms/op", "lower"),
    "quadrature.ns_per_eval": ("ns", "lower"),
    "quadrature.errors": ("count/op", "lower"),
    "spherical_catenoid.F_calls": ("count/op", "lower"),
    "spherical_catenoid.F_ms": ("ms/op", "lower"),
    "spherical_catenoid.F_calls_per_root": ("count", "lower"),
    "spherical_catenoid.embed_calls": ("count/op", "lower"),
    "spherical_catenoid.embed_self_ms": ("ms/op", "lower"),
    "spherical_catenoid.phi_miss_ratio": ("ratio", "lower"),
    "spectral.index_calls": ("count/op", "lower"),
    "spectral.modes_screened": ("count/op", "higher"),
    "spectral.modes_counted": ("count/op", "lower"),
    "spectral.screen_ratio": ("ratio", "higher"),
    "spectral.nodes_counted": ("count/op", "lower"),
    "spectral.assemble_ms": ("ms/op", "lower"),
    "spectral.eig_ms": ("ms/op", "lower"),
    "spectral.count_ms": ("ms/op", "lower"),
    "spectral.ns_per_node": ("ns", "lower"),
    "hyperbolic_catenoid.curve_calls": ("count/op", "lower"),
    "hyperbolic_catenoid.curve_points": ("count/op", "higher"),
    "hyperbolic_catenoid.curve_ms": ("ms/op", "lower"),
    "hyperbolic_catenoid.us_per_point": ("us", "lower"),
    "hyperbolic_catenoid.profile_errors": ("count/op", "lower"),
    "helicoid.embed_calls": ("count/op", "lower"),
    "helicoid.embed_ms": ("ms/op", "lower"),
    "lorentz.checks": ("count/op", "lower"),
    "lorentz.check_ms": ("ms/op", "lower"),
    "lorentz.rejects": ("count/op", "lower"),
    "criteria.calls": ("count/op", "lower"),
    "criteria.ms": ("ms/op", "lower"),
    "cli.self_ms": ("ms/op", "lower"),
    "cli.rows": ("count/op", "higher"),
    "cli.bytes": ("B/op", "lower"),
    "cli.us_per_row": ("us", "lower"),
    "trace.spans_per_op": ("count/op", "lower"),
    "trace.goodput_ratio": ("ratio", "higher"),
}


class Recorder:
    """In-memory span store.  One flat float64 array holds every span, so a
    few hundred thousand spans cost tens of megabytes, not hundreds."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._data = array("d")
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.op = 0
        self.root = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count: Counter | None = None) -> Callable:
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            sid = next(self._ids)
            stack.append(sid)
            failed, work = 1.0, 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = 0.0
            finally:
                end = time.perf_counter()
                stack.pop()
                if not failed and count is not None:
                    work = count(args, result)
                self._data.extend(
                    (sid, parent, name_id, threading.get_ident(), self.op, start, end, failed, work)
                )
            return result

        return traced

    @contextmanager
    def operation(self, op_id: int) -> Iterator[None]:
        """Open the root span of one operation; spans on threads without an
        open span attach to it."""
        sid = next(self._ids)
        self.op, self.root = op_id, sid
        self._stack().append(sid)
        failed = 1.0
        start = time.perf_counter()
        try:
            yield
            failed = 0.0
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self._data.extend(
                (sid, 0, self.name_id(OP_SPAN), threading.get_ident(), op_id, start, end, failed, 0)
            )
            self.root = 0

    def spans(self) -> np.ndarray:
        """All spans so far, one row per span, columns as in FIELDS."""
        return np.frombuffer(self._data, dtype=float).reshape(-1, len(FIELDS)).copy()


@contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Replace every attribute in WRAPPED by a traced wrapper, and restore
    the originals on exit."""
    saved = []
    try:
        for (module_name, attr), (name, count) in WRAPPED.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original, count))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: np.ndarray) -> np.ndarray:
    """Self time of every span: its duration minus the union of its
    children's intervals."""
    ids, parents, starts, ends = (spans[:, FIELDS.index(f)] for f in ("id", "parent", "start", "end"))
    children: dict[float, list[tuple[float, float]]] = defaultdict(list)
    for parent, start, end in zip(parents.tolist(), starts.tolist(), ends.tolist()):
        children[parent].append((start, end))
    out = ends - starts
    for row, sid in enumerate(ids.tolist()):
        kids = children.get(sid)
        if kids:
            out[row] -= union_length(kids, starts[row], ends[row])
    return out


def layer_metrics(
    spans: np.ndarray,
    names: Sequence[str],
    op_kinds: dict[int, str],
    rows: int,
    out_bytes: int,
) -> dict[str, float]:
    """Per-layer metrics, normalised per attempted operation.

    `op_kinds` maps the traced operations' ids to their command kinds;
    `rows` and `out_bytes` are the totals the benchmark counted in their
    outputs.
    """
    col = {f: spans[:, i] for i, f in enumerate(FIELDS)}
    dur = col["end"] - col["start"]
    own = self_times(spans)
    kind = np.array([names[int(i)] for i in col["name"]], dtype=object)
    by_id = dict(zip(col["id"].tolist(), kind.tolist()))
    parent_kind = np.array([by_id.get(p, "") for p in col["parent"].tolist()], dtype=object)

    def mask(name: str) -> np.ndarray:
        return kind == name

    def ms(values: np.ndarray, m: np.ndarray) -> float:
        return float(values[m].sum()) * 1e3

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ops = max(1, len(op_kinds))
    per_op = 1.0 / ops

    adaptive, semi = mask("adaptive"), mask("semi_infinite")
    top_quad = semi | (adaptive & (parent_kind != "semi_infinite"))
    evals = float(col["count"][top_quad].sum())
    quad_ms = ms(dur, adaptive) + ms(own, semi)

    f_span = mask("F")
    c0_ops = {i for i, k in op_kinds.items() if k == "find-c0"}
    f_in_c0 = sum(1 for op in col["op"][f_span].tolist() if int(op) in c0_ops)

    sph = mask("sph_embed")
    screen, assemble, morse = mask("screen"), mask("assemble"), mask("morse_index")
    nodes = float(col["count"][assemble].sum())
    curve = mask("curve")
    points = float(col["count"][curve].sum())
    check = mask("check")
    op_span = mask(OP_SPAN)

    return {
        "quadrature.calls": top_quad.sum() * per_op,
        "quadrature.evals": evals * per_op,
        "quadrature.adaptive_ms": ms(dur, adaptive) * per_op,
        "quadrature.truncation_ms": ms(own, semi) * per_op,
        "quadrature.ns_per_eval": ratio(quad_ms * 1e6, evals),
        "quadrature.errors": float((col["failed"][top_quad]).sum()) * per_op,
        "spherical_catenoid.F_calls": f_span.sum() * per_op,
        "spherical_catenoid.F_ms": ms(dur, f_span) * per_op,
        "spherical_catenoid.F_calls_per_root": ratio(f_in_c0, len(c0_ops)),
        "spherical_catenoid.embed_calls": sph.sum() * per_op,
        "spherical_catenoid.embed_self_ms": ms(own, sph) * per_op,
        "spherical_catenoid.phi_miss_ratio": ratio(
            float((adaptive & (parent_kind == "sph_embed")).sum()), float(sph.sum())
        ),
        "spectral.index_calls": morse.sum() * per_op,
        "spectral.modes_screened": float(col["count"][screen].sum()) * per_op,
        "spectral.modes_counted": assemble.sum() * per_op,
        "spectral.screen_ratio": ratio(float(col["count"][screen].sum()), float(screen.sum())),
        "spectral.nodes_counted": nodes * per_op,
        "spectral.assemble_ms": ms(dur, assemble) * per_op,
        "spectral.eig_ms": ms(dur, mask("eig")) * per_op,
        "spectral.count_ms": ms(own, morse) * per_op,
        "spectral.ns_per_node": ratio(ms(own, morse) * 1e6, nodes),
        "hyperbolic_catenoid.curve_calls": curve.sum() * per_op,
        "hyperbolic_catenoid.curve_points": points * per_op,
        "hyperbolic_catenoid.curve_ms": ms(dur, curve) * per_op,
        "hyperbolic_catenoid.us_per_point": ratio(ms(dur, curve) * 1e3, points),
        "hyperbolic_catenoid.profile_errors": float(col["failed"][curve].sum()) * per_op,
        "helicoid.embed_calls": mask("hel_embed").sum() * per_op,
        "helicoid.embed_ms": ms(dur, mask("hel_embed")) * per_op,
        "lorentz.checks": check.sum() * per_op,
        "lorentz.check_ms": ms(dur, check) * per_op,
        "lorentz.rejects": float(col["count"][check].sum()) * per_op,
        "criteria.calls": mask("criteria").sum() * per_op,
        "criteria.ms": ms(dur, mask("criteria")) * per_op,
        "cli.self_ms": ms(own, op_span) * per_op,
        "cli.rows": rows * per_op,
        "cli.bytes": out_bytes * per_op,
        "cli.us_per_row": ratio(ms(own, op_span) * 1e3, rows),
        "trace.spans_per_op": len(spans) * per_op,
    }
