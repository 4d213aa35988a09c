"""hypstab benchmark: CLI commands run in-process, one closed-loop client.

Usage, from the repository root:

    python3 bench/run.py --workload spherical-certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each operation is one `hypstab.cli.main(argv)` call with `--output` pointed
at a file under `.bench_out/`, so argument parsing, rendering and the file
write are all timed.  The next operation starts when the previous one has
returned and its output has been checked; only the `main` call is timed, and
the run measures until the timed calls add up to `--seconds`.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of a
traced run (see `tracing.py`).  The exit code is 1 when an output check or
the determinism check fails, and 2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import WORKLOADS, Op, Stream

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_STARTS = 7
WARMUP_OPS = 6
MIN_TIMED_OPS = 100
PROBE_ROWS = 800
PROBE_SHARE = 0.1  # probe for at least this share of the operation's time
# The reference speed: the speed at which one probe takes 2 ms.  Operation
# times are scaled to it.
REF_PROBE_S = 0.002
# The CLI is ready once its module is imported and its parser is built.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import hypstab.cli as c; "
    "c._build_parser(); print('ready', flush=True)"
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100].  Failed operations
    enter as +inf; a rank that touches one reads +inf."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    if frac == 0.0 or xs[lo] == xs[hi]:
        return xs[lo]
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * frac


@dataclass
class Phase:
    """Outcome of one measured loop.  `probes[i]` and `probes[i + 1]` are
    the speed probes taken just before and just after operation i."""

    elapsed: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    op_kinds: dict[int, str] = field(default_factory=dict)
    rows: int = 0
    out_bytes: int = 0
    first_ok: tuple[Op, bytes] | None = None

    @property
    def attempted(self) -> int:
        return len(self.elapsed)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    @property
    def busy(self) -> float:
        return sum(self.elapsed)

    @property
    def goodput(self) -> float:
        return (self.attempted - self.failed) / self.busy

    def scaled(self) -> list[float]:
        """Operation times at the reference speed."""
        local = [0.5 * (a + b) for a, b in zip(self.probes, self.probes[1:])]
        return [t * REF_PROBE_S / p for t, p in zip(self.elapsed, local)]

    def scaled_goodput(self) -> float:
        return (self.attempted - self.failed) / sum(self.scaled())


def probe(span: float = 0.0) -> float:
    """Seconds one fixed piece of pure-Python work takes: the machine's
    current speed.  The work allocates small tuples and formats floats, as
    the CLI's row loops do.  It is repeated until `span` seconds have
    passed, so the probe around a long operation samples a long stretch.

    On the 2-vCPU virtual machine of manifest.json the speed switches
    between a fast state and states 35-50% slower every few seconds, and
    the hypervisor takes the CPU away in bursts, whatever the benchmark
    does.  Every timing is divided by the probe time taken around it and
    multiplied by REF_PROBE_S: it becomes the time the measured work takes
    at the reference speed, which removes most of that drift from the
    run-to-run spread.
    """
    units = 0
    start = time.perf_counter()
    while True:
        rows = [(i * 0.5, i * 1.25, i * 2.0 + 1.0, i / 3.0) for i in range(PROBE_ROWS)]
        "\n".join(",".join(f"{v:.15g}" for v in row) for row in rows)
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= span:
            return elapsed / units


def run_op(cli, op: Op, out: Path) -> tuple[float, int | str, str]:
    """Time one CLI call; returns (seconds, exit code or exception, stderr)."""
    err = io.StringIO()
    argv = [*op.argv, "--output", str(out)]
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc: int | str = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a benchmark abort
            rc = traceback.format_exc(limit=1).strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
    return elapsed, rc, err.getvalue().strip()


def measure(cli, stream: Stream, seconds: float, out: Path, phase: Phase,
            recorder: tracing.Recorder | None = None,
            setup: SetupSampler | None = None) -> None:
    """Closed loop until the timed calls add up to `seconds`."""
    if not phase.probes:
        phase.probes.append(probe())
    while phase.busy < seconds:
        if setup is not None:
            setup.poll(phase.busy)
        op = stream.next()
        op_id = phase.attempted + 1
        phase.op_kinds[op_id] = op.kind
        if recorder is None:
            elapsed, rc, err = run_op(cli, op, out)
        else:
            with recorder.operation(op_id):
                elapsed, rc, err = run_op(cli, op, out)
        phase.probes.append(probe(PROBE_SHARE * elapsed))
        phase.elapsed.append(elapsed)
        reason = None
        if rc != 0:
            reason = f"exit {rc}: {err}"
        else:
            text = out.read_text(encoding="utf-8")
            phase.rows += checks.rows_of(text)
            phase.out_bytes += len(text.encode("utf-8"))
            wrong = checks.check(op, text)
            if wrong:
                reason = f"output check: {wrong}"
                phase.wrong.append(f"{' '.join(op.argv)}: {wrong}")
            elif phase.first_ok is None:
                phase.first_ok = (op, text.encode("utf-8"))
        phase.ok.append(reason is None)
        if reason:
            phase.failures.append(f"{' '.join(op.argv)} -> {reason}")


class SetupSampler:
    """Set-up starts spread evenly over the timed loop, so that a slow spell
    of the machine does not fall on all of them.  Each start is the time
    from spawning a fresh interpreter to a ready CLI."""

    def __init__(self, seconds: float, count: int = SETUP_STARTS) -> None:
        self._due = [seconds * k / count for k in range(count)]
        self.times: list[float] = []

    def poll(self, busy: float) -> None:
        """Take the starts that are due after `busy` seconds of timed calls."""
        while self._due and busy >= self._due[0]:
            self._due.pop(0)
            self._start()

    def finish(self) -> None:
        while self._due:
            self._due.pop(0)
            self._start()

    def _start(self) -> None:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        with child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up start failed with exit code {child.returncode}")
        self.times.append(elapsed)


def determinism_problem(cli, phase: Phase, out: Path) -> str | None:
    """Rerun the first successful operation; its output must be identical."""
    if phase.first_ok is None:
        return "no operation succeeded"
    op, first = phase.first_ok
    _, rc, err = run_op(cli, op, out)
    if rc != 0:
        return f"rerun of {' '.join(op.argv)} failed: exit {rc}: {err}"
    if out.read_bytes() != first:
        return f"rerun of {' '.join(op.argv)} wrote different bytes"
    return None


def run_workload(args: argparse.Namespace) -> int:
    os.environ.pop("HYPSTAB_THREADS", None)  # measure the default pool size
    if not (SRC / "hypstab").is_dir():
        print(f"no hypstab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import hypstab.cli as cli
    except ImportError as exc:
        print(f"cannot import hypstab from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    out = OUT / f"out-{os.getpid()}.txt"
    try:
        return _run(cli, args, out)
    finally:
        out.unlink(missing_ok=True)


def _run(cli, args: argparse.Namespace, out: Path) -> int:
    warm = Stream(args.workload, args.seed, "warmup")
    for _ in range(WARMUP_OPS):
        run_op(cli, warm.next(), out)

    stream = Stream(args.workload, args.seed, "timed")
    if args.trace:
        # Untraced and traced halves on one stream: their goodput ratio is
        # the tracing overhead.
        plain, traced = Phase(), Phase()
        measure(cli, stream, args.seconds / 2.0, out, plain)
        recorder = tracing.Recorder()
        with tracing.installed(recorder):
            measure(cli, stream, args.seconds / 2.0, out, traced, recorder)
        phases = [plain, traced]
        metrics, units = traced_metrics(args, recorder, plain, traced), {
            name: unit for name, (unit, _) in tracing.PER_LAYER.items()
        }
    else:
        phase, setup = Phase(), SetupSampler(args.seconds)
        measure(cli, stream, args.seconds, out, phase, setup=setup)
        setup.finish()
        phases = [phase]
        metrics, units = end_to_end_metrics(phase, setup), END_TO_END

    problems = [wrong for phase in phases for wrong in phase.wrong]
    nondeterministic = determinism_problem(cli, phases[0], out)
    if nondeterministic:
        problems.append(nondeterministic)
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    if attempted < MIN_TIMED_OPS:
        print(f"# warning: {attempted} timed operations, fewer than {MIN_TIMED_OPS}")
    print(f"# workload={args.workload} seed={args.seed} attempted={attempted} failed={failed}")
    for reason in [r for phase in phases for r in phase.failures][:20]:
        print(f"# failed: {reason}")
    for problem in problems[:20]:
        print(f"# INCORRECT: {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        # A percentile that lands on a failed operation is infinite, which
        # JSON cannot carry; it is written as null.
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def end_to_end_metrics(phase: Phase, setup: SetupSampler) -> dict[str, float]:
    def latencies_ms(times: list[float]) -> list[float]:
        return [t * 1e3 if ok else math.inf for t, ok in zip(times, phase.ok)]

    raw_ms = latencies_ms(phase.elapsed)
    print(f"# unscaled: ops_per_s {phase.goodput:.6g} "
          f"op_p50_ms {percentile(raw_ms, 50):.6g} op_p90_ms {percentile(raw_ms, 90):.6g}; "
          f"probe {statistics.median(phase.probes) * 1e3:.4g} ms median, "
          f"{REF_PROBE_S * 1e3:.4g} ms at the reference speed")
    lat_ms = latencies_ms(phase.scaled())
    return {
        "setup_s": statistics.median(setup.times),
        "ops_per_s": phase.scaled_goodput(),
        "op_p50_ms": percentile(lat_ms, 50),
        "op_p90_ms": percentile(lat_ms, 90),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(args: argparse.Namespace, recorder: tracing.Recorder,
                   plain: Phase, traced: Phase) -> dict[str, float]:
    spans = recorder.spans()
    path = OUT / f"spans-{args.workload}-{args.seed}.npz"
    np.savez_compressed(path, spans=spans, fields=np.array(tracing.FIELDS),
                        names=np.array(recorder.names))
    print(f"# {len(spans)} spans written to {path.relative_to(ROOT)}")
    layers = tracing.layer_metrics(spans, recorder.names, traced.op_kinds,
                                   traced.rows, traced.out_bytes)
    layers["trace.goodput_ratio"] = traced.scaled_goodput() / plain.scaled_goodput()
    for name, value in layers.items():
        if value == 0:
            print(f"# {name} is 0: no traced call of this layer in this workload")
    return {name: float(layers[name]) for name in tracing.PER_LAYER}


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload} (exit {proc.returncode})")
        print("\n".join(line for line in lines[:-1] if not line.startswith("# failed")))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
