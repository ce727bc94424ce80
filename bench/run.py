"""Closed-loop benchmark of toystab, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload bvc-mc --seed 1 --seconds 20 --trace 0

One client runs ops back to back in one process, with no threads.  The
workloads and the checks of every op are in ``workloads.py``.

With ``--trace 0`` the run sets up ``SETUP_REPEATS`` times (fresh import,
inputs and warm-up each time), then runs ops until ``--seconds`` have
passed and reports the end-to-end metrics:

    setup_s      median set-up time
    ops_per_s    ops completed per second of op time
    op_ms_p50    median op time
    op_ms_tail   the highest percentile of op time with ten ops beyond it
    peak_rss_mb  ru_maxrss of the process

Times are CPU times of the process at the reference speed of
``speed.py``, which removes the drift of a shared machine's speed; the
measured times are printed beside them.  An op's time includes drawing
its inputs and checking its outputs.  The share of failed ops is
``failed`` over ``attempted`` in the result.

With ``--trace 1`` it sets up
once and runs a fixed number of ops (sized from ``--seconds``), each once
untraced and once under the tracer of ``tracer.py`` on a twin workload
with the same inputs.  It reports the per-layer metrics of the traced ops
and the tracing overhead, the traced time over the untraced time less
one.  Because the op count is fixed, two traced runs with one seed report
identical counts and ratios.  The spans are written to ``.bench_out/``.

Lines before the last one are for people: the run's context (git sha,
Python version, CPU count, seed, a digest of the inputs) and each metric
with its unit.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check held, 1 when one failed, and 2 when the checkout has
no toystab sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe
from tracer import Tracer, metric_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
MAX_TRACEBACKS = 3


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "toystab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _context(args, workload) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": _git_sha(), "source_sha256": _source_sha(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "inputs_sha": workload.inputs_sha}


class _Runner:
    """Runs ops one at a time and keeps count of their outcomes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracebacks = 0

    def op(self, workload, i: int) -> None:
        try:
            ok = workload.op(i)
        except Exception:
            ok = False
            if self.tracebacks < MAX_TRACEBACKS:
                self.tracebacks += 1
                traceback.print_exc()
        self.attempted += 1
        self.failed += not ok

    def finish(self, workload) -> None:
        self.failed += workload.finish()


def _tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with ten samples beyond it: (value, level, beyond).

    A run of ten ops or fewer has no such percentile; it reports its
    fastest op, the lowest rank there is.
    """
    ranked = sorted(times)
    rank = max(1, len(ranked) - 10)
    return ranked[rank - 1], 100.0 * rank / len(ranked), len(ranked) - rank


def _measure(args, cls, load) -> tuple[dict, object, _Runner, list[str]]:
    runner = _Runner()
    with SpeedProbe() as probe:
        setups = []
        for _ in range(SETUP_REPEATS):
            workload, *interval = probe.timed(lambda: cls(load(), args.seed))
            setups.append(interval)
        gc.collect()
        ops = []
        start = time.perf_counter()
        while True:
            _, *interval = probe.timed(runner.op, workload, len(ops))
            ops.append(interval)
            if interval[1] - start >= args.seconds:
                break
        runner.finish(workload)
    setup_s = [probe.at_reference(*interval) for interval in setups]
    times = [probe.at_reference(*interval) for interval in ops]
    raw = [busy for _, _, busy in ops]
    tail, level, beyond = _tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_tail": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    speeds = sorted(probe.speeds)
    notes = [f"times are at reference speed; the machine ran at "
             f"{statistics.median(speeds):.3f} of it (median of "
             f"{len(speeds)} samples, range {speeds[0]:.3f}-{speeds[-1]:.3f})",
             f"setup_s: median of {SETUP_REPEATS}: "
             + ", ".join(f"{s:.4f}" for s in setup_s) + "; measured: "
             + ", ".join(f"{busy:.4f}" for _, _, busy in setups),
             f"measured: ops_per_s {len(raw) / sum(raw)}, "
             f"op_ms_p50 {statistics.median(raw) * 1e3}",
             f"op_ms_tail: p{level:.3f}, {beyond} of {len(times)} ops beyond",
             f"fail_frac: {runner.failed / runner.attempted} "
             f"({runner.failed} of {runner.attempted} ops)"]
    return metrics, workload, runner, notes


def _clocked(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _trace(args, cls, load) -> tuple[dict, object, _Runner, list[str]]:
    count = max(1, round(args.seconds * cls.nominal_ops_per_s / 3))
    ts = load()
    untraced, traced = cls(ts, args.seed), cls(ts, args.seed)
    tracer = Tracer()
    gc.collect()
    runner = _Runner()
    # op i runs untraced, then traced on a twin workload with the same
    # inputs, so that drift in the machine's speed hits both sums alike
    plain = with_tracing = 0.0
    for i in range(count):
        plain += _clocked(runner.op, untraced, i)
        tracer.op = i
        tracer.enable()
        try:
            with_tracing += _clocked(runner.op, traced, i)
        finally:
            tracer.disable()
    runner.finish(untraced)
    runner.finish(traced)
    units = dict(metric_names())
    values = tracer.metrics()
    values["trace_overhead"] = with_tracing / plain - 1
    metrics = {name: (values[name], units[name]) for name in units}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans = tracer.write_spans(spans_path)
    notes = [f"traced pass: {count} ops, {with_tracing:.4f} s; "
             f"untraced pass: {count} ops, {plain:.4f} s",
             f"spans: {spans} written to {spans_path.relative_to(ROOT)}"]
    return metrics, traced, runner, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toystab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no toystab sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, load_toystab

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2
    cls = WORKLOADS[args.workload]

    def load():
        ts = load_toystab()
        if not Path(ts.bvc.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"toystab imported from {ts.bvc.__file__}")
        return ts

    measure = _trace if args.trace else _measure
    metrics, workload, runner, notes = measure(args, cls, load)
    print("# context " + json.dumps(_context(args, workload), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    for note in notes:
        print(f"# {note}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
