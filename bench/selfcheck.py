"""Smoke test and determinism check of the benchmark itself.

Usage, from the root of a checkout:

    python3 bench/selfcheck.py

For every workload, in runs of ``SECONDS`` with seed ``SEED``:

- an untraced run passes its checks and prints every end_to_end metric
  of BENCHMARK.json, with its unit;
- two traced runs with one seed pass, print every per_layer metric, and
  agree exactly on every count and ratio; the layers the workload
  declares have calls and no other layer has any;
- a traced run with seed ``SEED + 1`` draws other inputs and passes too.

Last, run.py must fail without a result in a directory that holds only
BENCHMARK.json and the benchmark's files.  Prints one line per check and
exits 1 if any failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SECONDS = 1.0
SEED = 1
RUN_TIMEOUT_S = 900
# per-layer metrics that are timings, so not expected to repeat
TIMINGS = ("self_s", "trace_overhead")


def _run(args: list, cwd: Path) -> tuple[int, dict | None, dict | None]:
    """(exit code, context, result) of one run.py invocation."""
    proc = subprocess.run([sys.executable, str(cwd / "bench" / "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    context = result = None
    for line in lines:
        if line.startswith("# context "):
            context = json.loads(line[len("# context "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if proc.returncode not in (0, 2):
        sys.stderr.write(proc.stderr)
    return proc.returncode, context, result


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers = {_layer_of(name) for name in per_layer} - {"trace_overhead"}
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json lists the workloads of workloads.py")
    seconds = ["--seconds", str(SECONDS)]
    for name, cls in WORKLOADS.items():
        base = ["--workload", name] + seconds
        code, _, result = _run(base + ["--seed", str(SEED),
                                       "--trace", "0"], ROOT)
        metrics = (result or {}).get("metrics", {})
        check(code == 0 and result is not None and result["correct"]
              and result["failed"] == 0, f"{name}: untraced run passes")
        check({k: v["unit"] for k, v in metrics.items()} == end_to_end
              and all(v["value"] > 0 for v in metrics.values()),
              f"{name}: every end-to-end metric, nonzero, with its unit")

        traced = []
        for seed in (SEED, SEED, SEED + 1):
            code, context, result = _run(base + ["--seed", str(seed),
                                                 "--trace", "1"], ROOT)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0,
                  f"{name}: traced run with seed {seed} passes")
            traced.append((context or {}, (result or {}).get("metrics", {})))
        (ctx1, m1), (ctx2, m2), (ctx3, _) = traced
        check({k: v["unit"] for k, v in m1.items()} == per_layer,
              f"{name}: every per-layer metric with its unit")
        counts = {k: v["value"] for k, v in m1.items()
                  if not k.endswith(TIMINGS)}
        check(counts == {k: m2[k]["value"] for k in counts if k in m2},
              f"{name}: same seed, identical per-layer counts and ratios")
        check(ctx1.get("inputs_sha") == ctx2.get("inputs_sha")
              != ctx3.get("inputs_sha"),
              f"{name}: same seed, same inputs; other seed, other inputs")
        touched = {_layer_of(k) for k, v in m1.items()
                   if k.endswith(".calls") and v["value"] > 0}
        check(touched == set(cls.layers) and set(cls.layers) <= layers,
              f"{name}: reaches exactly the layers {sorted(cls.layers)}"
              f" (traced: {sorted(touched)})")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, _, result = _run(["--workload", "xcheck", "--seed", "1"] + seconds
                           + ["--trace", "0"], bare)
    check(code != 0 and result is None,
          "without the sources, run.py fails and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
