"""vbsent benchmark: one workload, timed through the CLI in fresh processes.

    python3 perfbench/run.py --workload closed-form-sweep --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from the `src/` directory next to
this one, never from an installed copy.  A run starts SETUP_PROBES processes
that only import `vbsent.cli`, then one process per pass of the workload's
request list (see workloads.py) until `--seconds` is used up, with at least
MIN_PASSES passes.  Processes run one at a time.

--trace 0 reports the end-to-end metrics: the median pass wall time, the
median peak RSS of a pass process, the median set-up time (process start to
`vbsent.cli` imported) and the share of requests that succeeded.  --trace 1
alternates traced and untraced passes and reports the per-layer metrics of
the traced ones (medians) plus the tracing overhead.

The last stdout line is the JSON result; a summary goes to stderr and the
full record, with the run environment and every failed request, to
perfbench/results/.  The exit code is 0 when every output passed its checks,
1 when one did not or a pass process failed, 2 when the source tree is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_PROBES = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120
# A run must end within 180 s; no pass starts that is expected to end later.
RUN_LIMIT_S = 150

# The BLAS thread count is part of the configuration measured: it changes
# both speed and the summation order of the state norm (and so which dense
# states the current norm check rejects).  Set only in the pass processes.
BLAS_THREADS = min(2, os.cpu_count() or 1)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A fixed glibc mmap threshold stops the allocator from raising it after the
# first large free, which otherwise keeps freed mid-size arrays resident and
# makes a pass's peak RSS depend on its request order (by 4% on dense-gram).
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


class BenchError(RuntimeError):
    """A pass process failed or produced no reading."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({name: str(BLAS_THREADS) for name in BLAS_VARS}, **MALLOC_ENV)
    return env


def spawn(mode: str, workload: str, seed: int, env: Dict[str, str]) -> dict:
    """Run child.py once and return its reading, with set-up time added."""
    argv = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed)]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    reading = json.loads(lines[-1])
    if not Path(reading["vbsent"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported vbsent from {reading['vbsent']}, not from {SRC}")
    reading.update(mode=mode, setup_s=reading["ready"] - started,
                   elapsed_s=time.monotonic() - started)
    return reading


def measure(workload: str, seed: int, seconds: float, trace: bool) -> List[dict]:
    env = child_env()
    start = time.monotonic()
    readings = [spawn("probe", workload, seed, env) for _ in range(SETUP_PROBES)]
    modes = ("trace", "pass") if trace else ("pass",)
    passes = 0
    while True:
        readings.append(spawn(modes[passes % len(modes)], workload, seed, env))
        passes += 1
        expected_end = time.monotonic() - start + readings[-1]["elapsed_s"]
        if expected_end > RUN_LIMIT_S or (passes >= MIN_PASSES and expected_end > seconds):
            return readings


UNITS = (("_s", "s"), ("_mb", "MB"), ("_frac", "ratio"), ("bytes_built", "B"), ("flops", "flop"))


def unit_of(metric: str) -> str:
    return next((unit for suffix, unit in UNITS if metric.endswith(suffix)), "count")


def _median_of(readings: List[dict], key: str) -> float:
    return statistics.median(r[key] for r in readings)


def layer_metrics(passes: List[dict]) -> Dict[str, float]:
    """Medians over the traced passes, plus traced minus untraced pass time."""
    traced = [r for r in passes if r["mode"] == "trace"]
    untraced = [r for r in passes if r["mode"] == "pass"]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = _median_of(traced, "wall_s") - _median_of(untraced, "wall_s")
    return metrics


def module_split(metrics: Dict[str, float], wall_s: float) -> Dict[str, float]:
    """Share of the traced pass time spent in each package module."""
    split: Dict[str, float] = {}
    for name, seconds in metrics.items():
        if name.endswith(".self_s"):
            module = name.split(".")[0]
            split[module] = split.get(module, 0.0) + seconds / wall_s
    return dict(sorted(split.items(), key=lambda item: -item[1]))


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))


def build_record(args: argparse.Namespace, readings: List[dict]) -> dict:
    passes = [r for r in readings if r["mode"] != "probe"]
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    failures: Dict[str, dict] = {}
    for reading in passes:
        for failure in reading["failures"]:
            key = json.dumps(failure, sort_keys=True)
            failures.setdefault(key, dict(failure, count=0))["count"] += 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS, **MALLOC_ENV,
            "python": platform.python_version(), "numpy": readings[0]["numpy"],
            "src_lines": src_lines(),  # information only, not a gated metric
        },
        "requests": [" ".join(argv) for argv in workloads.requests(args.workload, args.seed)],
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": list(failures.values()),
        "violations": sorted({v for r in passes for v in r["violations"]}),
        "samples": [{key: r[key] for key in ("mode", "setup_s", "elapsed_s", "peak_rss_mb", "wall_s")
                     if key in r} for r in readings],
    }
    if args.trace:
        record["metrics"] = layer_metrics(passes)
        traced_wall_s = _median_of([r for r in passes if r["mode"] == "trace"], "wall_s")
        record["module_split"] = module_split(record["metrics"], traced_wall_s)
    else:
        untraced = [r for r in passes if r["mode"] == "pass"]
        record["metrics"] = {
            "wall_s": _median_of(untraced, "wall_s"),
            "peak_rss_mb": _median_of(untraced, "peak_rss_mb"),
            "setup_s": _median_of(readings, "setup_s"),
            # the share that succeeded, 1 - failed_frac, so the metric is never 0
            "ok_frac": (attempted - failed) / attempted,
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vbsent" / "cli.py").is_file():
        print(f"error: no vbsent source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        readings = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = build_record(args, readings)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for line in record["violations"][:20]:
        print(f"violation: {line}", file=sys.stderr)
    if args.trace:
        print("traced module split: " + ", ".join(
            f"{module} {share:.0%}" for module, share in record["module_split"].items()),
            file=sys.stderr)
    print(f"{args.workload}: {len(readings) - SETUP_PROBES} passes, "
          f"{record['failed']}/{record['attempted']} requests failed; record in {path}",
          file=sys.stderr)
    result = {
        "correct": not record["violations"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
