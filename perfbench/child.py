"""One benchmark pass in a fresh process.

    python3 perfbench/child.py <probe|pass|trace> <workload> <seed>

`run.py` starts this script with the checkout's `src/` on PYTHONPATH and the
BLAS thread cap and allocator setting in the environment.  `probe` only
imports the CLI, to time set-up; `pass` sends the workload's request list
through `vbsent.cli.main` in this process and checks every output; `trace`
does the same with the layers wrapped (see tracing.py).  The last stdout
line is one JSON object.
"""

import contextlib
import io
import json
import resource
import sys
import time


def run_request(cli, argv):
    """Run one CLI request with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:  # the console script would exit 1 with a traceback
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_pass(cli, workload, seed, trace):
    # imported here, after set-up has been timed
    import tracing
    import workloads

    requests = workloads.requests(workload, seed)
    tracer = tracing.Tracer()
    results = []
    with tracing.traced(tracer) if trace else contextlib.nullcontext():
        start = time.perf_counter()
        for argv in requests:
            results.append(run_request(cli, argv))
        wall_s = time.perf_counter() - start
    # peak so far, in MB, taken before the checks below allocate their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, violations = [], []
    for argv, (code, out, err) in zip(requests, results):
        command = " ".join(argv)
        if code == 0:
            violations += [f"{command}: {problem}" for problem in workloads.check(argv, out)]
            continue
        lines = err.strip().splitlines()
        first_line = lines[0] if lines else ""
        failures.append({"request": command, "exit_code": code, "stderr": first_line})
        violations += [f"{command}: {problem}: {first_line}"
                       for problem in workloads.check_failure(argv, code)]
    report = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "attempted": len(requests), "failed": len(failures),
              "failures": failures, "violations": violations}
    if trace:
        report["layers"] = tracer.metrics()
    return report


def main(argv):
    mode, workload, seed = argv
    import vbsent.cli  # set-up ends once the CLI is importable

    ready = time.monotonic()
    import numpy

    report = {"ready": ready, "numpy": numpy.__version__, "vbsent": vbsent.cli.__file__}
    if mode != "probe":
        report.update(run_pass(vbsent.cli, workload, int(seed), trace=mode == "trace"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
