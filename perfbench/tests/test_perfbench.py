"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from vbsent import checks, cli, closed_form, edges, states  # noqa: E402


def test_self_time_is_parent_minus_children():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def tick(seconds):
        now[0] += seconds

    def inner(seconds):
        tick(seconds)

    def failing():
        tick(0.5)
        raise ValueError("refused")

    inner_w = tracer.wrap("closed_form.weights", inner)
    failing_w = tracer.wrap("edges", failing)

    def outer():
        tick(1.0)
        inner_w(2.0)
        tick(3.0)
        inner_w(4.0)
        with pytest.raises(ValueError):
            failing_w()

    tracer.wrap("cli", outer)()
    layers = tracer.layers
    assert (layers["cli"].calls, layers["cli"].self_s) == (1, 4.0)
    assert (layers["closed_form.weights"].calls, layers["closed_form.weights"].self_s) == (2, 6.0)
    assert (layers["edges"].calls, layers["edges"].failed) == (1, 1)
    assert layers["edges"].self_s == 0.5


def test_traced_rebinds_importers_and_restores():
    originals = {(mod, name): getattr(mod, name)
                 for mod, name in [(states, "fold_tables"), (edges, "fold_tables"),
                                   (closed_form, "open_spectrum"), (edges, "open_spectrum"),
                                   (checks, "run_checks"), (cli, "run_checks"), (cli, "main")]}
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer):
            assert edges.fold_tables is states.fold_tables
            assert edges.fold_tables is not originals[(states, "fold_tables")]
            assert cli.run_checks is checks.run_checks
            assert cli.run_checks is not originals[(checks, "run_checks")]
            code, out, _ = child.run_request(
                cli, ["spectrum", "--n", "2", "--boundary", "open", "--block", "2", "--verify"])
            assert code == 0 and out.count("\n") == 2
            raise RuntimeError("leave the block early")
    for (mod, name), original in originals.items():
        assert getattr(mod, name) is original
    metrics = tracer.metrics()
    assert metrics["cli.calls"] == 1
    assert metrics["states.build.calls"] == 1
    assert metrics["oracle.block_spectrum.calls"] == metrics["oracle.jacobi.calls"] == 1
    assert metrics["states.amps_max"] == 3 ** 2 * 4
    assert metrics["states.bytes_built"] == 3 ** 2 * 4 * 16


def _shape(request):
    """A request with the seed-chosen parts (Renyi orders, check order) removed."""
    shape = [arg for i, arg in enumerate(request) if i == 0 or request[i - 1] != "--alpha"]
    return tuple(shape[:3]) + tuple(sorted(shape[3:])) if request[0] == "verify" else tuple(shape)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_depend_on_seed_only_in_order_and_orders(workload):
    assert workloads.requests(workload, 7) == workloads.requests(workload, 7)
    reference = sorted(map(_shape, workloads.requests(workload, 0)))
    for seed in range(1, 10):
        assert sorted(map(_shape, workloads.requests(workload, seed))) == reference


def test_output_checks_flag_a_wrong_row():
    request = ["entropy", "--n", "2", "--boundary", "open", "--block", "1..3", "--alpha", "2"]
    code, out, _ = child.run_request(cli, request)
    assert code == 0 and workloads.check(request, out) == []
    header, first, *rest = out.splitlines()
    fields = first.split(",")
    fields[4] = "0.25"  # lambda_singlet
    problems = workloads.check(request, "\n".join([header, ",".join(fields), *rest]))
    assert problems and "weights sum" in problems[0]
    assert workloads.check(request, "\n".join([header, first])) == ["1 rows, expected 3"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(tracing.Tracer().metrics()) + ["trace.overhead_s"]


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "tests", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "dense-gram", "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
