"""Request lists of the four benchmark workloads and the checks on their output.

Every request is an argv list for `vbsent.cli.main`.  The seed only permutes
the order of the requests (and, for verify-grid, the order of the checks) and
picks the Renyi orders from fixed pools; the sizes never depend on it, so
every seed does the same amount of work.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from typing import Dict, List

WORKLOADS = ("closed-form-sweep", "verify-grid", "dense-states", "dense-gram")

# Each pool holds orders of one kind, so a seed changes values but not cost.
REAL_HIGH_ORDERS = ("2", "3", "5")
REAL_LOW_ORDERS = ("0.25", "0.5", "0.75")
COMPLEX_ORDERS = ("0.5+1i", "1.5-0.5i", "2+0.25i")

# The registry of `vbsent verify`, in the order the CLI runs it by default.
VERIFY_CHECKS = ("open-spectrum", "periodic-spectrum", "saturation", "renyi-flatness",
                 "branch-points", "edge-states", "swap-identity", "bell-invariance",
                 "transfer-matrix", "independence", "limit-consistency")

# One verify pass takes about 0.15 s; repeating it keeps a pass well above
# timer and start-up noise.
VERIFY_REPEATS = 8

# Identity checks on emitted floats; the weights are exact rationals rounded
# once, so the slack only covers that rounding.
SUM_TOL = 1e-12
ENTROPY_TOL = 1e-12
BRANCH_RESIDUAL_TOL = 1e-8


def _closed_form_sweep(rng: random.Random) -> List[List[str]]:
    orders = [rng.choice(REAL_HIGH_ORDERS), rng.choice(REAL_LOW_ORDERS), rng.choice(COMPLEX_ORDERS)]
    return [
        ["entropy", "--n", "2", "--boundary", "open", "--block", "1..4000",
         "--alpha", ",".join(orders)],
        ["entropy", "--n", "3", "--boundary", "periodic", "--chain", "2000", "--block", "1..2000",
         "--alpha", rng.choice(REAL_HIGH_ORDERS)],
        # L=31 at n=2 is rejected by design (the two weights are degenerate)
        ["branch-points", "--n", "2", "--block", "2..30"],
    ]


def _verify_grid(rng: random.Random) -> List[List[str]]:
    requests = []
    for _ in range(VERIFY_REPEATS):
        order = list(VERIFY_CHECKS)
        rng.shuffle(order)
        argv = ["verify", "--format", "json"]
        for name in order:
            argv += ["--only", name]
        requests.append(argv)
    return requests


def _spectrum(n: int, boundary: str, block: str, chain: int = 0) -> List[str]:
    argv = ["spectrum", "--n", str(n), "--boundary", boundary, "--block", block, "--verify"]
    return argv + ["--chain", str(chain)] if chain else argv


def _dense_states(rng: random.Random) -> List[List[str]]:
    # States near the 2**26-amplitude budget with every Gram side <= 729, so
    # the state build dominates.  n=2 open L>=12 and the n=4 ring fail the
    # current norm check; they stay in the list and count as failures.
    return ([_spectrum(2, "open", str(L)) for L in range(8, 16)]
            + [_spectrum(4, "open", str(L)) for L in range(1, 6)]
            + [_spectrum(2, "periodic", "1..12", chain=13),
               _spectrum(4, "periodic", "1..5", chain=6)])


def _dense_gram(rng: random.Random) -> List[List[str]]:
    # The largest Gram product and Jacobi matrix the CLI admits (dim 4096),
    # plus dim-729 ones; the state build is a few percent of the time.
    return [_spectrum(3, "periodic", "4", chain=8),
            _spectrum(2, "periodic", "6..7", chain=13)]


_REQUEST_LISTS = {
    "closed-form-sweep": _closed_form_sweep,
    "verify-grid": _verify_grid,
    "dense-states": _dense_states,
    "dense-gram": _dense_gram,
}


def requests(workload: str, seed: int) -> List[List[str]]:
    """The workload's request list for `seed`, in seed-dependent order."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = _REQUEST_LISTS[workload](rng)
    rng.shuffle(reqs)
    return reqs


def _option(argv: List[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _span_length(text: str) -> int:
    lo, _, hi = text.partition("..")
    return int(hi or lo) - int(lo) + 1


def _check_rows(argv: List[str], rows: List[Dict[str, str]]) -> List[str]:
    n = int(_option(argv, "--n"))
    alphas = _option(argv, "--alpha").split(",") if "--alpha" in argv else [""]
    want = _span_length(_option(argv, "--block")) * len(alphas)
    problems = [] if len(rows) == want else [f"{len(rows)} rows, expected {want}"]
    ceiling = 2.0 * math.log(n)
    for row in rows:
        where = f"L={row['L']} alpha={row['alpha']}"
        singlet, adjoint = float(row["lambda_singlet"]), float(row["lambda_adjoint"])
        total = singlet + (n * n - 1) * adjoint
        if abs(total - 1.0) > SUM_TOL:
            problems.append(f"{where}: weights sum to {total!r}")
        if row["S"] and not -ENTROPY_TOL <= float(row["S"]) <= ceiling + ENTROPY_TOL:
            problems.append(f"{where}: S={row['S']} outside [0, 2 log n]")
        if row["alpha"] and not row["S_alpha_re"]:
            problems.append(f"{where}: no Renyi entropy")
        if "--verify" in argv and row["verified"] != "true":
            problems.append(f"{where}: verified={row['verified']} max_dev={row['max_dev']}")
    return problems


def _check_branch_points(argv: List[str], rows: List[Dict[str, str]]) -> List[str]:
    # default --m 0..2 gives three branch integers, each with both signs
    want = _span_length(_option(argv, "--block")) * 6
    problems = [] if len(rows) == want else [f"{len(rows)} rows, expected {want}"]
    for row in rows:
        if not float(row["residual"]) < BRANCH_RESIDUAL_TOL:
            problems.append(f"L={row['L']} m={row['m']}: residual {row['residual']}")
        if (float(row["alpha_re"]) > 0) != (row["parity"] == "even"):
            problems.append(f"L={row['L']} m={row['m']}: sign rule broken")
    return problems


def _check_verify(stdout: str) -> List[str]:
    summary = json.loads(stdout)
    names = sorted(c["name"] for c in summary["checks"])
    problems = [] if names == sorted(VERIFY_CHECKS) else [f"ran checks {names}"]
    if summary["all_passed"] is not True:
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        problems.append(f"all_passed is false: {failed}")
    return problems


def check_failure(argv: List[str], code) -> List[str]:
    """Violations implied by a request's non-zero exit code.

    Codes 2 and 3 are the CLI's documented refusals (usage or configuration,
    resource budget): they count as failed requests, not as wrong output.
    Code 1 is a failed verification or a crash, and `verify` must pass.
    """
    if code in (2, 3) and argv[0] != "verify":
        return []
    return [f"exit code {code}"]


def check(argv: List[str], stdout: str) -> List[str]:
    """Violations in the output of a request that exited with code 0."""
    if argv[0] == "verify":
        return _check_verify(stdout)
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if argv[0] == "branch-points":
        return _check_branch_points(argv, rows)
    return _check_rows(argv, rows)
