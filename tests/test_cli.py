import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from datetime import timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vbsent import cli, closed_form, oracle, states
from vbsent.cli import MAX_SPAN, main, parse_alpha, parse_span


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def test_parse_helpers():
    assert list(parse_span("4")) == [4]
    assert list(parse_span("1..3")) == [1, 2, 3]
    with pytest.raises(ValueError):
        parse_span("5..2")
    assert parse_alpha("2") == 2.0
    assert parse_alpha("1.5+0.5i") == complex(1.5, 0.5)
    assert parse_alpha("1.5-2i") == complex(1.5, -2.0)
    assert parse_alpha("1.5e+1-2e-03i") == complex(15.0, -0.002)
    with pytest.raises(ValueError):
        parse_alpha("i")


def test_spectrum_open(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--boundary", "open", "--block", "2")
    assert code == 0
    (row,) = read_csv(out)
    assert float(row["lambda_singlet"]) == pytest.approx(1 / 3, abs=1e-15)
    assert float(row["lambda_adjoint"]) == pytest.approx(2 / 9, abs=1e-15)
    assert row["N"] == "-1" and row["S"] == "" and row["alpha"] == ""


def test_spectrum_block_one(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--boundary", "open", "--block", "1")
    (row,) = read_csv(out)
    assert code == 0
    assert float(row["lambda_singlet"]) == 0.0
    assert float(row["lambda_adjoint"]) == pytest.approx(1 / 3, abs=1e-15)


def test_spectrum_periodic_verified(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--boundary", "periodic",
                           "--chain", "4", "--block", "2", "--verify")
    assert code == 0
    (row,) = read_csv(out)
    assert float(row["lambda_singlet"]) == pytest.approx(3 / 7, abs=1e-15)
    assert float(row["lambda_adjoint"]) == pytest.approx(4 / 21, abs=1e-15)
    assert row["verified"] == "true"
    assert float(row["max_dev"]) < 1e-10


def test_spectrum_periodic_requires_chain(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--n", "2", "--boundary", "periodic", "--block", "2")
    assert code == 2
    assert "chain" in err


def test_spectrum_open_rejects_chain(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--n", "2", "--boundary", "open",
                           "--block", "2", "--chain", "4")
    assert code == 2
    assert "chain" in err


def test_entropy_sweep_with_alpha(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--n", "2", "--boundary", "open",
                           "--block", "1..8", "--alpha", "2")
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 8
    assert float(rows[0]["S"]) == pytest.approx(math.log(3), abs=1e-14)
    assert float(rows[0]["S_alpha_re"]) == pytest.approx(math.log(3), abs=1e-14)
    assert float(rows[0]["S_alpha_im"]) == 0.0
    assert [row["L"] for row in rows] == [str(L) for L in range(1, 9)]


def test_entropy_saturation_row(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--n", "3", "--boundary", "open", "--block", "20")
    (row,) = read_csv(out)
    assert code == 0
    assert abs(float(row["S"]) - 2 * math.log(3)) < 1e-10


def test_entropy_periodic_verify(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--n", "2", "--boundary", "periodic",
                           "--chain", "8", "--block", "4", "--verify")
    (row,) = read_csv(out)
    assert code == 0
    assert row["verified"] == "true"
    assert float(row["max_dev"]) < 1e-10


def test_entropy_log_base_display(capsys):
    _, out_e, _ = run_cli(capsys, "entropy", "--n", "2", "--boundary", "open", "--block", "1")
    _, out_2, _ = run_cli(capsys, "entropy", "--n", "2", "--boundary", "open", "--block", "1",
                          "--log-base", "2")
    s_nats = float(read_csv(out_e)[0]["S"])
    s_bits = float(read_csv(out_2)[0]["S"])
    assert s_bits == pytest.approx(s_nats / math.log(2), abs=1e-14)


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_entropy_log_base_n_rejects_small_n(capsys, n):
    # 1 / log(n) gave "float division by zero" or "math domain error"
    code, out, err = run_cli(capsys, "entropy", "--n", n, "--boundary", "open", "--block", "1",
                             "--log-base", "n")
    assert code == 2
    assert out == ""
    assert "qudit dimension" in err


def test_entropy_branch_point_row_flagged(capsys):
    alpha = complex(math.log(3), math.pi) / math.log(1.5)
    literal = f"{alpha.real:.17g}{alpha.imag:+.17g}i"
    code, out, err = run_cli(capsys, "entropy", "--n", "2", "--boundary", "open",
                             "--block", "2", "--alpha", literal)
    assert code == 0
    (row,) = read_csv(out)
    assert row["alpha"] != "" and row["S_alpha_re"] == "" and row["S_alpha_im"] == ""
    assert "branch point" in err


def test_pure_block_prints_positive_zero(capsys):
    # a ring block of the whole ring printed S = -0, and -0 in S_alpha cells
    argv = ("entropy", "--n", "2", "--boundary", "periodic", "--chain", "4", "--block", "4",
            "--alpha", "2,0.5,3+1i,3-1i")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [row[cell] for row in read_csv(out) for cell in ("S", "S_alpha_re", "S_alpha_im")] == ["0"] * 12
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and "-0.0" not in out


def test_entropy_at_orders_whose_power_sum_underflows(capsys):
    # 700 raised "math domain error" (exit 2); 800+1i was reported as a branch point
    code, out, err = run_cli(capsys, "entropy", "--n", "2", "--boundary", "open",
                             "--block", "2", "--alpha", "700,800+1i")
    assert (code, err) == (0, "")
    real, complex_ = read_csv(out)
    assert float(real["S_alpha_re"]) == pytest.approx(700 * math.log(3) / 699, abs=1e-14)
    assert float(real["S_alpha_im"]) == 0.0
    # the principal log of the power sum, to 50 digits
    assert float(complex_["S_alpha_re"]) == pytest.approx(1.0999872706052682, abs=1e-14)
    assert float(complex_["S_alpha_im"]) == pytest.approx(-1.7208785195974081e-06, abs=1e-14)


def test_entropy_rejects_order_one(capsys):
    code, _, err = run_cli(capsys, "entropy", "--n", "2", "--boundary", "open",
                           "--block", "2", "--alpha", "1")
    assert code == 2
    assert "order" in err


def test_branch_points_even_block(capsys):
    code, out, _ = run_cli(capsys, "branch-points", "--n", "2", "--block", "2", "--m", "0..2")
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 6
    for row in rows:
        assert float(row["alpha_re"]) > 0
        assert float(row["residual"]) < 1e-8
        assert row["parity"] == "even"


def test_branch_points_odd_block(capsys):
    code, out, _ = run_cli(capsys, "branch-points", "--n", "2", "--block", "3", "--m", "0")
    rows = read_csv(out)
    assert code == 0
    assert all(float(row["alpha_re"]) < 0 for row in rows)
    assert all(row["parity"] == "odd" for row in rows)
    # an order needs a positive real part, so entropy refuses these orders
    for row in rows:
        alpha = cli.alpha_literal(complex(float(row["alpha_re"]), float(row["alpha_im"])))
        code, out, err = run_cli(capsys, "entropy", "--n", "2", "--boundary", "open",
                                 "--block", "3", f"--alpha={alpha}")
        assert (code, out) == (2, "")
        assert "positive real part" in err
    code, out, err = run_cli(capsys, "entropy", "--n", "2", "--boundary", "open",
                             "--block", "3", "--alpha=-0.5")
    assert (code, out) == (2, "")
    assert "order must be positive" in err


OPEN_N2 = ("--n", "2", "--boundary", "open")


@pytest.mark.parametrize("argv,code,message", [
    (("spectrum", *OPEN_N2, "--block", "99999999999999999999"), 0, ""),
    (("spectrum", *OPEN_N2, "--block", "10000", "--verify"), 3,
     "error: state would need 3^10000*4 amplitudes, budget is 67108864"),
    (("spectrum", *OPEN_N2, "--block", "1000000000", "--verify"), 3, "3^1000000000*4 amplitudes"),
    (("entropy", "--n", "2", "--boundary", "periodic", "--chain", str(10 ** 18), "--block", "1..3",
      "--verify"), 3, "3^1000000000000000000 amplitudes"),
    (("entropy", *OPEN_N2, "--block", "20", "--verify", "--alpha=-0.5"), 2, "order must be positive"),
    (("branch-points", "--n", "2", "--block", "100000000"), 2,
     "weights differ by 0.000e+00 at L=100000000; branch points diverge"),
])
def test_huge_blocks_answer_or_fail_at_once(capsys, argv, code, message):
    start = time.perf_counter()
    got, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert got == code and message in err
    if code == 0:
        assert read_csv(out)[0]["lambda_singlet"] == read_csv(out)[0]["lambda_adjoint"] == "0.25"


def test_orders_are_checked_before_any_state(capsys, monkeypatch):
    monkeypatch.setattr(states, "open_vbs_state", lambda spec: pytest.fail("a state was built"))
    code, out, err = run_cli(capsys, "entropy", *OPEN_N2, "--block", "15", "--verify", "--alpha", "2,-0.5")
    assert (code, out) == (2, "")
    assert "order must be positive, got -0.5" in err


def test_branch_points_block_one_rejected(capsys):
    code, _, err = run_cli(capsys, "branch-points", "--n", "2", "--block", "1")
    assert code == 2
    assert "weight" in err or "undefined" in err


def test_csv_and_json_rows_agree(capsys):
    args = ("entropy", "--n", "2", "--boundary", "open", "--block", "1..3", "--alpha", "2,3")
    _, out_csv, _ = run_cli(capsys, *args)
    _, out_json, _ = run_cli(capsys, *args, "--format", "json")
    csv_rows = read_csv(out_csv)
    json_rows = json.loads(out_json)
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        assert int(c["n"]) == j["n"] and int(c["L"]) == j["L"]
        assert float(c["S"]) == j["S"]
        assert c["alpha"] == (j["alpha"] or "")
        assert float(c["S_alpha_re"]) == j["S_alpha_re"]


def test_json_round_trip_lossless(capsys):
    args = ("entropy", "--n", "2", "--boundary", "periodic", "--chain", "5",
            "--block", "1..4", "--alpha", "2", "--verify", "--format", "json")
    _, out, _ = run_cli(capsys, *args)
    objs = json.loads(out)
    assert [obj["L"] for obj in objs] == [1, 2, 3, 4]
    for obj in objs:
        spec = closed_form.periodic_spectrum(2, 5, obj["L"])
        assert (obj["lambda_singlet"], obj["lambda_adjoint"]) == spec.floats()
        assert obj["S"] == spec.entropy()
        assert (obj["S_alpha_re"], obj["S_alpha_im"]) == (spec.renyi(2.0), 0.0)
        assert obj["alpha"] == "2" and obj["verified"] is True


# Written by the earlier implementation, which kept the weights as Fractions;
# the integer-ratio weights must reproduce them byte for byte.  The ring file's
# last row, the pure block L = N, has since printed 0 where it printed -0.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,argv", [
    ("entropy_open_n2.csv", ("entropy", "--n", "2", "--boundary", "open", "--block", "1..60",
                             "--alpha", "2,0.25,1.5-0.5i")),
    ("entropy_ring_n3_N40.csv", ("entropy", "--n", "3", "--boundary", "periodic", "--chain", "40",
                                 "--block", "1..40", "--alpha", "3", "--log-base", "n")),
    ("entropy_open_n2.json", ("entropy", "--n", "2", "--boundary", "open", "--block", "1..60",
                              "--alpha", "0.5+1i", "--log-base", "2", "--format", "json")),
])
def test_sweep_matches_golden(capsys, name, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_byte_identical_reruns(capsys):
    args = ("spectrum", "--n", "3", "--boundary", "open", "--block", "1..6")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--boundary", "open",
                           "--block", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert "lambda_singlet" in target.read_text()


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "verify.json"
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--only", "swap-identity",
                           "--out", str(target))
    assert code == 0 and out.startswith("swap-identity: PASS")
    assert json.loads(target.read_text())["all_passed"] is True


@pytest.mark.parametrize("argv", [
    ("spectrum", "--n", "2", "--boundary", "open", "--block", "2"),
    ("verify", "--n", "2", "--only", "swap-identity"),
])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert str(target) in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("spectrum", "--n", "2", "--boundary", "open", "--block", "1..100000000000"),
    ("branch-points", "--n", "2", "--block", "2", "--m", "0..100000000000"),
    ("branch-points", "--n", "2", "--block", "2..30", "--m", "0..999999"),  # 58,000,000 rows
])
def test_huge_span_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert str(MAX_SPAN) in err
    assert len(parse_span(f"5..{4 + MAX_SPAN}")) == MAX_SPAN
    with pytest.raises(ValueError, match="limit"):
        parse_span(f"5..{5 + MAX_SPAN}")


def test_refused_span_holds_no_list(capsys):
    # spans are ranges: the 58,000,000-row request peaked at 48 MB as lists
    argv = ("branch-points", "--n", "2", "--block", "2..30", "--m", "0..999999")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "") and f"58000000 rows, more than the limit {MAX_SPAN}" in err
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("argv,rows", [
    (("spectrum", *OPEN_N2, "--block", "1..4"), 4),
    (("entropy", *OPEN_N2, "--block", "1..4"), 4),
    (("entropy", *OPEN_N2, "--block", "1..3", "--alpha", "2,0.5+1i"), 6),
    (("branch-points", "--n", "2", "--block", "2..3", "--m", "0..1"), 8),
])
def test_rows_of_a_request_are_bounded(capsys, monkeypatch, tmp_path, argv, rows):
    monkeypatch.setattr(cli, "MAX_SPAN", rows)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(read_csv(out)) == rows
    monkeypatch.setattr(cli, "MAX_SPAN", rows - 1)
    target = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "") and not target.exists()
    assert f"{rows} " in err and f"limit {rows - 1}" in err  # the count and the limit


@pytest.mark.parametrize("L,code,rows", [(31, 0, 6), (32, 2, 0)])
def test_branch_points_refuse_from_the_first_degenerate_length(capsys, L, code, rows):
    # at n=2 the weights differ by 1.61e-15 at L=31 and by 5.27e-16 at L=32
    got, out, err = run_cli(capsys, "branch-points", "--n", "2", "--block", str(L))
    assert got == code and len(read_csv(out) if out else []) == rows
    assert ("branch points diverge" in err) == (code == 2)


def test_verify_single_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--only", "swap-identity")
    assert code == 0
    assert "swap-identity: PASS" in out


def test_verify_runs_a_repeated_check_or_n_once(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--n", "2", "--only", "swap-identity",
                           "--only", "swap-identity", "--format", "json")
    assert code == 0
    assert [(c["name"], c["evaluated"]) for c in json.loads(out)["checks"]] == [("swap-identity", 1)]
    # the order of first occurrence is kept: the output is that of the list without repeats
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--n", "2", "--n", "3",
                           "--only", "bell-invariance", "--only", "swap-identity",
                           "--only", "bell-invariance", "--format", "json")
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == ["bell-invariance", "swap-identity"]
    assert out == run_cli(capsys, "verify", "--n", "3", "--n", "2", "--only", "bell-invariance",
                          "--only", "swap-identity", "--format", "json")[1]


def test_verify_json_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--only", "transfer-matrix",
                           "--format", "json")
    assert code == 0
    summary = json.loads(out)
    assert summary["all_passed"] is True
    assert summary["checks"][0]["name"] == "transfer-matrix"
    assert summary["checks"][0]["max_dev"] < 1e-12
    assert summary["checks"][0]["evaluated"] > 0


def test_verify_skips_checks_without_grid_points(capsys):
    # only bell-invariance has n=5 points; the other checks evaluate nothing
    code, out, _ = run_cli(capsys, "verify", "--n", "5")
    assert code == 1
    lines = out.splitlines()
    assert [line.split()[1] for line in lines] == ["SKIP"] * 7 + ["PASS"] + ["SKIP"] * 3
    assert lines[7].startswith("bell-invariance: PASS")
    code, out, _ = run_cli(capsys, "verify", "--n", "5", "--format", "json")
    summary = json.loads(out)
    assert code == 1 and summary["all_passed"] is False
    for check in summary["checks"]:
        assert (check["evaluated"] > 0) == check["passed"] == (check["name"] == "bell-invariance")


def test_verify_single_check_without_points_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "7", "--only", "saturation")
    assert code == 1
    assert out.startswith("saturation: SKIP")
    code, out, _ = run_cli(capsys, "verify", "--n", "7", "--only", "saturation", "--format", "json")
    summary = json.loads(out)
    assert code == 1 and summary["all_passed"] is False
    assert summary["checks"] == [{"name": "saturation", "passed": False, "evaluated": 0,
                                  "max_dev": 0.0, "tolerance": 1e-12,
                                  "detail": "", "worst_at": None}]


@pytest.mark.parametrize("argv,bad", [
    (["verify", "--n", "1"], 1),
    (["verify", "--n", "-4"], -4),
    (["verify", "--n", "2", "--n", "0"], 0),
    (["verify", "--n", "1", "--only", "saturation", "--format", "json"], 1),
    (["spectrum", "--n", "1", "--boundary", "open", "--block", "2"], 1),
])
def test_dimension_below_two_is_a_usage_error(capsys, argv, bad):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"qudit dimension must be an integer >= 2, got {bad}" in err


def test_verify_at_an_n_outside_every_grid_skips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "7")
    assert code == 1
    assert [line.split()[1] for line in out.splitlines()] == ["SKIP"] * 11


def test_verify_budget_preflight(capsys):
    code, out, err = run_cli(capsys, "verify", "--budget-amps", "1000")
    assert code == 3
    assert out == ""  # no partial output
    assert "state would need" in err and "budget is 1000" in err


@pytest.mark.parametrize("only", [[], ["--only", "independence"]])
def test_verify_budget_names_the_first_state_over_it(capsys, only):
    # the shared open chains are built in the order the checks ask for them
    code, out, err = run_cli(capsys, "verify", "--budget-amps", "1000", *only)
    assert (code, out) == (3, "")
    assert "state would need 2916 amplitudes, budget is 1000" in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("VBSENT_AMP_BUDGET", "1000")
    code, out, _ = run_cli(capsys, "verify")
    assert code == 3 and out == ""


@pytest.mark.parametrize("argv,message", [
    (["spectrum", "--n", "2", "--boundary", "open", "--block", "2", "--verify", "--budget-amps", "0"],
     "amplitude budget must be an integer >= 1, got 0"),
    (["entropy", "--n", "2", "--boundary", "periodic", "--chain", "4", "--block", "1..4", "--verify",
      "--budget-amps", "-1"], "amplitude budget must be an integer >= 1, got -1"),
    (["verify", "--only", "saturation", "--budget-matrix", "0"], "matrix budget must be an integer >= 1, got 0"),
    (["verify", "--only", "saturation", "--budget-amps", "-1"], "amplitude budget must be an integer >= 1, got -1"),
])
def test_a_budget_below_one_is_a_usage_error(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("env", ["VBSENT_AMP_BUDGET", "VBSENT_MATRIX_BUDGET"])
def test_bad_budget_env_is_a_usage_error(capsys, monkeypatch, env):
    # each variable is read by a command that takes its option
    monkeypatch.setenv(env, "abc")
    if env == "VBSENT_AMP_BUDGET":
        argv, option = ["spectrum", "--n", "2", "--boundary", "open", "--block", "2"], "--budget-amps"
    else:
        argv, option = ["verify", "--n", "2", "--only", "swap-identity"], "--budget-matrix"
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert option in err and "'abc'" in err
    # an option on the command line still wins over the environment
    code, out, _ = run_cli(capsys, *argv, option, "100")
    assert code == 0 and out


@pytest.mark.parametrize("argv", [
    ["branch-points", "--n", "2", "--block", "2", "--budget-amps", "100"],
    ["branch-points", "--n", "2", "--block", "2", "--budget-matrix", "100"],
    ["spectrum", "--n", "2", "--boundary", "open", "--block", "2", "--budget-matrix", "100"],
    ["entropy", "--n", "2", "--boundary", "open", "--block", "2", "--budget-matrix", "100"],
])
def test_budget_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {argv[-2]}" in err


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "nan+1i", "inf+1i", "0.5+infi", "2-nani"])
def test_entropy_rejects_non_finite_order(capsys, alpha):
    code, out, err = run_cli(capsys, "entropy", "--n", "2", "--boundary", "open",
                             "--block", "2", f"--alpha={alpha}")
    assert (code, out) == (2, "")
    assert "order must be finite" in err and "branch point" not in err


@pytest.mark.parametrize("alpha", [",", "", ",,"])
def test_alpha_naming_no_order_is_a_usage_error(capsys, alpha):
    code, out, err = run_cli(capsys, "entropy", "--n", "2", "--boundary", "open",
                             "--block", "1", f"--alpha={alpha}")
    assert (code, out) == (2, "")
    assert "--alpha" in err and "names no order" in err


def test_alpha_trailing_comma_is_ignored(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--n", "2", "--boundary", "open", "--block", "1",
                           "--alpha", "2,")
    assert code == 0
    assert [row["alpha"] for row in read_csv(out)] == ["2"]


@pytest.mark.parametrize("command", ["spectrum", "entropy"])
@pytest.mark.parametrize("tol", ["nan", "-1e-10", "inf", "abc"])
def test_unusable_tolerance_rejected(capsys, command, tol):
    code, out, err = run_cli(capsys, command, "--n", "2", "--boundary", "open", "--block", "2",
                             "--verify", f"--tol={tol}")
    assert (code, out) == (2, "")
    assert "--tol" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "spectrum", "--n", "2", "--boundary", "moebius", "--block", "2")
    assert code == 2


def test_broken_invariant_exit_code(capsys, monkeypatch):
    # a wrong ring constant yields a state whose norm is off: the computation
    # is broken, not the request, so the exit code is not the usage code 2
    # a NaN constant yields a NaN norm, which must fail the check just the same
    exact = states.ring_norm_squared
    for factor in (1.01, math.nan):
        monkeypatch.setattr(states, "ring_norm_squared", lambda n, N: exact(n, N) * factor)
        code, out, err = run_cli(capsys, "spectrum", "--n", "2", "--boundary", "periodic",
                                 "--chain", "4", "--block", "2", "--verify")
        assert code == 4 and out == ""
        assert "invariant" in err and "norm" in err


def test_verify_open_chains_past_the_blas_norm_limit(capsys):
    # np.linalg.norm rejected the N=12 state, so the whole span used to fail
    code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--boundary", "open",
                           "--block", "11..12", "--verify")
    assert code == 0
    rows = read_csv(out)
    assert [row["L"] for row in rows] == ["11", "12"]
    assert all(row["verified"] == "true" and float(row["max_dev"]) < 1e-13 for row in rows)


def test_verify_deviation_does_not_grow_with_the_state(capsys):
    # one Gram product summed over the 4.8e6 rows of this block reached 4.0e-14;
    # short chunk sums keep it at a few ulp
    code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--boundary", "open",
                           "--block", "14", "--verify")
    assert code == 0
    (row,) = read_csv(out)
    assert row["verified"] == "true" and float(row["max_dev"]) < 1e-14


def test_ring_state_built_once_per_command(capsys, monkeypatch):
    built = []
    original = states.periodic_vbs_state
    monkeypatch.setattr(states, "periodic_vbs_state", lambda spec: built.append(spec) or original(spec))
    for command in ("spectrum", "entropy"):
        built.clear()
        code, out, _ = run_cli(capsys, command, "--n", "2", "--boundary", "periodic",
                               "--chain", "6", "--block", "1..5", "--verify")
        assert code == 0 and len(read_csv(out)) == 5
        assert built == [states.ChainSpec(2, 6, states.PERIODIC)]


@pytest.mark.parametrize("argv,per_block", [(["spectrum"], 1), (["entropy"], 1),
                                            (["entropy", "--alpha", "2,3"], 2),
                                            (["spectrum", "--format", "json"], 1),
                                            (["entropy", "--alpha", "2,3", "--format", "json"], 2),
                                            (["entropy", "--alpha", "2,3", "--out"], 2),
                                            (["spectrum", "--format", "json", "--out"], 1)])
def test_failed_verify_row_exits_1_after_every_row(capsys, monkeypatch, tmp_path, argv, per_block):
    # only the block of length 2 of the n=2 ring of 6 deviates; every row is
    # still written, in either format, to stdout or to --out
    original, target = cli.spectrum_deviation, closed_form.periodic_spectrum(2, 6, 2).nonzero()
    monkeypatch.setattr(cli, "spectrum_deviation",
                        lambda eigs, weights: 1.0 if weights == target else original(eigs, weights))
    out_file = tmp_path / "rows.out"
    extra = [str(out_file)] if argv[-1] == "--out" else []
    code, out, _ = run_cli(capsys, argv[0], "--n", "2", "--boundary", "periodic",
                           "--chain", "6", "--block", "1..3", "--verify", *argv[1:], *extra)
    if extra:
        assert out == ""
        out = out_file.read_text()
    if "json" in argv:
        rows = [(str(obj["L"]), obj["verified"] is False) for obj in json.loads(out)]
    else:
        rows = [(row["L"], row["verified"] == "false") for row in read_csv(out)]
    assert code == 1
    assert [L for L, _ in rows] == [L for L in "123" for _ in range(per_block)]
    assert all(failed == (L == "2") for L, failed in rows)


SRC = Path(__file__).resolve().parents[1] / "src"


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "vbsent", "spectrum", "--n", "2", "--boundary", "open", "--block", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "0.33333333333333331" in proc.stdout


# Runs each argv of the JSON list argv[1] through `cli.main` in a fresh
# interpreter, which has not imported numpy, and prints per request the exit
# code, stdout, stderr and whether numpy is loaded after it.
FRESH_SCRIPT = """
import contextlib, io, json, sys
import vbsent.cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = vbsent.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue(), "numpy._core" in sys.modules])
print(json.dumps(results))
"""


def run_fresh(requests):
    proc = subprocess.run([sys.executable, "-c", FRESH_SCRIPT, json.dumps(requests)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [tuple(result) for result in json.loads(proc.stdout)]


def test_closed_form_requests_never_load_numpy(tmp_path, capsys):
    # the third and fourth requests take the underflow branch of
    # `weyl._log_power_sum`: large real and complex orders, and an order on
    # the branch point of L=2
    requests = [
        ["entropy", *OPEN_N2, "--block", "1..30", "--alpha", "2,0.5+1i"],
        ["entropy", "--n", "3", "--boundary", "periodic", "--chain", "12", "--block", "1..11",
         "--alpha", "3,1.5-0.5i", "--log-base", "n", "--format", "json"],
        ["entropy", *OPEN_N2, "--block", "40", "--alpha", "600,800+1i"],
        ["entropy", *OPEN_N2, "--block", "1..3", "--alpha", "2.709511291351455+7.7481208389248684i"],
        ["branch-points", "--n", "3", "--block", "2..7", "--m", "0..2"],
        ["spectrum", "--n", "3", "--boundary", "open", "--block", "1..8"],
        ["spectrum", *OPEN_N2, "--block", "0"],
        ["spectrum", "--n", "2", "--boundary", "ring", "--block", "2"],
    ]
    target = tmp_path / "rows.json"
    fresh = run_fresh(requests + [requests[1] + ["--out", str(target)]])
    assert [loaded for *_, loaded in fresh] == [False] * len(fresh)
    # the bytes are those of a process that imported numpy first
    assert [result[:3] for result in fresh[:-1]] == [run_cli(capsys, *argv) for argv in requests]
    assert [code for code, *_ in fresh] == [0] * 6 + [2, 2, 0]
    assert fresh[-1][1:3] == ("", "") and target.read_text() == fresh[1][1]


def test_verify_loads_numpy_on_first_use():
    (code, out, err, loaded), = run_fresh([["spectrum", "--n", "3", "--boundary", "open",
                                            "--block", "5..6", "--verify"]])
    golden = Path(__file__).parent / "golden" / "spectrum_open_n3_verify.csv"
    assert (code, out, err, loaded) == (0, golden.read_text(), "", True)


def test_verify_rows_take_the_exact_route(capsys, monkeypatch):
    # a ring of 11 has 3^11 amplitudes, over cli.CROSS_CHECK_AMPS: only the
    # exact route runs, so max_dev is exactly 0 and no matrix budget applies
    exact, routes = oracle.exact_block_spectrum, []
    monkeypatch.setattr(oracle, "exact_block_spectrum",
                        lambda state, block: routes.append(("exact", len(block))) or exact(state, block))
    monkeypatch.setattr(oracle, "block_spectrum",
                        lambda state, block: routes.append(("float", len(block))))
    for command in ("spectrum", "entropy"):
        routes.clear()
        code, out, _ = run_cli(capsys, command, "--n", "2", "--boundary", "periodic",
                               "--chain", "11", "--block", "1..10", "--verify")
        assert code == 0
        assert [(row["verified"], row["max_dev"]) for row in read_csv(out)] == [("true", "0")] * 10
        assert routes == [("exact", L) for L in range(1, 11)]


def test_small_verify_rows_also_take_the_float_route(capsys, monkeypatch):
    original, routes = oracle.block_spectrum, []
    monkeypatch.setattr(oracle, "block_spectrum",
                        lambda state, block: routes.append(len(block)) or original(state, block))
    assert states.ChainSpec(2, 6, states.PERIODIC).amplitudes <= cli.CROSS_CHECK_AMPS
    code, out, _ = run_cli(capsys, "entropy", "--n", "2", "--boundary", "periodic",
                           "--chain", "6", "--block", "1..5", "--verify")
    assert code == 0 and routes == [1, 2, 3, 4, 5]
    assert all(row["verified"] == "true" and float(row["max_dev"]) < 1e-15
               for row in read_csv(out))


def cross_checked_blocks():
    # every --verify block whose state the CLI also sends down the float
    # route: open --block L and ring --chain N --block L (L = 1..N), n = 2-16
    for n in range(2, 17):
        for L in itertools.takewhile(
                lambda L: states.ChainSpec(n, L, states.OPEN).amplitudes <= cli.CROSS_CHECK_AMPS,
                itertools.count(1)):
            yield states.open_vbs_state(states.ChainSpec(n, L, states.OPEN)), L
        for N in itertools.takewhile(
                lambda N: states.ChainSpec(n, N, states.PERIODIC).amplitudes <= cli.CROSS_CHECK_AMPS,
                itertools.count(2)):
            ring = states.periodic_vbs_state(states.ChainSpec(n, N, states.PERIODIC))
            yield from ((ring, L) for L in range(1, N + 1))


def test_float_cross_check_agrees_on_every_block_it_runs_on():
    # as many eigenvalues on both routes, within 1e-14 (the worst, 5.1e-15, is
    # the whole n=2 ring of 10)
    count = 0
    for state, L in cross_checked_blocks():
        exact = oracle.exact_block_spectrum(state, range(L))
        found = oracle.block_spectrum(state, range(L))
        assert len(found) == len(exact), (state.n, state.dims, L)
        assert np.abs(found - np.array(exact, dtype=float)).max() <= 1e-14, (state.n, state.dims, L)
        count += 1
    assert count == 136


def test_spectrum_and_entropy_share_their_block_options():
    def options(command):
        (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        return {a.option_strings[-1]: (type(a), a.type, a.choices, a.default, a.required, a.help)
                for a in sub.choices[command]._actions if a.option_strings}

    spectrum, entropy = options("spectrum"), options("entropy")
    assert set(entropy) - set(spectrum) == {"--alpha", "--log-base"}
    for name in spectrum:  # type, choices, default, required flag and help
        assert entropy.get(name) == spectrum[name], name


def test_verify_ring_past_the_matrix_budget(capsys):
    # both sides of the block are 6561, over the 4096 matrix budget, which the
    # exact route does not need
    code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--boundary", "periodic",
                           "--chain", "16", "--block", "8", "--verify")
    assert code == 0
    (row,) = read_csv(out)
    assert (row["verified"], row["max_dev"]) == ("true", "0")


def tampered(psi, *edits):
    """psi with each (position, code) edit applied, renormalized."""
    codes = psi.codes.copy()
    for position, code in edits:
        codes[position] = code
    return states.PureState(psi.n, psi.dims, codes, 1 / math.sqrt(np.count_nonzero(codes)))


@pytest.mark.parametrize("tamper", ["phase", "zero", "move"])
def test_uncertified_sector_exits_4(capsys, monkeypatch, tamper):
    if tamper == "move":  # an open chain's one-row sectors: only the count sees it
        psi = states.open_vbs_state(states.ChainSpec(2, 3, states.OPEN))
        label = int(np.flatnonzero(psi.codes[20:24])[0])
        bad = tampered(psi, (20 + (label + 1) % 4, psi.codes[20 + label]), (20 + label, 0))
        c = int(states.charges(2, psi.dims, [3])[(label + 1) % 4])
        sector, certificate = (c // 2, c % 2), "count"
        monkeypatch.setattr(states, "open_vbs_state", lambda spec: bad)
        argv = ["--n", "2", "--boundary", "open", "--block", "3"]
    else:
        psi = states.periodic_vbs_state(states.ChainSpec(3, 4, states.PERIODIC))
        position = int(np.flatnonzero(psi.codes)[100])
        code = psi.codes[position] % 3 + 1 if tamper == "phase" else 0
        bad = tampered(psi, (position, code))
        c = int(states.charges(3, psi.dims, range(2))[position // 64])  # the block's row
        sector, certificate = (c // 3, c % 3), {"phase": "phase", "zero": "rectangle"}[tamper]
        monkeypatch.setattr(states, "periodic_vbs_state", lambda spec: bad)
        argv = ["--n", "3", "--boundary", "periodic", "--chain", "4", "--block", "2"]
    for command in ("spectrum", "entropy"):
        code, out, err = run_cli(capsys, command, *argv, "--verify")
        assert (code, out) == (4, "")
        assert f"sector {sector}" in err and f"({certificate} certificate)" in err


# ---------------------------------------------------------- argv property test

BIG = 10 ** 18
# Renyi orders: huge, tiny, complex and on a branch point; then literals refused as orders
# (order 1, negative real part, not finite, or naming no order)
GOOD_ORDERS = ["2", "0.5", "0.5+1i", "3-2i", "700", "800+1i", "1e300", "1e-300", "5e-324+1i",
               "2.709511291351455+7.7481208389248684i"]
BAD_ORDERS = ["1", "1+0i", "0", "-0.5", "-1+2i", "nan", "inf", "1e400", "2,", ",", "", "i", "1.5+", "abc"]
# mostly valid lengths: short ones, ones about the n=2 cut (758) and ones up to 10**18
LENGTHS = st.one_of(st.integers(1, 12), st.integers(1, 40), st.integers(-1, BIG), st.integers(740, 1530))


def weighted(*choices):
    """One of (weight, value) pairs, by weight."""
    return st.sampled_from([value for weight, value in choices for _ in range(weight)])


@st.composite
def cli_requests(draw, out_file, out_dir):
    """An argv of spectrum, entropy or branch-points over n, N and L up to
    10**18, spans, orders, --log-base, --format and --out, mostly valid;
    --verify only at n <= 3 with --budget-amps at most 2**16."""
    command = draw(st.sampled_from(["spectrum", "entropy", "branch-points"]))
    n = draw(draw(weighted((3, st.integers(2, 3)), (2, st.integers(4, 6)), (2, st.integers(2, BIG)),
                           (1, st.integers(-1, 1)))))
    verify = command != "branch-points" and n <= 3 and draw(st.booleans())  # small states only
    lo = draw(st.integers(2, 40) if command == "branch-points" else st.integers(1, 6) if verify else LENGTHS)
    width = draw(weighted((2, 0), (4, 2), (2, 4), (1, -1)))
    argv = [command, "--n", str(n), "--block", str(lo) if width == 0 else f"{lo}..{lo + width}"]
    if command == "branch-points":
        m = draw(st.integers(0, 3))
        argv += draw(weighted((2, []), (2, ["--m", str(m)]), (2, ["--m", f"{m}..{m + 2}"]), (1, ["--m", "2..1"]),
                              (1, ["--m", "-1"])))
    else:
        boundary = draw(st.sampled_from([states.OPEN, states.PERIODIC]))
        argv += ["--boundary", boundary]
        if boundary == states.PERIODIC:
            near = st.integers(lo + width, lo + width + (2 if verify else 6))
            chain = draw(draw(weighted((3, near), (1, st.integers(-1, 6 if verify else BIG)))))
            argv += draw(weighted((9, ["--chain", str(chain)]), (1, [])))
        else:
            argv += draw(weighted((9, []), (1, ["--chain", str(lo)])))
        if verify:
            argv += ["--verify", "--budget-amps", str(draw(weighted((6, 1 << 16), (1, -1), (1, 1 << 10))))]
            argv += draw(weighted((6, []), (6, ["--tol", "0"]), (2, ["--tol", "1e-10"]), (1, ["--tol", "nan"]),
                                  (1, ["--tol", "-1"]), (1, ["--tol", "inf"])))
    if command == "entropy":
        orders = weighted((4, []), (4, [draw(st.sampled_from(GOOD_ORDERS))]),
                          (3, draw(st.lists(st.sampled_from(GOOD_ORDERS), min_size=2, max_size=3))),
                          (1, [draw(st.sampled_from(BAD_ORDERS))]))
        argv += [f"--alpha={literal}" for literal in draw(orders)]
        argv += ["--log-base", draw(st.sampled_from(["e", "2", "n"]))]
    argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    out = draw(weighted((3, None), (2, out_file), (1, out_dir)))
    return argv + ([] if out is None else ["--out", str(out)])


def _rows(text, as_json):
    """The rows of CSV or JSON output, with CSV's empty cells as None and its booleans as bools."""
    if as_json:
        return json.loads(text)
    cells = {"": None, "true": True, "false": False}
    return [{key: cells.get(cell, cell) for key, cell in row.items()} for row in read_csv(text)]


@settings(derandomize=True, max_examples=300, deadline=timedelta(seconds=2),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_request_answers_or_fails_as_documented(tmp_path, data):
    target = tmp_path / "rows.out"
    argv = data.draw(cli_requests(target, tmp_path))
    target.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code in (2, 3):
        assert out == "" and not target.exists() and "error: " in err and "Traceback" not in err, argv
        return
    text = target.read_text() if "--out" in argv else out
    rows = _rows(text, "json" in argv)
    if code == 1:  # a failed --verify row, printed with every other row
        assert "--verify" in argv and any(row["verified"] is False for row in rows), argv
    n = int(argv[argv.index("--n") + 1])
    base = {"e": 1.0, "2": math.log(2.0), "n": math.log(n)}[argv[argv.index("--log-base") + 1]
                                                            if "--log-base" in argv else "e"]
    for row in rows:
        if argv[0] == "branch-points":
            assert float(row["residual"]) < closed_form.BRANCH_RESIDUAL_TOL, (argv, row)
            even = int(row["L"]) % 2 == 0
            assert (float(row["alpha_re"]) > 0) == (row["parity"] == "even") == even, (argv, row)
            continue
        total = float(row["lambda_singlet"]) + (n * n - 1) * float(row["lambda_adjoint"])
        assert abs(total - 1.0) <= 1e-12, (argv, row)
        if row["S"] is not None:
            assert -1e-12 <= float(row["S"]) * base <= 2.0 * math.log(n) + 1e-12, (argv, row)


CHECK_NAMES = list(cli.CHECKS)
AMP_BUDGETS = [-1, 0, 12, 100, 1000, 3000, 10 ** 4, 10 ** 5, states.DEFAULT_AMP_BUDGET]
MATRIX_BUDGETS = [-1, 1, 4, 10, 27, 100, 300, oracle.DEFAULT_MATRIX_BUDGET]


@st.composite
def verify_requests(draw, out_file, out_dir):
    """A verify argv and its budget environment: --n from 1 to 7 with repeats,
    --only subsets that may name one unknown check, --format, --out, budget
    options up to their defaults, and VBSENT_AMP_BUDGET / VBSENT_MATRIX_BUDGET
    unset (None), small, empty or not a number."""
    argv = ["verify"]
    for n in draw(st.lists(weighted((1, 1), (4, 2), (4, 3), (2, 4), (1, 5), (1, 6), (1, 7)), max_size=3)):
        argv += ["--n", str(n)]
    names = draw(st.lists(st.sampled_from(CHECK_NAMES), max_size=3))
    names += draw(weighted((6, []), (1, ["no-such-check"])))
    for name in draw(st.permutations(names)):
        argv += ["--only", name]
    for option, budgets in (("--budget-amps", AMP_BUDGETS), ("--budget-matrix", MATRIX_BUDGETS)):
        argv += draw(weighted((2, []), (1, [option, str(draw(st.sampled_from(budgets)))])))
    argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    out = draw(weighted((3, None), (2, out_file), (1, out_dir)))
    env = {key: draw(weighted((6, None), (3, str(draw(st.sampled_from(budgets)))), (1, ""), (1, "abc")))
           for key, budgets in ((cli.AMP_BUDGET_ENV, AMP_BUDGETS), (cli.MATRIX_BUDGET_ENV, MATRIX_BUDGETS))}
    return argv + ([] if out is None else ["--out", str(out)]), env


@settings(derandomize=True, max_examples=100, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_verify_request_answers_or_fails_as_documented(tmp_path, data):
    target = tmp_path / "report.json"
    argv, env = data.draw(verify_requests(target, tmp_path))
    target.unlink(missing_ok=True)
    environ = {key: value for key, value in os.environ.items() if key not in env}
    environ.update((key, value) for key, value in env.items() if value is not None)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, environ, clear=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, env, code, err)
    if code in (2, 3):
        causes = ["budget"] if code == 3 else ["no-such-check", "qudit dimension", "invalid int value",
                                               "cannot write --out", "budget must be an integer >= 1"]
        assert out == "" and not target.exists() and "error: " in err and "Traceback" not in err, argv
        assert any(cause in err for cause in causes), (argv, env, err)
        return
    assert err == "", (argv, env, err)
    only = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--only"]
    names = list(dict.fromkeys(only)) if only else CHECK_NAMES
    if "--out" not in argv and "json" not in argv:
        assert [line.split(":")[0] for line in out.splitlines()] == names, argv
        return
    report = json.loads(target.read_text() if "--out" in argv else out)
    assert report["all_passed"] == (code == 0), (argv, report)
    assert [check["name"] for check in report["checks"]] == names, argv
    for check in report["checks"]:
        assert check["evaluated"] > 0 or (check["worst_at"] is None and not check["passed"]), (argv, check)
