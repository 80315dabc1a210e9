"""The CLI's output, byte for byte: a golden corpus of every row schema,
format and column kind, the verify reports, the digests of the long
benchmark sweeps, the emitter's reuse of cell texts, and CSV, JSON and
--out encoding the same rows."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vbsent.cli import _CELL_TEXT, CSV_HEADER, _emit, alpha_literal, main

GOLDEN = Path(__file__).parent / "golden"

# An order on the n=2 open chain's branch point at L=2: its S_alpha cells are empty.
BRANCH_ORDER = "2.709511291351455+7.7481208389248684i"
BRANCH_NOTE = f"note: order {BRANCH_ORDER} is a branch point at L=2\n"


def run(argv):
    """(exit code, stdout, stderr) of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _both(name, *argv, err=""):
    """The CSV and the JSON entry of one request: (file name, argv, stderr)."""
    return [(f"{name}.csv", argv, err), (f"{name}.json", argv + ("--format", "json"), err)]


OPEN, RING = ("--boundary", "open"), ("--boundary", "periodic")

# An order on the branch point of the n=2 ring of 5 at L=2 and at its mirror
# L=3, the next row, which reuses the weights and Renyi values of L=2.
RING_BRANCH_ORDER = "4.3714652444870339+12.5006458048572i"
RING_BRANCH_NOTES = "".join(f"note: order {RING_BRANCH_ORDER} is a branch point at L={L}\n" for L in (2, 3))

# The --verify requests build states over cli.CROSS_CHECK_AMPS amplitudes, so
# only the exact route runs and max_dev does not depend on the BLAS library.
CORPUS = [
    *_both("spectrum_open_n3", "spectrum", "--n", "3", *OPEN, "--block", "1..8"),
    *_both("spectrum_open_n3_verify", "spectrum", "--n", "3", *OPEN, "--block", "5..6", "--verify"),
    *_both("spectrum_ring_n2_N12", "spectrum", "--n", "2", *RING, "--chain", "12", "--block", "1..12"),
    *_both("spectrum_ring_n2_N11_verify", "spectrum", "--n", "2", *RING, "--chain", "11",
           "--block", "1..10", "--verify"),
    *_both("entropy_open_n4", "entropy", "--n", "4", *OPEN, "--block", "1..30"),
    *_both("entropy_ring_n3_N12_orders", "entropy", "--n", "3", *RING, "--chain", "12",
           "--block", "1..11", "--alpha", "2,0.5,1.5-0.5i", "--alpha", "0.5+1i"),
    *_both("entropy_open_n2_branch_point", "entropy", "--n", "2", *OPEN, "--block", "1..3",
           "--alpha", BRANCH_ORDER, err=BRANCH_NOTE),
    *_both("entropy_ring_n2_N5_branch_point", "entropy", "--n", "2", *RING, "--chain", "5",
           "--block", "1..4", "--alpha", RING_BRANCH_ORDER, err=RING_BRANCH_NOTES),
    *_both("entropy_ring_n2_N9_log2", "entropy", "--n", "2", *RING, "--chain", "9",
           "--block", "1..8", "--alpha", "3,0.25+2i", "--log-base", "2"),
    *_both("entropy_open_n4_logn", "entropy", "--n", "4", *OPEN, "--block", "1..12",
           "--alpha", "0.5,2+0.5i", "--log-base", "n"),
    *_both("entropy_ring_n2_N11_verify", "entropy", "--n", "2", *RING, "--chain", "11",
           "--block", "1..10", "--alpha", "2", "--verify"),
    *_both("branch_points_n3", "branch-points", "--n", "3", "--block", "2..7", "--m", "0..2"),
]


@pytest.mark.parametrize("name,argv,err", CORPUS, ids=[name for name, _, _ in CORPUS])
def test_output_matches_golden(name, argv, err):
    assert run(argv) == (0, (GOLDEN / name).read_text(), err)


def _dense(name, n, boundary, block, chain=None, float_route=False):
    argv = ("spectrum", "--n", str(n), "--boundary", boundary, "--block", block, "--verify")
    return name, argv + (("--chain", str(chain)) if chain else ()), float_route


# spectrum --verify on the largest states the CLI builds (the dense-states and
# dense-gram benchmark requests).  Over cli.CROSS_CHECK_AMPS only the exact
# route runs and the rows are pinned byte for byte.  Four states are at most
# that size, so the float route runs too and max_dev comes from the BLAS
# library: there every other cell is pinned and max_dev is bounded by --tol.
DENSE = [
    *[_dense(f"dense_open_n2_L{L}", 2, "open", str(L), float_route=L == 8) for L in range(8, 16)],
    *[_dense(f"dense_open_n4_L{L}", 4, "open", str(L), float_route=L <= 3) for L in range(1, 6)],
    _dense("dense_ring_n2_N13", 2, "periodic", "1..12", chain=13),
    _dense("dense_ring_n4_N6", 4, "periodic", "1..5", chain=6),
    _dense("dense_ring_n3_N8_L4", 3, "periodic", "4", chain=8),
    _dense("dense_ring_n2_N13_L6-7", 2, "periodic", "6..7", chain=13),
]


@pytest.mark.parametrize("name,argv,float_route", DENSE, ids=[name for name, _, _ in DENSE])
def test_dense_verify_rows_match_golden(name, argv, float_route):
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    want = (GOLDEN / f"{name}.csv").read_text()
    if not float_route:
        assert out == want
        return
    got, want = ([line.rsplit(",", 1) for line in text.splitlines()] for text in (out, want))
    assert [cells for cells, _ in got] == [cells for cells, _ in want]
    assert all(float(max_dev) <= 1e-10 for _, max_dev in got[1:])


# verify --format json at every n, at n=4 and at n=5 (which skips most
# checks).  max_dev comes from the float route, so from the BLAS library: it
# is bounded by its tolerance and every other byte is pinned.
VERIFY = [("verify.json", (), 0), ("verify_n4.json", ("--n", "4"), 1), ("verify_n5.json", ("--n", "5"), 1)]


def _masked(report):
    return re.sub(r'"max_dev": [^,\n]+', '"max_dev": _', report)


@pytest.mark.parametrize("name,argv,exit_code", VERIFY, ids=[name for name, _, _ in VERIFY])
def test_verify_report_matches_golden(name, argv, exit_code):
    code, out, err = run(("verify", *argv, "--format", "json"))
    assert (code, err) == (exit_code, "")
    assert _masked(out) == _masked((GOLDEN / name).read_text())
    assert all(0.0 <= check["max_dev"] < check["tolerance"] for check in json.loads(out)["checks"])


# The closed-form-sweep benchmark requests at seed 1 (about 1.2 MB of text)
# and their JSON twins (about 4 MB), a three-order sweep across the n=2 float
# cut (L=758) with a branch-point order at L=2, and a ring spectrum --verify
# span on the exact route: the sha256 of each one's stdout, and its stderr.
CUT_ORDERS = ("--alpha", f"2,{BRANCH_ORDER},0.5+1i")
SWEEP_DIGESTS = [
    (("entropy", "--n", "2", *OPEN, "--block", "1..4000", "--alpha", "2,0.25,1.5-0.5i"),
     "9b267b0859b82b376395165dce811ebae7a49cd439cd8b7d4e1bdfc710887645", ""),
    (("entropy", "--n", "3", *RING, "--chain", "2000", "--block", "1..2000", "--alpha", "3"),
     "a79babee21db166ae03db3d5eb233dc5d02b401803c1b6402776a2c73f1a5a25", ""),
    (("branch-points", "--n", "2", "--block", "2..30"),
     "157e95a2f368e0a3d596184bbdafd5bfe5d78fc84ca099c09909e86036ca5cf1", ""),
    (("entropy", "--n", "2", *OPEN, "--block", "1..4000", "--alpha", "2,0.25,1.5-0.5i", "--format", "json"),
     "d90051f20cdfe12e1d227e2be06140f24aad4a35bfcc56305c4cdf993f6cde75", ""),
    (("entropy", "--n", "3", *RING, "--chain", "2000", "--block", "1..2000", "--alpha", "3", "--format", "json"),
     "247607f830d790f0adeb649ab4678adc429c35ab6b29c97affb0665de0866fe5", ""),
    (("branch-points", "--n", "2", "--block", "2..30", "--format", "json"),
     "e0c8413e9b548857bea3074b4c7a9a35f8588eea4aa5a48a2f2c62cc45c40369", ""),
    (("entropy", "--n", "2", *OPEN, "--block", "1..800", *CUT_ORDERS),
     "d1e8fac4da293ec967f936b2935696898b594283c2384fc7985b1c51dd23072b", BRANCH_NOTE),
    (("entropy", "--n", "2", *OPEN, "--block", "1..800", *CUT_ORDERS, "--format", "json"),
     "03d66ea0dceea9eca5e99f8e14458281d799e55cabf5e5e6a591e9e219e71da6", BRANCH_NOTE),
    (("spectrum", "--n", "3", *RING, "--chain", "6", "--block", "1..6", "--verify"),
     "e617543a5abb9dac8c709b06e926f8cbf799e7173084922b568f2c0e591a1ed1", ""),
    (("spectrum", "--n", "3", *RING, "--chain", "6", "--block", "1..6", "--verify", "--format", "json"),
     "7b5d0d40f3e223eac0e3e6c9c5a6f615e51d4fc3810a420ea147e00e07912a71", ""),
]


@pytest.mark.parametrize("argv,digest,err", SWEEP_DIGESTS,
                         ids=["open", "ring", "branch-points", "open-json", "ring-json", "branch-points-json",
                              "orders-across-cut", "orders-across-cut-json", "ring-verify", "ring-verify-json"])
def test_sweep_output_digest(argv, digest, err):
    code, out, got_err = run(argv)
    assert (code, got_err) == (0, err)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_budget_error_mid_sweep_prints_no_row(tmp_path):
    # the states of L=1..9 fit the budget and L=10's does not: no row is
    # printed, in either format, and no --out file is made
    argv = ("entropy", "--n", "2", *OPEN, "--block", "1..12", "--verify",
            "--budget-amps", "100000", "--alpha", "2")
    target = tmp_path / "rows.out"
    for extra in ((), ("--format", "json"), ("--out", str(target)),
                  ("--format", "json", "--out", str(target))):
        code, out, err = run(argv + extra)
        assert (code, out) == (3, "")
        assert err.startswith("error: state would need ") and "budget is 100000" in err
        assert not target.exists()


def _emitted(blocks, fmt):
    """(exit code, stdout) of the emitter on crafted blocks of the CSV_HEADER
    schema: (cells n to S, tuples of alpha to S_alpha_im, verified and max_dev)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = _emit(CSV_HEADER, argparse.Namespace(format=fmt, out=None), iter(blocks))
    return code, out.getvalue()


def _flat(blocks):
    """The rows of `blocks`, each its values in header order."""
    return [(*head, *row, *tail) for head, rows, tail in blocks for row in rows]


def _block(row):
    """A flat row as a block of one row."""
    return row[:7], (row[7:10],), row[10:]


def _every_cell_formatted(rows, fmt):
    """The emitter's text with no reuse: every cell of every row formatted."""
    if fmt == "json":
        objs = [json.dumps(dict(zip(CSV_HEADER, row)), indent=2).replace("\n", "\n  ") for row in rows]
        return "[\n  " + ",\n  ".join(objs) + "\n]\n"
    formats = [_CELL_TEXT.get(column, str) for column in CSV_HEADER]
    lines = [",".join(text(value) for text, value in zip(formats, row)) for row in rows]
    return "".join(line + "\n" for line in [",".join(CSV_HEADER), *lines])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitter_reuses_a_cell_text_only_where_it_prints_alike(fmt):
    # each column runs through values that are equal but print differently
    # (0.0 and -0.0; 1, 1.0 and True), NaN (a new object and the same one),
    # inf twice, None beside floats, and equal floats as distinct objects,
    # among them 0.1 moving between a str column and a 17-digit one
    nan = float("nan")
    rows = [
        (1, -1, 0.1, "open", float("nan"), math.inf, 0.0, "2", None, 0.5, True, 0.5),
        (1.0, -1, 0.5, "open", float("nan"), float("inf"), -0.0, "2", 0.5, None, True, 0.1),
        (True, -1.0, float("0.1"), "open", nan, -math.inf, 0.0, "3", None, 0.5, None, float("0.1")),
        (1, -1, 0.1, "ring", nan, -math.inf, -0.0, None, 0.5, 0.1, False, None),
        (1.0, -1, True, "ring", 0.0, 0.0, 0.0, None, float("0.5"), 0.1, False, 0.0),
    ]
    assert _emitted(map(_block, rows), fmt) == (1, _every_cell_formatted(rows, fmt))


def _head(L, S=0.25):
    return (2, -1, L, "open", 0.5, 0.125, S)


UNCHECKED = (None, None)

# Crafted sweeps of several rows a block.  Each holds a per-row part that
# is reused or changes in a way the emitter must not mistake for reuse.
BLOCKS = {
    # the per-row tuples are the same objects while the shared cells change
    "rows-kept": lambda rows=(("2", 0.5, 0.0), ("0.5+1i", 0.25, -0.0)): [
        (_head(L, 0.25 * L), rows, UNCHECKED) for L in range(1, 5)],
    # an order's cells are None at a branch point between numeric blocks
    "branch-point": lambda: [
        (_head(L), (("2", 0.5, 0.0), ("3+1i", None, None) if L == 2 else ("3+1i", 0.5 * L, 0.1)),
         UNCHECKED) for L in range(1, 4)],
    # 0.0 and -0.0 alternate in S across blocks, beside per-row zeros of both signs
    "signed-zero": lambda: [
        (_head(L, -0.0 if L % 2 else 0.0), (("2", 0.0 if L % 2 else -0.0, 0.0),), UNCHECKED)
        for L in range(1, 6)],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_emitter_blocks_print_as_their_rows_alone(name, fmt):
    blocks = BLOCKS[name]()
    assert _emitted(blocks, fmt) == (0, _every_cell_formatted(_flat(blocks), fmt))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_block_unverified_mid_sweep_exits_1(fmt):
    rows = (("2", 0.5, 0.0), ("0.5", 0.75, 0.0))
    blocks = [(_head(L), rows, (L != 3, 1e-16 * L)) for L in range(1, 6)]
    assert _emitted(blocks, fmt) == (1, _every_cell_formatted(_flat(blocks), fmt))
    assert _emitted(blocks[:2] + blocks[3:], fmt)[0] == 0


class _Sink(io.TextIOBase):
    """A stdout that counts the characters written to it and keeps none."""

    size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


@pytest.mark.parametrize("fmt,bound", [("json", 1.5), ("csv", 2.3)])
def test_emission_holds_only_the_text(fmt, bound):
    # 2,000 rows: the peak traced memory stays within a small multiple of the
    # text, so no object per row and no second copy of the text is held
    argv = ("entropy", "--n", "3", *OPEN, "--alpha", "2,0.5,0.5+1i,3,5", "--format", fmt)
    run(argv + ("--block", "1"))  # argparse's first use imports modules; keep them out
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(list(argv + ("--block", "1..400"))) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 10 ** 5
    assert peak < bound * sink.size, peak / sink.size


def _matches(column, cell, value):
    """Whether a CSV cell encodes the JSON value of the same row and column."""
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if isinstance(value, float):  # 17 digits round-trip, sign of zero and NaN included
        return float(cell).hex() == value.hex()
    if isinstance(value, int):
        return cell == (f"{value:+d}" if column == "sign" else str(value))
    return cell == value


# Renyi orders with positive real part, not 1; a complex order with zero
# imaginary part is read as real.
ORDERS = st.one_of(
    st.floats(0.05, 8.0), st.builds(complex, st.floats(0.05, 5.0), st.floats(-5.0, 5.0)),
).filter(lambda alpha: alpha != 1)


@st.composite
def requests(draw):
    """A spectrum, entropy or branch-points argv over n 2-4 and spans of at most
    20; --verify only where the state is small (a few ms a block)."""
    command = draw(st.sampled_from(["spectrum", "entropy", "branch-points"]))
    n = draw(st.integers(2, 4))
    if command == "branch-points":  # blocks short enough that the weights differ
        lo, m = draw(st.integers(2, 10)), draw(st.integers(0, 2))
        return (command, "--n", str(n), "--block", f"{lo}..{draw(st.integers(lo, 12))}",
                "--m", f"{m}..{m + draw(st.integers(0, 2))}")
    verify = draw(st.booleans())
    lo = draw(st.integers(1, 3 if verify else 30))
    hi = lo + draw(st.integers(0, 2 if verify else 19))
    argv, d = (command, "--n", str(n), "--block", f"{lo}..{hi}"), n * n - 1
    if draw(st.booleans()):
        argv, amplitudes = argv + OPEN, (d + 1) * d ** hi
    else:
        N = draw(st.integers(max(hi, 2), hi + 4))
        argv, amplitudes = argv + RING + ("--chain", str(N)), d ** N
    if verify and amplitudes <= 1 << 14:
        argv += ("--verify",)
    if command == "entropy":
        orders = draw(st.lists(ORDERS, max_size=3))
        argv += ("--log-base", draw(st.sampled_from(["e", "2", "n"])))
        argv += ("--alpha", ",".join(map(alpha_literal, orders))) if orders else ()
    return argv


@settings(derandomize=True, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=requests())
def test_csv_json_and_out_encode_the_same_rows(tmp_path, argv):
    (code, csv_text, err), (json_code, json_text, _) = run(argv), run(argv + ("--format", "json"))
    assert (code, json_code) == (0, 0), err
    table = list(csv.reader(io.StringIO(csv_text)))
    header, objs = table[0], json.loads(json_text)
    assert len(table) - 1 == len(objs) > 0
    for cells, obj in zip(table[1:], objs):
        assert list(obj) == header
        assert all(_matches(column, cell, obj[column])
                   for column, cell in zip(header, cells)), (cells, obj)
    for text, extra in ((csv_text, ()), (json_text, ("--format", "json"))):
        target = tmp_path / "rows.out"
        assert run(argv + extra + ("--out", str(target))) == (0, "", err)
        assert target.read_text() == text
