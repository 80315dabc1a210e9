"""Command-line interface: spectra, entropies, branch points, verification sweeps.

The CLI only formats what the library computes.  Row schema (CSV header and
JSON object keys are identical):

    n,N,L,boundary,lambda_singlet,lambda_adjoint,S,alpha,S_alpha_re,S_alpha_im,verified,max_dev

N = -1 encodes the open chain (whose block weights are chain-length
independent).  Absent fields are empty in CSV and null in JSON.  Branch
points use their own schema:

    n,L,m,sign,alpha_re,alpha_im,residual,parity

Numbers are emitted with 17 significant digits so doubles round-trip.
A --verify row compares the closed-form weights with the exact oracle route
(`oracle.exact_block_spectrum`), whose eigenvalues are exact Fractions from
counts of phase codes; it forms no matrix, so only `verify` takes
--budget-matrix.  Over CROSS_CHECK_AMPS amplitudes, `max_dev` is therefore the
rounding of the closed-form floats alone.  Up to that size the float route
(`oracle.block_spectrum`) runs too, and `max_dev` is the larger deviation.
`verify` reports each check as PASS, FAIL or SKIP with the point of largest
deviation/tolerance ratio (`max_dev`, `tolerance`, the `worst_at` fields and
a `detail` text formed from them); SKIP marks a check that evaluated no grid
point for the requested n (`"evaluated": 0`, `"worst_at": null`, empty
detail) and, like FAIL, makes `all_passed` false.
Exit codes: 0 success, 1 verification failure (a FAIL or SKIP check, or a
`spectrum`/`entropy --verify` row with `verified` false, after every row is
printed), 2 usage/config error, 3 resource-budget error, 4 broken internal invariant
(a computed state or matrix failed its norm, Hermiticity, trace or spectrum
check, or a charge sector of a --verify block was not certified rank one:
a fault in the computation, not in the request).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Callable, List, Optional, Sequence, Union

from . import closed_form, oracle, states
from .checks import CHECKS, _worst, run_checks, spectrum_deviation
from .errors import BranchPointCondition, BudgetError, InvariantError
from .weyl import _check_dimension

CSV_HEADER = ["n", "N", "L", "boundary", "lambda_singlet", "lambda_adjoint",
              "S", "alpha", "S_alpha_re", "S_alpha_im", "verified", "max_dev"]
BRANCH_HEADER = ["n", "L", "m", "sign", "alpha_re", "alpha_im", "residual", "parity"]

AMP_BUDGET_ENV = "VBSENT_AMP_BUDGET"
MATRIX_BUDGET_ENV = "VBSENT_MATRIX_BUDGET"

#: Most values a --block or --m span may hold.
MAX_SPAN = 10 ** 6

#: A --verify row of a state of at most this many amplitudes also runs the
#: float oracle as a cross-check: its Grams are at most 256 wide, so no matrix
#: budget applies, and it costs at most ~10 ms (the n=2 ring of 10, L=5).
CROSS_CHECK_AMPS = 1 << 16


def fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.17g}"


def alpha_literal(alpha: Union[float, complex]) -> str:
    if isinstance(alpha, complex):
        return f"{alpha.real:.17g}{alpha.imag:+.17g}i"
    return f"{alpha:.17g}"


def parse_alpha(text: str) -> Union[float, complex]:
    """Parse '2', '0.5', '1.5+0.5i' or '1.5-0.5i' (no spaces)."""
    text = text.strip()
    if not text.endswith("i"):
        return float(text)
    body = text[:-1]
    split = -1
    for i in range(len(body) - 1, 0, -1):  # last sign not part of an exponent
        if body[i] in "+-" and body[i - 1] not in "eE":
            split = i
            break
    if split < 1:
        raise ValueError(f"cannot parse complex order {text!r}; expected a+bi")
    return complex(float(body[:split]), float(body[split:]))


def tolerance(text: str) -> float:
    """A --tol value, finite and >= 0: NaN or negative verifies no row, inf every row."""
    value = float(text)
    if not 0.0 <= value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return value


def parse_span(text: str) -> List[int]:
    """Parse '4' or '1..8' into an inclusive integer list of at most MAX_SPAN values."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty span {text!r}")
        if hi - lo >= MAX_SPAN:
            raise ValueError(f"span {text!r} has {hi - lo + 1} values, more than the limit {MAX_SPAN}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _cell(key: str, value) -> str:
    """CSV text of one JSON value: empty for null, 17 digits for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt(value)
    return f"{value:+d}" if key == "sign" else str(value)


def _emit(objs: List[dict], header: List[str], args) -> int:
    """Write JSON objects (keys in `header` order) in the requested format
    only; return the exit code, 1 if a --verify row failed its tolerance."""
    if args.format == "json":
        text = json.dumps(objs, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(k, v) for k, v in obj.items()] for obj in objs)
        text = buf.getvalue()
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 1 if any(obj.get("verified") is False for obj in objs) else 0


def _write(path: str, text: str) -> None:
    """Write an --out file; a path that cannot be written is a usage error."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {path!r}: {exc.strerror or exc}") from exc


def _spectrum_for(args, L: int) -> closed_form.BlockSpectrum:
    if args.boundary == states.OPEN:
        if args.chain is not None:
            raise ValueError("--chain only applies to periodic boundaries")
        return closed_form.open_spectrum(args.n, L)
    if args.chain is None:
        raise ValueError("--chain is required for periodic boundaries")
    return closed_form.periodic_spectrum(args.n, args.chain, L)


StateSource = Callable[[closed_form.BlockSpectrum], states.PureState]


def _oracle_states(args) -> StateSource:
    """State source for one command's --verify rows: an open chain per block
    length, and one ring, built on first use and reused for every block."""
    ring = []

    def state_for(spec: closed_form.BlockSpectrum) -> states.PureState:
        if spec.N is None:
            return states.open_vbs_state(
                states.ChainSpec(spec.n, spec.L, states.OPEN, args.budget_amps))
        if not ring:
            ring.append(states.periodic_vbs_state(
                states.ChainSpec(spec.n, spec.N, states.PERIODIC, args.budget_amps)))
        return ring[0]

    return state_for


def _row(args, spec: closed_form.BlockSpectrum, state_for: StateSource) -> dict:
    """The JSON row (keys in CSV_HEADER order) of one block's weights,
    cross-checked against the oracle on --verify."""
    singlet, adjoint = spec.floats()
    row = dict.fromkeys(CSV_HEADER)
    row.update(n=spec.n, N=-1 if spec.N is None else spec.N, L=spec.L, boundary=args.boundary,
               lambda_singlet=singlet, lambda_adjoint=adjoint)
    if args.verify:
        state, expected = state_for(spec), spec.nonzero()
        dev = spectrum_deviation(oracle.exact_block_spectrum(state, range(spec.L)), expected)
        if state.codes.size <= CROSS_CHECK_AMPS:
            found = oracle.block_spectrum(state, range(spec.L))
            dev = _worst([dev, spectrum_deviation(found, expected)])
        row.update(verified=dev <= args.tol, max_dev=dev)
    return row


def cmd_spectrum(args) -> int:
    state_for = _oracle_states(args)
    return _emit([_row(args, _spectrum_for(args, L), state_for)
                  for L in sorted(parse_span(args.block))], CSV_HEADER, args)


def cmd_entropy(args) -> int:
    alphas = [parse_alpha(piece)
              for chunk in args.alpha or [] for piece in chunk.split(",") if piece]
    base_scale = 1.0
    if args.log_base == "2":
        base_scale = 1.0 / math.log(2.0)
    elif args.log_base == "n":
        _check_dimension(args.n)  # before log(n), which fails for n < 2 without naming n
        base_scale = 1.0 / math.log(args.n)
    state_for = _oracle_states(args)
    rows = []
    for L in sorted(parse_span(args.block)):
        spec = _spectrum_for(args, L)  # one spectrum per block serves every order
        base = _row(args, spec, state_for)
        base["S"] = spec.entropy() * base_scale
        if not alphas:
            rows.append(base)
        for alpha in alphas:
            try:
                s_alpha = complex(spec.renyi(alpha) * base_scale)
                s_re, s_im = s_alpha.real, s_alpha.imag
            except BranchPointCondition:
                s_re = s_im = None  # flagged: order sits on a branch point
                print(f"note: order {alpha_literal(alpha)} is a branch point at L={L}",
                      file=sys.stderr)
            rows.append({**base, "alpha": alpha_literal(alpha),
                         "S_alpha_re": s_re, "S_alpha_im": s_im})
    return _emit(rows, CSV_HEADER, args)


def cmd_branch_points(args) -> int:
    ms = sorted(parse_span(args.m))
    objs = []
    for L in sorted(parse_span(args.block)):
        for point in closed_form.branch_points(args.n, L, ms):
            objs.append({"n": args.n, "L": L, "m": point.m, "sign": point.sign,
                         "alpha_re": point.alpha.real, "alpha_im": point.alpha.imag,
                         "residual": point.residual,
                         "parity": "even" if point.even_block else "odd"})
    return _emit(objs, BRANCH_HEADER, args)


def cmd_verify(args) -> int:
    only = args.only or None
    ns = tuple(args.n) if args.n else None
    results = run_checks(only=only, ns=ns,
                         amp_budget=args.budget_amps, matrix_budget=args.budget_matrix)
    lines = [f"{r.name}: {r.status}  max_dev={r.max_dev:.3e}  tol={r.tolerance:g}"
             + (f"  ({r.detail})" if r.detail else "") for r in results]
    summary = {
        "checks": [{"name": r.name, "passed": r.passed, "evaluated": r.evaluated,
                    "max_dev": r.max_dev, "tolerance": r.tolerance, "detail": r.detail,
                    "worst_at": r.worst_at}
                   for r in results],
        "all_passed": all(r.passed for r in results),
    }
    text, report = "\n".join(lines) + "\n", json.dumps(summary, indent=2) + "\n"
    if args.out:
        _write(args.out, report)  # before stdout: an unwritable path prints no lines
    elif args.format == "json":
        text = report
    sys.stdout.write(text)
    return 0 if summary["all_passed"] else 1


def _add_common(parser: argparse.ArgumentParser, amps: bool = True, matrix: bool = False) -> None:
    """--format and --out, and the budget options that the command reads."""
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    # argparse converts a string default (the environment's) with `type` too
    if amps:
        parser.add_argument("--budget-amps", type=int,
                            default=os.environ.get(AMP_BUDGET_ENV, states.DEFAULT_AMP_BUDGET),
                            help="maximum stored amplitudes per state")
    if matrix:
        parser.add_argument("--budget-matrix", type=int,
                            default=os.environ.get(MATRIX_BUDGET_ENV, oracle.DEFAULT_MATRIX_BUDGET),
                            help="maximum materialized matrix dimension")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vbsent",
                                     description="Valence-bond-solid chain spectra and entropies")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="block weights for a chain or ring")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--boundary", choices=(states.OPEN, states.PERIODIC), required=True)
    sp.add_argument("--block", required=True, help="block length L or span lo..hi")
    sp.add_argument("--chain", type=int, help="ring length N (periodic only)")
    sp.add_argument("--verify", action="store_true", help="cross-check against the brute-force route")
    sp.add_argument("--tol", type=tolerance, default=1e-10)
    _add_common(sp)
    sp.set_defaults(func=cmd_spectrum)

    en = sub.add_parser("entropy", help="block entropies, optionally at Renyi orders")
    en.add_argument("--n", type=int, required=True)
    en.add_argument("--boundary", choices=(states.OPEN, states.PERIODIC), required=True)
    en.add_argument("--block", required=True)
    en.add_argument("--chain", type=int)
    en.add_argument("--alpha", action="append",
                    help="Renyi order(s): real or a+bi literals with positive real part, "
                         "comma separated or repeated")
    en.add_argument("--log-base", choices=("e", "2", "n"), default="e",
                    help="display base for entropies (computation stays in nats)")
    en.add_argument("--verify", action="store_true")
    en.add_argument("--tol", type=tolerance, default=1e-10)
    _add_common(en)
    en.set_defaults(func=cmd_entropy)

    bp = sub.add_parser("branch-points", help="complex orders where the Renyi power sum vanishes")
    bp.add_argument("--n", type=int, required=True)
    bp.add_argument("--block", required=True,
                    help="block length L or span lo..hi (L >= 2); odd L gives Re alpha < 0, "
                         "an order that entropy --alpha refuses")
    bp.add_argument("--m", default="0..2", help="branch integer or span, both signs enumerated")
    _add_common(bp, amps=False)
    bp.set_defaults(func=cmd_branch_points)

    ve = sub.add_parser("verify", help="run the oracle-vs-closed-form verification grid")
    ve.add_argument("--n", type=int, action="append", help="restrict the grid to these n")
    ve.add_argument("--only", action="append", choices=sorted(CHECKS),
                    help="run only the named check(s)")
    _add_common(ve, matrix=True)
    ve.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:  # before ValueError, its base class
        print(f"error: internal invariant broken: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
