"""Command-line interface: spectra, entropies, branch points, verification sweeps.

The CLI only formats what the library computes.  Row schema (CSV header and
JSON object keys are identical):

    n,N,L,boundary,lambda_singlet,lambda_adjoint,S,alpha,S_alpha_re,S_alpha_im,verified,max_dev

N = -1 encodes the open chain (whose block weights are chain-length
independent).  Absent fields are empty in CSV and null in JSON.  Branch
points use their own schema:

    n,L,m,sign,alpha_re,alpha_im,residual,parity

CSV numbers carry 17 significant digits and JSON numbers are Python's shortest
round-trip repr, so doubles round-trip in both formats.  A command yields
one block per block length L, its cells in header order in three parts: the
cells its rows share before the per-row ones (n to S), one tuple of per-row
cells per row (alpha, S_alpha_re, S_alpha_im; a branch point's m to
parity), and the cells its rows share after them (verified, max_dev).  One
emitter turns each block into text as it is made: CSV lines, or each row's
object as `json.dumps(indent=2)` prints it inside the list.  It joins a
block's shared parts once, joins a per-row tuple only when it is a new
object (`entropy` keeps its per-row tuples from block to block while the
weights repeat), and writes each row as a concatenation of the three.  Past
the float cut, a block whose truncated weight integers an earlier block of
the request had takes that block's floats, S and per-row tuples, the same
objects, so it computes no spectrum or entropy and only its L is formatted;
its --verify cells and branch-point notes are still its own.  A
cell reuses the text of the same column in the block above (for a per-row
cell, of the row at the same position) when its value is the same object or
an equal nonzero float, so 0.0 and -0.0, or 1, 1.0 and True, never share
text.  Only that text is held, and nothing is written before the last row is
made, so a request that fails part-way prints no row and makes no --out file.
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
import json
import math
import os
import sys
from itertools import compress
from operator import is_not
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import closed_form, oracle, states
from .checks import CHECKS, _worst, run_checks, spectrum_deviation
from .errors import BranchPointCondition, BudgetError, InvariantError
from .weyl import _check_dimension, _check_order

CSV_HEADER = ["n", "N", "L", "boundary", "lambda_singlet", "lambda_adjoint",
              "S", "alpha", "S_alpha_re", "S_alpha_im", "verified", "max_dev"]
BRANCH_HEADER = ["n", "L", "m", "sign", "alpha_re", "alpha_im", "residual", "parity"]

AMP_BUDGET_ENV = "VBSENT_AMP_BUDGET"
MATRIX_BUDGET_ENV = "VBSENT_MATRIX_BUDGET"

#: A block of rows: the cells they share before the per-row ones, one tuple of
#: per-row cells per row, and the cells they share after them.
Block = Tuple[tuple, Sequence[tuple], tuple]

#: Most values a --block or --m span may hold, and most rows a request may make.
MAX_SPAN = 10 ** 6

#: A --verify row of a state of at most this many amplitudes also runs the
#: float oracle as a cross-check: its Grams are at most 256 wide, so no matrix
#: budget applies, and it costs about 15 ms a block at most, 25 ms in a slow
#: process (the n=2 ring of 10, L=5; 2 ms without it).
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
    """A --tol value: a finite number >= 0; NaN, a negative number or inf is a usage error."""
    value = float(text)
    if not 0.0 <= value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return value


def parse_span(text: str) -> range:
    """Parse '4' or '1..8' into an inclusive, ascending range of at most MAX_SPAN values."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty span {text!r}")
        if hi - lo >= MAX_SPAN:
            raise ValueError(f"span {text!r} has {hi - lo + 1} values, more than the limit {MAX_SPAN}")
        return range(lo, hi + 1)
    return range(int(text), int(text) + 1)


def _check_rows(count: int) -> None:
    """Refuse a request of more than MAX_SPAN rows before any row is made."""
    if count > MAX_SPAN:
        raise ValueError(f"request makes {count} rows, more than the limit {MAX_SPAN}")


#: The CSV text of a cell by column (`str` for the others); None prints empty.
#: No cell holds a comma, quote or newline, so a line needs no CSV quoting.
_CELL_TEXT = {**dict.fromkeys(["lambda_singlet", "lambda_adjoint", "S", "S_alpha_re", "S_alpha_im",
                               "max_dev", "alpha_re", "alpha_im", "residual"], fmt),
              "alpha": lambda literal: literal or "", "sign": "{:+d}".format,
              "verified": {None: "", True: "true", False: "false"}.get}


def _joiner(formats: Sequence[Callable], sep: str) -> Callable[[tuple], str]:
    """A function from one part of a row (its values in header order) to the
    part's text: the cell texts joined by `sep`.  A cell reuses the text of
    the same column in the previous call when its value is the same object or
    an equal nonzero float, and the same tuple as in the previous call reuses
    the whole text."""
    last, cells, text = (object(),) * len(formats), [""] * len(formats), ""
    columns = range(len(formats))

    def joined(values: tuple) -> str:
        nonlocal last, text
        if values is not last:
            for i in compress(columns, map(is_not, values, last)):  # each cell whose value is a new object
                if not (type(values[i]) is type(last[i]) is float and values[i] == last[i] != 0.0):
                    cells[i] = formats[i](values[i])
            last, text = values, sep.join(cells)
        return text
    return joined


def _emit(header: List[str], args, blocks: Iterable[Block]) -> int:
    """Write a command's blocks (see `Block`), their cells in header order,
    as the module docstring says, and return the exit code: 1 if a row has
    `verified` false, else 0.  Nothing is written before the last row is
    made."""
    as_json, failed = args.format == "json", False
    sep, opener, closer = (",\n    ", "\n  {\n    ", "\n  },") if as_json else (",", "", "\n")
    formats = [(lambda value, key=json.dumps(column) + ": ": key + json.dumps(value)) if as_json
               else _CELL_TEXT.get(column, str) for column in header]
    verified = header.index("verified") - len(header) if "verified" in header else None  # in the tail
    texts = ["[" if as_json else ",".join(header) + "\n"]
    head_text = tail_text = last_rows = None
    row_joiners: List[Callable[[tuple], str]] = []
    for head, rows, tail in blocks:
        if head_text is None:
            split = len(header) - len(tail)
            head_text, tail_text = _joiner(formats[:len(head)], sep), _joiner(formats[split:], sep)
            row_formats = formats[len(head):split]
        failed |= verified is not None and tail[verified] is False
        if rows is not last_rows:  # a row's cells are compared with the last row at its position
            row_joiners += [_joiner(row_formats, sep) for _ in range(len(rows) - len(row_joiners))]
            row_texts, last_rows = [joined(row) for joined, row in zip(row_joiners, rows)], rows
        prefix = opener + head_text(head) + sep
        suffix = (sep + tail_text(tail) if tail else "") + closer
        texts += [prefix + text + suffix for text in row_texts]
    if as_json:  # the last object takes no comma
        texts[-1] = texts[-1][:-1]
        texts.append("\n]\n")
    if args.out:
        _write(args.out, texts)
    else:
        sys.stdout.writelines(texts)
    return 1 if failed else 0


def _write(path: str, texts: List[str]) -> None:
    """Write an --out file; a path that cannot be written is a usage error."""
    try:
        with open(path, "w") as handle:
            handle.writelines(texts)
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


def _shared_key(n: int, N: Optional[int], L: int, cut: int) -> Optional[tuple]:
    """The truncated weight integers of a valid block with a length past the
    cut (`closed_form._weight_ints`), else None."""
    if L >= cut and (N is None or L <= N) or N is not None and N - L >= cut:
        return closed_form._weight_ints(n, N, L, cut)
    return None


def _blocks(args, per_block: int = 1,
            derive: Callable = lambda spec: ()) -> Iterator[Tuple[int, tuple, object, tuple]]:
    """Each requested block, by length: L, the values its rows share in
    columns n to lambda_adjoint, `derive` of its spectrum, and the values in
    verified and max_dev.  Blocks with the same `_shared_key` share the
    floats and `derive` value of the first of them whose floats were rounded
    from those integers (not from the exact ones, on an undecided rounding),
    as both are functions of the key.  On --verify, each block's own exact
    weights are checked against the oracle on an open chain per block
    length, or on one ring built on first use and reused for every block.
    A block makes `per_block` rows."""
    ring, blocks, unchecked = None, parse_span(args.block), (None, None)
    _check_rows(len(blocks) * per_block)
    spec = _spectrum_for(args, blocks[0])  # a bad n, chain or least L raises before any key is formed
    n, N, cut, shared = spec.n, spec.N, closed_form._cut(spec.multiplicity), {}
    for L in blocks:
        key = _shared_key(n, N, L, cut)
        hit = shared.get(key)
        if hit is None:
            spec = spec if spec.L == L else _spectrum_for(args, L)
            hit = spec.floats(), derive(spec)
            if key is not None and spec._ints is None:  # rounded from the key, not from exact integers
                shared[key] = hit
        floats, derived = hit
        tail = unchecked
        if args.verify:
            spec = spec if spec.L == L else _spectrum_for(args, L)  # exact weights are never shared
            if N is None:
                state = states.open_vbs_state(states.ChainSpec(n, L, states.OPEN, args.budget_amps))
            else:
                if ring is None:
                    ring = states.periodic_vbs_state(states.ChainSpec(n, N, states.PERIODIC, args.budget_amps))
                state = ring
            expected = spec.nonzero()
            dev = spectrum_deviation(oracle.exact_block_spectrum(state, range(L)), expected)
            if state.codes.size <= CROSS_CHECK_AMPS:
                dev = _worst([dev, spectrum_deviation(oracle.block_spectrum(state, range(L)), expected)])
            tail = (dev <= args.tol, dev)
            del state  # an open chain's state is freed before the next block's is built
        yield L, (n, -1 if N is None else N, L, args.boundary, *floats), derived, tail


def spectrum_rows(args) -> Iterator[Block]:
    rows = ((None, None, None, None),)  # S and the order cells are empty
    for _, head, _, tail in _blocks(args):
        yield head, rows, tail


def _renyi_cells(spec: closed_form.BlockSpectrum, alpha, base_scale: float) -> tuple:
    """(S_alpha_re, S_alpha_im), or (None, None) where the order is a branch point."""
    try:
        s_alpha = complex(spec.renyi(alpha) * base_scale)
    except BranchPointCondition:
        return None, None
    return s_alpha.real, s_alpha.imag


def entropy_rows(args) -> Iterator[Block]:
    pieces = [piece for chunk in args.alpha or [] for piece in chunk.split(",") if piece]
    if args.alpha and not pieces:
        raise ValueError(f"--alpha {','.join(args.alpha)!r} names no order")
    orders = [(alpha, alpha_literal(alpha)) for alpha in map(parse_alpha, pieces)]
    for alpha, _ in orders:
        _check_order(alpha)  # before any state is built
    if args.log_base == "n":
        _check_dimension(args.n)  # before log(n), which fails for n < 2 without naming n
    base_scale = 1.0 if args.log_base == "e" else 1.0 / math.log(2.0 if args.log_base == "2" else args.n)
    pair, rows, branch = None, ((None, None, None),), []

    def derive(spec: closed_form.BlockSpectrum) -> tuple:
        """S, the per-row tuples and the branch-point literals of a spectrum."""
        nonlocal pair, rows, branch
        if orders and spec.floats() != pair:  # renyi reads only the floats: equal pairs share their rows
            pair = spec.floats()
            rows = tuple((literal, *_renyi_cells(spec, alpha, base_scale)) for alpha, literal in orders)
            branch = [literal for literal, s_re, _ in rows if s_re is None]
        return spec.entropy() * base_scale, rows, branch

    for L, head, (s, order_rows, notes), tail in _blocks(args, max(1, len(orders)), derive):
        for literal in notes:  # flagged: order sits on a branch point
            print(f"note: order {literal} is a branch point at L={L}", file=sys.stderr)
        yield (*head, s), order_rows, tail


def branch_point_rows(args) -> Iterator[Block]:
    ms, blocks = parse_span(args.m), parse_span(args.block)
    _check_rows(len(blocks) * len(ms) * 2)
    for L in blocks:
        yield (args.n, L), [(point.m, point.sign, point.alpha.real, point.alpha.imag, point.residual,
                             "even" if point.even_block else "odd")
                            for point in closed_form.branch_points(args.n, L, ms)], ()


def cmd_verify(args) -> int:
    results = run_checks(only=args.only, ns=args.n,
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
        _write(args.out, [report])  # before stdout: an unwritable path prints no lines
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


def _add_block_request(sub, name: str, func, text: str) -> argparse.ArgumentParser:
    """A subcommand that reads a block request: the options spectrum and entropy share."""
    block = sub.add_parser(name, help=text)
    block.add_argument("--n", type=int, required=True)
    block.add_argument("--boundary", choices=(states.OPEN, states.PERIODIC), required=True)
    block.add_argument("--block", required=True, help="block length L or span lo..hi")
    block.add_argument("--chain", type=int, help="ring length N (periodic only)")
    block.add_argument("--verify", action="store_true", help="cross-check against the brute-force route")
    block.add_argument("--tol", type=tolerance, default=1e-10)
    _add_common(block)
    block.set_defaults(func=func, header=CSV_HEADER)
    return block


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vbsent",
                                     description="Valence-bond-solid chain spectra and entropies")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_block_request(sub, "spectrum", spectrum_rows, "block weights for a chain or ring")
    en = _add_block_request(sub, "entropy", entropy_rows, "block entropies, optionally at Renyi orders")
    en.add_argument("--alpha", action="append",
                    help="Renyi order(s): real or a+bi literals with positive real part, "
                         "comma separated or repeated")
    en.add_argument("--log-base", choices=("e", "2", "n"), default="e",
                    help="display base for entropies (computation stays in nats)")

    bp = sub.add_parser("branch-points", help="complex orders where the Renyi power sum vanishes")
    bp.add_argument("--n", type=int, required=True)
    bp.add_argument("--block", required=True,
                    help="block length L or span lo..hi (L >= 2); odd L gives Re alpha < 0, "
                         "an order that entropy --alpha refuses")
    bp.add_argument("--m", default="0..2", help="branch integer or span, both signs enumerated")
    _add_common(bp, amps=False)
    bp.set_defaults(func=branch_point_rows, header=BRANCH_HEADER)

    ve = sub.add_parser("verify", help="run the oracle-vs-closed-form verification grid")
    ve.add_argument("--n", type=int, action="append", help="restrict the grid to these n")
    ve.add_argument("--only", action="append", choices=sorted(CHECKS),
                    help="run only the named check(s)")
    _add_common(ve, matrix=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        return _emit(args.header, args, args.func(args))
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
