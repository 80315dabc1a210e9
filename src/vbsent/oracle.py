"""Brute-force reference computations from explicit state vectors.

Everything in this module is derived directly from state vectors: partial
traces, Hermitian spectra via cyclic Jacobi rotations, and entropies from
eigenvalue lists.  No analytic shortcut from elsewhere in the package is
used here, so results from this module serve as ground truth against the
closed forms.

Spectra of a block are computed, by default, on whichever side of the
bipartition is smaller: for a unit vector reshaped to a (block, environment)
matrix M, the nonzero eigenvalues of M M^dagger and M^dagger M coincide.
When that side exceeds SPLIT_MIN_SIDE and M has more than SPLIT_MIN_ENTRIES
entries, M is first split into its n^2 charge sectors (`_sector_spectra`):
every nonzero amplitude has Z_n x Z_n charge 0 (`states.charges`), so a
nonzero entry links only a row and a column of equal charge, and the Gram
is the sectors' direct sum up to a permutation.  Each is diagonalized on
its own smaller side; the remaining eigenvalues are exact zeros.  Sectors
holding fewer nonzeros than the state raise InvariantError.  The charges
come from the slot encoding alone.

M itself holds the state's phase codes (see `states`), reshaped and
transposed: one byte per entry.  Every Gram, and every reduced density
matrix, decodes M in chunks of whole rows or columns into one reused buffer
through the state's table of n + 1 amplitudes (real at n = 2, so an n = 2
Gram is real) and sums the chunk Grams (`_gram`).  A decoded array is one
chunk, or a whole M smaller than its Gram, never a whole state near the
budget; and each chunk sum is short, so the Gram's rounding does not grow
with the state.  All reductions use a fixed chunking and numpy
contraction order, so repeated runs are bit-identical.

The invariant checks (Hermiticity and unit trace of a density matrix; no
eigenvalue below -1e-12 and a sum within 1e-10 of one) raise
`errors.InvariantError`: a failure means the computation is broken.  Each is
written `not deviation <= bound`, so a NaN deviation fails it.  Hermiticity
is measured in row blocks (`hermitian_deviation`), with no full-size
difference matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import BudgetError, ConvergenceError, InvariantError
from .states import PureState, charges
from .weyl import _check_order, _log_power_sum

#: Default cap on the dimension of any materialized density/Gram matrix.
DEFAULT_MATRIX_BUDGET = 4096

#: `block_spectrum` splits a (block, environment) matrix into its charge
#: sectors only if its smaller side exceeds SPLIT_MIN_SIDE and its entries
#: exceed SPLIT_MIN_ENTRIES: on smaller ones (timed: sides 3-12, or up to 54k
#: entries) the split's n^4 gathers and n^2 Jacobi calls cost more than they save.
SPLIT_MIN_SIDE = 14
SPLIT_MIN_ENTRIES = 1 << 16

#: Eigenvalues in [-NEGATIVE_CLAMP, 0) are rounded to 0; anything below is an error.
NEGATIVE_CLAMP = 1e-12

#: Jacobi terminates once the off-diagonal Frobenius norm drops below this.
OFF_DIAGONAL_TARGET = 1e-13

#: Jacobi raises ConvergenceError if the target is not met after this many sweeps.
DEFAULT_MAX_SWEEPS = 100

#: Bound on the Frobenius norm of matrix - matrix^dagger of a density matrix
#: or of a Jacobi input.
HERMITIAN_TOL = 1e-12

#: Decoded entries per chunk of a Gram product (512 KiB of float64).  A chunk
#: also spans at least 8 Gram sides where that fits in 8 * GRAM_CHUNK
#: entries: with fewer rows than its output's side, a symmetric product is
#: dominated by its output and runs many times slower per entry.
GRAM_CHUNK = 1 << 16

#: Entries per row block of a Hermiticity measurement (4 MiB of complex128):
#: a matrix of dim <= 512 is one block.
HERMITIAN_BLOCK_ENTRIES = 1 << 18


def hermitian_deviation(matrix: np.ndarray) -> float:
    """Frobenius norm of matrix - matrix^dagger (NaN if any entry is NaN),
    summed over row blocks so that no temporary is full-size."""
    dim = matrix.shape[0]
    rows = max(1, HERMITIAN_BLOCK_ENTRIES // max(dim, 1))
    total = 0.0
    for lo in range(0, dim, rows):
        diff = matrix[lo:lo + rows] - matrix[:, lo:lo + rows].conj().T
        total += float(np.vdot(diff, diff).real)
    return math.sqrt(total)


@dataclass(frozen=True)
class DensityMatrix:
    """Square, Hermitian, trace-one matrix of a block."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {self.matrix.shape}")
        herm = hermitian_deviation(self.matrix)
        if not herm <= HERMITIAN_TOL:  # NaN fails too
            raise InvariantError(f"matrix is not Hermitian: deviation {herm:.3e}")
        tr = complex(np.trace(self.matrix))
        if not abs(tr - 1.0) <= 1e-12:
            raise InvariantError(f"matrix trace {tr!r} deviates from 1 beyond 1e-12")
        self.matrix.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class SpectrumReport:
    """Eigenvalues of a density matrix, sorted descending with tiny negatives
    clamped to zero (see `spectrum_report`)."""

    eigenvalues: np.ndarray


def jacobi_eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations, descending.

    Sweeps the strict upper triangle in fixed row order, annihilating each
    pivot with a complex plane rotation, until the off-diagonal Frobenius
    norm falls below OFF_DIAGONAL_TARGET.  Raises ConvergenceError if the
    target is not met after DEFAULT_MAX_SWEEPS sweeps, and ValueError for
    input that is not Hermitian within HERMITIAN_TOL.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    herm = hermitian_deviation(a)
    if not herm <= HERMITIAN_TOL:  # NaN fails too
        raise ValueError(f"matrix is not Hermitian within {HERMITIAN_TOL:g}: deviation {herm:.3e}")
    dim = a.shape[0]
    if dim == 1:
        return np.array([a[0, 0].real])

    w = (a + a.conj().T) / 2.0
    # pivots below this cannot collectively push the off-norm above target
    skip = OFF_DIAGONAL_TARGET / (4.0 * dim)

    def off_norm() -> float:
        off = w.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    converged = off_norm() < OFF_DIAGONAL_TARGET
    for _ in range(DEFAULT_MAX_SWEEPS):
        if converged:
            break
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                b = w[p, q]
                absb = abs(b)
                if absb <= skip:
                    continue
                # factor the pivot phase out, then rotate the real 2x2 core
                eip = b / absb
                tau = (w[q, q].real - w[p, p].real) / (2.0 * absb)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                app = w[p, p].real
                aqq = w[q, q].real
                colp = w[:, p].copy()
                colq = w[:, q].copy()
                w[:, p] = c * eip * colp - s * colq
                w[:, q] = s * eip * colp + c * colq
                rowp = w[p, :].copy()
                rowq = w[q, :].copy()
                w[p, :] = c * np.conj(eip) * rowp - s * rowq
                w[q, :] = s * np.conj(eip) * rowp + c * rowq
                w[p, p] = app - t * absb
                w[q, q] = aqq + t * absb
                w[p, q] = 0.0
                w[q, p] = 0.0
        converged = off_norm() < OFF_DIAGONAL_TARGET
    if not converged:
        raise ConvergenceError(
            f"off-diagonal norm {off_norm():.3e} above target {OFF_DIAGONAL_TARGET:g} "
            f"after {DEFAULT_MAX_SWEEPS} sweeps"
        )
    return np.sort(np.diagonal(w).real)[::-1]


def spectrum_report(eigenvalues: Union[np.ndarray, Sequence[float]]) -> SpectrumReport:
    """Validate, clamp and sort density-matrix eigenvalues into a report.

    Values in [-1e-12, 0) are clamped to zero; anything more negative, or a
    sum away from one beyond 1e-10, signals a broken reduction and raises.
    """
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))[::-1].copy()
    if eigs.size and eigs[-1] < -NEGATIVE_CLAMP:
        raise InvariantError(f"eigenvalue {eigs[-1]!r} below -{NEGATIVE_CLAMP:g}; reduction is broken")
    eigs[eigs < 0.0] = 0.0
    total = float(eigs.sum())
    if not abs(total - 1.0) <= 1e-10:  # NaN fails too
        raise InvariantError(f"eigenvalues sum to {total!r}, expected 1 within 1e-10")
    return SpectrumReport(eigs)


def _block_environment(state: PureState, block: Sequence[int]) -> np.ndarray:
    """Reshape the phase codes to a (block, environment) matrix for a contiguous block."""
    positions = list(block)
    if not positions:
        raise ValueError("block must contain at least one site")
    if positions != list(range(positions[0], positions[-1] + 1)):
        raise ValueError(f"block positions {positions} are not a contiguous ascending range")
    if positions[0] < 0 or positions[-1] >= len(state.dims):
        raise ValueError(f"block positions {positions} outside chain of {len(state.dims)} slots")
    env = [i for i in range(len(state.dims)) if i not in positions]
    tensor = state.codes.reshape(state.dims).transpose(positions + env)
    d_block = math.prod(state.dims[i] for i in positions)
    return tensor.reshape(d_block, -1)


def reduced_density(
    state: PureState,
    block: Sequence[int],
    matrix_budget: int = DEFAULT_MATRIX_BUDGET,
) -> DensityMatrix:
    """Partial trace of |state><state| onto a contiguous block of slots.

    `block` lists 0-based slot positions.  Tracing out nothing (the full
    chain) is allowed and returns the pure projector.  An n = 2 state gives
    a real matrix.
    """
    m = _block_environment(state, block)
    if m.shape[0] > matrix_budget:
        raise BudgetError(f"block dimension {m.shape[0]} exceeds matrix budget {matrix_budget}")
    return DensityMatrix(_gram(m, state.table, on_rows=True))


def _sector_spectra(state: PureState, block: Sequence[int], m: np.ndarray) -> Iterator[np.ndarray]:
    """Eigenvalues of the Gram of each charge sector of m, the state's (block,
    environment) code matrix, on the sector's smaller side, one Gram held at
    a time.  m's longer side is a head, its longest leading run of slots
    with product H <= min(long / side, sqrt(long)), times a tail: sector c
    gathers, per head charge a, the head and tail rows of charges a and
    -(c + a) (`states.charges`), and sums these pieces' Grams, or joins them
    if the Gram is on its longer part.  A square m has H = 1: one piece,
    m[np.ix_(rows, cols)].  Raises InvariantError, after the last sector, if
    the sectors hold fewer nonzeros than the state."""
    n, dims, table = state.n, state.dims, state.table
    env = [i for i in range(len(dims)) if i not in block]
    tall = m.shape[0] > m.shape[1]
    short, long, wide = (env, list(block), m.T) if tall else (list(block), env, m)
    side, length = wide.shape
    runs = np.cumprod([dims[i] for i in long])  # products of the leading runs
    k = int(np.count_nonzero((side * runs <= length) & (runs * runs <= length)))
    view = wide.reshape(side, int(runs[k - 1]) if k else 1, -1)  # a view, never a copy
    groups = [charges(n, dims, slots) for slots in (short, long[:k], long[k:])]
    sides, heads, tails = ([np.flatnonzero(q == c) for c in range(n * n)] for q in groups)
    nonzeros = 0
    for c, rows in enumerate(sides):
        cols = [(h, t) for a, h in enumerate(heads)
                for t in [tails[-(c // n + a // n) % n * n + -(c + a) % n]] if h.size and t.size]
        if not rows.size or not cols:
            continue
        pieces = [view[rows[:, None, None], h[:, None], t].reshape(rows.size, -1) for h, t in cols]
        nonzeros += sum(map(np.count_nonzero, pieces))
        on_rows = rows.size <= sum(p.shape[1] for p in pieces)
        if not on_rows and len(pieces) > 1:
            pieces = [np.concatenate(pieces, axis=1)]
        # no name holds the Gram, so it is freed before the next one is formed
        yield jacobi_eigvalsh(functools.reduce(np.add, (_gram(p, table, on_rows) for p in pieces)))
    total = np.count_nonzero(state.codes)
    if nonzeros != total:
        raise InvariantError(f"{total - nonzeros} of {total} nonzero amplitudes cross "
                             f"the Z_n x Z_n charge sectors")


def _gram(codes: np.ndarray, table: np.ndarray, on_rows: bool) -> np.ndarray:
    """Gram matrix of the decoded matrix D = table[codes]: D D^dagger if
    `on_rows`, else D^dagger D.

    Both are E^dagger E for E = D, or E = conj(D^T) read through the
    conjugate table, with the Gram side as E's columns.  E is decoded in
    chunks of whole rows into one reused buffer: GRAM_CHUNK entries, or 8
    Gram sides if longer, up to 8 * GRAM_CHUNK entries.  A chunk's Gram is
    one real symmetric product R^T R of its float64 view R (E itself for a
    real table; for a complex one, R's columns hold the real and imaginary
    parts of E's in turn), and the chunk products are summed in order.  The
    complex Gram is (S_rr + S_ii) + i (S_ri - S_ir) in the even/odd blocks
    of that sum S, exactly Hermitian.  An E that fits one chunk is decoded
    whole and makes one such product.  Only an E whose float64 view R has
    fewer rows than columns, so that R^T R would be larger than R, is
    multiplied as decoded, D D^dagger or D^dagger D: as in the edge states'
    reduction to their bulk slots, or a square complex E.
    """
    e, values = (codes.T, table.conj()) if on_rows else (codes, table)
    length, side = e.shape
    width = side * values.itemsize // 8  # columns of R
    if length < width:
        d = values[e]
        return d.conj().T @ d  # d.T @ d for a real table: conj() returns d itself
    step = min(length, max(GRAM_CHUNK // side, min(8 * side, 8 * GRAM_CHUNK // side)))
    if step == length:
        r = values[np.ascontiguousarray(e)].view(np.float64)  # the view needs C order
        total = r.T @ r
        del r  # the decoded E is freed before the complex Gram is assembled
    else:
        index = np.empty((step, side), dtype=np.intp)  # else np.take allocates one per chunk
        buf = np.empty((step, side), dtype=values.dtype)
        total, product = np.zeros((width, width)), np.empty((width, width))
        for lo in range(0, length, step):
            rows = min(step, length - lo)
            index[:rows] = e[lo:lo + rows]
            # mode="clip" writes into `buf` directly; the default mode buffers a copy
            r = np.take(values, index[:rows], out=buf[:rows], mode="clip").view(np.float64)
            total += np.matmul(r.T, r, out=product)
    if not np.iscomplexobj(values):
        return total
    gram = np.empty((side, side), dtype=complex)
    gram.real = total[0::2, 0::2] + total[1::2, 1::2]
    gram.imag = total[0::2, 1::2] - total[1::2, 0::2]
    return gram


def block_spectrum(
    state: PureState,
    block: Sequence[int],
    matrix_budget: int = DEFAULT_MATRIX_BUDGET,
) -> SpectrumReport:
    """Spectrum of the block reduction, diagonalizing the smaller Gram side.

    When the smaller side of the (block, environment) matrix exceeds
    SPLIT_MIN_SIDE and the matrix has more than SPLIT_MIN_ENTRIES entries,
    each charge sector (`_sector_spectra`) is diagonalized on its own smaller
    side; the eigenvalues are padded with exact zeros to the smaller side of
    the whole matrix.
    """
    m = _block_environment(state, block)
    d_block, d_env = m.shape
    side = min(d_block, d_env)
    if side > matrix_budget:
        raise BudgetError(
            f"both sides ({d_block}, {d_env}) exceed matrix budget {matrix_budget}"
        )
    if side > SPLIT_MIN_SIDE and m.size > SPLIT_MIN_ENTRIES:
        found = np.concatenate(list(_sector_spectra(state, block, m)))
    else:
        found = jacobi_eigvalsh(_gram(m, state.table, on_rows=d_block <= d_env))
    return spectrum_report(np.concatenate([found, np.zeros(side - found.size)]))


def von_neumann(report: SpectrumReport) -> float:
    """-sum(lambda log lambda) in nats, with 0 log 0 taken as 0."""
    total = float(report.eigenvalues.sum())
    if not abs(total - 1.0) <= 1e-10:
        raise InvariantError(f"eigenvalues sum to {total!r}, expected 1 within 1e-10")
    pos = report.eigenvalues[report.eigenvalues > 0.0]
    return float(-(pos * np.log(pos)).sum())


def renyi(report: SpectrumReport, alpha: Union[float, complex]) -> Union[float, complex]:
    """Renyi entropy log(sum lambda**alpha) / (1 - alpha), natural log.

    alpha is validated by `weyl._check_order`.  Zero eigenvalues are excluded
    from the power sum, whose log `weyl._log_power_sum` takes; a complex
    alpha where it vanishes raises BranchPointCondition: the entropy is
    undefined on a branch point.
    """
    alpha = _check_order(alpha)
    pos = report.eigenvalues[report.eigenvalues > 0.0]
    if isinstance(alpha, complex):
        total = complex(np.exp(alpha * np.log(pos)).sum())
    else:
        total = float((pos ** alpha).sum())
    return _log_power_sum(total, alpha, pos) / (1.0 - alpha)
