"""Brute-force reference computations from explicit state vectors.

Everything in this module is derived directly from state vectors: partial
traces, Hermitian spectra via cyclic Jacobi rotations, and entropies from
eigenvalue lists.  No analytic shortcut from elsewhere in the package is
used here, so results from this module serve as ground truth against the
closed forms.

Spectra of a block are computed, by default, on whichever side of the
bipartition is smaller: for a unit vector reshaped to a (block, environment)
matrix M, the nonzero eigenvalues of M M^dagger and M^dagger M coincide.
When that smaller side exceeds SPLIT_MIN_SIDE, M is first split into the
connected components of its nonzero pattern (rows and columns linked by a
nonzero entry).  The components share no row or column, so the Gram is
their direct sum up to a permutation: each is diagonalized on its own
smaller side, and the remaining eigenvalues are exact zeros.  The split
reads only the pattern of M, never the closed forms.

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

import cmath
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .errors import BranchPointCondition, BudgetError, ConvergenceError, InvariantError
from .states import PureState, SiteBasis

#: Default cap on the dimension of any materialized density/Gram matrix.
DEFAULT_MATRIX_BUDGET = 4096

#: Smaller (block, environment) side above which `block_spectrum` splits the
#: matrix into independent blocks.  Finding them reads all of the matrix: at
#: side 81 that costs twice the whole Gram and Jacobi, at 243 it breaks even,
#: and from 512 up the split at least halves the time (geometric mean: 360).
SPLIT_MIN_SIDE = 360

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
    """Hermitian, trace-one matrix over a labelled block basis."""

    sites: Tuple[SiteBasis, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = math.prod(s.dim for s in self.sites)
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match block dimension {dim}")
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


def _block_environment(state: PureState, block: Sequence[int]) -> Tuple[np.ndarray, Tuple[SiteBasis, ...]]:
    """Reshape the phase codes to a (block, environment) matrix for a contiguous block."""
    positions = list(block)
    if not positions:
        raise ValueError("block must contain at least one site")
    if positions != list(range(positions[0], positions[-1] + 1)):
        raise ValueError(f"block positions {positions} are not a contiguous ascending range")
    if positions[0] < 0 or positions[-1] >= state.num_sites:
        raise ValueError(f"block positions {positions} outside chain of {state.num_sites} slots")
    env = [i for i in range(state.num_sites) if i not in positions]
    tensor = state.codes.reshape(state.dims).transpose(positions + env)
    d_block = math.prod(state.dims[i] for i in positions)
    return tensor.reshape(d_block, -1), tuple(state.sites[i] for i in positions)


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
    m, sites = _block_environment(state, block)
    if m.shape[0] > matrix_budget:
        raise BudgetError(f"block dimension {m.shape[0]} exceeds matrix budget {matrix_budget}")
    return DensityMatrix(sites, _gram(m, state.table, on_rows=True))


def _independent_blocks(m: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Row and column index sets of the connected components of m's nonzero pattern.

    m holds phase codes, whose pattern is the amplitudes' pattern.  Row i and
    column j are linked when m[i, j] != 0, so the blocks share no
    row or column and the Gram of m is their direct sum up to a permutation.
    All-zero rows and columns belong to no block.  Each row is labelled by
    the least row index it reaches: labels spread row -> column -> row by
    vectorized min-propagation with pointer jumping until they settle.
    Blocks come out ordered by their least row index.
    """
    rows, cols = np.nonzero(m)
    d_rows, d_cols = m.shape
    label = np.arange(d_rows)
    while True:
        col_label = np.full(d_cols, d_rows)
        np.minimum.at(col_label, cols, label[rows])
        settled = label.copy()
        np.minimum.at(settled, rows, col_label[cols])
        settled = settled[settled]
        if np.array_equal(settled, label):
            break
        label = settled

    def groups(labels: np.ndarray, members: np.ndarray) -> List[np.ndarray]:
        members = members[np.argsort(labels[members], kind="stable")]
        return np.split(members, np.flatnonzero(np.diff(labels[members])) + 1)

    row_members = np.flatnonzero(np.bincount(rows, minlength=d_rows))
    col_members = np.flatnonzero(col_label < d_rows)
    return list(zip(groups(label, row_members), groups(col_label, col_members)))


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
    of that sum S, exactly Hermitian.  An E that is one chunk, or that has
    fewer rows than columns (a Gram larger than E), is decoded whole and
    multiplied once.
    """
    e, values = (codes.T, table.conj()) if on_rows else (codes, table)
    length, side = e.shape
    step = min(length, max(GRAM_CHUNK // side, min(8 * side, 8 * GRAM_CHUNK // side)))
    if step == length or length < side:
        d = values[e]
        return d.conj().T @ d  # d.T @ d for a real table: conj() returns d itself
    index = np.empty((step, side), dtype=np.intp)  # else np.take allocates one per chunk
    buf = np.empty((step, side), dtype=values.dtype)
    width = buf.view(np.float64).shape[1]
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
    SPLIT_MIN_SIDE, each independent block of its nonzero pattern is
    diagonalized on its own smaller side; the eigenvalues are padded with
    exact zeros to the smaller side of the whole matrix.
    """
    m, _ = _block_environment(state, block)
    d_block, d_env = m.shape
    side = min(d_block, d_env)
    if side > matrix_budget:
        raise BudgetError(
            f"both sides ({d_block}, {d_env}) exceed matrix budget {matrix_budget}"
        )
    table = state.table
    # one block at a time: np.ix_ copies only the block's codes, not its whole rows
    blocks = ((m[np.ix_(rows, cols)] for rows, cols in _independent_blocks(m))
              if side > SPLIT_MIN_SIDE else (m,))
    found = np.concatenate([
        jacobi_eigvalsh(_gram(b, table, on_rows=b.shape[0] <= b.shape[1]))
        for b in blocks])
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

    Real alpha must be positive and not 1; complex alpha must have positive
    real part.  Zero eigenvalues are excluded from the power sum.  For
    complex alpha a vanishing power sum (within 1e-14) raises
    BranchPointCondition: the entropy is undefined on a branch point.
    """
    if isinstance(alpha, complex) and alpha.imag == 0.0:
        alpha = alpha.real
    pos = report.eigenvalues[report.eigenvalues > 0.0]
    if isinstance(alpha, complex):
        if alpha.real <= 0.0:
            raise ValueError(f"complex order must have positive real part, got {alpha!r}")
        power_sum = complex(np.exp(alpha * np.log(pos)).sum())
        if abs(power_sum) < 1e-14:
            raise BranchPointCondition(f"power sum vanished at order {alpha!r}")
        return cmath.log(power_sum) / (1.0 - alpha)
    if alpha == 1.0:
        raise ValueError("order 1 is the von Neumann limit; use von_neumann")
    if alpha <= 0.0:
        raise ValueError(f"order must be positive, got {alpha!r}")
    power_sum = float((pos ** alpha).sum())
    return math.log(power_sum) / (1.0 - alpha)
