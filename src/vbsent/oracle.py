"""Brute-force reference computations from explicit state vectors.

Everything in this module is derived directly from state vectors: partial
traces, Hermitian spectra via cyclic Jacobi rotations, exact block spectra
from counts of phase codes, and entropies.  No analytic shortcut from
elsewhere in the package is used here, so results from this module serve as
ground truth against the closed forms.

Both block routes return only the nonzero eigenvalues, descending.  The
float route passes its eigenvalues through `spectrum_report`, the one place
that decides which are zero: those at or below RANK_CUTOFF, the rounding
that a rank-deficient Gram leaves in its null space.  The entropies read
their input through it too.

Spectra of a block are computed on whichever side of the bipartition is
smaller: for a unit vector reshaped to a (block, environment) matrix M, the
nonzero eigenvalues of M M^dagger and M^dagger M coincide.  Both routes turn
M once (to M^T if the environment is smaller) so that its smaller side is on
the rows.  Every nonzero amplitude has Z_n x Z_n charge 0
(`states.charges`), so a nonzero entry links only a row and a column of
equal charge, and M is the direct sum of its n^2 charge sectors up to a
permutation (`_split`).  Both routes certify that the sectors hold every
nonzero of the state, or raise InvariantError.  The charges come from the
slot encoding alone.

* `block_spectrum`, the float route, diagonalizes the row Gram D D^dagger of
  the turned matrix.  When its smaller side exceeds SPLIT_MIN_SIDE and M has
  more than SPLIT_MIN_ENTRIES entries, each sector's Gram is diagonalized on
  its own (`_sector_spectra`).
* `exact_block_spectrum`, the exact route, forms no matrix.  It reads the
  codes once, in chunks, handing each sector its part (`_read_sectors`),
  and checks each sector against the codes that its rank-one law predicts
  from one anchor row and column (`_Sector`).  A sector's one eigenvalue is
  then the Fraction nnz_s / nnz(state) of two counts.

M itself holds the state's phase codes (see `states`), reshaped and
transposed: one byte per entry.  Every Gram, and every reduced density
matrix, decodes its code matrix in chunks of whole columns into one reused
buffer through the state's table of n + 1 amplitudes (real at n = 2, so
an n = 2 Gram is real) and sums the chunk Grams (`_gram`).  A decoded array
is one chunk, or a whole M smaller than its Gram, never a whole state near
the budget; and each chunk sum is short, so the Gram's rounding does not
grow with the state.  All reductions use a fixed chunking and numpy
contraction order, so repeated runs are bit-identical.

`jacobi_eigvalsh` is the plain cyclic sweep: it visits every pivot of the
strict upper triangle in row order and rotates the live ones, those above
its skip threshold.  A rotation computes the two new rows and mirrors their
conjugates into the two columns, which relies on the matrix staying exactly
Hermitian: conjugation commutes exactly with IEEE complex products and
sums, so every eigenvalue is that of the two-column, two-row update.

The invariant checks (Hermiticity and unit trace of a density matrix; no
eigenvalue below -1e-12 and a sum within 1e-10 of one; the sector
certificates) raise `errors.InvariantError`: a failure means the
computation is broken.  Each is written `not deviation <= bound`, so a NaN
deviation fails it.  Hermiticity is measured in row blocks
(`hermitian_deviation`), with no full-size difference matrix.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple, Union

from ._numpy import np
from .errors import BudgetError, ConvergenceError, InvariantError
from .states import PureState, charges
from .weyl import _check_budget, _check_int, _check_order, _log_power_sum

#: Default cap on the dimension of any materialized density/Gram matrix.
DEFAULT_MATRIX_BUDGET = 4096

#: `block_spectrum` splits a (block, environment) matrix into its charge
#: sectors only if its smaller side exceeds SPLIT_MIN_SIDE and its entries
#: exceed SPLIT_MIN_ENTRIES: on smaller ones (timed: sides 3-12, or up to 54k
#: entries) the split's n^4 gathers and n^2 Jacobi calls cost more than they save.
#: Larger ones of side <= 14 stay whole, where the split is faster: at n = 2, side 4,
#: a sector's pieces hold a quarter of the state, and gathered one by one they are slower.
SPLIT_MIN_SIDE = 14
SPLIT_MIN_ENTRIES = 1 << 16

#: `spectrum_report` counts eigenvalues at or below RANK_CUTOFF as zero: a
#: rank-deficient reduction leaves rounding-level eigenvalues (down to ~1e-18)
#: that would dominate a Renyi sum at order < 1.  One below -RANK_CUTOFF is an
#: error.
RANK_CUTOFF = 1e-12

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

#: Codes per chunk of the exact route's one read of a code matrix
#: (`_read_sectors`, 256 KiB): a chunk serves every sector at once.  At 64 KiB
#: the n = 4 ring of 6 took up to twice as long; at 512 KiB the peak of the
#: n = 3 ring of 8 passed 1.5 MB.
GATHER_CHUNK = 1 << 18

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
        # a C-ordered copy of the column block's transpose, conjugated and subtracted
        # in place: subtracting the F-ordered view ran four times as long at dim 455
        diff = matrix[:, lo:lo + rows].T.copy()
        np.conjugate(diff, out=diff)
        np.subtract(matrix[lo:lo + rows], diff, out=diff)
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


def jacobi_eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations, descending.

    Each sweep visits every pivot of the strict upper triangle in row order
    and annihilates each live one (of modulus above `skip`, or NaN) with a
    complex plane rotation, until the off-diagonal Frobenius norm falls
    below OFF_DIAGONAL_TARGET.  Raises ConvergenceError if the target is not
    met after DEFAULT_MAX_SWEEPS sweeps, and ValueError for input that is
    not Hermitian within HERMITIAN_TOL.

    w = (a + a^dagger) / 2 is exactly Hermitian, and a rotation keeps it so:
    conjugation commutes exactly with IEEE complex products and sums (up to
    the sign of a zero, which no pivot test or eigenvalue reads).  A
    rotation therefore computes only the new rows p and q, contiguous, and
    writes their conjugates into columns p and q; the 2x2 core is then set
    explicitly.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    herm = hermitian_deviation(a)
    if not herm <= HERMITIAN_TOL:  # NaN fails too
        raise ValueError(f"matrix is not Hermitian within {HERMITIAN_TOL:g}: deviation {herm:.3e}")
    dim = a.shape[0]
    # a C-ordered copy of a^dagger: adding an F-ordered view runs twice as long
    w = (a + a.conj().T.copy()) / 2.0
    # pivots below this cannot collectively push the off-norm above target
    skip = OFF_DIAGONAL_TARGET / (4.0 * max(dim, 1))

    def off_norm() -> float:
        # the norm of w with its diagonal zeroed in place, then restored: no copy of w
        diagonal = w.diagonal().copy()
        np.fill_diagonal(w, 0.0)
        norm = float(np.linalg.norm(w))
        np.fill_diagonal(w, diagonal)
        return norm

    def rotate(p: int, q: int) -> None:
        # factor the pivot phase out, then rotate the real 2x2 core
        b = w[p, q]
        absb = abs(b)
        eip = b / absb
        app = w[p, p].real
        aqq = w[q, q].real
        tau = (aqq - app) / (2.0 * absb)
        t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))  # 1 at tau = +-0
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = t * c
        rowp = w[p].copy()
        w[p] = c * np.conj(eip) * rowp - s * w[q]
        w[q] = s * np.conj(eip) * rowp + c * w[q]
        # w stays exactly Hermitian, so the new columns are the rows' conjugates
        w[:, p] = w[p].conj()
        w[:, q] = w[q].conj()
        w[p, p] = app - t * absb
        w[q, q] = aqq + t * absb
        w[p, q] = 0.0
        w[q, p] = 0.0

    converged = off_norm() < OFF_DIAGONAL_TARGET
    for _ in range(DEFAULT_MAX_SWEEPS):
        if converged:
            break
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                if not abs(w[p, q]) <= skip:  # a NaN pivot stays live
                    rotate(p, q)
        converged = off_norm() < OFF_DIAGONAL_TARGET
    if not converged:
        raise ConvergenceError(
            f"off-diagonal norm {off_norm():.3e} above target {OFF_DIAGONAL_TARGET:g} "
            f"after {DEFAULT_MAX_SWEEPS} sweeps"
        )
    return np.sort(np.diagonal(w).real)[::-1]


def spectrum_report(eigenvalues: Union[np.ndarray, Sequence[float]]) -> np.ndarray:
    """The nonzero eigenvalues of a density matrix, those above RANK_CUTOFF,
    descending.

    Values in [-RANK_CUTOFF, 0) are clamped to zero; anything more negative,
    or a sum away from one beyond 1e-10, signals a broken reduction and raises.
    """
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    if eigs.size and eigs[-1] < -RANK_CUTOFF:
        raise InvariantError(f"eigenvalue {eigs[-1]!r} below -{RANK_CUTOFF:g}; reduction is broken")
    total = float(np.maximum(eigs, 0.0).sum())
    if not abs(total - 1.0) <= 1e-10:  # NaN fails too
        raise InvariantError(f"eigenvalues sum to {total!r}, expected 1 within 1e-10")
    return eigs[eigs > RANK_CUTOFF]


def _block_environment(state: PureState, block: Sequence[int]) -> np.ndarray:
    """Reshape the phase codes to a (block, environment) matrix for a contiguous
    block of integer positions."""
    positions = list(block)
    what = f"block positions {positions} must be integers"
    positions = [_check_int(p, 0, what) for p in positions]
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


def _turned(state: PureState, block: Sequence[int],
            m: np.ndarray) -> Tuple[List[int], List[int], np.ndarray]:
    """(short, long, wide): the (block, environment) code matrix m, turned to
    m^T if the environment is smaller, with the slots of its rows (its
    smaller side) and of its columns."""
    block = [operator.index(p) for p in block]  # positions `_block_environment` accepted
    env = [i for i in range(len(state.dims)) if i not in block]
    if m.shape[0] > m.shape[1]:
        return env, list(block), m.T
    return list(block), env, m


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
    matrix_budget = _check_budget(matrix_budget, "matrix")
    m = _block_environment(state, block)
    if m.shape[0] > matrix_budget:
        raise BudgetError(f"block dimension {m.shape[0]} exceeds matrix budget {matrix_budget}")
    return DensityMatrix(_gram(m, state.table))


def _split(state: PureState, short: Sequence[int], long: Sequence[int], wide: np.ndarray,
           fit: int) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
    """(view, sides, heads, tails): the charge split of `wide`, the code
    matrix with the slots `short` on its rows and `long` on its columns.

    The columns are a head, the longest leading run of slots with product
    H <= min(length / side, sqrt(length)), lengthened until side x tail fits
    `fit` codes, times a tail; `view` is `wide` as (side, H, tail), a view.
    `sides`, `heads` and `tails` list the rows, head rows and tail rows of
    each charge c = l*n + m; sector c meets, under head charge a, the tails
    of charge -(c + a) (`_tail`).
    """
    n, dims = state.n, state.dims
    side, length = wide.shape
    runs = np.cumprod([1] + [dims[i] for i in long])  # products of the leading runs
    k = max(int(np.count_nonzero((side * runs <= length) & (runs * runs <= length))) - 1,
            int(np.count_nonzero(side * length > fit * runs)))
    groups = [charges(n, dims, slots) for slots in (short, long[:k], long[k:])]
    sides, heads, tails = ([np.flatnonzero(q == c) for c in range(n * n)] for q in groups)
    return wide.reshape(side, int(runs[k]), -1), sides, heads, tails


def _tail(n: int, c: int, a: int) -> int:
    """The tail charge -(c + a) that meets row charge c under head charge a."""
    return -(c // n + a // n) % n * n + -(c + a) % n


def _count_certificate(state: PureState, short: Sequence[int], wide: np.ndarray,
                       held: List[int]) -> None:
    """Raises InvariantError if the charge sectors of `wide`, its rows over
    the slots `short`, hold held[c] nonzeros, fewer than the state, naming
    a sector whose rows hold the rest."""
    n, total = state.n, state.nonzeros
    if sum(held) != total:
        row_charges = charges(n, state.dims, short)
        c = next(c for c in range(n * n) if np.count_nonzero(wide[row_charges == c]) != held[c])
        raise InvariantError(f"{total - sum(held)} of {total} nonzero amplitudes cross "
                             f"the Z_n x Z_n charge sectors; the rows of sector "
                             f"{(c // n, c % n)} hold some (count certificate)")


def _sector_spectra(state: PureState, short: Sequence[int], long: Sequence[int],
                    wide: np.ndarray) -> Iterator[np.ndarray]:
    """Eigenvalues of the row Gram of each charge sector of `wide` (`_split`,
    no tail shorter than the side), one Gram held at a time: the sum, in
    order, of its pieces' row Grams, a piece per head charge a (its rows
    over the head rows of charge a times the tails that meet them), each
    freed before the next is gathered.  Then the count certificate."""
    n = state.n
    view, sides, heads, tails = _split(state, short, long, wide, wide.size)
    held = [0] * (n * n)
    for c, rows in enumerate(sides):
        gram = None
        for a, h in enumerate(heads):
            t = tails[_tail(n, c, a)]
            if rows.size and h.size and t.size:
                piece = view[rows[:, None, None], h[:, None], t].reshape(rows.size, -1)
                held[c] += int(np.count_nonzero(piece))
                part = _gram(piece, state.table)
                del piece  # not held while the next piece is gathered
                gram = part if gram is None else gram + part
        if gram is not None:
            yield jacobi_eigvalsh(gram)
            del gram  # freed before the next sector's Gram is formed
    _count_certificate(state, short, wide, held)


def _read_sectors(n: int, view: np.ndarray, sides: List[np.ndarray], heads: List[np.ndarray],
                  tails: List[np.ndarray], sectors: List[_Sector]) -> None:
    """Hands each sector of `view` (`_split`) its codes, read once.

    Per head charge a, the codes under GATHER_CHUNK codes' worth of its head
    rows are copied into one reused buffer, in memory order: (head, tail,
    side) if `view` is transposed, else (head, side, tail).  One take into
    another then picks, under each head row, every sector's rows at the
    tails that meet them.  A one-row sector counts its span's nonzeros.  Any
    other gets its spans as (rows, head rows x tails) pieces of at least
    GATHER_CHUNK / n^2 codes, short ones joined (`_Sector.add`).
    """
    side, H, T = view.shape
    step = max(1, min(GATHER_CHUNK // (side * T), max(h.size for h in heads)))
    if view.strides[0] < view.strides[2]:  # a line of memory per head row
        lines, down, along, per = view.transpose(1, 2, 0).reshape(H, -1), 1, side, 1
    else:  # a line per row and head row
        lines, down, along, per = view.reshape(-1, T), T, 1, side
    meets = [[(c, rows, t) for c, rows in enumerate(sides)
              for t in [tails[_tail(n, c, a)]] if rows.size and t.size and h.size]
             for a, h in enumerate(heads)]
    copied = np.empty((step, side * T), dtype=view.dtype)
    taken = np.empty(step * max(sum(rows.size * t.size for _, rows, t in m) for m in meets),
                     dtype=view.dtype)
    parts: List[List[np.ndarray]] = [[] for _ in sides]
    held = [0] * len(sides)
    for h, meet in zip(heads, meets):
        bounds = np.cumsum([0] + [rows.size * t.size for _, rows, t in meet])
        index = np.empty(bounds[-1], dtype=np.intp)
        for (_, rows, t), start, stop in zip(meet, bounds, bounds[1:]):
            np.add.outer(rows * down, t * along, out=index[start:stop].reshape(rows.size, -1))
        for lo in range(0, h.size if meet else 0, step):
            hs = h[lo:lo + step]
            # mode="clip" writes into the buffers directly; the default mode buffers a copy
            np.take(lines, (hs[:, None] + np.arange(per) * H).ravel(), axis=0, mode="clip",
                    out=copied[:hs.size].reshape(-1, lines.shape[1]))
            out = np.take(copied[:hs.size], index, axis=1, mode="clip",
                          out=taken[:hs.size * index.size].reshape(hs.size, -1))
            for (c, rows, t), start, stop in zip(meet, bounds, bounds[1:]):
                if rows.size == 1:
                    sectors[c].nonzeros += int(np.count_nonzero(out[:, start:stop]))
                    continue
                part = out[:, start:stop].reshape(hs.size, rows.size, t.size).transpose(1, 0, 2)
                parts[c].append(part.copy().reshape(rows.size, -1))  # no part holds `taken`
                held[c] += part.size
                if held[c] >= GATHER_CHUNK // (n * n):
                    sectors[c].add(np.concatenate(parts[c], axis=1))
                    parts[c], held[c] = [], 0
    for sector, joined in zip(sectors, parts):
        if joined:
            sector.add(np.concatenate(joined, axis=1))


def _phase_table(n: int, anchor: int, dtype: np.dtype) -> np.ndarray:
    """The (n + 1) x (n + 1) codes that the rank-one law predicts from a
    column code x and a row code y when their shared anchor has code
    `anchor`: 0 if x or y is, else the code of phase x + y - anchor - 1."""
    k = np.arange(n + 1)
    table = (k[:, None] + k - anchor - 1) % n + 1
    table[0] = table[:, 0] = 0
    return table.astype(dtype)


class _Sector:
    """The nonzero count of one charge sector, certified rank one.

    Its entries are scale * omega**k_ij on their support, and it is rank one
    iff the support is a full rectangle R x C with k_ij = a_i + b_j (mod n)
    on it.  A single row always is: it only counts (`nonzeros`).  Otherwise
    each piece holds every row (`add`).  The first largest code of the first
    piece with a nonzero is the anchor, at row i0 and column j0.  Its column
    u and a piece's row i0 predict every code of the piece
    (`_phase_table`): zero off u's rows and row i0's columns, else phase
    u_i + k_i0j - k_i0j0.  The sector is rank one iff every piece is its
    prediction, and then holds |R| |C| nonzeros; else it has `failed`.
    """

    def __init__(self, n: int) -> None:
        self.n, self.nonzeros, self.table, self.failed = n, 0, None, False

    def add(self, piece: np.ndarray) -> None:
        if self.table is None:
            i0, j0 = divmod(int(piece.argmax()), piece.shape[1])
            if not piece[i0, j0]:
                return  # no nonzero to anchor on yet
            self.i0, self.column = i0, piece[:, j0].copy()  # no view holds the piece
            self.table = _phase_table(self.n, int(piece[i0, j0]), piece.dtype)
            self.height = int(np.count_nonzero(self.column))
        row = piece[self.i0]
        predicted = np.take(np.take(self.table, row, axis=1), self.column, axis=0)
        self.failed |= not np.array_equal(predicted, piece)
        self.nonzeros += self.height * int(np.count_nonzero(row))


def _refute(state: PureState, short: Sequence[int], long: Sequence[int], wide: np.ndarray,
            c: int) -> None:
    """Raises the InvariantError of sector c of `wide` (its rows over the
    slots `short`, its columns over `long`), which is not rank one: the
    phase certificate if a nonzero has another nonzero code than its
    anchor predicts (`_Sector`), else the rectangle certificate, with the
    sector's nonzeros, nonzero rows and nonzero columns."""
    n = state.n
    sector = wide[np.ix_(charges(n, state.dims, short) == c,
                         charges(n, state.dims, long) == _tail(n, c, 0))]
    i0, j0 = divmod(int(sector.argmax()), sector.shape[1])
    table = _phase_table(n, int(sector[i0, j0]), sector.dtype)
    predicted, support = table[np.ix_(sector[:, j0], sector[i0])], sector != 0
    if np.any((predicted != sector) & (predicted != 0) & support):
        raise InvariantError(f"sector {(c // n, c % n)} is not rank one: a phase breaks "
                             f"k_ij = a_i + b_j (mod n) (phase certificate)")
    rows, columns = (np.count_nonzero(support.any(axis=k)) for k in (1, 0))
    raise InvariantError(f"sector {(c // n, c % n)} is not rank one: its "
                         f"{np.count_nonzero(support)} nonzeros do not fill the {rows} x "
                         f"{columns} rectangle of their rows and columns (rectangle certificate)")


def exact_block_spectrum(state: PureState, block: Sequence[int]) -> List[Fraction]:
    """The nonzero eigenvalues of the block reduction, exact, descending.

    Every charge sector of the code matrix, split at any size with
    side x tail fitting GATHER_CHUNK, is read once (`_read_sectors`) from
    the turned matrix, or a square one's transpose, whose head rows' codes
    are runs of memory, and certified rank one (`_Sector`), with eigenvalue
    scale^2 * |R| * |C|.  Every nonzero amplitude has modulus scale, so
    scale^2 = 1 / nnz(state), and the eigenvalue is the Fraction
    nnz_s / nnz(state) of two counts.  The count certificate then checks
    that the sectors hold every nonzero.  No matrix is formed, so no matrix
    budget applies.  Raises InvariantError if a certificate fails, naming
    the sector by the charge of the turned matrix's rows, the first such
    sector that is not rank one (`_refute`) before the count.
    """
    n = state.n
    m = _block_environment(state, block)
    short, long, wide = _turned(state, block, m)
    flip = m.shape[0] == m.shape[1]  # `_turned` keeps a square matrix
    read = (long, short, m.T) if flip else (short, long, wide)
    view, sides, heads, tails = _split(state, *read, GATHER_CHUNK)
    sectors = [_Sector(n) for _ in sides]
    _read_sectors(n, view, sides, heads, tails, sectors)
    held = []
    for c in range(n * n):  # a flipped sector's rows carry the charge of wide's columns
        sector = sectors[_tail(n, c, 0) if flip else c]
        if sector.failed:
            _refute(state, short, long, wide, c)
        held.append(sector.nonzeros)
    _count_certificate(state, short, wide, held)
    return sorted((Fraction(count, state.nonzeros) for count in held if count), reverse=True)


def _gram(codes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row Gram matrix D D^dagger of the decoded matrix D = table[codes].

    It is E^dagger E for E = conj(D^T), read through the conjugate table,
    with the Gram side as E's columns.  E is decoded in chunks of whole rows
    into one reused buffer: GRAM_CHUNK entries, or 8 Gram sides if longer, up
    to 8 * GRAM_CHUNK entries.  A chunk's Gram is one real symmetric product
    R^T R of its float64 view R (E itself for a real table; for a complex
    one, R's columns hold the real and imaginary parts of E's in turn), and
    the chunk products are summed in order.  The complex Gram is
    (S_rr + S_ii) + i (S_ri - S_ir) in the even/odd blocks of that sum S,
    exactly Hermitian.  An E that fits one chunk is the loop run once.  Only
    an E whose float64 view R has fewer rows than columns, so that R^T R
    would be larger than R, is multiplied as decoded: as in the edge states'
    reduction to their bulk slots, or a square complex E.
    """
    e, values = codes.T, table.conj()
    length, side = e.shape
    width = side * values.itemsize // 8  # columns of R
    if length < width:
        d = values[e]
        return d.conj().T @ d  # d.T @ d for a real table: conj() returns d itself
    step = min(length, max(GRAM_CHUNK // side, min(8 * side, 8 * GRAM_CHUNK // side)))
    index = np.empty((step, side), dtype=np.intp)  # else np.take allocates one per chunk
    buf = np.empty((step, side), dtype=values.dtype)
    total, product = np.zeros((width, width)), np.empty((width, width))
    for lo in range(0, length, step):
        rows = min(step, length - lo)
        index[:rows] = e[lo:lo + rows]
        # mode="clip" writes into `buf` directly; the default mode buffers a copy
        r = np.take(values, index[:rows], out=buf[:rows], mode="clip").view(np.float64)
        total += np.matmul(r.T, r, out=product)
    del index, buf, r, product  # freed before the complex Gram is assembled
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
) -> np.ndarray:
    """The nonzero eigenvalues of the block reduction, descending
    (`spectrum_report`), from the row Gram of the (block, environment) code
    matrix M, turned once (to M^T if the environment is smaller) so that its
    smaller side is on the rows.  When that side exceeds SPLIT_MIN_SIDE and M
    has more than SPLIT_MIN_ENTRIES entries, each charge sector
    (`_sector_spectra`) is diagonalized on its own.
    """
    matrix_budget = _check_budget(matrix_budget, "matrix")
    m = _block_environment(state, block)
    short, long, wide = _turned(state, block, m)
    side = wide.shape[0]
    if side > matrix_budget:
        raise BudgetError(f"both sides {m.shape} exceed matrix budget {matrix_budget}")
    if side > SPLIT_MIN_SIDE and m.size > SPLIT_MIN_ENTRIES:
        found = np.concatenate(list(_sector_spectra(state, short, long, wide)))
    else:
        found = jacobi_eigvalsh(_gram(wide, state.table))
    return spectrum_report(found)


def von_neumann(eigenvalues: Union[np.ndarray, Sequence[float]]) -> float:
    """-sum(lambda log lambda) in nats over the nonzero eigenvalues
    (`spectrum_report`)."""
    pos = spectrum_report(eigenvalues)
    return float(-(pos * np.log(pos)).sum())


def renyi(eigenvalues: Union[np.ndarray, Sequence[float]],
          alpha: Union[float, complex]) -> Union[float, complex]:
    """Renyi entropy log(sum lambda**alpha) / (1 - alpha), natural log.

    alpha is validated by `weyl._check_order`.  The power sum runs over the
    nonzero eigenvalues (`spectrum_report`), and `weyl._log_power_sum` takes
    its log; a complex alpha where it vanishes raises BranchPointCondition:
    the entropy is undefined on a branch point.
    """
    alpha = _check_order(alpha)
    pos = spectrum_report(eigenvalues)
    if isinstance(alpha, complex):
        total = complex(np.exp(alpha * np.log(pos)).sum())
    else:
        total = float((pos ** alpha).sum())
    return _log_power_sum(total, alpha, pos) / (1.0 - alpha)
