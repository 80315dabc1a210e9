import functools
import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbsent import closed_form, oracle
from vbsent.checks import CHECKS, run_checks
from vbsent.edges import edge_basis
from vbsent.errors import BranchPointCondition, BudgetError, ConvergenceError, InvariantError
from vbsent.oracle import (
    DensityMatrix,
    block_spectrum,
    jacobi_eigvalsh,
    reduced_density,
    renyi,
    spectrum_report,
    von_neumann,
)
from vbsent.states import (
    OPEN,
    PERIODIC,
    ChainSpec,
    PureState,
    charges,
    open_vbs_state,
    periodic_vbs_state,
    phase_table,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def random_hermitian(dim, seed=0):
    a = rng(seed).normal(size=(dim, dim)) + 1j * rng(seed + 1).normal(size=(dim, dim))
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------- eigensolver

def test_jacobi_diagonal_input():
    assert np.allclose(jacobi_eigvalsh(np.diag([0.7, 0.3])), [0.7, 0.3])


def test_jacobi_scaled_identity():
    n2 = 9
    eigs = jacobi_eigvalsh(np.eye(n2) / n2)
    assert np.allclose(eigs, np.full(n2, 1 / n2))


@pytest.mark.parametrize("dim,seed", [(4, 1), (9, 2), (16, 3)])
def test_jacobi_recovers_constructed_spectrum(dim, seed):
    lam = np.sort(rng(seed).uniform(-2, 2, size=dim))[::-1]
    q, _ = np.linalg.qr(rng(seed + 10).normal(size=(dim, dim))
                        + 1j * rng(seed + 11).normal(size=(dim, dim)))
    h = q @ np.diag(lam) @ q.conj().T
    assert np.abs(jacobi_eigvalsh(h) - lam).max() < 1e-11


@given(st.integers(2, 10), st.integers(0, 1000))
def test_jacobi_agrees_with_lapack(dim, seed):
    h = random_hermitian(dim, seed)
    ours = jacobi_eigvalsh(h)
    reference = np.sort(np.linalg.eigvalsh(h))[::-1]
    assert np.abs(ours - reference).max() < 1e-11


@given(st.integers(1, 10), st.integers(0, 1000))
def test_jacobi_is_bit_identical_on_the_conjugate(dim, seed):
    # block_spectrum takes a column Gram as the row Gram of the transpose,
    # its exact conjugate
    h = random_hermitian(dim, seed)
    assert jacobi_eigvalsh(h.conj()).tobytes() == jacobi_eigvalsh(h).tobytes()


@given(st.floats(-1e300, 1e300),
       st.floats(-oracle.HERMITIAN_TOL / 4, oracle.HERMITIAN_TOL / 4))
def test_jacobi_of_a_1x1_matrix_is_its_real_part(real, imag):
    # already diagonal: the general loop returns it after zero sweeps, exactly
    # (a -0.0 comes back as 0.0: the halving is a complex division; a Gram's
    # diagonal, a sum of squares, is never -0.0)
    a00 = complex(real, imag)
    eigs = jacobi_eigvalsh(np.array([[a00]]))
    assert eigs.dtype == np.float64 and eigs.tolist() == [a00.real]


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(ValueError):
        jacobi_eigvalsh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        jacobi_eigvalsh(np.zeros((2, 3)))


def test_jacobi_empty_matrix():
    # the general path: no pivots, an off-diagonal norm of 0, no sweeps
    eigs = jacobi_eigvalsh(np.zeros((0, 0)))
    assert eigs.dtype == np.float64 and eigs.shape == (0,)


def test_jacobi_sweep_limit(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_MAX_SWEEPS", 0)
    h = random_hermitian(6, 5)
    with pytest.raises(ConvergenceError):
        jacobi_eigvalsh(h)
    # an already diagonal matrix needs no sweeps at all
    jacobi_eigvalsh(np.diag([0.5, 0.5]))


def per_pivot_jacobi(matrix):
    """The cyclic sweep visiting every pivot and updating two columns and two
    rows per rotation: the reference the row-only update must reproduce bit
    for bit."""
    w = np.asarray(matrix, dtype=complex)
    w = (w + w.conj().T) / 2.0
    dim = w.shape[0]
    skip = oracle.OFF_DIAGONAL_TARGET / (4.0 * dim)

    def off_norm():
        off = w.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    converged = off_norm() < oracle.OFF_DIAGONAL_TARGET
    for _ in range(oracle.DEFAULT_MAX_SWEEPS):
        if converged:
            break
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                b = w[p, q]
                absb = abs(b)
                if absb <= skip:
                    continue
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
        converged = off_norm() < oracle.OFF_DIAGONAL_TARGET
    assert converged
    return np.sort(np.diagonal(w).real)[::-1]


@settings(max_examples=16)
@given(st.one_of(st.integers(2, 8), st.integers(31, 34)),
       st.integers(1, 34), st.booleans(),
       st.sampled_from([1.0, 0.3, 0.03]), st.integers(0, 2**16))
def test_jacobi_is_bit_identical_to_the_per_pivot_loop(dim, rank, is_complex, density, seed):
    # a Gram of the drawn rank, kept on a random symmetric pattern of the
    # drawn density, so that rows hold few or many live pivots
    r = rng(seed)
    x = r.normal(size=(dim, min(rank, dim)))
    if is_complex:
        x = x + 1j * r.normal(size=x.shape)
    mask = r.random((dim, dim)) < density
    h = (x @ x.conj().T) * (mask | mask.T | np.eye(dim, dtype=bool))
    assert jacobi_eigvalsh(h).tobytes() == per_pivot_jacobi(h).tobytes()


def test_jacobi_is_bit_identical_to_the_per_pivot_loop_on_a_rank_1_gram():
    # the shape of a split block's sector Grams: row 0 is all live, the rest clean
    v = rng(7).normal(size=456) + 1j * rng(8).normal(size=456)
    h = np.outer(v, v.conj()) / np.vdot(v, v).real
    assert jacobi_eigvalsh(h).tobytes() == per_pivot_jacobi(h).tobytes()


def test_jacobi_is_bit_identical_to_the_per_pivot_loop_on_the_verify_grid(monkeypatch):
    dims = []

    def compared(matrix):
        eigs = jacobi_eigvalsh(matrix)
        assert eigs.tobytes() == per_pivot_jacobi(matrix).tobytes()
        dims.append(matrix.shape[0])
        return eigs

    monkeypatch.setattr(oracle, "jacobi_eigvalsh", compared)
    assert all(result.passed for result in run_checks())
    assert len(dims) == 109 and max(dims) == 81


# ------------------------------------------------------------ reduced density

def test_single_site_block_is_maximally_mixed():
    psi = open_vbs_state(ChainSpec(2, 4, OPEN))
    dm = reduced_density(psi, [1])  # second bulk site
    assert np.allclose(jacobi_eigvalsh(dm.matrix), [1 / 3] * 3, atol=1e-13)


def test_two_site_block_spectrum_frozen():
    psi = open_vbs_state(ChainSpec(2, 4, OPEN))
    dm = reduced_density(psi, [1, 2])
    eigs = jacobi_eigvalsh(dm.matrix)
    nonzero = eigs[eigs > 1e-12]
    assert np.abs(nonzero - np.array([1 / 3, 2 / 9, 2 / 9, 2 / 9])).max() < 1e-12


def test_full_block_is_pure_projector():
    psi = open_vbs_state(ChainSpec(2, 2, OPEN))
    dm = reduced_density(psi, range(len(psi.dims)))
    eigs = jacobi_eigvalsh(dm.matrix)
    assert abs(eigs[0] - 1.0) < 1e-12
    assert np.abs(eigs[1:]).max() < 1e-12


def test_reduced_density_validation():
    psi = open_vbs_state(ChainSpec(2, 3, OPEN))
    with pytest.raises(ValueError):
        reduced_density(psi, [])
    with pytest.raises(ValueError):
        reduced_density(psi, [0, 2])
    with pytest.raises(ValueError):
        reduced_density(psi, [3, 4])
    with pytest.raises(BudgetError):
        reduced_density(psi, [0, 1], matrix_budget=4)


def test_density_matrix_sanity():
    psi = open_vbs_state(ChainSpec(3, 2, OPEN))
    dm = reduced_density(psi, [0])
    assert np.linalg.norm(dm.matrix - dm.matrix.conj().T) < 1e-12
    assert abs(np.trace(dm.matrix) - 1.0) < 1e-12
    assert jacobi_eigvalsh(dm.matrix).min() > -1e-12


# ------------------------------------------------------- Schmidt / block path

def test_schmidt_symmetry_open():
    psi = open_vbs_state(ChainSpec(2, 6, OPEN))
    left = block_spectrum(psi, range(3))
    right = block_spectrum(psi, range(3, len(psi.dims)))
    assert left.shape == right.shape and np.abs(left - right).max() < 1e-11


def test_schmidt_symmetry_periodic():
    psi = periodic_vbs_state(ChainSpec(2, 4, PERIODIC))
    front = block_spectrum(psi, range(2))
    back = block_spectrum(psi, range(2, 4))
    assert np.abs(front - back).max() < 1e-11


def test_single_site_block_n3():
    psi = open_vbs_state(ChainSpec(3, 3, OPEN))
    assert np.allclose(block_spectrum(psi, [0]), [1 / 8] * 8, atol=1e-12)


def test_schmidt_cut_validation():
    psi = open_vbs_state(ChainSpec(2, 2, OPEN))
    for block in (range(0), range(len(psi.dims), len(psi.dims) + 1), [0, 2]):
        with pytest.raises(ValueError):
            block_spectrum(psi, block)
    # the whole chain is a block too: the pure state has one weight
    whole = block_spectrum(psi, range(len(psi.dims)))
    assert whole.shape == (1,) and abs(whole[0] - 1.0) < 1e-15


def test_block_spectrum_budget():
    psi = open_vbs_state(ChainSpec(2, 4, OPEN))
    with pytest.raises(BudgetError):
        block_spectrum(psi, range(2), matrix_budget=3)


def test_block_start_and_length_independence():
    reference = None
    for N in range(2, 7):
        psi = open_vbs_state(ChainSpec(2, N, OPEN))
        for start in range(N - 1):
            eigs = block_spectrum(psi, range(start, start + 2))
            if reference is None:
                reference = eigs
            assert eigs.shape == reference.shape and np.abs(eigs - reference).max() < 1e-11


# ------------------------------------------------------- independent blocks

NO_SPLIT = 10 ** 9


def split_every_block(monkeypatch):
    """Split every block matrix into its charge sectors, however small."""
    monkeypatch.setattr(oracle, "SPLIT_MIN_SIDE", 0)
    monkeypatch.setattr(oracle, "SPLIT_MIN_ENTRIES", 0)


def verify_grid_blocks():
    """(state, block) for every block of the open and periodic verify grids."""
    for n, grid in CHECKS["open-spectrum"][2].items():
        for N in grid["chains"]:
            psi = open_vbs_state(ChainSpec(n, N, OPEN))
            for L in grid["lengths"]:
                for start in range(N - L + 1):
                    yield psi, range(start, start + L)
    for n, grid in CHECKS["periodic-spectrum"][2].items():
        for N in grid["rings"]:
            psi = periodic_vbs_state(ChainSpec(n, N, PERIODIC))
            for L in range(1, N):
                yield psi, range(L)
    yield periodic_vbs_state(ChainSpec(3, 6, PERIODIC)), range(3)
    yield periodic_vbs_state(ChainSpec(2, 13, PERIODIC)), range(6)


def decoded_block_matrix(psi, block):
    """The (block, environment) matrix of amplitudes, decoded whole."""
    m = oracle._block_environment(psi, block)
    return psi.table[m]


def test_real_states_match_their_complex_copies():
    # n = 2 states decode through a real table; their Grams are real products
    count = 0
    for psi, block in verify_grid_blocks():
        if psi.n != 2:
            continue
        m = oracle._block_environment(psi, block)
        wide = m if m.shape[0] <= m.shape[1] else m.T  # the smaller side on the rows
        real = oracle._gram(wide, psi.table)
        assert real.dtype == np.float64
        assert np.abs(real - oracle._gram(wide, psi.table.astype(complex))).max() <= 1e-15
        rho = reduced_density(psi, block).matrix
        assert rho.dtype == np.float64
        assert np.abs(rho - oracle._gram(m, psi.table.astype(complex))).max() <= 1e-15
        count += 1
    assert count == 55 + 27 + 1  # open grid, ring grid, the N=13 ring


@pytest.mark.parametrize("chunk", [oracle.GRAM_CHUNK, 1 << 12])
def test_chunked_grams_match_the_whole_decoded_product(monkeypatch, chunk):
    # a 4096-entry chunk splits the larger Grams of the grids into several chunks
    monkeypatch.setattr(oracle, "GRAM_CHUNK", chunk)
    count = 0
    for psi, block in verify_grid_blocks():
        d = decoded_block_matrix(psi, block)
        m = oracle._block_environment(psi, block)
        rho = reduced_density(psi, block).matrix
        assert rho.dtype == psi.table.dtype  # real at n = 2
        assert np.abs(rho - d @ d.conj().T).max() <= 1e-15
        if m.shape[0] > m.shape[1]:  # turned to its smaller side, as block_spectrum takes it
            gram = oracle._gram(m.T, psi.table)
            assert np.abs(gram - (d.conj().T @ d).conj()).max() <= 1e-15
        count += 1
    assert count == 55 + 19 + 27 + 5 + 2  # open grids, ring grids, the N=6 and N=13 rings


def test_jacobi_is_bit_identical_on_conjugate_grams():
    count = 0
    for psi, block in verify_grid_blocks():
        m = oracle._block_environment(psi, block)
        if psi.n != 3 or min(m.shape) == 512:  # the n = 3 grids, not the N = 6 ring's 512 x 512
            continue
        gram = oracle._gram(m if m.shape[0] <= m.shape[1] else m.T, psi.table)
        assert gram.dtype == complex
        assert jacobi_eigvalsh(gram.conj()).tobytes() == jacobi_eigvalsh(gram).tobytes()
        count += 1
    assert count == 19 + 5  # open grid, ring grid


def edge_basis_blocks():
    """(basis, block) for every contiguous block of the edge bases of n = 2,
    L <= 8; n = 3, L <= 5; n = 4, L <= 3; n = 5, L <= 2."""
    for n, top in ((2, 8), (3, 5), (4, 3), (5, 2)):
        for L in range(1, top + 1):
            basis = edge_basis(n, L)
            for start, stop in itertools.combinations(range(L + 2), 2):
                yield basis, range(start, stop)


def test_split_agrees_with_whole_gram(monkeypatch):
    count = 0
    for psi, block in itertools.chain(verify_grid_blocks(), edge_basis_blocks()):
        monkeypatch.setattr(oracle, "SPLIT_MIN_SIDE", NO_SPLIT)
        whole = block_spectrum(psi, block)
        split_every_block(monkeypatch)
        split = block_spectrum(psi, block)
        assert split.shape == whole.shape
        assert np.abs(split - whole).max() < 1e-13
        count += 1
    assert count > 100


def test_split_of_ring_blocks_into_charge_sectors(monkeypatch):
    split_every_block(monkeypatch)
    psi = periodic_vbs_state(ChainSpec(3, 6, PERIODIC))
    for block in (range(3), range(2, 5), range(3, 6)):  # the last holds the closing site
        m = oracle._block_environment(psi, block)
        assert m.shape == (512, 512)  # not turned: the block's slots stay on the rows
        env = [i for i in range(len(psi.dims)) if i not in block]
        # certified: no nonzero is left out
        spectra = list(oracle._sector_spectra(psi, list(block), env, m))
        assert len(spectra) == 9  # one per Z_3 x Z_3 charge
        assert sum(e.size for e in spectra) <= 512
        assert abs(sum(e.sum() for e in spectra) - 1.0) < 1e-13
        d = psi.table[m]
        reference = np.sort(np.linalg.eigvalsh(d @ d.conj().T))[::-1]
        found = block_spectrum(psi, block)
        assert found.shape == (9,)  # the rest of min(d_block, d_env) = 512 are zeros
        assert np.abs(found - reference[:9]).max() < 1e-13
        assert np.abs(reference[9:]).max() < 1e-13


def whole_sector_spectrum(psi, block):
    """Block spectrum from sectors gathered whole, with a charge for every row
    and column of the (block, environment) matrix."""
    m = oracle._block_environment(psi, block)
    n, dims = psi.n, psi.dims
    row_charge = charges(n, dims, block)
    col_charge = charges(n, dims, [i for i in range(len(dims)) if i not in block])
    found = []
    for c in range(n * n):
        rows = np.flatnonzero(row_charge == c)
        cols = np.flatnonzero(col_charge == (n - c // n) % n * n + (n - c % n) % n)
        sector = m[np.ix_(rows, cols)]
        if sector.size:
            wide = sector if sector.shape[0] <= sector.shape[1] else sector.T
            found.append(jacobi_eigvalsh(oracle._gram(wide, psi.table)))
    return spectrum_report(np.concatenate(found))


def test_square_split_blocks_gather_their_sectors_whole():
    # a square block matrix has a head of one row: each sector is one gather,
    # and the eigenvalues are bit-identical to sectors gathered whole
    psi = periodic_vbs_state(ChainSpec(3, 6, PERIODIC))
    for block in (range(3), range(3, 6)):
        assert oracle._block_environment(psi, block).shape == (512, 512)
        assert (block_spectrum(psi, block).tobytes()
                == whole_sector_spectrum(psi, block).tobytes())


def dense_spectrum_blocks():
    """(state, block) for every block of the dense spectrum requests near the
    amplitude budget (the benchmark's dense-states list), state by state."""
    for n, L in [(2, L) for L in range(8, 16)] + [(4, L) for L in range(1, 6)]:
        yield open_vbs_state(ChainSpec(n, L, OPEN)), range(L)
    for n, N in ((2, 13), (4, 6)):
        psi = periodic_vbs_state(ChainSpec(n, N, PERIODIC))
        for L in range(1, N):
            yield psi, range(L)
        del psi


def test_split_blocks_of_sides_up_to_360_agree_with_the_whole_gram(monkeypatch):
    # every block with a smaller side between the gate and 360, split however
    # few its entries
    count = 0
    for psi, block in itertools.chain(verify_grid_blocks(), dense_spectrum_blocks()):
        if not oracle.SPLIT_MIN_SIDE < min(oracle._block_environment(psi, block).shape) <= 360:
            continue
        monkeypatch.setattr(oracle, "SPLIT_MIN_ENTRIES", 0)
        split = block_spectrum(psi, block)
        monkeypatch.setattr(oracle, "SPLIT_MIN_SIDE", NO_SPLIT)
        whole = block_spectrum(psi, block)
        monkeypatch.undo()
        assert split.shape == whole.shape, (psi.n, psi.dims, block)
        assert np.abs(split - whole).max() <= 1e-15, (psi.n, psi.dims, block)
        count += 1
    assert count == 24 + 15  # verify-grid blocks, dense spectrum blocks


def test_split_is_bit_identical_across_calls(monkeypatch):
    split_every_block(monkeypatch)
    psi = periodic_vbs_state(ChainSpec(3, 6, PERIODIC))
    first, second = block_spectrum(psi, range(3)), block_spectrum(psi, range(3))
    assert first.tobytes() == second.tobytes()
    assert von_neumann(first) == von_neumann(second)


def test_split_surfaces_convergence_error(monkeypatch):
    split_every_block(monkeypatch)
    monkeypatch.setattr(oracle, "DEFAULT_MAX_SWEEPS", 0)
    psi = periodic_vbs_state(ChainSpec(3, 6, PERIODIC))
    with pytest.raises(ConvergenceError):
        block_spectrum(psi, range(3))


def permuted_block_state(seed=0):
    """n = 3 state whose (72, 72) block/environment code matrix is a permuted
    direct sum of dense random-phase blocks, a chained staircase block, and
    all-zero rows and columns: its nonzeros break the charge law of the chain
    states."""
    r = rng(seed)
    blocks = [r.integers(1, 4, size=shape) for shape in [(10, 5), (20, 12), (7, 7), (1, 3)]]
    blocks.append(np.eye(6, 7, dtype=int) + np.eye(6, 7, 1, dtype=int))  # rows linked only through a chain
    m = np.zeros((72, 72), dtype=np.uint8)
    i = j = 0
    for b in blocks:
        m[i:i + b.shape[0], j:j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    m = m[r.permutation(72)][:, r.permutation(72)]
    return PureState(3, (9, 8) * 2, m.reshape(-1), 1 / np.sqrt(np.count_nonzero(m)))


def test_split_certificate_sees_a_nonzero_under_a_head_and_tail(monkeypatch):
    # the 9 x 729 block matrix of an n = 2 ring of 8 is split with a head of
    # 27 environment rows and a tail of 27; one stray amplitude of nonzero
    # charge sits in a column with both
    psi = periodic_vbs_state(ChainSpec(2, 8, PERIODIC))
    split_every_block(monkeypatch)
    assert oracle._block_environment(psi, range(2)).shape == (9, 729)
    codes = psi.codes.copy()
    stray = np.flatnonzero(charges(2, psi.dims, range(8)) != 0)[4000]
    codes[stray] = 1
    bad = PureState(2, psi.dims, codes, 1 / np.sqrt(np.count_nonzero(codes)))
    with pytest.raises(InvariantError, match="1 of .* cross the Z_n x Z_n charge sectors"):
        block_spectrum(bad, range(2))
    monkeypatch.setattr(oracle, "SPLIT_MIN_SIDE", NO_SPLIT)
    assert block_spectrum(bad, range(2)).shape == (5,)  # the stray amplitude's own eigenvalue is 5th


def test_split_certificate_rejects_nonzeros_across_sectors(monkeypatch):
    split_every_block(monkeypatch)
    psi = permuted_block_state()
    with pytest.raises(InvariantError, match="cross the Z_n x Z_n charge sectors"):
        block_spectrum(psi, range(2))
    monkeypatch.setattr(oracle, "SPLIT_MIN_SIDE", NO_SPLIT)  # the whole matrix needs no law
    assert block_spectrum(psi, range(2)).shape == (30,)  # the rank of its 72 x 72 matrix


# ------------------------------------------------------------- exact route


def closed_form_nonzero(psi, block):
    """The closed-form nonzero weights of a chain state's block: an open
    chain ends in the boundary pair (dim n^2), a ring does not."""
    n, L = psi.n, len(block)
    if psi.dims[-1] == n * n:
        return closed_form.open_spectrum(n, L).nonzero()
    return closed_form.periodic_spectrum(n, len(psi.dims), L).nonzero()


def dense_request_blocks():
    """(state, block) for every block of the dense-states and dense-gram
    requests (dense-gram's n=2 ring of 13 is among the dense-states blocks)."""
    yield from dense_spectrum_blocks()
    yield periodic_vbs_state(ChainSpec(3, 8, PERIODIC)), range(4)


def listed_sector_spectra(state, short, long, wide):
    """`_sector_spectra` as the split first computed it: each sector's pieces
    gathered into one list by a single three-index gather, then their Grams
    summed in order."""
    n, dims = state.n, state.dims
    side, length = wide.shape
    runs = np.cumprod([1] + [dims[i] for i in long])
    k = int(np.count_nonzero((side * runs <= length) & (runs * runs <= length))) - 1
    view = wide.reshape(side, int(runs[k]), -1)
    groups = [charges(n, dims, slots) for slots in (short, long[:k], long[k:])]
    sides, heads, tails = ([np.flatnonzero(q == c) for c in range(n * n)] for q in groups)
    for c, rows in enumerate(sides):
        cols = [(h, t) for a, h in enumerate(heads)
                for t in [tails[-(c // n + a // n) % n * n + -(c + a) % n]] if h.size and t.size]
        if rows.size and cols:
            pieces = [view[rows[:, None, None], h[:, None], t].reshape(rows.size, -1)
                      for h, t in cols]
            yield jacobi_eigvalsh(functools.reduce(np.add, (oracle._gram(p, state.table)
                                                            for p in pieces)))


def test_exact_spectrum_is_the_closed_form_and_the_float_route_agrees(monkeypatch):
    # every block of the open and periodic verify grids (n = 2-4) and of the
    # dense requests: the exact route equals the closed forms Fraction for
    # Fraction; the float route stays within 2e-15 of it (its worst, 1.8e-15 or
    # 8 ulp of 1/4, is at n=2 N=13 L=6, 7) and its bytes are those of the list split
    count = 0
    for psi, block in itertools.chain(verify_grid_blocks(), dense_request_blocks()):
        exact = oracle.exact_block_spectrum(psi, block)
        assert exact == closed_form_nonzero(psi, block), (psi.n, psi.dims, block)
        found = block_spectrum(psi, block)
        assert len(found) == len(exact), (psi.n, psi.dims, block)
        assert np.abs(found - np.array(exact, dtype=float)).max() <= 2e-15
        monkeypatch.setattr(oracle, "_sector_spectra", listed_sector_spectra)
        assert block_spectrum(psi, block).tobytes() == found.tobytes()
        monkeypatch.undo()
        count += 1
    assert count == 108 + 30 + 1  # verify grids, dense-states, dense-gram's n=3 ring


def test_split_pieces_are_the_list_split_bit_for_bit(monkeypatch):
    # split at every size, one-row sectors included, as the exact route reads them
    split_every_block(monkeypatch)
    count = 0
    for psi, block in itertools.chain(verify_grid_blocks(), edge_basis_blocks()):
        found = block_spectrum(psi, block).tobytes()
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_sector_spectra", listed_sector_spectra)
            assert block_spectrum(psi, block).tobytes() == found
        count += 1
    assert count > 300


def test_exact_spectrum_of_an_edge_basis_and_the_full_chain():
    # an edge basis opens with a label slot of dim n^2 and negates no slot in
    # its charges; a block of every slot has the pure state's one eigenvalue
    for n, L in ((2, 4), (3, 2)):
        basis = edge_basis(n, L)
        for start, stop in itertools.combinations(range(L + 2), 2):
            exact = oracle.exact_block_spectrum(basis, range(start, stop))
            assert sum(exact) == 1 and exact == sorted(exact, reverse=True)
            found = block_spectrum(basis, range(start, stop))
            assert len(found) == len(exact), (n, L, start, stop)
            assert np.abs(found - np.array(exact, dtype=float)).max() <= 1e-15
    # as many eigenvalues on both routes on every edge-basis block, within the
    # chain states' 2e-15 (the worst is 1.3e-15)
    for basis, block in edge_basis_blocks():
        found, exact = block_spectrum(basis, block), oracle.exact_block_spectrum(basis, block)
        assert len(found) == len(exact), (basis.dims, block)
        assert np.abs(found - np.array(exact, dtype=float)).max() <= 2e-15
    psi = periodic_vbs_state(ChainSpec(2, 6, PERIODIC))
    assert oracle.exact_block_spectrum(psi, range(6)) == [1]


def test_exact_spectrum_memory_is_the_float_route_plus_one_piece():
    # n = 2, open L = 15: four one-row sectors, which the sector split would
    # gather in 16 pieces of 0.9 MB, where the float route decodes its 4 x 4
    # Gram in chunks; the bound is that piece, pinned
    psi = open_vbs_state(ChainSpec(2, 15, OPEN))
    piece = 0.9e6
    peaks = []
    for route in (block_spectrum, oracle.exact_block_spectrum):
        tracemalloc.start()
        try:
            route(psi, range(15))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + piece


@pytest.mark.parametrize("boundary,n,N,L", [
    (OPEN, 2, 15, 15), (OPEN, 4, 5, 5), (PERIODIC, 4, 6, 2), (PERIODIC, 4, 6, 4),
    (PERIODIC, 4, 6, 5), (PERIODIC, 3, 8, 4), (PERIODIC, 2, 13, 7)])
def test_exact_spectrum_peak_memory_is_bounded(boundary, n, N, L):
    # the exact route reads each code once, in chunks: its peak stays under
    # 1.5 MB for states of 1.6-57 MB of codes
    build = open_vbs_state if boundary == OPEN else periodic_vbs_state
    psi = build(ChainSpec(n, N, boundary))
    tracemalloc.start()
    try:
        oracle.exact_block_spectrum(psi, range(L))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6, peak


def tampered(psi, position, code):
    """psi with codes[position] set to `code`, renormalized."""
    codes = psi.codes.copy()
    codes[position] = code
    return PureState(psi.n, psi.dims, codes, 1 / math.sqrt(np.count_nonzero(codes)))


def ring_nonzero(psi, index):
    """(position, row charge (l, m)) of the index-th nonzero of a state whose
    first two slots are the block: its (block, environment) matrix is the
    codes, reshaped."""
    position = int(np.flatnonzero(psi.codes)[index])
    width = math.prod(psi.dims[2:])
    c = int(charges(psi.n, psi.dims, range(2))[position // width])
    return position, (c // psi.n, c % psi.n)


def test_exact_spectrum_rejects_a_changed_phase_code():
    psi = periodic_vbs_state(ChainSpec(3, 4, PERIODIC))  # 64 x 64, nine sectors of ~7 x 7
    position, charge = ring_nonzero(psi, 100)
    bad = tampered(psi, position, psi.codes[position] % 3 + 1)
    with pytest.raises(InvariantError, match=re.escape(f"sector {charge} is not rank one")
                       + ".*(phase certificate)"):
        oracle.exact_block_spectrum(bad, range(2))


def test_exact_spectrum_rejects_a_zeroed_nonzero_code():
    psi = periodic_vbs_state(ChainSpec(3, 4, PERIODIC))
    position, charge = ring_nonzero(psi, 100)
    bad = tampered(psi, position, 0)
    with pytest.raises(InvariantError, match=re.escape(f"sector {charge} is not rank one")
                       + ".*(rectangle certificate)"):
        oracle.exact_block_spectrum(bad, range(2))


def test_exact_spectrum_rejects_a_nonzero_moved_across_sectors():
    # an open chain's block matrix, turned, has one row per boundary label:
    # one-row sectors, each rank one, so only the count sees the stray code
    psi = open_vbs_state(ChainSpec(2, 3, OPEN))
    string = psi.codes.reshape(-1, 4)[5]
    label = int(np.flatnonzero(string)[0])
    bad = tampered(tampered(psi, 5 * 4 + (label + 1) % 4, string[label]), 5 * 4 + label, 0)
    assert np.count_nonzero(bad.codes) == np.count_nonzero(psi.codes)
    c = int(charges(2, psi.dims, [3])[(label + 1) % 4])
    with pytest.raises(InvariantError, match="1 of 27 nonzero amplitudes cross the Z_n x Z_n "
                       + re.escape(f"charge sectors; the rows of sector {(c // 2, c % 2)} hold")
                       + ".*(count certificate)"):
        oracle.exact_block_spectrum(bad, range(3))


def moved_along(psi, width, row, column, to):
    """psi with the code at (row, column) of its codes as a (., width) matrix
    moved to (row, to)."""
    code = psi.codes[row * width + column]
    return tampered(tampered(psi, row * width + to, code), row * width + column, 0)


def count_crossing(total, n, c):
    """The count certificate's message when one code of `total` crosses the
    sectors and the rows of sector c hold it."""
    return (f"1 of {total} nonzero amplitudes cross the Z_n x Z_n "
            + re.escape(f"charge sectors; the rows of sector {(c // n, c % n)} hold")
            + ".*(count certificate)")


@pytest.mark.parametrize("chunk", [oracle.GATHER_CHUNK, 1 << 12])
def test_exact_spectrum_counts_one_row_sectors_in_one_pass(monkeypatch, chunk):
    # n = 2, open N = 9: the turned 4 x 3^9 matrix has one row per boundary
    # label.  At the default chunk one take serves each head charge; at 4 KiB
    # the pass reads each head charge's rows in five chunks.  A code moved to
    # another label of its string crosses the sectors wherever it sits
    monkeypatch.setattr(oracle, "GATHER_CHUNK", chunk)
    psi = open_vbs_state(ChainSpec(2, 9, OPEN))
    assert oracle.exact_block_spectrum(psi, range(9)) == closed_form_nonzero(psi, range(9))
    boundary = charges(2, psi.dims, [9])
    for string in (0, 9000, 3 ** 9 - 1):
        label = int(np.flatnonzero(psi.codes.reshape(-1, 4)[string])[0])
        bad = moved_along(psi, 4, string, label, (label + 1) % 4)
        with pytest.raises(InvariantError, match=count_crossing(psi.nonzeros, 2,
                                                                int(boundary[(label + 1) % 4]))):
            oracle.exact_block_spectrum(bad, range(9))


def test_exact_spectrum_counts_one_row_sectors_at_n4():
    # n = 4, ring N = 4, L = 1: the 15 x 15^3 matrix has one row per label of
    # the block's site, each its own charge: a code moved along its row to a
    # column of another charge crosses the sectors
    psi = periodic_vbs_state(ChainSpec(4, 4, PERIODIC))
    assert oracle.exact_block_spectrum(psi, range(1)) == closed_form_nonzero(psi, range(1))
    m = psi.codes.reshape(15, -1)
    columns = charges(4, psi.dims, range(1, 4))
    for row in (0, 7, 14):
        column = int(np.flatnonzero(m[row])[-1])
        to = int(np.flatnonzero((m[row] == 0) & (columns != columns[column]))[0])
        bad = moved_along(psi, m.shape[1], row, column, to)
        c = int(charges(4, psi.dims, [0])[row])
        with pytest.raises(InvariantError, match=count_crossing(psi.nonzeros, 4, c)):
            oracle.exact_block_spectrum(bad, range(1))


@pytest.mark.parametrize("chunk", [oracle.GATHER_CHUNK, 1 << 10])
def test_exact_spectrum_certifies_sectors_piece_by_piece(monkeypatch, chunk):
    # n = 2, ring N = 9, L = 4: the 81 x 243 matrix has about 20 rows per
    # sector.  At 1 KiB each sector comes in pieces of 256 codes or more, so a
    # broken code sits in the anchor's piece or in a later one; the messages
    # name the sector and count its nonzeros, rows and columns
    monkeypatch.setattr(oracle, "GATHER_CHUNK", chunk)
    psi = periodic_vbs_state(ChainSpec(2, 9, PERIODIC))
    assert oracle.exact_block_spectrum(psi, range(4)) == closed_form_nonzero(psi, range(4))
    rows, columns = charges(2, psi.dims, range(4)), charges(2, psi.dims, range(4, 9))
    for position in np.flatnonzero(psi.codes)[[0, 1000, -1]]:
        c = int(rows[position // 243])  # -c = c at n = 2: its columns have charge c too
        name = re.escape(f"sector {(c // 2, c % 2)} is not rank one: ")
        with pytest.raises(InvariantError, match=name + re.escape(
                "a phase breaks k_ij = a_i + b_j (mod n) (phase certificate)")):
            oracle.exact_block_spectrum(tampered(psi, position, 3 - psi.codes[position]), range(4))
        bad = tampered(psi, position, 0)
        sector = bad.codes.reshape(81, 243)[np.ix_(rows == c, columns == c)] != 0
        shape = (np.count_nonzero(sector.any(axis=1)), np.count_nonzero(sector.any(axis=0)))
        with pytest.raises(InvariantError, match=name + re.escape(
                f"its {np.count_nonzero(sector)} nonzeros do not fill the {shape[0]} x {shape[1]} "
                "rectangle of their rows and columns (rectangle certificate)")):
            oracle.exact_block_spectrum(bad, range(4))


def every_block_expected(n, boundary, N):
    """(block, closed-form nonzero weights) for every contiguous block of the
    chain (n, N): a block of bulk sites has the weights of its length, one
    holding an open chain's boundary pair those of the bulk sites it leaves,
    and a block of every slot the pure state's one eigenvalue."""
    slots = N + (boundary == OPEN)
    for start, stop in itertools.combinations(range(slots + 1), 2):
        L = stop - start if stop <= N else start
        if boundary == PERIODIC and L < N:
            yield range(start, stop), closed_form.periodic_spectrum(n, N, L).nonzero()
        elif boundary == OPEN and L:
            yield range(start, stop), closed_form.open_spectrum(n, L).nonzero()
        else:
            yield range(start, stop), [1]


def test_exact_spectrum_is_the_closed_form_on_every_block():
    # every contiguous block of every open chain and ring of n = 2-5 with at
    # most 2^18 amplitudes, Fraction for Fraction
    count = 0
    for n in range(2, 6):
        for boundary, build in ((OPEN, open_vbs_state), (PERIODIC, periodic_vbs_state)):
            N = 1 if boundary == OPEN else 2
            while ChainSpec(n, N, boundary).amplitudes <= 1 << 18:
                psi = build(ChainSpec(n, N, boundary))
                for block, expected in every_block_expected(n, boundary, N):
                    assert oracle.exact_block_spectrum(psi, block) == expected, (n, boundary, N, block)
                    count += 1
                N += 1
    assert count == 715


# ------------------------------------------------- chunked real-view Gram


def tall_open_blocks():
    """(n, N, L, start, psi, M) for every open-grid block whose code matrix M
    has more rows than columns."""
    for n, grid in CHECKS["open-spectrum"][2].items():
        for N in grid["chains"]:
            psi = open_vbs_state(ChainSpec(n, N, OPEN))
            for L in grid["lengths"]:
                for start in range(N - L + 1):
                    m = oracle._block_environment(psi, range(start, start + L))
                    if m.shape[0] > m.shape[1]:
                        yield n, N, L, start, psi, m


def test_real_view_gram_matches_conjugate_product():
    count = 0
    for n, N, L, start, psi, m in tall_open_blocks():
        d = psi.table[m]
        gram = oracle._gram(m.T, psi.table)  # the conjugate of m's column Gram
        assert np.abs(gram - (d.conj().T @ d).conj()).max() < 1e-13, (n, N, L, start)
        count += 1
    assert count == 17
    psi = open_vbs_state(ChainSpec(4, 5, OPEN))
    m = oracle._block_environment(psi, range(5))  # 759375 x 16, many chunks
    d = psi.table[m]
    assert np.abs(oracle._gram(m.T, psi.table) - (d.conj().T @ d).conj()).max() < 1e-13


def random_codes(shape, n=3, seed=7):
    """Random phase codes (zeros included) and the table of a unit-norm state."""
    codes = rng(seed).integers(0, n + 1, size=shape).astype(np.uint8)
    table = np.concatenate(([0.0], np.exp(2j * np.pi * np.arange(n) / n)))
    return codes, table / np.sqrt(np.count_nonzero(codes))


def test_real_view_gram_on_random_and_strided_input(monkeypatch):
    a, table = random_codes((500, 24))
    real_codes, _ = random_codes((300, 10), n=2)
    real = np.array([0.0, 1.0, -1.0]) / np.sqrt(np.count_nonzero(real_codes))
    # small chunks leave 8-side chunks and short last ones
    for chunk in (oracle.GRAM_CHUNK, 200, 24):
        monkeypatch.setattr(oracle, "GRAM_CHUNK", chunk)
        # C order, strided columns, transposed, strided rows and Fortran order
        for m in (a, a[:, ::3], a.T, a[::2], np.asfortranarray(a)):
            d = table[m]
            # the row Gram of m, and of m^T: the conjugate of m's column Gram
            for codes, want in ((m, d @ d.conj().T), (m.T, (d.conj().T @ d).conj())):
                gram = oracle._gram(codes, table)
                assert np.abs(gram - want).max() < 1e-13
                side, length = codes.shape
                if length >= side * table.itemsize // 8:  # through the float64 view: exactly Hermitian
                    assert np.array_equal(gram, gram.conj().T)
        for codes in (real_codes, real_codes.T):
            gram = oracle._gram(codes, real)
            d = real[codes]
            assert gram.dtype == np.float64
            assert np.abs(gram - d @ d.T).max() < 1e-13


def test_one_chunk_complex_gram_sums_through_the_real_view():
    # a charge sector of the n = 4 open L = 5 state: one column of 47461
    # nonzero codes, which fits one chunk; its 1 x 1 Gram is its weight 1/16
    codes = rng(7).integers(1, 5, size=(47461, 1)).astype(np.uint8)
    table = np.concatenate(([0.0], phase_table(4) * 15 ** -2.5))
    d = table[codes[:, 0]]
    exact = math.fsum(np.concatenate([d.real ** 2, d.imag ** 2]).tolist())
    assert abs(complex(oracle._gram(codes.T, table)[0, 0]) - exact) <= 4e-16


def one_chunk_gram(codes, table):
    """The row Gram of an E that fits one chunk, decoded whole and multiplied
    once: R^T R of its float64 view R, assembled as `oracle._gram` does."""
    e, values = codes.T, table.conj()
    r = values[np.ascontiguousarray(e)].view(np.float64)
    total = r.T @ r
    if not np.iscomplexobj(values):
        return total
    gram = np.empty((codes.shape[0],) * 2, dtype=complex)
    gram.real = total[0::2, 0::2] + total[1::2, 1::2]
    gram.imag = total[0::2, 1::2] - total[1::2, 0::2]
    return gram


def test_one_chunk_grams_are_the_loop_run_once():
    count = 0
    inputs = [random_codes((24, 500)), random_codes((10, 300), n=2), random_codes((1, 47461), n=4)]
    inputs += [(oracle._block_environment(psi, block), psi.table)
               for psi, block in itertools.chain(verify_grid_blocks(), edge_basis_blocks())]
    for m, table in inputs:
        wide = m if m.shape[0] <= m.shape[1] else m.T
        side, length = wide.shape
        chunk = max(oracle.GRAM_CHUNK // side, min(8 * side, 8 * oracle.GRAM_CHUNK // side))
        if side * table.itemsize // 8 <= length <= chunk:
            assert oracle._gram(wide, table).tobytes() == one_chunk_gram(wide, table).tobytes()
            count += 1
    assert count > 100


def test_real_view_gram_is_bit_identical_across_calls():
    psi = open_vbs_state(ChainSpec(3, 4, OPEN))
    m = oracle._block_environment(psi, range(1, 3))  # 64 x 576, chunked
    first, second = oracle._gram(m, psi.table), oracle._gram(m, psi.table)
    assert first.tobytes() == second.tobytes()


def assert_block_spectrum_peak_near_codes(psi, block):
    # the codes are 1 byte per amplitude; no decoded array is as long as the state
    m = oracle._block_environment(psi, block)
    gram_bytes = min(m.shape) ** 2 * 8
    del m
    tracemalloc.start()
    try:
        block_spectrum(psi, block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * psi.codes.nbytes + gram_bytes


@pytest.mark.parametrize("block", [range(12), range(1, 12)])
def test_block_spectrum_memory_stays_near_the_codes(block):
    assert_block_spectrum_peak_near_codes(open_vbs_state(ChainSpec(2, 12, OPEN)), block)


def test_split_block_spectrum_memory_stays_near_the_codes():
    # a 729 x 2187 block, split into its four charge sectors
    assert_block_spectrum_peak_near_codes(periodic_vbs_state(ChainSpec(2, 13, PERIODIC)), range(6))


def test_split_holds_no_array_over_a_long_side():
    # a 27 x 1,594,323 block: the split gathers its sectors piece by piece
    # through charges of two runs of environment slots
    psi = periodic_vbs_state(ChainSpec(2, 16, PERIODIC))
    assert oracle.SPLIT_MIN_SIDE < 27 and oracle.SPLIT_MIN_ENTRIES < psi.codes.size
    tracemalloc.start()
    try:
        block_spectrum(psi, range(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * psi.codes.nbytes


# ------------------------------------------------------------ invariant checks


def test_invariant_checks_raise_their_own_error(monkeypatch):
    for shape in ((2, 3), (4,), (2, 2, 2)):
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.zeros(shape))
    with pytest.raises(InvariantError):
        DensityMatrix(np.diag([0.5, 0.5, 0.0, 1e-9]).astype(complex))
    # NaN compares false against every bound, so each check must fail on it too
    for bad in (1e-9, math.nan):
        skew = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        skew[0, 1] = bad
        with pytest.raises(InvariantError, match="Hermitian"):
            DensityMatrix(skew)
        with pytest.raises(InvariantError, match="sum"):
            spectrum_report([0.5, 0.5 + bad])
        with pytest.raises(InvariantError, match="sum"):
            von_neumann([0.5, 0.5 + bad])
        with pytest.raises(ValueError, match="Hermitian"):
            jacobi_eigvalsh(np.array([[1.0, bad], [0.0, 1.0]]))
    with pytest.raises(InvariantError):
        spectrum_report([1.0, -1e-9])
    monkeypatch.setattr(oracle.np, "trace", lambda m: complex(math.nan))
    with pytest.raises(InvariantError, match="trace"):
        DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))


def test_invariant_checks_measure_accurately_at_dim_4096():
    # the largest reduction the matrix budget admits: n=3, four bulk sites.
    # DensityMatrix measures its Hermiticity (within 1e-12) on construction.
    psi = open_vbs_state(ChainSpec(3, 4, OPEN))
    dm = reduced_density(psi, range(4))
    assert dm.matrix.shape == (4096, 4096)
    assert abs(np.trace(dm.matrix) - 1.0) < 1e-15
    assert abs(block_spectrum(psi, range(4)).sum() - 1.0) < 1e-15


def test_hermiticity_measured_without_full_size_temporaries():
    # dim 4096 (256 MiB): a difference m - m^dagger built whole took two
    # temporaries of that size
    psi = open_vbs_state(ChainSpec(3, 4, OPEN))
    m = oracle._block_environment(psi, range(4))
    rho = oracle._gram(m, psi.table)
    del psi, m
    # an anti-Hermitian 1e-11 perturbation in the last row block still fails
    saved = rho[4000, 10], rho[10, 4000]
    rho[4000, 10] += 1e-11
    rho[10, 4000] -= 1e-11
    with pytest.raises(InvariantError, match="Hermitian"):
        DensityMatrix(rho)
    rho[4000, 10], rho[10, 4000] = saved
    tracemalloc.start()
    try:
        DensityMatrix(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_hermiticity_small_matrices_are_one_block():
    # at verify's sizes the blocked measurement is the plain one
    for dim in (1, 81, 243, 512):
        a = random_hermitian(dim, seed=dim) + 1e-13 * rng(dim).normal(size=(dim, dim))
        assert oracle.hermitian_deviation(a) == pytest.approx(
            float(np.linalg.norm(a - a.conj().T)), rel=1e-12)
    assert oracle.HERMITIAN_BLOCK_ENTRIES // 512 >= 512
    assert math.isnan(oracle.hermitian_deviation(np.array([[1.0, math.nan], [0.0, 1.0]])))


def view_formula_deviation(matrix):
    """`hermitian_deviation` as first written: each row block minus the
    F-ordered view of its conjugated column block."""
    dim = matrix.shape[0]
    rows = max(1, oracle.HERMITIAN_BLOCK_ENTRIES // max(dim, 1))
    total = 0.0
    for lo in range(0, dim, rows):
        diff = matrix[lo:lo + rows] - matrix[:, lo:lo + rows].conj().T
        total += float(np.vdot(diff, diff).real)
    return math.sqrt(total)


@given(st.integers(0, 9), st.booleans(), st.integers(1, 90), st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=3))
def test_hermiticity_is_the_view_formula_bit_for_bit(dim, is_complex, block, seed, nans):
    # any number of row blocks, real or complex, NaN entries included
    r = rng(seed)
    a = r.normal(size=(dim, dim)) + (1j * r.normal(size=(dim, dim)) if is_complex else 0)
    a = a + a.conj().T + 1e-13 * r.normal(size=(dim, dim))
    for i, j in nans:
        if i < dim and j < dim:
            a[i, j] = math.nan
    with mock.patch.object(oracle, "HERMITIAN_BLOCK_ENTRIES", block):
        found, want = oracle.hermitian_deviation(a), view_formula_deviation(a)
    assert found == want or (math.isnan(found) and math.isnan(want))
    assert math.isnan(found) == any(i < dim and j < dim for i, j in nans)


# ----------------------------------------------------------------- entropies

def test_spectrum_report_grouping_and_entropy():
    eigenvalues = [0.4, 0.4 - 1e-12, 0.1, 0.1 + 1e-12, 1e-13, -1e-13]
    found = spectrum_report(eigenvalues)
    # sorted descending, nearly equal values kept apart, the tiny ones dropped
    assert found.tolist() == [0.4, 0.4 - 1e-12, 0.1 + 1e-12, 0.1]
    expected = -math.fsum(x * math.log(x) for x in found.tolist())
    assert abs(von_neumann(eigenvalues) - expected) < 1e-15


def test_spectrum_report_guards():
    with pytest.raises(ValueError):
        spectrum_report([0.9, 0.2])  # sums to 1.1
    with pytest.raises(ValueError):
        spectrum_report([1.2, -0.2])  # genuine negative eigenvalue


def test_von_neumann_values():
    assert von_neumann([1.0, 0.0, 0.0]) == 0.0
    assert abs(von_neumann([1 / 3] * 3) - math.log(3)) < 1e-14
    assert abs(von_neumann([0.25] * 4) - 2 * math.log(2)) < 1e-14


def test_renyi_values():
    report = spectrum_report([1 / 3, 2 / 9, 2 / 9, 2 / 9])
    assert abs(renyi(report, 2.0) - math.log(27 / 7)) < 1e-13
    uniform = spectrum_report([1 / 9] * 9)
    for alpha in (0.5, 2.0, 5.0):
        assert abs(renyi(uniform, alpha) - 2 * math.log(3)) < 1e-12
    near_one = renyi(report, 1.0 + 1e-6)
    assert abs(near_one - von_neumann(report)) < 1e-5


@pytest.mark.parametrize("n,N,L,alpha", [(2, 8, 4, 0.5), (2, 8, 4, complex(0.5, 1.0)),
                                          (3, 4, 2, 0.5)])
def test_entropies_drop_rounding_level_eigenvalues(n, N, L, alpha):
    # these rank-deficient ring blocks leave positive eigenvalues of ~1e-18 in
    # the Gram's null space beside the 4 or 9 true ones; counted in the power
    # sum, they moved S_0.5 by 1e-7
    psi = periodic_vbs_state(ChainSpec(n, N, PERIODIC))
    _, _, wide = oracle._turned(psi, range(L), oracle._block_environment(psi, range(L)))
    eigs = jacobi_eigvalsh(oracle._gram(wide, psi.table))
    assert np.count_nonzero((eigs > 0.0) & (eigs <= oracle.RANK_CUTOFF))
    found = block_spectrum(psi, range(L))
    assert found.tobytes() == eigs[eigs > oracle.RANK_CUTOFF].tobytes() and found.size == n * n
    power_sum = np.exp(alpha * np.log(eigs[eigs > 0.0])).sum()
    want = closed_form.periodic_renyi(n, N, L, alpha)
    assert abs(np.log(power_sum) / (1 - alpha) - want) > 1e-8
    for eigenvalues in (found, eigs):  # the entropies drop them too
        assert abs(renyi(eigenvalues, alpha) - want) < 1e-13
        assert abs(von_neumann(eigenvalues) - closed_form.periodic_entropy(n, N, L)) < 1e-13


def test_renyi_validation():
    report = spectrum_report([0.6, 0.4])
    for bad in (1.0, 0.0, -2.0, complex(-1.0, 1.0), complex(1.0, 0.0)):
        with pytest.raises(ValueError):
            renyi(report, bad)


def test_renyi_branch_point_condition():
    # weights of a length-2 qubit-pair block; this order annihilates the sum
    report = spectrum_report([1 / 3, 2 / 9, 2 / 9, 2 / 9])
    alpha = complex(math.log(3), math.pi) / math.log(1.5)
    with pytest.raises(BranchPointCondition):
        renyi(report, alpha)
    # nearby orders are fine and finite
    value = renyi(report, alpha + 0.1)
    assert np.isfinite(value.real) and np.isfinite(value.imag)


def test_spectrum_report_of_density_matrix():
    psi = open_vbs_state(ChainSpec(2, 2, OPEN))
    dm = reduced_density(psi, [0, 1])
    assert abs(spectrum_report(jacobi_eigvalsh(dm.matrix)).sum() - 1.0) < 1e-10
