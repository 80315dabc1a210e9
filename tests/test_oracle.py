import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vbsent import oracle
from vbsent.checks import OPEN_GRID, PERIODIC_GRID
from vbsent.errors import BranchPointCondition, BudgetError, ConvergenceError, InvariantError
from vbsent.oracle import (
    DensityMatrix,
    SpectrumReport,
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


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(ValueError):
        jacobi_eigvalsh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        jacobi_eigvalsh(np.zeros((2, 3)))


def test_jacobi_sweep_limit(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_MAX_SWEEPS", 0)
    h = random_hermitian(6, 5)
    with pytest.raises(ConvergenceError):
        jacobi_eigvalsh(h)
    # an already diagonal matrix needs no sweeps at all
    jacobi_eigvalsh(np.diag([0.5, 0.5]))


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
    left = block_spectrum(psi, range(3)).eigenvalues
    right = block_spectrum(psi, range(3, len(psi.dims))).eigenvalues
    k = min(left.size, right.size)
    assert np.abs(left[:k] - right[:k]).max() < 1e-11
    assert np.abs(left[k:]).max() < 1e-11 if left.size > k else True


def test_schmidt_symmetry_periodic():
    psi = periodic_vbs_state(ChainSpec(2, 4, PERIODIC))
    front = block_spectrum(psi, range(2)).eigenvalues
    back = block_spectrum(psi, range(2, 4)).eigenvalues
    assert np.abs(front - back).max() < 1e-11


def test_single_site_block_n3():
    psi = open_vbs_state(ChainSpec(3, 3, OPEN))
    report = block_spectrum(psi, [0])
    assert np.allclose(report.eigenvalues, [1 / 8] * 8, atol=1e-12)


def test_schmidt_cut_validation():
    psi = open_vbs_state(ChainSpec(2, 2, OPEN))
    for block in (range(0), range(len(psi.dims), len(psi.dims) + 1), [0, 2]):
        with pytest.raises(ValueError):
            block_spectrum(psi, block)
    # the whole chain is a block too: the pure state has one weight
    whole = block_spectrum(psi, range(len(psi.dims))).eigenvalues
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
            eigs = block_spectrum(psi, range(start, start + 2)).eigenvalues
            nonzero = eigs[eigs > 1e-12]
            if reference is None:
                reference = nonzero
            assert np.abs(nonzero - reference).max() < 1e-11


# ------------------------------------------------------- independent blocks

NO_SPLIT = 10 ** 9


def split_every_block(monkeypatch):
    """Split every block matrix into its charge sectors, however small."""
    monkeypatch.setattr(oracle, "SPLIT_MIN_SIDE", 0)
    monkeypatch.setattr(oracle, "SPLIT_MIN_ENTRIES", 0)


def verify_grid_blocks():
    """(state, block) for every block of the open and periodic verify grids."""
    for n, grid in OPEN_GRID.items():
        for N in grid["chains"]:
            psi = open_vbs_state(ChainSpec(n, N, OPEN))
            for L in grid["lengths"]:
                for start in range(N - L + 1):
                    yield psi, range(start, start + L)
    for n, chains in PERIODIC_GRID.items():
        for N in chains:
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
        on_rows = m.shape[0] <= m.shape[1]
        real = oracle._gram(m, psi.table, on_rows)
        assert real.dtype == np.float64
        assert np.abs(real - oracle._gram(m, psi.table.astype(complex), on_rows)).max() <= 1e-15
        rho = reduced_density(psi, block).matrix
        assert rho.dtype == np.float64
        assert np.abs(rho - oracle._gram(m, psi.table.astype(complex), True)).max() <= 1e-15
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
        if m.shape[0] > m.shape[1]:  # the smaller side, as block_spectrum takes it
            gram = oracle._gram(m, psi.table, on_rows=False)
            assert np.abs(gram - d.conj().T @ d).max() <= 1e-15
        count += 1
    assert count == 55 + 19 + 27 + 5 + 2  # open grids, ring grids, the N=6 and N=13 rings


def test_split_agrees_with_whole_gram(monkeypatch):
    count = 0
    for psi, block in verify_grid_blocks():
        monkeypatch.setattr(oracle, "SPLIT_MIN_SIDE", NO_SPLIT)
        whole = block_spectrum(psi, block).eigenvalues
        split_every_block(monkeypatch)
        split = block_spectrum(psi, block).eigenvalues
        assert split.shape == whole.shape
        assert np.abs(split - whole).max() < 1e-13
        count += 1
    assert count > 100


def test_split_of_ring_blocks_into_charge_sectors(monkeypatch):
    split_every_block(monkeypatch)
    psi = periodic_vbs_state(ChainSpec(3, 6, PERIODIC))
    for block in (range(3), range(2, 5), range(3, 6)):  # the last holds the closing site
        m = oracle._block_environment(psi, block)
        spectra = list(oracle._sector_spectra(psi, block, m))  # certified: no nonzero is left out
        assert len(spectra) == 9  # one per Z_3 x Z_3 charge
        assert sum(e.size for e in spectra) <= 512
        assert abs(sum(e.sum() for e in spectra) - 1.0) < 1e-13
        d = psi.table[m]
        reference = np.sort(np.linalg.eigvalsh(d @ d.conj().T))[::-1]
        report = block_spectrum(psi, block)
        assert report.eigenvalues.shape == (512,)  # min(d_block, d_env)
        assert np.abs(report.eigenvalues - reference).max() < 1e-13


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
            gram = oracle._gram(sector, psi.table, on_rows=sector.shape[0] <= sector.shape[1])
            found.append(jacobi_eigvalsh(gram))
    found = np.concatenate(found)
    return spectrum_report(np.concatenate([found, np.zeros(min(m.shape) - found.size)])).eigenvalues


def test_square_split_blocks_gather_their_sectors_whole():
    # a square block matrix has a head of one row: each sector is one gather,
    # and the eigenvalues are bit-identical to sectors gathered whole
    psi = periodic_vbs_state(ChainSpec(3, 6, PERIODIC))
    for block in (range(3), range(3, 6)):
        assert oracle._block_environment(psi, block).shape == (512, 512)
        assert (block_spectrum(psi, block).eigenvalues.tobytes()
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
        split = block_spectrum(psi, block).eigenvalues
        monkeypatch.setattr(oracle, "SPLIT_MIN_SIDE", NO_SPLIT)
        whole = block_spectrum(psi, block).eigenvalues
        monkeypatch.undo()
        assert np.abs(split - whole).max() <= 1e-15, (psi.n, psi.dims, block)
        count += 1
    assert count == 24 + 15  # verify-grid blocks, dense spectrum blocks


def test_split_is_bit_identical_across_calls(monkeypatch):
    split_every_block(monkeypatch)
    psi = periodic_vbs_state(ChainSpec(3, 6, PERIODIC))
    first, second = block_spectrum(psi, range(3)), block_spectrum(psi, range(3))
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
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
    assert block_spectrum(bad, range(2)).eigenvalues.shape == (9,)


def test_split_certificate_rejects_nonzeros_across_sectors(monkeypatch):
    split_every_block(monkeypatch)
    psi = permuted_block_state()
    with pytest.raises(InvariantError, match="cross the Z_n x Z_n charge sectors"):
        block_spectrum(psi, range(2))
    monkeypatch.setattr(oracle, "SPLIT_MIN_SIDE", NO_SPLIT)  # the whole matrix needs no law
    assert block_spectrum(psi, range(2)).eigenvalues.shape == (72,)


# ------------------------------------------------- chunked real-view Gram


def tall_open_blocks():
    """(n, N, L, start, psi, M) for every open-grid block whose code matrix M
    has more rows than columns."""
    for n, grid in OPEN_GRID.items():
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
        assert np.abs(oracle._gram(m, psi.table, False) - d.conj().T @ d).max() < 1e-13, (n, N, L, start)
        count += 1
    assert count == 17
    psi = open_vbs_state(ChainSpec(4, 5, OPEN))
    m = oracle._block_environment(psi, range(5))  # 759375 x 16, many chunks
    d = psi.table[m]
    assert np.abs(oracle._gram(m, psi.table, False) - d.conj().T @ d).max() < 1e-13


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
            for on_rows, want in ((True, d @ d.conj().T), (False, d.conj().T @ d)):
                gram = oracle._gram(m, table, on_rows)
                assert np.abs(gram - want).max() < 1e-13
                side, length = m.shape if on_rows else m.shape[::-1]
                if length >= side * table.itemsize // 8:  # through the float64 view: exactly Hermitian
                    assert np.array_equal(gram, gram.conj().T)
        for on_rows in (True, False):
            gram = oracle._gram(real_codes, real, on_rows)
            d = real[real_codes]
            assert gram.dtype == np.float64
            assert np.abs(gram - (d @ d.T if on_rows else d.T @ d)).max() < 1e-13


def test_one_chunk_complex_gram_sums_through_the_real_view():
    # a charge sector of the n = 4 open L = 5 state: one column of 47461
    # nonzero codes, which fits one chunk; its 1 x 1 Gram is its weight 1/16
    codes = rng(7).integers(1, 5, size=(47461, 1)).astype(np.uint8)
    table = np.concatenate(([0.0], phase_table(4) * 15 ** -2.5))
    d = table[codes[:, 0]]
    exact = math.fsum(np.concatenate([d.real ** 2, d.imag ** 2]).tolist())
    for m, on_rows in ((codes, False), (codes.T, True)):
        assert abs(complex(oracle._gram(m, table, on_rows)[0, 0]) - exact) <= 4e-16


def test_real_view_gram_is_bit_identical_across_calls():
    psi = open_vbs_state(ChainSpec(3, 4, OPEN))
    m = oracle._block_environment(psi, range(1, 3))  # 64 x 576, chunked
    first, second = (oracle._gram(m, psi.table, on_rows) for on_rows in (True, True))
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
            von_neumann(SpectrumReport(np.array([0.5, 0.5 + bad])))
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
    assert dm.dim == 4096
    assert abs(np.trace(dm.matrix) - 1.0) < 1e-15
    report = block_spectrum(psi, range(4))
    assert abs(report.eigenvalues.sum() - 1.0) < 1e-15


def test_hermiticity_measured_without_full_size_temporaries():
    # dim 4096 (256 MiB): a difference m - m^dagger built whole took two
    # temporaries of that size
    psi = open_vbs_state(ChainSpec(3, 4, OPEN))
    m = oracle._block_environment(psi, range(4))
    rho = oracle._gram(m, psi.table, on_rows=True)
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


# ----------------------------------------------------------------- entropies

def test_spectrum_report_grouping_and_entropy():
    report = spectrum_report([0.4, 0.4 - 1e-12, 0.1, 0.1 + 1e-12, -1e-13])
    # sorted descending, nearly equal values kept apart, the tiny negative clamped
    assert report.eigenvalues.tolist() == [0.4, 0.4 - 1e-12, 0.1 + 1e-12, 0.1, 0.0]
    assert report.eigenvalues.min() == 0.0
    expected = -math.fsum(x * math.log(x) for x in report.eigenvalues.tolist() if x > 0.0)
    assert abs(von_neumann(report) - expected) < 1e-15


def test_spectrum_report_guards():
    with pytest.raises(ValueError):
        spectrum_report([0.9, 0.2])  # sums to 1.1
    with pytest.raises(ValueError):
        spectrum_report([1.2, -0.2])  # genuine negative eigenvalue


def test_von_neumann_values():
    assert von_neumann(spectrum_report([1.0, 0.0, 0.0])) == 0.0
    assert abs(von_neumann(spectrum_report([1 / 3] * 3)) - math.log(3)) < 1e-14
    assert abs(von_neumann(spectrum_report([0.25] * 4)) - 2 * math.log(2)) < 1e-14


def test_renyi_values():
    report = spectrum_report([1 / 3, 2 / 9, 2 / 9, 2 / 9])
    assert abs(renyi(report, 2.0) - math.log(27 / 7)) < 1e-13
    uniform = spectrum_report([1 / 9] * 9)
    for alpha in (0.5, 2.0, 5.0):
        assert abs(renyi(uniform, alpha) - 2 * math.log(3)) < 1e-12
    near_one = renyi(report, 1.0 + 1e-6)
    assert abs(near_one - von_neumann(report)) < 1e-5


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
    report = spectrum_report(jacobi_eigvalsh(dm.matrix))
    assert abs(report.eigenvalues.sum() - 1.0) < 1e-10
