import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from vbsent.closed_form import open_spectrum
from vbsent.edges import edge_basis, edge_gram, reconstruct_rho
from vbsent.errors import BudgetError
from vbsent.oracle import reduced_density
from vbsent.states import OPEN, ChainSpec, open_vbs_state
from vbsent.weyl import BellIndex

GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]


def unit_rows(basis):
    """The labels k = p*n + q whose boundary state is nonzero, and those
    states as unit rows: the basis's rows normalized by the Gram diagonal."""
    n, L = basis.n, len(basis.dims) - 1
    rows = basis.amplitudes().reshape(n * n, -1)
    # a row of the unit vector is its boundary state times (n^2-1)**(-L/2)
    norms = np.sqrt(np.diagonal(edge_gram(basis)).real / (n * n - 1) ** L)
    keep = np.flatnonzero(norms)
    return keep, rows[keep] / norms[keep, None]


def weight(n, L, k):
    """w(-p,-q) of label k = p*n + q: the singlet branch at (0,0) only."""
    singlet, adjoint = open_spectrum(n, L).floats()
    return singlet if (-BellIndex(n, k // n, k % n)).is_singlet else adjoint


@pytest.mark.parametrize("n,L", GRID)
def test_edge_states_normalized(n, L):
    basis = edge_basis(n, L)
    assert basis.dims == (n * n,) + (n * n - 1,) * L
    keep, vectors = unit_rows(basis)
    assert keep.tolist() == [k for k in range(n * n) if k or L > 1]
    for vec in vectors:
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-11


def test_zero_norm_edge_state_rejected():
    # the singlet boundary state at L = 1 has weight 0: its row is zero, and
    # it is left out of the normalized states
    basis = edge_basis(2, 1)
    assert np.count_nonzero(basis.codes.reshape(4, -1)[0]) == 0
    assert edge_gram(basis)[0, 0] == 0.0
    assert 0 not in unit_rows(basis)[0]


def test_length_one_basis_is_the_adjoint():
    keep, vectors = unit_rows(edge_basis(2, 1))
    assert keep.size == 3
    gram = vectors.conj() @ vectors.T
    assert np.abs(gram - np.eye(3)).max() < 1e-12


@pytest.mark.parametrize("n,L", GRID)
def test_edge_basis_orthonormal(n, L):
    keep, vectors = unit_rows(edge_basis(n, L))
    gram = vectors.conj() @ vectors.T
    assert np.abs(gram - np.eye(keep.size)).max() < 1e-10


def test_gram_diagonal_frozen_values():
    gram = edge_gram(edge_basis(2, 2))
    assert abs(gram[0, 0].real - 3.0) < 1e-12   # label (0,0): 9 * singlet weight
    for k in (1, 2, 3):
        assert abs(gram[k, k].real - 2.0) < 1e-12  # 9 * adjoint weight
    off = gram - np.diag(np.diagonal(gram))
    assert np.abs(off).max() < 1e-10


@pytest.mark.parametrize("n,L", GRID)
def test_gram_matches_weights(n, L):
    gram = edge_gram(edge_basis(n, L))
    for k in range(n * n):
        want = (n * n - 1) ** L * weight(n, L, k)
        dev = abs(gram[k, k].real - want)
        assert dev <= 1e-9 * max(want, 1e-9)
    off = gram - np.diag(np.diagonal(gram))
    assert np.abs(off).max() < 1e-10


@pytest.mark.parametrize("n,L,chain", [(2, 1, 1), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 2, 3)])
def test_reconstruction_matches_oracle(n, L, chain):
    rho = reconstruct_rho(edge_basis(n, L))
    psi = open_vbs_state(ChainSpec(n, chain, OPEN))
    oracle_rho = reduced_density(psi, range(L))
    assert np.linalg.norm(rho.matrix - oracle_rho.matrix) < 1e-10
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12


@pytest.mark.parametrize("n,L", GRID + [(4, 2)])
def test_reconstruction_is_the_weighted_sum_of_boundary_projectors(n, L):
    # the block matrix sum_(p,q) w(-p,-q) |p,q><p,q|, weights in closed form
    basis = edge_basis(n, L)
    keep, vectors = unit_rows(basis)
    weights = np.array([weight(n, L, k) for k in keep])
    want = (vectors.T * weights) @ vectors.conj()
    assert np.abs(reconstruct_rho(basis).matrix - want).max() < 1e-12


def test_edge_basis_memory_stays_near_the_codes():
    tracemalloc.start()
    try:
        basis = edge_basis(2, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * basis.codes.nbytes


@pytest.mark.parametrize("n,L", [(2, 2), (2, 3), (3, 2)])
def test_oracle_projects_to_weights(n, L):
    """<p,q| rho |p,q> recovers the weight with the negated label: the singlet
    branch sits exactly on the (0,0) boundary state."""
    psi = open_vbs_state(ChainSpec(n, L, OPEN))
    rho = reduced_density(psi, range(L)).matrix
    keep, vectors = unit_rows(edge_basis(n, L))
    assert keep.size == n * n
    for k, vec in zip(keep, vectors):
        found = vec.conj() @ rho @ vec
        assert abs(found.real - weight(n, L, k)) < 1e-10
        assert abs(found.imag) < 1e-12


def projector_limit_residual(n, L):
    """Frobenius distance between the block matrix and the flat projector
    that weighs every boundary state by 1/n^2."""
    basis = edge_basis(n, L)
    _, vectors = unit_rows(basis)
    flat = vectors.T @ vectors.conj() / (n * n)
    return float(np.linalg.norm(reconstruct_rho(basis).matrix - flat))


def test_projector_limit_decay():
    r2 = projector_limit_residual(2, 2)
    r4 = projector_limit_residual(2, 4)
    assert r2 > 0
    ratio = r4 / r2
    assert ratio == pytest.approx(1 / 9, rel=1.0)  # within a factor of two
    # exact value: |decay| * sqrt(1 - 1/n^2) once all weights exist
    for n, L in [(2, 2), (2, 3), (3, 2)]:
        expected = abs(float(Fraction(-1, n * n - 1) ** L)) * math.sqrt(1 - 1 / (n * n))
        assert abs(projector_limit_residual(n, L) - expected) < 1e-12


@pytest.mark.parametrize("L", [1, 2, 4])
def test_su2_boundary_states_are_exactly_real(L):
    # omega = -1 at n = 2: the chain states' exact table, with no rounding of exp(i pi)
    basis = edge_basis(2, L)
    assert basis.table.dtype == np.float64
    assert set(np.unique(basis.amplitudes() / basis.scale).tolist()) <= {-1.0, 0.0, 1.0}
    assert edge_gram(basis).dtype == np.float64
    rho = reconstruct_rho(basis).matrix
    assert rho.dtype == np.float64
    psi = open_vbs_state(ChainSpec(2, L, OPEN))
    assert np.abs(rho - reduced_density(psi, range(L)).matrix).max() < 1e-15


def test_edge_budget_guards():
    for L in (0, 1.0):
        with pytest.raises(ValueError, match="N >= 1"):
            edge_basis(2, L)
    with pytest.raises(BudgetError):
        edge_basis(2, 3, amp_budget=8)
    with pytest.raises(BudgetError):
        reconstruct_rho(edge_basis(2, 3), matrix_budget=8)


@pytest.mark.parametrize("n,L", [(2, 1), (2, 3), (3, 2)])
def test_edge_budget_is_the_open_chain_budget(n, L):
    # the n^2 boundary states hold n^2 (n^2-1)**L amplitudes, as many as the
    # open chain of L bulk sites they are compared with
    need = n * n * (n * n - 1) ** L
    with pytest.raises(BudgetError, match=f"state would need {need} amplitudes"):
        ChainSpec(n, L, OPEN, need - 1)
    with pytest.raises(BudgetError, match=f"state would need {need} amplitudes"):
        edge_basis(n, L, amp_budget=need - 1)
    ChainSpec(n, L, OPEN, need)
    assert edge_basis(n, L, amp_budget=need).codes.size == need
