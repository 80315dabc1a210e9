import math
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


@pytest.mark.parametrize("n,L", GRID)
def test_edge_states_normalized(n, L):
    basis = edge_basis(n, L)
    want = [(p, q) for p in range(n) for q in range(n) if (p, q) != (0, 0) or L > 1]
    assert [(label.l, label.m) for label in basis.labels] == want
    for vec in basis.vectors:
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-11


def test_zero_norm_edge_state_rejected():
    # the singlet boundary state at L = 1 has weight 0: it is left out of the
    # basis, and its raw vector is zero
    basis = edge_basis(2, 1)
    assert BellIndex(2, 0, 0) not in basis.labels
    assert np.abs(basis.raw[0]).max() == 0.0


def test_length_one_basis_is_the_adjoint():
    basis = edge_basis(2, 1)
    assert len(basis.labels) == 3
    gram = basis.vectors.conj() @ basis.vectors.T
    assert np.abs(gram - np.eye(3)).max() < 1e-12


@pytest.mark.parametrize("n,L", GRID)
def test_edge_basis_orthonormal(n, L):
    basis = edge_basis(n, L)
    gram = basis.vectors.conj() @ basis.vectors.T
    assert np.abs(gram - np.eye(len(basis.labels))).max() < 1e-10


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
    spec = open_spectrum(n, L)
    d = n * n - 1
    for p in range(n):
        for q in range(n):
            k = p * n + q
            label = BellIndex(n, p, q)
            weight = spec.singlet if (-label).is_singlet else spec.adjoint
            want = float(d ** L * weight)
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


@pytest.mark.parametrize("n,L", [(2, 2), (2, 3), (3, 2)])
def test_oracle_projects_to_weights(n, L):
    """<p,q| rho |p,q> recovers the weight with the negated label: the singlet
    branch sits exactly on the (0,0) boundary state."""
    psi = open_vbs_state(ChainSpec(n, L, OPEN))
    rho = reduced_density(psi, range(L)).matrix
    spec = open_spectrum(n, L)
    basis = edge_basis(n, L)
    assert len(basis.labels) == n * n
    for label, vec in zip(basis.labels, basis.vectors):
        weight = vec.conj() @ rho @ vec
        want = float(spec.singlet if (-label).is_singlet else spec.adjoint)
        assert abs(weight.real - want) < 1e-10
        assert abs(weight.imag) < 1e-12


def projector_limit_residual(n, L):
    """Frobenius distance between the block matrix and the flat projector
    that weighs every boundary state by 1/n^2."""
    basis = edge_basis(n, L)
    flat = basis.vectors.T @ basis.vectors.conj() / (n * n)
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
    assert basis.raw.dtype == np.float64
    assert set(np.unique(basis.raw).tolist()) <= {-1.0, 0.0, 1.0}
    assert edge_gram(basis).dtype == np.float64
    rho = reconstruct_rho(basis).matrix
    assert rho.dtype == np.float64
    psi = open_vbs_state(ChainSpec(2, L, OPEN))
    assert np.abs(rho - reduced_density(psi, range(L)).matrix).max() < 1e-15


def test_edge_budget_guards():
    with pytest.raises(BudgetError):
        edge_basis(2, 3, amp_budget=8)
    with pytest.raises(BudgetError):
        reconstruct_rho(edge_basis(2, 3), matrix_budget=8)
