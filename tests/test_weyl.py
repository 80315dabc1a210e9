import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vbsent import weyl
from vbsent.weyl import (
    as_index,
    bell_vector,
    compose,
    conjugate_embedding,
    omega_powers,
    pauli_x,
    pauli_z,
    phase_fold,
    swap_identity_residual,
    u_lm,
)

DIMS = (2, 3, 4, 5)


def all_labels(n):
    return [(l, m) for l in range(n) for m in range(n)]


def test_pauli_x_bit_flip():
    assert np.array_equal(pauli_x(2), np.array([[0, 1], [1, 0]], dtype=complex))


def test_pauli_x_shifts_basis_states():
    x = pauli_x(3)
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1
        out = np.zeros(3)
        out[(j + 1) % 3] = 1
        assert np.allclose(x @ e, out)


@pytest.mark.parametrize("n", DIMS)
def test_pauli_orders(n):
    assert np.abs(np.linalg.matrix_power(pauli_x(n), n) - np.eye(n)).max() < 1e-14
    assert np.abs(np.linalg.matrix_power(pauli_z(n), n) - np.eye(n)).max() < 1e-13


def test_pauli_z_values():
    assert np.allclose(pauli_z(2), np.diag([1, -1]))
    assert np.abs(pauli_z(4) - np.diag([1, 1j, -1, -1j])).max() < 1e-14


@pytest.mark.parametrize("n", DIMS)
def test_clock_shift_commutation(n):
    x, z = pauli_x(n), pauli_z(n)
    assert np.abs(z @ x - omega_powers(n)[1] * x @ z).max() < 1e-14


def test_pauli_rejects_small_dimension():
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            pauli_x(bad)
        with pytest.raises(ValueError):
            pauli_z(bad)


def test_u_lm_examples():
    assert np.array_equal(u_lm(3, (0, 0)), np.eye(3, dtype=complex))
    assert np.abs(u_lm(2, (1, 1)) - np.array([[0, -1], [1, 0]])).max() < 1e-14
    direct = pauli_x(3) @ pauli_z(3) @ pauli_z(3)
    assert np.abs(u_lm(3, (1, 2)) - direct).max() < 1e-14


@pytest.mark.parametrize("n", DIMS)
def test_u_lm_unitary(n):
    for a in all_labels(n):
        u = u_lm(n, a)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-12


def test_compose_examples():
    assert compose(2, (0, 1), (1, 0)) == ((1, 1), 1)
    for b in all_labels(3):
        assert compose(3, (0, 0), b) == (b, 0)
    assert compose(3, (2, 1), (2, 2)) == ((1, 0), 2)
    prod = u_lm(3, (2, 1)) @ u_lm(3, (2, 2))
    assert np.abs(prod - omega_powers(3)[2] * u_lm(3, (1, 0))).max() < 1e-13


@pytest.mark.parametrize("n", (2, 3))
def test_compose_matches_matrix_product_exhaustively(n):
    for a in all_labels(n):
        for b in all_labels(n):
            label, k = compose(n, a, b)
            prod = u_lm(n, a) @ u_lm(n, b)
            expected = omega_powers(n)[k] * u_lm(n, label)
            assert np.abs(prod - expected).max() < 1e-13


@given(st.sampled_from((4, 5)), st.integers(0, 99), st.integers(0, 99),
       st.integers(0, 99), st.integers(0, 99))
def test_compose_matches_matrix_product_sampled(n, la, ma, lb, mb):
    a, b = (la, ma), (lb, mb)
    label, k = compose(n, a, b)
    prod = u_lm(n, a) @ u_lm(n, b)
    assert np.abs(prod - omega_powers(n)[k] * u_lm(n, label)).max() < 1e-13


@given(st.integers(2, 7), st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=8),
       st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=8))
def test_phase_fold_splits_like_compose(n, left, right):
    (a, ka), (b, kb) = phase_fold(n, left), phase_fold(n, right)
    joined, k = compose(n, a, b)
    assert phase_fold(n, left + right) == (joined, (ka + kb + k) % n)


def test_phase_fold_edge_cases():
    assert phase_fold(3, []) == ((0, 0), 0)
    assert phase_fold(5, [(2, 3)]) == ((2, 3), 0)
    assert phase_fold(2, [(1, 1), (1, 1)]) == ((0, 0), 1)
    # matrix oracle: (XZ)^2 = -I for qubits
    xz = u_lm(2, (1, 1))
    assert np.abs(xz @ xz + np.eye(2)).max() < 1e-14


@given(st.integers(2, 9), st.integers(-100, 100), st.integers(-100, 100))
def test_bell_index_reduction_and_negation(n, l, m):
    a = as_index(n, (l, m))
    assert a == (l % n, m % n)
    # an unreduced label names the same operator, bit for bit
    assert np.array_equal(u_lm(n, (l, m)), u_lm(n, a))
    assert phase_fold(n, [(l, m), (-l, -m)])[0] == (0, 0)
    # the omega exponent comes back reduced: m_a * l_b mod n
    assert compose(n, (l, m), (l, m)) == (as_index(n, (2 * l, 2 * m)), (l % n) * (m % n) % n)


def test_bell_vector_examples():
    assert np.allclose(bell_vector(2, (0, 0)), np.array([1, 0, 0, 1]) / math.sqrt(2))
    v = np.zeros(9, dtype=complex)
    v[[3, 7, 2]] = 1 / math.sqrt(3)  # |1 0bar> + |2 1bar> + |0 2bar>
    assert np.abs(bell_vector(3, (1, 0)) - v).max() < 1e-14


@pytest.mark.parametrize("n", DIMS)
def test_bell_basis_orthonormal(n):
    vectors = np.array([bell_vector(n, a) for a in all_labels(n)])
    gram = vectors.conj() @ vectors.T
    assert np.abs(gram - np.eye(n * n)).max() < 1e-13


@pytest.mark.parametrize("n", DIMS)
def test_singlet_pair_invariance(n):
    phi = bell_vector(n, (0, 0))
    for l, m in all_labels(n):
        op = np.kron(u_lm(n, (l, m)), u_lm(n, (l, -m)))
        assert np.linalg.norm(op @ phi - phi) < 1e-13


def test_conjugate_embedding_qubit():
    assert np.allclose(conjugate_embedding(2, 0), [0, 1])
    assert np.allclose(conjugate_embedding(2, 1), [-1, 0])


@pytest.mark.parametrize("n", (2, 3, 4))
def test_conjugate_embedding_orthonormal(n):
    vectors = np.array([conjugate_embedding(n, j) for j in range(n)])
    gram = vectors.conj() @ vectors.T
    assert np.abs(gram - np.eye(n)).max() < 1e-14


def test_conjugate_embedding_guard():
    with pytest.raises(ValueError):
        conjugate_embedding(5, 0)
    with pytest.raises(ValueError):
        conjugate_embedding(3, 3)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_swap_identity(n):
    assert swap_identity_residual(n) < 1e-12


def test_swap_identity_guard(monkeypatch):
    with pytest.raises(ValueError):
        swap_identity_residual(5)
    monkeypatch.setattr(weyl, "MAX_EMBED_DIMENSION", 5)
    assert swap_identity_residual(5) < 1e-12


def test_omega_powers_table():
    table = omega_powers(6)
    assert np.abs(table - complex(np.exp(2j * np.pi / 6)) ** np.arange(6)).max() == 0.0
    assert not table.flags.writeable
