"""Degenerate boundary states of the open chain and the block reduction they diagonalize.

For a block of L bulk sites there are n^2 boundary states |p,q>, one per
pair label.  Each is built with the same running-product machinery as the
chain states: fold U[p,q] through the first L-1 bulk labels, close on the
last site, and project the singlet component out of the closure.

One translation matters here.  Bulk slots are labelled so that (l, m)
stands for the pair state phi[l,-m] with the barred qudit first, while the
closure produced by the fold is a phi state with the plain qudit first.
Transposing the pair order maps label b to bulk label -b and contributes
the extra phase omega**(-b_l * b_m); both are applied below, which is what
makes the reconstructed block matrix agree entrywise with the brute-force
partial trace (a per-state global phase would not matter, the relabelling
does).

The squared norm of the unnormalized |p,q> is (n^2-1)**L * w(-p,-q) where w
is the open-chain weight branch, singlet for (p,q) = (0,0) and adjoint
otherwise; the normalization constant is its inverse square root.  At L = 1
the singlet weight vanishes, so the (0,0) boundary state is the zero vector
and cannot be normalized -- the block reduction has rank n^2 - 1 there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .closed_form import open_spectrum
from .errors import BudgetError
from .oracle import DEFAULT_MATRIX_BUDGET, DensityMatrix
from .states import DEFAULT_AMP_BUDGET, PureState, SiteBasis, fold_tables
from .weyl import BellIndex, IndexLike, as_index, omega_powers


def _weight(n: int, L: int, label: BellIndex) -> float:
    singlet, adjoint = open_spectrum(n, L).floats()
    return singlet if (-label).is_singlet else adjoint


def _check_edge_size(n: int, L: int, amp_budget: int) -> None:
    if not isinstance(L, int) or L < 1:
        raise ValueError(f"block length must be an integer >= 1, got {L!r}")
    if (n * n - 1) ** L > amp_budget:
        raise BudgetError(
            f"boundary state needs {(n * n - 1) ** L} amplitudes, budget is {amp_budget}"
        )


def edge_vector_unnormalized(n: int, L: int, label: IndexLike,
                             amp_budget: int = DEFAULT_AMP_BUDGET) -> np.ndarray:
    """Raw amplitude vector of |p,q> with the normalization constant set to 1.

    Zero everywhere for (p,q) = (0,0) at L = 1 (the closure is fully
    projected out).
    """
    label = as_index(n, label)
    _check_edge_size(n, L, amp_budget)
    d = n * n - 1
    suml, summ, phase = (t.astype(np.int64) for t in fold_tables(n, L - 1))
    total_l = (label.l + suml) % n
    total_m = (label.m + summ) % n
    # initial m-sum q contributes q * (sum of config l's) to the fold phase,
    # and transposing the closure pair adds -total_l * total_m
    exp = (phase + label.m * suml - total_l * total_m) % n
    closure = ((-total_l) % n) * n + ((-total_m) % n)
    keep = np.nonzero((total_l != 0) | (total_m != 0))[0]
    amps = np.zeros(d ** L, dtype=complex)
    amps[keep * d + (closure[keep] - 1)] = omega_powers(n)[exp[keep]]
    return amps


def edge_state(n: int, L: int, label: IndexLike,
               amp_budget: int = DEFAULT_AMP_BUDGET) -> PureState:
    """Normalized boundary state |p,q> over L adjoint slots.

    Raises ValueError for the zero-norm case (singlet label at L = 1).
    """
    label = as_index(n, label)
    weight = _weight(n, L, label)
    if weight == 0.0:
        raise ValueError(
            f"boundary state {(label.l, label.m)} has zero norm at block length {L}"
        )
    raw = edge_vector_unnormalized(n, L, label, amp_budget)
    scale = 1.0 / math.sqrt((n * n - 1) ** L * weight)
    return PureState((SiteBasis(n, "adjoint"),) * L, raw * scale)


@dataclass(frozen=True)
class EdgeBasis:
    """All normalizable boundary states of a block, row per label."""

    n: int
    L: int
    labels: Tuple[BellIndex, ...]
    vectors: np.ndarray  # shape (len(labels), (n^2-1)**L)


def edge_basis(n: int, L: int, amp_budget: int = DEFAULT_AMP_BUDGET) -> EdgeBasis:
    """Build every normalizable |p,q|; at L = 1 the singlet label is absent."""
    labels = []
    rows = []
    for p in range(n):
        for q in range(n):
            label = BellIndex(n, p, q)
            if _weight(n, L, label) == 0.0:
                continue
            labels.append(label)
            rows.append(edge_state(n, L, label, amp_budget).amps)
    return EdgeBasis(n, L, tuple(labels), np.array(rows))


def edge_gram(n: int, L: int, amp_budget: int = DEFAULT_AMP_BUDGET) -> np.ndarray:
    """Gram matrix of the unnormalized boundary states, rows/cols at l*n + m.

    Diagonal entries equal (n^2-1)**L times the matching weight branch;
    off-diagonal entries vanish.
    """
    nn = n * n
    rows = np.array([
        edge_vector_unnormalized(n, L, (k // n, k % n), amp_budget) for k in range(nn)
    ])
    return rows.conj() @ rows.T


def reconstruct_rho(n: int, L: int,
                    amp_budget: int = DEFAULT_AMP_BUDGET,
                    matrix_budget: int = DEFAULT_MATRIX_BUDGET) -> DensityMatrix:
    """Block density matrix assembled as sum_(p,q) w(-p,-q) |p,q><p,q|.

    Must agree with the brute-force partial trace of any open chain
    containing an L-site block, entrywise to working precision.
    """
    dim = (n * n - 1) ** L
    if dim > matrix_budget:
        raise BudgetError(f"block dimension {dim} exceeds matrix budget {matrix_budget}")
    basis = edge_basis(n, L, amp_budget)
    rho = np.zeros((dim, dim), dtype=complex)
    for label, vec in zip(basis.labels, basis.vectors):
        rho += _weight(n, L, label) * np.outer(vec, vec.conj())
    return DensityMatrix((SiteBasis(n, "adjoint"),) * L, rho)


def projector_limit_residual(n: int, L: int,
                             amp_budget: int = DEFAULT_AMP_BUDGET,
                             matrix_budget: int = DEFAULT_MATRIX_BUDGET) -> float:
    """Frobenius distance between the block matrix and the flat boundary projector.

    The flat projector weighs every boundary state by 1/n^2; the distance
    decays in proportion to the signed decay factor of the block length, and
    is nonzero at any finite L (the two weight branches stay separated).
    """
    rho = reconstruct_rho(n, L, amp_budget, matrix_budget).matrix
    basis = edge_basis(n, L, amp_budget)
    flat = basis.vectors.T @ basis.vectors.conj() / (n * n)
    return float(np.linalg.norm(rho - flat))
