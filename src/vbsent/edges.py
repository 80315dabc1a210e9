"""Degenerate boundary states of the open chain and the block reduction they diagonalize.

For a block of L bulk sites there are n^2 boundary states |p,q>, one per
pair label: the chain states' closure rows (`states._join`, `_closure`)
of the running products from U[p,q] through the first L-1 bulk labels,
with the singlet projected out of the last site.  The n^2 rows hold as many
amplitudes as the open chain of L bulk sites, under its budget (`ChainSpec`).

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

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .closed_form import open_spectrum
from .errors import BudgetError
from .oracle import DEFAULT_MATRIX_BUDGET, DensityMatrix
from .states import DEFAULT_AMP_BUDGET, OPEN, ChainSpec, _closure, _join, fold_tables, phase_table
from .weyl import BellIndex


def _raw_rows(n: int, L: int) -> np.ndarray:
    """Raw amplitude vectors of every |p,q>, row p*n + q: the closure rows of
    the keys (p, q, 0) joined to every string, closure label b written as -b
    with phase omega**(-b_l * b_m), decoded exactly (real at n = 2)."""
    tail = fold_tables(n, L - 1)
    every = np.arange(n * n, dtype=tail[0].dtype)
    suml, summ, phase = _join((every // n, every % n, np.zeros_like(every)), tail, n)
    # every term below is at most n^2 - 1: it stays in the tables' dtype
    neg_l, neg_m = (n - suml) % n, (n - summ) % n
    codes = _closure(n, (neg_l, neg_m, (phase + neg_l * summ) % n), n * n - 1, 1)
    return np.array([0, *phase_table(n)])[codes.reshape(n * n, -1)]


@dataclass(frozen=True)
class EdgeBasis:
    """The boundary states of a block: every raw vector, and the normalizable
    ones normalized, with the weight each carries in the block matrix."""

    raw: np.ndarray  # shape (n^2, (n^2-1)**L), row l*n + m holds |l,m> unnormalized
    labels: Tuple[BellIndex, ...]
    vectors: np.ndarray  # shape (len(labels), (n^2-1)**L), unit rows
    weights: np.ndarray  # w(-p,-q) of each label


def edge_basis(n: int, L: int, amp_budget: int = DEFAULT_AMP_BUDGET) -> EdgeBasis:
    """Build all n^2 raw |p,q> once and normalize every normalizable one;
    at L = 1 the singlet label has weight 0 and is absent."""
    ChainSpec(n, L, OPEN, amp_budget)  # the open chain this block is compared with
    labels = [BellIndex(n, k // n, k % n) for k in range(n * n)]
    raw = _raw_rows(n, L)
    singlet, adjoint = open_spectrum(n, L).floats()
    weights = np.array([singlet if (-label).is_singlet else adjoint for label in labels])
    keep = np.flatnonzero(weights)
    vectors = raw[keep] / np.sqrt((n * n - 1) ** L * weights[keep])[:, None]
    return EdgeBasis(raw, tuple(labels[k] for k in keep), vectors, weights[keep])


def edge_gram(basis: EdgeBasis) -> np.ndarray:
    """Gram matrix of the unnormalized boundary states, rows/cols at l*n + m.

    Diagonal entries equal (n^2-1)**L times the matching weight branch;
    off-diagonal entries vanish.
    """
    return basis.raw.conj() @ basis.raw.T


def reconstruct_rho(basis: EdgeBasis,
                    matrix_budget: int = DEFAULT_MATRIX_BUDGET) -> DensityMatrix:
    """Block density matrix assembled as sum_(p,q) w(-p,-q) |p,q><p,q|,
    one product V^T diag(w) conj(V) of the normalized basis rows V.

    Must agree with the brute-force partial trace of any open chain
    containing an L-site block, entrywise to working precision.
    """
    dim = basis.vectors.shape[1]
    if dim > matrix_budget:
        raise BudgetError(f"block dimension {dim} exceeds matrix budget {matrix_budget}")
    rho = (basis.vectors.T * basis.weights) @ basis.vectors.conj()
    return DensityMatrix(rho)
