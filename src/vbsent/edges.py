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

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .closed_form import open_spectrum
from .errors import BudgetError
from .oracle import DEFAULT_MATRIX_BUDGET, DensityMatrix
from .states import DEFAULT_AMP_BUDGET, SiteBasis, fold_tables, phase_table
from .weyl import BellIndex, IndexLike, as_index


def _check_edge_size(n: int, L: int, amp_budget: int) -> None:
    if not isinstance(L, int) or L < 1:
        raise ValueError(f"block length must be an integer >= 1, got {L!r}")
    if (n * n - 1) ** L > amp_budget:
        raise BudgetError(
            f"boundary state needs {(n * n - 1) ** L} amplitudes, budget is {amp_budget}"
        )


def _raw_rows(n: int, L: int, labels: Sequence[BellIndex], amp_budget: int) -> np.ndarray:
    """Raw amplitude vectors of |p,q> for `labels`, one row each, from one fold.

    The phases come from the chain states' exact table, so n = 2 rows are real.
    """
    _check_edge_size(n, L, amp_budget)
    d = n * n - 1
    suml, summ, phase = (t.astype(np.int64) for t in fold_tables(n, L - 1))
    p, q = np.array([(label.l, label.m) for label in labels]).T[:, :, None]
    total_l = (p + suml) % n
    total_m = (q + summ) % n
    # initial m-sum q contributes q * (sum of config l's) to the fold phase,
    # and transposing the closure pair adds -total_l * total_m
    exp = (phase + q * suml - total_l * total_m) % n
    closure = ((-total_l) % n) * n + ((-total_m) % n)
    phases = phase_table(n)
    rows = np.zeros((len(labels), d ** L), dtype=phases.dtype)
    row, config = np.nonzero(closure)  # closure 0: the singlet, projected out
    rows[row, config * d + (closure[row, config] - 1)] = phases[exp[row, config]]
    return rows


def edge_vector_unnormalized(n: int, L: int, label: IndexLike,
                             amp_budget: int = DEFAULT_AMP_BUDGET) -> np.ndarray:
    """Raw amplitude vector of |p,q> with the normalization constant set to 1.

    Zero everywhere for (p,q) = (0,0) at L = 1 (the closure is fully
    projected out).
    """
    return _raw_rows(n, L, [as_index(n, label)], amp_budget)[0]


@dataclass(frozen=True)
class EdgeBasis:
    """The boundary states of a block: every raw vector, and the normalizable
    ones normalized, with the weight each carries in the block matrix."""

    n: int
    L: int
    raw: np.ndarray  # shape (n^2, (n^2-1)**L), row l*n + m holds |l,m> unnormalized
    labels: Tuple[BellIndex, ...]
    vectors: np.ndarray  # shape (len(labels), (n^2-1)**L), unit rows
    weights: np.ndarray  # w(-p,-q) of each label


def edge_basis(n: int, L: int, amp_budget: int = DEFAULT_AMP_BUDGET) -> EdgeBasis:
    """Build all n^2 raw |p,q> once and normalize every normalizable one;
    at L = 1 the singlet label has weight 0 and is absent."""
    labels = [BellIndex(n, k // n, k % n) for k in range(n * n)]
    raw = _raw_rows(n, L, labels, amp_budget)
    singlet, adjoint = open_spectrum(n, L).floats()
    weights = np.array([singlet if (-label).is_singlet else adjoint for label in labels])
    keep = np.flatnonzero(weights)
    vectors = raw[keep] / np.sqrt((n * n - 1) ** L * weights[keep])[:, None]
    return EdgeBasis(n, L, raw, tuple(labels[k] for k in keep), vectors, weights[keep])


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
    return DensityMatrix((SiteBasis(basis.n, "adjoint"),) * basis.L, rho)
