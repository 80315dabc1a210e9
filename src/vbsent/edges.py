"""Degenerate boundary states of the open chain and the block reduction they diagonalize.

For a block of L bulk sites there are n^2 boundary states |p,q>, one per
pair label, stored together as one `states.PureState` over the slots
(n^2, n^2 - 1, ..., n^2 - 1): slot 0 holds the label p*n + q and the L bulk
slots hold |p,q>.  Row p*n + q is the chain states' closure rows
(`states._join`, `_closure`) of the running products from U[p,q] through
the first L-1 bulk labels, with the singlet projected out of the last site.
The n^2 rows hold as many amplitudes as the open chain of L bulk sites,
under its budget (`ChainSpec`).

One translation matters here.  Bulk slots are labelled so that (l, m)
stands for the pair state phi[l,-m] with the barred qudit first, while the
closure produced by the fold is a phi state with the plain qudit first.
Transposing the pair order maps label b to bulk label -b and contributes
the extra phase omega**(-b_l * b_m); both are applied below, which is what
makes the reconstructed block matrix agree entrywise with the brute-force
partial trace (a per-state global phase would not matter, the relabelling
does).

The unnormalized |p,q> has unit-phase amplitudes and squared norm
(n^2-1)**L * w(-p,-q), w the open-chain weight branch: singlet for
(p,q) = (0,0), adjoint otherwise.  The n^2 weights sum to one, so with scale
(n^2-1)**(-L/2) the rows are one unit vector, and the state's norm check
holds exactly.  Its reduction to slot 0 is the edge Gram over (n^2-1)**L;
its partial trace over slot 0 is the block matrix, sum_(p,q) w(-p,-q)
|p,q><p,q| of the normalized states.  At L = 1 the singlet weight vanishes:
the (0,0) row is zero and the block matrix has rank n^2 - 1.

The last slot holds the closure label -b where `states.charges` expects b,
so the charges do not vanish on this state at n >= 3: it is read only
through `oracle.reduced_density`, which never splits by charge.
"""

from __future__ import annotations

import numpy as np

# unused here; perfbench/tests/test_perfbench.py::test_traced_rebinds_importers_and_restores reads it
from .closed_form import open_spectrum  # noqa: F401
from .oracle import DEFAULT_MATRIX_BUDGET, DensityMatrix, reduced_density
from .states import DEFAULT_AMP_BUDGET, OPEN, ChainSpec, PureState, _closure, _join, fold_tables


def edge_basis(n: int, L: int, amp_budget: int = DEFAULT_AMP_BUDGET) -> PureState:
    """Every |p,q> at once, row p*n + q: the closure rows of the keys
    (p, q, 0) joined to every string, closure label b written as -b with
    phase omega**(-b_l * b_m), scaled by (n^2-1)**(-L/2) to one unit vector."""
    ChainSpec(n, L, OPEN, amp_budget)  # the open chain this block is compared with
    tail = fold_tables(n, L - 1)
    every = np.arange(n * n, dtype=tail[0].dtype)
    suml, summ, phase = _join((every // n, every % n, np.zeros_like(every)), tail, n)
    # every term below is at most n^2 - 1: it stays in the tables' dtype
    neg_l, neg_m = (n - suml) % n, (n - summ) % n
    d = n * n - 1
    codes = _closure(n, (neg_l, neg_m, (phase + neg_l * summ) % n), d, 1)
    return PureState(n, (n * n,) + (d,) * L, codes.reshape(-1), d ** (-L / 2))


def edge_gram(basis: PureState) -> np.ndarray:
    """Gram matrix of the unnormalized boundary states, rows/cols at l*n + m:
    (n^2-1)**L times the label slot's reduced density matrix, so entry
    (j, k) is <k|j>.

    Diagonal entries equal (n^2-1)**L times the matching weight branch;
    off-diagonal entries vanish.
    """
    return (basis.n ** 2 - 1) ** (len(basis.dims) - 1) * reduced_density(basis, [0]).matrix


def reconstruct_rho(basis: PureState,
                    matrix_budget: int = DEFAULT_MATRIX_BUDGET) -> DensityMatrix:
    """Block density matrix sum_(p,q) w(-p,-q) |p,q><p,q| of the normalized
    boundary states: the basis's partial trace over its label slot.

    Must agree with the brute-force partial trace of any open chain
    containing an L-site block, entrywise to working precision.
    """
    return reduced_density(basis, range(1, len(basis.dims)), matrix_budget)
