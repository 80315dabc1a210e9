"""Exact SU(n) valence-bond-solid chain states and their block entanglement.

Builds open and periodic chain states exactly, evaluates the closed-form
block spectra, von Neumann and Renyi entropies (including complex orders and
their branch points), decomposes block reductions over boundary states, and
cross-checks every closed form against a brute-force partial-trace oracle.
"""

from .closed_form import (
    BlockSpectrum,
    BranchPoint,
    branch_points,
    open_entropy,
    open_renyi,
    open_spectrum,
    periodic_entropy,
    periodic_renyi,
    periodic_spectrum,
    transfer_diagonalizer,
    transfer_matrix,
    transfer_spectrum,
)
from .edges import edge_basis, edge_gram, reconstruct_rho
from .errors import (
    BranchPointCondition,
    BudgetError,
    ConvergenceError,
    DegenerateSpectrumError,
    InvariantError,
)
from .oracle import (
    DensityMatrix,
    block_spectrum,
    exact_block_spectrum,
    jacobi_eigvalsh,
    reduced_density,
    renyi,
    spectrum_report,
    von_neumann,
)
from .states import (
    ChainSpec,
    PureState,
    open_vbs_state,
    periodic_vbs_state,
    ring_norm_squared,
)
from .weyl import (
    bell_vector,
    compose,
    conjugate_embedding,
    pauli_x,
    pauli_z,
    phase_fold,
    swap_identity_residual,
    u_lm,
)

__version__ = "0.1.0"
