"""Named verification checks pairing every closed form with its brute-force route.

Each check runs a fixed grid, reports its worst deviation against a pinned
tolerance, and never weakens the comparison to pass: the closed forms and
the oracle must meet in the middle.  The CLI `verify` command and the
acceptance test suite both drive this registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import closed_form, edges, oracle, states, weyl
from .errors import BudgetError

#: Grids per check; n -> per-n parameters.
OPEN_GRID: Dict[int, dict] = {
    2: {"lengths": range(1, 6), "chains": range(1, 7)},
    3: {"lengths": range(1, 4), "chains": range(1, 5)},
}
PERIODIC_GRID: Dict[int, Sequence[int]] = {2: range(3, 9), 3: range(3, 5)}
EDGE_GRID: Dict[int, Sequence[int]] = {2: range(1, 6), 3: range(1, 4)}
SATURATION_NS = (2, 3, 4)
FLATNESS_NS = (2, 3)
FLATNESS_ORDERS = (0.5, 0.9, 1.1, 2.0, 5.0, 10.0)
BRANCH_GRID: Dict[int, Sequence[int]] = {2: range(2, 7), 3: range(2, 7)}
SWAP_NS = (2, 3, 4)
INVARIANCE_NS = (2, 3, 4, 5)
TRANSFER_NS = (2, 3, 4)


@dataclass
class CheckResult:
    """Outcome of one check; `evaluated` counts the grid points it compared.

    A check that compared no point has shown nothing, so it is never
    `passed`: its status is SKIP and it fails a verification run.
    """

    name: str
    passed: bool
    max_dev: float
    tolerance: float
    detail: str = ""
    evaluated: int = 0

    def __post_init__(self) -> None:
        self.passed = self.passed and self.evaluated > 0

    @property
    def status(self) -> str:
        if not self.evaluated:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


def spectrum_deviation(state: states.PureState, block: Sequence[int],
                       expected: List, matrix_budget: int) -> float:
    """Worst absolute gap between the oracle block spectrum and exact weights."""
    report = oracle.block_spectrum(state, block, matrix_budget=matrix_budget)
    found = [float(v) for v in report.eigenvalues if v > 1e-12]
    want = sorted((float(v) for v in expected), reverse=True)
    if len(found) != len(want):
        return float("inf")
    return max(abs(a - b) for a, b in zip(found, want))


def check_open_spectrum(ns: Sequence[int], amp_budget: int, matrix_budget: int) -> CheckResult:
    """Oracle block spectra of open chains against the exact weight pair,
    across every chain length and block start the grid allows."""
    worst = 0.0
    worst_at = ""
    evaluated = 0
    for n in ns:
        grid = OPEN_GRID.get(n)
        if grid is None:
            continue
        for N in grid["chains"]:
            spec = states.ChainSpec(n, N, states.OPEN, amp_budget)
            psi = states.open_vbs_state(spec)
            for L in grid["lengths"]:
                if L > N:
                    continue
                expected = closed_form.open_spectrum(n, L).nonzero()
                for start in range(N - L + 1):
                    dev = spectrum_deviation(psi, range(start, start + L), expected, matrix_budget)
                    evaluated += 1
                    if dev > worst:
                        worst, worst_at = dev, f"n={n} N={N} L={L} start={start + 1}"
    return CheckResult("open-spectrum", worst < 1e-10, worst, 1e-10, f"worst at {worst_at}",
                       evaluated)


def check_periodic_spectrum(ns: Sequence[int], amp_budget: int, matrix_budget: int) -> CheckResult:
    """Oracle block spectra of rings against the exact ring weights."""
    worst = 0.0
    worst_at = ""
    evaluated = 0
    for n in ns:
        for N in PERIODIC_GRID.get(n, ()):
            psi = states.periodic_vbs_state(states.ChainSpec(n, N, states.PERIODIC, amp_budget))
            for L in range(1, N):
                expected = closed_form.periodic_spectrum(n, N, L).nonzero()
                dev = spectrum_deviation(psi, range(L), expected, matrix_budget)
                evaluated += 1
                if dev > worst:
                    worst, worst_at = dev, f"n={n} N={N} L={L}"
    return CheckResult("periodic-spectrum", worst < 1e-10, worst, 1e-10, f"worst at {worst_at}",
                       evaluated)


def saturation_envelope(n: int, L: int) -> float:
    """Concrete exponential envelope bounding the entropy gap to 2 log n."""
    d = n * n - 1
    return 3.0 * d ** (-L) * (L * math.log(d) + 2.0)


def check_saturation(ns: Sequence[int], amp_budget: int, matrix_budget: int) -> CheckResult:
    """Entropy saturates at 2 log n: gap below 1e-12 at L=30, and inside the
    exponential envelope for every L in 2..40."""
    worst = 0.0
    envelope_ok = True
    detail = []
    evaluated = 0
    for n in ns:
        if n not in SATURATION_NS:
            continue
        target = 2.0 * math.log(n)
        gap30 = abs(closed_form.open_entropy(n, 30) - target)
        worst = max(worst, gap30)
        for L in range(2, 41):
            gap = abs(closed_form.open_entropy(n, L) - target)
            evaluated += 1
            if gap > saturation_envelope(n, L):
                envelope_ok = False
                detail.append(f"envelope broken at n={n} L={L}")
    passed = worst < 1e-12 and envelope_ok
    return CheckResult("saturation", passed, worst, 1e-12,
                       "; ".join(detail) or "gap at L=30, envelope over L=2..40", evaluated)


def check_renyi_flatness(ns: Sequence[int], amp_budget: int, matrix_budget: int) -> CheckResult:
    """At L=40 the Renyi entropy is order-independent and equals 2 log n."""
    worst = 0.0
    evaluated = 0
    for n in ns:
        if n not in FLATNESS_NS:
            continue
        target = 2.0 * math.log(n)
        for a in FLATNESS_ORDERS:
            worst = max(worst, abs(closed_form.open_renyi(n, 40, a) - target))
            evaluated += 1
    return CheckResult("renyi-flatness", worst < 1e-10, worst, 1e-10,
                       f"orders {FLATNESS_ORDERS} at L=40", evaluated)


def check_branch_points(ns: Sequence[int], amp_budget: int, matrix_budget: int) -> CheckResult:
    """Every branch point annihilates the power sum and obeys the even/odd
    sign rule for its real part."""
    worst = 0.0
    parity_ok = True
    detail = []
    evaluated = 0
    for n in ns:
        for L in BRANCH_GRID.get(n, ()):
            for point in closed_form.branch_points(n, L, range(3)):
                worst = max(worst, point.residual)
                evaluated += 1
                if (point.alpha.real > 0) != (L % 2 == 0):
                    parity_ok = False
                    detail.append(f"sign rule broken at n={n} L={L} m={point.m}")
    passed = worst < 1e-8 and parity_ok
    return CheckResult("branch-points", passed, worst, 1e-8,
                       "; ".join(detail) or "residuals and parity over the grid", evaluated)


def check_edge_states(ns: Sequence[int], amp_budget: int, matrix_budget: int) -> CheckResult:
    """Boundary-state orthonormality, Gram diagonal, and block reconstruction."""
    worst_ratio = 0.0
    worst = 0.0
    tol_of_worst = 1e-10
    detail = ""
    evaluated = 0

    def track(dev: float, tol: float, where: str) -> None:
        nonlocal worst_ratio, worst, tol_of_worst, detail
        if dev / tol > worst_ratio:
            worst_ratio, worst, tol_of_worst, detail = dev / tol, dev, tol, where

    for n in ns:
        d = n * n - 1
        for L in EDGE_GRID.get(n, ()):
            evaluated += 1
            basis = edges.edge_basis(n, L, amp_budget)
            gram_normalized = basis.vectors.conj() @ basis.vectors.T
            track(float(np.abs(gram_normalized - np.eye(len(basis.labels))).max()),
                  1e-10, f"orthonormality n={n} L={L}")

            gram = edges.edge_gram(n, L, amp_budget)
            spec = closed_form.open_spectrum(n, L)
            for k in range(n * n):
                label = weyl.BellIndex(n, k // n, k % n)
                want = float(d ** L * (spec.singlet if (-label).is_singlet else spec.adjoint))
                dev = abs(gram[k, k].real - want)
                if want != 0.0:
                    dev /= want
                track(dev, 1e-9, f"gram diagonal n={n} L={L} label={k}")
            off = gram - np.diag(np.diagonal(gram))
            track(float(np.abs(off).max()), 1e-10, f"gram off-diagonal n={n} L={L}")

            rho = edges.reconstruct_rho(n, L, amp_budget, matrix_budget)
            psi = states.open_vbs_state(states.ChainSpec(n, L, states.OPEN, amp_budget))
            rho_oracle = oracle.reduced_density(psi, range(L), matrix_budget)
            track(float(np.linalg.norm(rho.matrix - rho_oracle.matrix)),
                  1e-10, f"reconstruction n={n} L={L}")
    return CheckResult("edge-states", worst_ratio < 1.0, worst, tol_of_worst, f"worst: {detail}",
                       evaluated)


def check_swap_identity(ns: Sequence[int], amp_budget: int, matrix_budget: int) -> CheckResult:
    """Four-qudit pair-swap identity holds to assembly precision."""
    worst = 0.0
    evaluated = 0
    for n in ns:
        if n in SWAP_NS:
            worst = max(worst, weyl.swap_identity_residual(n))
            evaluated += 1
    return CheckResult("swap-identity", worst < 1e-12, worst, 1e-12, f"n in {SWAP_NS}", evaluated)


def check_bell_invariance(ns: Sequence[int], amp_budget: int, matrix_budget: int) -> CheckResult:
    """(U[l,m] tensor U[l,-m]) leaves the singlet pair invariant."""
    worst = 0.0
    evaluated = 0
    for n in ns:
        if n not in INVARIANCE_NS:
            continue
        phi = weyl.bell_vector(n, (0, 0))
        for l in range(n):
            for m in range(n):
                op = np.kron(weyl.u_lm(n, (l, m)), weyl.u_lm(n, (l, -m)))
                worst = max(worst, float(np.linalg.norm(op @ phi - phi)))
                evaluated += 1
    return CheckResult("bell-invariance", worst < 1e-13, worst, 1e-13, f"n in {INVARIANCE_NS}",
                       evaluated)


def check_transfer_matrix(ns: Sequence[int], amp_budget: int, matrix_budget: int) -> CheckResult:
    """Integer transfer-matrix route equals the exact weights; the hopping
    matrix has spectrum {n^2-1, -1 x (n^2-1)} and is diagonalized by the
    label Fourier matrix."""
    worst = 0.0
    worst_at = ""
    evaluated = 0
    for n in ns:
        if n not in TRANSFER_NS:
            continue
        evaluated += 1
        for L in range(1, 21):
            via_transfer = closed_form.transfer_spectrum(n, L)
            direct = closed_form.open_spectrum(n, L)
            dev = max(abs(float(via_transfer.singlet - direct.singlet)),
                      abs(float(via_transfer.adjoint - direct.adjoint)))
            if dev > worst:
                worst, worst_at = dev, f"weights n={n} L={L}"
        t = closed_form.transfer_matrix(n)
        eigs = oracle.jacobi_eigvalsh(t)
        want = np.array([n * n - 1.0] + [-1.0] * (n * n - 1))
        dev = float(np.abs(eigs - want).max())
        if dev > worst:
            worst, worst_at = dev, f"hopping spectrum n={n}"
        uc = closed_form.transfer_diagonalizer(n)
        dev = float(np.linalg.norm(uc @ np.diag(want) @ uc.conj().T - t))
        if dev > worst:
            worst, worst_at = dev, f"Fourier diagonalization n={n}"
    return CheckResult("transfer-matrix", worst < 1e-12, worst, 1e-12, f"worst at {worst_at}",
                       evaluated)


def check_independence(ns: Sequence[int], amp_budget: int, matrix_budget: int) -> CheckResult:
    """Open-chain block spectra do not depend on the block start or the chain
    length; all grid combinations agree with the shortest chain."""
    worst = 0.0
    worst_at = ""
    evaluated = 0
    for n in ns:
        grid = OPEN_GRID.get(n)
        if grid is None:
            continue
        for L in grid["lengths"]:
            reference = None
            for N in grid["chains"]:
                if L > N:
                    continue
                psi = states.open_vbs_state(states.ChainSpec(n, N, states.OPEN, amp_budget))
                for start in range(N - L + 1):
                    report = oracle.block_spectrum(psi, range(start, start + L),
                                                   matrix_budget=matrix_budget)
                    nonzero = np.array([v for v in report.eigenvalues if v > 1e-12])
                    evaluated += 1
                    if reference is None:
                        reference = nonzero
                        continue
                    if nonzero.shape != reference.shape:
                        return CheckResult("independence", False, float("inf"), 1e-11,
                                           f"rank changed at n={n} N={N} L={L} start={start + 1}",
                                           evaluated)
                    dev = float(np.abs(nonzero - reference).max())
                    if dev > worst:
                        worst, worst_at = dev, f"n={n} N={N} L={L} start={start + 1}"
    return CheckResult("independence", worst < 1e-11, worst, 1e-11, f"worst at {worst_at}",
                       evaluated)


def check_limit_consistency(ns: Sequence[int], amp_budget: int, matrix_budget: int) -> CheckResult:
    """Ring weights at N=40 reduce to the open-chain weights, and Renyi
    entropies at order 1 +/- 1e-6 track the von Neumann value."""
    worst_ring = 0.0
    evaluated = 0
    if 2 in ns:
        ring = closed_form.periodic_spectrum(2, 40, 2)
        open_ = closed_form.open_spectrum(2, 2)
        worst_ring = max(abs(float(ring.singlet - open_.singlet)),
                         abs(float(ring.adjoint - open_.adjoint)))
        evaluated += 1
    worst_limit = 0.0
    for n in ns:
        if n in (2, 3, 4):
            for L in range(1, 11):
                s = closed_form.open_entropy(n, L)
                for a in (1.0 + 1e-6, 1.0 - 1e-6):
                    worst_limit = max(worst_limit, abs(closed_form.open_renyi(n, L, a) - s))
                evaluated += 1
        for N in PERIODIC_GRID.get(n, ()):
            for L in range(1, N + 1):
                s = closed_form.periodic_entropy(n, N, L)
                for a in (1.0 + 1e-6, 1.0 - 1e-6):
                    worst_limit = max(worst_limit, abs(closed_form.periodic_renyi(n, N, L, a) - s))
                evaluated += 1
    passed = worst_ring < 1e-10 and worst_limit < 1e-5
    return CheckResult("limit-consistency", passed, max(worst_ring, worst_limit), 1e-5,
                       f"ring reduction dev {worst_ring:.3e} (tol 1e-10), "
                       f"order-limit dev {worst_limit:.3e} (tol 1e-5)", evaluated)


CheckFn = Callable[[Sequence[int], int, int], CheckResult]

_OPEN_CHAINS = {n: grid["chains"] for n, grid in OPEN_GRID.items()}

#: Per check that builds states: chain lengths per n, and their boundary.
STATE_GRIDS: Dict[str, Tuple[Dict[int, Sequence[int]], str]] = {
    "open-spectrum": (_OPEN_CHAINS, states.OPEN),
    "periodic-spectrum": (PERIODIC_GRID, states.PERIODIC),
    "edge-states": (EDGE_GRID, states.OPEN),
    "independence": (_OPEN_CHAINS, states.OPEN),
}

CHECKS: Dict[str, CheckFn] = {
    "open-spectrum": check_open_spectrum,
    "periodic-spectrum": check_periodic_spectrum,
    "saturation": check_saturation,
    "renyi-flatness": check_renyi_flatness,
    "branch-points": check_branch_points,
    "edge-states": check_edge_states,
    "swap-identity": check_swap_identity,
    "bell-invariance": check_bell_invariance,
    "transfer-matrix": check_transfer_matrix,
    "independence": check_independence,
    "limit-consistency": check_limit_consistency,
}

ALL_NS = (2, 3, 4, 5)


def required_amplitudes(names: Iterable[str], ns: Sequence[int]) -> int:
    """Largest state the selected checks will build (for budget pre-flight)."""
    need = 0
    for name in names:
        grid, boundary = STATE_GRIDS.get(name, ({}, states.OPEN))
        for n in ns:
            for N in grid.get(n, ()):
                # unbounded spec: only its size is wanted, the caller checks the budget
                need = max(need, states.ChainSpec(n, N, boundary, math.inf).amplitudes)
    return need


def run_checks(
    only: Optional[Sequence[str]] = None,
    ns: Optional[Sequence[int]] = None,
    amp_budget: int = states.DEFAULT_AMP_BUDGET,
    matrix_budget: int = oracle.DEFAULT_MATRIX_BUDGET,
) -> List[CheckResult]:
    """Run the selected checks (all by default) over the selected n values.

    Raises BudgetError before producing anything if the grid cannot fit the
    amplitude budget, so a failed budget never yields partial output.
    """
    names = list(only) if only else list(CHECKS)
    unknown = [x for x in names if x not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; available: {sorted(CHECKS)}")
    use_ns = tuple(ns) if ns else ALL_NS
    need = required_amplitudes(names, use_ns)
    if need > amp_budget:
        raise BudgetError(f"verification grid needs {need} amplitudes, budget is {amp_budget}")
    return [CHECKS[name](use_ns, amp_budget, matrix_budget) for name in names]
