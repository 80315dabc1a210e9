"""Named verification checks pairing every closed form with its brute-force route.

Each check is a generator: `check_<name>(n, run, tolerance, **params)`
yields one point `(deviation, tolerance, where)` per comparison it makes at
one n.  `where` is a dict of keyword fields that locates the point: n, N, L,
start, plus `part` where a check compares several quantities, and the
label, branch integer or order a check runs over.

`CHECKS` says where and how tightly each check runs: per name, its
generator, the tolerance of its main points (the one a SKIP reports) and its
grid, n -> the generator's keyword arguments at that n, so adding an n is a
data edit.  A generator keeps a literal only for a tolerance that differs:
the saturation envelope, the edge-state Gram diagonal, the ring reduction.

`run_checks` is the only place where points become a `CheckResult`, through
`reduce_points`:

- a check passes only if every point's deviation is below its tolerance,
  so a NaN or infinite deviation fails it;
- the reported point (`max_dev`, `tolerance`, `worst_at`, and the text
  `detail` formatted from it) is the one with the largest
  deviation/tolerance ratio, a NaN ranking above every number;
- a check that yields no point for the requested n is SKIP, with an empty
  detail, and fails a verification run.

One `run_checks` call computes each oracle quantity once, on first use, in
the `CheckRun` its checks share: an open chain per (n, N) and a block
spectrum per (n, N, L, start), which `open-spectrum` and `independence` both
compare and `edge-states` takes its N = L chains from.  `edge-states` builds
one boundary basis per (n, L).  Nothing persists between runs.

The checks never weaken a comparison to pass: the closed forms and the
oracle must meet in the middle.  `ChainSpec`, the oracle, `edges` and the
transfer builders raise BudgetError for a state or matrix over its budget
(a budget that is not an integer >= 1 is a ValueError); `run_checks`
returns only once every check has finished, so a budget failure never
yields partial output.  The CLI `verify` command and the acceptance tests
both drive this registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import closed_form, edges, oracle, states, weyl
from ._numpy import np

FLATNESS_ORDERS = (0.5, 0.9, 1.1, 2.0, 5.0, 10.0)
NEAR_ONE = (1.0 + 1e-6, 1.0 - 1e-6)

Where = Dict[str, object]
Point = Tuple[float, float, Where]


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
    worst_at: Optional[Where] = None

    def __post_init__(self) -> None:
        self.passed = self.passed and self.evaluated > 0

    @property
    def status(self) -> str:
        if not self.evaluated:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


def _worst(devs: Iterable[float]) -> float:
    """Largest deviation, NaN if any is NaN (the builtin max drops a later NaN)."""
    return max(devs, key=lambda dev: (math.isnan(dev), dev))


def _weight_gap(a: closed_form.BlockSpectrum, b: closed_form.BlockSpectrum) -> float:
    """Worst gap between two exact weight pairs, each difference rounded once."""
    return _worst((abs(float(a.singlet - b.singlet)), abs(float(a.adjoint - b.adjoint))))


class CheckRun:
    """One run's budgets and the open chains and spectra its checks share."""

    def __init__(self, amp_budget: int, matrix_budget: int) -> None:
        self.amp_budget = weyl._check_budget(amp_budget, "amplitude")
        self.matrix_budget = weyl._check_budget(matrix_budget, "matrix")
        self._chains: Dict[Tuple[int, int], states.PureState] = {}
        self._spectra: Dict[Tuple[int, int, int, int], np.ndarray] = {}

    def open_chain(self, n: int, N: int) -> states.PureState:
        if (n, N) not in self._chains:
            self._chains[n, N] = states.open_vbs_state(
                states.ChainSpec(n, N, states.OPEN, self.amp_budget))
        return self._chains[n, N]

    def open_eigenvalues(self, n: int, N: int, L: int, start: int) -> np.ndarray:
        """Oracle eigenvalues of the L-site block at 0-based `start`."""
        key = (n, N, L, start)
        if key not in self._spectra:
            self._spectra[key] = oracle.block_spectrum(self.open_chain(n, N),
                                                       range(start, start + L),
                                                       matrix_budget=self.matrix_budget)
        return self._spectra[key]


def spectrum_deviation(eigenvalues: Sequence[float], expected: Iterable[float]) -> float:
    """Worst absolute gap between the oracle's nonzero eigenvalues, descending
    (floats or exact Fractions), and an expected nonzero spectrum; infinite if
    their counts differ."""
    want = sorted((float(v) for v in expected), reverse=True)
    if len(eigenvalues) != len(want):
        return float("inf")
    return _worst(abs(float(a) - b) for a, b in zip(eigenvalues, want))


def check_open_spectrum(n: int, run: CheckRun, tolerance: float,
                        chains: Sequence[int], lengths: Sequence[int]) -> Iterator[Point]:
    """Oracle block spectra of open chains against the exact weight pair,
    across every chain length and block start the grid allows."""
    for N in chains:
        for L in lengths:
            if L > N:
                continue
            expected = closed_form.open_spectrum(n, L).nonzero()
            for start in range(N - L + 1):
                yield (spectrum_deviation(run.open_eigenvalues(n, N, L, start), expected),
                       tolerance, dict(n=n, N=N, L=L, start=start + 1))


def check_periodic_spectrum(n: int, run: CheckRun, tolerance: float,
                            rings: Sequence[int]) -> Iterator[Point]:
    """Oracle block spectra of rings against the exact ring weights."""
    for N in rings:
        psi = states.periodic_vbs_state(states.ChainSpec(n, N, states.PERIODIC, run.amp_budget))
        for L in range(1, N):
            expected = closed_form.periodic_spectrum(n, N, L).nonzero()
            found = oracle.block_spectrum(psi, range(L), matrix_budget=run.matrix_budget)
            yield spectrum_deviation(found, expected), tolerance, dict(n=n, N=N, L=L)


def saturation_envelope(n: int, L: int) -> float:
    """Concrete exponential envelope bounding the entropy gap to 2 log n."""
    d = n * n - 1
    return 3.0 * d ** (-L) * (L * math.log(d) + 2.0)


def _h(x: float) -> float:
    """(1 + x) log(1 + x) - x, summed as its series where |x| < 1e-3 and the
    closed form would cancel."""
    if abs(x) < 1e-3:
        return sum((-x) ** k / (k * (k - 1)) for k in range(2, 8))
    return (1.0 + x) * math.log1p(x) - x


def saturation_gap(n: int, L: int) -> float:
    """2 log n - S of the exact open-chain weights, measured without cancellation.

    With d = n^2 - 1 and r the decay factor, n^2 lambda_singlet = 1 + d r and
    n^2 lambda_adjoint = 1 - r.  The terms linear in r cancel exactly, so the
    gap is [h(d r) + d h(-r)] / n^2.  Subtracting S from 2 log n instead
    rounds the gap to 0.0 from L = 38 at n = 2 (20 at n = 3, 15 at n = 4).
    """
    spec = closed_form.open_spectrum(n, L)
    nn = n * n
    return (_h(float(nn * spec.singlet - 1)) + (nn - 1) * _h(float(nn * spec.adjoint - 1))) / nn


def check_saturation(n: int, run: CheckRun, tolerance: float) -> Iterator[Point]:
    """Entropy saturates at 2 log n: gap below tolerance at L=30, and inside
    the exponential envelope for every L in 2..40."""
    yield saturation_gap(n, 30), tolerance, dict(n=n, L=30, part="gap")
    for L in range(2, 41):
        yield saturation_gap(n, L), saturation_envelope(n, L), dict(n=n, L=L, part="envelope")


def check_renyi_flatness(n: int, run: CheckRun, tolerance: float) -> Iterator[Point]:
    """At L=40 the Renyi entropy is order-independent and equals 2 log n."""
    target = 2.0 * math.log(n)
    for a in FLATNESS_ORDERS:
        yield abs(closed_form.open_renyi(n, 40, a) - target), tolerance, dict(n=n, L=40, alpha=a)


def check_branch_points(n: int, run: CheckRun, tolerance: float,
                        lengths: Sequence[int]) -> Iterator[Point]:
    """Every branch point annihilates the power sum and obeys the even/odd
    sign rule for its real part (a broken rule is an infinite deviation)."""
    for L in lengths:
        for point in closed_form.branch_points(n, L, range(3)):
            sign_ok = (point.alpha.real > 0) == (L % 2 == 0)
            yield (point.residual if sign_ok else math.inf, tolerance,
                   dict(n=n, L=L, m=point.m, sign=point.sign))


def check_edge_states(n: int, run: CheckRun, tolerance: float,
                      lengths: Sequence[int]) -> Iterator[Point]:
    """Boundary-state orthonormality, Gram diagonal (to 1e-9 relative), and
    block reconstruction."""
    d = n * n - 1
    for L in lengths:
        basis = edges.edge_basis(n, L, run.amp_budget)
        gram = edges.edge_gram(basis)
        norms = np.sqrt(np.diagonal(gram).real)
        keep = np.flatnonzero(norms > 0)  # the singlet's state is zero at L = 1
        overlaps = gram[np.ix_(keep, keep)] / np.outer(norms[keep], norms[keep])
        yield (float(np.abs(overlaps - np.eye(keep.size)).max()), tolerance,
               dict(n=n, L=L, part="orthonormality"))

        spec = closed_form.open_spectrum(n, L)
        for k in range(n * n):
            # label 0, (0, 0), is the only one whose negation is the singlet
            want = float(d ** L * (spec.singlet if k == 0 else spec.adjoint))
            dev = abs(gram[k, k].real - want)
            yield (dev / want if want else dev), 1e-9, dict(n=n, L=L, part="gram-diagonal", label=k)
        off = gram - np.diag(np.diagonal(gram))
        yield float(np.abs(off).max()), tolerance, dict(n=n, L=L, part="gram-off-diagonal")

        rho = edges.reconstruct_rho(basis, run.matrix_budget)
        rho_oracle = oracle.reduced_density(run.open_chain(n, L), range(L), run.matrix_budget)
        yield (float(np.linalg.norm(rho.matrix - rho_oracle.matrix)), tolerance,
               dict(n=n, L=L, part="reconstruction"))


def check_swap_identity(n: int, run: CheckRun, tolerance: float) -> Iterator[Point]:
    """Four-qudit pair-swap identity holds to assembly precision."""
    yield weyl.swap_identity_residual(n), tolerance, dict(n=n)


def check_bell_invariance(n: int, run: CheckRun, tolerance: float) -> Iterator[Point]:
    """(U[l,m] tensor U[l,-m]) leaves the singlet pair invariant."""
    phi = weyl.bell_vector(n, (0, 0))
    for l in range(n):
        for m in range(n):
            op = np.kron(weyl.u_lm(n, (l, m)), weyl.u_lm(n, (l, -m)))
            yield float(np.linalg.norm(op @ phi - phi)), tolerance, dict(n=n, label=l * n + m)


def check_transfer_matrix(n: int, run: CheckRun, tolerance: float) -> Iterator[Point]:
    """Integer transfer-matrix route equals the exact weights; the hopping
    matrix has spectrum {n^2-1, -1 x (n^2-1)} and is diagonalized by the
    label Fourier matrix."""
    for L in range(1, 21):
        yield (_weight_gap(closed_form.transfer_spectrum(n, L), closed_form.open_spectrum(n, L)),
               tolerance, dict(n=n, L=L, part="weights"))
    t = closed_form.transfer_matrix(n, run.matrix_budget)
    want = np.array([n * n - 1.0] + [-1.0] * (n * n - 1))
    yield (float(np.abs(oracle.jacobi_eigvalsh(t) - want).max()), tolerance,
           dict(n=n, part="hopping-spectrum"))
    uc = closed_form.transfer_diagonalizer(n, run.matrix_budget)
    yield (float(np.linalg.norm(uc @ np.diag(want) @ uc.conj().T - t)), tolerance,
           dict(n=n, part="fourier-diagonalization"))


def check_independence(n: int, run: CheckRun, tolerance: float,
                       chains: Sequence[int], lengths: Sequence[int]) -> Iterator[Point]:
    """Open-chain block spectra do not depend on the block start or the chain
    length; all grid combinations agree with the shortest chain (a changed
    rank is an infinite deviation)."""
    for L in lengths:
        reference = None
        for N in chains:
            if L > N:
                continue
            for start in range(N - L + 1):
                eigenvalues = run.open_eigenvalues(n, N, L, start)
                if reference is None:
                    reference = eigenvalues
                yield (spectrum_deviation(eigenvalues, reference), tolerance,
                       dict(n=n, N=N, L=L, start=start + 1))


def check_limit_consistency(n: int, run: CheckRun, tolerance: float,
                            rings: Sequence[int]) -> Iterator[Point]:
    """Ring weights at N=40 reduce to the open-chain weights (n=2, to 1e-10),
    and Renyi entropies at order 1 +/- 1e-6 track the von Neumann value."""
    if n == 2:
        ring, open_ = closed_form.periodic_spectrum(2, 40, 2), closed_form.open_spectrum(2, 2)
        yield _weight_gap(ring, open_), 1e-10, dict(n=n, N=40, L=2, part="ring-reduction")
    for L in range(1, 11):
        s = closed_form.open_entropy(n, L)
        yield (_worst(abs(closed_form.open_renyi(n, L, a) - s) for a in NEAR_ONE),
               tolerance, dict(n=n, L=L, part="order-limit"))
    for N in rings:
        for L in range(1, N + 1):
            s = closed_form.periodic_entropy(n, N, L)
            yield (_worst(abs(closed_form.periodic_renyi(n, N, L, a) - s) for a in NEAR_ONE),
                   tolerance, dict(n=n, N=N, L=L, part="order-limit"))


Check = Callable[..., Iterator[Point]]

#: name -> (generator, main tolerance, n -> keyword arguments).  `independence`
#: reads the grid object of `open-spectrum`, so both compare the same cached
#: block spectra, and `limit-consistency` reads the `periodic-spectrum` rings.
CHECKS: Dict[str, Tuple[Check, float, Dict[int, dict]]] = {
    "open-spectrum": (check_open_spectrum, 1e-10, (_open_blocks := {
        2: dict(chains=range(1, 7), lengths=range(1, 6)),
        3: dict(chains=range(1, 5), lengths=range(1, 4))})),
    "periodic-spectrum": (check_periodic_spectrum, 1e-10, (_rings := {
        2: dict(rings=range(3, 9)),
        3: dict(rings=range(3, 5))})),
    "saturation": (check_saturation, 1e-12, dict.fromkeys((2, 3, 4), {})),
    "renyi-flatness": (check_renyi_flatness, 1e-10, dict.fromkeys((2, 3), {})),
    "branch-points": (check_branch_points, 1e-8, dict.fromkeys((2, 3), dict(lengths=range(2, 7)))),
    "edge-states": (check_edge_states, 1e-10,
                    {2: dict(lengths=range(1, 6)), 3: dict(lengths=range(1, 4))}),
    "swap-identity": (check_swap_identity, 1e-12, dict.fromkeys((2, 3, 4), {})),
    "bell-invariance": (check_bell_invariance, 1e-13, dict.fromkeys((2, 3, 4, 5), {})),
    "transfer-matrix": (check_transfer_matrix, 1e-12, dict.fromkeys((2, 3, 4), {})),
    "independence": (check_independence, 1e-11, _open_blocks),
    "limit-consistency": (check_limit_consistency, 1e-5,
                          {n: _rings.get(n, dict(rings=())) for n in (2, 3, 4)}),
}

#: The n of a default run, kept apart from CHECKS: it sets a default run's work.
ALL_NS = (2, 3, 4, 5)


def reduce_points(name: str, tolerance: float, points: Iterable[Point]) -> CheckResult:
    """One check's result: PASS only if every point has deviation < its
    tolerance, the point with the largest deviation/tolerance ratio (NaN
    first) reported, SKIP with `tolerance` and an empty detail if no point."""
    evaluated, passed = 0, True
    worst: Optional[Point] = None
    worst_rank: Tuple[bool, float] = (False, -1.0)
    for dev, tol, where in points:
        evaluated += 1
        passed = passed and bool(dev < tol)  # a numpy bool would not serialize to JSON
        rank = (math.isnan(dev), dev / tol)
        if rank > worst_rank:
            worst_rank, worst = rank, (dev, tol, where)
    if worst is None:
        return CheckResult(name, False, 0.0, tolerance)
    dev, tol, where = worst
    detail = "worst at " + " ".join(f"{key}={value}" for key, value in where.items())
    return CheckResult(name, passed, dev, tol, detail, evaluated, where)


def run_checks(
    only: Optional[Sequence[str]] = None,
    ns: Optional[Sequence[int]] = None,
    amp_budget: int = states.DEFAULT_AMP_BUDGET,
    matrix_budget: int = oracle.DEFAULT_MATRIX_BUDGET,
) -> List[CheckResult]:
    """Run the selected checks (all by default) at the selected n values in
    each check's grid, one result per check; a repeated name or n counts once,
    in the order it first appears.  An unknown check name, an n below 2 or
    a budget below 1 raises ValueError, and a BudgetError raised by any check
    propagates, before any result is returned."""
    names = list(dict.fromkeys(only or CHECKS))  # repeats dropped, first order kept
    unknown = [x for x in names if x not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; available: {sorted(CHECKS)}")
    use_ns = tuple(dict.fromkeys(map(weyl._check_dimension, ns or ALL_NS)))
    run = CheckRun(amp_budget, matrix_budget)
    results = []
    for name in names:
        check, tolerance, grid = CHECKS[name]
        points = (p for n in use_ns if n in grid for p in check(n, run, tolerance, **grid[n]))
        results.append(reduce_points(name, tolerance, points))
    return results
