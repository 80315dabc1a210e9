"""Acceptance criteria, one test per criterion, each printing a PASS line
with its worst observed deviation against the pinned tolerance.

The same grids back the CLI's `verify` command; a full run stays comfortably
inside two minutes on a laptop-class machine.
"""

from vbsent.checks import run_checks
from vbsent.closed_form import periodic_spectrum
from vbsent.oracle import block_spectrum
from vbsent.states import PERIODIC, ChainSpec, periodic_vbs_state

NS = (2, 3, 4, 5)


def check(name):
    return run_checks(only=[name], ns=NS)[0]


def report(criterion, result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {criterion} [{result.name}]: {status}  "
          f"max_dev={result.max_dev:.3e}  tol={result.tolerance:g}")
    assert result.passed, f"criterion {criterion} failed: {result.detail}"


def test_criterion_1_open_spectrum_equivalence():
    report(1, check("open-spectrum"))


def test_criterion_2_periodic_spectrum_equivalence():
    result = check("periodic-spectrum")
    # spot value: the ring of four qubit pairs, half-chain block
    psi = periodic_vbs_state(ChainSpec(2, 4, PERIODIC))
    eigs = block_spectrum(psi, range(2))
    spot = sorted([3 / 7] + [4 / 21] * 3, reverse=True)
    assert len(eigs) == len(spot) and max(abs(a - b) for a, b in zip(eigs, spot)) < 1e-10
    spec = periodic_spectrum(2, 4, 2)
    assert (float(spec.singlet), float(spec.adjoint)) == (3 / 7, 4 / 21)
    report(2, result)


def test_criterion_3_saturation():
    report(3, check("saturation"))


def test_criterion_4_renyi_flatness():
    report(4, check("renyi-flatness"))


def test_criterion_5_branch_points():
    report(5, check("branch-points"))


def test_criterion_6_edge_state_suite():
    report(6, check("edge-states"))


def test_criterion_7_identity_suite():
    report(7, check("swap-identity"))
    report(7, check("bell-invariance"))
    report(7, check("transfer-matrix"))


def test_criterion_8_independence():
    report(8, check("independence"))


def test_criterion_9_limit_consistency():
    report(9, check("limit-consistency"))
