import math
from collections import Counter
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest

from vbsent import closed_form, edges, oracle, states
from vbsent.checks import (
    CHECKS,
    FLATNESS_ORDERS,
    CheckRun,
    check_transfer_matrix,
    reduce_points,
    run_checks,
    saturation_envelope,
    saturation_gap,
)


def test_reducer_passes_when_every_point_is_below_tolerance():
    result = reduce_points("x", 1.0, [(0.1, 1.0, {"n": 2}), (0.5, 1.0, {"n": 3})])
    assert (result.status, result.evaluated, result.max_dev) == ("PASS", 2, 0.5)
    assert result.worst_at == {"n": 3} and result.detail == "worst at n=3"
    # numpy deviations still give a plain bool, which the JSON summary needs
    assert reduce_points("x", 1.0, [(np.float64(0.1), 1.0, {})]).passed is True


def test_reducer_fails_on_one_point_above_tolerance():
    result = reduce_points("x", 1.0, [(0.1, 1.0, {"n": 2}), (1.5, 1.0, {"n": 3}),
                                      (0.2, 1.0, {"n": 4})])
    assert (result.status, result.max_dev, result.worst_at) == ("FAIL", 1.5, {"n": 3})
    # a deviation equal to its tolerance is not below it
    assert reduce_points("x", 1.0, [(1.0, 1.0, {})]).status == "FAIL"


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_reducer_fails_on_infinite_or_nan_points(bad):
    result = reduce_points("x", 1.0, [(0.1, 1.0, {"L": 1}), (bad, 1.0, {"L": 2}),
                                      (0.2, 1.0, {"L": 3})])
    assert result.status == "FAIL" and not result.passed
    assert result.worst_at == {"L": 2}
    assert math.isnan(result.max_dev) if math.isnan(bad) else result.max_dev == bad


def test_reducer_ranks_nan_above_infinity():
    result = reduce_points("x", 1.0, [(math.inf, 1.0, {"L": 1}), (math.nan, 1.0, {"L": 2})])
    assert result.worst_at == {"L": 2}


def test_reducer_skips_without_points():
    result = reduce_points("x", 1e-7, iter(()))
    assert (result.status, result.passed, result.evaluated) == ("SKIP", False, 0)
    assert (result.max_dev, result.tolerance, result.detail, result.worst_at) == (0.0, 1e-7, "", None)


def test_reducer_picks_worst_by_ratio_across_tolerances():
    points = [(1e-9, 1e-8, {"part": "loose"}),   # ratio 0.1
              (5e-13, 1e-12, {"part": "tight"}),  # ratio 0.5
              (2e-9, 1e-8, {"part": "loose"})]    # ratio 0.2
    result = reduce_points("x", 1e-8, points)
    assert result.status == "PASS"
    assert (result.max_dev, result.tolerance, result.worst_at) == (5e-13, 1e-12, {"part": "tight"})


def test_checks_yield_located_points_on_their_grids():
    for name, (check, tolerance, grid) in CHECKS.items():
        for n, params in grid.items():
            points = list(check(n, CheckRun(10 ** 6, 4096), tolerance, **params))
            assert points, (name, n)
            for dev, tol, where in points:
                assert where["n"] == n and set(where) <= {"n", "N", "L", "start", "part", "label",
                                                           "m", "sign", "alpha"}, (name, where)
                assert dev < tol, (name, where)


def test_adding_an_n_to_a_grid_is_a_data_edit(monkeypatch):
    (skipped,) = run_checks(only=["renyi-flatness"], ns=[4])
    assert skipped.status == "SKIP"
    monkeypatch.setitem(CHECKS["renyi-flatness"][2], 4, {})
    (result,) = run_checks(only=["renyi-flatness"], ns=[4])
    assert (result.status, result.evaluated, result.worst_at["n"]) == ("PASS", len(FLATNESS_ORDERS), 4)


@pytest.mark.parametrize("n", [9, 12])
def test_transfer_matrix_passes_past_the_verify_grid(n):
    # zeta**(j*k) of a rounded zeta drifted with j*k up to (n^2-1)^2: 1.61e-12 at n=9
    points = list(check_transfer_matrix(n, CheckRun(10 ** 6, 4096), CHECKS["transfer-matrix"][1]))
    assert points and all(dev < tol for dev, tol, _ in points)


def test_saturation_and_limit_consistency_name_a_location():
    for name in ("saturation", "limit-consistency"):
        result = run_checks(only=[name], ns=(2,))[0]
        assert result.worst_at["n"] == 2 and "L" in result.worst_at and "part" in result.worst_at
        assert result.detail.startswith("worst at n=2 ")


def test_saturation_gap_is_accurate_where_subtraction_rounds_to_zero():
    # 2 log n - S by subtraction is exactly 0.0 from L = 38 (n=2), 20 (n=3), 15 (n=4)
    with localcontext() as ctx:
        ctx.prec = 400
        for n in (2, 3, 4):
            for L in range(2, 41):
                spec = closed_form.open_spectrum(n, L)
                s, a = (Decimal(w.numerator) / w.denominator for w in (spec.singlet, spec.adjoint))
                exact = 2 * Decimal(n).ln() + s * s.ln() + (n * n - 1) * a * a.ln()
                gap = saturation_gap(n, L)
                assert abs(Decimal(gap) / exact - 1) < Decimal("1e-12"), (n, L)
                assert 0.0 < gap < 0.02 * saturation_envelope(n, L), (n, L)


def test_nan_entropies_fail_their_checks(monkeypatch):
    # a NaN compares false against every bound, so it must not read as a pass
    monkeypatch.setattr(closed_form, "open_entropy", lambda n, L: math.nan)
    monkeypatch.setattr(closed_form, "open_renyi", lambda n, L, alpha: math.nan)
    # saturation reads the gap off the open weights
    nan_weights = SimpleNamespace(singlet=math.nan, adjoint=math.nan)
    monkeypatch.setattr(closed_form, "open_spectrum", lambda n, L: nan_weights)
    names = ["saturation", "renyi-flatness", "limit-consistency"]
    results = run_checks(only=names, ns=(2, 3))
    assert [r.status for r in results] == ["FAIL"] * 3
    assert all(math.isnan(r.max_dev) for r in results)


@pytest.mark.parametrize("n", [2, 3])
def test_edge_states_fail_on_one_changed_phase(monkeypatch, n):
    # one nonzero code of one boundary row moved to another phase keeps the
    # norm, so the state's norm check passes: the check must catch the fault
    built = edges.edge_basis

    def faulty(n, L, amp_budget):
        basis = built(n, L, amp_budget)
        codes = basis.codes.copy()
        row = codes.reshape(n * n, -1)[n * n - 1]
        i = np.flatnonzero(row)[0]
        row[i] = row[i] % n + 1
        return states.PureState(n, basis.dims, codes, basis.scale)

    monkeypatch.setattr(edges, "edge_basis", faulty)
    result = run_checks(only=["edge-states"], ns=(n,))[0]
    assert result.status == "FAIL" and result.worst_at["part"] == "reconstruction"


# ------------------------------------------------------------ one run's sharing

SHARING = ["open-spectrum", "independence", "edge-states", "periodic-spectrum"]


def counting(monkeypatch, module, name, key):
    """Replace module.name by a wrapper counting key(*args) per call."""
    seen = Counter()
    original = getattr(module, name)

    def counted(*args, **kwargs):
        seen[key(*args)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return seen


def test_shared_checks_give_the_results_they_give_alone():
    full = {result.name: result for result in run_checks()}
    for name in SHARING:
        assert run_checks(only=[name]) == [full[name]], name


def test_full_run_computes_each_open_block_spectrum_once(monkeypatch):
    seen = counting(monkeypatch, oracle, "block_spectrum",
                    lambda state, block: ((state.n, state.dims), tuple(block)))
    run_checks()
    assert set(seen.values()) == {1}
    open_blocks = {(n, len(dims) - 1, len(block), block[0])
                   for (n, dims), block in seen if dims[-1] == n * n}
    want = {(n, N, L, start) for n, grid in CHECKS["open-spectrum"][2].items() for N in grid["chains"]
            for L in grid["lengths"] if L <= N for start in range(N - L + 1)}
    assert open_blocks == want and len(want) == 74


def test_nothing_is_reused_across_runs(monkeypatch):
    builds = counting(monkeypatch, states, "open_vbs_state", lambda spec: (spec.n, spec.N))
    spectra = counting(monkeypatch, oracle, "block_spectrum",
                       lambda state, block: ((state.n, state.dims), tuple(block)))
    run_checks(only=["independence"])
    assert (sum(builds.values()), sum(spectra.values())) == (10, 74)
    run_checks(only=["independence"])
    assert (sum(builds.values()), sum(spectra.values())) == (20, 148)
    assert set(builds.values()) == set(spectra.values()) == {2}
