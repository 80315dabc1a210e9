import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from vbsent.errors import BudgetError, InvariantError
from vbsent.oracle import block_spectrum
from vbsent.states import (
    NORM_CHUNK,
    OPEN,
    PERIODIC,
    ChainSpec,
    PureState,
    SiteBasis,
    fold_tables,
    open_vbs_state,
    periodic_vbs_state,
    ring_norm_squared,
    squared_norm,
)
from vbsent.weyl import omega_powers, phase_fold


def nonzero_labels(n):
    return [(l, m) for l in range(n) for m in range(n) if (l, m) != (0, 0)]


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(1, 3, OPEN)
    with pytest.raises(ValueError):
        ChainSpec(2, 0, OPEN)
    with pytest.raises(ValueError):
        ChainSpec(2, 1, PERIODIC)
    with pytest.raises(ValueError):
        ChainSpec(2, 3, "twisted")


def test_chain_spec_budget_guard():
    with pytest.raises(BudgetError):
        ChainSpec(2, 30, OPEN)
    with pytest.raises(BudgetError):
        ChainSpec(2, 3, OPEN, amp_budget=10)
    # raising the budget lifts the guard
    ChainSpec(2, 3, OPEN, amp_budget=1000)


def test_site_basis_labels():
    adjoint = SiteBasis(3, "adjoint")
    assert adjoint.dim == 8
    assert [(b.l, b.m) for b in adjoint.labels()] == nonzero_labels(3)
    pair = SiteBasis(2, "pair")
    assert pair.dim == 4
    assert [b.linear for b in pair.labels()] == [0, 1, 2, 3]


def test_pure_state_norm_guard():
    site = SiteBasis(2, "pair")
    with pytest.raises(ValueError):
        PureState((site,), np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(InvariantError):  # a norm 5e-11 above one
        PureState((site,), np.array([1.0, 1e-5, 0.0, 0.0], dtype=complex))
    with pytest.raises(InvariantError):  # a NaN norm compares false against the bound
        PureState((site,), np.array([math.nan, 0.0, 0.0, 0.0], dtype=complex))
    PureState((site,), np.array([1.0, 1e-7, 0.0, 0.0], dtype=complex))  # 5e-15 above
    PureState((site,), np.array([1.0, 1e-7, 0.0, 0.0]))  # float64 is accepted too
    for dtype in (np.float32, np.complex64, np.int64):
        with pytest.raises(ValueError):
            PureState((site,), np.array([1, 0, 0, 0], dtype=dtype))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_state_dtype_follows_n(n):
    # omega = -1 is real at n = 2 only
    want = np.float64 if n == 2 else np.complex128
    assert open_vbs_state(ChainSpec(n, 2, OPEN)).amps.dtype == want
    assert periodic_vbs_state(ChainSpec(n, 3, PERIODIC)).amps.dtype == want


def test_open_single_site():
    psi = open_vbs_state(ChainSpec(2, 1, OPEN))
    nz = psi.amps[np.abs(psi.amps) > 0]
    assert nz.size == 3
    assert np.allclose(np.abs(nz), 1 / math.sqrt(3))
    report = block_spectrum(psi, [0])
    assert np.allclose(report.eigenvalues, [1 / 3] * 3, atol=1e-13)


@pytest.mark.parametrize("n,N", [(2, 2), (2, 5), (3, 2), (3, 3)])
def test_open_norm(n, N):
    psi = open_vbs_state(ChainSpec(n, N, OPEN))
    assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-13


def test_open_support_count():
    psi = open_vbs_state(ChainSpec(3, 2, OPEN))
    nz = psi.amps[np.abs(psi.amps) > 0]
    assert nz.size == 64  # (n^2-1)^N label strings, one boundary slot each
    assert np.allclose(np.abs(nz), 1 / 8)


@pytest.mark.parametrize("n,N", [(2, 3), (3, 2)])
def test_open_amplitudes_match_scalar_fold(n, N):
    """Full enumeration: every amplitude equals the per-string fold, done
    label string by label string in plain Python."""
    psi = open_vbs_state(ChainSpec(n, N, OPEN))
    tensor = psi.tensor()
    labels = nonzero_labels(n)
    scale = (n * n - 1) ** (-N / 2)
    for config in itertools.product(range(len(labels)), repeat=N):
        fold = phase_fold(n, [labels[k] for k in config])
        expected = np.zeros(n * n, dtype=complex)
        expected[fold.index.linear] = fold.phase * scale
        assert np.abs(tensor[config] - expected).max() < 1e-15


def test_ring_norm_constant():
    assert ring_norm_squared(2, 2) == Fraction(3)
    assert ring_norm_squared(2, 3) == Fraction(6)
    assert ring_norm_squared(3, 2) == Fraction(8)
    # the constant counts closing label strings
    n, N = 2, 4
    labels = nonzero_labels(n)
    count = sum(
        1
        for config in itertools.product(labels, repeat=N - 1)
        if not phase_fold(n, config).index.is_singlet
    )
    assert ring_norm_squared(n, N) == count


@pytest.mark.parametrize("n,N", [(2, 2), (2, 6), (3, 3)])
def test_periodic_norm(n, N):
    psi = periodic_vbs_state(ChainSpec(n, N, PERIODIC))
    assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-12


def test_periodic_no_singlet_closure_support():
    n, N = 2, 4
    psi = periodic_vbs_state(ChainSpec(n, N, PERIODIC))
    tensor = psi.tensor()
    labels = nonzero_labels(n)
    scale = 1.0 / math.sqrt(float(ring_norm_squared(n, N)))
    for config in itertools.product(range(len(labels)), repeat=N - 1):
        fold = phase_fold(n, [labels[k] for k in config])
        column = tensor[config]
        if fold.index.is_singlet:
            assert np.abs(column).max() == 0.0
        else:
            assert np.abs(column[fold.index.linear - 1] - fold.phase * scale) < 1e-14
            assert np.count_nonzero(column) == 1


@pytest.mark.parametrize("n,N", [(2, 3), (2, 4), (3, 3)])
def test_periodic_translation_covariance(n, N):
    psi = periodic_vbs_state(ChainSpec(n, N, PERIODIC))
    reference = block_spectrum(psi, [0]).eigenvalues
    for site in range(1, N):
        eigs = block_spectrum(psi, [site]).eigenvalues
        assert np.abs(eigs - reference).max() < 1e-12


def test_periodic_single_site_maximally_mixed():
    psi = periodic_vbs_state(ChainSpec(2, 3, PERIODIC))
    for site in range(3):
        eigs = block_spectrum(psi, [site]).eigenvalues
        assert np.allclose(eigs, [1 / 3] * 3, atol=1e-12)


def test_boundary_requires_matching_constructor():
    with pytest.raises(ValueError):
        open_vbs_state(ChainSpec(2, 3, PERIODIC))
    with pytest.raises(ValueError):
        periodic_vbs_state(ChainSpec(2, 3, OPEN))


def test_fold_tables_against_scalar_fold():
    n, sites = 3, 3
    suml, summ, phase = fold_tables(n, sites)
    labels = nonzero_labels(n)
    d = len(labels)
    for flat, config in enumerate(itertools.product(labels, repeat=sites)):
        fold = phase_fold(n, config)
        assert (suml[flat], summ[flat]) == (fold.index.l, fold.index.m)
        assert phase[flat] == fold.phase_exp
        assert flat == sum(
            (labels.index(c)) * d ** (sites - 1 - k) for k, c in enumerate(config)
        )


# ------------------------------------------- build and norm at budget scale


def exact_phases(n):
    """omega**k: exactly +-1 in float64 at n = 2, where omega = -1."""
    return np.array([1.0, -1.0]) if n == 2 else omega_powers(n)


def reference_open_amps(n, N, phases):
    """The original one-pass scatter: int64 slots over the full fold tables."""
    nn, d = n * n, n * n - 1
    suml, summ, phase = fold_tables(n, N)
    slots = np.arange(d ** N, dtype=np.int64) * nn + suml.astype(np.int64) * n + summ
    amps = np.zeros(d ** N * nn, dtype=phases.dtype)
    amps[slots] = phases[phase.astype(np.intp)] * d ** (-N / 2)
    return amps


def reference_ring_amps(n, N, phases):
    d = n * n - 1
    suml, summ, phase = fold_tables(n, N - 1)
    lin = suml.astype(np.int64) * n + summ
    keep = np.nonzero(lin)[0]
    scale = 1.0 / math.sqrt(float(ring_norm_squared(n, N)))
    amps = np.zeros(d ** (N - 1) * d, dtype=phases.dtype)
    amps[keep * d + (lin[keep] - 1)] = phases[phase[keep].astype(np.intp)] * scale
    return amps


def admitted_specs(limit):
    """Every (n, N, boundary) whose state has at most `limit` amplitudes."""
    specs = []
    for boundary, first in ((OPEN, 1), (PERIODIC, 2)):
        for n in itertools.count(2):
            if ChainSpec(n, first, boundary, amp_budget=10 ** 12).amplitudes > limit:
                break
            for N in itertools.count(first):
                spec = ChainSpec(n, N, boundary, amp_budget=10 ** 12)
                if spec.amplitudes > limit:
                    break
                specs.append(spec)
    return specs


def test_smallest_states_the_blas_norm_rejected():
    # np.linalg.norm gave 0.9999999999988199 at open N=12 and failed the ring at N=14
    for psi in (open_vbs_state(ChainSpec(2, 12, OPEN)),
                periodic_vbs_state(ChainSpec(2, 14, PERIODIC))):
        assert abs(squared_norm(psi.amps) - 1.0) < 1e-15


def test_build_and_norm_on_random_admitted_specs():
    specs = admitted_specs(2 ** 22)
    picks = random.Random(20070).sample(specs, 10)
    picks.append(max(specs, key=lambda spec: spec.amplitudes))
    for spec in picks:
        build, reference = ((open_vbs_state, reference_open_amps) if spec.boundary == OPEN
                            else (periodic_vbs_state, reference_ring_amps))
        psi, ref = build(spec), reference(spec.n, spec.N, exact_phases(spec.n))
        assert psi.amps.dtype == ref.dtype and np.array_equal(psi.amps, ref), spec
        exact = math.fsum(np.square(ref.view(np.float64)).tolist())
        assert abs(squared_norm(psi.amps) - exact) <= 1e-15, spec
        if spec.n == 2:
            # the complex table stores only the rounding of exp(i pi) beside the real part
            old = reference(spec.n, spec.N, omega_powers(2))
            scale = np.abs(ref).max()
            assert np.array_equal(old.real, ref), spec
            assert np.abs(old.imag).max() <= 2e-16 * scale, spec


def test_squared_norm_any_layout():
    r = np.random.default_rng(1)
    a = r.normal(size=(300, 7)) + 1j * r.normal(size=(300, 7))
    for view in (a, a.T, a[:, ::2], a.real):
        parts = np.concatenate([view.real.ravel(), view.imag.ravel()])
        want = math.fsum((parts * parts).tolist())
        assert abs(squared_norm(view) - want) <= 1e-15 * want


def test_squared_norm_reads_a_real_vector_in_place():
    amps = np.full(2 ** 20, 2.0 ** -10)  # unit norm, 8 MiB
    tracemalloc.start()
    try:
        total = squared_norm(amps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total == 1.0
    assert peak <= 2 * NORM_CHUNK * amps.itemsize


@pytest.mark.parametrize("n,N", [(2, 10), (41, 1)])
def test_build_peak_memory_near_state_size(n, N):
    # n=41 is the largest n whose N=1 open state fits the default budget:
    # per-(label, phase) lookup tables there would dwarf the state
    tracemalloc.start()
    try:
        psi = open_vbs_state(ChainSpec(n, N, OPEN))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * psi.amps.nbytes
