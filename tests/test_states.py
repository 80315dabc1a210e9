import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from vbsent.edges import edge_basis
from vbsent.errors import BudgetError, InvariantError
from vbsent.oracle import block_spectrum
from vbsent.states import (
    OPEN,
    PERIODIC,
    ChainSpec,
    PureState,
    _join,
    charges,
    code_dtype,
    fold_tables,
    open_vbs_state,
    periodic_vbs_state,
    phase_table,
    ring_norm_squared,
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


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("boundary", (OPEN, PERIODIC))
def test_chain_spec_budget_guard_matches_the_exact_count(n, boundary):
    # the guard first compares bit lengths without forming d**N, from 64 bits
    # on; it must agree with the exact count on either side of every budget
    bits = (n * n - 1).bit_length() - 1  # d**N >= 2**(bits * N)
    for N in range(2, 70):
        amps = (n * n - 1) ** N * (n * n if boundary == OPEN else 1)
        for budget in (amps - 1, amps, 1 << (amps.bit_length() - 1), (1 << amps.bit_length()) - 1,
                       1 << (bits * N - 1), (1 << bits * N) - 1, 1 << bits * N):
            if amps > budget:
                with pytest.raises(BudgetError, match=f"budget is {budget}$"):
                    ChainSpec(n, N, boundary, amp_budget=budget)
            else:
                ChainSpec(n, N, boundary, amp_budget=budget)


def test_chain_spec_budget_names_a_huge_size_as_a_power():
    with pytest.raises(BudgetError, match=r"state would need 3\^10000\*4 amplitudes, budget is 67108864"):
        ChainSpec(2, 10 ** 4, OPEN)
    with pytest.raises(BudgetError, match=r"state would need 8\^1000000000000000000 amplitudes"):
        ChainSpec(3, 10 ** 18, PERIODIC)


def test_chain_spec_takes_numpy_integers_as_python_ints():
    # in int64, 3**40 wrapped to a negative count that passed the budget
    with pytest.raises(BudgetError, match="state would need 12157665459056928801 amplitudes"):
        ChainSpec(np.int64(2), np.int64(40), PERIODIC)
    spec = ChainSpec(np.uint8(3), np.int32(2), OPEN)
    assert (type(spec.n), type(spec.N)) == (int, int) and spec == ChainSpec(3, 2, OPEN)
    assert open_vbs_state(spec).codes.tobytes() == open_vbs_state(ChainSpec(3, 2, OPEN)).codes.tobytes()


def test_pure_state_norm_guard():
    one = np.array([1, 0, 0, 0], dtype=np.uint8)
    PureState(2, (4,), one, 1.0)
    PureState(2, (4,), np.array([1, 2, 1, 0], dtype=np.uint8), 1 / math.sqrt(3))
    PureState(2, (4,), one, 1.0 + 5e-13)
    with pytest.raises(InvariantError):  # a norm 2e-12 above one
        PureState(2, (4,), one, 1.0 + 2e-12)
    with pytest.raises(InvariantError):  # a NaN norm compares false against the bound
        PureState(2, (4,), one, math.nan)
    with pytest.raises(InvariantError):  # no nonzero amplitude
        PureState(2, (4,), np.zeros(4, dtype=np.uint8), 1.0)
    with pytest.raises(ValueError, match="phase codes"):  # omega**2 does not exist at n = 2
        PureState(2, (4,), np.array([3, 0, 0, 0], dtype=np.uint8), 1.0)
    with pytest.raises(ValueError, match="shape"):
        PureState(2, (4,), one[:3], 1.0)
    for dims in ((), (4, 9), (2, 2)):  # every slot is n^2 - 1 or n^2
        with pytest.raises(ValueError, match="slot dimensions"):
            PureState(2, dims, np.ones(4, dtype=np.uint8), 0.5)
    with pytest.raises(ValueError, match="qudit dimension"):
        PureState(1, (1,), one[:1], 1.0)
    for dtype in (np.uint16, np.int8, np.float64, np.complex128):
        with pytest.raises(ValueError):
            PureState(2, (4,), one.astype(dtype), 1.0)


def test_code_dtype_follows_n():
    # a code is phase + 1 <= n: one byte up to n = 255
    assert code_dtype(2) == code_dtype(255) == np.uint8
    assert code_dtype(256) == np.uint16


@pytest.mark.parametrize("n", [2, 3, 4])
def test_state_dtype_follows_n(n):
    # omega = -1 is real at n = 2 only
    want = np.float64 if n == 2 else np.complex128
    for psi in (open_vbs_state(ChainSpec(n, 2, OPEN)), periodic_vbs_state(ChainSpec(n, 3, PERIODIC))):
        assert psi.codes.dtype == code_dtype(n) == np.uint8
        assert psi.table.dtype == psi.amplitudes().dtype == want
        assert psi.table.tolist() == [0.0, *(phase_table(n) * psi.scale).tolist()]
        assert not psi.codes.flags.writeable


def test_open_single_site():
    psi = open_vbs_state(ChainSpec(2, 1, OPEN))
    amps = psi.amplitudes()
    nz = amps[np.abs(amps) > 0]
    assert nz.size == 3
    assert np.allclose(np.abs(nz), 1 / math.sqrt(3))
    assert np.allclose(block_spectrum(psi, [0]), [1 / 3] * 3, atol=1e-13)


@pytest.mark.parametrize("n,N", [(2, 2), (2, 5), (3, 2), (3, 3)])
def test_open_norm(n, N):
    psi = open_vbs_state(ChainSpec(n, N, OPEN))
    assert abs(np.linalg.norm(psi.amplitudes()) - 1.0) < 1e-13


def test_open_support_count():
    psi = open_vbs_state(ChainSpec(3, 2, OPEN))
    amps = psi.amplitudes()
    nz = amps[np.abs(amps) > 0]
    assert nz.size == 64  # (n^2-1)^N label strings, one boundary slot each
    assert np.allclose(np.abs(nz), 1 / 8)


@pytest.mark.parametrize("n,N", [(2, 3), (3, 2)])
def test_open_amplitudes_match_scalar_fold(n, N):
    """Full enumeration: every amplitude equals the per-string fold, done
    label string by label string in plain Python."""
    psi = open_vbs_state(ChainSpec(n, N, OPEN))
    tensor = psi.amplitudes().reshape(psi.dims)
    labels = nonzero_labels(n)
    scale = (n * n - 1) ** (-N / 2)
    for config in itertools.product(range(len(labels)), repeat=N):
        (l, m), k = phase_fold(n, [labels[c] for c in config])
        expected = np.zeros(n * n, dtype=complex)
        expected[l * n + m] = omega_powers(n)[k] * scale
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
        if phase_fold(n, config)[0] != (0, 0)
    )
    assert ring_norm_squared(n, N) == count


@pytest.mark.parametrize("n,N", [(2, 2), (2, 6), (3, 3)])
def test_periodic_norm(n, N):
    psi = periodic_vbs_state(ChainSpec(n, N, PERIODIC))
    assert abs(np.linalg.norm(psi.amplitudes()) - 1.0) < 1e-12


def test_periodic_no_singlet_closure_support():
    n, N = 2, 4
    psi = periodic_vbs_state(ChainSpec(n, N, PERIODIC))
    tensor = psi.amplitudes().reshape(psi.dims)
    labels = nonzero_labels(n)
    scale = 1.0 / math.sqrt(float(ring_norm_squared(n, N)))
    for config in itertools.product(range(len(labels)), repeat=N - 1):
        (l, m), k = phase_fold(n, [labels[c] for c in config])
        column = tensor[config]
        if (l, m) == (0, 0):
            assert np.abs(column).max() == 0.0
        else:
            assert np.abs(column[l * n + m - 1] - omega_powers(n)[k] * scale) < 1e-14
            assert np.count_nonzero(column) == 1


@pytest.mark.parametrize("n,N", [(2, 3), (2, 4), (3, 3)])
def test_periodic_translation_covariance(n, N):
    psi = periodic_vbs_state(ChainSpec(n, N, PERIODIC))
    reference = block_spectrum(psi, [0])
    for site in range(1, N):
        eigs = block_spectrum(psi, [site])
        assert np.abs(eigs - reference).max() < 1e-12


def test_periodic_single_site_maximally_mixed():
    psi = periodic_vbs_state(ChainSpec(2, 3, PERIODIC))
    for site in range(3):
        eigs = block_spectrum(psi, [site])
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
        assert ((suml[flat], summ[flat]), phase[flat]) == phase_fold(n, config)
        assert flat == sum(
            (labels.index(c)) * d ** (sites - 1 - k) for k, c in enumerate(config)
        )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fold_tables_of_the_empty_string_are_the_identity_of_the_join(n):
    empty, tables = fold_tables(n, 0), fold_tables(n, 2)
    assert [t.tolist() for t in empty] == [[0]] * 3
    for joined in (_join(empty, tables, n), _join(tables, empty, n)):
        for got, want in zip(joined, tables):
            assert got.dtype == want.dtype and np.array_equal(got, want)


# ------------------------------------------- build and norm at budget scale


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


def test_charges_vanish_on_every_nonzero_amplitude():
    # Z_n x Z_n conservation: the last slot holds the running product of the others
    specs = admitted_specs(20000)
    chains = ((open_vbs_state if spec.boundary == OPEN else periodic_vbs_state)(spec)
              for spec in specs)
    # an edge basis opens with its boundary label and closes on the negated product
    bases = (edge_basis(n, L) for n, L in ((2, 6), (3, 4), (4, 3), (5, 2), (6, 1)))
    for psi in itertools.chain(chains, bases):
        total = charges(psi.n, psi.dims, range(len(psi.dims)))
        assert total.shape == psi.codes.shape
        assert not total[psi.codes != 0].any(), (psi.n, psi.dims)
        assert total.any()  # zero amplitudes carry other charges
    assert len(specs) > 20
    suml, summ, _ = fold_tables(3, 3)  # a bulk run's charge is its running label
    assert np.array_equal(charges(3, (8,) * 5, range(1, 4)), suml * 3 + summ)


def test_smallest_states_the_blas_norm_rejected():
    # np.linalg.norm gave 0.9999999999988199 at open N=12 and failed the ring at N=14;
    # scale**2 times the exact count of nonzero codes is within a few ulp of 1
    for psi in (open_vbs_state(ChainSpec(2, 12, OPEN)),
                periodic_vbs_state(ChainSpec(2, 14, PERIODIC))):
        assert abs(np.count_nonzero(psi.codes) * psi.scale ** 2 - 1.0) < 1e-15


def test_build_and_norm_on_random_admitted_specs():
    specs = admitted_specs(2 ** 22)
    picks = random.Random(20070).sample(specs, 10)
    picks.append(max(specs, key=lambda spec: spec.amplitudes))
    for spec in picks:
        build, reference = ((open_vbs_state, reference_open_amps) if spec.boundary == OPEN
                            else (periodic_vbs_state, reference_ring_amps))
        psi, ref = build(spec), reference(spec.n, spec.N, phase_table(spec.n))
        amps = psi.amplitudes()
        assert amps.dtype == ref.dtype and amps.tobytes() == ref.tobytes(), spec
        assert np.array_equal(psi.codes != 0, ref != 0), spec
        exact = math.fsum(np.square(ref.view(np.float64)).tolist())
        assert abs(np.count_nonzero(psi.codes) * psi.scale ** 2 - exact) <= 1e-15, spec
        if spec.n == 2:
            # the complex table stores only the rounding of exp(i pi) beside the real part
            old = reference(spec.n, spec.N, omega_powers(2))
            scale = np.abs(ref).max()
            assert np.array_equal(old.real, ref), spec
            assert np.abs(old.imag).max() <= 2e-16 * scale, spec


@pytest.mark.parametrize("n,N", [(2, 10), (41, 1), (8, 3)])
def test_build_peak_memory_near_state_size(n, N):
    # n=41 is the largest n whose N=1 open state fits the default budget:
    # per-(label, phase) lookup tables there would dwarf the state.  n=8 N=3
    # writes the closure rows of its 250,047 strings directly, where the
    # per-string temporaries weigh most
    tracemalloc.start()
    try:
        psi = open_vbs_state(ChainSpec(n, N, OPEN))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * psi.codes.nbytes
