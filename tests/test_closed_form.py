import cmath
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vbsent import closed_form
from vbsent.closed_form import (
    CUT_BITS,
    _round_truncated,
    _rounded_weights,
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
from vbsent.errors import BranchPointCondition, BudgetError, DegenerateSpectrumError
from vbsent.oracle import jacobi_eigvalsh, renyi, spectrum_report, von_neumann


def decay_factor(n, L):
    """Signed decay factor (-1/(n^2-1))**L as an exact rational."""
    return Fraction(-1, n * n - 1) ** L


def test_decay_factor_values():
    # the open adjoint weight is (1 - r)/n^2, so r = 1 - n^2 * adjoint
    for n, L, r in [(2, 1, Fraction(-1, 3)), (3, 2, Fraction(1, 64)), (5, 3, Fraction(-1, 13824))]:
        assert 1 - n * n * open_spectrum(n, L).adjoint == r == decay_factor(n, L)


def test_open_spectrum_values():
    one = open_spectrum(2, 1)
    assert (one.singlet, one.adjoint) == (0, Fraction(1, 3))
    two = open_spectrum(2, 2)
    assert (two.singlet, two.adjoint) == (Fraction(1, 3), Fraction(2, 9))
    far = open_spectrum(2, 60)
    assert abs(float(far.singlet) - 0.25) < 1e-15
    assert abs(float(far.adjoint) - 0.25) < 1e-15


@given(st.integers(2, 6), st.integers(1, 80))
def test_open_trace_identity_exact(n, L):
    spec = open_spectrum(n, L)
    assert spec.singlet + (n * n - 1) * spec.adjoint == 1
    assert spec.singlet >= 0 and spec.adjoint > 0


def test_open_nonzero_multiset():
    assert open_spectrum(2, 1).nonzero() == [Fraction(1, 3)] * 3
    assert open_spectrum(2, 2).nonzero() == [Fraction(1, 3)] + [Fraction(2, 9)] * 3


def test_open_entropy_values():
    assert abs(open_entropy(2, 1) - math.log(3)) < 1e-14
    expected = -(1 / 3) * math.log(1 / 3) - 3 * (2 / 9) * math.log(2 / 9)
    assert abs(open_entropy(2, 2) - expected) < 1e-13
    assert abs(expected - 1.3689223607402194) < 1e-12


@pytest.mark.parametrize("n", (2, 3, 4))
def test_open_entropy_matches_weight_sum(n):
    for L in range(1, 12):
        singlet, adjoint = open_spectrum(n, L).floats()
        eigs = [singlet] + [adjoint] * (n * n - 1) if singlet > 0 else [adjoint] * (n * n - 1)
        assert abs(open_entropy(n, L) - von_neumann(spectrum_report(eigs))) < 1e-13


@pytest.mark.parametrize("n", (2, 3, 4))
def test_entropy_saturation(n):
    assert abs(open_entropy(n, 30) - 2 * math.log(n)) < 1e-12


def test_open_renyi_values():
    assert abs(open_renyi(2, 2, 2.0) - math.log(27 / 7)) < 1e-13
    assert abs(open_renyi(2, 1, 2.0) - math.log(3)) < 1e-14
    with pytest.raises(ValueError):
        open_renyi(2, 2, 1.0)
    with pytest.raises(ValueError):
        open_renyi(2, 2, -0.5)


def test_open_renyi_matches_oracle_renyi():
    report = spectrum_report([1 / 3, 2 / 9, 2 / 9, 2 / 9])
    for alpha in (0.5, 2.0, 3.5, complex(2.0, 1.0)):
        a = open_renyi(2, 2, alpha)
        b = renyi(report, alpha)
        assert abs(a - b) < 1e-12


def large_order_renyi(weights, alpha):
    """log(sum w**alpha) / (1 - alpha) over (weight, multiplicity) pairs, with
    the largest weight's power factored out by hand."""
    top = max(w for w, _ in weights)
    scaled = sum(mult * cmath.exp(alpha * math.log(w / top)) for w, mult in weights)
    log = cmath.log(scaled) + alpha * math.log(top)
    log = complex(log.real, math.remainder(log.imag, 2 * math.pi))  # principal branch
    return (log if isinstance(alpha, complex) else log.real) / (1 - alpha)


@pytest.mark.parametrize("n,L,alpha", [(2, 2, 700), (4, 2, 300), (2, 2, 800 + 1j),
                                       (2, 2, 40 + 1j), (3, 5, 2000.5 - 3j)])
def test_renyi_at_orders_whose_power_sum_underflows(n, L, alpha):
    # the plain power sum rounds to 0 (or, for a complex order, to below the
    # branch-point tolerance) although no term cancels another
    spec = open_spectrum(n, L)
    singlet, adjoint = spec.floats()
    want = large_order_renyi([(singlet, 1), (adjoint, n * n - 1)], alpha)
    got = open_renyi(n, L, alpha)
    assert abs(got - want) < 1e-13
    report = spectrum_report([singlet] + [adjoint] * (n * n - 1))
    assert abs(renyi(report, alpha) - want) < 1e-13


def test_renyi_plain_sum_is_kept_where_it_does_not_underflow():
    # bit-identical to the plain log(sum w**alpha) / (1 - alpha)
    for n, L, alpha in [(2, 2, 2.0), (3, 7, 5.0), (2, 9, complex(2.0, 0.25)), (4, 3, 0.5)]:
        singlet, adjoint = open_spectrum(n, L).floats()
        if isinstance(alpha, complex):
            total = (cmath.exp(alpha * math.log(singlet))
                     + (n * n - 1) * cmath.exp(alpha * math.log(adjoint)))
            assert open_renyi(n, L, alpha) == cmath.log(total) / (1 - alpha)
        else:
            total = singlet ** alpha + (n * n - 1) * adjoint ** alpha
            assert open_renyi(n, L, alpha) == math.log(total) / (1 - alpha)


@pytest.mark.parametrize("n", (2, 3))
def test_renyi_flatness_at_saturation(n):
    for alpha in (0.5, 0.9, 1.1, 2.0, 5.0, 10.0):
        assert abs(open_renyi(n, 40, alpha) - 2 * math.log(n)) < 1e-10


@pytest.mark.parametrize("n,L", [(2, 1), (2, 2), (2, 5), (3, 2), (4, 3)])
def test_renyi_von_neumann_limit(n, L):
    s = open_entropy(n, L)
    for alpha in (1.0 + 1e-6, 1.0 - 1e-6):
        assert abs(open_renyi(n, L, alpha) - s) < 1e-5


def test_periodic_spectrum_values():
    spec = periodic_spectrum(2, 4, 2)
    assert (spec.singlet, spec.adjoint) == (Fraction(3, 7), Fraction(4, 21))
    whole = periodic_spectrum(3, 5, 5)
    assert (whole.singlet, whole.adjoint) == (1, 0)


@given(st.integers(2, 5), st.integers(2, 30), st.data())
def test_periodic_trace_and_reflection(n, N, data):
    L = data.draw(st.integers(1, N))
    spec = periodic_spectrum(n, N, L)
    assert spec.singlet + (n * n - 1) * spec.adjoint == 1
    mirror = periodic_spectrum(n, N, N - L) if L < N else None
    if mirror is not None:
        assert (spec.singlet, spec.adjoint) == (mirror.singlet, mirror.adjoint)


def test_periodic_reduces_to_open():
    ring = periodic_spectrum(2, 40, 2)
    line = open_spectrum(2, 2)
    assert abs(float(ring.singlet - line.singlet)) < 1e-10
    assert abs(float(ring.adjoint - line.adjoint)) < 1e-10


def test_periodic_entropy_values():
    assert periodic_entropy(2, 4, 4) == 0.0
    expected = -(3 / 7) * math.log(3 / 7) - 3 * (4 / 21) * math.log(4 / 21)
    assert abs(periodic_entropy(2, 4, 2) - expected) < 1e-13
    assert abs(expected - 1.310686555367963) < 1e-12
    assert abs(periodic_entropy(2, 60, 30) - 2 * math.log(2)) < 1e-10


def test_periodic_renyi_and_limit():
    s = periodic_entropy(2, 6, 3)
    for alpha in (1.0 + 1e-6, 1.0 - 1e-6):
        assert abs(periodic_renyi(2, 6, 3, alpha) - s) < 1e-5
    assert abs(periodic_renyi(2, 4, 4, 2.0)) < 1e-14  # pure block


@pytest.mark.parametrize("n,N", [(2, 2), (2, 4), (3, 5), (4, 3)])
def test_pure_block_entropies_are_positive_zero(n, N):
    # weights (1, 0) gave S = -0.0, and -0.0 at real orders above 1 and in
    # parts of complex ones
    spec = periodic_spectrum(n, N, N)
    values = [spec.entropy()] + [spec.renyi(alpha) for alpha in (2.0, 0.5, 3 + 1j, 3 - 1j, 0.5 - 1j)]
    parts = [part for value in values for part in (complex(value).real, complex(value).imag)]
    assert [math.copysign(1.0, part) for part in parts] == [1.0] * len(parts)
    assert parts == [0.0] * len(parts)


def test_periodic_validation():
    with pytest.raises(ValueError):
        periodic_spectrum(2, 3, 4)
    with pytest.raises(ValueError):
        periodic_spectrum(2, 3, 0)


NUMPY_N_SCRIPT = """
import numpy as np
from vbsent import closed_form as c
for n in (np.int64(2), np.int32(3), np.uint8(4)):
    m = int(n)
    for found, expected in [(c.open_spectrum(n, 3), c.open_spectrum(m, 3)),
                            (c.open_spectrum(n, 900), c.open_spectrum(m, 900)),
                            (c.periodic_spectrum(n, 10, 4), c.periodic_spectrum(m, 10, 4))]:
        assert type(found.n) is int and found == expected and found.floats() == expected.floats()
    assert c.open_entropy(n, 3) == c.open_entropy(m, 3)
    assert c.open_renyi(n, 3, 0.5 + 1j) == c.open_renyi(m, 3, 0.5 + 1j)
    assert c.branch_points(n, 4) == c.branch_points(m, 4)
"""


def test_numpy_integer_n_computes_as_a_python_int():
    # in int64 the transfer weights wrapped, and the float cut's search over
    # d**k never ended: the hanging calls run in a child with a timeout
    assert transfer_spectrum(np.int64(2), 50).floats() == (0.25, 0.25)
    assert transfer_spectrum(np.uint8(4), 30) == transfer_spectrum(4, 30)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", NUMPY_N_SCRIPT], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=30)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_floats_are_the_rounded_exact_weights(n):
    """floats() is float() of the exact weights, built here from decay_factor."""
    d = n * n - 1
    for L in range(1, 301):
        r = decay_factor(n, L)
        singlet, adjoint = (1 + d * r) / (n * n), (1 - r) / (n * n)
        spec = open_spectrum(n, L)
        assert (spec.N, spec.singlet, spec.adjoint) == (None, singlet, adjoint)
        assert spec.floats() == (float(singlet), float(adjoint))
        fs, fa = float(singlet), float(adjoint)
        head = -fs * math.log1p(d * float(r)) if fs > 0.0 else 0.0
        assert open_entropy(n, L) == 2.0 * math.log(n) + head - d * fa * math.log1p(-float(r))
    for N in range(2, 61):
        denom = n * n * (1 + d * decay_factor(n, N))
        for L in range(1, N + 1):
            rL, rC = decay_factor(n, L), decay_factor(n, N - L)
            singlet = (1 + d * rC) * (1 + d * rL) / denom
            adjoint = (1 - rC) * (1 - rL) / denom
            spec = periodic_spectrum(n, N, L)
            assert (spec.N, spec.singlet, spec.adjoint) == (N, singlet, adjoint)
            assert spec.floats() == (float(singlet), float(adjoint))


def test_entropy_at_a_million_sites():
    target = 2 * math.log(2)
    assert abs(open_entropy(2, 10 ** 6) - target) < 1e-15
    assert abs(periodic_entropy(2, 10 ** 6, 5 * 10 ** 5) - target) < 1e-15


# ------------------------------------------------------ past the float cut

def cut(n):
    """The least k with (n^2-1)**k > 2**CUT_BITS."""
    d, k, power = n * n - 1, 1, n * n - 1
    while power <= 1 << CUT_BITS:
        k, power = k + 1, power * d
    return k


def exact_weights(n, N, L):
    """The exact (singlet, adjoint), built from decay_factor."""
    d = n * n - 1
    rL = decay_factor(n, L)
    if N is None:
        return (1 + d * rL) / (n * n), (1 - rL) / (n * n)
    rC, denom = decay_factor(n, N - L), n * n * (1 + d * decay_factor(n, N))
    return (1 + d * rC) * (1 + d * rL) / denom, (1 - rC) * (1 - rL) / denom


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_truncated_floats_are_the_rounded_exact_weights(n):
    """Within 40 of the cut, for the open chain and for rings with only N,
    with C or L alone, or with both past it, the floats are float() of the
    exact weights, and so are the exact weights formed on demand, with the
    ring's denominator n^2 f(N).  A block or complement past the cut forms no
    d**N (the spectrum holds no integers)."""
    K = cut(n)
    for L in range(K - 40, K + 41):
        spec = open_spectrum(n, L)
        singlet, adjoint = exact_weights(n, None, L)
        assert spec.floats() == (float(singlet), float(adjoint))
        assert (spec._ints is None) == (L >= K)
        assert (spec.singlet, spec.adjoint) == (singlet, adjoint)  # formed on demand past the cut
    for N in (K - 1, K, K + 1, 2 * K - 41, 2 * K - 1, 2 * K, 2 * K + 1, 2 * K + 40, 3 * K, 3 * K + 1):
        lengths = {1, 2, 3, 19, 20, 21, K - 40, K - 1, K, K + 1, K + 40, N // 2, N // 2 + 1,
                   N - K - 1, N - K, N - K + 1, N - 21, N - 20, N - 2, N - 1, N}
        for L in sorted(L for L in lengths if 1 <= L <= N):
            spec = periodic_spectrum(n, N, L)
            singlet, adjoint = exact_weights(n, N, L)
            assert spec.floats() == (float(singlet), float(adjoint)), (N, L)
            assert (spec._ints is None) == (max(L, N - L) >= K)
            assert (spec.singlet, spec.adjoint) == (singlet, adjoint), (N, L)  # denominator n^2 f(N)


def test_pair_past_the_cut_is_cached_per_n_and_sign():
    """With every length past the cut the pair depends on n and the sign of
    the least dropped term alone: one cache entry each, and it is float() of
    the exact weights at every length that reads it."""
    _rounded_weights.cache_clear()
    keys = set()
    for n in (2, 3, 4, 5, 6):
        K = cut(n)
        specs = [(None, L) for L in (K, K + 1, K + 2, K + 3)]
        specs += [(N, L) for N in (2 * K, 2 * K + 1, 2 * K + 2, 2 * K + 3)
                  for L in (K, K + 1, N // 2, N - K - 1, N - K) if K <= L <= N - K]
        for N, L in specs:
            spec = open_spectrum(n, L) if N is None else periodic_spectrum(n, N, L)
            least = L if N is None else min(L, N - L)
            keys.add((n, 1 if least % 2 == 0 else -1))
            assert spec.floats() == tuple(map(float, exact_weights(n, N, L))), (n, N, L)
            assert spec._ints is None
    info = _rounded_weights.cache_info()
    assert len(keys) == 10 and info.currsize <= len(keys) and info.hits > 0


def test_undecided_rounding_falls_back_to_the_exact_integers(monkeypatch):
    """Where the rounding test decides nothing, the spectrum holds the exact
    integers of the same formula, and its floats are unchanged."""
    K = cut(2)
    for N, L in [(None, K), (None, K + 1), (2 * K + 1, 3), (2 * K + 1, K), (2 * K + 1, 2 * K + 1)]:
        spec = open_spectrum(2, L) if N is None else periodic_spectrum(2, N, L)
        with monkeypatch.context() as patch:
            patch.setattr(closed_form, "_rounded_weights", lambda *ints: None)
            exact = open_spectrum(2, L) if N is None else periodic_spectrum(2, N, L)
        assert exact._ints is not None and exact.floats() == spec.floats(), (N, L)
        assert (exact.singlet, exact.adjoint) == exact_weights(2, N, L) == (spec.singlet, spec.adjoint)


def test_rounding_test_decides_only_away_from_a_boundary():
    # 0.5 + 2**-54 is the midpoint between the floats 0.5 and 0.5 + 2**-53
    midpoint, big = (2 ** 53 + 1, 2 ** 54), 3 ** 800
    assert _round_truncated(*midpoint, 1, 3) == 0.5 + 2 ** -53
    assert _round_truncated(*midpoint, -1, 3) == 0.5
    # 2**-1322 past it: within the dropped tail's bound, so left to the exact route
    assert _round_truncated(midpoint[0] * big + 1, midpoint[1] * big, 1, 3) is None
    assert _round_truncated(1, 3, -1, 3) == 1 / 3
    assert _round_truncated(0, 9, 1, 3) == 0.0


@pytest.mark.parametrize("N,floats", [(10 ** 18, (0.11111111111111112, 0.1111111111111111)),
                                      (10 ** 18 + 1, (0.1111111111111111, 0.1111111111111111))])
def test_ring_rounds_an_open_midpoint_by_the_parity_of_N(N, floats):
    # the n=3 open weights at L=20 are exact rounding midpoints; on a ring the
    # largest dropped term, 8 r(C) with C = N - 20, rounds them up for even N
    for L in (20, N - 20):
        assert periodic_spectrum(3, N, L).floats() == floats
    M = 3 * cut(3) + (N - 3 * cut(3)) % 2  # a ring of N's parity whose floats are checked exactly above
    assert periodic_spectrum(3, M, 20).floats() == floats


def test_rows_at_any_length_take_under_a_millisecond():
    # the fastest of five runs, so a busy machine does not fail it
    def fastest(call):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return min(times)

    assert fastest(lambda: open_entropy(2, 10 ** 7)) < 1e-3
    assert fastest(lambda: periodic_entropy(2, 4 * 10 ** 6, 2 * 10 ** 6)) < 1e-3
    assert open_entropy(2, 10 ** 7) == periodic_entropy(2, 4 * 10 ** 6, 2 * 10 ** 6) == 2 * math.log(2)
    for n in range(2, 9):
        for N in (10 ** 6, 10 ** 18 - 1, 10 ** 18):
            for L in (1, 2, 20, 3 * cut(n), N // 2, N - 1, N):
                assert fastest(lambda: periodic_spectrum(n, N, L).renyi(2.0)) < 1e-3, (n, N, L)
        assert fastest(lambda: open_spectrum(n, 10 ** 18).entropy()) < 1e-3, n


def test_single_site_ring_rejected():
    with pytest.raises(ValueError, match="N >= 2"):
        periodic_spectrum(2, 1, 1)


# -------------------------------------------------------------- branch points

def open_power_sum(n, L, alpha):
    singlet, adjoint = open_spectrum(n, L).floats()
    return singlet ** alpha + (n * n - 1) * adjoint ** alpha


def test_branch_point_frozen_value():
    point = branch_points(2, 2, [0])[0]
    expected = complex(math.log(3), math.pi) / math.log(1.5)
    assert abs(point.alpha - expected) < 1e-12
    assert point.residual < 1e-8
    assert abs(open_power_sum(2, 2, point.alpha)) < 1e-8
    assert point.even_block


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("L", range(2, 7))
def test_branch_point_grid(n, L):
    points = branch_points(n, L, range(3))
    assert len(points) == 6
    for point in points:
        assert point.residual < 1e-8
        # the residual is the factored modulus |(singlet/adjoint)**alpha + (n^2-1)|
        singlet, adjoint = open_spectrum(n, L).floats()
        assert point.residual == abs(cmath.exp(point.alpha * math.log(singlet / adjoint)) + (n * n - 1))
        if L % 2 == 0:
            # small positive real part: the raw power sum itself cancels
            assert point.alpha.real > 0
            assert abs(open_power_sum(n, L, point.alpha)) < 1e-8
        else:
            assert point.alpha.real < 0
        conj = [
            q for q in points
            if q.m == point.m and q.sign == -point.sign
        ]
        assert len(conj) == 1 and abs(conj[0].alpha - point.alpha.conjugate()) < 1e-12


def test_branch_point_rejections():
    with pytest.raises(ValueError):
        branch_points(2, 1, [0])  # singlet weight exactly zero
    with pytest.raises(DegenerateSpectrumError):
        branch_points(2, 50, [0])  # weights numerically degenerate
    with pytest.raises(DegenerateSpectrumError):
        branch_points(2, 10 ** 8, [0])  # past the cut: no exact weight is formed
    with pytest.raises(ValueError):
        branch_points(2, 2, [-1])


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0),
                                   complex(math.nan, 1.0), complex(math.inf, 1.0),
                                   complex(0.5, math.inf), complex(2.0, math.nan)])
def test_non_finite_orders_rejected(alpha):
    report = spectrum_report([0.6, 0.4])
    for entropy in (lambda: open_renyi(2, 2, alpha), lambda: periodic_renyi(2, 4, 2, alpha),
                    lambda: renyi(report, alpha)):
        with pytest.raises(ValueError, match="finite"):
            entropy()


NUMPY_ORDERS = [kind(alpha) for kind in (np.float16, np.float32, np.float64, np.complex64)
                for alpha in (3.0, 0.5, 0.1)] + [np.complex64(2.0 + 0.5j), np.complex64(0.25 - 1.5j)]


@pytest.mark.parametrize("order", NUMPY_ORDERS, ids=repr)
def test_numpy_orders_compute_as_python_numbers(order):
    # a numpy order is taken at its exact value, widened to a Python number:
    # float16(0.1) is 0.0999755859375, and that order gives float64 results
    want = complex(order) if isinstance(order, np.complexfloating) else float(order)
    report = spectrum_report([0.6, 0.4])
    for entropy in (lambda a: open_renyi(2, 5, a), lambda a: periodic_renyi(3, 6, 2, a),
                    lambda a: renyi(report, a)):
        got = entropy(order)
        assert type(got) is type(entropy(want)) in (float, complex) and got == entropy(want)


@pytest.mark.parametrize("alpha", ["2", None, [2.0], 10 ** 400], ids=["str", "None", "list", "10**400"])
def test_non_numeric_orders_rejected(alpha):
    with pytest.raises(ValueError, match="order must be"):
        open_renyi(2, 2, alpha)


def test_closed_form_branch_condition():
    point = branch_points(2, 2, [0])[0]
    with pytest.raises(BranchPointCondition):
        open_renyi(2, 2, point.alpha)


# ------------------------------------------------------------ transfer matrix

def test_transfer_spectrum_values():
    first = transfer_spectrum(2, 1)
    assert (first.singlet, first.adjoint) == (0, Fraction(1, 3))
    assert transfer_spectrum(3, 4) == open_spectrum(3, 4)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_transfer_route_agrees_everywhere(n):
    for L in range(1, 21):
        via = transfer_spectrum(n, L)
        direct = open_spectrum(n, L)
        assert via.singlet == direct.singlet
        assert via.adjoint == direct.adjoint


def test_transfer_matrix_spectrum():
    eigs = jacobi_eigvalsh(transfer_matrix(2))
    assert np.abs(eigs - np.array([3.0, -1.0, -1.0, -1.0])).max() < 1e-12


@pytest.mark.parametrize("build", [transfer_matrix, transfer_diagonalizer], ids=lambda f: f.__name__)
def test_transfer_builders_refuse_a_side_over_the_matrix_budget_before_allocating(build):
    # at n = 100 the side is 10^4 > 4096: 800 MB for the hopping matrix and
    # about 3.2 GB for the Fourier matrix and its index grids
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="transfer matrix dimension 10000 exceeds matrix budget 4096$"):
            build(100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    with pytest.raises(BudgetError, match="dimension 9 exceeds matrix budget 8$"):
        build(3, matrix_budget=8)
    assert build(3, matrix_budget=9).shape == (9, 9)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_transfer_diagonalizer(n):
    nn = n * n
    uc = transfer_diagonalizer(n)
    assert np.linalg.norm(uc.conj().T @ uc - np.eye(nn)) < 1e-12
    diag = np.diag([nn - 1.0] + [-1.0] * (nn - 1))
    assert np.linalg.norm(uc @ diag @ uc.conj().T - transfer_matrix(n)) < 1e-12
