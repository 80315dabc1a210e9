"""Generalized Pauli (clock/shift) algebra for n-level systems.

Conventions, fixed package-wide:

* Computational basis |0>, ..., |n-1>; omega = exp(2*pi*i/n).
* Shift X|j> = |j+1 mod n>, clock Z|j> = omega**j |j>, so Z X = omega X Z.
* The unitary family U[l,m] = X**l Z**m with (l, m) in Z_n x Z_n.  A pair
  label is a plain (l, m) pair of integers of any integer type, read mod n
  (`as_index` reduces it).
  Products stay inside the family up to an integer power of omega, and that
  exponent is tracked exactly in integer arithmetic: `compose` and
  `phase_fold` return ((l, m), k) for the product omega**k U[l,m], with l, m
  and k reduced mod n.  Floating point enters only when matrices or state
  vectors are built.
* A conjugate ("barred") qudit is an n-level system whose basis we write
  |0bar>, ..., |(n-1)bar>; an operator "acting on the barred slot" means the
  same n x n matrix applied in that basis.  The antisymmetric-tensor
  realization of |jbar> inside n-1 plain qudits is provided only as a
  self-test (`conjugate_embedding`) -- nothing else depends on it.
* Entangled pair basis on an ordered (first, second) pair of qudits:

      phi[0,0] = sum_j |j>|jbar> / sqrt(n)
      phi[l,m] = (U[l,m] tensor I) phi[0,0]

  which is orthonormal over all n^2 labels.  Pair labels are linearized as
  (l, m) -> l*n + m everywhere in this package (vector slots, matrix rows,
  CSV columns).

All functions are pure and all returned values may be shared freely across
threads.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
import sys
from functools import lru_cache
from itertools import permutations, repeat
from typing import Iterable, Tuple, Union

from ._numpy import np
from .errors import BranchPointCondition

#: Largest n for which the exponentially sized self-tests (antisymmetric
#: embedding, four-qudit pair swap) are built; read at each call.
MAX_EMBED_DIMENSION = 4


def _check_int(value: int, least: int, what: str) -> int:
    """Any integer (a type with `__index__`) >= least as a Python int (exact
    arithmetic would wrap a numpy one in int64); anything else raises
    ValueError "{what} >= {least}, got {value!r}", `what` naming the argument."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or index < least:
        raise ValueError(f"{what} >= {least}, got {value!r}")
    return int(index)


def _check_dimension(n: int) -> int:
    return _check_int(n, 2, "qudit dimension must be an integer")


def _check_order(alpha: Union[float, complex]) -> Union[float, complex]:
    """A Renyi order, validated: finite, not 1, with positive (real) part.
    It comes back as a Python float, or complex if its imaginary part is
    nonzero, at its exact value: a numpy float32 order 0.1 is
    0.100000001490116..., so the arithmetic is float64 at the caller's value."""
    if type(alpha) is not float and type(alpha) is not complex:  # numpy scalars, ints, Fractions
        if not isinstance(alpha, numbers.Number):
            raise ValueError(f"order must be a number, got {alpha!r}")
        try:
            alpha = float(alpha) if isinstance(alpha, numbers.Real) else complex(alpha)
        except OverflowError:
            raise ValueError(f"order must be finite, got {alpha!r}") from None
    if not cmath.isfinite(alpha):
        raise ValueError(f"order must be finite, got {alpha!r}")
    if isinstance(alpha, complex) and alpha.imag == 0.0:
        alpha = alpha.real
    if alpha == 1.0:
        raise ValueError("order 1 is the von Neumann limit")
    if isinstance(alpha, complex) and alpha.real <= 0.0:
        raise ValueError(f"complex order must have positive real part, got {alpha!r}")
    if not isinstance(alpha, complex) and alpha <= 0.0:
        raise ValueError(f"order must be positive, got {alpha!r}")
    return alpha


#: A complex-order power sum below this is a branch point.
BRANCH_SUM_TOL = 1e-14


def _log_power_sum(total: Union[float, complex], alpha: Union[float, complex],
                   weights: Iterable[float], counts: Iterable[int] = repeat(1)) -> Union[float, complex]:
    """log of the power sum sum_i counts_i * weights_i**alpha over nonzero
    weights, given its plain value `total`: log(total), unless `total`
    underflowed (a real one below the smallest normal float, a complex one
    below BRANCH_SUM_TOL).  There the largest term is factored out, with the
    imaginary part kept in (-pi, pi], and a complex order whose scaled sum is
    below BRANCH_SUM_TOL raises BranchPointCondition.  Scalar math: no numpy."""
    complex_order = isinstance(alpha, complex)
    if (BRANCH_SUM_TOL if complex_order else sys.float_info.min) <= abs(total) < math.inf:
        return cmath.log(total) if complex_order else math.log(total)
    logs = [(math.log(w), count) for w, count in zip(weights, counts) if w > 0.0]
    top = max(log for log, _ in logs)
    exp = cmath.exp if complex_order else math.exp
    scaled = sum(count * exp(alpha * (log - top)) for log, count in logs)
    if complex_order and abs(scaled) < BRANCH_SUM_TOL:
        raise BranchPointCondition(f"power sum vanished at order {alpha!r}")
    log = cmath.log(scaled) + alpha * top
    return complex(log.real, math.remainder(log.imag, 2.0 * math.pi)) if complex_order else log.real


def as_index(n: int, a: Tuple[int, int]) -> Tuple[int, int]:
    """The pair label a = (l, m) for dimension n, reduced mod n.  Each part is
    any integer (a type with `__index__`), negative ones included; anything
    else raises ValueError naming the label."""
    n = _check_dimension(n)
    try:
        l, m = a
        return operator.index(l) % n, operator.index(m) % n
    except (TypeError, ValueError):
        raise ValueError(f"pair label must be two integers (l, m), got {a!r}") from None


@lru_cache(maxsize=None)
def omega_powers(n: int) -> np.ndarray:
    """omega**k for k = 0..n-1, a read-only table evaluated once per n."""
    n = _check_dimension(n)
    table = complex(np.exp(2j * np.pi / n)) ** np.arange(n)
    table.flags.writeable = False
    return table


def pauli_x(n: int) -> np.ndarray:
    """Cyclic shift: X|j> = |j+1 mod n>; X**n = I."""
    n = _check_dimension(n)
    x = np.zeros((n, n), dtype=complex)
    x[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    return x


def pauli_z(n: int) -> np.ndarray:
    """Clock operator diag(1, omega, ..., omega**(n-1)); Z**n = I."""
    n = _check_dimension(n)
    return np.diag(omega_powers(n))


def u_lm(n: int, a: Tuple[int, int]) -> np.ndarray:
    """U[l,m] = X**l Z**m."""
    l, m = as_index(n, a)
    x = np.linalg.matrix_power(pauli_x(n), l)
    z = np.linalg.matrix_power(pauli_z(n), m)
    return x @ z


def compose(n: int, a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[Tuple[int, int], int]:
    """Exact product law U[a] U[b] = omega**(m_a * l_b) U[a+b], as ((l, m), k)."""
    return phase_fold(n, (a, b))


def phase_fold(n: int, factors: Iterable[Tuple[int, int]]) -> Tuple[Tuple[int, int], int]:
    """Left-to-right product of U factors as ((l, m), k): the total label and
    the omega exponent k, both reduced mod n.

    The empty product is the identity, ((0, 0), 0).
    """
    n = _check_dimension(n)
    l = m = k = 0
    for f in factors:
        fl, fm = as_index(n, f)
        k += m * fl
        l, m = (l + fl) % n, (m + fm) % n
    return (l, m), k % n


def bell_vector(n: int, a: Tuple[int, int]) -> np.ndarray:
    """phi[a] as a unit vector on the flattened ordered pair, slot i*n + j."""
    return u_lm(n, a).reshape(-1) / math.sqrt(n)


def _permutation_sign(seq: Tuple[int, ...]) -> int:
    sign = 1
    for i in range(len(seq)):
        for k in range(i + 1, len(seq)):
            if seq[i] > seq[k]:
                sign = -sign
    return sign


def conjugate_embedding(n: int, j: int) -> np.ndarray:
    """|jbar> realized inside n-1 plain qudits via the rank-n antisymmetric tensor.

    Returns a unit vector of dimension n**(n-1); the n vectors are mutually
    orthonormal.  Exponential in n, hence guarded by MAX_EMBED_DIMENSION.
    """
    n = _check_dimension(n)
    if n > MAX_EMBED_DIMENSION:
        raise ValueError(f"embedding n**(n-1) too large for n={n} (max n={MAX_EMBED_DIMENSION})")
    if not 0 <= j < n:
        raise ValueError(f"basis label {j} out of range for dimension {n}")
    vec = np.zeros(n ** (n - 1), dtype=complex)
    rest = [v for v in range(n) if v != j]
    norm = math.sqrt(math.factorial(n - 1))
    for perm in permutations(rest):
        slot = 0
        for v in perm:
            slot = slot * n + v
        vec[slot] = _permutation_sign((j,) + perm) / norm
    return vec


def swap_identity_residual(n: int) -> float:
    """Residual of the pair-swap identity on four qudits ordered (0, 1bar, 1, 2bar).

    Two adjacent singlet pairs on (0,1bar) and (1,2bar) equal the Bell sum
    (1/n) sum_{l,m} phi[l,m] on (0,2bar) tensor phi[l,-m] on (1bar,1).
    The identity is exact; the return value is the floating-point residual
    of assembling both sides.
    """
    n = _check_dimension(n)
    if n > MAX_EMBED_DIMENSION:
        raise ValueError(f"four-qudit space too large for n={n} (max n={MAX_EMBED_DIMENSION})")
    pair0 = u_lm(n, (0, 0)) / math.sqrt(n)
    lhs = np.einsum("ab,cd->abcd", pair0, pair0)
    rhs = np.zeros_like(lhs)
    for l in range(n):
        for m in range(n):
            outer = u_lm(n, (l, m)) / math.sqrt(n)     # pair (0, 2bar)
            inner = u_lm(n, (l, -m)) / math.sqrt(n)    # pair (1bar, 1)
            rhs += np.einsum("ad,bc->abcd", outer, inner)
    rhs /= n
    return float(np.linalg.norm(lhs - rhs))
