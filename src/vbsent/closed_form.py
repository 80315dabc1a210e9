"""Analytic block spectra, entropies and branch points for the chain states.

A block of L bulk sites has exactly two distinct eigenvalue branches: a
non-degenerate singlet weight and an (n^2-1)-fold degenerate adjoint weight.
With d = n^2 - 1, f(k) = d**k + d*(-1)**k and g(k) = d**k - (-1)**k:

    open chain:   singlet = f(L) / (n^2 d**L),   adjoint = g(L) / (n^2 d**L)
    ring (N, L):  with C = N - L the complementary arc,
                  singlet = f(C) f(L) / (n^2 f(N)),   adjoint = g(C) g(L) / (n^2 f(N))

(equivalently 1 + d*r(k) = f(k)/d**k and 1 - r(k) = g(k)/d**k for the signed
decay factor r(k) = (-1/d)**k).  Weights are exact integer ratios.  Their
floats are the correctly rounded values of those ratios (Python's int / int
true division, the same rounding `float(Fraction)` performs), so no gcd runs
on the way to an entropy.  Exact `fractions.Fraction` weights are built on
demand only, for trace identities and spectrum comparisons that must carry
no rounding slack.  Both entropies saturate at 2 log n as the block grows;
all logarithms here are natural.

The same weights arise from an L-fold application of the n^2 x n^2
"all ones minus identity" transfer matrix to the singlet slot
(`transfer_spectrum`), evaluated in exact integer arithmetic, which gives an
independent route to the open-chain branch values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from .errors import DegenerateSpectrumError
from .weyl import _check_dimension, _check_order, _log_power_sum

Order = Union[float, complex]

#: Residual contract for returned branch points.
BRANCH_RESIDUAL_TOL = 1e-8

#: Weight splittings below this make the branch-point ratio meaningless.
DEGENERACY_TOL = 1e-15


def _check_length(L: int) -> None:
    if not isinstance(L, int) or L < 1:
        raise ValueError(f"block length must be an integer >= 1, got {L!r}")


@dataclass(frozen=True, eq=False)
class BlockSpectrum:
    """Block weights: a singlet plus an (n^2-1)-fold adjoint weight.

    N is the ring length, or None for the open chain, whose weights do not
    depend on the chain length.  The weights are integer numerators over
    one common integer denominator; `singlet` and `adjoint` build the exact
    Fractions on demand, `floats()` rounds each ratio once, and equality
    compares exact values.  Ring weights are symmetric under L <-> N - L.
    """

    n: int
    N: Optional[int]
    L: int
    _singlet: int = field(repr=False)
    _adjoint: int = field(repr=False)
    _denom: int = field(repr=False)

    @property
    def multiplicity(self) -> int:
        return self.n * self.n - 1

    @property
    def singlet(self) -> Fraction:
        return Fraction(self._singlet, self._denom)

    @property
    def adjoint(self) -> Fraction:
        return Fraction(self._adjoint, self._denom)

    def _key(self) -> tuple:
        return (self.n, self.N, self.L, self.singlet, self.adjoint)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockSpectrum):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"BlockSpectrum(n={self.n}, N={self.N}, L={self.L}, "
                f"singlet={self.singlet}, adjoint={self.adjoint})")

    def nonzero(self) -> List[Fraction]:
        """Nonzero weights with multiplicity, descending."""
        vals = [self.adjoint] * self.multiplicity if self._adjoint != 0 else []
        if self._singlet != 0:
            vals.append(self.singlet)
        return sorted(vals, reverse=True)

    @cached_property
    def _floats(self) -> Tuple[float, float]:
        return self._singlet / self._denom, self._adjoint / self._denom

    def floats(self) -> Tuple[float, float]:
        """(singlet, adjoint), each the correctly rounded value of its exact ratio."""
        return self._floats

    def entropy(self) -> float:
        """Von Neumann block entropy, in nats.

        Open chains use the saturation-centred form
            2 log n - singlet*log(1 + d*r) - d*adjoint*log(1 - r)
        with r = singlet - adjoint = (-1/d)**L (log1p keeps the exponentially
        small tail exact to working precision), which agrees with
        -sum(w log w) over the weights to 1e-13; rings use -sum(w log w).
        """
        singlet, adjoint = self.floats()
        d = self.multiplicity
        if self.N is not None:  # + 0.0 turns the -0.0 of a pure block (L = N) into 0.0
            return -_xlogx(singlet) - d * _xlogx(adjoint) + 0.0
        r = (self._singlet - self._adjoint) / self._denom
        head = -singlet * math.log1p(d * r) if singlet > 0.0 else 0.0
        return 2.0 * math.log(self.n) + head - d * adjoint * math.log1p(-r)

    def renyi(self, alpha: Order) -> Order:
        """Renyi block entropy at real or complex order; a zero weight drops
        out of the power sum."""
        alpha = _check_order(alpha)
        weights, counts = self.floats(), (1, self.multiplicity)
        total = 0.0
        for w, mult in zip(weights, counts):
            if w != 0.0:
                total += mult * (cmath.exp(alpha * math.log(w)) if isinstance(alpha, complex)
                                 else w ** alpha)
        zero = 0j if isinstance(alpha, complex) else 0.0  # adding it turns -0.0 (or a part) into 0.0
        return _log_power_sum(total, alpha, weights, counts) / (1.0 - alpha) + zero


def open_spectrum(n: int, L: int) -> BlockSpectrum:
    """Exact open-chain block weights for a block of L bulk sites."""
    _check_dimension(n)
    _check_length(L)
    d = n * n - 1
    dL, sign = d ** L, (-1) ** L
    return BlockSpectrum(n, None, L, dL + d * sign, dL - sign, n * n * dL)


def periodic_spectrum(n: int, N: int, L: int) -> BlockSpectrum:
    """Exact ring block weights for a block of L out of N bulk sites."""
    _check_dimension(n)
    _check_length(L)
    if not isinstance(N, int) or N < L:
        raise ValueError(f"need 1 <= L <= N, got L={L!r}, N={N!r}")
    if N < 2:
        raise ValueError(f"periodic chain needs N >= 2, got {N!r}")
    d = n * n - 1
    dC, dL = d ** (N - L), d ** L
    sC, sL = (-1) ** (N - L), (-1) ** L
    # f(C) f(L) and g(C) g(L) expanded around the one big product d**N
    dN, cross, sN = dC * dL, sC * dL + sL * dC, sC * sL
    return BlockSpectrum(n, N, L, dN + d * cross + d * d * sN, dN - cross + sN,
                         n * n * (dN + d * sN))


def _xlogx(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(x)


def open_entropy(n: int, L: int) -> float:
    """Block entropy of the open chain, in nats (see `BlockSpectrum.entropy`)."""
    return open_spectrum(n, L).entropy()


def periodic_entropy(n: int, N: int, L: int) -> float:
    """Block entropy of the ring, -sum(w log w) over the weights."""
    return periodic_spectrum(n, N, L).entropy()


def open_renyi(n: int, L: int, alpha: Order) -> Order:
    """Renyi block entropy of the open chain at real or complex order."""
    return open_spectrum(n, L).renyi(alpha)


def periodic_renyi(n: int, N: int, L: int, alpha: Order) -> Order:
    """Renyi block entropy of the ring at real or complex order."""
    return periodic_spectrum(n, N, L).renyi(alpha)


@dataclass(frozen=True)
class BranchPoint:
    """A complex order where the Renyi power sum vanishes.

    `residual` is the power-sum residual with the adjoint branch factored
    out, |(singlet/adjoint)**alpha + (n^2-1)|; see `branch_residual`.
    """

    alpha: complex
    m: int
    sign: int
    residual: float
    even_block: bool


def branch_residual(n: int, L: int, alpha: complex) -> float:
    """Scale-free measure of how well alpha annihilates the power sum.

    The power sum factors as adjoint**alpha * ((singlet/adjoint)**alpha +
    (n^2-1)); the prefactor is astronomically large at the negative real
    parts odd lengths produce (|adjoint**alpha| ~ 1e40 already at n=2,
    L=5), so only the bracketed factor can meaningfully vanish in floating
    point.  Returns its modulus; at a true branch point this sits at
    rounding level regardless of scale.
    """
    singlet, adjoint = open_spectrum(n, L).floats()
    return abs(cmath.exp(alpha * math.log(singlet / adjoint)) + (n * n - 1))


def branch_points(n: int, L: int, ms: Iterable[int] = range(3)) -> List[BranchPoint]:
    """Branch points of the open-chain Renyi entropy on the complex order plane.

    Solutions of singlet**alpha + (n^2-1)*adjoint**alpha = 0:

        alpha = (log(n^2-1) +/- (2m+1) pi i) / log(singlet/adjoint),  m >= 0,

    one point per (m, sign); the two signs give conjugate points.  The real
    part is positive for even L and negative for odd L, since the weight
    ratio crosses 1 with the sign of the decay factor.  Each returned point
    is checked to annihilate the factored power sum within 1e-8
    (`branch_residual`).

    L = 1 is rejected (the singlet weight is exactly zero there) and so are
    lengths where the two weights agree within 1e-15.
    """
    spec = open_spectrum(n, L)
    singlet, adjoint = spec.floats()
    if spec.singlet == 0:
        raise ValueError(f"block length {L} has singlet weight exactly 0; the weight ratio is undefined")
    if abs(singlet - adjoint) < DEGENERACY_TOL:
        raise DegenerateSpectrumError(
            f"weights differ by {abs(singlet - adjoint):.3e} at L={L}; branch points diverge"
        )
    denom = math.log(singlet / adjoint)
    points = []
    for m in ms:
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"branch integer must be >= 0 (signs are enumerated), got {m!r}")
        for sign in (1, -1):
            alpha = complex(math.log(n * n - 1), sign * (2 * m + 1) * math.pi) / denom
            residual = branch_residual(n, L, alpha)
            if residual >= BRANCH_RESIDUAL_TOL:
                raise ArithmeticError(
                    f"branch point {alpha!r} left residual {residual:.3e}; formula/arithmetic broken"
                )
            points.append(BranchPoint(alpha, m, sign, residual, L % 2 == 0))
    return points


def transfer_matrix(n: int) -> np.ndarray:
    """The n^2 x n^2 hopping matrix on pair labels: all ones minus identity."""
    _check_dimension(n)
    nn = n * n
    return np.ones((nn, nn)) - np.eye(nn)


def transfer_diagonalizer(n: int) -> np.ndarray:
    """Unitary Fourier matrix over the n^2 labels; diagonalizes the transfer matrix
    to diag(n^2-1, -1, ..., -1)."""
    _check_dimension(n)
    nn = n * n
    zeta = np.exp(2j * np.pi / nn)
    j, k = np.meshgrid(np.arange(nn), np.arange(nn), indexing="ij")
    return zeta ** (j * k) / n


def transfer_spectrum(n: int, L: int) -> BlockSpectrum:
    """Open-chain block weights via L exact integer transfer-matrix steps.

    Starts from the unit vector on the singlet label, applies the hopping
    matrix L times in Python integer arithmetic, and normalizes by
    (n^2-1)**L.  Independent of `open_spectrum` but must agree with it.
    """
    _check_dimension(n)
    _check_length(L)
    nn = n * n
    vec = [1] + [0] * (nn - 1)
    for _ in range(L):
        total = sum(vec)
        vec = [total - v for v in vec]
    rest = set(vec[1:])
    if len(rest) != 1:
        raise ArithmeticError(f"transfer iteration broke label symmetry: {vec}")
    return BlockSpectrum(n, None, L, vec[0], vec[1], (nn - 1) ** L)
