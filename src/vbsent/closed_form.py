"""Analytic block spectra, entropies and branch points for the chain states.

A block of L bulk sites has exactly two distinct eigenvalue branches: a
non-degenerate singlet weight and an (n^2-1)-fold degenerate adjoint weight.
With d = n^2 - 1, f(k) = d**k + d*(-1)**k and g(k) = d**k - (-1)**k:

    open chain:   singlet = f(L) / (n^2 d**L),   adjoint = g(L) / (n^2 d**L)
    ring (N, L):  with C = N - L the complementary arc,
                  singlet = f(C) f(L) / (n^2 f(N)),   adjoint = g(C) g(L) / (n^2 f(N))

(equivalently 1 + d*r(k) = f(k)/d**k and 1 - r(k) = g(k)/d**k for the signed
decay factor r(k) = (-1/d)**k).  Weights are exact integer ratios.  Their
floats are the correctly rounded values of those ratios (the same rounding
`float(Fraction)` performs), so no gcd runs on the way to an entropy.

Below the cut they are Python's int / int true division of the exact
integers.  Past it, where the block length L or the ring's complement
C = N - L has d**k > 2**CUT_BITS, every such r(k) is dropped and the
truncated ratio of small integers is rounded, checked by Ziv's rounding
test (see `_rounded_weights`), so no d**L or d**N is formed and a row at
N = 10**18 costs what one at N = 2000 does.  One product formula,
`_weight_ints`, forms the integers of both routes.  Exact `fractions.Fraction`
weights are built on demand only, for trace identities and spectrum
comparisons that must carry no rounding slack; past the cut that forms
d**N.  Both entropies saturate at 2 log n as the block grows; all
logarithms here are natural.

The same weights arise from an L-fold application of the n^2 x n^2
"all ones minus identity" transfer matrix to the singlet slot
(`transfer_spectrum`), evaluated in exact integer arithmetic, which gives an
independent route to the open-chain branch values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple, Union

from ._numpy import np
from .errors import DegenerateSpectrumError
from .weyl import _check_dimension, _check_int, _check_order, _log_power_sum

Order = Union[float, complex]

#: Residual contract for returned branch points.
BRANCH_RESIDUAL_TOL = 1e-8

#: Weight splittings below this make the branch-point ratio meaningless.
DEGENERACY_TOL = 1e-15

#: Float weights drop every decay term (-1/d)**k with d**k above 2**CUT_BITS.
CUT_BITS = 1200


@dataclass(frozen=True, eq=False)
class BlockSpectrum:
    """Block weights: a singlet plus an (n^2-1)-fold adjoint weight.

    N is the ring length, or None for the open chain, whose weights do not
    depend on the chain length.  `floats()` gives each weight's correctly
    rounded float.  `singlet` and `adjoint` are exact Fractions, and
    equality compares exact values.  Below the cut the spectrum holds the
    exact integer numerators over one common denominator; past it
    `singlet`, `adjoint`, `nonzero()`, equality and hashing form them on
    first use, at the cost of d**N.  Ring weights are symmetric under
    L <-> N - L.
    """

    n: int
    N: Optional[int]
    L: int
    _floats: Tuple[float, float] = field(repr=False)
    _ints: Optional[Tuple[int, int, int]] = field(default=None, repr=False)

    @property
    def multiplicity(self) -> int:
        return self.n * self.n - 1

    @cached_property
    def _exact(self) -> Tuple[int, int, int]:
        """(singlet, adjoint, denominator) integers: the ones built with the
        spectrum, else the closed form's."""
        return self._ints if self._ints is not None else _weight_ints(self.n, self.N, self.L)[:3]

    @property
    def singlet(self) -> Fraction:
        return Fraction(self._exact[0], self._exact[2])

    @property
    def adjoint(self) -> Fraction:
        return Fraction(self._exact[1], self._exact[2])

    def _key(self) -> tuple:
        return (self.n, self.N, self.L, self.singlet, self.adjoint)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockSpectrum):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # past the cut the floats, which need no d**N
        singlet, adjoint = (self.singlet, self.adjoint) if self._ints is not None else self._floats
        return (f"BlockSpectrum(n={self.n}, N={self.N}, L={self.L}, "
                f"singlet={singlet}, adjoint={adjoint})")

    def nonzero(self) -> List[Fraction]:
        """Nonzero weights with multiplicity, descending."""
        vals = [self.adjoint] * self.multiplicity if self._exact[1] != 0 else []
        if self._exact[0] != 0:
            vals.append(self.singlet)
        return sorted(vals, reverse=True)

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
        if self._ints is None:  # past the cut |r| < 2**-CUT_BITS rounds to a signed zero
            r = -0.0 if self.L % 2 else 0.0
        else:
            r = (self._ints[0] - self._ints[1]) / self._ints[2]
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


def _weight_ints(n: int, N: Optional[int], L: int, cut: float = math.inf) -> Tuple[int, int, int, int]:
    """(singlet, adjoint, denominator, sign) integers of the closed form with
    each r(k), k >= cut, dropped: the products of f(k) and of g(k), and n^2
    times that of d**k, over k = L and, on the ring, C below the cut.  On a
    ring with none dropped, d**C d**L = d**N and the denominator is n^2 f(N);
    once one is dropped, so is r(N).  `sign` is (-1)**k at the least dropped
    k, or 0 if none is: with no cut these are the exact weights."""
    d, singlet, adjoint, denom = n * n - 1, 1, 1, n * n
    lengths = (L,) if N is None else (N - L, L)
    for k in lengths:
        if k < cut:
            dk, sk = d ** k, (-1) ** (k % 2)
            singlet, adjoint, denom = singlet * (dk + d * sk), adjoint * (dk - sk), denom * dk
    dropped = [k for k in lengths if k >= cut]
    if N is not None and not dropped:
        denom += n * n * d * (-1) ** (N % 2)
    return singlet, adjoint, denom, (-1) ** (min(dropped) % 2) if dropped else 0


@lru_cache(maxsize=None)
def _cut(d: int) -> int:
    """The least k with d**k > 2**CUT_BITS."""
    k = max(1, int(CUT_BITS / math.log2(d)) - 1)  # at most one below it
    while d ** k <= 1 << CUT_BITS:
        k += 1
    return k


def _round_truncated(a: int, b: int, sign: int, d: int) -> Optional[float]:
    """The float of a/b * (1 + eps), 0 <= a <= b, for an unknown eps of the
    given sign with |eps| < 4 d 2**-CUT_BITS, or None if that bound leaves
    it undecided.

    Ziv's rounding test: scaled into [2**52, 2**53), the floats are the
    integers and the rounding boundaries the half-integers.  There eps moves
    a/b by less than d 2**(55 - CUT_BITS), which decides nothing when a/b
    is further than that from the nearest boundary; when a/b is a boundary,
    the sign of eps picks the neighbour.
    """
    if a == 0:  # eps multiplies an exact zero
        return 0.0
    shift = 52 - a.bit_length() + b.bit_length()  # a/b * 2**shift lies in [2**51, 2**53)
    q, rem = divmod(a << shift, b)
    if q < 1 << 52:
        shift += 1
        q, rem = divmod(a << shift, b)
    twice = 2 * rem - b  # 2b times the distance past the half-integer q + 1/2
    if twice == 0:
        return math.ldexp(q + (sign > 0), -shift)
    if abs(twice) << CUT_BITS > b << (56 + d.bit_length()):
        return a / b
    return None


@lru_cache(maxsize=64)
def _rounded_weights(singlet: int, adjoint: int, denom: int, sign: int, d: int) -> Optional[Tuple[float, float]]:
    """The float pair of the truncated integers of `_weight_ints`, or None if
    a weight is undecided.  The largest dropped term, d*r(k) in the singlet
    and -r(k) in the adjoint at the least dropped k, sets the sign of the
    error: the denominator's d*r(N) is at least d times smaller, since N > k.
    At most three dropped terms, each below d 2**-CUT_BITS, give
    |eps| < 4 d 2**-CUT_BITS.  With every length past the cut the integers
    are (1, 1, n^2): one cache entry per n and sign serves all those rows."""
    floats = _round_truncated(singlet, denom, sign, d), _round_truncated(adjoint, denom, -sign, d)
    return None if None in floats else floats


def _spectrum(n: int, N: Optional[int], L: int) -> BlockSpectrum:
    d = n * n - 1
    singlet, adjoint, denom, sign = _weight_ints(n, N, L, _cut(d))
    if sign:  # a length is past the cut: round the truncated ratio, else fall back to the exact one
        floats = _rounded_weights(singlet, adjoint, denom, sign, d)
        if floats is not None:
            return BlockSpectrum(n, N, L, floats)
        singlet, adjoint, denom, _ = _weight_ints(n, N, L)
    return BlockSpectrum(n, N, L, (singlet / denom, adjoint / denom), (singlet, adjoint, denom))


def open_spectrum(n: int, L: int) -> BlockSpectrum:
    """Exact open-chain block weights for a block of L bulk sites."""
    return _spectrum(_check_dimension(n), None, _check_int(L, 1, "block length must be an integer L"))


def periodic_spectrum(n: int, N: int, L: int) -> BlockSpectrum:
    """Exact ring block weights for a block of L out of N bulk sites."""
    n, L = _check_dimension(n), _check_int(L, 1, "block length must be an integer L")
    N = _check_int(N, 2, "periodic chain length must be an integer N")
    if N < L:
        raise ValueError(f"need 1 <= L <= N, got L={L}, N={N}")
    return _spectrum(n, N, L)


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

    `residual` measures, free of scale, how well alpha annihilates the power
    sum.  That sum factors as adjoint**alpha * ((singlet/adjoint)**alpha +
    (n^2-1)), and the prefactor is astronomically large at the negative real
    parts odd lengths produce (|adjoint**alpha| ~ 1e40 already at n=2,
    L=5), so only the bracket can meaningfully vanish in floating point:
    `residual` is its modulus, at rounding level at a true branch point
    whatever the scale.
    """

    alpha: complex
    m: int
    sign: int
    residual: float
    even_block: bool


def branch_points(n: int, L: int, ms: Iterable[int] = range(3)) -> List[BranchPoint]:
    """Branch points of the open-chain Renyi entropy on the complex order plane.

    Solutions of singlet**alpha + (n^2-1)*adjoint**alpha = 0:

        alpha = (log(n^2-1) +/- (2m+1) pi i) / log(singlet/adjoint),  m >= 0,

    one point per (m, sign); the two signs give conjugate points.  The real
    part is positive for even L and negative for odd L, since the weight
    ratio crosses 1 with the sign of the decay factor.  Each returned point
    is checked to annihilate the factored power sum within 1e-8 (see
    `BranchPoint.residual`).

    L = 1 is rejected (the singlet weight is exactly zero there) and so are
    lengths where the two weights agree within 1e-15.
    """
    spectrum = open_spectrum(n, L)
    L, d = spectrum.L, spectrum.multiplicity
    singlet, adjoint = spectrum.floats()
    if L == 1:
        raise ValueError(f"block length {L} has singlet weight exactly 0; the weight ratio is undefined")
    if abs(singlet - adjoint) < DEGENERACY_TOL:
        raise DegenerateSpectrumError(
            f"weights differ by {abs(singlet - adjoint):.3e} at L={L}; branch points diverge"
        )
    denom = math.log(singlet / adjoint)
    points = []
    for m in ms:
        m = _check_int(m, 0, "branch integer must be an integer m")
        for sign in (1, -1):
            alpha = complex(math.log(d), sign * (2 * m + 1) * math.pi) / denom
            residual = abs(cmath.exp(alpha * denom) + d)
            if residual >= BRANCH_RESIDUAL_TOL:
                raise ArithmeticError(
                    f"branch point {alpha!r} left residual {residual:.3e}; formula/arithmetic broken"
                )
            points.append(BranchPoint(alpha, m, sign, residual, L % 2 == 0))
    return points


def transfer_matrix(n: int) -> np.ndarray:
    """The n^2 x n^2 hopping matrix on pair labels: all ones minus identity."""
    n = _check_dimension(n)
    nn = n * n
    return np.ones((nn, nn)) - np.eye(nn)


def transfer_diagonalizer(n: int) -> np.ndarray:
    """Unitary Fourier matrix over the n^2 labels; diagonalizes the transfer matrix
    to diag(n^2-1, -1, ..., -1)."""
    n = _check_dimension(n)
    nn = n * n
    j, k = np.meshgrid(np.arange(nn), np.arange(nn), indexing="ij")
    return np.exp(2j * np.pi * (j * k % nn) / nn) / n  # reduced first: a rounded zeta's powers drift


def transfer_spectrum(n: int, L: int) -> BlockSpectrum:
    """Open-chain block weights via L exact integer transfer-matrix steps.

    Starts from the unit vector on the singlet label, applies the hopping
    matrix L times in Python integer arithmetic, and normalizes by
    (n^2-1)**L.  Independent of `open_spectrum` but must agree with it.
    """
    n, L = _check_dimension(n), _check_int(L, 1, "block length must be an integer L")
    nn = n * n
    vec = [1] + [0] * (nn - 1)
    for _ in range(L):
        total = sum(vec)
        vec = [total - v for v in vec]
    rest = set(vec[1:])
    if len(rest) != 1:
        raise ArithmeticError(f"transfer iteration broke label symmetry: {vec}")
    denom = (nn - 1) ** L
    return BlockSpectrum(n, None, L, (vec[0] / denom, vec[1] / denom), (vec[0], vec[1], denom))
