"""Valence-bond-solid chain states over pair labels, stored as phase codes.

Encoding.  A chain carries N bulk ("adjoint") sites.  Bulk site k holds the
(n^2-1)-dimensional space spanned by the pair states phi[l,-m] of its two
constituent qudits (barred on the left, plain on the right), labelled by
(l, m) != (0, 0) and stored at axis position l*n + m - 1.

* Open chain with boundary spins: one extra n^2-dimensional slot for the
  boundary qudit pair (plain qudit on the left end, barred on the right
  end), held in the phi basis at axis position l*n + m.  The amplitude on
  (bulk labels; boundary label b) is

      (n^2 - 1)**(-N/2) * omega**phase   if b = running product label,
      0                                  otherwise,

  where label and phase of the left-to-right product
  U[l_1,m_1] ... U[l_N,m_N] come from `weyl.phase_fold`.

* Ring (periodic): no boundary slot.  By convention the last site closes the
  ring: its label is the running product of the other N-1 site labels, with
  the singlet component projected out, normalized by the exact closed-ring
  constant `ring_norm_squared`.  Any other marked site gives the same
  spectra (checked in the test suite via translation covariance).

Storage.  Every nonzero amplitude is scale * omega**k, so a state is stored
as one code per amplitude, code = k + 1 with code 0 for a zero amplitude, in
the smallest unsigned dtype that holds n (`code_dtype`: one byte for every
n <= 255), beside one float `scale`.  The codes are exact; decoding
through the n + 1 values of `PureState.table` (0, then scale * omega**k from
`phase_table`) gives the amplitudes, real at n = 2 where omega = -1.
`PureState.amplitudes()` decodes a whole state; the oracle decodes chunk by
chunk.  The amplitude budget counts amplitudes, not bytes.

Construction.  Labels and phases of the running products come from one
fold (`fold_tables`) in the smallest unsigned dtype that holds n^2 - 1.  A
state is one closure row per label string of its free bulk sites: the codes
of the last slot (the boundary pair, or the ring's closing site), nonzero at
the running product's label only (`_closure`).  The rows behind a leading
string depend only on its running label and phase, its key, one of n^3
values.  So `_fill` writes the closure rows of the n^3 keys, grows them t
times by one bulk site (a key's new block gathers the blocks of the keys it
steps to, from a one-site step table), and copies one block per leading
string with one `np.take`.  The blocks take at most 1/16 of the state's
bytes; beside them a build holds the leading strings' keys and the step
table of n^3 (n^2 - 1) keys.  A state too short for that has the closure
rows of its strings written directly, with one index per string.

Norm.  `PureState` checks that the norm is 1 within 1e-12 (a NaN norm
fails).  Every nonzero amplitude has modulus `scale`, so the squared norm is
scale**2 times the exact count of nonzero codes, with no long sum whose
rounding grows with the state.

States are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .errors import BudgetError, InvariantError
from .weyl import BellIndex, _check_dimension, omega_powers

#: Default cap on the number of stored amplitudes per state.
DEFAULT_AMP_BUDGET = 2 ** 26

#: (sum_l, sum_m, phase) per bulk label string; see `fold_tables`.
Tables = Tuple[np.ndarray, np.ndarray, np.ndarray]

OPEN = "open"
PERIODIC = "periodic"


@dataclass(frozen=True)
class SiteBasis:
    """Local basis of one slot: 'adjoint' (dim n^2-1) or 'pair' (dim n^2)."""

    n: int
    kind: str

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        if self.kind not in ("adjoint", "pair"):
            raise ValueError(f"unknown site kind {self.kind!r}")

    @property
    def dim(self) -> int:
        nn = self.n * self.n
        return nn - 1 if self.kind == "adjoint" else nn

    def labels(self) -> List[BellIndex]:
        """Axis labels in storage order (adjoint slots skip the singlet)."""
        start = 1 if self.kind == "adjoint" else 0
        return [BellIndex(self.n, k // self.n, k % self.n) for k in range(start, self.n * self.n)]


@dataclass(frozen=True)
class ChainSpec:
    """Chain geometry: qudit dimension n, bulk length N, boundary kind."""

    n: int
    N: int
    boundary: str
    amp_budget: int = DEFAULT_AMP_BUDGET

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        if self.boundary not in (OPEN, PERIODIC):
            raise ValueError(f"boundary must be {OPEN!r} or {PERIODIC!r}, got {self.boundary!r}")
        min_sites = 2 if self.boundary == PERIODIC else 1
        if not isinstance(self.N, (int, np.integer)) or self.N < min_sites:
            raise ValueError(f"{self.boundary} chain needs N >= {min_sites}, got {self.N!r}")
        if self.amplitudes > self.amp_budget:
            raise BudgetError(
                f"state would need {self.amplitudes} amplitudes, budget is {self.amp_budget}"
            )

    @property
    def amplitudes(self) -> int:
        d = self.n * self.n - 1
        return d ** self.N * (self.n * self.n if self.boundary == OPEN else 1)


def code_dtype(n: int) -> np.dtype:
    """Dtype of a state's phase codes: the smallest unsigned one holding n."""
    return np.min_scalar_type(n)


def phase_table(n: int) -> np.ndarray:
    """omega**k for k = 0..n-1: exactly (1.0, -1.0) in float64 at n = 2, where
    omega = -1 is real, and `weyl.omega_powers` (complex128) for n >= 3."""
    return np.array([1.0, -1.0]) if n == 2 else omega_powers(n)


@dataclass(frozen=True)
class PureState:
    """Unit-norm state over a labelled product basis, stored as phase codes.

    Amplitude i is 0 where codes[i] == 0 and scale * omega**(codes[i] - 1)
    otherwise, with omega the clock phase of the sites' common n.
    """

    sites: Tuple[SiteBasis, ...]
    codes: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        if not self.sites or any(s.n != self.n for s in self.sites):
            raise ValueError("a state needs at least one site, all of one n")
        if self.codes.dtype != code_dtype(self.n):
            raise ValueError(f"codes must be {code_dtype(self.n)} at n = {self.n}, "
                             f"got {self.codes.dtype}")
        expected = math.prod(self.dims)
        if self.codes.shape != (expected,):
            raise ValueError(f"code vector has shape {self.codes.shape}, expected ({expected},)")
        if self.codes.max() > self.n:
            raise ValueError(f"phase codes run from 0 to {self.n}, got {self.codes.max()}")
        norm = math.sqrt(self.scale * self.scale * np.count_nonzero(self.codes))
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise InvariantError(f"state norm {norm!r} deviates from 1 beyond 1e-12")
        self.codes.flags.writeable = False

    @property
    def n(self) -> int:
        return self.sites[0].n

    @property
    def dims(self) -> Tuple[int, ...]:
        return tuple(s.dim for s in self.sites)

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @property
    def table(self) -> np.ndarray:
        """The amplitude of each code: 0, then scale * omega**k (float64 at
        n = 2, complex128 otherwise)."""
        return np.concatenate(([0.0], phase_table(self.n) * self.scale))

    def amplitudes(self) -> np.ndarray:
        """The whole amplitude vector, decoded (a new array)."""
        return self.table[self.codes]


def _join(head: Tables, tail: Tables, n: int) -> Tables:
    """Fold tables of every head string followed by every tail string, C order.

    The tail's phase picks up the head's m-sum times the tail's l-sum.  Each
    sum before the reduction is at most n^2 - 1, so it fits the tables' dtype.
    """
    hl, hm, hp = (t[:, None] for t in head)
    tl, tm, tp = tail
    return (((hl + tl) % n).reshape(-1), ((hm + tm) % n).reshape(-1),
            ((hp + tp + hm * tl) % n).reshape(-1))


def fold_tables(n: int, sites: int) -> Tables:
    """Running product label and phase over all (n^2-1)**sites bulk label strings.

    Returns (sum_l, sum_m, phase) arrays indexed by the label string in
    C order (site 1 is the slowest axis), each entry reduced mod n and stored
    in the smallest unsigned dtype that holds n^2 - 1.  This is the
    vectorized form of `weyl.phase_fold` over every string at once.
    """
    dtype = np.min_scalar_type(n * n - 1)
    if sites == 0:  # the empty string: identity label, no phase
        return tuple(np.zeros(1, dtype=dtype) for _ in range(3))
    codes = np.arange(1, n * n, dtype=dtype)
    tables = site = (codes // n, codes % n, np.zeros_like(codes))
    for _ in range(sites - 1):
        tables = _join(tables, site, n)
    return tables


def _key(tables: Tables, n: int) -> np.ndarray:
    """Index (l*n + m)*n + p of each string's running label (l, m) and phase p."""
    suml, summ, phase = tables
    return (suml.astype(np.intp) * n + summ) * n + phase


def _closure(n: int, tables: Tables, width: int, first: int) -> np.ndarray:
    """Closure rows: one row of `width` codes per string of `tables`, holding
    phase + 1 at slot l*n + m - first of its running label (l, m), or zero
    where that slot is negative (the singlet, projected out of a ring)."""
    suml, summ, phase = tables
    lin = suml * n + summ  # at most n^2 - 1: stays in the tables' dtype
    codes = phase + 1  # at most n: fits the codes' dtype
    codes[lin < first] = 0  # a projected-out string writes 0 at its own row start
    np.maximum(lin, first, out=lin)
    rows = np.zeros((lin.size, width), dtype=code_dtype(n))
    slots = np.arange(-first, lin.size * width - first, width)  # row starts
    slots += lin
    rows.reshape(-1)[slots] = codes
    return rows


def _fill(n: int, sites: int, width: int, first: int) -> np.ndarray:
    """The closure rows of every string of `sites` bulk sites, in C order.

    The codes behind a leading string depend only on its running label and
    phase, its key: one of n^3.  The closure rows of the n^3 keys are grown
    one site at a time, t times: a key's new block is the old blocks of the
    keys it steps to under each next label, in label order.  Each leading
    string then copies the block of its own key.  t is the longest tail
    whose n^3 blocks take at most 1/16 of the state; with no such tail the
    closure rows of the strings are written directly.
    """
    d = n * n - 1
    t = 0
    while 16 * n ** 3 * d ** (t + 1) <= d ** sites:
        t += 1
    if t == 0:
        return _closure(n, fold_tables(n, sites), width, first).reshape(-1)
    site = fold_tables(n, 1)
    every = np.arange(n ** 3)
    keys = tuple((v % n).astype(site[0].dtype) for v in (every // (n * n), every // n, every))
    step = _key(_join(keys, site, n), n).reshape(n ** 3, d)
    blocks = _closure(n, keys, width, first)
    for _ in range(t):
        blocks = blocks[step].reshape(n ** 3, -1)
    lead = _key(fold_tables(n, sites - t), n)
    return np.take(blocks, lead, axis=0, mode="clip").reshape(-1)


def ring_norm_squared(n: int, N: int) -> Fraction:
    """Exact squared normalization of the closed ring of N bulk sites.

    Equals the number of bulk label strings of length N whose running
    product is the identity label, (d**N + d*(-1)**N)/n^2 with d = n^2-1;
    the norm check on the built state verifies this identity numerically.
    """
    d = n * n - 1
    return (Fraction(d) ** N) * (1 + d * Fraction(-1, d) ** N) / (n * n)


def open_vbs_state(spec: ChainSpec) -> PureState:
    """Open-boundary chain of N bulk sites plus the boundary qudit pair."""
    if spec.boundary != OPEN:
        raise ValueError(f"spec has boundary {spec.boundary!r}, expected {OPEN!r}")
    n, N = spec.n, spec.N
    sites = (SiteBasis(n, "adjoint"),) * N + (SiteBasis(n, "pair"),)
    return PureState(sites, _fill(n, N, n * n, 0), (n * n - 1) ** (-N / 2))


def periodic_vbs_state(spec: ChainSpec) -> PureState:
    """Closed ring of N bulk sites, ring closure carried by the last site."""
    if spec.boundary != PERIODIC:
        raise ValueError(f"spec has boundary {spec.boundary!r}, expected {PERIODIC!r}")
    n, N = spec.n, spec.N
    scale = 1.0 / math.sqrt(float(ring_norm_squared(n, N)))
    # the closing site stores labels 1..n^2-1: strings folding to the singlet drop out
    sites = (SiteBasis(n, "adjoint"),) * N
    return PureState(sites, _fill(n, N - 1, n * n - 1, 1), scale)
