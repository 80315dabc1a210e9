"""Dense valence-bond-solid chain states over pair labels.

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

Construction.  Labels and phases of the running products come from one
fold (`fold_tables`) in the smallest unsigned dtype that holds n^2 - 1.  The
amplitude vector is zero-allocated and filled in chunks of label strings:
the tables of the last few sites are folded once and joined to a few
leading strings at a time.  Beside the vector, a build holds chunk-sized
temporaries and the leading strings' tables, which have thousands of times
fewer entries than the vector at any size near the budget; no lookup table
is larger than one site's n^2 - 1 labels.  Each nonzero amplitude is one
entry of an n-entry table of scaled powers of omega (`_phase_table`).

Storage.  At n = 2 omega = -1, so every amplitude is real: the table is
exactly (1, -1) and the state is a float64 vector, 8 bytes per amplitude.
For n >= 3 the state is complex128, 16 bytes per amplitude.  `PureState`
takes either dtype; the amplitude budget counts amplitudes, not bytes.

Norm.  `PureState` checks that the norm is 1 within 1e-12 (a NaN norm
fails).  It measures the norm with `squared_norm`: chunked pairwise sums of
squares combined by `math.fsum`, accurate to a few ulp at any length.  A
plain BLAS dot product loses about 1e-11 near the amplitude budget, enough
to reject correct states.

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

#: Label strings per chunk of the state fill, and float64 values per chunk of
#: the norm sum: large enough to amortize numpy's per-call cost, small next
#: to any state near the budget.  A fill chunk holds about four int64-sized
#: temporaries at once (row offsets, slots, phase indices, values), which
#: must stay a small share of a float64 n = 2 state as short as N = 10.
FILL_CHUNK = 2 ** 13
NORM_CHUNK = 2 ** 15

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


def squared_norm(amps: np.ndarray) -> float:
    """Sum of |a|^2 over an amplitude vector, accurate to a few ulp at any length.

    The squares of the real and imaginary parts are summed pairwise by
    `np.sum` in chunks of NORM_CHUNK, and the chunk sums by `math.fsum`, so
    the rounding error does not grow with the vector length the way a BLAS
    dot product's does.  The chunking is fixed, so the result is reproducible.
    A contiguous float64 or complex128 vector is read in place; a real one
    has no imaginary parts to read.
    """
    dtype = complex if np.iscomplexobj(amps) else np.float64
    flat = np.ascontiguousarray(amps, dtype=dtype).reshape(-1).view(np.float64)
    buf = np.empty(min(NORM_CHUNK, flat.size))
    sums = []
    for lo in range(0, flat.size, NORM_CHUNK):
        part = flat[lo:lo + NORM_CHUNK]
        sums.append(float(np.square(part, out=buf[:part.size]).sum()))
    return math.fsum(sums)


@dataclass(frozen=True)
class PureState:
    """Unit-norm float64 or complex128 amplitude vector over a labelled
    product basis."""

    sites: Tuple[SiteBasis, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.amps.dtype not in (np.float64, np.complex128):
            raise ValueError(f"amplitudes must be float64 or complex128, got {self.amps.dtype}")
        expected = math.prod(s.dim for s in self.sites)
        if self.amps.shape != (expected,):
            raise ValueError(f"amplitude vector has shape {self.amps.shape}, expected ({expected},)")
        norm = math.sqrt(squared_norm(self.amps))
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise InvariantError(f"state norm {norm!r} deviates from 1 beyond 1e-12")
        self.amps.flags.writeable = False

    @property
    def dims(self) -> Tuple[int, ...]:
        return tuple(s.dim for s in self.sites)

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per slot (read-only view)."""
        return self.amps.reshape(self.dims)


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


def _phase_table(n: int) -> np.ndarray:
    """omega**k for k = 0..n-1: exactly (1.0, -1.0) in float64 at n = 2, where
    omega = -1 is real, and `weyl.omega_powers` (complex128) for n >= 3."""
    return np.array([1.0, -1.0]) if n == 2 else omega_powers(n)


def _fill(n: int, sites: int, width: int, first: int, values: np.ndarray) -> np.ndarray:
    """Amplitude vector with one entry per bulk label string s of `sites` sites,
    in the dtype of `values`.

    String s puts values[phase(s)] at s * width + lin(s) - first, where
    lin = l*n + m is the label of its running product; strings with
    lin < first are projected out and leave their row zero.  The strings
    are visited in chunks of about FILL_CHUNK: the tables of the last few
    sites (at most FILL_CHUNK strings, and never the first site) are folded
    once and joined to a few head strings per chunk, so every temporary is
    chunk-sized.
    """
    d = n * n - 1
    tail_sites = 0
    while tail_sites < sites - 1 and d ** (tail_sites + 1) <= FILL_CHUNK:
        tail_sites += 1
    head = fold_tables(n, sites - tail_sites)
    tail = fold_tables(n, tail_sites)
    size = tail[0].size
    step = max(1, min(head[0].size, FILL_CHUNK // size))
    offsets = np.arange(step * size) * width - first  # row starts within one chunk
    amps = np.zeros(d ** sites * width, dtype=values.dtype)
    for lo in range(0, head[0].size, step):
        suml, summ, phase = _join(tuple(t[lo:lo + step] for t in head), tail, n)
        lin = suml * n + summ  # at most n^2 - 1: stays in the tables' dtype
        slots = offsets[:lin.size] + lin + lo * size * width
        if first:
            keep = lin >= first
            slots, phase = slots[keep], phase[keep]
        amps[slots] = values[phase]
    return amps


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
    amps = _fill(n, N, n * n, 0, _phase_table(n) * (n * n - 1) ** (-N / 2))
    sites = (SiteBasis(n, "adjoint"),) * N + (SiteBasis(n, "pair"),)
    return PureState(sites, amps)


def periodic_vbs_state(spec: ChainSpec) -> PureState:
    """Closed ring of N bulk sites, ring closure carried by the last site."""
    if spec.boundary != PERIODIC:
        raise ValueError(f"spec has boundary {spec.boundary!r}, expected {PERIODIC!r}")
    n, N = spec.n, spec.N
    scale = 1.0 / math.sqrt(float(ring_norm_squared(n, N)))
    # the closing site stores labels 1..n^2-1: strings folding to the singlet drop out
    amps = _fill(n, N - 1, n * n - 1, 1, _phase_table(n) * scale)
    sites = (SiteBasis(n, "adjoint"),) * N
    return PureState(sites, amps)
