"""Per-layer spans for the traced run, recorded from outside the package.

`traced(tracer)` wraps the functions listed in LAYERS by rebinding module
attributes at run time, so the package source is not touched.  A name is
rebound in every vbsent module that holds the same function object, because
some modules import functions by name (`edges` imports `fold_tables` and
`open_spectrum`, `cli` imports `run_checks`).  The originals come back when
the context exits.

A span's self time is its duration minus the durations of the spans it
encloses; a layer's self time is the sum over its spans.  Only functions
entered across a layer boundary are wrapped: per-row helpers such as
`cli.fmt` would make the wrappers' own cost visible.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

# layer -> (module, wrapped functions).  Layers are the package modules, with
# closed_form, states and oracle split where one part dominates a workload.
LAYERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "cli": ("vbsent.cli", ("main",)),
    "closed_form.weights": ("vbsent.closed_form",
                            ("open_spectrum", "periodic_spectrum", "transfer_spectrum")),
    "closed_form.entropy": ("vbsent.closed_form",
                            ("open_entropy", "periodic_entropy", "open_renyi", "periodic_renyi")),
    "closed_form.branch_points": ("vbsent.closed_form", ("branch_points",)),
    "states.build": ("vbsent.states", ("open_vbs_state", "periodic_vbs_state")),
    "states.fold_tables": ("vbsent.states", ("fold_tables",)),
    "oracle.block_spectrum": ("vbsent.oracle", ("block_spectrum",)),
    "oracle.jacobi": ("vbsent.oracle", ("jacobi_eigvalsh",)),
    "oracle.reduced_density": ("vbsent.oracle", ("reduced_density",)),
    "oracle.spectrum_report": ("vbsent.oracle", ("spectrum_report",)),
    "edges": ("vbsent.edges", ("reconstruct_rho", "edge_basis", "edge_gram")),
    "checks": ("vbsent.checks", ("run_checks",)),
    "weyl": ("vbsent.weyl", ("as_index", "omega_powers", "pauli_x", "pauli_z", "u_lm",
                             "compose", "phase_fold", "bell_vector", "conjugate_embedding",
                             "swap_identity_residual")),
}

BYTES_PER_AMPLITUDE = 16  # complex128


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    failed: int = 0


class Tracer:
    """Aggregates spans per layer, plus size counters taken at call time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: Dict[str, LayerStats] = {name: LayerStats() for name in LAYERS}
        self.counters: Dict[str, float] = {
            "states.amps_max": 0, "states.bytes_built": 0,
            "oracle.gram.max_dim": 0, "oracle.gram.flops": 0, "oracle.jacobi.max_dim": 0,
        }
        self._open: List[float] = []  # time covered by child spans of each open span

    def wrap(self, layer: str, fn: Callable) -> Callable:
        stats = self.layers[layer]
        probe = _PROBES.get(layer)

        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(self.counters, *args, **kwargs)
            self._open.append(0.0)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.failed += 1
                raise
            finally:
                elapsed = self.clock() - start
                stats.calls += 1
                stats.self_s += elapsed - self._open.pop()
                if self._open:
                    self._open[-1] += elapsed

        return functools.wraps(fn)(wrapper)

    def metrics(self) -> Dict[str, float]:
        """Flat per-layer metrics: `<layer>.calls`, `<layer>.self_s`, failures, counters."""
        out: Dict[str, float] = {}
        for name, stats in self.layers.items():
            out[f"{name}.calls"] = stats.calls
            out[f"{name}.self_s"] = stats.self_s
        out["states.build.failed"] = self.layers["states.build"].failed
        out.update(self.counters)
        return out


def _probe_build(counters: Dict[str, float], spec, *_, **__) -> None:
    counters["states.amps_max"] = max(counters["states.amps_max"], spec.amplitudes)
    counters["states.bytes_built"] += spec.amplitudes * BYTES_PER_AMPLITUDE


def _probe_block_spectrum(counters: Dict[str, float], state, block, *_, **__) -> None:
    dims = state.dims
    total = math.prod(dims)
    # out-of-range positions are left for block_spectrum itself to reject
    d_block = math.prod(dims[i] for i in block if 0 <= i < len(dims))
    small, large = sorted((d_block, total // d_block))
    counters["oracle.gram.max_dim"] = max(counters["oracle.gram.max_dim"], small)
    counters["oracle.gram.flops"] += 8 * small * small * large  # complex multiply-add


def _probe_jacobi(counters: Dict[str, float], matrix, *_, **__) -> None:
    counters["oracle.jacobi.max_dim"] = max(counters["oracle.jacobi.max_dim"], len(matrix))


_PROBES = {
    "states.build": _probe_build,
    "oracle.block_spectrum": _probe_block_spectrum,
    "oracle.jacobi": _probe_jacobi,
}


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Route every listed function through `tracer` until the block exits."""
    modules = {name: importlib.import_module(name) for name, _ in LAYERS.values()}
    holders = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "vbsent" or name.startswith("vbsent."))]
    swaps = []
    try:
        for layer, (module_name, names) in LAYERS.items():
            for name in names:
                original = getattr(modules[module_name], name)
                wrapper = tracer.wrap(layer, original)
                for holder in holders:
                    if holder.__dict__.get(name) is original:
                        setattr(holder, name, wrapper)
                        swaps.append((holder, name, original))
        yield tracer
    finally:
        for holder, name, original in reversed(swaps):
            setattr(holder, name, original)

