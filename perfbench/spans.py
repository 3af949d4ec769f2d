"""Nested spans around the package's public entry points, recorded from
outside the package.

Tracer.install() replaces each entry point below, wherever a failwave module
holds it as an attribute (`failwave.ops.solve_tridiag`, `failwave.cli.run`,
...), with a wrapper that records one span per call: which entry point, its
parent span, start and end. uninstall() puts the originals back. Spans stay
in memory, in flat arrays, until save() writes them out.

An entry point the package no longer has is listed in `absent` and traced as
a layer with no calls, so the benchmark keeps running across refactors that
delete functions.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "failwave"

# Layer (package module) -> entry points wrapped in the traced run.
# `errors` does no work and is not traced.
LAYERS = {
    "model": ("build_scenario", "initialize_state"),
    "solver": ("run", "run_clifton", "step_elastic", "step_damage"),
    "ops": (
        "strain_faces", "strain_faces_1d", "strain_faces_2d",
        "face_conductivity_1d", "face_conductivity_2d",
        "cn_damage_step_1d", "adi_damage_step_2d",
        "solve_tridiag", "solve_cyclic_tridiag",
    ),
    "constitutive": (
        "stress", "elastic_wave_speed", "elastic_energy_density",
        "internal_forces", "total_free_energy",
    ),
    "analysis": ("wave_metrics", "budget_imbalance", "track_front", "measure_rise_time"),
    "variational": ("record_trajectory", "lagrange_residual"),
    "cli": ("main", "cmd_run"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # entry id -> "layer.function"
        self.layer_of: list[str] = []  # entry id -> layer
        self.absent: list[str] = []
        self._targets = []  # (entry id, original function)
        self._patched = []  # (module, attribute, original)
        for layer, funcs in LAYERS.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for func in funcs:
                name = f"{layer}.{func}"
                self.names.append(name)
                self.layer_of.append(layer)
                orig = getattr(module, func, None)
                if orig is None:
                    self.absent.append(name)
                else:
                    self._targets.append((len(self.names) - 1, orig))
        self.entry = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # active-cell count seen by each step_damage call, keyed by span index
        self.active_counts: dict[int, int] = {}

    def _wrap(self, eid: int, fn):
        entry, parent, start, end, stack = self.entry, self.parent, self.start, self.end, self._stack
        counts = self.active_counts if self.names[eid] == "solver.step_damage" else None

        def traced(*args, **kwargs):
            idx = len(start)
            if counts is not None:
                counts[idx] = int(np.count_nonzero(args[0].active))
            entry.append(eid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for eid, orig in self._targets:
            wrapper = self._wrap(eid, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self):
        """(entry, parent, start, end, self time) as numpy arrays."""
        entry = np.frombuffer(self.entry, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return entry, parent, start, end, dur - child

    def save(self, path) -> None:
        entry, parent, start, end, _ = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), entry=entry, parent=parent,
            start=start, end=end,
        )


class SpanView:
    """Queries over the spans recorded between two marks of a Tracer."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        entry, parent, start, end, self_t = tracer.arrays()
        sl = slice(lo, hi)
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.layer = np.array(tracer.layer_of)
        self.entry, self.parent = entry[sl], parent[sl] - lo
        self.start, self.end, self.self_t = start[sl], end[sl], self_t[sl]
        self.dur = self.end - self.start
        self.active_counts = {i - lo: c for i, c in tracer.active_counts.items() if lo <= i < hi}

    def named(self, *names):
        ids = [self.ids[n] for n in names]
        return np.isin(self.entry, ids)

    def within(self, idx: int):
        """Mask of span idx and every span nested inside it. Spans are stored
        in call order, so these form one block that ends at the first later
        span whose parent comes before idx."""
        after = np.flatnonzero(self.parent[idx + 1:] < idx)
        stop = idx + 1 + int(after[0]) if after.size else self.entry.size
        mask = np.zeros(self.entry.size, dtype=bool)
        mask[idx:stop] = True
        return mask

    def first(self, name: str, mask=None) -> int:
        hits = np.flatnonzero(self.named(name) & (True if mask is None else mask))
        return int(hits[0]) if hits.size else -1

    def count(self, mask) -> int:
        return int(np.count_nonzero(mask))

    def self_s(self, mask) -> float:
        return float(np.sum(self.self_t[mask]))

    def dur_s(self, mask) -> float:
        return float(np.sum(self.dur[mask]))

    def layer_mask(self, layer: str):
        return self.layer[self.entry] == layer if self.entry.size else np.zeros(0, bool)
