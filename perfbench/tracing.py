"""In-memory span tracer installed from the benchmark's own files.

``Tracer.install(api)`` replaces the public functions at each module
boundary with wrappers on the module attributes their callers look up
(``metrics.amplitude_grid``, ``sweep.maximize_over_tau``, ``cli.trajectory``,
...).  Each wrapped call appends a span ``[layer, start, end, parent,
amount]`` to a list; ``uninstall`` restores the originals, so the untimed
output checks run untraced.  ``summary`` turns the spans into per-layer
counts and self times: a span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import time

# Layers whose every call is one workload cell; their call durations give
# the per-cell percentiles.
CELL_LAYERS = ("metrics.blp_nonmarkovianity", "metrics.maximize_over_tau",
               "oracle.integrate")
METRIC_CELLS = CELL_LAYERS[:2]


def _points(args, kwargs, result) -> int:
    tau = kwargs["tau"] if "tau" in kwargs else args[2]
    return int(getattr(tau, "size", 1))


def _text_bytes(args, kwargs, result) -> int:
    return len(result.encode())


def _patch_table(api):
    """(module, attribute, layer, amount) for every wrapped boundary."""
    amp = "propagator.amplitude_grid"
    table = [
        (api.propagator, "amplitude_grid", amp, _points),
        (api.metrics, "amplitude_grid", amp, _points),
        (api.propagator, "solve_roots", "propagator.solve_roots", None),
        (api.propagator, "kappa_grid", "propagator.kappa_grid", None),
        (api.oracle, "integrate", "oracle.integrate", None),
        (api.oracle, "integrate_memoryless", "oracle.integrate", None),
        (api.sweep, "run_sweep", "sweep.run_sweep", None),
        (api.cli, "run_sweep", "sweep.run_sweep", None),
        (api.cli, "figure_bundle", "figures.figure_bundle", None),
        (api.cli, "main", "cli.main", None),
    ]
    for module in (api.sweep, api.cli, api.figures):
        for name in ("blp_nonmarkovianity", "maximize_over_tau"):
            table.append((module, name, "metrics." + name, None))
    for module in (api.cli, api.figures):
        table.append((module, "trajectory", "propagator.trajectory", None))
    for name in ("sweep_to_csv", "sweep_to_json", "trajectory_to_csv",
                 "trajectory_to_json"):
        table.append((api.cli, name, "sweep.writer", _text_bytes))
    return table


class Tracer:
    """Records spans around the wrapped calls of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.pointwise_calls = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._cache0 = (0, 0)
        self._solve_roots = None

    def _wrap(self, layer: str, fn, amount):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [layer, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if amount is not None:
                rec[4] = amount(args, kwargs, result)
            return result

        return wrapper

    def _count(self, fn):
        def wrapper(*args, **kwargs):
            self.pointwise_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, module, attr: str, new) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self, api) -> None:
        """Wrap every boundary in the patch table that the program still
        has; a layer a later version removes reads as zero."""
        self._solve_roots = api.propagator.solve_roots
        self._cache0 = self._cache_info()
        for module, attr, layer, amount in _patch_table(api):
            if hasattr(module, attr):
                self._set(module, attr,
                          self._wrap(layer, getattr(module, attr), amount))
        for attr in ("stored_energy", "ergotropy_qubit"):
            if hasattr(api.metrics, attr):
                self._set(api.metrics, attr,
                          self._count(getattr(api.metrics, attr)))

    def _cache_info(self) -> tuple[int, int]:
        """(hits, misses) of the ``solve_roots`` cache; zeros without one."""
        info = getattr(self._solve_roots, "cache_info", None)
        return (info().hits, info().misses) if info else (0, 0)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per-layer calls, total and self seconds, and amounts; per-cell
        durations in ms; amplitude calls made inside metric cells."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        layers: dict[str, dict] = {}
        cells: dict[str, list[float]] = {name: [] for name in CELL_LAYERS}
        amp_in_cells = 0
        for i, (layer, t0, t1, parent, amount) in enumerate(spans):
            stats = layers.setdefault(layer, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0, "amount": 0})
            stats["calls"] += 1
            stats["total_s"] += t1 - t0
            stats["self_s"] += t1 - t0 - child[i]
            stats["amount"] += amount
            if layer in cells:
                cells[layer].append((t1 - t0) * 1e3)
            if layer == "propagator.amplitude_grid":
                while parent >= 0 and spans[parent][0] not in METRIC_CELLS:
                    parent = spans[parent][3]
                amp_in_cells += parent >= 0
        hits, misses = self._cache_info()
        return {"layers": layers, "cells": cells,
                "amp_in_cells": amp_in_cells,
                "pointwise_calls": self.pointwise_calls,
                "cache_hits": hits - self._cache0[0],
                "cache_misses": misses - self._cache0[1]}
