"""qbattery benchmark: seeded workloads through the in-process CLI.

    python3 perfbench/run.py --workload blp_sweep --seed 1 --seconds 20 --trace 0

Repeats the workload in fresh single-threaded child processes (BLAS and
OpenMP pinned to one thread) until ``--seconds`` have passed, at least
``MIN_REPS`` times, and reports medians over the repetitions.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repetitions and prints the per-layer
metrics from the traced ones, plus the tracing overhead.  Human-readable
lines, including ``fail_frac`` and the provenance record, come first; the
last line of standard output is the JSON result.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("blp_sweep", "maxima_sweep", "oracle_verify",
             "trajectory_export")
MIN_REPS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def _child(args, rep: int, traced: bool, deadline: float) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{os.getpid()}-{rep}"
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "child.py"), args.workload,
           str(args.seed), args.size, str(int(traced)), str(int(args.corrupt)),
           str(workdir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("repetition ran past the deadline") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"repetition {rep} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest listed percentile with at least
    ten cells beyond it; (0, 0) with fewer than eleven cells."""
    ordered = sorted(durations)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, ordered[math.ceil(pct / 100.0 * n) - 1]
    return 0.0, 0.0


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict:
    """Times are scaled to the reference speed (see ``calibrate.py``)."""
    return {
        "setup_s": (_median([r["setup_s"] * r["setup_scale"] for r in reps]),
                    "s"),
        "wall_s": (_median([r["wall_s"] * r["scale"] for r in reps]), "s"),
        "cells_per_s": (_median([r["attempted"] / (r["wall_s"] * r["scale"])
                                 for r in reps]), "1/s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in reps]), "MB"),
        "pass_frac": (1.0 - failed / attempted, "frac"),
    }


def raw_times(reps: list[dict]) -> dict:
    """Unscaled medians, printed beside the metrics."""
    return {
        "setup_raw_s": (_median([r["setup_s"] for r in reps]), "s"),
        "wall_raw_s": (_median([r["wall_s"] for r in reps]), "s"),
        "reference_ms": (_median([1e3 * r["ref_s"] for r in reps]), "ms"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of the traced repetitions; times are scaled to the
    reference speed, counts are per repetition (median)."""
    summaries = [r["trace"] for r in traced]
    scales = [r["scale"] for r in traced]

    def layer(name: str, key: str) -> float:
        scaled = key.endswith("_s")
        return _median([s["layers"].get(name, {}).get(key, 0)
                        * (k if scaled else 1)
                        for s, k in zip(summaries, scales)])

    amp = "propagator.amplitude_grid"
    amp_self = layer(amp, "self_s")
    amp_points = layer(amp, "amount")
    writer_total = layer("sweep.writer", "total_s")
    writer_bytes = layer("sweep.writer", "amount")
    hits = sum(s["cache_hits"] for s in summaries)
    lookups = hits + sum(s["cache_misses"] for s in summaries)
    metric_cells = [sum(s["layers"].get(name, {}).get("calls", 0)
                        for name in tracing.METRIC_CELLS)
                    for s in summaries]
    out = {
        amp + ".calls": (layer(amp, "calls"), "count"),
        amp + ".points": (amp_points, "count"),
        amp + ".self_s": (amp_self, "s"),
        amp + ".ns_per_point": (amp_self / amp_points * 1e9
                                if amp_points else 0.0, "ns"),
        "propagator.solve_roots.calls": (layer("propagator.solve_roots",
                                               "calls"), "count"),
        "propagator.solve_roots.self_s": (layer("propagator.solve_roots",
                                                "self_s"), "s"),
        "propagator.solve_roots.hit_ratio": (hits / lookups if lookups
                                             else 0.0, "ratio"),
        "propagator.kappa_grid.self_s": (layer("propagator.kappa_grid",
                                               "self_s"), "s"),
        "propagator.trajectory.self_s": (layer("propagator.trajectory",
                                               "self_s"), "s"),
    }
    for name in ("metrics.blp_nonmarkovianity", "metrics.maximize_over_tau",
                 "oracle.integrate"):
        durations = [d * k for s, k in zip(summaries, scales)
                     for d in s["cells"][name]]
        pct, tail = _tail(durations)
        out[name + ".self_s"] = (layer(name, "self_s"), "s")
        out[name + ".cell_p50_ms"] = (_median(durations), "ms")
        out[name + ".cell_tail_ms"] = (tail, "ms")
        out[name + ".cell_tail_pct"] = (pct, "%")
        out[name + ".cells"] = (len(durations), "count")
    out.update({
        "metrics.amplitude_calls_per_cell": (
            _median([s["amp_in_cells"] / n if n else 0.0
                     for s, n in zip(summaries, metric_cells)]), "count"),
        "metrics.pointwise_calls": (_median([s["pointwise_calls"]
                                             for s in summaries]), "count"),
        "oracle.max_dev": (max(r["max_dev"] for r in traced), "1"),
        "sweep.run_sweep.self_s": (layer("sweep.run_sweep", "self_s"), "s"),
        "sweep.writer.self_s": (layer("sweep.writer", "self_s"), "s"),
        "sweep.writer.bytes": (writer_bytes, "B"),
        "sweep.writer.MB_per_s": (writer_bytes / writer_total / 1e6
                                  if writer_total else 0.0, "MB/s"),
        "figures.figure_bundle.self_s": (layer("figures.figure_bundle",
                                               "self_s"), "s"),
        "cli.main.self_s": (layer("cli.main", "self_s"), "s"),
        "cli.main.bytes_written": (_median([r["bytes_written"]
                                            for r in traced]), "B"),
        "trace.overhead_frac": (
            _median([r["wall_s"] * r["scale"] for r in traced])
            / _median([r["wall_s"] * r["scale"] for r in plain]) - 1.0,
            "frac"),
    })
    return out


def measure(args) -> list[dict]:
    if not (ROOT / "src" / "qbattery" / "__init__.py").is_file():
        raise BenchError(f"no qbattery sources under {ROOT / 'src'}")
    start = time.monotonic()
    deadline = start + DEADLINE_S
    min_reps = 2 * MIN_REPS if args.trace else MIN_REPS
    reps: list[dict] = []
    while len(reps) < min_reps or time.monotonic() - start < args.seconds:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = _child(args, len(reps), traced, deadline)
        rep["traced"] = traced
        reps.append(rep)
    try:
        (ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass   # another run still uses it
    return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-check")
    parser.add_argument("--corrupt", action="store_true",
                        help="alter one written value before the checks "
                             "(self-check of the output checks)")
    args = parser.parse_args(argv)
    try:
        reps = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failures = [(op, kind, detail) for r in reps
                for op, (kind, detail) in r["failures"].items()]
    unexpected = [op for r in reps for op in r["unexpected"]]
    metrics = (per_layer(plain, traced) if args.trace
               else end_to_end(plain, attempted, len(failures)))

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"repetitions {len(plain)} untraced, {len(traced)} traced")
    for name, (value, unit) in {**metrics, **raw_times(plain)}.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print(f"  {'fail_frac':44s} {len(failures) / attempted:.6g} frac "
          f"({len(failures)} of {attempted} operations, "
          f"{len(unexpected)} unexpected)")
    for op, kind, detail in sorted(set(failures))[:10]:
        print(f"  failed {op}: {kind}: {detail}")
    provenance = dict(reps[0]["provenance"], seed=args.seed,
                      workload=args.workload, size=args.size)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
