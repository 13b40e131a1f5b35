"""Preset datasets behind each figure of the study.

Each preset returns a :class:`FigureBundle`: named CSV-ready tables plus a
plot-tool-agnostic manifest (axes, labels, legends, annotation lines).  No
rendering happens here; any external plotter can consume the bundle.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .metrics import maximize_over_tau_many
from .model import make_params
from .propagator import trajectory
from .sweep import SweepSpec, _fmt, run_sweep, sweep_table

# gamma/Omega values used by the trajectory panels (the study shows
# "different values of gamma/Omega" without listing them; recorded in the
# manifest of every bundle that uses them)
TRAJ_GAMMAS = (0.1, 0.5, 1.0, 2.0)
# [0.1, 10] log-spaced: np.logspace(-1, 1, 21) as numpy's AVX-512 power
# kernel rounds it, pinned because its other kernels round entry 8 an ulp
# higher and the figures would then depend on the CPU
GRID_AXIS = tuple(float.fromhex(x) for x in (
    "0x1.999999999999ap-4", "0x1.01d3f2d9684d0p-3", "0x1.44960c576b375p-3",
    "0x1.98a13577c93c0p-3", "0x1.0137987dd704cp-2", "0x1.43d136248490fp-2",
    "0x1.97a967f7524b4p-2", "0x1.009b9cf334253p-1", "0x1.430cd74f6d478p-1",
    "0x1.96b230bcdc434p-1", "0x1.0000000000000p+0", "0x1.4248ef8fc2605p+0",
    "0x1.95bb8f6d46055p+0", "0x1.fec982d5bb8b0p+0", "0x1.41857e9d4cc61p+1",
    "0x1.94c583ada5b53p+1", "0x1.fd93c1f526de1p+1", "0x1.40c28430012e9p+2",
    "0x1.93d00d2348997p+2", "0x1.fc5ebcec13544p+2", "0x1.4000000000000p+3"))
MEMORYLESS_REFERENCE = {"stored_energy_max": 0.925, "ergotropy_max": 0.851}


@dataclass
class FigureBundle:
    name: str
    manifest: dict
    tables: dict[str, tuple[list[str], np.ndarray]] = field(default_factory=dict)
    """filename -> (column names, 2-d array)"""


def _base_manifest(name: str, **extra) -> dict:
    man = {"figure": name, "tool_version": __version__, "units": "omega0",
           "omega0": 1.0, "Omega": 1.0}
    man.update(copy.deepcopy(extra))  # shares no list with PANELS
    return man


def _grid_panel(name: str, quantity: str, grid: int | None,
                **extra) -> FigureBundle:
    """Map of one sweep quantity over the (gamma, lambda) plane."""
    cols, table = sweep_table(run_sweep(SweepSpec(GRID_AXIS, GRID_AXIS,
                                                  quantity, grid=grid)))
    man = _base_manifest(name, x_axis="gamma_over_omega",
                         y_axis="lambda_over_omega", z_axis=quantity,
                         axis_range=[0.1, 10.0], axis_scale="log", **extra)
    return FigureBundle(name, man, {f"{quantity}_grid.csv": (cols, table)})


def _trajectory_panel(name: str, column: str, curves, stem: str,
                      **extra) -> FigureBundle:
    """One trajectory column against Omega*tau, one table column per
    (label, gamma/Omega, lambda/Omega) curve."""
    cols, arrays = ["Omega_tau"], []
    for label, gamma, lam in curves:
        traj = trajectory(make_params(1.0, 1.0, gamma, lam), tmax=25.0,
                          steps=1001)
        cols.append(label)
        arrays.append(getattr(traj, column))
    man = _base_manifest(name, x_axis="Omega_tau", y_axis=column, **extra)
    return FigureBundle(name, man, {f"{column}_{stem}.csv": (
        cols, np.column_stack([traj.times] + arrays))})


def _maxima_panel(name: str, x_axis: str, tables: dict,
                  **extra) -> FigureBundle:
    """Charging optima along GRID_AXIS; ``tables`` maps each file name to
    the swept parameter and the fixed ones."""
    bundle = FigureBundle(name, _base_manifest(name, x_axis=x_axis,
                                               axis_scale="log", **extra))
    for fname, (axis_name, fixed) in tables.items():
        reports = maximize_over_tau_many(
            [make_params(1.0, 1.0, **{**fixed, axis_name: v})
             for v in GRID_AXIS])
        bundle.tables[fname] = (
            [axis_name, "stored_energy_max", "ergotropy_max"],
            np.column_stack([np.array(GRID_AXIS),
                             [rep.delta_e_max for rep in reports],
                             [rep.w_max for rep in reports]]))
    return bundle


def _gamma_curves(lam: float) -> tuple:
    return tuple((f"gamma_{_fmt(g)}", g, lam) for g in TRAJ_GAMMAS)


_GAMMA_LEGEND = [f"gamma/Omega={g}" for g in TRAJ_GAMMAS]
_MEMORY_CURVES = (("with_memory", 0.1, 0.1), ("memoryless", 0.1, math.inf))
_MEMORY_LEGEND = ["lambda/Omega=0.1", "lambda -> inf"]

# figure name -> (builder, its arguments after the name, manifest entries)
PANELS = {
    "fig2": (_grid_panel, ("nonmarkovianity", 20001),
             {"note": "axis ranges are a default choice, recorded here"}),
    "fig3a": (_trajectory_panel, ("stored_energy", _gamma_curves(0.1),
                                  "vs_time"),
              {"lambda_over_omega": 0.1, "legend": _GAMMA_LEGEND}),
    "fig3b": (_trajectory_panel, ("ergotropy", _gamma_curves(0.1), "vs_time"),
              {"lambda_over_omega": 0.1, "legend": _GAMMA_LEGEND}),
    "fig4a": (_grid_panel, ("stored_energy_max", None), {}),
    "fig4b": (_grid_panel, ("ergotropy_max", None), {}),
    "fig5a": (_trajectory_panel, ("stored_energy", _gamma_curves(math.inf),
                                  "vs_time"),
              {"lambda_over_omega": "inf", "legend": _GAMMA_LEGEND}),
    "fig5b": (_trajectory_panel, ("ergotropy", _gamma_curves(math.inf),
                                  "vs_time"),
              {"lambda_over_omega": "inf", "legend": _GAMMA_LEGEND}),
    "fig6a": (_trajectory_panel, ("stored_energy", _MEMORY_CURVES,
                                  "comparison"),
              {"gamma_over_omega": 0.1, "legend": _MEMORY_LEGEND}),
    "fig6b": (_trajectory_panel, ("ergotropy", _MEMORY_CURVES, "comparison"),
              {"gamma_over_omega": 0.1, "legend": _MEMORY_LEGEND}),
    "fig7a": (_maxima_panel,
              ("lambda_over_omega",
               {"maxima_vs_lambda.csv": ("lam", {"gamma": 0.1})}),
              {"gamma_over_omega": 0.1,
               "annotation_lines": [MEMORYLESS_REFERENCE["stored_energy_max"],
                                    MEMORYLESS_REFERENCE["ergotropy_max"]],
               "legend": ["stored_energy_max", "ergotropy_max"]}),
    "fig7b": (_maxima_panel,
              ("gamma_over_omega",
               {"maxima_with_memory.csv": ("gamma", {"lam": 0.1}),
                "maxima_memoryless.csv": ("gamma", {"lam": math.inf})}),
              {"lambda_over_omega": 0.1,
               "legend": ["with_memory stored/ergotropy",
                          "memoryless stored/ergotropy"]}),
}
FIGURE_NAMES = tuple(PANELS)


def figure_bundle(name: str) -> FigureBundle:
    """Build the data bundle for one named figure panel."""
    if name not in PANELS:
        raise KeyError(f"unknown figure {name!r}; valid names: "
                       + ", ".join(FIGURE_NAMES))
    build, args, extra = PANELS[name]
    return build(name, *args, **extra)
