"""Preset datasets behind each figure of the study.

Each preset returns a :class:`FigureBundle`: named CSV-ready tables plus a
plot-tool-agnostic manifest (axes, labels, legends, annotation lines).  No
rendering happens here; any external plotter can consume the bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .metrics import maximize_over_tau_many
from .model import make_params
from .propagator import trajectory
from .sweep import SweepSpec, _fmt, run_sweep, sweep_table

FIGURE_NAMES = ("fig2", "fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b",
                "fig6a", "fig6b", "fig7a", "fig7b")

# gamma/Omega values used by the trajectory panels (the study shows
# "different values of gamma/Omega" without listing them; recorded in the
# manifest of every bundle that uses them)
TRAJ_GAMMAS = (0.1, 0.5, 1.0, 2.0)
GRID_AXIS = tuple(np.logspace(-1, 1, 21))  # [0.1, 10] log-spaced
MEMORYLESS_REFERENCE = {"stored_energy_max": 0.925, "ergotropy_max": 0.851}


@dataclass
class FigureBundle:
    name: str
    manifest: dict
    tables: dict[str, tuple[list[str], np.ndarray]] = field(default_factory=dict)
    """filename -> (column names, 2-d array)"""


def _traj_columns(lam_ratio: float, gammas, tmax: float = 25.0,
                  column: str = "stored_energy") -> tuple[list[str], np.ndarray]:
    cols = ["Omega_tau"]
    arrays = None
    for g in gammas:
        params = make_params(1.0, 1.0, g, lam_ratio)
        traj = trajectory(params, tmax=tmax, steps=1001)
        if arrays is None:
            arrays = [traj.times]
        arrays.append(getattr(traj, column))
        cols.append(f"gamma_{_fmt(g)}")
    return cols, np.column_stack(arrays)


def _grid_table(quantity: str, tmax: float | None = None,
                grid: int | None = None) -> tuple[list[str], np.ndarray]:
    return sweep_table(run_sweep(SweepSpec(GRID_AXIS, GRID_AXIS, quantity,
                                           tmax=tmax, grid=grid)))


def _maxima_vs(axis_name: str, axis, fixed: dict) -> tuple[list[str], np.ndarray]:
    params = []
    for v in axis:
        kw = dict(fixed)
        kw[axis_name] = v
        params.append(make_params(1.0, 1.0, kw["gamma"], kw["lam"]))
    reports = maximize_over_tau_many(params)
    return ([axis_name, "stored_energy_max", "ergotropy_max"],
            np.column_stack([np.array(axis),
                             [rep.delta_e_max for rep in reports],
                             [rep.w_max for rep in reports]]))


def _base_manifest(name: str, **extra) -> dict:
    man = {"figure": name, "tool_version": __version__, "units": "omega0",
           "omega0": 1.0, "Omega": 1.0}
    man.update(extra)
    return man


def _fig2() -> FigureBundle:
    cols, table = _grid_table("nonmarkovianity", grid=20001)
    man = _base_manifest(
        "fig2", x_axis="gamma_over_omega", y_axis="lambda_over_omega",
        z_axis="nonmarkovianity", axis_range=[0.1, 10.0], axis_scale="log",
        note="axis ranges are a default choice, recorded here")
    return FigureBundle("fig2", man, {"nonmarkovianity_grid.csv": (cols, table)})


def _fig34(name: str) -> FigureBundle:
    column = "stored_energy" if name.endswith("a") else "ergotropy"
    cols, table = _traj_columns(0.1, TRAJ_GAMMAS, column=column)
    man = _base_manifest(name, x_axis="Omega_tau", y_axis=column,
                         lambda_over_omega=0.1,
                         legend=[f"gamma/Omega={g}" for g in TRAJ_GAMMAS])
    return FigureBundle(name, man, {f"{column}_vs_time.csv": (cols, table)})


def _fig4(name: str) -> FigureBundle:
    quantity = "stored_energy_max" if name.endswith("a") else "ergotropy_max"
    cols, table = _grid_table(quantity)
    man = _base_manifest(name, x_axis="gamma_over_omega",
                         y_axis="lambda_over_omega", z_axis=quantity,
                         axis_range=[0.1, 10.0], axis_scale="log")
    return FigureBundle(name, man, {f"{quantity}_grid.csv": (cols, table)})


def _fig5(name: str) -> FigureBundle:
    column = "stored_energy" if name.endswith("a") else "ergotropy"
    cols, table = _traj_columns(math.inf, TRAJ_GAMMAS, column=column)
    man = _base_manifest(name, x_axis="Omega_tau", y_axis=column,
                         lambda_over_omega="inf",
                         legend=[f"gamma/Omega={g}" for g in TRAJ_GAMMAS])
    return FigureBundle(name, man, {f"{column}_vs_time.csv": (cols, table)})


def _fig6(name: str) -> FigureBundle:
    column = "stored_energy" if name.endswith("a") else "ergotropy"
    arrays = None
    cols = ["Omega_tau"]
    for label, lam in (("with_memory", 0.1), ("memoryless", math.inf)):
        params = make_params(1.0, 1.0, 0.1, lam)
        traj = trajectory(params, tmax=25.0, steps=1001)
        if arrays is None:
            arrays = [traj.times]
        arrays.append(getattr(traj, column))
        cols.append(label)
    man = _base_manifest(name, x_axis="Omega_tau", y_axis=column,
                         gamma_over_omega=0.1,
                         legend=["lambda/Omega=0.1", "lambda -> inf"])
    return FigureBundle(name, man,
                        {f"{column}_comparison.csv": (cols, np.column_stack(arrays))})


def _fig7a() -> FigureBundle:
    cols, table = _maxima_vs("lam", GRID_AXIS, {"gamma": 0.1})
    man = _base_manifest(
        "fig7a", x_axis="lambda_over_omega", axis_scale="log",
        gamma_over_omega=0.1,
        annotation_lines=[MEMORYLESS_REFERENCE["stored_energy_max"],
                          MEMORYLESS_REFERENCE["ergotropy_max"]],
        legend=["stored_energy_max", "ergotropy_max"])
    return FigureBundle("fig7a", man, {"maxima_vs_lambda.csv": (cols, table)})


def _fig7b() -> FigureBundle:
    gammas = GRID_AXIS
    cols_m, table_m = _maxima_vs("gamma", gammas, {"lam": 0.1})
    cols_f, table_f = _maxima_vs("gamma", gammas, {"lam": math.inf})
    man = _base_manifest(
        "fig7b", x_axis="gamma_over_omega", axis_scale="log",
        lambda_over_omega=0.1,
        legend=["with_memory stored/ergotropy", "memoryless stored/ergotropy"])
    return FigureBundle("fig7b", man,
                        {"maxima_with_memory.csv": (cols_m, table_m),
                         "maxima_memoryless.csv": (cols_f, table_f)})


def figure_bundle(name: str) -> FigureBundle:
    """Build the data bundle for one named figure panel."""
    if name == "fig2":
        return _fig2()
    if name in ("fig3a", "fig3b"):
        return _fig34(name)
    if name in ("fig4a", "fig4b"):
        return _fig4(name)
    if name in ("fig5a", "fig5b"):
        return _fig5(name)
    if name in ("fig6a", "fig6b"):
        return _fig6(name)
    if name == "fig7a":
        return _fig7a()
    if name == "fig7b":
        return _fig7b()
    raise KeyError(f"unknown figure {name!r}; valid names: "
                   + ", ".join(FIGURE_NAMES))
