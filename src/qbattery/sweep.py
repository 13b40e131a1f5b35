"""Parameter-grid evaluation and CSV/JSON serialization.

Grids are keyed by the dimensionless ratios gamma/Omega and lambda/Omega
(the latter may be ``inf`` for the flat-spectrum limit); cell values are in
units of omega0 for the energy quantities.  Cells are independent and may be
evaluated by a process pool; the result is identical for any worker count.
Every quantity is batched the same way: the cells go to
``blp_nonmarkovianity_many`` or ``maximize_over_tau_many`` in one batch, or
in one contiguous chunk per worker, whose bisections run in lockstep (BLP
cells ``BLP_REFINE_CELLS`` at a time, so no chunk holds all its reports).
"""

from __future__ import annotations

import concurrent.futures
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .metrics import (BLP_REFINE_CELLS, blp_nonmarkovianity_many,
                      maximize_over_tau_many)
from .model import make_params
from .propagator import ChargingTrajectory

QUANTITIES = ("stored_energy_max", "ergotropy_max", "nonmarkovianity")


@dataclass(frozen=True)
class SweepSpec:
    """Axes and quantity of one parameter sweep; ``tmax`` is the horizon
    in Omega*tau (None selects the quantity's default)."""

    gamma_over_omega: tuple[float, ...]
    lambda_over_omega: tuple[float, ...]
    quantity: str
    tmax: float | None = None
    grid: int | None = None

    def __post_init__(self):
        if not self.gamma_over_omega or not self.lambda_over_omega:
            raise ValueError("sweep axes must be non-empty")
        if any(g <= 0 for g in self.gamma_over_omega):
            raise ValueError("gamma/Omega values must be positive")
        if any(not (l > 0) for l in self.lambda_over_omega):
            raise ValueError("lambda/Omega values must be positive or inf")
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}; "
                             f"choose from {QUANTITIES}")


@dataclass
class SweepResult:
    """Rectangular grid of scalars: rows follow gamma/Omega, columns
    lambda/Omega.  ``flags`` holds per-cell markers ('' when clean)."""

    spec: SweepSpec
    values: np.ndarray
    flags: list[list[str]]
    metadata: dict = field(default_factory=dict)


def _eval_cells(args) -> list[tuple[float, str]]:
    """(value, flag) of each cell of a contiguous run of cells, searched
    as one batch; BLP cells go ``BLP_REFINE_CELLS`` at a time, the groups
    the search refines together, and each report is reduced at once."""
    cells, quantity, tmax, grid = args
    params = [make_params(1.0, 1.0, g, l) for g, l in cells]
    if quantity == "nonmarkovianity":
        return [(math.nan, "divergent") if r.divergent else
                (r.measure, "truncated" if r.truncated else "")
                for k in range(0, len(params), BLP_REFINE_CELLS)
                for r in blp_nonmarkovianity_many(
                    params[k:k + BLP_REFINE_CELLS], tmax, grid)]
    return [(r.delta_e_max if quantity == "stored_energy_max" else r.w_max,
             "boundary" if r.at_boundary else "")
            for r in maximize_over_tau_many(params, tmax=tmax)]


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the requested quantity on the full axes cross product,
    in at most ``workers`` processes (one per task at most)."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cells = [(g, l) for g in spec.gamma_over_omega
             for l in spec.lambda_over_omega]
    # one contiguous chunk of cells per worker
    bounds = [len(cells) * k // workers for k in range(workers + 1)]
    tasks = [(cells[lo:hi], spec.quantity, spec.tmax, spec.grid)
             for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    processes = min(workers, len(tasks))
    if processes > 1:
        with concurrent.futures.ProcessPoolExecutor(processes) as pool:
            chunks = list(pool.map(_eval_cells, tasks))
    else:
        chunks = [_eval_cells(task) for task in tasks]
    results = [cell for chunk in chunks for cell in chunk]

    ng = len(spec.gamma_over_omega)
    nl = len(spec.lambda_over_omega)
    values = np.array([v for v, _ in results]).reshape(ng, nl)
    flags = [[results[i * nl + j][1] for j in range(nl)] for i in range(ng)]
    metadata = {
        "quantity": spec.quantity,
        "units": "omega0",
        "tool_version": __version__,
        "tmax": spec.tmax,
        "grid": spec.grid,
    }
    return SweepResult(spec, values, flags, metadata)


def _fmt(x: float) -> str:
    return "%.17g" % x


def table_to_csv(comments, columns, table) -> str:
    """CSV text: one '#'-prefixed line per comment, a header row of
    ``columns`` and one line per row of the 2-d numeric ``table``.  Each
    row is written by one ``"%.17g"`` format string (17 significant digits
    per value, the same text as ``_fmt``)."""
    row = ",".join(["%.17g"] * len(columns))
    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(columns))
    lines.extend([row % tuple(values)
                  for values in np.asarray(table, dtype=np.float64).tolist()])
    return "\n".join(lines) + "\n"


def _table_json(table: np.ndarray) -> list[str]:
    """Text parts of a 2-d float table as ``json.dumps(..., indent=2)``
    lays it out one level down: each row and each value on its own line.

    The values are encoded by json's C encoder in one call (``indent``
    would make json encode them one by one in Python); its compact text is
    then re-laid.  Floats print as ``repr``, ``NaN`` and ``Infinity`` in
    both encoders, and no float's text holds ``", "``.
    """
    if not table.size:
        return [json.dumps(table.tolist(), indent=2).replace("\n", "\n  ")]
    return ["[\n    [\n      ",
            json.dumps(table.tolist())[2:-2]
            .replace("], [", "\n    ],\n    [\n      ")
            .replace(", ", ",\n      "),
            "\n    ]\n  ]"]


def _to_json(payload: dict, table_key: str) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte, with the 2-d float
    table ``payload[table_key]`` written by ``_table_json``."""
    parts = []
    for key, value in payload.items():
        parts.append(("{\n  " if not parts else ",\n  ")
                     + json.dumps(key) + ": ")
        if key == table_key:
            parts += _table_json(np.asarray(value, dtype=np.float64))
        else:
            parts.append(json.dumps(value, indent=2).replace("\n", "\n  "))
    parts.append("\n}")
    return "".join(parts)


def sweep_table(result: SweepResult) -> tuple[list[str], np.ndarray]:
    """Header and rows of a sweep: gamma/Omega, then each lambda/Omega."""
    columns = ["gamma_over_omega"] + [
        "lambda_" + _fmt(l) for l in result.spec.lambda_over_omega]
    return columns, np.column_stack([result.spec.gamma_over_omega,
                                     result.values])


def sweep_to_csv(result: SweepResult) -> str:
    """CSV with '#'-prefixed metadata, a header row of lambda/Omega values
    and one row per gamma/Omega value."""
    comments = [f"{key}={val}" for key, val in result.metadata.items()]
    comments += [f"flag: {i},{j},{flag}"
                 for i, row in enumerate(result.flags)
                 for j, flag in enumerate(row) if flag]
    return table_to_csv(comments, *sweep_table(result))


def sweep_to_json(result: SweepResult) -> str:
    payload = {
        "gamma_over_omega": list(result.spec.gamma_over_omega),
        "lambda_over_omega": list(result.spec.lambda_over_omega),
        "quantity": result.spec.quantity,
        "tmax": result.spec.tmax,
        "grid": result.spec.grid,
        "values": result.values,
        "flags": result.flags,
        "metadata": result.metadata,
    }
    return _to_json(payload, "values")


TRAJECTORY_COLUMNS = ("Omega_tau", "re_kappa", "im_kappa", "population",
                      "stored_energy", "ergotropy")


def trajectory_table(traj: ChargingTrajectory) -> np.ndarray:
    return np.column_stack([traj.times, traj.kappa.real, traj.kappa.imag,
                            traj.population, traj.stored_energy,
                            traj.ergotropy])


def trajectory_to_csv(traj: ChargingTrajectory, metadata: dict) -> str:
    return table_to_csv([f"{key}={val}" for key, val in metadata.items()],
                        TRAJECTORY_COLUMNS, trajectory_table(traj))


def trajectory_to_json(traj: ChargingTrajectory, metadata: dict) -> str:
    payload = {"metadata": metadata,
               "columns": list(TRAJECTORY_COLUMNS),
               "rows": trajectory_table(traj)}
    return _to_json(payload, "rows")
