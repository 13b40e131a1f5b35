"""Parameter-grid evaluation and CSV/JSON serialization.

Grids are keyed by the dimensionless ratios gamma/Omega and lambda/Omega
(the latter may be ``inf`` for the flat-spectrum limit); cell values are in
units of omega0 for the energy quantities.  Cells are independent and may be
evaluated by a process pool; the result is identical for any worker count.
Every quantity is batched the same way: the cells go to
``blp_nonmarkovianity_many`` or ``maximize_over_tau_many`` in one batch, or
in one contiguous chunk per worker, whose extrema are refined together
(BLP cells ``BLP_REFINE_CELLS`` at a time, so no chunk holds all its
reports).

CSV and JSON tables share one writer, ``_table_rows``: each distinct
column is turned into text by one bulk call, and the rows are joins of
those texts.
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
    in Omega*tau (None selects the quantity's default) and ``grid`` the
    BLP scan's points, which only ``nonmarkovianity`` takes."""

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
        if self.grid is not None and self.quantity != "nonmarkovianity":
            raise ValueError(f"{self.quantity} takes no grid")


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


_fmt = "%.17g".__mod__  # a float's CSV text, 17 significant digits


def _csv_texts(values: list[float]) -> list[str]:
    return list(map(_fmt, values))


def _json_texts(values: list[float]) -> list[str]:
    # one call of json's C encoder (``indent`` would encode value by value
    # in Python): floats as repr, NaN and Infinity, none holding ", "
    return json.dumps(values)[1:-1].split(", ")


def _table_rows(table: np.ndarray, encode, sep: str):
    """Each row of the 2-d float ``table`` as its value texts joined by
    ``sep``.  ``encode`` turns one column's values into their texts in one
    call; a column bit-identical to an earlier one (``tobytes``, so -0.0
    never shares 0.0's text) reuses that column's texts, as
    ``stored_energy`` does ``population``'s at omega0 = 1."""
    texts, seen = [], {}
    for column in table.T:
        key = column.tobytes()
        if key not in seen:
            seen[key] = encode(column.tolist())
        texts.append(seen[key])
    return map(sep.join, zip(*texts))


def table_to_csv(comments, columns, table) -> str:
    """CSV text: one '#'-prefixed line per comment, a header row of
    ``columns`` and one line per row of the 2-d numeric ``table``, each
    value as ``_fmt`` writes it.  A table whose width is not the header's
    is a ValueError."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != len(columns):
        raise ValueError(f"a table of shape {table.shape} does not fit a "
                         f"header of {len(columns)} columns")
    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(columns))
    lines.extend(_table_rows(table, _csv_texts, ","))
    return "\n".join(lines) + "\n"


def _table_json(table: np.ndarray) -> list[str]:
    """Text parts of a 2-d float table as ``json.dumps(..., indent=2)``
    lays it out one level down: each row and each value on its own line,
    the values spelled by json's encoder (``_json_texts``).  A table
    without values is left to ``json.dumps``."""
    if not table.size:
        return [json.dumps(table.tolist(), indent=2).replace("\n", "\n  ")]
    return ["[\n    [\n      ",
            "\n    ],\n    [\n      ".join(
                _table_rows(table, _json_texts, ",\n      ")),
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
