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

CSV and JSON tables share one writer, ``_table_rows``, which goes through
a table ``BLOCK_ROWS`` rows at a time: in each block, each distinct column
slice is turned into text by one bulk call, and the rows are joins of
those texts.  The CSV and JSON writers return their text as chunks, one
or a few per block, so no whole document is ever held in memory.
"""

from __future__ import annotations

import concurrent.futures
import json
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
        return [(r.measure, "truncated" if r.truncated else "")
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

BLOCK_ROWS = 2048  # rows a table writer turns into text at once


def _csv_texts(values: list[float]) -> list[str]:
    return list(map(_fmt, values))


def _json_texts(values: list[float]) -> list[str]:
    # one call of json's C encoder (``indent`` would encode value by value
    # in Python): floats as repr, NaN and Infinity, none holding ", "
    return json.dumps(values)[1:-1].split(", ")


def _table_rows(columns, encode, sep: str):
    """Blocks of at most ``BLOCK_ROWS`` rows of the table whose 1-d float
    ``columns`` are given, each block the list of its rows, a row its
    value texts joined by ``sep``.  ``encode`` turns one column's values
    in a block into their texts in one call; a column slice bit-identical
    to an earlier one of the block (``tobytes``, so -0.0 never shares
    0.0's text) reuses its texts, as ``stored_energy`` does
    ``population``'s at omega0 = 1."""
    for start in range(0, len(columns[0]) if len(columns) else 0,
                       BLOCK_ROWS):
        texts, seen = [], {}
        for column in columns:
            part = np.asarray(column[start:start + BLOCK_ROWS],
                              dtype=np.float64)
            key = part.tobytes()
            if key not in seen:
                seen[key] = encode(part.tolist())
            texts.append(seen[key])
        yield list(map(sep.join, zip(*texts)))


def _csv_chunks(comments, header, columns):
    """Chunks of the CSV text of ``table_to_csv``, the table given by its
    columns: the comment and header lines, then one chunk per block."""
    yield "".join(f"# {comment}\n" for comment in comments) + ",".join(
        header) + "\n"
    for block in _table_rows(columns, _csv_texts, ","):
        yield "\n".join(block) + "\n"


def table_to_csv(comments, header, table):
    """Chunks of CSV text: one '#'-prefixed line per comment, a header row
    of ``header`` and one line per row of the 2-d numeric ``table``, each
    value as ``_fmt`` writes it.  A table whose width is not the header's
    is a ValueError, raised by this call, before any chunk is made."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"a table of shape {table.shape} does not fit a "
                         f"header of {len(header)} columns")
    return _csv_chunks(comments, header, table.T)


def _table_json(columns):
    """Chunks of a float table, given by its columns, as
    ``json.dumps(..., indent=2)`` lays it out one level down: each row and
    each value on its own line, the values spelled by json's encoder
    (``_json_texts``).  A table without values is ``[]``."""
    if not len(columns) or not len(columns[0]):
        yield "[]"
        return
    between = "\n    ],\n    [\n      "
    opening = "[\n    [\n      "
    for block in _table_rows(columns, _json_texts, ",\n      "):
        yield opening + between.join(block)
        opening = between
    yield "\n    ]\n  ]"


def _to_json(payload: dict, table_key: str):
    """Chunks of ``json.dumps(payload, indent=2)``, byte for byte, with
    ``payload[table_key]`` the columns of a float table, written as its
    rows by ``_table_json``."""
    opening = "{\n  "
    for key, value in payload.items():
        yield opening + json.dumps(key) + ": "
        opening = ",\n  "
        if key == table_key:
            yield from _table_json(value)
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
    yield "\n}"


def sweep_table(result: SweepResult) -> tuple[list[str], np.ndarray]:
    """Header and rows of a sweep: gamma/Omega, then each lambda/Omega."""
    columns = ["gamma_over_omega"] + [
        "lambda_" + _fmt(l) for l in result.spec.lambda_over_omega]
    return columns, np.column_stack([result.spec.gamma_over_omega,
                                     result.values])


def sweep_csv(result: SweepResult):
    """Chunks of CSV with '#'-prefixed metadata, a header row of
    lambda/Omega values and one row per gamma/Omega value."""
    comments = [f"{key}={val}" for key, val in result.metadata.items()]
    comments += [f"flag: {i},{j},{flag}"
                 for i, row in enumerate(result.flags)
                 for j, flag in enumerate(row) if flag]
    return table_to_csv(comments, *sweep_table(result))


def sweep_json(result: SweepResult):
    """Chunks of the sweep's JSON document."""
    payload = {
        "gamma_over_omega": list(result.spec.gamma_over_omega),
        "lambda_over_omega": list(result.spec.lambda_over_omega),
        "quantity": result.spec.quantity,
        "tmax": result.spec.tmax,
        "grid": result.spec.grid,
        "values": result.values.T,
        "flags": result.flags,
        "metadata": result.metadata,
    }
    return _to_json(payload, "values")


TRAJECTORY_COLUMNS = ("Omega_tau", "re_kappa", "im_kappa", "population",
                      "stored_energy", "ergotropy")


def trajectory_columns(traj: ChargingTrajectory) -> list[np.ndarray]:
    """The arrays of the ``TRAJECTORY_COLUMNS``, in order."""
    return [traj.times, traj.kappa.real, traj.kappa.imag, traj.population,
            traj.stored_energy, traj.ergotropy]


def trajectory_csv(traj: ChargingTrajectory, metadata: dict):
    """Chunks of the trajectory's CSV table, ``metadata`` as comments."""
    return _csv_chunks([f"{key}={val}" for key, val in metadata.items()],
                       TRAJECTORY_COLUMNS, trajectory_columns(traj))


def trajectory_json(traj: ChargingTrajectory, metadata: dict):
    """Chunks of the trajectory's JSON document."""
    payload = {"metadata": metadata,
               "columns": list(TRAJECTORY_COLUMNS),
               "rows": trajectory_columns(traj)}
    return _to_json(payload, "rows")
