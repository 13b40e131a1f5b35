"""Golden bytes of the JSON layouts the command line writes (an evolve
trajectory, finite-width and memoryless, and a sweep), plus the writer
against ``json.dumps(payload, indent=2)``, the encoder it replaces, kept
here as the reference.  The goldens pin the layout and the ``repr``
values together, so a deliberate change to either must update them.

The CSV table writer is checked here too, against ``"%.17g" % x`` per
value, on the same tables of special values and on tables whose columns
the writers encode once and share: bit-identical columns, columns equal
in value but not in bits, constant columns and degenerate shapes."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import qbattery as qb
from qbattery import cli
from qbattery.propagator import ChargingTrajectory
from qbattery.sweep import (BLOCK_ROWS, SweepResult, SweepSpec,
                            TRAJECTORY_COLUMNS, _to_json, sweep_json,
                            table_to_csv, trajectory_columns, trajectory_csv,
                            trajectory_json)

EVOLVE_JSON = """\
{
  "metadata": {
    "command": "evolve",
    "tool_version": "0.1.0",
    "omega0": 1.0,
    "gamma": 0.1,
    "lambda": 0.1,
    "tmax_Omega_tau": 5.0,
    "steps": 3
  },
  "columns": [
    "Omega_tau",
    "re_kappa",
    "im_kappa",
    "population",
    "stored_energy",
    "ergotropy"
  ],
  "rows": [
    [
      0.0,
      0.0,
      0.0,
      0.0,
      0.0,
      0.0
    ],
    [
      2.5,
      0.0,
      -0.5924781595345872,
      0.3510303695254917,
      0.3510303695254917,
      0.0
    ],
    [
      5.0,
      0.0,
      0.9517092319690481,
      0.9057504622151155,
      0.9057504622151155,
      0.8115009244302309
    ]
  ]
}"""

EVOLVE_MEMORYLESS_JSON = """\
{
  "metadata": {
    "command": "evolve",
    "tool_version": "0.1.0",
    "omega0": 1.0,
    "gamma": 4.0,
    "lambda": Infinity,
    "tmax_Omega_tau": 2.0,
    "steps": 3
  },
  "columns": [
    "Omega_tau",
    "re_kappa",
    "im_kappa",
    "population",
    "stored_energy",
    "ergotropy"
  ],
  "rows": [
    [
      0.0,
      0.0,
      0.0,
      0.0,
      0.0,
      0.0
    ],
    [
      1.0,
      0.0,
      -0.36787944117144233,
      0.1353352832366127,
      0.1353352832366127,
      0.0
    ],
    [
      2.0,
      0.0,
      -0.2706705664732254,
      0.07326255555493673,
      0.07326255555493673,
      0.0
    ]
  ]
}"""

SWEEP_JSON = """\
{
  "gamma_over_omega": [
    1.0,
    5.0
  ],
  "lambda_over_omega": [
    1.0,
    Infinity
  ],
  "quantity": "stored_energy_max",
  "tmax": 1.0,
  "grid": null,
  "values": [
    [
      0.6141200971094254,
      0.4391601408166763
    ],
    [
      0.33679113573469927,
      0.09921256574801247
    ]
  ],
  "flags": [
    [
      "boundary",
      "boundary"
    ],
    [
      "",
      ""
    ]
  ],
  "metadata": {
    "quantity": "stored_energy_max",
    "units": "omega0",
    "tool_version": "0.1.0",
    "tmax": 1.0,
    "grid": null
  }
}"""


@pytest.mark.parametrize("argv, expected", [
    (["evolve", "--gamma", "0.1", "--lambda", "0.1", "--tmax", "5",
      "--steps", "3"], EVOLVE_JSON),
    (["evolve", "--gamma", "4", "--lambda", "inf", "--tmax", "2",
      "--steps", "3"], EVOLVE_MEMORYLESS_JSON),
    (["sweep", "--gamma-axis", "1,5", "--lambda-axis", "1,inf",
      "--quantity", "stored_energy_max", "--tmax", "1"], SWEEP_JSON),
])
def test_command_json_bytes(tmp_path, argv, expected):
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()


def trajectory_table(traj):
    return np.column_stack(trajectory_columns(traj))


def trajectory_to_json_reference(traj, metadata):
    """The per-value ``indent=2`` encoding the writer replaces."""
    payload = {"metadata": metadata,
               "columns": list(TRAJECTORY_COLUMNS),
               "rows": [list(row) for row in trajectory_table(traj)]}
    return json.dumps(payload, indent=2)


def sweep_to_json_reference(result):
    payload = {
        "gamma_over_omega": list(result.spec.gamma_over_omega),
        "lambda_over_omega": list(result.spec.lambda_over_omega),
        "quantity": result.spec.quantity,
        "tmax": result.spec.tmax,
        "grid": result.spec.grid,
        "values": [list(row) for row in result.values],
        "flags": result.flags,
        "metadata": result.metadata,
    }
    return json.dumps(payload, indent=2)


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300,
           5e-324, -1.7976931348623157e308, 0.1, -2.5, 1.0, 123456789.0]


def special_trajectory(rng, n):
    cols = [rng.permutation(np.resize(SPECIAL, n)) for _ in range(6)]
    kappa = cols[1].astype(complex)
    kappa.imag = cols[2]
    return ChargingTrajectory(cols[0], kappa, *cols[3:])


METADATA = {"command": "evolve", "lambda": math.inf, "tmax": None,
            "note": 'quotes " and , ], [ inside', "nested": {"a": [1, 2]}}


@pytest.mark.parametrize("n", [1, 2, 13, 40])
def test_trajectory_writer_matches_indent_encoder(rng, n):
    traj = special_trajectory(rng, n)
    text = "".join(trajectory_json(traj, METADATA))
    assert text == trajectory_to_json_reference(traj, METADATA)
    if n >= len(SPECIAL):  # every column holds every special value
        rows = json.loads(text)["rows"]
        assert np.array_equal(np.array(rows), trajectory_table(traj),
                              equal_nan=True)
        for word in ("NaN", "-Infinity", "-0.0", "1e-300", "1e+300"):
            assert f"      {word}," in text


def test_empty_trajectory_matches_indent_encoder():
    empty = np.zeros(0)
    traj = ChargingTrajectory(empty, empty + 0j, empty, empty, empty)
    assert ("".join(trajectory_json(traj, {}))
            == trajectory_to_json_reference(traj, {}))


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 1)])
def test_sweep_writer_matches_indent_encoder(rng, shape):
    spec = SweepSpec(tuple(np.logspace(-1, 1, shape[0])),
                     (math.inf,) + tuple(np.linspace(0.5, 2, shape[1] - 1)),
                     "nonmarkovianity", tmax=3.0)
    values = rng.permutation(np.resize(SPECIAL, shape[0] * shape[1]))
    result = SweepResult(spec, values.reshape(shape),
                         [["divergent"] * shape[1]] * shape[0],
                         {"quantity": spec.quantity, "grid": None})
    assert "".join(sweep_json(result)) == sweep_to_json_reference(result)


@pytest.mark.parametrize("lam", [0.3, math.inf])
def test_real_trajectory_matches_indent_encoder(lam):
    traj = qb.trajectory(qb.make_params(1.0, 1.0, 0.7, lam), tmax=10.0,
                         steps=501)
    assert ("".join(trajectory_json(traj, METADATA))
            == trajectory_to_json_reference(traj, METADATA))


def table_to_csv_reference(comments, columns, table):
    """The CSV text with each value formatted on its own."""
    lines = [f"# {comment}" for comment in comments] + [",".join(columns)]
    lines += [",".join("%.17g" % x for x in row)
              for row in np.asarray(table, dtype=np.float64).tolist()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 2, 13, 40])
def test_trajectory_csv_matches_per_value_format(rng, n):
    traj = special_trajectory(rng, n)
    text = "".join(trajectory_csv(traj, METADATA))
    assert text == table_to_csv_reference(
        [f"{key}={val}" for key, val in METADATA.items()],
        TRAJECTORY_COLUMNS, trajectory_table(traj))
    if n >= len(SPECIAL):  # every column holds every special value
        for word in ("nan", "-inf", "-0", "1e-300",
                     "4.9406564584124654e-324"):
            assert f",{word}," in text


def shared_text_tables(rng):
    """Tables whose columns repeat: a column bit-identical to an earlier
    one, columns equal in value but not in bits (0.0 against -0.0), a
    constant column, and one row, one column and zero rows; and tables of
    one and of several blocks of rows, with columns equal to an earlier one
    in every block but the first or the last."""
    x = rng.permutation(np.resize(SPECIAL, 2 * len(SPECIAL)))
    zeros = np.zeros(len(x))
    flipped = np.where(x == 0, -x, x)
    wide = np.column_stack([x, zeros, x, -zeros, flipped, zeros + 0.1, x])
    y = rng.permutation(np.resize(SPECIAL, 2 * BLOCK_ROWS + 5))
    head, tail = y.copy(), y.copy()
    head[0] = tail[-1] = 7.25  # no SPECIAL value
    long = np.column_stack([y, head, y, tail, np.zeros(len(y))])
    return [wide, wide[:1], x[:, None], -zeros[:, None], wide[:0],
            long, long[:BLOCK_ROWS], long[:BLOCK_ROWS + 1]]


def test_shared_texts_csv(rng):
    for table in shared_text_tables(rng):
        columns = [f"c{k}" for k in range(table.shape[1])]
        assert ("".join(table_to_csv(["note"], columns, table))
                == table_to_csv_reference(["note"], columns, table))


def test_shared_texts_json(rng):
    for table in shared_text_tables(rng):
        payload = {"note": "shared", "rows": table.T}
        assert ("".join(_to_json(payload, "rows"))
                == json.dumps({**payload, "rows": table.tolist()}, indent=2))


@pytest.mark.parametrize("width", [2, 4])
def test_csv_table_must_fit_its_header(width):
    with pytest.raises(ValueError, match=r"\(3, %d\).* 3 columns" % width):
        table_to_csv([], ["a", "b", "c"], np.zeros((3, width)))


def traced_peak(write) -> float:
    """Peak traced allocation of one ``write()``, after a warm-up call."""
    write()  # warm any lazy imports
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("steps", [20001, 200001])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_write_peak_memory(tmp_path, fmt, steps):
    """Peak traced allocation of writing an export to a file stays under
    3 MB at any number of rows: the writer holds one block of rows at a
    time.  Measured at 1.4 MB (CSV) and 1.8 MB (JSON) at both sizes; the
    writers that built the whole text peaked at 9.4 MB (CSV) and 12.8 MB
    (JSON) at 20001 rows."""
    traj = qb.trajectory(qb.make_params(1.0, 1.0, 0.1, 0.1), tmax=25.0,
                         steps=steps)
    writer = trajectory_csv if fmt == "csv" else trajectory_json
    out = str(tmp_path / f"out.{fmt}")
    assert traced_peak(lambda: cli._write_output(
        out, writer(traj, METADATA))) <= 3e6
