"""Golden bytes of the JSON layouts the command line writes (an evolve
trajectory, finite-width and memoryless, and a sweep), plus the writer
against ``json.dumps(payload, indent=2)``, the encoder it replaces, kept
here as the reference.  The goldens pin the layout and the ``repr``
values together, so a deliberate change to either must update them."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import qbattery as qb
from qbattery import cli
from qbattery.propagator import ChargingTrajectory
from qbattery.sweep import (SweepResult, SweepSpec, TRAJECTORY_COLUMNS,
                            sweep_to_json, trajectory_table,
                            trajectory_to_json)

EVOLVE_JSON = """\
{
  "metadata": {
    "command": "evolve",
    "tool_version": "0.1.0",
    "omega0": 1.0,
    "Omega": 1.0,
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
      2.7083389842945504e-35,
      2.7083389842945504e-35,
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
      0.905750462215115,
      0.905750462215115,
      0.81150092443023
    ]
  ]
}"""

EVOLVE_MEMORYLESS_JSON = """\
{
  "metadata": {
    "command": "evolve",
    "tool_version": "0.1.0",
    "omega0": 1.0,
    "Omega": 1.0,
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
  "omega0": 1.0,
  "Omega": 1.0,
  "values": [
    [
      0.6141200946905179,
      0.4391601393903004
    ],
    [
      0.33679113573469915,
      0.09921256574801243
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
    "omega0": 1.0,
    "Omega": 1.0,
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
        "omega0": result.spec.omega0,
        "Omega": result.spec.Omega,
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
    text = trajectory_to_json(traj, METADATA)
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
    assert (trajectory_to_json(traj, {})
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
    assert sweep_to_json(result) == sweep_to_json_reference(result)


@pytest.mark.parametrize("lam", [0.3, math.inf])
def test_real_trajectory_matches_indent_encoder(lam):
    traj = qb.trajectory(qb.make_params(1.0, 1.0, 0.7, lam), tmax=10.0,
                         steps=501)
    assert (trajectory_to_json(traj, METADATA)
            == trajectory_to_json_reference(traj, METADATA))


def test_peak_memory():
    """Peak traced allocation of one 20001-step export stays under 14 MB.
    The per-value ``indent=2`` encoder peaked at 19.8 MB on this table;
    the one-call encoding measured about 11 MB."""
    traj = qb.trajectory(qb.make_params(1.0, 1.0, 0.1, 0.1), tmax=25.0,
                         steps=20001)
    trajectory_to_json(traj, METADATA)  # warm any lazy imports
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        trajectory_to_json(traj, METADATA)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 14e6
