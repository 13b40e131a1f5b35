import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import qbattery as qb
from qbattery import cli
from qbattery.sweep import (SweepSpec, run_sweep, sweep_from_json,
                            sweep_to_csv, sweep_to_json)


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


class TestEvolve:
    def test_rabi_population_column(self, capsys):
        code, out = run_cli(["evolve", "--gamma", "0", "--lambda", "1",
                             "--tmax", "6.2832", "--steps", "101"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == ["Omega_tau", "re_kappa", "im_kappa", "population",
                          "stored_energy", "ergotropy"]
        data = np.array([[float(v) for v in l.split(",")]
                         for l in lines[1:]])
        np.testing.assert_allclose(data[:, 3], np.sin(data[:, 0]) ** 2,
                                   atol=1e-12)

    def test_memoryless_peak(self, tmp_path, capsys):
        out_file = tmp_path / "traj.csv"
        code, _ = run_cli(["evolve", "--gamma", "0.1", "--lambda", "inf",
                           "--tmax", "25", "--out", str(out_file)], capsys)
        assert code == 0
        rows = [l for l in out_file.read_text().splitlines()
                if not l.startswith("#")][1:]
        pops = [float(r.split(",")[3]) for r in rows]
        assert max(pops) == pytest.approx(0.925, abs=0.005)

    def test_deterministic_bytes(self, capsys):
        args = ["evolve", "--gamma", "0.1", "--lambda", "0.1",
                "--tmax", "25", "--steps", "201"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second

    def test_json_format(self, capsys):
        code, out = run_cli(["evolve", "--gamma", "0.1", "--lambda", "0.1",
                             "--tmax", "5", "--steps", "11",
                             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][0] == "Omega_tau"
        assert len(payload["rows"]) == 11

    def test_missing_gamma_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evolve", "--lambda", "0.1"])
        assert exc.value.code == 2

    def test_bad_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evolve", "--gamma", "0.1", "--lambda", "0.1",
                      "--no-such-flag"])
        assert exc.value.code == 2

    def test_unwritable_path_is_io_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evolve", "--gamma", "0.1", "--lambda", "0.1",
                      "--out", "/nonexistent_dir_qb/x.csv"])
        assert exc.value.code == 3


class TestSweep:
    def test_single_cell_matches_maxima(self, capsys):
        code, out = run_cli(["sweep", "--gamma-axis", "0.5",
                             "--lambda-axis", "0.5",
                             "--quantity", "stored_energy_max",
                             "--format", "json"], capsys)
        assert code == 0
        grid = json.loads(out)
        report = qb.maximize_over_tau(qb.make_params(1, 1, 0.5, 0.5))
        assert grid["values"][0][0] == pytest.approx(report.delta_e_max,
                                                     abs=1e-12)

    def test_memoryless_threshold_cells(self, capsys):
        code, out = run_cli(["sweep", "--gamma-axis", "3.9,4.1",
                             "--lambda-axis", "inf",
                             "--quantity", "nonmarkovianity",
                             "--format", "json"], capsys)
        assert code == 0
        vals = json.loads(out)["values"]
        assert vals[0][0] > 0.0
        assert vals[1][0] < 1e-9

    def test_axis_specs(self):
        assert cli._parse_axis("0.1:10:3:log") == pytest.approx(
            (0.1, 1.0, 10.0))
        assert cli._parse_axis("1:3:3") == pytest.approx((1.0, 2.0, 3.0))
        assert cli._parse_axis("0.5,inf") == (0.5, math.inf)
        with pytest.raises(ValueError):
            cli._parse_axis("1:2:3:badscale")

    def test_worker_count_equivalence(self):
        spec = SweepSpec((0.5, 2.0), (1.0, math.inf), "stored_energy_max")
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        np.testing.assert_array_equal(serial.values, parallel.values)
        assert serial.flags == parallel.flags

    def test_json_round_trip_exact(self):
        spec = SweepSpec((0.5, 5.0), (0.5, math.inf), "ergotropy_max")
        result = run_sweep(spec)
        loaded = sweep_from_json(sweep_to_json(result))
        np.testing.assert_array_equal(result.values, loaded.values)
        assert loaded.spec == result.spec
        assert loaded.flags == result.flags

    def test_csv_shape_and_metadata(self):
        spec = SweepSpec((0.5, 1.0, 2.0), (1.0, math.inf),
                         "stored_energy_max")
        text = sweep_to_csv(run_sweep(spec))
        lines = text.splitlines()
        assert any(l.startswith("# quantity=stored_energy_max")
                   for l in lines)
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 4  # header + 3 gamma rows
        assert len(data[1].split(",")) == 3  # gamma + 2 lambda columns

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec((), (1.0,), "stored_energy_max")
        with pytest.raises(ValueError):
            SweepSpec((0.5,), (-1.0,), "stored_energy_max")
        with pytest.raises(ValueError):
            SweepSpec((0.5,), (1.0,), "bogus")


class TestNonmarkovCommand:
    def test_markovian_exit_zero(self, capsys):
        code, out = run_cli(["nonmarkov", "--gamma", "5", "--lambda", "inf"],
                            capsys)
        assert code == 0
        assert json.loads(out)["measure"] < 1e-9

    def test_divergent_guard_exit(self, capsys):
        code, out = run_cli(["nonmarkov", "--gamma", "0", "--lambda", "1"],
                            capsys)
        assert code == 4
        payload = json.loads(out)
        assert payload["divergent"]
        assert payload["measure"] == "divergent"

    def test_truncated_guard_exit(self, capsys):
        code, out = run_cli(["nonmarkov", "--gamma", "0.1",
                             "--lambda", "0.1"], capsys)
        assert code == 4
        assert json.loads(out)["truncated"]


class TestFigureCommand:
    def test_fig7a_bundle(self, tmp_path, capsys):
        code, _ = run_cli(["figure", "fig7a", "--outdir", str(tmp_path)],
                          capsys)
        assert code == 0
        outdir = tmp_path / "fig7a"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["annotation_lines"] == [0.925, 0.851]
        table = (outdir / "maxima_vs_lambda.csv").read_text().splitlines()
        header = [l for l in table if not l.startswith("#")][0]
        assert header.split(",") == ["lam", "stored_energy_max",
                                     "ergotropy_max"]

    def test_unknown_name(self, capsys):
        code = cli.main(["figure", "fig99", "--outdir", "."])
        err = capsys.readouterr().err
        assert code == 2
        assert "fig7a" in err


class TestConfigPrecedence:
    def test_flags_beat_config(self, tmp_path, capsys):
        cfg = tmp_path / "qb.cfg"
        cfg.write_text("gamma = 5.0\nlam = inf\ntmax = 5\nsteps = 11\n")
        code, out = run_cli(["evolve", "--config", str(cfg),
                             "--gamma", "0"], capsys)
        assert code == 0
        # gamma from flag (Rabi), lam/tmax/steps from config
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(lines) == 12
        data = np.array([[float(v) for v in l.split(",")]
                         for l in lines[1:]])
        np.testing.assert_allclose(data[:, 3], np.sin(data[:, 0]) ** 2,
                                   atol=1e-12)

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "qb.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["evolve", "--config", str(cfg), "--gamma", "0.1",
                      "--lambda", "1"])
        assert exc.value.code == 2


TMAX_COMMANDS = [
    ["sweep", "--gamma-axis", "0.5", "--lambda-axis", "0.5",
     "--quantity", "stored_energy_max"],
    ["maxima", "--gamma", "0.5", "--lambda", "0.5"],
    ["nonmarkov", "--gamma", "0.5", "--lambda", "0.5"],
]


@pytest.mark.parametrize("argv", TMAX_COMMANDS)
def test_zero_tmax_is_usage_error(argv, capsys):
    assert cli.main(argv + ["--tmax", "0"]) == 2
    assert "tmax must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", TMAX_COMMANDS)
def test_zero_Omega_with_tmax_is_usage_error(argv, capsys):
    """--tmax is converted with Omega; a bad Omega is still a usage error."""
    assert cli.main(argv + ["--Omega", "0", "--tmax", "5"]) == 2
    assert "Omega must be finite and positive" in capsys.readouterr().err


def test_no_module_reads_the_environment():
    """The CLI promises that environment variables are never consulted."""
    package = Path(qb.__file__).parent
    readers = [f"{path.name}:{n}"
               for path in sorted(package.rglob("*.py"))
               for n, line in enumerate(path.read_text().splitlines(), 1)
               if re.search(r"\b(environb?|getenvb?)\b", line)]
    assert readers == []
