import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import qbattery as qb
from qbattery import cli, sweep
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

    def test_memoryless_large_gamma_populations(self, capsys):
        """gamma = 1000 Omega: with R = sqrt(gamma^2 - 16 Omega^2), R t/4
        passes 710 within the horizon, where exp(-gamma t/4) cosh(R t/4)
        is 0 * inf = nan; the populations stay in [0, 1]."""
        code, out = run_cli(["evolve", "--gamma", "1000", "--lambda", "inf",
                             "--tmax", "25"], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        pops = np.array([float(r.split(",")[3]) for r in rows])
        assert pops.size == 1001
        assert np.all((pops >= 0.0) & (pops <= 1.0))

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
        """Maxima cells go in one batch per worker chunk; 12 cells in 5
        chunks have unequal lengths (2, 2, 3, 2, 3)."""
        for quantity in ("stored_energy_max", "ergotropy_max"):
            spec = SweepSpec((0.5, 2.0, 6.0), (0.3, 1.0, 4.0, math.inf),
                             quantity, tmax=1.5)
            serial = run_sweep(spec, workers=1)
            assert any(any(row) for row in serial.flags)  # boundary cells
            for workers in (2, 3, 5):
                parallel = run_sweep(spec, workers=workers)
                np.testing.assert_array_equal(serial.values, parallel.values)
                assert serial.flags == parallel.flags

    def test_processes_capped_at_task_count(self, monkeypatch):
        """One process per task at most: 2 maxima cells with 64 workers
        start 2, 3 BLP cells with 8 workers start 3.  A serial fake
        executor records the count and starts no process."""
        started = []

        class SerialExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(sweep.concurrent.futures, "ProcessPoolExecutor",
                            SerialExecutor)
        for spec, workers, processes in (
                (SweepSpec((0.5, 2.0), (1.0,), "stored_energy_max"), 64, 2),
                (SweepSpec((0.5, 2.0, 8.0), (math.inf,), "nonmarkovianity",
                           tmax=5.0, grid=501), 8, 3)):
            result = run_sweep(spec, workers=workers)
            assert started.pop() == processes
            np.testing.assert_array_equal(result.values,
                                          run_sweep(spec).values)
        assert started == []

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, workers, capsys):
        code = cli.main(["sweep", "--gamma-axis", "0.5", "--lambda-axis",
                         "1", "--quantity", "stored_energy_max",
                         "--workers", workers])
        assert code == 2
        assert "workers must be at least 1" in capsys.readouterr().err

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

    def test_memoryless_large_gamma_truncated(self, capsys):
        """gamma = 100 Omega decays slowly, D(200/Omega) ~ 3e-4, so the
        measure is truncated; R t/4 passes 710 on this horizon."""
        code, out = run_cli(["nonmarkov", "--gamma", "100",
                             "--lambda", "inf"], capsys)
        assert code == 4
        assert json.loads(out)["truncated"]


class TestMaximaCommand:
    def test_memoryless_large_gamma_matches_oracle(self, capsys):
        """gamma = 100 Omega: the peak sits at Omega tau ~ 0.157, found here
        as the zero of d|c2|^2/dt = 2 Re(conj(c2) (-i Omega c1)) on the
        oracle's amplitudes.  The golden section compares values, and one
        ulp of the peak population (5.4e-20 at 4e-4, curvature -8e-4)
        spans 1.2e-8 in tau, so tau gets a few of those."""
        code, out = run_cli(["maxima", "--gamma", "100", "--lambda", "inf"],
                            capsys)
        assert code == 0
        report = json.loads(out)
        p = qb.make_params(1.0, 1.0, 100.0, math.inf)

        def oracle(t):
            s = qb.integrate(p, qb.empty_battery_state(), t[-1], tol=1e-12,
                             t_eval=t)
            return s.c2, 2.0 * np.real(np.conj(s.c2) * (-1j * s.c1))

        t = np.linspace(0.0, 2.0, 2001)
        i = np.flatnonzero(oracle(t)[1] <= 0.0)[1]  # first fall after 0
        a, b = t[i - 1], t[i]
        for _ in range(40):
            mid = 0.5 * (a + b)
            a, b = (mid, b) if oracle(np.array([mid]))[1][0] > 0 else (a, mid)
        c2 = oracle(np.array([a]))[0][0]
        assert abs(report["tau_at_e_max"] - a) <= 5e-8
        assert abs(report["delta_e_max"] - abs(c2) ** 2) <= 1e-8


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
    ["evolve", "--gamma", "0.5", "--lambda", "0.5"],
    # gamma = 0 has a divergent BLP report; bad options still come first
    ["nonmarkov", "--gamma", "0", "--lambda", "1"],
]


@pytest.mark.parametrize("argv", TMAX_COMMANDS)
def test_zero_tmax_is_usage_error(argv, capsys):
    assert cli.main(argv + ["--tmax", "0"]) == 2
    assert "tmax must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("tmax", ["nan", "inf"])
@pytest.mark.parametrize("argv", TMAX_COMMANDS)
def test_non_finite_tmax_is_usage_error(argv, tmax, capsys):
    assert cli.main(argv + ["--tmax", tmax]) == 2
    assert "tmax must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("option, message", [
    (["--tmax", "-1"], "tmax must be positive and finite"),
    (["--grid", "2"], "grid must be at least 3 points"),
])
def test_divergent_cell_validates_options_first(option, message, capsys):
    assert cli.main(["nonmarkov", "--gamma", "0", "--lambda", "1"]
                    + option) == 2
    assert message in capsys.readouterr().err


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
