import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qbattery as qb
from qbattery import cli, metrics, propagator, sweep
from qbattery.figures import GRID_AXIS
from qbattery.metrics import blp_nonmarkovianity_many, maximize_over_tau_many
from qbattery.sweep import (QUANTITIES, SweepSpec, run_sweep, sweep_to_csv,
                            sweep_to_json)


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

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_values_are_the_reports_of_the_exact_ratios(self, quantity,
                                                        tmp_path):
        """Each CSV value is read from the ``_many`` report of the cell
        make_params(1.0, 1.0, g, l) of the axis values, exactly."""
        gammas, lambdas = (0.123, 0.377, 2.5), (0.123, 0.377, math.inf)
        out = tmp_path / "sweep.csv"
        grid = (["--grid", "2001"] if quantity == "nonmarkovianity"
                else [])
        assert cli.main(["sweep", "--gamma-axis", ",".join(map(str, gammas)),
                         "--lambda-axis", ",".join(map(str, lambdas)),
                         "--quantity", quantity, "--tmax", "20", *grid,
                         "--out", str(out)]) == 0
        rows = [line for line in out.read_text().splitlines()
                if not line.startswith("#")][1:]
        written = [float(v) for row in rows for v in row.split(",")[1:]]
        cells = [qb.make_params(1.0, 1.0, g, lam)
                 for g in gammas for lam in lambdas]
        if quantity == "nonmarkovianity":
            want = [r.measure
                    for r in blp_nonmarkovianity_many(cells, 20.0, 2001)]
        else:
            want = [r.delta_e_max if quantity == "stored_energy_max"
                    else r.w_max
                    for r in maximize_over_tau_many(cells, tmax=20.0)]
        assert written == want

    def test_blp_memory_does_not_grow_with_the_cells(self):
        """A BLP sweep reduces each report to its (value, flag) as its
        group of ``BLP_REFINE_CELLS`` cells is done.  Holding every report
        of the chunk, about 8 KB of intervals per cell, grew the traced
        peak by 1.0 MB from 16 to 144 cells, against about 0.2 MB now."""
        peaks = []
        for axis in (GRID_AXIS[:4], GRID_AXIS[:12]):
            spec = SweepSpec(axis, axis, "nonmarkovianity", grid=2001)
            was_tracing = tracemalloc.is_tracing()
            if not was_tracing:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run_sweep(spec)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                if not was_tracing:
                    tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 0.5e6

    def test_each_cell_is_expanded_once(self, monkeypatch):
        """A 23 x 23 sweep expands its 529 cells in one batch that the
        scans and the bisection share: no cell is expanded twice, nor
        alone, as it was when 512 cached one-cell expansions were looked up
        again after the scan had evicted them."""
        expanded = []
        expand = metrics._transfer_many

        def counted(ratios):
            expanded.extend(ratios)
            return expand(ratios)

        monkeypatch.setattr(metrics, "_transfer_many", counted)
        before = propagator._transfer.cache_info()
        gammas = tuple(np.logspace(-1.0, 1.0, 23))
        lambdas = tuple(np.logspace(-1.0, 1.7, 22)) + (math.inf,)
        run_sweep(SweepSpec(gammas, lambdas, "stored_energy_max"))
        assert sorted(expanded) == sorted((g, lam) for g in gammas
                                          for lam in lambdas)
        assert propagator._transfer.cache_info() == before

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
        """Every quantity goes in one batch per worker chunk; 12 cells in 5
        chunks have unequal lengths (2, 2, 3, 2, 3)."""
        for quantity in ("stored_energy_max", "ergotropy_max",
                         "nonmarkovianity"):
            grid = 301 if quantity == "nonmarkovianity" else None
            spec = SweepSpec((0.5, 2.0, 6.0), (0.3, 1.0, 4.0, math.inf),
                             quantity, tmax=1.5, grid=grid)
            serial = run_sweep(spec, workers=1)
            assert any(any(row) for row in serial.flags)  # boundary/truncated
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
        payload = json.loads(sweep_to_json(result))
        np.testing.assert_array_equal(result.values,
                                      np.array(payload["values"]))
        assert SweepSpec(tuple(payload["gamma_over_omega"]),
                         tuple(payload["lambda_over_omega"]),
                         payload["quantity"], payload["tmax"],
                         payload["grid"]) == result.spec
        assert payload["flags"] == result.flags

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
        oracle's amplitudes; the command finds it on the same slope of the
        propagator's amplitudes, to within the documented 1e-8/Omega."""
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
        assert abs(report["tau_at_e_max"] - a) <= 1e-8
        assert abs(report["delta_e_max"] - abs(c2) ** 2) <= 1e-8

    def test_payload_is_the_report_of_the_exact_ratios(self, rng, capsys):
        """The flags are the ratios the engine reads: with 0.377 and 0.123,
        which (v * Omega) / Omega rounds at some Omega, and seeded ratios,
        the --omega0 1.5 payload is the report of make_params(1.5, 1.0, g,
        l) field by field."""
        cells = [(0.377, 0.123), (0.123, 0.377), (0.377, math.inf)]
        cells += [(10 ** rng.uniform(-1.5, 1.3), lam) for lam in
                  (10 ** rng.uniform(-1.5, 2.0), 10 ** rng.uniform(-1.5, 2.0),
                   math.inf)]
        for g, lam in cells:
            code, out = run_cli(["maxima", "--gamma", repr(g), "--lambda",
                                 repr(lam), "--omega0", "1.5"], capsys)
            assert code == 0
            payload = json.loads(out)
            report = qb.maximize_over_tau(qb.make_params(1.5, 1.0, g, lam))
            assert (payload["omega0"], payload["gamma"],
                    payload["lambda"]) == (1.5, g, lam)
            for key, value in vars(report).items():
                assert repr(payload[key]) == repr(value), (g, lam, key)

    @pytest.mark.parametrize("lam", ["1e8", "1e9", "1e12"])
    def test_large_width_matches_memoryless(self, lam, capsys):
        """Large widths approach the memoryless optimum 0.9256; merging
        the two slow roots used to print delta_e_max 1.0."""
        reports = []
        for width in (lam, "inf"):
            code, out = run_cli(["maxima", "--gamma", "0.1",
                                 "--lambda", width], capsys)
            assert code == 0
            reports.append(json.loads(out))
        for key in ("delta_e_max", "w_max", "tau_at_e_max"):
            assert abs(reports[0][key] - reports[1][key]) <= 1e-8, key


class TestPopulationGuard:
    """A population above 1 is a numerical guard failure (exit 4), not a
    clipped value; bad options stay usage errors (exit 2)."""

    @pytest.fixture
    def inflated_terms(self, monkeypatch):
        def inflate(expand):
            def inflated(*args):
                roots, coefs = expand(*args)
                return roots, 2.0 * coefs  # |c2| up to 2
            return inflated

        monkeypatch.setattr(propagator, "_transfer",
                            inflate(propagator._transfer))
        monkeypatch.setattr(metrics, "_transfer_many",
                            inflate(metrics._transfer_many))

    @pytest.mark.parametrize("argv", [
        ["evolve", "--gamma", "0.1", "--lambda", "0.1"],
        ["maxima", "--gamma", "0.1", "--lambda", "0.1"],
        ["maxima", "--gamma", "0.1", "--lambda", "inf"],
        # the BLP search reads D = |c2|^2 at its extrema through the guard
        ["nonmarkov", "--gamma", "0.5", "--lambda", "inf"],
        ["nonmarkov", "--gamma", "0.5", "--lambda", "2", "--tmax", "20",
         "--grid", "2001"],
        ["sweep", "--gamma-axis", "0.5,2", "--lambda-axis", "1,inf",
         "--quantity", "nonmarkovianity", "--tmax", "20", "--grid", "2001"],
    ])
    def test_exit_four(self, inflated_terms, argv, capsys):
        assert cli.main(argv) == 4
        assert "population outside [0, 1]" in capsys.readouterr().err

    def test_sweep_over_several_scan_chunks_exits_four(self, inflated_terms,
                                                       capsys):
        """20 inflated cells, one batch of more than two scan chunks."""
        assert 20 > 2 * metrics.MAXIMA_SCAN_CELLS
        assert cli.main(["sweep", "--gamma-axis", "0.1,0.2,0.5,1,2",
                         "--lambda-axis", "0.3,1,5,inf",
                         "--quantity", "stored_energy_max"]) == 4
        assert "population outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evolve", "maxima"])
    def test_nan_tmax_still_usage_error(self, inflated_terms, command,
                                        capsys):
        assert cli.main([command, "--gamma", "0.1", "--lambda", "0.1",
                         "--tmax", "nan"]) == 2
        assert "tmax" in capsys.readouterr().err


# ratio pairs whose expansion overflows: the partial fractions at (1e300, 1)
# and (1, 1e300), the cubic's coefficients at (1e200, 1e200), the quadratic's
# roots at (1e300, inf)
NON_FINITE_CELLS = [("1e300", "1"), ("1", "1e300"), ("1e200", "1e200"),
                    ("1e300", "inf")]


class TestNonFiniteExpansion:
    """An expansion that is not finite is a numerical guard failure (exit
    4) naming the cell, with no warning and no traceback; pytest turns any
    warning into an error here."""

    @pytest.mark.parametrize("gamma,lam", NON_FINITE_CELLS)
    @pytest.mark.parametrize("argv", [
        ["evolve", "--steps", "3"], ["maxima"], ["nonmarkov"],
        ["nonmarkov", "--tmax", "20", "--grid", "2001"]])
    def test_cell_commands_exit_four(self, argv, gamma, lam, capsys):
        assert cli.main(argv + ["--gamma", gamma, "--lambda", lam]) == 4
        err = capsys.readouterr().err
        assert "expansion not finite" in err
        assert f"gamma/Omega = {float(gamma)!r}" in err
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("gamma,lam", NON_FINITE_CELLS)
    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_sweep_exits_four(self, quantity, gamma, lam, capsys):
        """One such cell among good ones fails the whole sweep."""
        assert cli.main(["sweep", "--gamma-axis", f"0.5,{gamma}",
                         "--lambda-axis", f"{lam},2",
                         "--quantity", quantity]) == 4
        err = capsys.readouterr().err
        assert "expansion not finite" in err
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("gamma,lam", NON_FINITE_CELLS)
    def test_solve_roots_raises(self, gamma, lam):
        with pytest.raises(qb.metrics.NumericalGuardError,
                           match="expansion not finite"):
            qb.solve_roots(qb.make_params(1.0, 1.0, float(gamma),
                                          float(lam)))


# ratio pairs whose companion-matrix roots are finite but wrong: relative
# residuals |p(s)| / sum_k |p_k| |s|^k of 6.8e-4 at (1, 1e62) and 1.0 at the
# other two, where the good cells reach 3.5e-16
WRONG_ROOT_CELLS = [("1", "1e62"), ("1", "1e86"), ("1.99e-8", "1.07e96")]


class TestRootResidual:
    """A root whose relative residual exceeds 1e-10 is a numerical guard
    failure (exit 4) naming the cell, with no warning and no traceback,
    where a population of wrong roots was reported or overflowed."""

    @pytest.mark.parametrize("gamma,lam", WRONG_ROOT_CELLS)
    @pytest.mark.parametrize("argv", [
        ["evolve", "--steps", "3"], ["maxima"], ["nonmarkov"]])
    def test_cell_commands_exit_four(self, argv, gamma, lam, capsys):
        assert cli.main(argv + ["--gamma", gamma, "--lambda", lam]) == 4
        err = capsys.readouterr().err
        assert "root residual" in err and "above 1e-10" in err
        assert f"lambda/Omega = {float(lam)!r}" in err
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("gamma,lam", WRONG_ROOT_CELLS)
    def test_sweep_and_solve_roots(self, gamma, lam, capsys):
        assert cli.main(["sweep", "--gamma-axis", f"0.5,{gamma}",
                         "--lambda-axis", f"2,{lam}",
                         "--quantity", "stored_energy_max"]) == 4
        assert "root residual" in capsys.readouterr().err
        with pytest.raises(qb.metrics.NumericalGuardError,
                           match="root residual"):
            qb.solve_roots(qb.make_params(1.0, 1.0, float(gamma),
                                          float(lam)))

    def test_wide_domain_passes(self):
        """2 000 cells log-uniform in [1e-6, 1e6] x [1e-9, 1e15], the
        triple root and the double-root curve expand."""
        cells = np.exp(np.random.default_rng(24).uniform(
            np.log([1e-6, 1e-9]), np.log([1e6, 1e15]), size=(2000, 2)))
        cells = [tuple(c) for c in cells] + [
            (16 * math.sqrt(3) / 9, 3 * math.sqrt(3))] + [
            (2 * (r * r + 2 * r * q - 1) / -(2 * r + q), -(2 * r + q))
            for r in (-1.01, -1.5, -3.0, -10.0)
            for q in [2 * r / (r * r - 1)]]
        roots, _ = propagator._transfer_many(cells)
        assert roots.shape[1] == len(cells)


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

    @pytest.mark.parametrize("line, message", [
        ("format = xml", "format"),
        ("steps = x", "steps"),
        ("workers = two", "workers"),
        ("lambda = 1", "unknown config key: 'lambda'"),
    ])
    def test_config_values_checked_as_flags(self, tmp_path, capsys, line,
                                            message):
        """A config value is converted and checked as its flag's is:
        format = xml used to write JSON and exit 0."""
        cfg = tmp_path / "qb.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["evolve", "--config", str(cfg), "--gamma", "0.1",
                      "--lambda", "1", "--tmax", "1", "--steps", "3"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_config_accepts_inf_width_and_axis_lists(self, tmp_path,
                                                    capsys):
        cfg = tmp_path / "qb.cfg"
        cfg.write_text("lam = inf\ngamma-axis = 0.5,2\nformat = json\n")
        code, out = run_cli(["evolve", "--config", str(cfg), "--gamma",
                             "0.1", "--tmax", "1", "--steps", "3"], capsys)
        assert code == 0
        assert json.loads(out)["metadata"]["lambda"] == math.inf
        code, out = run_cli(["sweep", "--config", str(cfg), "--lambda-axis",
                             "1", "--quantity", "stored_energy_max",
                             "--tmax", "1"], capsys)
        assert code == 0
        assert json.loads(out)["gamma_over_omega"] == [0.5, 2.0]

    @pytest.mark.parametrize("spelling", [
        ["--config={}"], ["--conf", "{}"], ["--conf={}"]],
        ids=["equals", "abbreviated", "abbreviated-equals"])
    def test_every_config_spelling_is_read(self, tmp_path, capsys, spelling):
        """argparse accepts these spellings of --config PATH; each one
        used to be ignored silently, writing CSV and exiting 0."""
        cfg = tmp_path / "qb.cfg"
        cfg.write_text("lam = inf\nsteps = 3\nformat = json\n")
        flags = [arg.format(cfg) for arg in spelling]
        code, out = run_cli(["evolve", *flags, "--gamma", "0.1", "--tmax",
                             "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["metadata"]["lambda"] == math.inf
        assert payload["metadata"]["steps"] == 3

    @pytest.mark.parametrize("spelling", [["--config={}"], ["--conf", "{}"]],
                             ids=["equals", "abbreviated"])
    def test_bad_config_exits_2_in_every_spelling(self, tmp_path, capsys,
                                                  spelling):
        """The separate spelling is covered by
        test_config_values_checked_as_flags."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("format = xml\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["evolve", *(arg.format(cfg) for arg in spelling),
                      "--gamma", "0.1", "--lambda", "1"])
        assert exc.value.code == 2
        assert "format" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["nonmarkov", "--gamma", "1", "--lambda", "1"],
    ["sweep", "--gamma-axis", "1", "--lambda-axis", "1",
     "--quantity", "nonmarkovianity"],
])
def test_non_finite_default_grid_is_usage_error(argv, capsys):
    """tmax = 1e306 asks for 1e309 scan points at the default spacing,
    which used to end in an OverflowError traceback."""
    assert cli.main(argv + ["--tmax", "1e306"]) == 2
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["nonmarkov", "--gamma", "1", "--lambda", "1", "--tmax", "1e12"],
    ["sweep", "--gamma-axis", "1", "--lambda-axis", "1",
     "--quantity", "nonmarkovianity", "--grid", "1000000000000000"],
    ["nonmarkov", "--gamma", "1", "--lambda", "1", "--tmax", "1e16"],
])
def test_scan_too_large_to_hold_is_usage_error(argv, capsys):
    """About 1e15 scan points need 14 PiB, which used to end in a numpy
    MemoryError traceback, and 1e19 more bytes than a 64-bit address
    spans; the result is allocated before any other work, so the refusal
    is immediate."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--grid" in err and "--tmax" in err


@pytest.mark.parametrize("lam", ["nan", "-inf"])
@pytest.mark.parametrize("command", ["evolve", "maxima", "nonmarkov"])
def test_nan_or_negative_inf_lambda_is_usage_error(command, lam, capsys):
    """Only +inf selects the memoryless engine; nan and -inf used to."""
    assert cli.main([command, "--gamma", "0.1", f"--lambda={lam}"]) == 2
    assert "lambda must be positive or inf" in capsys.readouterr().err


@pytest.mark.parametrize("argv", TMAX_COMMANDS)
def test_zero_Omega_with_tmax_is_usage_error(argv, capsys):
    """No command takes --Omega: --gamma, --lambda and --tmax are already
    in units of Omega, so the parser refuses it (exit 2) at any value."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--Omega", "0", "--tmax", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --Omega 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [TMAX_COMMANDS[0], TMAX_COMMANDS[2]])
def test_omega0_is_refused_where_it_scales_nothing(argv, capsys):
    """sweep values are in units of omega0 and the BLP measure has none:
    --omega0 is an option of evolve and maxima only."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--omega0", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --omega0 2" in capsys.readouterr().err


def test_no_parser_takes_Omega():
    _, subparsers = cli.build_parser()
    options = {name: {o for a in sub._actions for o in a.option_strings}
               for name, sub in subparsers.items()}
    assert not any("--Omega" in opts for opts in options.values())
    assert {name for name, opts in options.items()
            if "--omega0" in opts} == {"evolve", "maxima"}


def test_format_is_an_option_of_the_table_commands():
    """maxima and nonmarkov always write a JSON report: only evolve and
    sweep take --format."""
    _, subparsers = cli.build_parser()
    assert {name for name, sub in subparsers.items()
            if any("--format" in a.option_strings
                   for a in sub._actions)} == {"evolve", "sweep"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [TMAX_COMMANDS[1], TMAX_COMMANDS[2]])
def test_format_is_refused_where_it_changes_nothing(argv, fmt, capsys):
    """--format csv used to print the same JSON and exit 0."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--format", fmt])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --format {fmt}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("quantity", ["stored_energy_max", "ergotropy_max"])
def test_energy_sweep_spec_refuses_a_grid(quantity):
    """The charging optima scan a fixed grid; only the BLP scan takes one."""
    with pytest.raises(ValueError, match=f"{quantity} takes no grid"):
        SweepSpec((0.5,), (1.0,), quantity, grid=301)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_energy_sweep_grid_is_usage_error(source, tmp_path, capsys):
    """A grid that the quantity cannot use is refused, from --grid or from
    a config file: --grid 2 used to exit 0 with the values of no grid."""
    argv = ["sweep", "--gamma-axis", "0.5", "--lambda-axis", "1",
            "--quantity", "stored_energy_max"]
    if source == "flag":
        argv += ["--grid", "2"]
    else:
        cfg = tmp_path / "qb.cfg"
        cfg.write_text("grid = 301\n")
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 2
    assert "stored_energy_max takes no grid" in capsys.readouterr().err


# Options that change no result by design: where the output goes, where
# the defaults come from, and the number of processes, whose values are
# identical for any count (test_worker_count_equivalence).
NO_RESULT_OPTIONS = {"--out", "--outdir", "--config", "--workers"}
_SWEEP = {"--gamma-axis": "0.5", "--lambda-axis": "1"}
_SWEEP_VARIED = {"--gamma-axis": "0.7", "--lambda-axis": "2",
                 "--format": "json"}
# (command, base options, {option: another valid value}, {option: a value
# the base cannot use, refused with exit 2}); the charging optima lie at
# the short horizons, so that a longer one moves them
OPTION_CASES = [
    ("evolve", {"--gamma": "0.5", "--lambda": "1", "--tmax": "2",
                "--steps": "5"},
     {"--gamma": "0.7", "--lambda": "inf", "--omega0": "2", "--tmax": "3",
      "--steps": "7", "--format": "json"}, {}),
    ("sweep", {**_SWEEP, "--quantity": "nonmarkovianity", "--tmax": "5"},
     {**_SWEEP_VARIED, "--quantity": "stored_energy_max", "--tmax": "6",
      "--grid": "3"}, {}),
    ("sweep", {**_SWEEP, "--quantity": "stored_energy_max", "--tmax": "1"},
     {**_SWEEP_VARIED, "--quantity": "ergotropy_max", "--tmax": "1.2"},
     {"--grid": "2001"}),
    ("sweep", {**_SWEEP, "--quantity": "ergotropy_max", "--tmax": "1"},
     {**_SWEEP_VARIED, "--quantity": "nonmarkovianity", "--tmax": "1.2"},
     {"--grid": "2001"}),
    ("maxima", {"--gamma": "0.5", "--lambda": "1", "--tmax": "1"},
     {"--gamma": "0.7", "--lambda": "inf", "--omega0": "2", "--tmax": "1.2"},
     {}),
    ("nonmarkov", {"--gamma": "0.5", "--lambda": "1", "--tmax": "5"},
     {"--gamma": "0.7", "--lambda": "2", "--tmax": "6", "--grid": "3"}, {}),
    ("figure", {}, {}, {}),
]
# keys of a JSON payload that echo the command line rather than compute
_ECHOED = {"metadata", "command", "tool_version", "omega0", "gamma",
           "lambda", "gamma_over_omega", "lambda_over_omega", "quantity",
           "tmax", "grid"}


def _outcome(command, options, capsys):
    """The exit code and the result of one run: a JSON payload without its
    echoed keys, or a CSV table's flag lines and its values, without the
    '# key=value' metadata, the header row and the first column."""
    try:
        code = cli.main([command, *(tok for item in options.items()
                                    for tok in item)])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    if out.startswith("{"):
        return code, {key: value for key, value in json.loads(out).items()
                      if key not in _ECHOED}
    lines = out.splitlines()
    rows = [line for line in lines if not line.startswith("#")]
    return code, ([line for line in lines if line.startswith("# flag:")],
                  [row.split(",")[1:] for row in rows[1:]])


def test_every_option_is_classified():
    """Each option of each command is varied or refused by a case of
    OPTION_CASES, or changes no result by design: a new option has to be
    classified here."""
    _, subparsers = cli.build_parser()
    assert {case[0] for case in OPTION_CASES} == set(subparsers)
    options = {name: {opt for a in sub._actions if a.dest != "help"
                      for opt in a.option_strings}
               for name, sub in subparsers.items()}
    assert NO_RESULT_OPTIONS <= set().union(*options.values())
    for command, _, varied, refused in OPTION_CASES:
        assert not set(varied) & set(refused)
        assert options[command] - NO_RESULT_OPTIONS == \
            set(varied) | set(refused), command


@pytest.mark.parametrize("command, base, option, value, valid", [
    pytest.param(command, base, option, value, valid,
                 id=" ".join(filter(None, [
                     command, base.get("--quantity"), option, value,
                     None if valid else "refused"])))
    for command, base, varied, refused in OPTION_CASES
    for valid, values in ((True, varied), (False, refused))
    for option, value in values.items()])
def test_every_option_changes_a_result(command, base, option, value, valid,
                                       capsys):
    """Setting an option to another valid value changes the data or the
    report, not only the echoed flags; a value that the command cannot use
    is a usage error.  maxima --format, nonmarkov --format and the --grid
    of an energy sweep used to change nothing."""
    want = _outcome(command, base, capsys)
    assert want[0] != 2
    got = _outcome(command, {**base, option: value}, capsys)
    if valid:
        assert got[0] != 2 and got != want
    else:
        assert got[0] == 2


def test_Omega_config_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "qb.cfg"
    cfg.write_text("Omega = 2\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["maxima", "--config", str(cfg), "--gamma", "2",
                  "--lambda", "5"])
    assert exc.value.code == 2
    assert "unknown config key: 'Omega'" in capsys.readouterr().err


def test_no_module_reads_the_environment():
    """The CLI promises that environment variables are never consulted."""
    package = Path(qb.__file__).parent
    readers = [f"{path.name}:{n}"
               for path in sorted(package.rglob("*.py"))
               for n, line in enumerate(path.read_text().splitlines(), 1)
               if re.search(r"\b(environb?|getenvb?)\b", line)]
    assert readers == []
