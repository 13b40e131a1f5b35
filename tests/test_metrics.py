import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize

import qbattery as qb
from qbattery import metrics, propagator
from qbattery.metrics import blp_nonmarkovianity_many, maximize_over_tau_many
from qbattery.figures import GRID_AXIS
from qbattery.propagator import _transfer_many, amplitude_grid, kappa_grid
from test_propagator import TRIPLE_ROOT, double_root_cell, transfer


def params(gamma, lam):
    return qb.make_params(1.0, 1.0, gamma, lam)


def random_density_matrix(rng, dim, pure=False):
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def orbit_minimum_energy(rho, h, rng, restarts=6):
    """Brute-force search of min over unitaries of tr(U rho U^dag H),
    parametrizing U = exp(iA) with A Hermitian."""
    dim = rho.shape[0]
    iu = np.triu_indices(dim, 1)
    noff = len(iu[0])

    def unpack(x):
        a = np.zeros((dim, dim), dtype=complex)
        a[iu] = x[:noff] + 1j * x[noff:2 * noff]
        a = a + a.conj().T
        a[np.diag_indices(dim)] = x[2 * noff:]
        return a

    def objective(x):
        u = expm(1j * unpack(x))
        return float(np.trace(u @ rho @ u.conj().T @ h).real)

    best = math.inf
    for _ in range(restarts):
        x0 = rng.normal(scale=1.5, size=dim * dim)
        res = minimize(objective, x0, method="L-BFGS-B")
        best = min(best, res.fun)
    return best


class TestStoredEnergy:
    def test_empty_and_full(self):
        p = params(0.1, 0.1)
        assert qb.stored_energy(p, 0.0) == 0.0
        assert qb.stored_energy(p, 1.0) == 1.0

    def test_scales_with_omega0(self):
        p = qb.make_params(2.0, 1.0, 0.1, 0.1)
        assert qb.stored_energy(p, 0.5) == 1.0

    def test_rejects_bad_population(self):
        p = params(0.1, 0.1)
        with pytest.raises(ValueError):
            qb.stored_energy(p, 1.1)
        with pytest.raises(ValueError):
            qb.stored_energy(p, -0.1)


class TestErgotropyQubit:
    def test_passive_boundary(self):
        p = params(0.1, 0.1)
        assert qb.ergotropy_qubit(p, 0.5) == 0.0
        assert qb.ergotropy_qubit(p, 0.3) == 0.0

    def test_pure_excited(self):
        p = params(0.1, 0.1)
        assert qb.ergotropy_qubit(p, 1.0) == 1.0

    def test_heaviside_gate(self):
        p = params(0.1, 0.1)
        for pop in np.linspace(0.0, 1.0, 101):
            w = qb.ergotropy_qubit(p, pop)
            if pop > 0.5:
                assert w > 0.0
            else:
                assert w == 0.0
            assert w <= qb.stored_energy(p, pop) + 1e-15


class TestArrayPopulation:
    """The energy metrics take a whole population column at once; each
    entry must carry the bytes of the scalar call on that entry."""

    EDGES = [0.0, 0.5, 1.0, 1.0 + 1e-9, -1e-12]

    @pytest.mark.parametrize("fn", [qb.stored_energy, qb.ergotropy_qubit])
    @pytest.mark.parametrize("omega0", [1.0, 2.5, 1e-3])
    def test_bytes_match_scalar_loop(self, fn, omega0, rng):
        p = qb.make_params(omega0, 1.0, 0.1, 0.1)
        pops = np.concatenate([rng.uniform(0.0, 1.0, 500), self.EDGES])
        got = fn(p, pops)
        assert isinstance(got, np.ndarray) and got.shape == pops.shape
        expected = np.array([fn(p, float(x)) for x in pops])
        assert got.tobytes() == expected.tobytes()
        assert fn(p, pops.reshape(5, -1)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("fn", [qb.stored_energy, qb.ergotropy_qubit])
    def test_scalar_gives_python_float(self, fn):
        p = params(0.1, 0.1)
        for pop in [0.75, np.float64(0.75), 1.0 + 1e-9, -1e-12]:
            assert type(fn(p, pop)) is float
        assert fn(p, 0.75) == fn(p, np.array([0.75]))[0]

    @pytest.mark.parametrize("fn", [qb.stored_energy, qb.ergotropy_qubit])
    @pytest.mark.parametrize("bad", [math.nan, 1.1, 1.0 + 2e-9, -1e-11])
    def test_one_bad_entry_rejects_the_array(self, fn, bad):
        pops = np.linspace(0.0, 1.0, 11)
        pops[4] = bad
        with pytest.raises(ValueError, match=r"population outside \[0, 1\]"):
            fn(params(0.1, 0.1), pops)
        with pytest.raises(ValueError, match=r"population outside \[0, 1\]"):
            fn(params(0.1, 0.1), bad)

    def test_nan_population_in_trajectory_raises(self, monkeypatch):
        import qbattery.propagator as prop
        eval_terms = prop._eval_terms

        def nan_c2(terms, t):
            outs = eval_terms(terms, t)  # the empty battery reads w alone
            outs[-1][len(outs[-1]) // 2] = math.nan
            return outs

        monkeypatch.setattr(prop, "_eval_terms", nan_c2)
        with pytest.raises(ValueError, match=r"population outside \[0, 1\]"):
            qb.trajectory(params(0.1, 0.1), tmax=5.0, steps=101)


class TestErgotropyGeneral:
    def test_matches_qubit_form(self):
        h = np.diag([1.0, 0.0])  # omega0 |e><e| in the {|e>, |g>} basis
        p = params(0.1, 0.1)
        for pop in np.arange(0.0, 1.0 + 1e-9, 1e-3):
            rho = np.diag([pop, 1.0 - pop])
            got = qb.ergotropy_general(rho, h)
            assert got == pytest.approx(qb.ergotropy_qubit(p, pop),
                                        abs=1e-12)

    def test_maximally_mixed_is_passive(self, rng):
        for dim in (2, 3, 4):
            h = np.diag(np.sort(rng.uniform(0, 3, size=dim)))
            assert qb.ergotropy_general(np.eye(dim) / dim, h) == pytest.approx(
                0.0, abs=1e-12)

    def test_pure_three_level_against_orbit_search(self, rng):
        h = np.diag([0.0, 1.0, 2.0])
        rho = random_density_matrix(rng, 3, pure=True)
        expected = np.trace(rho @ h).real - orbit_minimum_energy(rho, h, rng)
        assert qb.ergotropy_general(rho, h) == pytest.approx(expected,
                                                             abs=1e-6)

    def test_validation(self):
        h = np.diag([0.0, 1.0])
        with pytest.raises(ValueError):
            qb.ergotropy_general(np.array([[0.7, 0.5], [0.1, 0.3]]), h)
        with pytest.raises(ValueError):
            qb.ergotropy_general(np.diag([0.7, 0.7]), h)
        with pytest.raises(ValueError):
            qb.ergotropy_general(np.diag([1.5, -0.5]), h)
        with pytest.raises(ValueError):
            qb.ergotropy_general(np.diag([0.5, 0.5]), np.diag([1.0, 1j]))


class TestBlp:
    def test_gamma_zero_flagged_divergent(self):
        for lam in (1.0, math.inf):
            report = qb.blp_nonmarkovianity(params(0.0, lam))
            assert report.divergent
            assert math.isinf(report.measure)
            assert report.backflow_intervals == ()

    def test_memoryless_markovian_above_threshold(self):
        report = qb.blp_nonmarkovianity(params(5.0, math.inf))
        assert report.measure < 1e-9
        assert report.backflow_intervals == ()

    def test_memoryless_non_markovian_below_threshold(self):
        report = qb.blp_nonmarkovianity(params(2.0, math.inf))
        assert report.measure > 0.0
        assert len(report.backflow_intervals) > 0

    def test_measure_equals_interval_gains(self):
        p = params(1.0, 1.0)
        report = qb.blp_nonmarkovianity(p)
        total = 0.0
        for a, b in report.backflow_intervals:
            # Omega = 1: interval ends are times; D = |c2|^2 of |e><e|
            _, c2 = amplitude_grid(p, qb.excited_battery_state(),
                                   np.array([a, b]))
            gain = abs(c2[1]) ** 2 - abs(c2[0]) ** 2
            assert gain > 0.0
            total += gain
        assert report.measure == pytest.approx(total, abs=1e-10)

    def test_zero_iff_no_intervals(self):
        markov = qb.blp_nonmarkovianity(params(8.0, math.inf))
        assert markov.measure == 0.0 and not markov.backflow_intervals
        nonmk = qb.blp_nonmarkovianity(params(0.5, math.inf))
        assert nonmk.measure > 0.0 and nonmk.backflow_intervals

    def test_roundoff_at_zero_is_not_backflow(self):
        """D'(0) = 0 and D''(0) = -2 Omega^2: D falls right after t = 0.
        On this cell the computed D'(0) is positive by roundoff, which
        must not open a backflow interval at t = 0."""
        report = qb.blp_nonmarkovianity(
            params(3.1622776601683795, 5.011872336272722), grid=4405)
        assert report.measure == 0.0
        assert report.backflow_intervals == ()

    def test_truncation_flagged(self):
        """The report's flag is the one channel: nothing is warned."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = qb.blp_nonmarkovianity(params(0.1, 0.1))
        assert report.truncated
        assert report.measure > 0.0


class TestMaximize:
    def test_rabi_peak(self):
        report = qb.maximize_over_tau(params(0.0, 1.0), tmax=10.0)
        assert report.delta_e_max == pytest.approx(1.0, abs=1e-10)
        assert report.tau_at_e_max == pytest.approx(math.pi / 2, abs=1e-6)

    def test_memoryless_reference_values(self):
        report = qb.maximize_over_tau(params(0.1, math.inf))
        assert report.delta_e_max == pytest.approx(0.925, abs=0.005)
        assert report.w_max == pytest.approx(0.851, abs=0.005)

    def test_with_memory_advantage(self):
        mem = qb.maximize_over_tau(params(0.1, 0.1))
        flat = qb.maximize_over_tau(params(0.1, math.inf))
        assert mem.delta_e_max > flat.delta_e_max
        assert mem.w_max > flat.w_max

    def test_ergotropy_below_stored(self):
        for gamma, lam in [(0.1, 0.1), (1.0, 1.0), (5.0, math.inf)]:
            report = qb.maximize_over_tau(params(gamma, lam))
            assert 0.0 <= report.w_max <= report.delta_e_max <= 1.0 + 1e-9

    def test_boundary_warning(self):
        """The report's flag is the one channel: nothing is warned."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = qb.maximize_over_tau(params(0.0, 1.0), tmax=1.0)
        assert report.at_boundary


class TestTrends:
    GRID = [0.1, 0.5, 1.0, 5.0, 10.0]

    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_stored_energy_non_increasing_in_gamma(self, lam):
        vals = [qb.maximize_over_tau(params(g, lam)).delta_e_max
                for g in self.GRID]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("gamma", [0.1, 1.0])
    def test_stored_energy_non_increasing_in_lambda(self, gamma):
        vals = [qb.maximize_over_tau(params(gamma, lam)).delta_e_max
                for lam in self.GRID]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_backflow_non_increasing_in_gamma(self, lam):
        vals = [qb.blp_nonmarkovianity(params(g, lam)).measure
                for g in self.GRID]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def memoryless_peak(g):
    """(t*, Delta E_max) of the empty battery at lambda = inf, Omega = 1:
    c2 = -i w with w = e^(-g t/4) sin(wt)/w, w = sqrt(1 - g^2/16), below
    g = 4, t e^(-t) at g = 4, and (e^(s+ t) - e^(s- t))/(s+ - s-) above,
    s+- = (-g +- sqrt(g^2 - 16))/4."""
    if g < 4:
        om = math.sqrt(1.0 - g * g / 16.0)
        t = math.atan2(4.0 * om, g) / om
        return t, math.exp(-g * t / 2.0)
    if g == 4:
        return 1.0, math.exp(-2.0)
    r = math.sqrt(g * g - 16.0)
    sp, sm = (-g + r) / 4.0, (-g - r) / 4.0
    t = math.log(sm / sp) / (sp - sm)
    return t, ((math.exp(sp * t) - math.exp(sm * t)) / (sp - sm)) ** 2


def memoryless_blp(g):
    """BLP measure at lambda = inf: D = v^2 has its maxima e^(-g k pi/(2w))
    at t_k = k pi/w, so the backflow sums to 1/expm1(pi g/(2w)) below
    g = 4; D never rises at or above it."""
    if g >= 4:
        return 0.0
    return 1.0 / math.expm1(math.pi * g / (2.0 * math.sqrt(1.0 - g * g / 16)))


class TestMemorylessClosedForms:
    """The engine against the closed forms of the flat-spectrum limit."""

    GAMMAS = [0.1, 0.5, 1.0, 2.0, 3.0, 3.9, 4.0, 4.5, 6.0, 10.0, 30.0]

    def test_charging_optimum(self):
        reports = maximize_over_tau_many(
            [params(g, math.inf) for g in self.GAMMAS])
        for g, report in zip(self.GAMMAS, reports):
            tau, energy = memoryless_peak(g)
            assert report.delta_e_max == pytest.approx(energy, rel=6.4e-15)
            assert report.tau_at_e_max == pytest.approx(tau, rel=2.8e-15)
            assert not report.at_boundary

    def test_blp_measure(self):
        gammas = [0.5, 1.0, 2.0, 3.0, 3.9, 3.99, 4.0, 4.5, 8.0]
        reports = blp_nonmarkovianity_many(
            [params(g, math.inf) for g in gammas])
        for g, report in zip(gammas, reports):
            want = memoryless_blp(g)
            assert not report.truncated
            if want:
                assert report.measure == pytest.approx(want, rel=1.8e-13)
            else:
                assert report.measure == 0.0
                assert report.backflow_intervals == ()

    def test_blp_truncated_low(self):
        """At g = 0.1 D is still 7.6e-6 at the default horizon 200: the
        report is flagged and falls 4.9e-5 (relative) short of the sum."""
        report = qb.blp_nonmarkovianity(params(0.1, math.inf))
        want = memoryless_blp(0.1)
        assert report.truncated
        assert 0.0 < (want - report.measure) / want < 4.9e-4


def maximize_reference(params, init=None, tmax=None):
    """Per-cell search: 2000-point scan, then a scalar bisection on the
    sign of d|c2|^2/dt with one single-point ``amplitude_grid`` call per
    halving: an independent reference that the batch search must match
    within ``close_report``'s tolerances, cell by cell."""
    om = params.coupling_qb_cavity
    init = qb.empty_battery_state() if init is None else init
    tmax = 50.0 / om if tmax is None else tmax
    n = 2000
    taus = np.linspace(0.0, tmax, n)
    _, c2 = amplitude_grid(params, init, taus)
    i = int(np.argmax(np.abs(c2) ** 2))
    a, b = float(taus[max(i - 1, 0)]), float(taus[min(i + 1, n - 1)])
    for _ in range(60):
        mid = 0.5 * (a + b)
        c1, c2 = amplitude_grid(params, init, np.array([mid]))
        if 2.0 * np.real(np.conj(c2) * (-1j * om * c1))[0] > 0.0:
            a = mid
        else:
            b = mid
    tau_star = 0.5 * (a + b)
    _, c2 = amplitude_grid(params, init, np.array([tau_star]))
    p_star = float(np.abs(c2[0]) ** 2)
    w = qb.ergotropy_qubit(params, p_star)
    return qb.MaximaReport(qb.stored_energy(params, p_star), w,
                           om * tau_star, om * tau_star if w > 0.0 else math.nan,
                           tau_star > tmax - (tmax / (n - 1)))


def traced_peak(fn, *args):
    """Peak traced memory of fn(*args), in bytes above what was live."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def unit_cell(p):
    """The Omega = 1 cell of the ratios of ``p``: the engine runs on
    gamma/Omega and lambda/Omega, so its reports at Omega*tau horizons are
    those of this cell, byte for byte."""
    om = p.coupling_qb_cavity
    return qb.make_params(p.omega0, 1.0, p.coupling_cavity_env / om,
                          p.spectral_width / om)


def same_report(got, want):
    """All five fields equal as bytes; NaN equals NaN."""
    def same(x, y):
        return ((math.isnan(x) and math.isnan(y))
                or struct.pack("<d", x) == struct.pack("<d", y))
    return (all(same(getattr(got, f), getattr(want, f))
                for f in ("delta_e_max", "w_max", "tau_at_e_max",
                          "tau_at_w_max"))
            and got.at_boundary is want.at_boundary)


def close_report(got, want, value=1e-14, tau=1e-14):
    """The optima of both reports within ``value`` relative (the ergotropy
    2p - 1 within twice that times the energy, the difference it inherits
    from p), their times within ``tau`` * max(tau, 1), the flag equal: two
    searches that stop at sign changes of the slope within its roundoff
    agree to these tolerances, not bit for bit."""
    def near(x, y, tol):
        return (math.isnan(x) and math.isnan(y)) or abs(x - y) <= tol
    energy = want.delta_e_max
    return (near(got.delta_e_max, energy, value * energy)
            and near(got.w_max, want.w_max, 2.0 * value * energy)
            and all(near(getattr(got, f), getattr(want, f),
                         tau * max(getattr(want, f), 1.0))
                    for f in ("tau_at_e_max", "tau_at_w_max"))
            and got.at_boundary is want.at_boundary)


# memoryless (gamma = 4 Omega is the quadratic's double root, confluent
# terms), the triple root, a double root, lambda/Omega = 1e7, and cells at
# Omega != 1, where the slope -i*Omega*c1 scales
TRIPLE_ROOT_CELL = params(16 * math.sqrt(3) / 9, 3 * math.sqrt(3))
BATCH_CELLS = (
    [params(g, math.inf) for g in (0.1, 2.0, 4.0, 7.5)]
    + [TRIPLE_ROOT_CELL,
       params(3.2406446189062073, 6.0), params(0.1, 1e7),
       params(0.1, 0.1), params(1.0, 1.0), params(0.0, 1.0)]
    + [qb.make_params(2.0, 2.5, 2.5 * g, 2.5 * lam)
       for g, lam in ((0.1, 0.1), (0.7, math.inf), (5.0, 0.3))]
    + [qb.make_params(1.0, 0.04, 0.004, 0.02)])
BATCH_INITS = {"empty": None, "excited": qb.excited_battery_state(),
               "general": qb.make_initial_state(0.6, 0.8j)}


class TestMaximizeBatch:
    """The batch search against a per-cell scalar search by halvings."""

    @pytest.mark.parametrize("tmax", [None, 1.0], ids=["default", "boundary"])
    @pytest.mark.parametrize("init", BATCH_INITS.values(), ids=BATCH_INITS)
    def test_bytes_match_per_cell_reference(self, init, tmax):
        """Each report within ``close_report``'s tolerances of the halving
        reference, and byte for byte that of its one-cell batch."""
        cells = BATCH_CELLS
        batch = maximize_over_tau_many(cells, init, tmax)
        if init is BATCH_INITS["excited"]:
            # at the triple root the partial fractions cancel terms of
            # 4e10, so near tau = 0 v moves in steps of 2^-20 = 9.5e-7
            # (ROADMAP item 2), and the optimum, exactly |c2(0)|^2 = 1,
            # reads 1 - 1.9e-6 or 1 - 3.8e-6 near tau = 0
            got = batch[cells.index(TRIPLE_ROOT_CELL)]
            assert abs(got.delta_e_max - 1.0) <= 1e-5
            assert got.tau_at_e_max < 1e-6
        for p, got in zip(cells, batch):
            want = maximize_reference(unit_cell(p), init, tmax)
            if p is TRIPLE_ROOT_CELL:
                # populations move in steps of about 1e-6 there, so a
                # maximum's time is defined to sqrt(2e-6), 1.4e-3
                assert close_report(got, want, 1e-5, 1.4e-3), p
            else:
                assert close_report(got, want), p
            alone = maximize_over_tau_many([p], init, tmax)[0]
            assert same_report(alone, got), p
        if tmax is not None and init is None:  # Rabi-like peaks after 1.0
            assert any(r.at_boundary for r in batch)
        assert len(batch) == len(cells)

    def test_independent_of_batch_order(self):
        forward = maximize_over_tau_many(BATCH_CELLS)
        backward = maximize_over_tau_many(BATCH_CELLS[::-1])[::-1]
        assert all(same_report(f, b) for f, b in zip(forward, backward))

    def test_single_cell_is_one_cell_batch(self):
        p = params(0.5, 0.5)
        assert same_report(qb.maximize_over_tau(p),
                           maximize_over_tau_many([p])[0])

    def test_empty_batch(self):
        assert maximize_over_tau_many([]) == []

    def test_one_boundary_warning_per_batch(self):
        """Each report is flagged, and the batch warns nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = maximize_over_tau_many(
                [params(0.0, 1.0), params(0.0, 2.0)], tmax=1.0)
        assert [r.at_boundary for r in reports] == [True, True]

    @pytest.mark.parametrize("tmax", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tmax(self, tmax):
        with pytest.raises(ValueError, match="positive and finite"):
            maximize_over_tau_many([params(0.5, 0.5)], tmax=tmax)


class TestMaximizeScan:
    """The scan reads c2 of a stack of cells on the blocked grid, a chunk
    of cells to a pass, and finds the largest sample of a pointwise
    np.linspace scan of each cell, so every report keeps its bytes."""

    @pytest.mark.parametrize("init", BATCH_INITS.values(), ids=BATCH_INITS)
    def test_peak_matches_pointwise_scan_on_figure_axes(self, init):
        init = qb.empty_battery_state() if init is None else init
        taus = np.linspace(0.0, 50.0, metrics.MAXIMA_SCAN_POINTS)
        cells = [(g, lam) for g in GRID_AXIS
                 for lam in GRID_AXIS + (math.inf,)]
        got = metrics._scan_peaks(_transfer_many(cells), init, 50.0)
        assert len(got) == len(cells) == 462
        mismatches = []
        for cell, peak in zip(cells, got):
            _, c2 = amplitude_grid(params(*cell), init, taus)
            want = np.argmax(metrics._clipped_population(np.abs(c2) ** 2))
            if peak != want:
                mismatches.append(cell)
        assert mismatches == []

    @pytest.mark.parametrize("init", BATCH_INITS.values(), ids=BATCH_INITS)
    def test_bytes_match_one_cell_batches_across_scan_chunks(self, init):
        """BATCH_CELLS rotated and repeated over three scan chunks and a
        partial fourth: the memoryless double root, the triple root,
        gamma = 0 and Omega != 1 cells sit in several chunks and at
        several places in a chunk."""
        size = metrics.MAXIMA_SCAN_CELLS
        cells = [BATCH_CELLS[(k + 5) % len(BATCH_CELLS)]
                 for k in range(3 * size + size // 2)]
        assert len(cells) % size and all(p in cells for p in BATCH_CELLS)
        batch = maximize_over_tau_many(cells, init)
        assert len(batch) == len(cells)
        for p, got in zip(cells, batch):
            assert same_report(got, maximize_over_tau_many([p], init)[0]), p

    def test_peak_memory(self):
        """The 441 figure cells in one call: one chunk of cells is scanned
        at a time, so the traced peak stays under 1.5 MB."""
        cells = [params(g, lam) for g in GRID_AXIS for lam in GRID_AXIS]
        assert traced_peak(maximize_over_tau_many, cells) <= 1.5e6


def blp_reference(params, tmax=None, grid=None):
    """Per-cell BLP search: scan D' on the grid, 60 halvings of each
    bracket of a sign change with one ``amplitude_grid`` call per halving
    for that cell alone, then D read at 0, the extrema and tmax; the
    truncation flag comes from the scan's last point.  An independent
    reference that the batch search must match within ``close_blp``'s
    tolerances, cell by cell."""
    om = params.coupling_qb_cavity
    tmax = 200.0 / om if tmax is None else tmax
    grid = int(round(tmax * om / 1e-3)) + 1 if grid is None else grid
    if params.coupling_cavity_env == 0.0:
        return qb.NonMarkovReport(math.inf, (), divergent=True)

    def survival(t):
        c1, c2 = amplitude_grid(params, qb.excited_battery_state(), t)
        return np.abs(c2) ** 2, 2.0 * np.real(np.conj(c2) * (-1j * om * c1))

    taus = np.linspace(0.0, tmax, grid)
    d, dp = survival(taus)
    sign = dp > 0.0
    sign[0] = False  # D'(0) = 0, D''(0) < 0
    i = np.nonzero(sign[1:] != sign[:-1])[0]
    a, b, rising = taus[i], taus[i + 1], sign[i]
    for _ in range(60):
        mid = 0.5 * (a + b)
        go_right = (survival(mid)[1] > 0.0) == rising
        a = np.where(go_right, mid, a)
        b = np.where(go_right, b, mid)
    crit = np.concatenate(([0.0], 0.5 * (a + b), [tmax]))
    d_crit = survival(crit)[0]
    measure, intervals = 0.0, []
    for ta, tb, da, db in zip(crit[:-1], crit[1:], d_crit[:-1], d_crit[1:]):
        if tb - ta > 0 and db - da > 0.0:
            measure += db - da
            intervals.append((om * ta, om * tb))
    return qb.NonMarkovReport(float(measure), tuple(intervals),
                              truncated=bool(d[-1] > 1e-6))


def blp_bytes(report):
    """Every float of a BLP report as ``float.hex``, with both flags."""
    return (report.measure.hex(),
            [(float(a).hex(), float(b).hex())
             for a, b in report.backflow_intervals],
            report.truncated, report.divergent)


def close_blp(got, want):
    """Both flags and the number of intervals equal, the measures within
    1e-14 relative plus 1e-15 absolute (D <= 1, so an ulp of an
    extremum's D is 1.1e-16) and every interval end within 1e-14 *
    max(tau, 1): the tolerances of two searches that stop at sign changes
    of D' within its roundoff."""
    if ((got.truncated, got.divergent, len(got.backflow_intervals))
            != (want.truncated, want.divergent,
                len(want.backflow_intervals))):
        return False
    if math.isinf(want.measure):
        return got.measure == want.measure
    return (abs(got.measure - want.measure)
            <= 1e-14 * want.measure + 1e-15
            and all(abs(x - y) <= 1e-14 * max(y, 1.0)
                    for g, w in zip(got.backflow_intervals,
                                    want.backflow_intervals)
                    for x, y in zip(g, w)))


# memoryless on both sides of gamma = 4 Omega, gamma = 0 (divergent) among
# live cells, the triple root, a double root, Omega != 1, lambda/Omega = 1e7
# and a cell truncated at the default horizon
BLP_CELLS = (
    [params(2.0, math.inf), params(0.0, 1.0), params(5.0, math.inf),
     TRIPLE_ROOT_CELL, params(3.2406446189062073, 6.0), params(0.1, 1e7),
     params(0.0, math.inf), params(1.0, 1.0), params(0.1, 0.1)]
    + [qb.make_params(2.0, 2.5, 2.5 * g, 2.5 * lam)
       for g, lam in ((0.1, 0.1), (0.7, math.inf), (1.0, 0.3))])


class TestBlpBatch:
    """The batch search against a per-cell BLP search by halvings."""

    @pytest.mark.parametrize("grid", [None, 2001], ids=["default", "coarse"])
    def test_bytes_match_per_cell_reference(self, grid):
        """Each report within ``close_blp``'s tolerances of the halving
        reference, and byte for byte that of its one-cell batch."""
        batch = blp_nonmarkovianity_many(BLP_CELLS, grid=grid)
        assert len(batch) == len(BLP_CELLS)
        for p, got in zip(BLP_CELLS, batch):
            assert close_blp(got, blp_reference(unit_cell(p), None, grid)), p
            assert blp_bytes(qb.blp_nonmarkovianity(p, grid=grid)) \
                == blp_bytes(got), p
        assert sum(r.divergent for r in batch) == 2
        assert any(r.truncated for r in batch)
        assert any(r.backflow_intervals for r in batch)

    def test_roundoff_at_zero_cell(self):
        p = params(3.1622776601683795, 5.011872336272722)
        got = blp_nonmarkovianity_many([params(1.0, 1.0), p], grid=4405)[1]
        assert close_blp(got, blp_reference(p, grid=4405))
        assert got.backflow_intervals == ()

    def test_independent_of_batch_order_and_grouping(self, monkeypatch):
        forward = blp_nonmarkovianity_many(BLP_CELLS, grid=2001)
        backward = blp_nonmarkovianity_many(BLP_CELLS[::-1],
                                            grid=2001)[::-1]
        monkeypatch.setattr(metrics, "BLP_REFINE_CELLS", 2)
        pairs = blp_nonmarkovianity_many(BLP_CELLS, grid=2001)
        for f, b, g in zip(forward, backward, pairs):
            assert blp_bytes(f) == blp_bytes(b) == blp_bytes(g)

    def test_empty_batch(self):
        assert blp_nonmarkovianity_many([]) == []

    def test_one_truncation_warning_per_batch(self):
        """Each report is flagged, and the batch warns nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = blp_nonmarkovianity_many(
                [params(0.1, 0.1), params(0.0, 1.0), params(0.1, 0.2)],
                tmax=20.0, grid=2001)
        assert [r.truncated for r in reports] == [True, False, True]

    @pytest.mark.parametrize("kwargs", [
        {"grid": 2}, {"tmax": 0.0}, {"tmax": -1.0}, {"tmax": math.nan},
        {"tmax": math.inf}, {"tmax": 1e-4},
        {"grid": metrics.BLP_MAX_GRID + 1}])
    def test_bad_options_raise_before_any_scan(self, kwargs, monkeypatch):
        """tmax = 1e-4 makes the default grid 1 point; a divergent cell
        first in the batch, and alone, is checked as well."""
        def no_scan(*args):
            raise AssertionError("scanned before the options were checked")

        monkeypatch.setattr(metrics, "_transfer_many", no_scan)
        monkeypatch.setattr(metrics, "_eval_terms", no_scan)
        monkeypatch.setattr(metrics, "_apply", no_scan)
        for batch in ([params(0.0, 1.0), params(1.0, 1.0)],
                      [params(0.0, math.inf)]):
            with pytest.raises(ValueError, match="grid|tmax"):
                blp_nonmarkovianity_many(batch, **kwargs)


def blp_brackets_reference(params, tmax, grid):
    """The complex scan: c1 and c2 of the excited battery on the grid and
    the sign of D' = 2 Re(conj(c2) (-i c1)), as ``_blp_brackets`` scanned
    before it read real parts; the brackets it must find exactly."""
    taus = np.linspace(0.0, tmax, grid)
    c1, c2 = amplitude_grid(params, qb.excited_battery_state(), taus)
    sign = 2.0 * np.real(np.conj(c2) * (-1j * c1)) > 0.0
    sign[0] = False
    i = np.nonzero(sign[1:] != sign[:-1])[0]
    return (np.concatenate(([0.0], taus[i], [tmax])),
            np.concatenate(([0.0], taus[i + 1], [tmax])),
            np.concatenate(([False], sign[i], [False])))


# the double-root curve, the triple point and points near it, and the
# memoryless double root gamma = 4 with points near it
EXCEPTIONAL_SCAN_CELLS = (
    [double_root_cell(r) for r in np.linspace(-6.0, -1.001, 12)]
    + [(TRIPLE_ROOT[0] * (1 + d), TRIPLE_ROOT[1])
       for d in (0.0, 1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3)]
    + [(4.0 * (1 + d), math.inf) for d in (0.0, 1e-9, -1e-9, 1e-6, -1e-6)])
# the wide domain: gamma/Omega log-uniform in [1e-2, 1e3], lambda/Omega
# log-uniform in [1e-3, 1e3] or, one cell in five, inf
WIDE_SCAN_CELLS = [
    (float(g), float(lam) if keep else math.inf)
    for (g, lam), keep in zip(
        np.exp(np.random.default_rng(20).uniform(
            np.log([1e-2, 1e-3]), np.log([1e3, 1e3]), size=(200, 2))),
        np.random.default_rng(21).uniform(size=200) > 0.2)]


class TestBlpScan:
    """The scan reads the entries w and v of U on the blocked grid, skips
    the intervals where a bound proves that neither changes sign, and finds
    the brackets of a pointwise scan of c1 and c2, so every report keeps
    its bytes."""

    @staticmethod
    def mismatches(cells, grid):
        return [(g, lam) for g, lam in cells if not all(
            np.array_equal(x, y) for x, y in zip(
                metrics._blp_brackets(transfer(params(g, lam)), 200.0, grid),
                blp_brackets_reference(params(g, lam), 200.0, grid)))]

    def test_brackets_match_complex_scan_on_figure_axes(self):
        cells = [(g, lam) for g in GRID_AXIS
                 for lam in GRID_AXIS + (math.inf,)]
        assert self.mismatches(cells, 2001) == []

    def test_brackets_match_complex_scan_at_default_grid(self):
        cells = ([(g, lam) for g in GRID_AXIS[::5]
                  for lam in GRID_AXIS[::5] + (math.inf,)]
                 + EXCEPTIONAL_SCAN_CELLS)
        assert self.mismatches(cells, 200001) == []

    @pytest.mark.parametrize("grid", [200001, 20001])
    def test_brackets_match_complex_scan_on_wide_domain(self, grid):
        assert self.mismatches(WIDE_SCAN_CELLS, grid) == []

    def test_reports_where_a_spacing_rule_alone_fails(self):
        """A grid of 64 points per period of D''s fastest frequency, cell by
        cell, misses the rising interval of width 0.019 from Omega*tau
        38.49227837862723 of the first cell and moves the end 57.3668043152
        of an interval of the second by an ulp; skipping only the intervals
        a bound proves keeps both."""
        rising, axis = params(39.204, 0.0718145), params(GRID_AXIS[11], 1.0)
        for p in (rising, axis):
            assert close_blp(qb.blp_nonmarkovianity(p), blp_reference(p)), p
        assert any(abs(a - 38.49227837862723) <= 1e-14 * a for a, _ in
                   qb.blp_nonmarkovianity(rising).backflow_intervals)

    def test_figure_axes_read_an_eighth_of_the_default_grid(self,
                                                            monkeypatch):
        """Over the 462 GRID_AXIS x (GRID_AXIS + inf) cells the evaluator
        fills at most 1/8 of the points of their default scans: the coarse
        pass and the intervals it cannot skip."""
        filled = []
        eval_terms = propagator._eval_terms

        def counting(*args):
            entries = eval_terms(*args)
            filled.append(entries[0].size)
            return entries

        monkeypatch.setattr(propagator, "_eval_terms", counting)
        monkeypatch.setattr(metrics, "_eval_terms", counting)
        cells = [(g, lam) for g in GRID_AXIS
                 for lam in GRID_AXIS + (math.inf,)]
        for g, lam in cells:
            metrics._blp_brackets(transfer(params(g, lam)), 200.0, 200001)
        assert sum(filled) <= len(cells) * 200001 / 8

    def test_long_horizon_skips_match_a_scan_of_every_point(self,
                                                            monkeypatch):
        """To Omega*tau 2000 at spacing 1e-3 the coarse pass spans several
        evaluator blocks, and on the double-root curve w and v fall under
        1e-165, where v*w rounds to zero: the brackets equal those of
        reading every point (the scan with no skipping)."""
        cells = ([double_root_cell(r) for r in (-6.0, -3.0, -1.5)]
                 + [(0.5, 2.0), (2.0, math.inf)])
        skipping = [metrics._blp_brackets(transfer(params(g, lam)), 2000.0,
                                          2000001) for g, lam in cells]
        monkeypatch.setattr(metrics, "BLP_MIN_SKIP", math.inf)
        for (g, lam), got in zip(cells, skipping):
            want = metrics._blp_brackets(transfer(params(g, lam)), 2000.0,
                                         2000001)
            assert all(np.array_equal(x, y) for x, y in zip(got, want)), g

    def test_report_where_partial_fractions_cancel(self):
        """Just below the triple point coefficients of about 1e7 cancel,
        so a bracket may differ near Omega*tau = 0.1; the report must
        not."""
        p = params(TRIPLE_ROOT[0] * (1 - 1e-12), TRIPLE_ROOT[1])
        assert close_blp(qb.blp_nonmarkovianity(p), blp_reference(p))

    def test_peak_memory(self):
        """One default 200001-point scan holds blocks of w and v: a traced
        peak under 3 MB, where holding w and v of the whole grid peaked at
        5.0 MB and the complex scan at 13.7 MB."""
        terms = transfer(params(0.1, 0.1))
        assert traced_peak(metrics._blp_brackets, terms, 200.0, 200001) <= 3e6


def slope(p, init, t):
    """d|c2|^2/dt = 2 Re(conj(c2) (-i c1)) at the times ``t``, from a
    pointwise ``amplitude_grid`` read of the cell ``p`` (Omega = 1)."""
    c1, c2 = amplitude_grid(p, init, np.asarray(t, dtype=np.float64))
    return 2.0 * np.real(np.conj(c2) * (-1j * c1))


# gamma/Omega log-uniform in [1e-2, 1e4], lambda/Omega log-uniform in
# [1e-3, 1e4] or, one cell in five, inf; a cell whose bracket from
# Omega*tau 0.025 to 0.075 has its maximum 1.084e-5 at 0.04565, where
# stopping once a step no longer halved returned 0.0406 (population 7.9e-6);
# a cell whose charging bracket holds three extrema, where Newton steps
# from its left end find a maximum below the bracket's midpoint; and one
# whose empty battery's stationary start (slope 0 at t = 0) must not read
# as a slope that keeps its sign
TRAP_CELL = params(908.6227050538575, 71.2956206788843)
WIDE_REFINE_CELLS = [
    params(float(g), float(lam) if i % 5 else math.inf)
    for i, (g, lam) in enumerate(np.exp(np.random.default_rng(24).uniform(
        np.log([1e-2, 1e-3]), np.log([1e4, 1e4]), size=(120, 2))))
] + [TRAP_CELL, params(2015.3077044076774, 30.97433110912979),
     params(4243.800515361025, math.inf)]


class TestRefine:
    """Safeguarded Newton steps on the exact slope of |c2|^2: a few reads
    of the evaluator a call, where 60 halvings read it 61 times, and each
    refined point a sign change of the slope within its roundoff."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """The number of ``_eval_terms`` calls of each ``_refine`` call."""
        per_call, count = [], [0]
        eval_terms, refine = propagator._eval_terms, metrics._refine

        def counting(*args):
            count[0] += 1
            return eval_terms(*args)

        def refining(*args):
            count[0] = 0
            result = refine(*args)
            per_call.append(count[0])
            return result

        monkeypatch.setattr(propagator, "_eval_terms", counting)
        monkeypatch.setattr(metrics, "_refine", refining)
        return per_call

    @pytest.mark.parametrize("init", BATCH_INITS.values(), ids=BATCH_INITS)
    def test_figure_cells_read_at_most_ten_times(self, init, reads):
        cells = [params(g, lam) for g in GRID_AXIS
                 for lam in GRID_AXIS + (math.inf,)]
        for tmax in (None, 1.0):
            maximize_over_tau_many(cells, init, tmax)
        assert len(reads) == 2 and max(reads) <= 10

    def test_default_blp_group_reads_at_most_ten_times(self, reads):
        cells = [params(g, lam) for g in GRID_AXIS[::6]
                 for lam in GRID_AXIS[::7] + (math.inf,)]
        assert len(cells) == metrics.BLP_REFINE_CELLS
        blp_nonmarkovianity_many(cells)
        assert len(reads) == 1 and reads[0] <= 10

    def test_trap_bracket(self):
        """Refined from the scan's bracket around its third point."""
        taus = np.linspace(0.0, 50.0, metrics.MAXIMA_SCAN_POINTS)
        terms = _transfer_many([(908.6227050538575, 71.2956206788843)])
        t, pop = metrics._refine(terms, qb.empty_battery_state(),
                                 taus[1:2], taus[3:4], True)
        assert t[0] == pytest.approx(0.0456512, abs=1e-7)
        assert pop[0] == pytest.approx(1.083969e-5, rel=1e-6)

    @pytest.mark.parametrize("init", [qb.empty_battery_state(),
                                      BATCH_INITS["general"]],
                             ids=["empty", "general"])
    def test_maxima_are_sign_changes_on_wide_domain(self, init):
        """The slope falls through zero within 1e-12 * max(tau, 1) of each
        optimum that is not a scan point; an optimum at a scan point ends
        a bracket whose slope keeps its sign, as the excited battery's, at
        tau = 0, does on every cell."""
        taus = np.linspace(0.0, 50.0, metrics.MAXIMA_SCAN_POINTS)
        checked = 0
        for p, report in zip(WIDE_REFINE_CELLS, maximize_over_tau_many(
                WIDE_REFINE_CELLS, init)):
            t = report.tau_at_e_max
            if np.abs(taus - t).min() <= 1e-9:
                continue
            eta = 1e-12 * max(t, 1.0)
            before, after = slope(p, init, [t - eta, t + eta])
            assert before > 0.0 >= after, (p, t)
            checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("init", [qb.empty_battery_state(),
                                      qb.excited_battery_state()],
                             ids=["empty", "excited"])
    def test_optimum_not_below_largest_sample_on_wide_domain(self, init):
        """No optimum falls below the largest sample of its scan: not at a
        stationary end (the empty battery's t = 0), and not at an end whose
        slope only seems to keep its sign.  For a general state an optimum
        at t = 0 is still missed where the first bracket holds a lower
        maximum inside (ROADMAP item 2)."""
        taus = np.linspace(0.0, 50.0, metrics.MAXIMA_SCAN_POINTS)
        for p, report in zip(WIDE_REFINE_CELLS, maximize_over_tau_many(
                WIDE_REFINE_CELLS, init)):
            _, c2 = amplitude_grid(p, init, taus)
            assert report.delta_e_max >= (np.abs(c2) ** 2).max() * (
                1.0 - 1e-13), p

    def test_blp_interval_ends_are_sign_changes_on_wide_domain(self):
        """D' rises through zero within 1e-12 * max(tau, 1) of each
        interval's start and falls through it at each end."""
        cells = WIDE_REFINE_CELLS[::2]
        checked = 0
        for p, report in zip(cells, blp_nonmarkovianity_many(
                cells, tmax=20.0, grid=20001)):
            for ends, sign in zip(np.reshape(report.backflow_intervals,
                                             (-1, 2)).T, (1.0, -1.0)):
                ends = ends[(ends > 0.0) & (ends < 20.0)]
                eta = 1e-12 * np.maximum(ends, 1.0)
                before = sign * slope(p, qb.excited_battery_state(),
                                      ends - eta)
                after = sign * slope(p, qb.excited_battery_state(),
                                     ends + eta)
                assert ((before <= 0.0) & (after >= 0.0)).all(), p
                checked += len(ends)
        assert checked >= 200


def at_omega(p, om):
    """The cell of the ratios of ``p`` at Omega = om."""
    return qb.make_params(p.omega0, om, om * p.coupling_cavity_env,
                          om * p.spectral_width)


def trajectory_bytes(traj):
    return [getattr(traj, f).tobytes() for f in
            ("times", "kappa", "population", "stored_energy", "ergotropy")]


# gamma/Omega log-uniform in [1e-2, 50], lambda/Omega log-uniform in
# [1e-2, 1e3] or inf, omega0 in [0.5, 2]; each cell at Omega = 2^k for
# k = -990, 990 and one seeded k with |k| <= 990, where the products and
# quotients by Omega are exact
_OMEGA_RNG = np.random.default_rng(20261018)
OMEGA_CELLS = [
    (qb.make_params(float(w), 1.0, float(g), float(lam) if i < 12
                    else math.inf), (-990, 990, int(k)))
    for i, (w, g, lam, k) in enumerate(zip(
        _OMEGA_RNG.uniform(0.5, 2.0, 16),
        np.exp(_OMEGA_RNG.uniform(math.log(1e-2), math.log(50.0), 16)),
        np.exp(_OMEGA_RNG.uniform(math.log(1e-2), math.log(1e3), 16)),
        _OMEGA_RNG.integers(-990, 991, 16)))]


class TestOmegaScaling:
    """The engine runs on gamma/Omega and lambda/Omega with horizons in
    Omega*tau: a cell at any Omega reports what the Omega = 1 cell of the
    same ratios reports, over the whole range make_params accepts."""

    @pytest.mark.parametrize("unit,exponents", OMEGA_CELLS)
    def test_powers_of_two_are_byte_identical(self, unit, exponents):
        x = np.linspace(0.0, 25.0, 501)
        want_max = [qb.maximize_over_tau(unit, init)
                    for init in BATCH_INITS.values()]
        want_blp = qb.blp_nonmarkovianity(unit, tmax=30.0, grid=3001)
        for k in exponents:
            p = at_omega(unit, 2.0 ** k)
            for init, want in zip(BATCH_INITS.values(), want_max):
                assert same_report(qb.maximize_over_tau(p, init),
                                   want), (k, init)
            assert blp_bytes(qb.blp_nonmarkovianity(
                p, tmax=30.0, grid=3001)) == blp_bytes(want_blp), k
            assert trajectory_bytes(qb.trajectory(p, tmax=25.0,
                                                  steps=201)) \
                == trajectory_bytes(qb.trajectory(unit, tmax=25.0,
                                                  steps=201)), k
            assert kappa_grid(p, x / p.coupling_qb_cavity).tobytes() \
                == kappa_grid(unit, x).tobytes(), k

    @pytest.mark.parametrize("gamma,lam", [(0.3, 0.7), (2.0, 5.0),
                                           (0.5, math.inf), (5.0, math.inf)])
    def test_powers_of_ten_agree(self, gamma, lam):
        """At Omega = 10^k the ratios round by an ulp, no more."""
        unit = params(gamma, lam)
        want = qb.maximize_over_tau(unit)
        x = np.linspace(0.0, 25.0, 501)
        kappa = kappa_grid(unit, x)
        for k in range(-300, 301, 10):
            p = at_omega(unit, 10.0 ** k)
            got = qb.maximize_over_tau(p)
            for f in ("delta_e_max", "w_max", "tau_at_e_max"):
                assert abs(getattr(got, f) - getattr(want, f)) <= 1e-13, k
            assert got.at_boundary is want.at_boundary
            assert np.max(np.abs(kappa_grid(p, x / p.coupling_qb_cavity)
                                 - kappa)) <= 1e-13, k

    def test_one_horizon_serves_a_mixed_batch(self):
        """One explicit tmax in Omega*tau is every cell's horizon, whatever
        its Omega: a batch mixing Omega values reports what the Omega = 1
        cells do."""
        units = [params(0.3, 0.7), params(2.0, 5.0), params(0.5, math.inf),
                 params(0.1, 0.1)]
        cells = [at_omega(u, 2.0 ** k) for u, k in
                 zip(units, (-700, 0, 3, 512))]
        for got, want in zip(maximize_over_tau_many(cells, tmax=10.0),
                             maximize_over_tau_many(units, tmax=10.0)):
            assert same_report(got, want)
        for got, want in zip(
                blp_nonmarkovianity_many(cells, tmax=30.0, grid=3001),
                blp_nonmarkovianity_many(units, tmax=30.0, grid=3001)):
            assert blp_bytes(got) == blp_bytes(want)
