import math
import struct
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize

import qbattery as qb
from qbattery.metrics import maximize_over_tau_many
from qbattery.propagator import amplitude_grid


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

        def nan_amplitudes(params, init, taus):
            c1, c2 = amplitude_grid(params, init, taus)
            c2 = c2.copy()
            c2[len(c2) // 2] = math.nan
            return c1, c2

        monkeypatch.setattr(prop, "amplitude_grid", nan_amplitudes)
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
        from qbattery.metrics import _survival
        p = params(1.0, 1.0)
        report = qb.blp_nonmarkovianity(p)
        total = 0.0
        for a, b in report.backflow_intervals:
            da, _ = _survival(p, np.array([a]))  # Omega = 1: same units
            db, _ = _survival(p, np.array([b]))
            gain = db[0] - da[0]
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
        with pytest.warns(UserWarning, match="truncated"):
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
        with pytest.warns(UserWarning, match="boundary"):
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
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # slow decay may flag truncation
            vals = [qb.blp_nonmarkovianity(params(g, lam)).measure
                    for g in self.GRID]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def golden_max_reference(f, a, b, xtol):
    """Scalar golden-section maximization: the reference the lockstep
    search must reproduce bit for bit, cell by cell."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
    x = 0.5 * (a + b)
    return x, f(x)


def maximize_reference(params, init=None, tmax=None):
    """Per-cell search: 2000-point scan, then a scalar golden section with
    one single-point ``amplitude_grid`` call per step."""
    om = params.coupling_qb_cavity
    init = qb.empty_battery_state() if init is None else init
    tmax = 50.0 / om if tmax is None else tmax
    n = 2000
    taus = np.linspace(0.0, tmax, n)

    def pop_at(t):
        _, c2 = amplitude_grid(params, init, np.asarray(t, dtype=np.float64))
        return np.minimum(np.abs(c2) ** 2, 1.0)

    i = int(np.argmax(pop_at(taus)))
    tau_star, p_star = golden_max_reference(
        lambda t: float(pop_at(np.array([t]))[0]),
        float(taus[max(i - 1, 0)]), float(taus[min(i + 1, n - 1)]),
        1e-8 / om)
    w = qb.ergotropy_qubit(params, p_star)
    return qb.MaximaReport(qb.stored_energy(params, p_star), w,
                           om * tau_star, om * tau_star if w > 0.0 else math.nan,
                           tau_star > tmax - (tmax / (n - 1)))


def same_report(got, want):
    """All five fields equal as bytes; NaN equals NaN."""
    def same(x, y):
        return ((math.isnan(x) and math.isnan(y))
                or struct.pack("<d", x) == struct.pack("<d", y))
    return (all(same(getattr(got, f), getattr(want, f))
                for f in ("delta_e_max", "w_max", "tau_at_e_max",
                          "tau_at_w_max"))
            and got.at_boundary is want.at_boundary)


# memoryless (gamma = 4 Omega is the quadratic's double root, confluent
# terms), the triple root, a double root, lambda/Omega = 1e7, and cells at
# Omega != 1, where the golden-section tolerance 1e-8/Omega scales
BATCH_CELLS = (
    [params(g, math.inf) for g in (0.1, 2.0, 4.0, 7.5)]
    + [params(16 * math.sqrt(3) / 9, 3 * math.sqrt(3)),
       params(3.2406446189062073, 6.0), params(0.1, 1e7),
       params(0.1, 0.1), params(1.0, 1.0), params(0.0, 1.0)]
    + [qb.make_params(2.0, 2.5, 2.5 * g, 2.5 * lam)
       for g, lam in ((0.1, 0.1), (0.7, math.inf), (5.0, 0.3))]
    + [qb.make_params(1.0, 0.04, 0.004, 0.02)])
BATCH_INITS = {"empty": None, "excited": qb.excited_battery_state(),
               "general": qb.make_initial_state(0.6, 0.8j)}


class TestMaximizeBatch:
    """The lockstep batch search against the per-cell search it replaced."""

    @pytest.mark.parametrize("tmax", [None, 1.0], ids=["default", "boundary"])
    @pytest.mark.parametrize("init", BATCH_INITS.values(), ids=BATCH_INITS)
    def test_bytes_match_per_cell_reference(self, init, tmax):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batch = maximize_over_tau_many(BATCH_CELLS, init, tmax)
            for p, got in zip(BATCH_CELLS, batch):
                assert same_report(got, maximize_reference(p, init, tmax)), p
                alone = maximize_over_tau_many([p], init, tmax)[0]
                assert same_report(alone, got), p
        if tmax is not None and init is None:  # Rabi-like peaks after 1.0
            assert any(r.at_boundary for r in batch)
        assert len(batch) == len(BATCH_CELLS)

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
        with pytest.warns(UserWarning, match="boundary") as record:
            maximize_over_tau_many([params(0.0, 1.0), params(0.0, 2.0)],
                                   tmax=1.0)
        assert len(record) == 1

    @pytest.mark.parametrize("tmax", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tmax(self, tmax):
        with pytest.raises(ValueError, match="positive and finite"):
            maximize_over_tau_many([params(0.5, 0.5)], tmax=tmax)
