import cmath
import math
import tracemalloc

import numpy as np
import pytest

import qbattery as qb
from qbattery.model import excited_battery_state
from qbattery.propagator import (_amplitude_partial_fractions,
                                 _amplitude_poles, _cluster_tol,
                                 _eval_poles, _partial_fraction_terms,
                                 _poles, _sinhc, amplitude_grid,
                                 cubic_coefficients, kappa_grid)

GRID = [0.1, 0.5, 1.0, 5.0, 10.0, 50.0]


def params(gamma, lam, Omega=1.0, omega0=1.0):
    return qb.make_params(omega0, Omega, gamma, lam)


def eval_terms_reference(terms, t):
    """Per-term loop, one exponential per term: the reference the pole-table
    evaluator must reproduce bit for bit."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape, dtype=np.complex128)
    for coef, root, power in terms:
        contrib = coef * np.exp(root * t)
        if power:
            contrib = contrib * t ** power
        out += contrib
    return out


def amplitudes_memoryless_reference(p, init, tau):
    """The flat-spectrum closed form written out per cell: the reference the
    memoryless evaluator (one cell or a stack of cells) must reproduce bit
    for bit."""
    tau = np.asarray(tau, dtype=np.float64)
    om = p.coupling_qb_cavity
    gamma = p.coupling_cavity_env
    r = cmath.sqrt(complex(gamma * gamma - 16.0 * om * om))
    x = 0.25 * r * tau
    env = np.exp(-0.25 * gamma * tau)
    a = init.c2_0
    b = -1j * om * init.c1_0 + 0.25 * gamma * init.c2_0
    shc = _sinhc(x)
    ch = np.cosh(x)
    c2 = env * (a * ch + b * tau * shc)
    c2p = (-0.25 * gamma * c2
           + env * (a * (r * r / 16.0) * tau * shc + b * ch))
    return 1j * c2p / om, c2


def eval_terms(terms, t):
    return _eval_poles(_poles(terms), t)[0]


def double_root_cell(r):
    """(gamma, lambda) at Omega = 1 whose cubic has the double root r < -1
    and the simple root q = 2r/(r^2 - 1)."""
    q = 2 * r / (r * r - 1)
    lam = -(2 * r + q)
    return 2 * (r * r + 2 * r * q - 1) / lam, lam


TRIPLE_ROOT = (16 * math.sqrt(3) / 9, 3 * math.sqrt(3))
DEGENERACY_CELLS = (
    [tuple(float(v) for v in cell) for cell in np.exp(
        np.random.default_rng(7).uniform(np.log([1e-3, 1e-3]),
                                         np.log([50.0, 1e3]), size=(200, 2)))]
    + [TRIPLE_ROOT]
    + [double_root_cell(r) for r in (-1.01, -1.2, -1.5, -2.0, -3.0, -10.0)])


class TestSolveRoots:
    def test_decoupled_environment_factorization(self):
        # gamma = 0: p factors as (s + lam)(s^2 + Omega^2)
        pr = qb.solve_roots(params(0.0, 0.7))
        for want in (-0.7, 1j, -1j):
            assert min(abs(got - want) for got in pr.roots) < 1e-12

    @pytest.mark.parametrize("gamma", GRID)
    @pytest.mark.parametrize("lam", GRID)
    def test_residual_vieta_stability(self, gamma, lam):
        p = params(gamma, lam)
        pr = qb.solve_roots(p)
        coeffs = cubic_coefficients(p)
        for s in pr.roots:
            assert abs(np.polyval(coeffs, s)) < 1e-10
        roots = np.array(pr.roots)
        assert np.sum(roots) == pytest.approx(-lam, abs=1e-9)
        assert np.prod(roots) == pytest.approx(-lam, abs=1e-9 * max(1, lam))
        assert np.all(roots.real <= 1e-10)
        # real-coefficient cubic: set closed under conjugation
        for s in roots:
            assert np.min(np.abs(roots - np.conj(s))) < 1e-9

    @pytest.mark.parametrize("gamma", GRID)
    @pytest.mark.parametrize("lam", GRID)
    def test_residues_sum_to_zero(self, gamma, lam):
        pr = qb.solve_roots(params(gamma, lam))
        assert abs(sum(pr.residues_kappa)) < 1e-10

    def test_rejects_memoryless(self):
        with pytest.raises(ValueError):
            qb.solve_roots(params(0.1, math.inf))

    def test_degenerate_matches_pairwise_distance(self):
        """``degenerate`` comes from the confluent terms; the pairwise
        root-distance check it replaced is the reference."""
        for gamma, lam in DEGENERACY_CELLS:
            p = params(gamma, lam)
            pr = qb.solve_roots(p)
            tol = _cluster_tol(p)
            pairwise = any(abs(pr.roots[i] - pr.roots[j]) < tol
                           for i in range(3) for j in range(i + 1, 3))
            assert pr.degenerate == pairwise, (gamma, lam)
        assert any(qb.solve_roots(params(*cell)).degenerate
                   for cell in DEGENERACY_CELLS)


class TestKappa:
    def test_rabi_limit(self):
        p = params(0.0, 1.0)
        taus = np.linspace(0.0, 10.0, 101)
        np.testing.assert_allclose(kappa_grid(p, taus), -1j * np.sin(taus),
                                   atol=1e-12)
        assert qb.kappa_at(p, math.pi / 2) == pytest.approx(-1j, abs=1e-12)

    @pytest.mark.parametrize("gamma,lam", [(0.1, 0.1), (1.0, 5.0), (10.0, 0.5)])
    def test_kappa_zero_at_origin(self, gamma, lam):
        assert abs(qb.kappa_at(params(gamma, lam), 0.0)) < 1e-12

    def test_kappa_against_oracle(self):
        p = params(0.1, 0.1)
        series = qb.integrate(p, qb.empty_battery_state(), 2.0,
                              t_eval=np.array([2.0]))
        assert qb.kappa_at(p, 2.0) == pytest.approx(series.c2[0], abs=1e-8)

    @pytest.mark.parametrize("gamma", GRID)
    @pytest.mark.parametrize("lam", GRID)
    def test_bounded_by_one(self, gamma, lam):
        taus = np.linspace(0.0, 50.0, 2001)
        assert np.max(np.abs(kappa_grid(params(gamma, lam), taus))) <= 1 + 1e-9

    @pytest.mark.parametrize("gamma,lam", [(0.1, 0.1), (2.0, 1.0), (5.0, 10.0)])
    def test_initial_slope(self, gamma, lam):
        # dkappa/dtau at 0 is -i*Omega
        h = 1e-6
        p = params(gamma, lam)
        slope = (qb.kappa_at(p, h) - qb.kappa_at(p, 0.0)) / h
        assert slope == pytest.approx(-1j, abs=1e-5)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            qb.kappa_at(params(0.1, 0.1), -1.0)


class TestKappaMemoryless:
    def test_gamma_zero_is_rabi(self):
        p = params(0.0, math.inf)
        taus = np.linspace(0.0, 10.0, 101)
        np.testing.assert_allclose(kappa_grid(p, taus),
                                   -1j * np.sin(taus), atol=1e-12)

    def test_critical_damping_value(self):
        # gamma = 4*Omega, Omega*tau = 1: removable R -> 0 limit
        p = params(4.0, math.inf)
        assert qb.kappa_memoryless_at(p, 1.0) == pytest.approx(
            -1j * math.exp(-1.0), abs=1e-12)

    def test_branch_continuity_across_threshold(self):
        taus = np.linspace(0.0, 10.0, 201)
        below = kappa_grid(params(4.0 - 1e-7, math.inf), taus)
        above = kappa_grid(params(4.0 + 1e-7, math.inf), taus)
        np.testing.assert_allclose(below, above, atol=1e-6)

    def test_peak_population(self):
        p = params(0.1, math.inf)
        taus = np.linspace(0.0, 25.0, 20001)
        peak = np.max(np.abs(kappa_grid(p, taus)) ** 2)
        assert peak == pytest.approx(0.925, abs=0.005)

    def test_rejects_finite_width(self):
        with pytest.raises(ValueError):
            qb.kappa_memoryless_at(params(0.1, 0.1), 1.0)

    def test_dispatch_from_kappa_at(self):
        p = params(0.3, math.inf)
        assert qb.kappa_at(p, 2.0) == qb.kappa_memoryless_at(p, 2.0)


class TestAmplitudes:
    def test_empty_start_matches_kappa(self):
        p = params(0.7, 2.0)
        for tau in (0.0, 0.5, 3.0, 12.0):
            _, c2 = qb.amplitudes_at(p, qb.empty_battery_state(), tau)
            assert c2 == pytest.approx(qb.kappa_at(p, tau), abs=1e-12)

    def test_excited_start_rabi(self):
        p = params(0.0, 1.0)
        taus = np.linspace(0.0, 10.0, 101)
        c1, c2 = amplitude_grid(p, excited_battery_state(), taus)
        np.testing.assert_allclose(c2, np.cos(taus), atol=1e-12)
        np.testing.assert_allclose(c1, -1j * np.sin(taus), atol=1e-12)

    def test_superposition_against_oracle(self):
        p = params(0.1, 0.1)
        init = qb.make_initial_state(1 / math.sqrt(2), 1 / math.sqrt(2))
        series = qb.integrate(p, init, 1.0, t_eval=np.array([1.0]))
        c1, c2 = qb.amplitudes_at(p, init, 1.0)
        assert c1 == pytest.approx(series.c1[0], abs=1e-8)
        assert c2 == pytest.approx(series.c2[0], abs=1e-8)

    @pytest.mark.parametrize("Omega", [1.0, 2.5, 0.03])
    def test_memoryless_bytes_match_closed_form_reference(self, Omega):
        """gamma = 4 Omega is R = 0, the sinhc series branch."""
        inits = [qb.empty_battery_state(), excited_battery_state(),
                 qb.make_initial_state(0.6, 0.8j)]
        for g in (0.0, 0.1, 2.0, 4.0, 7.5):
            p = params(g * Omega, math.inf, Omega)
            for init in inits:
                for tau in (np.linspace(0.0, 60.0, 3001) / Omega,
                            np.float64(1.7 / Omega)):
                    got = amplitude_grid(p, init, tau)
                    want = amplitudes_memoryless_reference(p, init, tau)
                    assert all(x.tobytes() == y.tobytes()
                               for x, y in zip(got, want))

    def test_memoryless_general_init_against_oracle(self):
        p = params(0.5, math.inf)
        init = qb.make_initial_state(0.6, 0.8j)
        series = qb.integrate_memoryless(p, init, 4.0,
                                         t_eval=np.array([4.0]))
        c1, c2 = qb.amplitudes_at(p, init, 4.0)
        assert c1 == pytest.approx(series.c1[0], abs=1e-8)
        assert c2 == pytest.approx(series.c2[0], abs=1e-8)


class TestConfluentExpansion:
    def test_double_root_matches_perturbed_simple(self):
        num = np.array([2.0 + 1j, -0.5])
        a, b = -0.3 + 0.4j, -1.1 + 0.0j
        eps = 1e-6
        exact = _partial_fraction_terms(num, np.array([a, a, b]), 1e-9)
        nearby = _partial_fraction_terms(num, np.array([a, a + eps, b]), 1e-9)
        t = np.linspace(0.0, 5.0, 50)
        np.testing.assert_allclose(eval_terms(exact, t),
                                   eval_terms(nearby, t), atol=1e-4)
        assert any(p == 1 for _, _, p in exact)
        assert (eval_terms(exact, t).tobytes()
                == eval_terms_reference(exact, t).tobytes())

    def test_triple_root_matches_perturbed_simple(self):
        num = np.array([1.0, 0.5j])
        a = -0.2 + 0.1j
        eps = 1e-5
        exact = _partial_fraction_terms(num, np.array([a, a, a]), 1e-9)
        nearby = _partial_fraction_terms(
            num, np.array([a, a + eps, a - eps]), 1e-9)
        t = np.linspace(0.0, 4.0, 40)
        np.testing.assert_allclose(eval_terms(exact, t),
                                   eval_terms(nearby, t), atol=1e-4)
        assert any(p == 2 for _, _, p in exact)
        assert (eval_terms(exact, t).tobytes()
                == eval_terms_reference(exact, t).tobytes())


SEEDED_CELLS = [tuple(float(v) for v in cell) for cell in np.exp(
    np.random.default_rng(20240817).uniform(
        np.log([1e-3, 1e-3]), np.log([20.0, 100.0]), size=(50, 2)))]
# gamma, lambda: the triple root of the cubic, a zero-discriminant point
# (double root, confluent terms) and two extreme widths
SPECIAL_CELLS = [(16 * math.sqrt(3) / 9, 3 * math.sqrt(3)),
                 (3.2406446189062073, 6.0), (0.1, 1e7), (0.1, 1e9)]


class TestPoleEvaluator:
    @pytest.mark.parametrize("gamma,lam", SEEDED_CELLS + SPECIAL_CELLS)
    def test_bytes_match_per_term_loop(self, gamma, lam):
        p = params(gamma, lam)
        inits = [qb.empty_battery_state(), excited_battery_state(),
                 qb.make_initial_state(0.6, 0.8j)]
        for tau in (np.linspace(0.0, 50.0, 2001), np.float64(3.7)):
            kap = kappa_grid(p, tau)
            want = eval_terms_reference(qb.solve_roots(p).kappa_terms, tau)
            assert kap.shape == np.shape(tau)
            assert kap.tobytes() == want.tobytes()
            for init in inits:
                got = amplitude_grid(p, init, tau)
                terms = _amplitude_partial_fractions(p, init)
                for amp, amp_terms in zip(got, terms):
                    want = eval_terms_reference(amp_terms, tau)
                    assert amp.shape == np.shape(tau)
                    assert amp.tobytes() == want.tobytes()

    def test_zero_coefficient_rows_are_skipped(self):
        """c2's cancelled 1/s pole has coefficient exactly 0 at Omega = 1
        and leaves the poles; a roundoff coefficient at a small Omega is
        kept, and the values still match the per-term loop."""
        tau = np.linspace(0.0, 50.0, 2001)
        for gamma, lam in SPECIAL_CELLS[:2] + [(0.5, 0.5)]:
            for init in (qb.empty_battery_state(), excited_battery_state()):
                roots, coefs = _amplitude_poles(params(gamma, lam), init)
                assert np.all(roots != 0)
                assert np.all(coefs.any(axis=(0, 2)))  # no all-zero root
        om = 0.003265088842593968
        p = params(0.08856090101436478 * om, 16.036066952937396 * om, om)
        init = excited_battery_state()
        roots, coefs = _amplitude_poles(p, init)
        [zero] = np.flatnonzero(roots == 0)
        assert coefs[1, zero, 0] != 0
        got = amplitude_grid(p, init, tau / om)
        for amp, terms in zip(got, _amplitude_partial_fractions(p, init)):
            assert amp.tobytes() == eval_terms_reference(terms,
                                                         tau / om).tobytes()

    def test_double_root_cell_is_confluent(self):
        pr = qb.solve_roots(params(*SPECIAL_CELLS[1]))
        assert pr.degenerate
        assert any(power == 1 for _, _, power in pr.kappa_terms)

    @pytest.mark.parametrize("lam,arrays", [(0.7, 5.0), (math.inf, 6.5)])
    def test_peak_memory(self, lam, arrays):
        """Peak traced allocation of one 200001-point call, c1 and c2
        included, stays within the peak of the per-term loop: 5
        result-sized complex arrays (16.0 MB) at finite width, 6.5
        (20.8 MB) in the memoryless closed form."""
        p = params(0.3, lam)
        tau = np.linspace(0.0, 200.0, 200001)
        amplitude_grid(p, excited_battery_state(), tau)  # fill the caches
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            amplitude_grid(p, excited_battery_state(), tau)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak <= arrays * tau.size * 16 + 4096


class TestOracleEquivalence:
    @pytest.mark.parametrize("gamma", GRID)
    @pytest.mark.parametrize("lam", GRID)
    def test_uniform_agreement(self, gamma, lam):
        p = params(gamma, lam)
        taus = np.linspace(0.0, 50.0, 501)
        series = qb.integrate(p, qb.empty_battery_state(), 50.0, t_eval=taus)
        np.testing.assert_allclose(kappa_grid(p, taus), series.c2, rtol=0,
                                   atol=1e-8)


class TestMemorylessConvergence:
    def test_large_width_limit(self):
        taus = np.linspace(0.0, 25.0, 2001)
        reference = kappa_grid(params(0.1, math.inf), taus)
        dev3 = np.max(np.abs(kappa_grid(params(0.1, 1e3), taus) - reference))
        dev4 = np.max(np.abs(kappa_grid(params(0.1, 1e4), taus) - reference))
        assert dev3 < 2e-2
        assert dev4 < dev3


class TestTrajectory:
    def test_rabi_population(self):
        tr = qb.trajectory(params(0.0, 1.0), tmax=math.pi, steps=1000)
        np.testing.assert_allclose(tr.population, np.sin(tr.times) ** 2,
                                   atol=1e-12)

    def test_columns_consistent(self):
        tr = qb.trajectory(params(0.1, 0.1), tmax=25.0, steps=401)
        np.testing.assert_allclose(tr.stored_energy, tr.population, atol=0)
        assert np.all(tr.ergotropy <= tr.stored_energy + 1e-12)
        assert np.all(tr.population >= 0)
        assert np.all(tr.population <= 1 + 1e-9)

    def test_with_memory_peak_exceeds_memoryless(self):
        tr = qb.trajectory(params(0.1, 0.1), tmax=25.0, steps=2001)
        assert np.max(tr.stored_energy) > 0.925

    def test_validation(self):
        with pytest.raises(ValueError):
            qb.trajectory(params(0.1, 0.1), tmax=0.0)
        with pytest.raises(ValueError):
            qb.trajectory(params(0.1, 0.1), tmax=1.0, steps=1)
