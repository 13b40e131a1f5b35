import cmath
import math
import tracemalloc

import numpy as np
import pytest

import qbattery as qb
from qbattery.model import excited_battery_state
from qbattery.propagator import (_amplitude_poles, _eval_poles,
                                 _partial_fractions, _polynomials, _ratios,
                                 amplitude_grid, kappa_grid)

GRID = [0.1, 0.5, 1.0, 5.0, 10.0, 50.0]


def params(gamma, lam, Omega=1.0, omega0=1.0):
    return qb.make_params(omega0, Omega, gamma, lam)


def eval_terms_reference(poles, t, output=0):
    """Per-(root, power) loop over the poles of one output, highest power
    first and one exponential per nonzero term: the reference the pole
    evaluator must reproduce bit for bit."""
    roots, coefs = poles
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape, dtype=np.complex128)
    for root, rows in zip(roots, coefs[output]):
        for power in reversed(range(len(rows))):
            if rows[power] == 0:
                continue
            contrib = rows[power] * np.exp(root * t)
            if power:
                contrib = contrib * t ** power
            out += contrib
    return out


def kappa_poles(p):
    """Poles of kappa: the c2 row of the empty battery's poles."""
    roots, coefs = _amplitude_poles(p, qb.empty_battery_state())
    return roots, coefs[1:]


def _sinhc(z):
    """sinh(z)/z with a series for small |z| (removable singularity)."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 0.0, z)
    with np.errstate(invalid="ignore"):
        full = np.where(small, 1.0, np.sinh(zs) / np.where(small, 1.0, zs))
    series = 1.0 + z * z / 6.0 * (1.0 + z * z / 20.0)
    return np.where(small, series, full)


def amplitudes_memoryless_reference(p, init, tau):
    """The flat-spectrum closed form written out per cell, with
    R = sqrt(gamma^2 - 16 Omega^2):

        c2(t) = exp(-gamma t/4) (a cosh(R t/4) + b t sinhc(R t/4)),
        a = c2(0), b = c2'(0) + gamma/4 c2(0), c1 = i c2'/Omega.

    It overflows to nan once R t/4 > 710, so use it at moderate gamma."""
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
        coeffs = _polynomials(*_ratios(p))[0]
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
        _, coefs = kappa_poles(params(gamma, lam))
        assert abs(coefs[0, :, 0].sum()) < 1e-10

    def test_memoryless_quadratic_roots(self):
        """Memoryless roots are those of s^2 + gamma s/2 + Omega^2; at
        gamma = 4 Omega they are equal and take the confluent terms."""
        for Omega in (1.0, 2.5, 0.03, 0.1):
            for ratio in (0.0, 0.1, 2.0, 4.0, 7.5, 100.0):
                gamma = ratio * Omega
                pr = qb.solve_roots(params(gamma, math.inf, Omega))
                s1, s2 = pr.roots
                assert s1 + s2 == pytest.approx(-gamma / 2,
                                                abs=1e-14 * gamma + 1e-15)
                assert s1 * s2 == pytest.approx(Omega ** 2, rel=1e-14)
                assert (s1 == s2) == pr.degenerate == (ratio == 4.0)
                if pr.degenerate:
                    assert s1 == -Omega
                    _, coefs = kappa_poles(params(gamma, math.inf, Omega))
                    assert coefs[0, :, 1].any()

    def test_degenerate_matches_pairwise_distance(self):
        """``degenerate`` comes from the root clusters; a pairwise check of
        the distance relative to the larger root is the reference."""
        for gamma, lam in DEGENERACY_CELLS:
            pr = qb.solve_roots(params(gamma, lam))
            r = pr.roots
            pairwise = any(abs(r[i] - r[j]) < 1e-7 * max(abs(r[i]),
                                                          abs(r[j]))
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

    @pytest.mark.parametrize("lam", [0.5, math.inf])
    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau, lam):
        p = params(0.1, lam)
        with pytest.raises(ValueError):
            qb.kappa_at(p, tau)
        with pytest.raises(ValueError):
            qb.amplitudes_at(p, qb.empty_battery_state(), tau)


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
    def test_memoryless_matches_closed_form_reference(self, Omega):
        """The quadratic's poles give the closed form within 1e-12 away
        from its double root gamma = 4 Omega and exactly at it, and within
        1e-8 of it and of the oracle where the roots split by less than
        1e-6 relative, the band where the partial fractions meet the
        confluent cut-off."""
        inits = [qb.empty_battery_state(), excited_battery_state(),
                 qb.make_initial_state(0.6, 0.8j)]
        tau = np.linspace(0.0, 60.0, 3001) / Omega
        for g in (0.0, 0.1, 2.0, 4.0, 4.0 * (1 + 1e-6), 4.0 * (1 - 1e-6),
                  7.5, 13.0):
            p = params(g * Omega, math.inf, Omega)
            for init in inits:
                for t in (tau, np.float64(1.7 / Omega)):
                    got = amplitude_grid(p, init, t)
                    want = amplitudes_memoryless_reference(p, init, t)
                    for x, y in zip(got, want):
                        assert x.shape == y.shape
                        assert np.max(np.abs(x - y)) <= 1e-12, g
        for k in (1e-12, -1e-12, 1e-9, -1e-9):
            p = params(4.0 * (1 + k) * Omega, math.inf, Omega)
            for init in inits:
                got = amplitude_grid(p, init, tau)
                want = amplitudes_memoryless_reference(p, init, tau)
                series = qb.integrate(p, init, tau[-1], t_eval=tau[::50],
                                      tol=1e-12)
                for x, y, z in zip(got, want, (series.c1, series.c2)):
                    assert np.max(np.abs(x - y)) <= 1e-8, k
                    assert np.max(np.abs(x[::50] - z)) <= 1e-8, k

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
        exact = _partial_fractions((num,), np.array([a, a, b]))
        nearby = _partial_fractions((num,), np.array([a, a + eps, b]))
        t = np.linspace(0.0, 5.0, 50)
        np.testing.assert_allclose(_eval_poles(exact, t)[0],
                                   _eval_poles(nearby, t)[0], atol=1e-4)
        assert exact[1][0, :, 1].any()
        assert (_eval_poles(exact, t)[0].tobytes()
                == eval_terms_reference(exact, t).tobytes())

    def test_triple_root_matches_perturbed_simple(self):
        num = np.array([1.0, 0.5j])
        a = -0.2 + 0.1j
        eps = 1e-5
        exact = _partial_fractions((num,), np.array([a, a, a]))
        nearby = _partial_fractions((num,), np.array([a, a + eps, a - eps]))
        t = np.linspace(0.0, 4.0, 40)
        np.testing.assert_allclose(_eval_poles(exact, t)[0],
                                   _eval_poles(nearby, t)[0], atol=1e-4)
        assert exact[1][0, :, 2].any()
        assert (_eval_poles(exact, t)[0].tobytes()
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
            want = eval_terms_reference(kappa_poles(p), tau)
            assert kap.shape == np.shape(tau)
            assert kap.tobytes() == want.tobytes()
            for init in inits:
                got = amplitude_grid(p, init, tau)
                for k, amp in enumerate(got):
                    want = eval_terms_reference(_amplitude_poles(p, init),
                                                tau, k)
                    assert amp.shape == np.shape(tau)
                    assert amp.tobytes() == want.tobytes()

    def test_no_zero_root_in_c2_poles(self):
        """c2's numerator is divided by s exactly, so its poles are those
        of p alone: no zero root, also at a small Omega where the cancelled
        1/s pole used to keep a roundoff coefficient, and the values still
        match the per-(root, power) loop."""
        tau = np.linspace(0.0, 50.0, 2001)
        om = 0.003265088842593968
        cells = [params(gamma, lam) for gamma, lam
                 in SPECIAL_CELLS[:2] + [(0.5, 0.5)]] + [
            params(0.08856090101436478 * om, 16.036066952937396 * om, om),
            params(0.5, math.inf)]
        for p in cells:
            for init in (qb.empty_battery_state(), excited_battery_state()):
                poles = _amplitude_poles(p, init)
                assert np.all(poles[0] != 0)
                om = p.coupling_qb_cavity
                roots = np.array(qb.solve_roots(p).roots) / om
                assert all(np.min(np.abs(roots - s)) < 1e-7 * abs(s)
                           for s in poles[0])  # roots of p, or clusters
                got = amplitude_grid(p, init, tau / om)
                for k, amp in enumerate(got):
                    # poles are in Omega*tau: the times amplitude_grid uses
                    want = eval_terms_reference(poles, om * (tau / om), k)
                    assert amp.tobytes() == want.tobytes()

    def test_double_root_cell_is_confluent(self):
        p = params(*SPECIAL_CELLS[1])
        assert qb.solve_roots(p).degenerate
        assert kappa_poles(p)[1][0, :, 1].any()

    @pytest.mark.parametrize("lam,arrays", [(0.7, 5.0), (math.inf, 5.0)])
    def test_peak_memory(self, lam, arrays):
        """Peak traced allocation of one 200001-point call, c1 and c2
        included, stays within the peak of the per-term loop: 5
        result-sized complex arrays (16.0 MB), at finite width and
        memoryless alike."""
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


NORM_CELLS = [(float(g), float(lam)) for g, lam in zip(
    *np.exp(np.random.default_rng(8).uniform(
        np.log([[1e-3] * 320, [1e-9] * 320]),
        np.log([[1e3] * 320, [1e15] * 320]))))] + [
    (g, math.inf) for g in np.logspace(-3, 3, 20)]


class TestWholeDomain:
    def test_norm_bounded_by_one(self):
        """|c1|^2 + |c2|^2 <= 1 up to 1e-12 over a seeded sample of
        gamma/Omega in [1e-3, 1e3] and lambda/Omega in [1e-9, 1e15] plus
        memoryless cells, for three initial states: roots cluster only
        when close relative to their own size, so the two slow roots of a
        large width are never merged."""
        inits = [qb.empty_battery_state(), excited_battery_state(),
                 qb.make_initial_state(0.6, 0.8j)]
        tau = np.linspace(0.0, 50.0, 501)
        for gamma, lam in NORM_CELLS:
            for init in inits:
                c1, c2 = amplitude_grid(params(gamma, lam), init, tau)
                excess = np.max(np.abs(c1) ** 2 + np.abs(c2) ** 2) - 1.0
                assert excess <= 1e-12, (gamma, lam, init)

    @pytest.mark.parametrize("lam", [1e8, 1e9, 1e12])
    @pytest.mark.parametrize("gamma", [0.1, 1.0])
    def test_large_width_matches_memoryless(self, gamma, lam):
        tau = np.linspace(0.0, 50.0, 2001)
        for init in (qb.empty_battery_state(), excited_battery_state(),
                     qb.make_initial_state(0.6, 0.8j)):
            got = amplitude_grid(params(gamma, lam), init, tau)
            want = amplitude_grid(params(gamma, math.inf), init, tau)
            for x, y in zip(got, want):
                assert np.max(np.abs(x - y)) <= 1e-8


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

    @pytest.mark.parametrize("gamma,lam", [(0.1, 0.1), (0.7, 2.0),
                                           (4.0, math.inf)])
    def test_empty_battery_population_is_kappa_squared(self, gamma, lam):
        """c2 of the empty battery is kappa, bytes included, also at
        tau = 0 where both are roundoff."""
        tr = qb.trajectory(params(gamma, lam), tmax=25.0, steps=501)
        assert tr.population.tobytes() == (np.abs(tr.kappa) ** 2).tobytes()
