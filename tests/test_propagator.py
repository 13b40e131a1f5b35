import cmath
import math
import tracemalloc

import numpy as np
import pytest

import qbattery as qb
from qbattery.figures import GRID_AXIS
from qbattery.model import excited_battery_state
from qbattery.propagator import (_eval_terms, _partial_fractions,
                                 _polynomials, _ratios, _real_parts_on_grid,
                                 _roots, _transfer, _transfer_many,
                                 amplitude_grid, kappa_grid)

GRID = [0.1, 0.5, 1.0, 5.0, 10.0, 50.0]


def params(gamma, lam, Omega=1.0, omega0=1.0):
    return qb.make_params(omega0, Omega, gamma, lam)


def eval_terms_reference(terms, t, entry=0):
    """Per-(root, power) loop over the terms of one entry, highest power
    first and one exponential per nonzero term, each term Re(a e) =
    Re(a) Re(e) - Im(a) Im(e): the reference the evaluator must reproduce
    bit for bit."""
    roots, coefs = terms
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape)
    for root, rows in zip(roots, coefs[entry]):
        for power in reversed(range(len(rows))):
            if rows[power] == 0:
                continue
            e = np.exp(root * t)
            contrib = rows[power].real * e.real
            if root.imag:
                contrib = contrib - rows[power].imag * e.imag
            if power:
                contrib = contrib * t ** power
            out += contrib
    return out


def amplitudes_reference(terms, init, t):
    """(c1, c2) = (c1_0 u - i c2_0 w, -i c1_0 w + c2_0 v) from the per-term
    loop, each product of zero weight left out."""
    u, w, v = (eval_terms_reference(terms, t, k) for k in range(3))

    def mix(*pairs):
        out = np.zeros(np.shape(t), dtype=np.complex128)
        for weight, entry in pairs:
            if weight:
                out += weight * entry
        return out

    a, b = init.c1_0, init.c2_0
    return mix((a, u), (-1j * b, w)), mix((-1j * a, w), (b, v))


def transfer(p):
    """Terms of the entries u, w and v of the transfer matrix of ``p``."""
    return _transfer(*_ratios(p))


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
        _, coefs = transfer(params(gamma, lam))
        assert abs(coefs[1, :, 0].real.sum()) < 1e-10  # w(0) = 0

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
                    _, coefs = transfer(params(gamma, math.inf, Omega))
                    assert coefs[1, :, 1].any()

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

    def test_real_part_is_exactly_zero(self):
        """kappa = -i*w with w real: its real part is +0.0, with neither
        roundoff nor a negative zero, over the norm cells and the figure
        axes with an inf column."""
        taus = np.linspace(0.0, 50.0, 501)
        for cell in NORM_CELLS + [(g, lam) for g in GRID_AXIS
                                  for lam in GRID_AXIS + (math.inf,)]:
            re = kappa_grid(params(*cell), taus).real
            assert not re.any() and not np.signbit(re).any(), cell

    def test_one_expansion_per_ratio_pair(self):
        """Cells that differ only in Omega or in the initial state share
        one ``_transfer`` entry: one cache miss for three Omega values and
        three initial states."""
        g, lam = 0.3141592653589793, 2.718281828459045  # no other test's
        tau = np.linspace(0.0, 10.0, 11)
        before = _transfer.cache_info().misses
        for om in (0.5, 1.0, 2.0):
            p = params(g * om, lam * om, om)
            assert _ratios(p) == (g, lam)
            kappa_grid(p, tau)
            for init in INITS:
                amplitude_grid(p, init, tau)
        assert _transfer.cache_info().misses == before + 1

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
        assert qb.kappa_at(p, 1.0) == pytest.approx(
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

    def test_dispatch_from_kappa_at(self):
        p = params(0.3, math.inf)
        assert qb.kappa_at(p, 2.0) == kappa_grid(p, np.array([2.0]))[0]


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


def re_im(terms):
    """Terms whose entries are the real and then the imaginary parts of
    the outputs of ``terms``: Im(f) = Re(-i f)."""
    roots, coefs = terms
    return roots, np.concatenate([coefs, -1j * coefs])


class TestConfluentExpansion:
    def test_double_root_matches_perturbed_simple(self):
        num = np.array([2.0 + 1j, -0.5])
        a, b = -0.3 + 0.4j, -1.1 + 0.0j
        eps = 1e-6
        exact = re_im(_partial_fractions((num,), np.array([a, a, b])))
        nearby = re_im(_partial_fractions((num,), np.array([a, a + eps, b])))
        t = np.linspace(0.0, 5.0, 50)
        np.testing.assert_allclose(_eval_terms(exact, t),
                                   _eval_terms(nearby, t), atol=1e-4)
        assert exact[1][0, :, 1].any()
        for k, got in enumerate(_eval_terms(exact, t)):
            assert got.tobytes() == eval_terms_reference(exact, t,
                                                         k).tobytes()

    def test_triple_root_matches_perturbed_simple(self):
        num = np.array([1.0, 0.5j])
        a = -0.2 + 0.1j
        eps = 1e-5
        exact = re_im(_partial_fractions((num,), np.array([a, a, a])))
        nearby = re_im(_partial_fractions((num,),
                                          np.array([a, a + eps, a - eps])))
        t = np.linspace(0.0, 4.0, 40)
        np.testing.assert_allclose(_eval_terms(exact, t),
                                   _eval_terms(nearby, t), atol=1e-4)
        assert exact[1][0, :, 2].any()
        for k, got in enumerate(_eval_terms(exact, t)):
            assert got.tobytes() == eval_terms_reference(exact, t,
                                                         k).tobytes()


SEEDED_CELLS = [tuple(float(v) for v in cell) for cell in np.exp(
    np.random.default_rng(20240817).uniform(
        np.log([1e-3, 1e-3]), np.log([20.0, 100.0]), size=(50, 2)))]
# gamma, lambda: the triple root of the cubic, a zero-discriminant point
# (double root, confluent terms) and two extreme widths
SPECIAL_CELLS = [(16 * math.sqrt(3) / 9, 3 * math.sqrt(3)),
                 (3.2406446189062073, 6.0), (0.1, 1e7), (0.1, 1e9)]


INITS = [qb.empty_battery_state(), excited_battery_state(),
         qb.make_initial_state(0.6, 0.8j)]


class TestPoleEvaluator:
    @pytest.mark.parametrize("gamma,lam", SEEDED_CELLS + SPECIAL_CELLS)
    def test_bytes_match_per_term_loop(self, gamma, lam):
        p = params(gamma, lam)
        for tau in (np.linspace(0.0, 50.0, 2001), np.float64(3.7)):
            kap = kappa_grid(p, tau)
            want = amplitudes_reference(transfer(p), qb.empty_battery_state(),
                                        tau)[1]
            assert kap.shape == np.shape(tau)
            assert kap.tobytes() == want.tobytes()
            for init in INITS:
                got = amplitude_grid(p, init, tau)
                want = amplitudes_reference(transfer(p), init, tau)
                for amp, ref in zip(got, want):
                    assert amp.shape == np.shape(tau)
                    assert amp.tobytes() == ref.tobytes()

    def test_no_zero_root_in_c2_poles(self):
        """v's numerator is divided by s exactly, so the terms have the
        roots of p alone: no zero root, also at a small Omega where a
        cancelled 1/s pole used to keep a roundoff coefficient, one root
        per real root or conjugate pair, and the values still match the
        per-(root, power) loop."""
        tau = np.linspace(0.0, 50.0, 2001)
        om = 0.003265088842593968
        cells = [params(gamma, lam) for gamma, lam
                 in SPECIAL_CELLS[:2] + [(0.5, 0.5)]] + [
            params(0.08856090101436478 * om, 16.036066952937396 * om, om),
            params(0.5, math.inf)]
        for p in cells:
            terms = transfer(p)
            assert np.all(terms[0] != 0) and np.all(terms[0].imag >= 0)
            om = p.coupling_qb_cavity
            roots = np.array(qb.solve_roots(p).roots) / om
            assert all(np.min(np.abs(roots - s)) < 1e-7 * abs(s)
                       for s in terms[0])  # roots of p, or clusters
            for init in INITS:
                got = amplitude_grid(p, init, tau / om)
                # terms are in Omega*tau: the times amplitude_grid uses
                want = amplitudes_reference(terms, init, om * (tau / om))
                for amp, ref in zip(got, want):
                    assert amp.tobytes() == ref.tobytes()

    def test_double_root_cell_is_confluent(self):
        p = params(*SPECIAL_CELLS[1])
        assert qb.solve_roots(p).degenerate
        assert transfer(p)[1][1, :, 1].any()

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


def numerators(g, l):
    """The numerators of u, w and v over p, as ``_transfer`` expands them."""
    coeffs, memory = _polynomials(g, l)
    return (np.polymul([1.0, 0.0], memory), memory,
            np.polysub(coeffs, memory)[:-1])


class TestRealParts:
    """The transfer terms: one per real root or conjugate pair, on the
    uniform grid with exponentials blocked as the BLP scan reads them."""

    def test_matches_real_part_of_pole_evaluator(self):
        """Within 1e-12 of ``_eval_terms`` on the same np.linspace grid,
        over the norm cells and the figure axes with an inf column; 2001
        points make two row blocks, the last with a partial row, and 3
        points three rows of one."""
        cells = NORM_CELLS + [(g, lam) for g in GRID_AXIS
                              for lam in GRID_AXIS + (math.inf,)]
        worst = 0.0
        for gamma, lam in cells:
            terms = transfer(params(gamma, lam))
            for n in (2001, 3):
                got = _real_parts_on_grid(terms, 200.0, n)
                assert got.shape == (3, n)
                want = _eval_terms(terms, np.linspace(0.0, 200.0, n))
                worst = max(worst, np.max(np.abs(got - want)))
        assert worst <= 1e-12

    def test_confluent_terms_keep_their_power(self):
        for terms in (transfer(params(4.0, math.inf)),
                      transfer(params(*double_root_cell(-1.01)))):
            assert terms[1][:, :, 1].any()
            got = _real_parts_on_grid(terms, 30.0, 3001)
            want = _eval_terms(terms, np.linspace(0.0, 30.0, 3001))
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_cubic_pair_is_one_term(self):
        """The pair's coefficients (a, a') fold into a + conj(a') on the
        root of positive imaginary part, its mate's exact conjugate."""
        roots, coefs = _partial_fractions(numerators(0.1, 0.1),
                                          _roots(_polynomials(0.1, 0.1)[0]))
        terms = _transfer(0.1, 0.1)
        assert len(roots) == 3 and len(terms[0]) == 2
        lower, upper = np.argsort(roots.imag)[[0, 2]]
        assert roots[upper] == roots[lower].conjugate() != roots[upper].real
        j = list(terms[0]).index(roots[upper])
        np.testing.assert_array_equal(
            terms[1][:, j], coefs[:, upper] + coefs[:, lower].conj())

    def test_three_real_roots_are_three_terms(self):
        roots, _ = _transfer(7.5, 100.0)
        assert len(roots) == 3
        assert all(s.imag == 0.0 for s in roots)

    def test_double_root_cluster_centre_is_real(self):
        """Near the double-root curve the two close roots are an exact
        conjugate pair, so their cluster centre is real, one term with its
        confluent power."""
        roots, coefs = _transfer(*double_root_cell(-1.01))
        assert len(roots) == 2
        assert roots[1].imag == 0.0 and roots[1].real == pytest.approx(-1.01)
        assert coefs[:, 1, 1].any()

    @pytest.mark.parametrize("gamma,count,power", [(2.0, 1, 1), (7.5, 2, 1),
                                                   (4.0, 1, 2)])
    def test_memoryless_terms(self, gamma, count, power):
        """gamma < 4 is one pair, gamma > 4 two real roots and gamma = 4
        one cluster with its t*exp(s*t) term."""
        roots, coefs = _transfer(gamma, math.inf)
        assert len(roots) == count
        assert coefs.shape[2] == power
        assert all(s.imag == 0.0 for s in roots) == (gamma >= 4.0)


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


# the triple point 1e-9 and 1e-6 away in gamma on both sides, and the
# double root r = -6 of the cubic, with the bound each must meet
NEAR_EXCEPTIONAL = ([((TRIPLE_ROOT[0] * (1 + d), TRIPLE_ROOT[1]), 1e-9)
                     for d in (1e-9, -1e-9, 1e-6, -1e-6)]
                    + [(double_root_cell(-6.0), 1e-10)])


class TestNearExceptionalPoints:
    """Where roots nearly coincide the terms of a pair fold into one only
    if the pair is exactly conjugate."""

    def test_roots_are_exact_conjugate_pairs(self):
        for cell in ([c for c, _ in NEAR_EXCEPTIONAL] + [TRIPLE_ROOT]
                     + NORM_CELLS):
            roots = _roots(_polynomials(*cell)[0])
            assert np.array_equal(np.sort_complex(roots),
                                  np.sort_complex(roots.conj())), cell

    @pytest.mark.parametrize("cell,bound", NEAR_EXCEPTIONAL)
    def test_both_evaluators_match_oracle(self, cell, bound):
        """c1 and c2 of the empty and the excited battery, from the
        pointwise evaluator and from the grid one (c1 = u and c2 = -i*w
        empty, c1 = -i*w and c2 = v excited), against the RK45 oracle
        (tol 1e-12) on Omega*t in [0, 8]."""
        p = params(*cell)
        tau = np.linspace(0.0, 8.0, 801)
        u, w, v = _real_parts_on_grid(transfer(p), 8.0, tau.size)
        for init, on_grid in ((qb.empty_battery_state(), (u, -1j * w)),
                              (excited_battery_state(), (-1j * w, v))):
            series = qb.integrate(p, init, 8.0, t_eval=tau, tol=1e-12)
            for got in (amplitude_grid(p, init, tau), on_grid):
                for x, y in zip(got, (series.c1, series.c2)):
                    assert np.max(np.abs(x - y)) <= bound, init


# the figure axes with an inf column, the double-root curve, the triple
# point and points near it, the memoryless double root and points near it,
# and seeded cells over a wide domain
BATCH_CELLS = (
    [(g, lam) for g in GRID_AXIS for lam in GRID_AXIS + (math.inf,)]
    + [double_root_cell(r) for r in np.linspace(-6.0, -1.001, 40)]
    + [(TRIPLE_ROOT[0] * (1 + d), TRIPLE_ROOT[1])
       for d in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6)]
    + [(4.0 * (1 + d), math.inf) for d in (0.0, 1e-9, -1e-9)]
    + [tuple(float(v) for v in cell) for cell in np.exp(
        np.random.default_rng(16).uniform(np.log([1e-6, 1e-9]),
                                          np.log([1e6, 1e15]),
                                          size=(150, 2)))])


class TestBatchedExpansion:
    """Many cells are expanded in one batch, and each has the bytes of its
    one-cell expansion, whatever the batch holds."""

    def test_cells_match_their_one_cell_expansion(self):
        cells = [BATCH_CELLS[i] for i in
                 np.random.default_rng(3).permutation(len(BATCH_CELLS))]
        # uneven batches, each mixing degrees and cluster patterns
        ends = [0, 1, 8, 73, 300, len(cells)]
        for lo, hi in zip(ends, ends[1:]):
            roots, coefs = _transfer_many(cells[lo:hi])
            for i, cell in enumerate(cells[lo:hi]):
                one_roots, one_coefs = _transfer(*cell)
                n, depth = len(one_roots), one_coefs.shape[2]
                assert np.array_equal(roots[:n, i], one_roots), cell
                assert np.array_equal(coefs[:, :n, :depth, i],
                                      one_coefs), cell
                assert not roots[n:, i].any(), cell
                assert not coefs[:, n:, :, i].any(), cell
                assert not coefs[:, :, depth:, i].any(), cell

    def test_one_cell_shapes(self):
        """A one-cell expansion has its own roots and powers, no padding,
        and an empty batch has none."""
        assert _transfer(0.1, 0.1)[1].shape == (3, 2, 1)
        assert _transfer(4.0, math.inf)[1].shape == (3, 1, 2)
        assert _transfer(*double_root_cell(-2.0))[1].shape == (3, 2, 2)
        roots, coefs = _transfer_many([])
        assert roots.shape == (0, 0) and coefs.shape == (3, 0, 0, 0)


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
