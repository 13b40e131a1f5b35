import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import qbattery as qb
from qbattery import oracle
from qbattery.oracle import integrate_memoryless, system_matrix
from qbattery.propagator import amplitude_grid, solve_roots

EPS = np.finfo(float).eps


def params(gamma, lam):
    return qb.make_params(1.0, 1.0, gamma, lam)


def test_rabi_limit():
    p = params(0.0, 1.0)
    taus = np.linspace(0.0, 12.0, 301)
    series = qb.integrate(p, qb.empty_battery_state(), 12.0, t_eval=taus)
    np.testing.assert_allclose(series.c1, np.cos(taus), atol=1e-9)
    np.testing.assert_allclose(series.c2, -1j * np.sin(taus), atol=1e-9)


@pytest.mark.parametrize("gamma,lam", [(0.1, 0.1), (1.0, 5.0), (10.0, 0.3)])
def test_system_matrix_eigenvalues_are_cubic_roots(gamma, lam):
    p = params(gamma, lam)
    eigs = np.linalg.eigvals(system_matrix(p))
    roots = np.array(solve_roots(p).roots)
    # match pairwise: tiny real parts make a sorted comparison unstable
    for e in eigs:
        assert np.min(np.abs(roots - e)) < 1e-10


def test_memoryless_matrix_characteristic_polynomial():
    # det(sI - M) must be s^2 + gamma*s/2 + Omega^2
    p = params(0.8, math.inf)
    m = system_matrix(p)
    assert np.trace(m) == pytest.approx(-0.4)
    assert np.linalg.det(m) == pytest.approx(1.0)


def test_oracle_is_mutual_check_with_propagator():
    p = params(0.1, 0.1)
    series = qb.integrate(p, qb.empty_battery_state(), 5.0,
                          t_eval=np.array([5.0]))
    assert series.c2[0] == pytest.approx(complex(qb.kappa_grid(p, 5.0)),
                                         abs=1e-8)


def test_auxiliary_starts_at_zero_and_norm_bounded():
    p = params(0.5, 0.5)
    series = qb.integrate(p, qb.empty_battery_state(), 30.0, steps=601)
    assert series.z[0] == 0.0
    norm = np.abs(series.c1) ** 2 + np.abs(series.c2) ** 2
    assert np.all(norm <= 1 + 1e-9)


def test_norm_backflow_in_non_markovian_regime():
    # with memory the qubit+cavity weight re-increases after decreasing
    p = params(0.1, 0.1)
    series = qb.integrate(p, qb.empty_battery_state(), 100.0, steps=4001)
    norm = np.abs(series.c1) ** 2 + np.abs(series.c2) ** 2
    diffs = np.diff(norm)
    first_drop = np.argmax(diffs < -1e-12)
    assert np.any(diffs[first_drop:] > 1e-12)


def test_norm_monotone_in_markovian_memoryless_regime():
    p = params(6.0, math.inf)
    series = integrate_memoryless(p, qb.empty_battery_state(), 30.0,
                                  steps=1201)
    norm = np.abs(series.c1) ** 2 + np.abs(series.c2) ** 2
    assert np.all(np.diff(norm) <= 1e-10)


def test_linearity():
    p = params(0.4, 1.5)
    a = qb.InitialState(1.0, 0.0)
    b = qb.InitialState(0.0, 1.0)
    w1, w2 = 0.6, 0.8j
    mix = qb.InitialState(w1 * a.c1_0 + w2 * b.c1_0,
                          w1 * a.c2_0 + w2 * b.c2_0)
    taus = np.linspace(0.0, 10.0, 41)
    sa = qb.integrate(p, a, 10.0, t_eval=taus)
    sb = qb.integrate(p, b, 10.0, t_eval=taus)
    sm = qb.integrate(p, mix, 10.0, t_eval=taus)
    np.testing.assert_allclose(sm.c2, w1 * sa.c2 + w2 * sb.c2, atol=1e-9)
    np.testing.assert_allclose(sm.c1, w1 * sa.c1 + w2 * sb.c1, atol=1e-9)


def test_memoryless_critical_damping():
    p = params(4.0, math.inf)
    series = integrate_memoryless(p, qb.empty_battery_state(), 1.0,
                                  t_eval=np.array([1.0]))
    assert abs(series.c2[0]) == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_memoryless_peak_population():
    p = params(0.1, math.inf)
    taus = np.linspace(0.0, 25.0, 5001)
    series = integrate_memoryless(p, qb.empty_battery_state(), 25.0,
                                  t_eval=taus)
    assert np.max(np.abs(series.c2) ** 2) == pytest.approx(0.925, abs=0.005)


def test_large_width_crosscheck():
    taus = np.linspace(0.0, 25.0, 501)
    mem = integrate_memoryless(params(0.1, math.inf),
                               qb.empty_battery_state(), 25.0, t_eval=taus)
    fin = qb.integrate(params(0.1, 1e3), qb.empty_battery_state(), 25.0,
                       t_eval=taus)
    assert np.max(np.abs(mem.c2 - fin.c2)) < 2e-2


def test_dispatch_validation():
    with pytest.raises(ValueError):
        integrate_memoryless(params(0.1, 0.1), qb.empty_battery_state(),
                             1.0)
    with pytest.raises(TypeError):  # the exponential takes no tolerance
        qb.integrate(params(0.1, 0.1), qb.empty_battery_state(), 1.0,
                     tol=1e-10)


@pytest.mark.parametrize("gamma", [0.0, 0.1, 2.0, 4.0, 7.5])
def test_integrate_takes_memoryless_params(gamma):
    """One entry point for both regimes: on memoryless params ``integrate``
    gives the bytes of ``integrate_memoryless``."""
    p = params(gamma, math.inf)
    for init in (qb.empty_battery_state(), qb.excited_battery_state(),
                 qb.make_initial_state(0.6, 0.8j)):
        for kwargs in ({"t_eval": np.linspace(0.0, 20.0, 201)},
                       {"steps": 51}):
            got = qb.integrate(p, init, 20.0, **kwargs)
            want = integrate_memoryless(p, init, 20.0, **kwargs)
            for name in ("times", "c1", "c2", "z"):
                assert (getattr(got, name).tobytes()
                        == getattr(want, name).tobytes())
            assert not np.any(got.z)


@pytest.mark.parametrize("steps", [0, 1])
def test_too_few_steps_rejected(steps):
    init = qb.empty_battery_state()
    with pytest.raises(ValueError):
        qb.integrate(params(0.1, 0.5), init, 1.0, steps=steps)
    with pytest.raises(ValueError):
        integrate_memoryless(params(0.1, math.inf), init, 1.0,
                             steps=steps)


@pytest.mark.parametrize("lam", [0.5, math.inf])
@pytest.mark.parametrize("times", [
    {"tmax": math.nan}, {"tmax": math.inf}, {"tmax": -math.inf},
    {"t_eval": [0.0, math.nan, 2.0]}, {"t_eval": [0.0, 1.0, math.inf]},
    {"t_eval": [math.nan]}, {"t_eval": [-math.inf, 0.0]}],
    ids=["tmax-nan", "tmax-inf", "tmax-neg-inf", "t_eval-nan",
         "t_eval-inf", "t_eval-only-nan", "t_eval-neg-inf"])
def test_non_finite_times_rejected(lam, times):
    kwargs = dict(times)
    tmax = kwargs.pop("tmax", 1.0)
    with pytest.raises(ValueError):
        qb.integrate(params(0.1, lam), qb.empty_battery_state(), tmax,
                     **kwargs)


# The triple root of the cubic, and a cell of spectral radius 25, whose
# exponential over the benchmark's gap of 0.05 is far from the identity.
TRIPLE_ROOT = (16.0 * math.sqrt(3.0) / 9.0, 3.0 * math.sqrt(3.0))
FAST = (45.3, 27.5)


def _benchmark_grid(n=1001):
    return np.linspace(0.0, 50.0, n)


def _uneven_times():
    """Sorted, starting above 0, with one time repeated: nearly every
    output gap has its own length."""
    taus = np.sort(np.random.default_rng(17).uniform(0.3, 50.0, 400))
    return np.sort(np.append(taus, taus[150]))


def _tiny_gaps():
    """Each time of a coarse grid followed by one 5e-15 (1 + t) later."""
    taus = np.linspace(0.0, 50.0, 201)
    return np.sort(np.concatenate((taus, taus + 5e-15 * (1.0 + taus))))


def _widening_gaps():
    """Gaps growing from 0.01 to 0.3."""
    return np.concatenate(([0.0], np.cumsum(np.linspace(0.01, 0.3, 300))))


def _balanced_generators():
    """h d M d^-1, the matrices ``integrate`` exponentiates: ten cells from
    slow to lambda/Omega = 1e9, at gaps h from 0 to 10, so 1-norms from 0
    to 1e10."""
    cells = [(0.1, 0.1), (0.1, 50.0), TRIPLE_ROOT, (4.0, math.inf), FAST,
             (0.0, 1.0), (100.0, math.inf), (1e4, 1e4), (0.1, 1e6),
             (1.0, 1e9)]
    gaps = np.array([0.0, 1e-3, 0.05, 1.0, 10.0])
    stacks = {2: [], 3: []}
    for cell in cells:
        m = system_matrix(params(*cell))
        d = oracle._energy_scale(m)
        stacks[len(m)].append(gaps[:, None, None] * (m * d[:, None] / d))
    return [np.concatenate(stack) for stack in stacks.values()]


def test_expm_matches_scipy_on_generator_stacks():
    """``_expm`` on stacks of generators agrees with scipy's expm
    (Al-Mohy & Higham's own scaling) within 8 eps max(1, ||A||_1), where
    the largest distance measured is 1.0 eps max(1, ||A||_1); the zero
    matrices give I exactly."""
    for stack in _balanced_generators():
        got = oracle._expm(stack)
        want = scipy.linalg.expm(stack)
        norm = np.abs(stack).sum(axis=-2).max(axis=-1)
        err = np.abs(got - want).max(axis=(-2, -1))
        assert np.all(err <= 8.0 * EPS * np.maximum(1.0, norm)), err
        assert (got[norm == 0.0] == np.eye(stack.shape[-1])).all()
        assert norm.max() >= 1e10 or stack.shape[-1] == 2


def _pade_stages(m, y0, t_eval):
    """The [13/13] Pade step evaluated term by term: the reference the
    six products of ``_expm`` are checked against.  Each gap's h M is
    halved s times until its 1-norm is at most theta_13, the numerator
    and denominator are summed power by power from the coefficients
    (26 - k)! 13! / (26! k! (13 - k)!), one solve gives r, and r is
    squared s times; the state steps from output to output."""
    coeffs = [math.factorial(26 - k) * math.factorial(13)
              / (math.factorial(26) * math.factorial(k)
                 * math.factorial(13 - k)) for k in range(14)]
    eye = np.eye(len(m), dtype=np.complex128)
    out = np.empty((t_eval.size, y0.size), np.complex128)
    y = y0.copy()
    t = 0.0
    for idx, tt in enumerate(t_eval):
        a = (tt - t) * m
        s = 0
        while np.abs(a).sum(axis=0).max() > oracle._THETA_13:
            a = a / 2.0
            s += 1
        num = np.zeros_like(eye)
        den = np.zeros_like(eye)
        power = eye
        for k, b in enumerate(coeffs):
            num += b * power
            den += (-1) ** k * b * power
            power = power @ a
        r = np.linalg.solve(den, num)
        for _ in range(s):
            r = r @ r
        y = r @ y
        out[idx] = y
        t = tt
    return out


def _reference_cells():
    rng = np.random.default_rng(11)
    ratios = 10.0 ** rng.uniform(-1.3, 1.7, (6, 2))
    cells = [(float(f"{g:.3g}"), float(f"{lam:.3g}")) for g, lam in ratios]
    return cells + [(0.1, 1e3), (0.0, 1.0), (0.0, math.inf),
                    (0.1, math.inf), (4.0, math.inf)]


@pytest.mark.parametrize("tiny", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("gamma,lam", _reference_cells())
def test_polynomial_step_matches_stage_by_stage(gamma, lam, tiny):
    """Same step, cheaper evaluation: ``integrate``'s outputs, whose
    exponentials ``_expm`` forms with six products and one solve, agree
    with the term-by-term Pade reference within 1e-12 (1.0e-13 measured,
    at (0.1, 1e3)), for three initial states.  Each of 21 times on
    Omega*t in [0, 10] is followed by one ``tiny`` later, so the gaps
    alternate between ``tiny`` (no squaring) and 0.5 - tiny (seven
    squarings at lambda/Omega = 1e3)."""
    m = system_matrix(params(gamma, lam))
    base = np.linspace(0.0, 10.0, 21)
    taus = np.sort(np.concatenate((base, base + tiny)))
    for init in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8j)):
        y0 = np.zeros(len(m), np.complex128)
        y0[:2] = init
        series = qb.integrate(params(gamma, lam), qb.make_initial_state(*init),
                              1.0, t_eval=taus)
        got = np.stack((series.c1, series.c2, series.z)[:len(m)], axis=1)
        assert np.max(np.abs(got - _pade_stages(m, y0, taus))) <= 1e-12


def test_overflowing_horizon_refused_at_once():
    """gamma*lam/2 = 5e299 is finite, but 1e10 times it is not: the
    oracle refuses the horizon before any work, with no warning."""
    p = params(1e150, 1e150)
    with pytest.raises(ValueError, match="horizon times system matrix"):
        qb.integrate(p, qb.empty_battery_state(), 1.0,
                     t_eval=np.array([0.0, 1e10]))


@pytest.mark.parametrize("gamma,lam,taus", [
    (0.1, 50.0, _benchmark_grid()), (0.1, 0.1, _benchmark_grid()),
    (*TRIPLE_ROOT, _benchmark_grid()), (4.0, math.inf, _benchmark_grid()),
    (*FAST, _benchmark_grid()), (0.1, 0.1, _uneven_times()),
    (*FAST, np.repeat(_benchmark_grid(201), 2)),
    (*FAST, np.concatenate(([0.0, 0.0], _benchmark_grid()[1:]))),
    (*FAST, np.array([7.3])), (4.0, math.inf, np.array([0.0])),
    (*FAST, _tiny_gaps()), (4.0, math.inf, _tiny_gaps()),
    (*FAST, _widening_gaps()),
    (0.1, 50.0, _benchmark_grid(5001)),
    (4.0, math.inf, _benchmark_grid(5001))],
    ids=["stiff", "slow", "triple-root", "memoryless-R0", "fast",
         "uneven-times", "repeated-times", "first-gaps-0", "single-time",
         "single-time-0", "tiny-gaps", "tiny-gaps-memoryless",
         "widening-gaps", "5001-points", "5001-points-memoryless"])
def test_matches_scipy_expm_at_every_output(gamma, lam, taus):
    """Each output of ``integrate``, c1, c2 and z, is within 1e-12 of
    scipy's expm(t M) y(0) at its own time, for three initial states, on
    grids with repeated times, a first gap of 0, a single time, gaps of
    5e-15 (1 + t), widening gaps and 5001 points: stepping from output to
    output loses nothing beyond roundoff."""
    p = params(gamma, lam)
    m = system_matrix(p)
    want = scipy.linalg.expm(taus[:, None, None] * m)
    for init in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8j)):
        series = qb.integrate(p, qb.make_initial_state(*init), 1.0,
                              t_eval=taus)
        got = np.stack((series.c1, series.c2, series.z)[:len(m)], axis=1)
        assert np.max(np.abs(got - want[:, :, :2] @ init)) <= 1e-12


@pytest.mark.parametrize("gamma,lam", [(1.0, 2.0), (0.1, 0.1), (0.1, 50.0),
                                       (4.0, math.inf)])
def test_semigroup_one_call_or_many_steps(gamma, lam):
    """e^{TM} y(0) taken in one call at T equals the last of 1001 outputs
    on [0, T], each stepped from the one before, within 1e-12."""
    p = params(gamma, lam)
    for init in (qb.empty_battery_state(), qb.make_initial_state(0.6, 0.8j)):
        one = qb.integrate(p, init, 20.0, t_eval=np.array([20.0]))
        many = qb.integrate(p, init, 20.0, steps=1001)
        for name in ("c1", "c2", "z"):
            assert abs(getattr(one, name)[0]
                       - getattr(many, name)[-1]) <= 1e-12


@pytest.mark.parametrize("lam", [0.1, 1.0, 30.0, math.inf])
def test_gamma_zero_closed_forms(lam):
    """With no reservoir the battery and the cavity swap the excitation:
    c1 = cos t, c2 = -i sin t from the empty battery and the other way
    round from the excited one, within 1e-13 on 1001 points of Omega*t in
    [0, 50] (4.4e-14 measured).  At lambda/Omega = 1e3 the decoupled z
    mode sets the squarings and the distance grows to 5.1e-13, as the
    stiff cells' model has it."""
    p = params(0.0, lam)
    taus = _benchmark_grid()
    cos, sin = np.cos(taus), -1j * np.sin(taus)
    for init, c1, c2 in ((qb.empty_battery_state(), cos, sin),
                         (qb.excited_battery_state(), sin, cos)):
        series = qb.integrate(p, init, 50.0, t_eval=taus)
        assert np.max(np.abs(series.c1 - c1)) <= 1e-13
        assert np.max(np.abs(series.c2 - c2)) <= 1e-13


@pytest.mark.parametrize("gamma", [0.1, 2.0, 3.9, 6.0, 100.0])
def test_memoryless_closed_form(gamma):
    """Off gamma = 4 Omega the memoryless 2x2 generator M has the distinct
    eigenvalues k+- = -gamma/4 +- i w, w = sqrt(Omega^2 - gamma^2/16), so
    e^{tM} = (e^{k+ t} (M - k-) - e^{k- t} (M - k+)) / (k+ - k-)
    (Sylvester): the oracle agrees within 1e-13 on 1001 points of Omega*t
    in [0, 50] (4.1e-14 measured, at gamma = 100 Omega)."""
    p = params(gamma, math.inf)
    m = system_matrix(p)
    taus = _benchmark_grid()
    w = np.sqrt(complex(1.0 - gamma * gamma / 16.0))
    kp, km = -0.25 * gamma + 1j * w, -0.25 * gamma - 1j * w
    eye = np.eye(2)
    for init in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8j)):
        series = qb.integrate(p, qb.make_initial_state(*init), 50.0,
                              t_eval=taus)
        want = (np.exp(kp * taus)[:, None] * ((m - km * eye) @ init)
                - np.exp(km * taus)[:, None] * ((m - kp * eye) @ init)) / (
                    kp - km)
        got = np.stack((series.c1, series.c2), axis=1)
        assert np.max(np.abs(got - want)) <= 1e-13


def test_memoryless_is_one_span(monkeypatch):
    """``integrate_memoryless`` does not go through the module attribute
    ``integrate``, which a tracer may wrap: a memoryless cell is one call."""
    calls = []
    integrate = oracle.integrate

    def spy(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(oracle, "integrate", spy)
    integrate_memoryless(params(0.5, math.inf), qb.empty_battery_state(),
                         5.0, steps=11)
    assert calls == []


def _whole_domain_cells():
    """200 cells: gamma/Omega log-uniform in [1e-2, 1e4], then lambda/Omega
    log-uniform in [1e-3, 1e4]."""
    rng = np.random.default_rng(12)
    gammas = 10.0 ** rng.uniform(-2.0, 4.0, 200)
    lams = 10.0 ** rng.uniform(-3.0, 4.0, 200)
    return list(zip(gammas, lams))


def test_amplitudes_match_engine_over_the_whole_domain():
    """``amplitude_grid`` against the oracle on 201 points of Omega*t in
    [0, 50], for the empty, excited and (0.6, 0.8i) states of 200 seeded
    cells: within 1e-10 everywhere (worst measured 1.4e-11, at gamma/Omega
    and lambda/Omega both in the thousands)."""
    taus = np.linspace(0.0, 50.0, 201)
    inits = (qb.empty_battery_state(), qb.excited_battery_state(),
             qb.make_initial_state(0.6, 0.8j))
    worst = 0.0
    for cell in _whole_domain_cells():
        p = params(*cell)
        for init in inits:
            series = qb.integrate(p, init, 50.0, t_eval=taus)
            for x, y in zip(amplitude_grid(p, init, taus),
                            (series.c1, series.c2)):
                worst = max(worst, np.max(np.abs(x - y)))
    assert worst <= 1e-10


def test_step_matrices_kept_per_gap_not_per_step():
    """Peak traced allocation of one stiff call on 1001 points stays under
    0.25 MB.  The exponentials are formed once per distinct gap, 12 on
    this grid, and each output is one product: about 110 kB, of which the
    output array is 48 kB.  On 401 uneven times, nearly all gaps distinct,
    it measured about 600 kB."""
    p = params(0.1, 50.0)
    taus = np.linspace(0.0, 50.0, 1001)
    init = qb.empty_battery_state()
    qb.integrate(p, init, 50.0, t_eval=taus)  # warm any lazy imports
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        qb.integrate(p, init, 50.0, t_eval=taus)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 0.25e6


@pytest.mark.parametrize("lam", [2.0, math.inf])
@pytest.mark.parametrize("init", [qb.InitialState(math.nan, 0.0),
                                  qb.InitialState(0.0, math.inf)],
                         ids=["nan", "inf"])
def test_non_finite_initial_state_refused_at_once(lam, init):
    """A state that is not finite would give outputs that are not either:
    the oracle refuses it before any work."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="initial state is not finite"):
        qb.integrate(qb.make_params(1.0, 1.0, 0.5, lam), init, 1.0, steps=3)
    assert time.perf_counter() - start < 1.0


def test_overflowing_generator_raises():
    """gamma*lam/2 overflows to inf: the oracle refuses the matrix before
    any work."""
    p = qb.make_params(1.0, 1.0, 1e200, 1e200)
    with pytest.raises(ValueError, match="system matrix is not finite"):
        qb.integrate(p, qb.empty_battery_state(), 1.0)


@pytest.mark.parametrize("gamma,lam", [(0.1, 1e6), (1.0, 1e9), (0.1, 1e9),
                                       (0.0, 1e6)])
def test_stiff_cells_within_roundoff_model(gamma, lam):
    """Spectral radius rho near lambda: the fast mode sets about
    log2(rho h) squarings of each e^{hM}, which multiply the slow modes'
    roundoff by about rho h, and the outputs add it up over T / h gaps.  So
    the oracle's distance from ``kappa_grid`` on 1001 points of Omega*t in
    [0, 50] is modelled as C eps rho T, with C = 0.25; the measured C was
    0.021 at (0.1, 1e6), 0.0023 at (1, 1e9), 0.014 at (0.1, 1e9) and 0.045
    at (0, 1e6), where nothing damps the slow modes, each call about 4 ms."""
    p = params(gamma, lam)
    taus = _benchmark_grid()
    rho = np.max(np.abs(np.linalg.eigvals(system_matrix(p))))
    start = time.perf_counter()
    series = qb.integrate(p, qb.empty_battery_state(), 50.0, t_eval=taus)
    assert time.perf_counter() - start < 1.0
    dev = np.max(np.abs(series.c2 - qb.kappa_grid(p, taus)))
    assert dev <= 0.25 * EPS * rho * 50.0
