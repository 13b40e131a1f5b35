import math
import time
import tracemalloc

import numpy as np
import pytest

import qbattery as qb
from qbattery.oracle import (_A, _B, _E, _W, STIFFNESS_BUDGET, _rk45_linear,
                             integrate_memoryless, system_matrix)
from qbattery.propagator import solve_roots


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


def test_tolerance_robustness():
    p = params(1.0, 2.0)
    end = np.array([20.0])
    coarse = qb.integrate(p, qb.empty_battery_state(), 20.0, tol=1e-8,
                          t_eval=end)
    fine = qb.integrate(p, qb.empty_battery_state(), 20.0, tol=5e-9,
                        t_eval=end)
    assert abs(coarse.c2[0] - fine.c2[0]) < 1e-8


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
    with pytest.raises(ValueError):
        qb.integrate(params(0.1, 0.1), qb.empty_battery_state(), 1.0,
                     tol=1e-4)


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


def test_step_weights_are_the_dopri5_polynomials():
    """The new state is the DOPRI5 stability polynomial, exact to order 5
    with the 1/600 sixth-order term; the error estimate starts at H^5."""
    phi, psi = _W
    for p in range(6):
        assert phi[p] * math.factorial(p) == pytest.approx(1.0, rel=1e-14)
    assert phi[6] == pytest.approx(1.0 / 600.0, rel=1e-14)
    assert phi[7] == 0.0
    assert np.all(np.abs(psi[:5]) < 1e-15)
    # one stage-by-stage step of y' = z y from y = 1 with h = 1
    for z in (-0.3, 0.5j, -1.2 + 0.7j, 2.0):
        k = np.zeros(7, np.complex128)
        k[0] = z
        for i in range(1, 6):
            k[i] = z * (1.0 + _A[i, :i] @ k[:i])
        ynew = 1.0 + _B @ k[:6]
        k[6] = z * ynew
        powers = z ** np.arange(8)
        assert phi @ powers == pytest.approx(ynew, rel=1e-14)
        assert psi @ powers == pytest.approx(_E @ k, rel=1e-10)


def _rk45_stages(m, y0, t_eval, rtol, atol):
    """The Dormand-Prince 5(4) step evaluated stage by stage, with FSAL:
    the reference the polynomial step of ``_rk45_linear`` is checked
    against.  Step control and landing on ``t_eval`` are the same."""
    out = np.empty((t_eval.size, y0.size), np.complex128)
    k = np.empty((7, y0.size), np.complex128)
    t = 0.0
    y = y0.copy()
    k[0] = m @ y
    mnorm = np.abs(m).sum(axis=1).max()
    h = 0.01 / mnorm if mnorm > 0.0 else 0.1
    for idx, tt in enumerate(t_eval):
        while t < tt - 1e-14 * (1.0 + tt):
            hs = tt - t if t + h > tt else h
            for i in range(1, 6):
                k[i] = m @ (y + hs * (_A[i, :i] @ k[:i]))
            ynew = y + hs * (_B @ k[:6])
            k[6] = m @ ynew
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(ynew))
            errnorm = np.sqrt(np.mean((np.abs(hs * (_E @ k)) / scale) ** 2))
            if errnorm <= 1.0:
                t += hs
                y = ynew
                k[0] = k[6]
            factor = (5.0 if errnorm == 0.0
                      else min(5.0, max(0.2, 0.9 * errnorm ** -0.2)))
            h = hs * factor
        out[idx] = y
    return out


def _assert_matches_stages(gamma, lam, taus, tol):
    m = system_matrix(params(gamma, lam))
    for init in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8j)):
        y0 = np.zeros(len(m), np.complex128)
        y0[:2] = init
        got = _rk45_linear(m, y0, taus, tol, tol)
        want = _rk45_stages(m, y0, taus, tol, tol)
        assert np.max(np.abs(got - want)) <= 20 * tol


def _reference_cells():
    rng = np.random.default_rng(11)
    ratios = 10.0 ** rng.uniform(-1.3, 1.7, (6, 2))
    cells = [(float(f"{g:.3g}"), float(f"{lam:.3g}")) for g, lam in ratios]
    return cells + [(0.1, 1e3), (0.0, 1.0), (0.0, math.inf),
                    (0.1, math.inf), (4.0, math.inf)]


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("gamma,lam", _reference_cells())
def test_polynomial_step_matches_stage_by_stage(gamma, lam, tol):
    """Same method, cheaper evaluation: every field agrees with the stage
    loop to a small multiple of the tolerance (not bytewise, since roundoff
    can flip an accept/reject decision on stiff cells)."""
    # the stiff cell takes ~lam/3 steps per unit time: a shorter horizon
    taus = np.linspace(0.0, 2.0 if lam == 1e3 else 10.0, 21)
    _assert_matches_stages(gamma, lam, taus, tol)


# Cells on the benchmark's output grid: stiff (about two steps per gap),
# slow, the triple root of the cubic and the memoryless R = 0 point.
TRIPLE_ROOT = (16.0 * math.sqrt(3.0) / 9.0, 3.0 * math.sqrt(3.0))


def _uneven_times():
    """Sorted, starting above 0, with one time repeated: nearly every
    output gap has its own length."""
    taus = np.sort(np.random.default_rng(17).uniform(0.3, 50.0, 400))
    return np.sort(np.append(taus, taus[150]))


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("gamma,lam,taus", [
    (0.1, 50.0, None), (0.1, 0.1, None), (*TRIPLE_ROOT, None),
    (4.0, math.inf, None), (0.1, 0.1, _uneven_times())],
    ids=["stiff", "slow", "triple-root", "memoryless-R0", "uneven-times"])
def test_step_matrix_matches_stage_by_stage_on_output_grid(gamma, lam, taus,
                                                           tol):
    """The benchmark's shape, 1001 points over Omega*tau in [0, 50], where
    most steps span a whole output gap and reuse that gap's step matrix;
    the uneven grid gives the reuse many distinct gaps."""
    taus = np.linspace(0.0, 50.0, 1001) if taus is None else taus
    _assert_matches_stages(gamma, lam, taus, tol)


def test_step_matrices_kept_per_gap_not_per_step():
    """Peak traced allocation of one stiff call on 1001 points stays under
    0.25 MB.  Keeping only whole-gap step matrices measured about 57 kB;
    keeping one per distinct step size measured about 1.2 MB."""
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
    """A NaN error norm fails every acceptance test and shrinks the step
    to 0, so t would never advance: the oracle refuses the state before
    the first step."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="initial state is not finite"):
        qb.integrate(qb.make_params(1.0, 1.0, 0.5, lam), init, 1.0, steps=3)
    assert time.perf_counter() - start < 1.0


def test_overflowing_generator_raises():
    """gamma*lam/2 overflows to inf: the step would be 0 and never
    advance, so the oracle refuses the matrix at once."""
    p = qb.make_params(1.0, 1.0, 1e200, 1e200)
    with pytest.raises(ValueError, match="system matrix is not finite"):
        qb.integrate(p, qb.empty_battery_state(), 1.0)


def test_stiffness_budget_refuses_at_once():
    """lambda/Omega = 1e9 over Omega*tau = 25 is a spectral radius times
    horizon of 2.5e10: explicit DOPRI5 would need ~1e10 steps, so the
    oracle refuses the run before the first step."""
    p = params(0.1, 1e9)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too stiff"):
        qb.integrate(p, qb.empty_battery_state(), 25.0)
    assert time.perf_counter() - start < 1.0
    assert np.max(np.abs(np.linalg.eigvals(system_matrix(p)))) * 25.0 \
        > STIFFNESS_BUDGET
