import math

import numpy as np
import pytest

import qbattery as qb
from qbattery.oracle import system_matrix
from qbattery.propagator import cubic_coefficients


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
    roots = np.array(qb.solve_roots(p).roots)
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
    assert series.c2[0] == pytest.approx(qb.kappa_at(p, 5.0), abs=1e-8)


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
    series = qb.integrate_memoryless(p, qb.empty_battery_state(), 30.0,
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
    series = qb.integrate_memoryless(p, qb.empty_battery_state(), 1.0,
                                     t_eval=np.array([1.0]))
    assert abs(series.c2[0]) == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_memoryless_peak_population():
    p = params(0.1, math.inf)
    taus = np.linspace(0.0, 25.0, 5001)
    series = qb.integrate_memoryless(p, qb.empty_battery_state(), 25.0,
                                     t_eval=taus)
    assert np.max(np.abs(series.c2) ** 2) == pytest.approx(0.925, abs=0.005)


def test_large_width_crosscheck():
    taus = np.linspace(0.0, 25.0, 501)
    mem = qb.integrate_memoryless(params(0.1, math.inf),
                                  qb.empty_battery_state(), 25.0, t_eval=taus)
    fin = qb.integrate(params(0.1, 1e3), qb.empty_battery_state(), 25.0,
                       t_eval=taus)
    assert np.max(np.abs(mem.c2 - fin.c2)) < 2e-2


def test_dispatch_validation():
    with pytest.raises(ValueError):
        qb.integrate_memoryless(params(0.1, 0.1), qb.empty_battery_state(),
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
            want = qb.integrate_memoryless(p, init, 20.0, **kwargs)
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
        qb.integrate_memoryless(params(0.1, math.inf), init, 1.0,
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
