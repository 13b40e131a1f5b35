"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its stated tolerance and runtime budget."""

import math
import time

import numpy as np
import pytest

import qbattery as qb
from qbattery.propagator import kappa_grid

from test_metrics import (ergotropy_general, orbit_minimum_energy,
                          random_density_matrix)


def params(gamma, lam):
    return qb.make_params(1.0, 1.0, gamma, lam)


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(num, label, timer, budget):
    print(f"ACCEPTANCE {num}: PASS ({timer.elapsed:.2f}s / "
          f"budget {budget:.0f}s) - {label}")
    assert timer.elapsed < budget


def test_criterion_1_memoryless_stored_energy_optimum():
    with Timer() as t:
        rep = qb.maximize_over_tau(params(0.1, math.inf))
    assert rep.delta_e_max == pytest.approx(0.925, abs=0.005)
    report(1, "memoryless optimum stored energy 0.925", t, 1.0)


def test_criterion_2_memoryless_ergotropy_optimum():
    with Timer() as t:
        rep = qb.maximize_over_tau(params(0.1, math.inf))
    assert rep.w_max == pytest.approx(0.851, abs=0.005)
    report(2, "memoryless optimum ergotropy 0.851", t, 1.0)


def test_criterion_3_nonmarkovianity_threshold():
    with Timer() as t:
        for g in (0.5, 1.0, 2.0, 3.9):
            assert qb.blp_nonmarkovianity(params(g, math.inf)).measure > 0.0
        for g in (4.0, 4.1, 5.0, 10.0):
            assert qb.blp_nonmarkovianity(params(g, math.inf)).measure < 1e-9
    report(3, "memoryless backflow threshold at gamma/Omega = 4", t, 10.0)


def test_criterion_4_with_memory_advantage():
    with Timer() as t:
        mem = qb.maximize_over_tau(params(0.1, 0.1))
        flat = qb.maximize_over_tau(params(0.1, math.inf))
    assert mem.delta_e_max > flat.delta_e_max
    assert mem.w_max > flat.w_max
    report(4, "with-memory optima exceed memoryless", t, 1.0)


def test_criterion_5_oracle_equivalence_grid():
    taus = np.linspace(0.0, 50.0, 1001)
    with Timer() as t:
        worst = 0.0
        for g in (0.1, 0.5, 1.0, 5.0, 10.0, 50.0):
            for lam in (0.1, 0.5, 1.0, 5.0, 10.0, 50.0):
                p = params(g, lam)
                series = qb.integrate(p, qb.empty_battery_state(), 50.0,
                                      t_eval=taus)
                dev = np.max(np.abs(kappa_grid(p, taus) - series.c2))
                worst = max(worst, dev)
    assert worst < 1e-8
    report(5, f"36-combination oracle agreement (worst {worst:.2e})", t, 30.0)


def test_criterion_6_rabi_limit():
    with Timer() as t:
        p = params(0.0, 1.0)
        traj = qb.trajectory(p, tmax=math.pi, steps=1000)
        rep = qb.maximize_over_tau(p, tmax=math.pi)
    np.testing.assert_allclose(traj.population, np.sin(traj.times) ** 2,
                               rtol=0, atol=1e-12)
    assert rep.delta_e_max == pytest.approx(1.0, abs=1e-9)
    assert rep.tau_at_e_max == pytest.approx(math.pi / 2, abs=1e-6)
    report(6, "decoupled environment reproduces Rabi charging", t, 1.0)


def test_criterion_7_memoryless_convergence():
    with Timer() as t:
        taus = np.linspace(0.0, 25.0, 2001)
        reference = kappa_grid(params(0.1, math.inf), taus)
        dev3 = np.max(np.abs(kappa_grid(params(0.1, 1e3), taus) - reference))
        dev4 = np.max(np.abs(kappa_grid(params(0.1, 1e4), taus) - reference))
    assert dev3 < 2e-2
    assert dev4 < dev3
    report(7, f"flat-spectrum limit convergence ({dev3:.1e} -> {dev4:.1e})",
           t, 5.0)


def test_criterion_8_ergotropy_consistency(rng):
    with Timer() as t:
        # the reported ergotropy at every row against the passive state of
        # diag(p, 1 - p) under diag(omega0, 0)
        for omega0 in (1.0, 2.5):
            traj = qb.trajectory(qb.make_params(omega0, 1.0, 0.1, 0.1),
                                 tmax=25.0, steps=1001)
            assert np.max(traj.population) > 0.5
            h2 = np.diag([omega0, 0.0])
            for pop, w in zip(traj.population, traj.ergotropy):
                rho = np.diag([pop, 1.0 - pop])
                assert ergotropy_general(rho, h2) == pytest.approx(
                    w, abs=1e-12)
        h3 = np.diag([0.0, 1.0, 2.0])
        for _ in range(20):
            rho = random_density_matrix(rng, 3)
            expected = (np.trace(rho @ h3).real
                        - orbit_minimum_energy(rho, h3, rng, restarts=4))
            assert ergotropy_general(rho, h3) == pytest.approx(
                expected, abs=1e-6)
    report(8, "ergotropy matches Heaviside form and orbit search", t, 60.0)


def test_criterion_9_trend_properties():
    grid = (0.1, 0.5, 1.0, 5.0, 10.0)
    with Timer() as t:
        for lam in (0.1, 1.0):
            de = [qb.maximize_over_tau(params(g, lam)).delta_e_max
                  for g in grid]
            assert all(a >= b - 1e-9 for a, b in zip(de, de[1:]))
            ns = [qb.blp_nonmarkovianity(params(g, lam)).measure
                  for g in grid]
            assert all(a >= b - 1e-9 for a, b in zip(ns, ns[1:]))
        for g in (0.1, 1.0):
            de = [qb.maximize_over_tau(params(g, lam)).delta_e_max
                  for lam in grid]
            assert all(a >= b - 1e-9 for a, b in zip(de, de[1:]))
    report(9, "monotone trends in gamma/Omega and lambda/Omega", t, 30.0)
