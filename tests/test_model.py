import importlib.util
import math
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import qbattery as qb
from qbattery import cli, figures, metrics, model, oracle, propagator, sweep
from qbattery.propagator import kappa_grid


PUBLIC_NAMES = {
    "MEMORYLESS", "InitialState", "ModelParams", "empty_battery_state",
    "excited_battery_state", "make_params", "make_initial_state",
    "ChargingTrajectory", "amplitude_grid", "kappa_grid", "trajectory",
    "AmplitudeSeries", "integrate", "MaximaReport", "NonMarkovReport",
    "blp_nonmarkovianity", "maximize_over_tau", "SweepResult", "SweepSpec",
    "run_sweep", "__version__",
}
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_public_surface():
    """The package exports exactly these 21 names, and each resolves."""
    assert len(qb.__all__) == len(PUBLIC_NAMES) == 21
    assert set(qb.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from qbattery import *", namespace)
    assert all(namespace[name] is getattr(qb, name) for name in PUBLIC_NAMES)


def test_make_params_basic():
    p = qb.make_params(1.0, 1.0, 0.1, 0.1)
    assert p.omega0 == 1.0
    assert p.coupling_qb_cavity == 1.0
    assert p.coupling_cavity_env == 0.1
    assert p.spectral_width == 0.1
    assert not p.memoryless


def test_make_params_rabi_limit():
    p = qb.make_params(1.0, 1.0, 0.0, 1.0)
    assert p.coupling_cavity_env == 0.0


def test_make_params_memoryless_flag():
    p = qb.make_params(1.0, 1.0, 0.1, math.inf)
    assert p.memoryless
    assert p.spectral_width == qb.MEMORYLESS


@pytest.mark.parametrize("args", [
    (0.0, 1.0, 0.1, 0.1),
    (-1.0, 1.0, 0.1, 0.1),
    (1.0, 0.0, 0.1, 0.1),
    (1.0, 1.0, -0.1, 0.1),
    (1.0, 1.0, 0.1, 0.0),
    (1.0, 1.0, 0.1, -2.0),
    (math.inf, 1.0, 0.1, 0.1),
    (1.0, 1.0, 0.1, math.nan),
])
def test_make_params_rejects(args):
    with pytest.raises(ValueError):
        qb.make_params(*args)


def test_empty_battery_state():
    init = qb.empty_battery_state()
    assert init.c1_0 == 1.0 + 0.0j
    assert init.c2_0 == 0.0 + 0.0j
    assert abs(init.c1_0) ** 2 + abs(init.c2_0) ** 2 == 1.0
    # feeding it into evolution returns zero population at t=0
    p = qb.make_params(1.0, 1.0, 0.1, 0.1)
    _, c2 = qb.amplitude_grid(p, init, 0.0)
    assert abs(c2) ** 2 < 1e-24


def test_make_initial_state_normalization():
    qb.make_initial_state(1 / math.sqrt(2), 1j / math.sqrt(2))
    with pytest.raises(ValueError):
        qb.make_initial_state(1.0, 0.5)


@pytest.mark.parametrize("amplitudes", [
    (complex(math.nan, 0.0), 1.0), (complex(1.0, math.nan), 0.0),
    (0.0, complex(math.nan, 0.0)), (1.0, complex(0.0, math.nan)),
])
def test_make_initial_state_rejects_nan(amplitudes):
    """A NaN norm is not within 1e-12 of 1: NaN in either part of either
    amplitude is refused here, not later as a population guard error."""
    with pytest.raises(ValueError, match="not normalized"):
        qb.make_initial_state(*amplitudes)


def test_benchmark_boundaries_exist():
    """Every module attribute the benchmark's workloads and tracer read
    directly still exists, and so does each propagator and oracle boundary
    its tracer wraps (the readers, the roots, both oracle entry points)."""
    api = types.SimpleNamespace(cli=cli, figures=figures, metrics=metrics,
                                model=model, oracle=oracle,
                                propagator=propagator, sweep=sweep)
    for name in ("workloads.py", "tracing.py"):
        text = (PERFBENCH / name).read_text()
        for module, attr in re.findall(r"\bapi\.(\w+)\.(\w+)", text):
            assert hasattr(getattr(api, module), attr), (name, module, attr)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _, _ in tracing._patch_table(api):
        if module in (propagator, oracle):
            assert hasattr(module, attr), (module.__name__, attr)


def test_dynamics_independent_of_omega0():
    taus = np.linspace(0.0, 20.0, 301)
    a = qb.make_params(1.0, 1.0, 0.3, 0.7)
    b = qb.make_params(2.5, 1.0, 0.3, 0.7)
    np.testing.assert_allclose(kappa_grid(a, taus), kappa_grid(b, taus),
                               rtol=0, atol=1e-14)
    # omega0 rescales energies linearly
    pa = qb.maximize_over_tau(a)
    pb = qb.maximize_over_tau(b)
    assert pb.delta_e_max == pytest.approx(2.5 * pa.delta_e_max, rel=1e-9)
    assert pb.w_max == pytest.approx(2.5 * pa.w_max, rel=1e-9)


def test_make_params_rejects_ratios_a_float_cannot_carry():
    """The propagator runs on gamma/Omega and lambda/Omega: a subnormal
    Omega would round them (gamma = 0.123 Omega read as 0.1230237 at
    Omega = 1e-320) and an overflowing gamma/Omega would reach the roots
    as inf."""
    for omega in (1e-308, 1e-320, 5e-324):
        with pytest.raises(ValueError, match="Omega must be a normal"):
            qb.make_params(1.0, omega, 0.123 * omega, 0.377 * omega)
    with pytest.raises(ValueError, match="gamma/Omega overflows"):
        qb.make_params(1.0, 1e-10, 1e300, 1.0)
    smallest = qb.make_params(1.0, sys.float_info.min, 0.0, 1.0)
    assert smallest.coupling_qb_cavity == sys.float_info.min


def test_overflowing_width_ratio_is_memoryless():
    """lambda/Omega = inf in double precision: the engine gives the
    memoryless amplitudes, as a width of 1e12 Omega already does."""
    p = qb.make_params(1.0, 1e-10, 0.5e-10, 1e300)
    taus = np.linspace(0.0, 20.0, 201)
    want = kappa_grid(qb.make_params(1.0, 1.0, 0.5, math.inf), taus)
    assert np.max(np.abs(kappa_grid(p, taus / 1e-10) - want)) <= 1e-12
