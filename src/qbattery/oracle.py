"""Independent brute-force integrator for the coupled amplitude equations.

The memory integral with exponential kernel (gamma*lam/2) * exp(-lam*(t-t'))
is closed exactly by one auxiliary amplitude z(t) = int_0^t exp(-lam*(t-t'))
c1(t') dt', turning the integro-differential system into the local linear ODE

    c1' = -i*Omega*c2 - (gamma*lam/2)*z
    c2' = -i*Omega*c1
    z'  =  c1 - lam*z

with no approximation, so the oracle is exact up to integrator tolerance.
In the flat-spectrum limit the kernel is a delta function and the drag on c1
becomes a plain gamma/2 (fixed by the characteristic polynomial
s^2 + gamma*s/2 + Omega^2 of the infinite-width limit):

    c1' = -i*Omega*c2 - (gamma/2)*c1
    c2' = -i*Omega*c1

Both systems are integrated by adaptive Dormand-Prince 5(4).  Because the
generator M is constant, each step's new state and error estimate are fixed
polynomials in hM applied to y: one (2d x d) step matrix, built from the
weighted powers of M / ||M||_inf (precomputed once per call and normalised so
that none overflows) and applied to y in a single product.  A step spanning a
whole output gap reuses that gap's matrix.

This module is the reference the analytic propagator is checked against; it
shares no code with the partial-fraction inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InitialState, ModelParams

DEFAULT_TOL = 1e-10
# Largest rho*T integrated, rho the spectral radius of the generator and T
# the horizon: explicit DOPRI5 takes at least rho*T/3.3 steps (its stability
# interval), about 2 to 3 us of work per unit of rho*T on one core of a 2-vCPU
# x86 box (lambda/Omega = 2000 over Omega*tau = 50), so about 2 to 3 s at
# this bound.
STIFFNESS_BUDGET = 1e6

# Dormand-Prince 5(4) tableau: stage coefficients, 5th-order weights, and
# 5th-order minus embedded 4th-order weights over all seven stages.
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [0.2, 0.0, 0.0, 0.0, 0.0],
    [0.075, 0.225, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0],
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0,
     -212.0 / 729.0, 0.0],
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0],
])
_B = np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
               -2187.0 / 6784.0, 11.0 / 84.0])
_E = np.array([71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
               -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0])


def _step_weights() -> np.ndarray:
    """Coefficients of the DP5 step on y' = m y as polynomials in H = h m.

    Stage i gives h k_i = P_i(H) y with P_i = H (1 + sum_j A_ij P_j); the
    new state is (1 + sum_i B_i P_i) y and, the seventh stage being
    H times the new state, the error estimate is sum_i E_i P_i(H) y.
    Row 0 holds the new state's coefficients of H^0..H^7, row 1 the error's.
    """
    stages = np.zeros((7, 8))
    one = np.eye(8)[0]
    for i in range(6):
        stages[i, 1:] = (one + _A[i, :i] @ stages[:i])[:-1]
    phi = one + _B @ stages[:6]
    stages[6, 1:] = phi[:-1]
    return np.array([phi, _E @ stages])


_W = _step_weights()
_POWERS = np.arange(8)


@dataclass(frozen=True)
class AmplitudeSeries:
    """Time series of the single-excitation amplitudes.

    ``z`` is the auxiliary memory amplitude (zeros for memoryless runs).
    """

    times: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    z: np.ndarray


def system_matrix(params: ModelParams) -> np.ndarray:
    """Generator of the amplitude system: 3x3 on (c1, c2, z), whose
    eigenvalues are the roots of the cubic
    s^3 + lam*s^2 + (Omega^2 + lam*gamma/2)*s + lam*Omega^2, or when
    memoryless 2x2 on (c1, c2), whose eigenvalues are the roots of
    s^2 + gamma*s/2 + Omega^2."""
    om = params.coupling_qb_cavity
    gamma = params.coupling_cavity_env
    if params.memoryless:
        return np.array([
            [-0.5 * gamma, -1j * om],
            [-1j * om, 0.0],
        ], dtype=np.complex128)
    lam = params.spectral_width
    return np.array([
        [0.0, -1j * om, -0.5 * gamma * lam],
        [-1j * om, 0.0, 0.0],
        [1.0, 0.0, -lam],
    ], dtype=np.complex128)


def _rk45_linear(m: np.ndarray, y0: np.ndarray, t_eval: np.ndarray,
                 rtol: float, atol: float) -> np.ndarray:
    """Dormand-Prince 5(4) integration of the linear system y' = m @ y.

    With a constant generator a step of size h is one (2d x d) matrix
    applied to y: its first d rows give the new state, its last d the
    embedded error estimate.  Row p of ``weighted`` holds ``_W[:, p]`` times
    (m / ||m||_inf)^p, p = 0..7, flattened once per call, so none overflows;
    the step matrix is ``((h ||m||_inf)**p @ weighted).reshape(2d, d)``.  A
    step that spans a whole gap of ``t_eval`` takes its matrix from a
    per-call dict keyed by the step size, since output grids repeat few
    distinct gaps; other step sizes are not kept.  The error norm is taken
    on Python floats.  ``t_eval`` must be sorted ascending, starting at
    >= 0; steps land exactly on each requested output time, so no
    interpolation error is introduced.  Returns an array of shape
    (len(t_eval), dim).  A non-finite generator or initial state, or a run
    whose rho*T exceeds ``STIFFNESS_BUDGET``, raises ValueError before the
    first step.
    """
    mnorm = np.abs(m).sum(axis=1).max()
    if not math.isfinite(mnorm):
        raise ValueError("system matrix is not finite")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state is not finite")
    stiffness = np.abs(np.linalg.eigvals(m)).max() * t_eval[-1]
    if stiffness > STIFFNESS_BUDGET:
        raise ValueError(f"too stiff to integrate: spectral radius times "
                         f"horizon is {stiffness:.3g}, above "
                         f"{STIFFNESS_BUDGET:g}")
    dim = y0.size
    mpow = np.stack([np.linalg.matrix_power(m / mnorm, p) for p in _POWERS])
    weighted = (_W.T[:, :, None, None] * mpow[:, None]).reshape(
        _POWERS.size, 2 * dim * dim)
    gaps = {}  # whole-gap step size -> step matrix
    out = np.empty((t_eval.size, dim), np.complex128)
    t = 0.0
    y = y0.copy()
    ay = np.abs(y).tolist()
    h = 0.01 / mnorm  # initial step from the matrix scale
    for idx, tt in enumerate(t_eval):
        start = t
        while t < tt - 1e-14 * (1.0 + tt):
            clipped = t + h > tt
            hs = tt - t if clipped else h
            whole = clipped and t == start
            step = gaps.get(hs) if whole else None
            if step is None:
                step = ((hs * mnorm) ** _POWERS @ weighted).reshape(2 * dim,
                                                                    dim)
                if whole:
                    gaps[hs] = step
            yerr = step @ y  # new state, then error estimate
            a = np.abs(yerr).tolist()
            sq = 0.0  # RMS of the error over atol + rtol * max(|y|, |ynew|)
            for old, new, err in zip(ay, a, a[dim:]):
                err /= atol + rtol * (old if old > new else new)
                sq += err * err
            errnorm = math.sqrt(sq / dim)
            if errnorm <= 1.0:
                t += hs
                y = yerr[:dim]
                ay = a[:dim]
            factor = (5.0 if errnorm == 0.0
                      else min(5.0, max(0.2, 0.9 * errnorm ** -0.2)))
            h = hs * factor
        out[idx] = y
    return out


def _as_t_eval(tmax: float, t_eval, steps: int) -> np.ndarray:
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=np.float64)
        if t_eval.ndim != 1 or t_eval.size == 0 or np.any(np.diff(t_eval) < 0):
            raise ValueError("t_eval must be a non-empty ascending 1-d array")
        if not np.all(np.isfinite(t_eval)):
            raise ValueError("t_eval must be finite")
        if t_eval[0] < 0:
            raise ValueError("t_eval must be non-negative")
        return t_eval
    if not 0 < tmax < math.inf:
        raise ValueError(f"tmax must be positive and finite, got {tmax}")
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    return np.linspace(0.0, tmax, steps)


def _check_tol(tol: float) -> None:
    if not 1e-12 <= tol <= 1e-6:
        raise ValueError(f"tol must lie in [1e-12, 1e-6], got {tol}")


def integrate(params: ModelParams, init: InitialState, tmax: float,
              tol: float = DEFAULT_TOL, t_eval=None,
              steps: int = 501) -> AmplitudeSeries:
    """Adaptive RK45 integration of the amplitude system: the 3-component
    finite-width system, or the 2-component one when memoryless (``z`` is
    then zeros)."""
    _check_tol(tol)
    times = _as_t_eval(tmax, t_eval, steps)
    m = system_matrix(params)
    y0 = np.zeros(len(m), dtype=np.complex128)
    y0[:2] = init.c1_0, init.c2_0
    ys = _rk45_linear(m, y0, times, tol, tol)
    z = np.zeros_like(ys[:, 0]) if params.memoryless else ys[:, 2]
    return AmplitudeSeries(times, ys[:, 0], ys[:, 1], z)


def integrate_memoryless(params: ModelParams, init: InitialState, tmax: float,
                         tol: float = DEFAULT_TOL, t_eval=None,
                         steps: int = 501) -> AmplitudeSeries:
    """``integrate`` for memoryless params only; it stays because
    perfbench's oracle workload calls it."""
    if not params.memoryless:
        raise ValueError("finite-width params: use integrate")
    return integrate(params, init, tmax, tol, t_eval, steps)
