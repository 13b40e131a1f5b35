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

This module is the reference the analytic propagator is checked against; it
shares no code with the partial-fraction inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InitialState, ModelParams

DEFAULT_TOL = 1e-10

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

    ``t_eval`` must be sorted ascending, starting at >= 0; steps land exactly
    on each requested output time, so no interpolation error is introduced.
    Returns an array of shape (len(t_eval), dim).
    """
    out = np.empty((t_eval.size, y0.size), np.complex128)
    k = np.empty((7, y0.size), np.complex128)
    t = 0.0
    y = y0.copy()
    k[0] = m @ y
    mnorm = np.abs(m).sum(axis=1).max()  # initial step from the matrix scale
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
                k[0] = k[6]  # FSAL
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


def _integrate(params: ModelParams, init: InitialState, tmax: float,
               tol: float, t_eval, steps: int) -> AmplitudeSeries:
    _check_tol(tol)
    times = _as_t_eval(tmax, t_eval, steps)
    m = system_matrix(params)
    y0 = np.zeros(len(m), dtype=np.complex128)
    y0[:2] = init.c1_0, init.c2_0
    ys = _rk45_linear(m, y0, times, tol, tol)
    z = np.zeros_like(ys[:, 0]) if params.memoryless else ys[:, 2]
    return AmplitudeSeries(times, ys[:, 0], ys[:, 1], z)


def integrate(params: ModelParams, init: InitialState, tmax: float,
              tol: float = DEFAULT_TOL, t_eval=None,
              steps: int = 501) -> AmplitudeSeries:
    """Adaptive RK45 integration of the amplitude system: the 3-component
    finite-width system, or the 2-component one when memoryless (``z`` is
    then zeros)."""
    return _integrate(params, init, tmax, tol, t_eval, steps)


def integrate_memoryless(params: ModelParams, init: InitialState, tmax: float,
                         tol: float = DEFAULT_TOL, t_eval=None,
                         steps: int = 501) -> AmplitudeSeries:
    """``integrate`` for memoryless params only."""
    if not params.memoryless:
        raise ValueError("finite-width params: use integrate")
    return _integrate(params, init, tmax, tol, t_eval, steps)
