"""Independent reference for the coupled amplitude equations.

The memory integral with exponential kernel (gamma*lam/2) * exp(-lam*(t-t'))
is closed exactly by one auxiliary amplitude z(t) = int_0^t exp(-lam*(t-t'))
c1(t') dt', turning the integro-differential system into the local linear ODE

    c1' = -i*Omega*c2 - (gamma*lam/2)*z
    c2' = -i*Omega*c1
    z'  =  c1 - lam*z

with no approximation.  In the flat-spectrum limit the kernel is a delta
function and the drag on c1 becomes a plain gamma/2 (fixed by the
characteristic polynomial s^2 + gamma*s/2 + Omega^2 of the infinite-width
limit):

    c1' = -i*Omega*c2 - (gamma/2)*c1
    c2' = -i*Omega*c1

Either system is y' = M y with a constant generator M, so its solution is
y(t) = e^{tM} y(0).  The oracle forms e^{hM} once for each distinct gap h
between the output times, by the [13/13] Pade approximant with scaling and
squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005; Al-Mohy & Higham,
ibid. 31, 2009), and steps the state from one output to the next with one
product.  e^{hM} is a contraction in the norm of the energy the system
dissipates, |c1|^2 + |c2|^2 + (gamma*lam/2)|z|^2, so the rounding error
grows at most linearly in the number of outputs; z is stepped in that
norm's coordinate (``_energy_scale``).

This module is the reference the analytic propagator is checked against; it
uses matrix products and one solve, no roots, and shares no code with the
partial-fraction inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InitialState, ModelParams

# Coefficients of the [13/13] Pade approximant of exp, constant term first
# and scaled to 1 (so that e^0 is I exactly), and theta_13, the largest
# 1-norm of A at which its backward error stays below the unit roundoff
# (Higham 2005).
_PADE = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA_13 = 5.371920351148152


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


def _expm(stack: np.ndarray) -> np.ndarray:
    """e^A for each matrix A of ``stack`` (shape (k, d, d)).

    Each A is scaled by its own 2^-s, s = max(0, e) for the exponent e
    that ``np.frexp`` gives ||A||_1 / theta_13, so ||A||_1 / 2^s <=
    theta_13 (``log2`` would warn on the zero matrix of a zero gap, whose
    s is 0).  The [13/13] Pade approximant r = (V - U)^-1 (V + U) of the
    scaled matrix is then squared s times, each matrix only while its own
    s lasts.
    """
    b = _PADE
    norm = np.abs(stack).sum(axis=-2).max(axis=-1)
    s = np.maximum(np.frexp(norm / _THETA_13)[1], 0)
    a = stack * np.ldexp(1.0, -s)[:, None, None]
    eye = np.eye(stack.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + eye)
    r = np.linalg.solve(v - u, v + u)
    for j in range(int(s.max())):
        r = np.where((s > j)[:, None, None], r @ r, r)
    return r


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


def _energy_scale(m: np.ndarray) -> np.ndarray:
    """The diagonal d of the coordinates d*y that the oracle steps: 1 for
    c1 and c2, and for z the power of two within a factor sqrt(2) of
    sqrt(gamma*lam/2).  Then |d*y|^2 is, within that factor, the energy
    |c1|^2 + |c2|^2 + (gamma*lam/2)|z|^2 that the system dissipates, so
    e^{h d M d^-1} is nearly a contraction in the 2-norm, and the entries
    -gamma*lam/2 and 1 of M both become about sqrt(gamma*lam/2) in
    d M d^-1.  Its 1-norm, which sets the squarings of ``_expm``, falls
    with them: at gamma/Omega = lam/Omega = 1e4, from 5e7 to 1.6e4.
    Powers of two make the change of coordinates exact."""
    d = np.ones(len(m))
    if len(m) == 3:
        d[2] = np.ldexp(1.0, np.frexp(abs(m[0, 2]))[1] // 2)
    return d


def _integrate(params: ModelParams, init: InitialState, tmax: float,
               t_eval, steps: int) -> AmplitudeSeries:
    """The body of ``integrate`` and ``integrate_memoryless``.

    The output times are reached over the gaps of [0, t_0, t_1, ...]:
    e^{hM} is formed once per distinct gap h, in one ``_expm`` call on
    the balanced generator (``_energy_scale``), and each output is the
    previous one times its gap's exponential.  A generator or initial
    state that is not finite, or a horizon whose product with the
    generator's 1-norm overflows, raises ValueError before any work.
    """
    times = _as_t_eval(tmax, t_eval, steps)
    m = system_matrix(params)
    mnorm = float(np.abs(m).sum(axis=0).max())
    if not math.isfinite(mnorm):
        raise ValueError("system matrix is not finite")
    y = np.zeros(len(m), dtype=np.complex128)
    y[:2] = init.c1_0, init.c2_0
    if not np.all(np.isfinite(y)):
        raise ValueError("initial state is not finite")
    if not math.isfinite(mnorm * float(times[-1])):
        raise ValueError("horizon times system matrix is not finite")
    d = _energy_scale(m)
    gaps, which = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    exps = _expm(gaps[:, None, None] * (m * d[:, None] / d))
    ys = np.empty((times.size, len(m)), np.complex128)
    y = d * y
    for k, e in enumerate(which):
        y = exps[e] @ y
        ys[k] = y
    ys /= d
    z = np.zeros_like(ys[:, 0]) if params.memoryless else ys[:, 2]
    return AmplitudeSeries(times, ys[:, 0], ys[:, 1], z)


def integrate(params: ModelParams, init: InitialState, tmax: float,
              t_eval=None, steps: int = 501) -> AmplitudeSeries:
    """The amplitudes e^{tM} y(0) at the times ``t_eval`` (sorted
    ascending, from >= 0), or else at ``steps`` equal steps of [0, tmax]:
    the 3-component finite-width system, or the 2-component one when
    memoryless (``z`` is then zeros)."""
    return _integrate(params, init, tmax, t_eval, steps)


def integrate_memoryless(params: ModelParams, init: InitialState, tmax: float,
                         t_eval=None, steps: int = 501) -> AmplitudeSeries:
    """``integrate`` for memoryless params only; it stays because
    perfbench's oracle workload calls it."""
    if not params.memoryless:
        raise ValueError("finite-width params: use integrate")
    return _integrate(params, init, tmax, t_eval, steps)
