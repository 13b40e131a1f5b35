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
that none overflows) and applied to y in a single product.  A run of steps
that each span a whole output gap, inside DOPRI5's stability region, is
taken as one array operation per block of up to 64 outputs: the block's
step matrices in one product, its states by a parallel-prefix product
(Hillis & Steele, CACM 29, 1986), and its error norms, acceptances and step
factors as arrays, keeping the steps up to the first that the one-step
loop would decide otherwise.

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
# interval), about 2 us of work per unit of rho*T on one core of a 2-vCPU
# x86 box (2.0 to 2.1 us at lambda/Omega = 2000 over Omega*tau = 50, where
# every step is shorter than an output gap and runs alone), so about 2 s at
# this bound.
STIFFNESS_BUDGET = 1e6
# Most outputs of a whole-gap run taken in one block by ``_whole_gaps``.  A
# block holds about 1.8 kB per output: a 1001-point call peaks at about
# 170 kB, and at about 280 kB with 128.
_BLOCK = 64

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


def _factor(errnorm: float) -> float:
    """The step-size factor after a step of RMS error norm ``errnorm``."""
    return (5.0 if errnorm == 0.0
            else min(5.0, max(0.2, 0.9 * errnorm ** -0.2)))


def _rk45_linear(m: np.ndarray, y0: np.ndarray, t_eval: np.ndarray,
                 rtol: float, atol: float) -> np.ndarray:
    """Dormand-Prince 5(4) integration of the linear system y' = m @ y.

    With a constant generator a step of size h is one (2d x d) matrix
    applied to y: its first d rows give the new state, its last d the
    embedded error estimate.  Row p of ``weighted`` holds ``_W[:, p]`` times
    (m / ||m||_inf)^p, p = 0..7, flattened once per call, so none overflows;
    the step matrix is ``((h ||m||_inf)**p @ weighted).reshape(2d, d)``.
    A step that spans a whole gap of ``t_eval`` within the stability limit
    (``_stable_step``) starts a run of such steps, taken by ``_whole_gaps``
    in blocks of 16, 32, then ``_BLOCK`` outputs while the run goes on.
    Every other step is taken alone, its error norm on Python floats.  The
    blocks make the loop's decisions, and their states move by roundoff
    only.  ``t_eval`` must be sorted ascending, starting at >= 0; steps
    land exactly on each requested output time, so no interpolation error
    is introduced.  Returns an array of shape (len(t_eval), dim).  A
    non-finite generator or initial state, or a run whose rho*T exceeds
    ``STIFFNESS_BUDGET``, raises ValueError before the first step.
    """
    mnorm = np.abs(m).sum(axis=1).max()
    if not math.isfinite(mnorm):
        raise ValueError("system matrix is not finite")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state is not finite")
    eig = np.linalg.eigvals(m)
    stiffness = np.abs(eig).max() * t_eval[-1]
    if stiffness > STIFFNESS_BUDGET:
        raise ValueError(f"too stiff to integrate: spectral radius times "
                         f"horizon is {stiffness:.3g}, above "
                         f"{STIFFNESS_BUDGET:g}")
    dim = y0.size
    mpow = np.stack([np.linalg.matrix_power(m / mnorm, p) for p in _POWERS])
    weighted = (_W.T[:, :, None, None] * mpow[:, None]).reshape(
        _POWERS.size, 2 * dim * dim)
    stable = _stable_step(eig)
    out = np.empty((t_eval.size, dim), np.complex128)
    t = 0.0
    y = y0.copy()
    ay = np.abs(y).tolist()
    h = 0.01 / mnorm  # initial step from the matrix scale
    idx, block = 0, _BLOCK // 4
    while idx < t_eval.size:
        tt = t_eval[idx]
        if t + h > tt and t < tt - 1e-14 * (1.0 + tt) and tt - t <= stable:
            tts = t_eval[idx:idx + block]  # a run of whole-gap steps
            ys, t, h = _whole_gaps(weighted, mnorm, stable, y, t, tts, rtol,
                                   atol)
            if len(ys):
                out[idx:idx + len(ys)] = ys
                y = ys[-1]
                ay = np.abs(y).tolist()
                idx += len(ys)
            if len(ys) == len(tts):
                block = min(2 * block, _BLOCK)
                continue
            block = _BLOCK // 4  # the run ended: this gap takes single steps
            tt = t_eval[idx]
        while t < tt - 1e-14 * (1.0 + tt):
            hs = tt - t if t + h > tt else h
            step = ((hs * mnorm) ** _POWERS @ weighted).reshape(2 * dim, dim)
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
            h = hs * _factor(errnorm)
        out[idx] = y
        idx += 1
    return out


def _stable_step(eig: np.ndarray) -> float:
    """The largest step h, to 1/256 of 4/|lambda|, such that every step up
    to h lies in DOPRI5's stability region at each eigenvalue lambda of
    the generator: |R(h' lambda)| <= 1 for h' <= h, R the new-state
    polynomial ``_W[0]``.  The scan reaches |h lambda| = 4, beyond the
    region's extent of about 3.3 along the negative real axis.  Past the
    limit roundoff grows in the unstable mode from step to step, so blocks,
    whose states round otherwise than the one-step loop's, stay below it."""
    radius = np.linspace(0.0, 4.0, 257)
    scale = np.abs(eig)
    unit = eig / np.where(scale > 0.0, scale, 1.0)
    z = unit[:, None] * radius[1:]
    unstable = np.abs(np.polyval(_W[0, ::-1], z)) > 1.0
    last = np.where(unstable.any(1), radius[unstable.argmax(1)], 4.0)
    with np.errstate(divide="ignore"):
        return float((last / scale).min())


def _whole_gaps(weighted: np.ndarray, mnorm: float, stable: float,
                y: np.ndarray, t: float, tts: np.ndarray, rtol: float,
                atol: float) -> tuple[np.ndarray, float, float]:
    """A run of steps that each span a whole gap, from the state y at t to
    the output times ``tts``, the first step spanning its gap and at most
    ``stable`` long, taken as array operations: the states at the outputs
    it reaches, shape (n, d), then the new t and step.

    The K step matrices are one stacked product of the gap powers with
    ``weighted``, bit for bit the loop's, and the first step's product
    with y is the loop's too.  The states after it come from an inclusive
    Hillis-Steele prefix product of the new-state rows on a (d, d, K)
    layout, the block on the last axis (log2 K rounds of broadcast
    multiply-and-sum).  Each step's error comes from its own error rows
    and the state before it; the RMS norm, the acceptance test and the
    0.2-5 factor rule follow as in the loop.  The run keeps every step up
    to the first rejected one, whose smaller step it hands back, or up to
    a step after which the next output's step would no longer be a whole
    gap within the limit: its new step falls short of the gap, the gap
    exceeds ``stable`` or is below the landing slack of 1e-14 (1 + t), or
    t does not land exactly on the output (the next gap would start
    elsewhere).
    """
    dim = y.size
    t_prev = np.concatenate(([t], tts[:-1]))
    hs = tts - t_prev
    t_next = t_prev + hs
    stack = (((hs[:, None] * mnorm) ** _POWERS)[:, None] @ weighted).reshape(
        -1, 2 * dim, dim)
    steps = stack.transpose(1, 2, 0)
    prod = steps[:dim].copy()
    shift = 1
    while shift < prod.shape[-1]:  # prod[..., k] = S_k ... S_1 S_0
        prod[..., shift:] = (prod[:, :, None, shift:]
                             * prod[None, :, :, :-shift]).sum(1)
        shift *= 2
    ys = (prod * y[None, :, None]).sum(1)  # (d, K): the state after each step
    first = stack[0] @ y  # the loop's own first step
    ys[:, 0] = first[:dim]
    before = np.concatenate((y[:, None], ys[:, :-1]), axis=1)
    err = (steps[dim:] * before[None]).sum(1)
    err[:, 0] = first[dim:]
    scale = atol + rtol * np.maximum(np.abs(before), np.abs(ys))
    errnorm = np.sqrt(((np.abs(err) / scale) ** 2).sum(0) / dim)
    with np.errstate(divide="ignore"):  # errnorm 0 gives the factor 5
        h_next = hs * np.clip(0.9 * errnorm ** -0.2, 0.2, 5.0)
    accepted = errnorm <= 1.0
    goes_on = np.zeros_like(accepted)
    after = tts[1:]
    goes_on[:-1] = ((t_next[:-1] == tts[:-1]) & (hs[1:] <= stable)
                    & (t_next[:-1] + h_next[:-1] > after)
                    & (t_next[:-1] < after - 1e-14 * (1.0 + after)))
    last = int(np.argmax(~accepted | ~goes_on))
    n = last + int(accepted[last])
    return (ys[:, :n].T, float(t_next[n - 1]) if n else t,
            hs[last] * _factor(float(errnorm[last])))


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
