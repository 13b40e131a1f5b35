"""Figures of merit: stored energy, ergotropy, BLP backflow, optima.

The BLP trace distance is evaluated for the maximizing state pair
{|e><e|, |g><g|}.  |g><g| carries no excitation and is stationary, while
|e><e| evolves with excited population |mu(t)|^2 where mu is the survival
amplitude of the battery excitation (c2 integrated from c1(0)=0, c2(0)=1),
so D(t) = |mu(t)|^2 with D(0) = 1.  Information backflow is any interval of
increasing D; summing the increase over those intervals gives the measure.
In the flat-spectrum limit this yields exactly the gamma/Omega < 4 threshold
for non-Markovian behaviour.

The excited battery has c1 = -i*w and c2 = v, with the real entries w and
v of the transfer matrix U, so D = v^2 and D' = 2*v*v' = -2*v*w.  The scan
for the intervals reads the sign of -v*w on the uniform grid
(``propagator._real_parts_on_grid``), and the charging optima scan |c2|^2
on the same blocked grid.  Both searches expand a batch of cells once
(``propagator._transfer_many``) and refine the extrema they bracket on
that one stack of terms (``_refine``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (InitialState, ModelParams, empty_battery_state,
                    excited_battery_state)
from .propagator import (Terms, _apply, _check_tmax, _ratios,
                         _real_parts_on_grid, _select, _transfer_many,
                         _weights)

BLP_SCAN_SPACING = 1e-3   # default scan spacing, in Omega*tau
BLP_DEFAULT_TMAX = 200.0  # default horizon, in Omega*tau
MAXIMA_DEFAULT_TMAX = 50.0  # default horizon, in Omega*tau
MAXIMA_SCAN_POINTS = 2000   # scan points of a charging optimum's bracket
BLP_REFINE_CELLS = 16     # BLP cells whose brackets are refined together


@dataclass(frozen=True)
class NonMarkovReport:
    """BLP backflow measure and the intervals (in Omega*tau) where the
    trace distance increases."""

    measure: float
    backflow_intervals: tuple[tuple[float, float], ...]
    divergent: bool = False
    truncated: bool = False


@dataclass(frozen=True)
class MaximaReport:
    """Optimal charging values over tau; locations are in Omega*tau."""

    delta_e_max: float
    w_max: float
    tau_at_e_max: float
    tau_at_w_max: float
    at_boundary: bool = False


class NumericalGuardError(ValueError):
    """A computed quantity left its physical range, such as a population
    outside [0, 1]; the command line exits 4 on it."""


def _clipped_population(population) -> np.ndarray:
    """Population as a float array clipped to [0, 1], after a range guard
    that rejects any entry outside [-1e-12, 1 + 1e-9], NaN included, with
    ``NumericalGuardError``."""
    p = np.asarray(population, dtype=np.float64)
    bad = ~((p >= -1e-12) & (p <= 1.0 + 1e-9))
    if bad.any():
        raise NumericalGuardError(
            f"population outside [0, 1]: {p[bad].flat[0]}")
    return np.clip(p, 0.0, 1.0)


def _like(population, values: np.ndarray) -> float | np.ndarray:
    """``values`` as a Python float for a scalar population, else as is."""
    return float(values) if np.ndim(population) == 0 else values


def _stored(omega0, population):
    """Stored energy; ``omega0`` is a scalar or one value per entry."""
    return omega0 * _clipped_population(population)


def _ergotropy(omega0, population):
    """Qubit ergotropy; ``omega0`` is a scalar or one value per entry."""
    p = _clipped_population(population)
    return np.where(p > 0.5, omega0 * (2.0 * p - 1.0), 0.0)


def stored_energy(params: ModelParams,
                  population: float | np.ndarray) -> float | np.ndarray:
    """Energy held by the battery at excited population p: omega0 * p.

    ``population`` is a scalar (a Python float is returned) or an array
    (an array of the same shape is returned); every entry must lie in
    [0, 1] up to roundoff, else ValueError.
    """
    return _like(population, _stored(params.omega0, population))


def ergotropy_qubit(params: ModelParams,
                    population: float | np.ndarray) -> float | np.ndarray:
    """Extractable work of the diagonal qubit state diag(p, 1-p):
    omega0*(2p - 1) above the passive boundary p = 1/2, else zero.

    Takes a scalar or an array population, as ``stored_energy`` does.
    """
    return _like(population, _ergotropy(params.omega0, population))


def ergotropy_general(rho: np.ndarray, hamiltonian: np.ndarray,
                      tol: float = 1e-9) -> float:
    """Extractable work tr(rho H) - tr(sigma H) for any finite dimension.

    The passive state sigma pairs the populations of rho, sorted descending,
    with the energy levels sorted ascending.  Inputs must be Hermitian, with
    rho trace-1 and positive semidefinite (tolerance ``tol``).
    """
    rho = np.asarray(rho, dtype=np.complex128)
    h = np.asarray(hamiltonian, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
        raise ValueError("rho must be a square matrix of dimension >= 2")
    if h.shape != rho.shape:
        raise ValueError("hamiltonian shape must match rho")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise ValueError("rho is not Hermitian")
    if np.max(np.abs(h - h.conj().T)) > tol:
        raise ValueError("hamiltonian is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ValueError("rho is not trace-1")
    r = np.linalg.eigvalsh(rho)
    if r[0] < -tol:
        raise ValueError("rho is not positive semidefinite")
    eps = np.linalg.eigvalsh(h)          # ascending
    r_desc = r[::-1]                     # descending
    passive = float(np.dot(r_desc, eps))
    work = float(np.trace(rho @ h).real) - passive
    return max(work, 0.0)


def _slope(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """d|c2|^2/dt in Omega*tau: 2 Re(conj(c2) c2'), exact via c2' = -i*c1."""
    return 2.0 * np.real(np.conj(c2) * (-1j * c1))


def _refine(terms: Terms, init: InitialState, a: np.ndarray, b: np.ndarray,
            rising_at_a) -> tuple[np.ndarray, np.ndarray]:
    """60 lockstep halvings of the brackets (a[i], b[i]) of the cells
    stacked in ``terms`` (one per bracket), in Omega*tau, on the sign of
    d|c2|^2/dt, one stacked c1/c2 evaluation per halving: the points found
    and c2 there.  A bracket moves its left end to a midpoint whose slope
    has the sign ``rising_at_a`` gives that end, else its right end; a
    zero-width bracket stays on its point."""
    weights = _weights(init)
    for _ in range(60):
        mid = 0.5 * (a + b)
        go_right = (_slope(*_apply(terms, weights, mid)) > 0.0) == rising_at_a
        a = np.where(go_right, mid, a)
        b = np.where(go_right, b, mid)
    t = 0.5 * (a + b)
    return t, _apply(terms, weights, t)[1]


def _blp_brackets(terms: Terms, tmax: float, grid: int):
    """Brackets (a, b, rising at a) of the sign changes of dD/dt on a scan
    of [0, tmax] in Omega*tau, between zero-width ones at 0 and tmax, for
    the cell of ``terms``.

    D' = -2*v*w: the scan reads only the entries w and v of U."""
    roots, coefs = terms
    w, v = _real_parts_on_grid((roots, coefs[1:]), tmax, grid)
    sign = v * w < 0.0
    del w, v  # free the entries before the grid's times are made
    # D'(0) = 0 exactly and D''(0) = -2 < 0 in Omega*tau: D falls right after
    # t = 0, and the computed sign of D'(0) is roundoff
    sign[0] = False
    taus = np.linspace(0.0, tmax, grid)
    i = np.nonzero(sign[1:] != sign[:-1])[0]
    return (np.concatenate(([0.0], taus[i], [tmax])),
            np.concatenate(([0.0], taus[i + 1], [tmax])),
            np.concatenate(([False], sign[i], [False])))


def blp_nonmarkovianity_many(params_seq, tmax: float | None = None,
                             grid: int | None = None) -> list[NonMarkovReport]:
    """``blp_nonmarkovianity`` for many cells, one report per cell.

    ``BLP_REFINE_CELLS`` cells at a time are expanded together, each is
    scanned alone, and their brackets are refined together by ``_refine``:
    memory does not grow with the batch, nor a cell's report depend on it.
    D(tmax), read with the extrema, sets each report's ``truncated`` flag.
    """
    params_seq = list(params_seq)
    tmax = BLP_DEFAULT_TMAX if tmax is None else tmax
    _check_tmax(tmax)
    if grid is None:
        span = tmax / BLP_SCAN_SPACING
        if not math.isfinite(span):
            raise ValueError("the default scan grid at this tmax is not "
                             "finite; give --grid")
        grid = int(round(span)) + 1
    if grid < 3:
        raise ValueError("grid must be at least 3 points")
    reports = [NonMarkovReport(math.inf, (), divergent=True)] * len(params_seq)
    live = [i for i, p in enumerate(params_seq) if p.coupling_cavity_env]
    for k in range(0, len(live), BLP_REFINE_CELLS):
        group = live[k:k + BLP_REFINE_CELLS]
        terms = _transfer_many([_ratios(params_seq[i]) for i in group])
        brackets = [_blp_brackets(_select(terms, j), tmax, grid)
                    for j in range(len(group))]
        counts = [len(a) for a, _, _ in brackets]
        crit, c2 = _refine(
            _select(terms, np.repeat(np.arange(len(group)), counts)),
            excited_battery_state(), *map(np.concatenate, zip(*brackets)))
        ends = np.cumsum(counts)[:-1]
        for i, t, d in zip(group, np.split(crit, ends),
                           np.split(np.abs(c2) ** 2, ends)):
            measure, intervals = 0.0, []
            for a, b, da, db in zip(t[:-1], t[1:], d[:-1], d[1:]):
                if b - a > 0 and db - da > 0.0:
                    measure += db - da
                    intervals.append((a, b))
            reports[i] = NonMarkovReport(float(measure), tuple(intervals),
                                         truncated=bool(d[-1] > 1e-6))
    return reports


def blp_nonmarkovianity(params: ModelParams, tmax: float | None = None,
                        grid: int | None = None) -> NonMarkovReport:
    """BLP backflow measure for the optimal pure state pair.

    Scans the sign of dD/dt = -2*v*w (c2 = v and c1 = -i*w of the excited
    battery, w and v real) on a uniform grid over [0, tmax] in Omega*tau
    (default spacing 1e-3), with one exponential per real root or
    conjugate pair, blocked on the grid; bisects each sign change as
    charging optima are (``_refine``) and sums the increase of D over
    every rising interval.  gamma = 0 is a flagged divergent case (perpetual
    closed-system recurrences); a ``truncated`` flag is set when D(tmax)
    has not decayed below 1e-6.
    This is the one-cell case of ``blp_nonmarkovianity_many``.
    """
    return blp_nonmarkovianity_many([params], tmax, grid)[0]


def _scan_peak(terms: Terms, init: InitialState, tmax: float) -> int:
    """Index of the largest population |c2|^2 of the cell of ``terms`` on
    np.linspace(0, tmax, MAXIMA_SCAN_POINTS), from the blocked grid
    evaluator; a population outside [0, 1] raises ``NumericalGuardError``."""
    c2 = _apply(terms, _weights(init)[1:], tmax, MAXIMA_SCAN_POINTS)[0]
    return int(np.argmax(_clipped_population(np.abs(c2) ** 2)))


def maximize_over_tau_many(params_seq, init: InitialState | None = None,
                           tmax: float | None = None) -> list[MaximaReport]:
    """``maximize_over_tau`` for many cells, one report per cell.

    The cells are expanded together, each is scanned alone, and the
    brackets of all cells are then refined together by ``_refine`` on the
    same stack of terms; a cell's report does not depend on its batch.
    """
    if init is None:
        init = empty_battery_state()
    params_seq = list(params_seq)
    tmax = MAXIMA_DEFAULT_TMAX if tmax is None else tmax
    _check_tmax(tmax)

    n = MAXIMA_SCAN_POINTS
    terms = _transfer_many([_ratios(p) for p in params_seq])
    peak = np.array([_scan_peak(_select(terms, i), init, tmax)
                     for i in range(len(params_seq))], dtype=int)
    taus = np.linspace(0.0, tmax, n)
    tau_star, c2 = _refine(terms, init, taus[np.maximum(peak - 1, 0)],
                           taus[np.minimum(peak + 1, n - 1)], True)
    p_star = _clipped_population(np.abs(c2) ** 2)

    omega0 = np.array([p.omega0 for p in params_seq])
    reports = []
    for tau, de, w in zip(tau_star.tolist(), _stored(omega0, p_star).tolist(),
                          _ergotropy(omega0, p_star).tolist()):
        reports.append(MaximaReport(de, w, tau, tau if w > 0.0 else math.nan,
                                    tau > tmax - (tmax / (n - 1))))
    return reports


def maximize_over_tau(params: ModelParams, init: InitialState | None = None,
                      tmax: float | None = None) -> MaximaReport:
    """Optimal stored energy and ergotropy over the charging time.

    Coarse scan of the population |c2|^2 on a 2000-point grid over
    [0, tmax] in Omega*tau, read by the blocked grid evaluator the BLP scan
    uses, then 60 halvings of the bracket around the largest sample on the
    sign of d|c2|^2/dt = 2 Re(conj(c2) (-i c1)), by the ``_refine`` that
    also finds the BLP extrema: Omega*tau is found to the roundoff of that
    slope, well within 1e-8, and an optimum at 0 or tmax is reached
    exactly.  A population outside [0, 1] raises ``NumericalGuardError``.
    An optimum within one scan step of tmax sets ``at_boundary``.  This is
    the one-cell case of ``maximize_over_tau_many``.
    """
    return maximize_over_tau_many([params], init, tmax)[0]
