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
for the intervals finds every sign change of -v*w on the uniform grid, and
the charging optima scan |c2|^2 on the same grid, both through the one
evaluator (``propagator._eval_terms``), a block of rows at a time.  A BLP
scan takes one cell at a time and reads a coarse subset of its grid first,
then every point of the intervals where a bound on the slopes of w and v
does not prove that neither changes sign: on the figure axes about 6 % of
a 2e5-point grid.  The charging scans of ``MAXIMA_SCAN_CELLS`` cells share
one read, into buffers that every pass reuses.
Both searches expand a batch of cells once (``propagator._transfer_many``)
and refine the extrema they bracket on that one stack of terms
(``_refine``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (InitialState, ModelParams, empty_battery_state,
                    excited_battery_state)
from .propagator import (Terms, _apply, _check_tmax, _eval_terms, _ratios,
                         _select, _transfer_many, _weights)

BLP_SCAN_SPACING = 1e-3   # default scan spacing, in Omega*tau
BLP_DEFAULT_TMAX = 200.0  # default horizon, in Omega*tau
MAXIMA_DEFAULT_TMAX = 50.0  # default horizon, in Omega*tau
MAXIMA_SCAN_POINTS = 2000   # scan points of a charging optimum's bracket
BLP_REFINE_CELLS = 16     # BLP cells whose brackets are refined together
BLP_POINTS_PER_PERIOD = 64  # coarse scan points per period of D'
BLP_MIN_SKIP = 8          # fewest grid steps between coarse scan points
BLP_MIN_SKIP_GRID = 1 << 16  # fewest points of a scan that skips points
BLP_SKIP_SLACK = 1e-9     # relative margin of the proof that skips points
BLP_MAX_GRID = 1 << 32    # most points of a BLP scan (a minute a cell)
_GRID_BLOCK = 1 << 14     # grid points a scan reads at a time
# cells whose charging-optimum scans fill one block
MAXIMA_SCAN_CELLS = _GRID_BLOCK // MAXIMA_SCAN_POINTS


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


def _grid_times(m: np.ndarray, tmax: float, n: int) -> np.ndarray:
    """np.linspace(0, tmax, n)[m] for sorted m, without the grid."""
    h = tmax / (n - 1)
    t = m * h if h else m / (n - 1) * tmax
    if len(m) and m[-1] == n - 1:
        t[-1] = tmax
    return t


def _sign_kept(terms: Terms, t: np.ndarray, x: np.ndarray,
               span: float) -> np.ndarray:
    """For each interval, no longer than ``span``, between consecutive
    times ``t`` (Omega*tau) with the entries x = (w, v) there, whether the
    computed sign of D' = -2*v*w is the same at every grid point inside it
    as at its ends.

    On [t_a, t_b] an entry of terms a_jp t^p e^(s_j t) is at most E = sum
    |a_jp| t_b^p e^max(Re s_j t_a, Re s_j t_b) in size, and its slope at
    most the same sum with |a_jp| (|s_j| t_b^p + p t_b^(p-1)).  So an entry
    keeps its sign when |x(t_a)| + |x(t_b)| exceeds ``span`` times the
    slope bound (|x| stays above half the excess, and ends of opposite
    sign or a zero end leave none) by more than ``BLP_SKIP_SLACK`` (1 +
    max|s_j| t) E, which covers the roundoff of the grid evaluator's
    exponentials at times up to t.  The sign of v*w is kept where both
    entries keep theirs by an excess above 1e-150, so that their product
    cannot round to zero, or where both E are under 1e-165, so that it
    rounds to zero everywhere."""
    roots, coefs = terms
    size = np.abs(roots)
    slack = BLP_SKIP_SLACK * (1.0 + size.max() * t[-1])
    e = np.exp(np.multiply.outer(roots.real, t))
    e = np.maximum(e[:, :-1], e[:, 1:])
    t_b = t[1:]
    # need: span times the slope bound plus the slack, for each entry
    need = bound = 0.0
    for p, a in enumerate(np.abs(coefs).transpose(2, 0, 1)):
        n, b = np.split(np.concatenate((a * (span * size + slack), a)) @ e, 2)
        if p:
            n, b = n * t_b ** p + p * span * b * t_b ** (p - 1), b * t_b ** p
        need, bound = need + n, bound + b
    mag = np.abs(x)
    return ((mag[:, :-1] + mag[:, 1:] - need > 1e-150).all(0)
            | (bound < 1e-165).all(0))


def _blp_brackets(terms: Terms, tmax: float, grid: int):
    """Brackets (a, b, rising at a) of the sign changes of dD/dt on the
    scan np.linspace(0, tmax, grid) in Omega*tau, between zero-width ones
    at 0 and tmax, for the cell of ``terms``.

    D' = -2*v*w: the scan reads only the entries w and v of U, in two
    passes over the grid, laid out in rows of b = isqrt(grid) points.  The
    coarse pass reads the same columns of every row, at most ``width``
    points apart (``BLP_POINTS_PER_PERIOD`` to a period of D''s fastest
    frequency max(2 max|Im s_j|, 1)), and the column of the last point.
    The dense pass reads every point between two coarse ones where
    ``_sign_kept`` cannot prove that D' keeps its sign, each interval as a
    row from its left end, so its points may differ from a read of their
    grid rows in the last bit; the brackets equal those of a pointwise scan
    of every point on every cell the tests check.  The coarse pass reads
    every point (width 1) when fewer than ``BLP_MIN_SKIP`` points would lie
    between coarse ones, or the grid has fewer than ``BLP_MIN_SKIP_GRID``
    points: then the proofs would cost more than they save.  Each read
    fills at most ``_GRID_BLOCK`` points, so memory does not grow with the
    grid."""
    roots, coefs = terms
    wv = (roots, coefs[1:])
    b = math.isqrt(grid)
    rows = -(-grid // b)
    h = tmax / (grid - 1)
    width = 1
    if grid >= BLP_MIN_SKIP_GRID and h:
        freq = max(2.0 * float(np.abs(roots.imag).max()), 1.0)
        width = int(min(2.0 * math.pi / (BLP_POINTS_PER_PERIOD * freq * h),
                        b, _GRID_BLOCK))
        if width < BLP_MIN_SKIP:
            width = 1
    last = grid - 1 - (rows - 1) * b
    cols = np.arange(0, b, width)
    if last % width:
        cols = np.insert(cols, last // width + 1, last)
    q = len(cols)
    count = (rows - 1) * q + last // width + 1 + (last % width > 0)
    step = max(_GRID_BLOCK // q, 1)  # rows to a block

    def point(g):  # grid index of coarse point g
        return g // q * b + cols[g % q]

    at, rising = [], []
    sign, x, t = np.zeros(0, dtype=bool), np.empty((2, 0)), np.empty(0)
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        # coarse points g0 (the last of the previous block) to g1 - 1
        g0, g1 = r0 * q - (r0 > 0), min(r1 * q, count)
        new = np.reshape(_eval_terms(wv, np.arange(r0, r1) * b, cols, h),
                         (2, -1))[:, :g1 - r0 * q]
        if width == 1:
            sign = np.concatenate((sign[-1:], new[1] * new[0] < 0.0))
            # D'(0) = 0 exactly and D''(0) = -2 < 0 in Omega*tau: D falls
            # right after t = 0, and the computed sign of D'(0) is roundoff
            sign[0] &= r0 > 0
            g = np.flatnonzero(sign[1:] != sign[:-1])
            at.append(g0 + g)
            rising.append(sign[g])
            continue
        x = np.concatenate((x[:, -1:], new), axis=1)
        t = np.concatenate((t[-1:], ((np.arange(r0, r1) * b)[:, None] + cols
                                     ).ravel()[:g1 - r0 * q] * h))
        # the dense pass reads every point inside the intervals not proven;
        # the coarse pass gave the signs at their ends
        todo = np.flatnonzero(~_sign_kept(wv, t, x, width * h))
        if not len(todo):
            continue
        m = point(g0 + todo)
        span = point(g0 + todo + 1) - m
        inner = int(span.max()) - 1
        ends = x[:, np.stack((todo, todo + 1), 1)]
        ends = ends[1] * ends[0] < 0.0
        ends[:, 0] &= m > 0  # D'(0), as above
        chunk = max(_GRID_BLOCK // max(inner, 1), 1)
        for j in range(0, len(todo), chunk):
            jj = slice(j, j + chunk)
            # each interval a row from its left end
            iw, iv = _eval_terms(wv, m[jj], np.arange(1, inner + 1), h)
            signs = np.concatenate((ends[jj, :1], iv * iw < 0.0,
                                    ends[jj, 1:]), axis=1)
            # the right end after the interior of a shorter interval
            signs[np.arange(len(signs)), span[jj]] = ends[jj, 1]
            u, o = np.nonzero((signs[:, 1:] != signs[:, :-1])
                              & (np.arange(inner + 1) < span[jj, None]))
            at.append(m[jj][u] + o)
            rising.append(signs[u, o])
    at, rising = np.concatenate(at), np.concatenate(rising)
    return (np.concatenate(([0.0], _grid_times(at, tmax, grid), [tmax])),
            np.concatenate(([0.0], _grid_times(at + 1, tmax, grid), [tmax])),
            np.concatenate(([False], rising, [False])))


def blp_nonmarkovianity_many(params_seq, tmax: float | None = None,
                             grid: int | None = None) -> list[NonMarkovReport]:
    """``blp_nonmarkovianity`` for many cells, one report per cell.

    ``BLP_REFINE_CELLS`` cells at a time are expanded together, each is
    scanned alone (``_blp_brackets``), and their brackets are refined
    together by ``_refine``: memory does not grow with the batch or the
    grid, nor a cell's report depend on the batch.  A grid of more than
    ``BLP_MAX_GRID`` points raises ValueError naming --grid and --tmax.
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
    if grid > BLP_MAX_GRID:
        raise ValueError(f"a scan of {grid} points is more than the "
                         f"{BLP_MAX_GRID} one may take; give a smaller --grid "
                         "or --tmax")
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

    Finds every sign change of dD/dt = -2*v*w (c2 = v and c1 = -i*w of the
    excited battery, w and v real) on a uniform grid over [0, tmax] in
    Omega*tau (default spacing 1e-3), with one exponential per real root or
    conjugate pair, blocked on the grid: a coarse pass, then every point of
    the intervals where a bound does not prove that D' keeps its sign, so
    the brackets are those of a scan of every point.  Bisects each sign
    change as charging optima are (``_refine``) and sums the increase of D
    over every rising interval.  gamma = 0 is a flagged divergent case
    (perpetual closed-system recurrences); a ``truncated`` flag is set when
    D(tmax) has not decayed below 1e-6.
    This is the one-cell case of ``blp_nonmarkovianity_many``.
    """
    return blp_nonmarkovianity_many([params], tmax, grid)[0]


def _scan_peaks(terms: Terms, init: InitialState, tmax: float) -> np.ndarray:
    """Index of the largest population |c2|^2 of each cell of the stack
    ``terms`` on np.linspace(0, tmax, MAXIMA_SCAN_POINTS),
    ``MAXIMA_SCAN_CELLS`` cells to a pass, all into one set of buffers, so
    that memory does not grow with the stack nor churn from pass to pass;
    a population outside [0, 1] raises ``NumericalGuardError``."""
    n = MAXIMA_SCAN_POINTS
    b = math.isqrt(n)
    rows, cols, h = np.arange(0, n, b), np.arange(b), tmax / (n - 1)
    weights = _weights(init)[1]
    used = np.flatnonzero(weights)
    peaks = np.empty(terms[0].shape[1], dtype=int)
    # one set of buffers for every pass: the evaluator's and c2
    size = min(len(peaks), MAXIMA_SCAN_CELLS), len(rows) * b
    work = np.empty((len(used) + 2) * math.prod(size))
    c2 = np.empty(size, dtype=np.complex128)
    for k in range(0, len(peaks), MAXIMA_SCAN_CELLS):
        roots, coefs = _select(terms, slice(k, k + MAXIMA_SCAN_CELLS))
        m = roots.shape[1]
        entries = _eval_terms((roots, coefs[used]), rows, cols, h, work)
        # c2 = weights @ entries, as _apply sums it but for the signs of
        # zeros, which |c2| drops
        np.multiply(weights[used[0]], entries[0].reshape(m, -1), out=c2[:m])
        for weight, entry in zip(weights[used[1:]], entries[1:]):
            c2[:m] += weight * entry.reshape(m, -1)
        peaks[k:k + m] = np.argmax(
            _clipped_population(np.abs(c2[:m, :n]) ** 2), -1)
    return peaks


def maximize_over_tau_many(params_seq, init: InitialState | None = None,
                           tmax: float | None = None) -> list[MaximaReport]:
    """``maximize_over_tau`` for many cells, one report per cell.

    The cells are expanded together, scanned ``MAXIMA_SCAN_CELLS`` at a
    time in one blocked pass each (``_scan_peaks``), and the brackets of
    all cells are then refined together by ``_refine`` on the same stack of
    terms; a cell's report does not depend on its batch.
    """
    if init is None:
        init = empty_battery_state()
    params_seq = list(params_seq)
    tmax = MAXIMA_DEFAULT_TMAX if tmax is None else tmax
    _check_tmax(tmax)

    n = MAXIMA_SCAN_POINTS
    terms = _transfer_many([_ratios(p) for p in params_seq])
    peak = _scan_peaks(terms, init, tmax)
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
    [0, tmax] in Omega*tau, read in rows as the BLP scan reads its grid,
    then 60 halvings of the bracket around the largest sample on the
    sign of d|c2|^2/dt = 2 Re(conj(c2) (-i c1)), by the ``_refine`` that
    also finds the BLP extrema: Omega*tau is found to the roundoff of that
    slope, well within 1e-8, and an optimum at 0 or tmax is reached
    exactly.  A population outside [0, 1] raises ``NumericalGuardError``.
    An optimum within one scan step of tmax sets ``at_boundary``.  This is
    the one-cell case of ``maximize_over_tau_many``.
    """
    return maximize_over_tau_many([params], init, tmax)[0]
