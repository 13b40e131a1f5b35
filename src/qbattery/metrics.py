"""Figures of merit: BLP backflow and the charging optima of stored energy
and ergotropy, both formulas applied by ``propagator`` (``_qubit_ergotropy``
on the guarded population ``_clipped_population``).

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
evaluator (``propagator._eval_terms``), a block of rows at a time, and
both skip what one envelope (``propagator._envelope``) proves.  A BLP scan
reads a coarse subset of one cell's grid, then every point of the
intervals where the envelopes of w' = u and v' = -w do not prove that
neither changes sign: on the figure axes about 6 % of a 2e5-point grid.
A charging scan reads Re c2 and Im c2 of many cells from t = 0 in spans
of 1, 2, 4, ... rows, into one buffer, and drops a cell once their
envelopes show that the rest of its horizon lies below its largest
sample: on the figure axes at the default horizon about 6 % of the grid
for the empty battery, 7 % for (0.6, 0.8i).
Both searches expand a batch of cells once (``propagator._transfer_many``)
and refine the extrema they bracket on that one stack of terms
(``_refine``): safeguarded Newton steps on the exact slope of |c2|^2, each
bracket stopping on its own at a computed sign change of the slope, a few
reads of the evaluator a bracket, and |c2|^2 read there through
``propagator``'s guard.  A bracket whose slope keeps its sign returns its
end.  Both searches read the ends of the horizon as zero-width brackets,
so a charging optimum is the largest of its refined extremum and both
ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (InitialState, ModelParams, empty_battery_state,
                    excited_battery_state)
from .propagator import (Terms, _apply, _check_tmax, _clipped_population,
                         _derivative, _envelope, _eval_terms,
                         _qubit_ergotropy, _ratios, _select, _transfer_many,
                         _weights)

BLP_SCAN_SPACING = 1e-3   # default scan spacing, in Omega*tau
BLP_DEFAULT_TMAX = 200.0  # default horizon, in Omega*tau
MAXIMA_DEFAULT_TMAX = 50.0  # default horizon, in Omega*tau
MAXIMA_SCAN_POINTS = 2000   # scan points of a charging optimum's bracket
BLP_REFINE_CELLS = 16     # BLP cells whose brackets are refined together
BLP_POINTS_PER_PERIOD = 64  # coarse scan points per period of D'
BLP_MIN_SKIP = 8          # fewest grid steps between coarse scan points
BLP_SKIP_SLACK = 1e-9     # relative margin of the proof that skips points
BLP_MAX_GRID = 1 << 32    # most points of a BLP scan (a minute a cell)
_GRID_BLOCK = 1 << 14     # grid points a scan reads at a time
_EPS = np.finfo(np.float64).eps
# most cells of one read of a charging scan, which keeps its per-cell
# temporaries small: 8 rows of that many cells fill a block
_SCAN_READ_CELLS = _GRID_BLOCK // (8 * math.isqrt(MAXIMA_SCAN_POINTS))


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


def _refine(terms: Terms, init: InitialState, a: np.ndarray, b: np.ndarray,
            rising_at_a, cells=None) -> tuple[np.ndarray, np.ndarray]:
    """The extrema of |c2|^2 in the brackets (a[i], b[i]) in Omega*tau, the
    i-th of cell ``cells[i]`` of the stack ``terms`` (cell i when ``cells``
    is None): the points found and the guarded population |c2|^2 there
    (``_clipped_population``).

    Each bracket is refined on its own by safeguarded Newton steps on the
    exact slope f = d|c2|^2/dt = 2 Im(conj(c2) c1), with f' = 2 (|c1|^2 +
    Im(conj(c2) c1')) and c1' = c1_0 u' - i c2_0 u (U's entries obey w' = u
    and v' = -w), u' the derivative of u's terms (``_derivative``): a step
    reads (u, w, v, u') in one ``_eval_terms`` call for every open
    bracket, the first at the midpoints.  The sign of f at a point moves
    the end of its side (``rising_at_a``: f > 0 on the left end's side).
    A step is at least tol = 2 ulp + delta/|f'|, delta the roundoff of f
    estimated from ``propagator._envelope`` at x of c1, c2 and their
    slopes, so that a converged point is followed by one across its root.
    A bracket is done when both its ends are read and it is no wider than
    4 ulps, or than 2 tol of an end whose Newton step is within its tol: a
    computed sign change of f certified within a few ulps or within f's
    roundoff band.  It returns the left end of that sign change, or its
    one read end when the cap of 60 reads stops it first.

    A Newton point gives way, to the original end it heads for while that
    is unread, else to the midpoint, where it leaves the open bracket,
    where f' has the sign of the other kind of extremum, where its step is
    over half the move before the last, or where it starts from an
    original end that is less extreme than the other end and not
    converged (from there it may head for another extremum than the
    bracket's).  An original end read on the wrong side and more extreme
    than the other end shows a slope that keeps its sign: the bracket
    returns that end, with |c2|^2 there, at once; else the end is taken on
    its own side (a stationary end, as the empty battery's t = 0, reads
    either way).  A zero-width bracket [t, t] so returns t at its one read.
    """
    roots, coefs = terms
    du = _derivative(roots, coefs[0])
    # rows c1, c2 and c1' over the entries (u, w, v, u')
    weights = np.zeros((3, 4), dtype=np.complex128)
    weights[:2, :3] = _weights(init)
    weights[2, [0, 3]] = -1j * init.c2_0, init.c1_0
    used = np.flatnonzero(weights.any(0))
    stack = roots, np.concatenate((coefs, du[None]))[used]
    weights = weights[:, used]
    # sizes of the terms of c1 and c2 (max|weight_e| |a_ejp|) and slopes
    size = np.tensordot(np.abs(weights[:2]).max(0), np.abs(stack[1]), 1)
    sizes = np.stack((size, np.abs(roots)[:, None] * size))

    n = len(a)
    t_out, pop_out = np.empty(n), np.empty(n)
    # the state of each open bracket: its index, the terms and term sizes
    # of its cell (gathered once) and its kind of extremum (the sign of f'
    # there); its ends (lo, hi), whether each was read, the population
    # there and its tol if its Newton step was within it; the next point
    # and the last two moves
    index = np.arange(n)
    cell = index if cells is None else np.asarray(cells)
    (r, c), sizes = _select(stack, cell), sizes[..., cell]
    kind = np.where(rising_at_a, -1.0, np.ones(n))
    ends = np.array((a, b), dtype=np.float64)
    read = np.zeros((2, n), dtype=bool)
    pops, tols = np.zeros((2, n)), np.zeros((2, n))
    x, steps = 0.5 * (ends[0] + ends[1]), np.full((2, n), np.inf)
    count = 0
    while len(x):
        count += 1
        c1, c2, d1 = _apply((r, c), weights, x)
        pop = np.abs(c2) ** 2
        c1_sq = c1.real ** 2 + c1.imag ** 2
        f = 2.0 * (c2.real * c1.imag - c2.imag * c1.real)
        fp = 2.0 * (c1_sq + c2.real * d1.imag - c2.imag * d1.real)
        e0, e1 = _envelope((r, sizes), x, x)
        with np.errstate(all="ignore"):
            delta = _EPS * (e0 + x * e1) * (np.sqrt(c1_sq) + np.sqrt(pop))
            dx = -f / fp
            ulp = np.spacing(np.abs(x))
            tol = 2.0 * ulp + delta / np.abs(fp)
        k = np.arange(len(x))
        up = (f > 0.0) == (kind < 0.0)
        # an unread original end read on the wrong side shows a slope that
        # keeps its sign only if |c2|^2 there is the more extreme (not so
        # at a stationary end, as t = 0 of the empty battery); else it is
        # taken on its own side
        at_lo, at_hi = (x == ends[0]) & ~read[0], (x == ends[1]) & ~read[1]
        other = np.where(at_lo, 1, 0)
        extreme = ~read[other, k] | (kind * (pops[other, k] - pop) >= 0.0)
        up = np.where(np.where(at_lo, ~up, at_hi & up) & ~extreme, at_lo, up)
        side = (~up).astype(np.intp)  # lo (0) for a point on its side
        kept = x == ends[1 - side, k]  # so both its ends are x from here
        ends[side, k], read[side, k], pops[side, k] = x, True, pop
        tols[side, k] = np.where((np.abs(dx) <= tol) & np.isfinite(tol), tol,
                                 0.0)
        done = kept | (read.all(0) & (ends[1] - ends[0] <= 4.0 * ulp
                                      + 2.0 * tols.max(0))) | (count >= 60)
        # the left end of the sign change, if read
        end = (~read[0]).astype(np.intp)
        t_out[index[done]] = ends[end, k][done]
        pop_out[index[done]] = pops[end, k][done]
        # the next point of each open bracket: the Newton point from this
        # read, else the other end if unread, else the midpoint
        with np.errstate(all="ignore"):
            move = np.maximum(np.abs(dx), tol)
            newton = x + np.where(up, move, -move)
            ok = (~((at_lo | at_hi) & (np.abs(dx) > tol) & ~extreme)
                  & (fp * kind > 0.0) & (np.where(up, dx, -dx) >= -tol)
                  & (move <= 0.5 * steps[1])
                  & (ends[0] < newton) & (newton < ends[1]))
        nxt = np.where(ok, newton, np.where(
            read[1 - side, k], 0.5 * (ends[0] + ends[1]), ends[1 - side, k]))
        steps = np.stack((np.abs(nxt - x), steps[0]))
        x = nxt
        if done.any():
            keep = np.flatnonzero(~done)
            index, kind, x = (v[keep] for v in (index, kind, x))
            (r, c), sizes = _select((r, c), keep), sizes[..., keep]
            ends, read, pops, tols, steps = (
                v[:, keep] for v in (ends, read, pops, tols, steps))
    return t_out, _clipped_population(pop_out)


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
    as at its ends, for the one cell of the terms of (u, w, v).

    On [t_a, t_b] each entry is at most its envelope E in size
    (``propagator._envelope``), and as w' = u and v' = -w the slopes of w
    and v are at most E_u and E_w.  So an entry keeps its sign when
    |x(t_a)| + |x(t_b)| exceeds ``span`` times its slope bound (|x| stays
    above half the excess, and ends of opposite sign or a zero end leave
    none) by more than ``BLP_SKIP_SLACK`` (1 + max|s_j| t) E, which covers
    the roundoff of the grid evaluator's exponentials at times up to t.
    The sign of v*w is kept where both entries keep theirs by an excess
    above 1e-150, so that their product cannot round to zero, or where E_w
    and E_v are under 1e-165, so that it rounds to zero everywhere."""
    roots, coefs = terms
    slack = BLP_SKIP_SLACK * (1.0 + np.abs(roots).max() * t[-1])
    e_u, e_w, e_v = _envelope((roots[:, None], coefs[..., None]),
                              t[:-1], t[1:])
    need = np.stack((span * e_u + slack * e_w, span * e_w + slack * e_v))
    mag = np.abs(x)
    return ((mag[:, :-1] + mag[:, 1:] - need > 1e-150).all(0)
            | ((e_w < 1e-165) & (e_v < 1e-165)))


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
    between coarse ones: then the proofs would cost more than they save.
    Each read fills at most ``_GRID_BLOCK`` points, so memory does not grow
    with the grid."""
    roots, coefs = terms
    wv = (roots, coefs[1:])
    b = math.isqrt(grid)
    rows = -(-grid // b)
    h = tmax / (grid - 1)
    width = 1
    if h:
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
        todo = np.flatnonzero(~_sign_kept(terms, t, x, width * h))
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
    ``BLP_MAX_GRID`` points, or a default grid of fewer than 3, raises
    ValueError naming --grid and --tmax.
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
            raise ValueError("the default scan grid at this tmax has "
                             "fewer than 3 points; give a larger --tmax or "
                             "a --grid")
    elif grid < 3:
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
        crit, d_crit = _refine(
            terms, excited_battery_state(),
            *map(np.concatenate, zip(*brackets)),
            np.repeat(np.arange(len(group)), counts))
        ends = np.cumsum(counts)[:-1]
        for i, t, d in zip(group, np.split(crit, ends),
                           np.split(d_crit, ends)):
            t, d, measure, intervals = t.tolist(), d.tolist(), 0.0, []
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
    the brackets are those of a scan of every point.  Refines each sign
    change by safeguarded Newton steps, as charging optima are
    (``_refine``), and sums the increase of D over every rising interval.
    gamma = 0 is a flagged divergent case (perpetual closed-system
    recurrences); a ``truncated`` flag is set when D(tmax) has not decayed
    below 1e-6.
    This is the one-cell case of ``blp_nonmarkovianity_many``.
    """
    return blp_nonmarkovianity_many([params], tmax, grid)[0]


def _scan_peaks(terms: Terms, init: InitialState, tmax: float) -> np.ndarray:
    """Index of the largest population |c2|^2 of each cell of the stack
    ``terms`` on np.linspace(0, tmax, MAXIMA_SCAN_POINTS); a population
    outside [0, 1] raises ``NumericalGuardError``.

    As u, w and v are real, Re c2 and Im c2 are rows of terms weighted by
    the real and the imaginary parts of c2's weights; a read evaluates the
    rows that are not zero and sums their squares.  The grid is laid out
    in rows of b = isqrt(MAXIMA_SCAN_POINTS) points and read from 0 in
    spans of 1, 2, 4, ... rows.  After each span a cell is done when
    (hypot(E_re, E_im) + sigma E_abs)^2 lies below its largest sample: a
    bound on |c2|^2 over the rest [t, T] of the horizon, from the
    envelopes (``propagator._envelope``) of both rows and of their terms'
    sizes sum_e |weight_e| |a_e|, sigma = ``BLP_SKIP_SLACK`` (1 + max|s_j|
    T) covering the evaluator's roundoff of each row's terms as in
    ``_sign_kept``.  A NaN or infinite bound leaves the cell reading.  So
    the index is that of a read of every point, each read point with the
    bytes of a read of the whole grid.  A read holds at most
    ``_SCAN_READ_CELLS`` cells and ``_GRID_BLOCK`` points, in one buffer,
    so that memory neither grows with the stack nor churns."""
    n = MAXIMA_SCAN_POINTS
    b = math.isqrt(n)
    starts, cols, h = np.arange(0, n, b), np.arange(b), tmax / (n - 1)
    roots, coefs = terms
    weights = _weights(init)[1][:, None, None, None]
    # the terms of Re c2 and of Im c2, and their sizes sum_e |weight_e| |a_e|
    parts = np.stack([(x * a).sum(0) for x, a in (
        (weights.real, coefs), (weights.imag, coefs),
        (np.abs(weights), np.abs(coefs)))])
    read = parts[:2][parts[:2].reshape(2, -1).any(1)]
    cells = roots.shape[1]
    peaks = np.zeros(cells, dtype=np.intp)
    best = np.full(cells, -np.inf)
    live = np.arange(cells)
    # one buffer for every read
    block_rows = _GRID_BLOCK // b
    points = min(cells * len(starts), block_rows) * b
    work = np.empty((len(read) + 2) * points)
    r0, span = 0, 1
    while len(live) and r0 < len(starts):
        rows = starts[r0:r0 + span]
        stop = min(n - rows[0], len(rows) * b)  # the grid's points in rows
        step = min(_SCAN_READ_CELLS, block_rows // len(rows))
        for k in range(0, len(live), step):
            ids = live[k:k + step]
            m = len(ids)
            first, *rest = (np.square(x, out=x).reshape(m, -1) for x in
                            _eval_terms(_select((roots, read), ids), rows,
                                        cols, h, work))
            pop = _clipped_population(sum(rest, first)[:, :stop])
            top = np.argmax(pop, -1)
            value = pop[np.arange(m), top]
            up = value > best[ids]  # the first of equal samples stays
            best[ids[up]], peaks[ids[up]] = value[up], rows[0] + top[up]
        r0, span = r0 + len(rows), 2 * span
        if r0 < len(starts):
            e_re, e_im, e_abs = _envelope(_select((roots, parts), live),
                                          r0 * b * h, tmax)
            with np.errstate(all="ignore"):
                sigma = BLP_SKIP_SLACK * (
                    1.0 + np.abs(roots[:, live]).max(0) * tmax)
                bound = (np.hypot(e_re, e_im) + sigma * e_abs) ** 2
            live = live[~(bound < best[live])]
    return peaks


def maximize_over_tau_many(params_seq, init: InitialState | None = None,
                           tmax: float | None = None) -> list[MaximaReport]:
    """``maximize_over_tau`` for many cells, one report per cell.

    The cells are expanded together and scanned together on the blocked
    grid in spans of rows that double in length, each cell until an
    envelope bound proves that the rest of its horizon lies below its
    largest sample (``_scan_peaks``); the brackets of all cells, with each
    cell's ends 0 and tmax as zero-width brackets, are then refined
    together by ``_refine`` on the same stack of terms.  A cell's report
    does not depend on its batch.
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
    # each cell's bracket, then its ends as zero-width brackets [0, 0] and
    # [tmax, tmax]; the largest of the three, the bracket's on ties
    m = len(peak)
    ends = np.repeat([0.0, tmax], m)
    t, pop = (v.reshape(3, m) for v in _refine(
        terms, init, np.concatenate((taus[np.maximum(peak - 1, 0)], ends)),
        np.concatenate((taus[np.minimum(peak + 1, n - 1)], ends)), True,
        np.tile(np.arange(m), 3)))
    best = np.argmax(pop, 0), np.arange(m)
    tau_star, p_star = t[best], pop[best]
    omega0 = np.array([p.omega0 for p in params_seq])
    return [MaximaReport(de, w, tau, tau if w > 0.0 else math.nan,
                         tau > tmax - (tmax / (n - 1)))
            for tau, de, w in zip(tau_star.tolist(),
                                  (omega0 * p_star).tolist(),
                                  _qubit_ergotropy(omega0, p_star).tolist())]


def maximize_over_tau(params: ModelParams, init: InitialState | None = None,
                      tmax: float | None = None) -> MaximaReport:
    """Optimal stored energy and ergotropy over the charging time.

    Coarse scan of the population |c2|^2 on a 2000-point grid over
    [0, tmax] in Omega*tau, read in rows as the BLP scan reads its grid,
    from 0 in spans of 1, 2, 4, ... rows until a bound on the envelope of
    the terms proves that the rest of the grid lies below the largest
    sample read (so the sample is that of a read of every point), then
    safeguarded Newton steps in the bracket around the largest sample
    on d|c2|^2/dt = 2 Re(conj(c2) (-i c1)) and its exact derivative, by the
    ``_refine`` that also finds the BLP extrema: Omega*tau is found to a
    sign change of that slope within a few ulps or within its roundoff,
    and a bracket whose slope keeps its sign returns its end.  The optimum
    is the largest of the refined extremum and both ends, 0 and tmax
    (the extremum on ties).  A population outside [0, 1] raises
    ``NumericalGuardError``.  An optimum within one scan step of tmax sets
    ``at_boundary``.  This is the one-cell case of
    ``maximize_over_tau_many``.
    """
    return maximize_over_tau_many([params], init, tmax)[0]
