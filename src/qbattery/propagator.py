"""Exact amplitudes and the charging propagator kappa(t).

The engine is dimensionless: it runs at Omega = 1 on the ratios
g = gamma/Omega and l = lam/Omega, with time the Omega*tau of every figure
axis.  Omega enters only where a physical time tau comes in (``kappa_grid``,
``amplitude_grid``) and where physical roots go out (``solve_roots``).

Every amplitude is c(t) = U(t) c(0), with the transfer matrix
U = [[u, -i*w], [-i*w, v]] whose entries are real functions of t; the
charging propagator is kappa = -i*w.  In the Laplace domain u = s*m/p,
w = m/p and v = ((p - m)/s)/p, with the cubic denominator at finite width
p(s) = s^3 + l*s^2 + (1 + l*g/2)*s + l and the memory factor m(s) = s + l,
or, in the flat-spectrum limit (infinite width), the quadratic
p(s) = s^2 + g*s/2 + 1 and m(s) = 1.  The roots of p are the eigenvalues
of its companion matrix (the quadratic's have a closed form), polished
with two Newton steps and made exact conjugate pairs; roots closer than
1e-7 relative to the larger of the pair form a cluster and take confluent
partial fractions with t^k * exp(s*t) terms, as does the quadratic's
double root at g = 4.

One partial-fraction expansion per ratio pair (``_transfer``, cached, so
cells that differ only in Omega or in the initial state share it) gives
u, w and v as terms: one root per real root, cluster or conjugate pair,
and each entry the sum of Re(coef * t**power * exp(root*t)).  One
evaluator takes one exponential per root for any array of times; the
terms of many cells stack along a trailing axis, so the lockstep searches
of ``metrics`` advance every cell at one time point each.  The BLP scan
reads the same terms on a uniform grid, its exponentials blocked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import InitialState, ModelParams, empty_battery_state

# (roots, coefs): roots in (real, imag) order and coefs[entry, root, power];
# each entry is the sum of Re(coef * t**power * exp(root*t)), and stacked
# cells add a trailing axis to both
Terms = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class PropagatorRoots:
    """Physical roots of the denominator, and whether any cluster."""

    roots: tuple[complex, ...]
    degenerate: bool


def _ratios(params: ModelParams) -> tuple[float, float]:
    """(gamma/Omega, lam/Omega): all the engine reads of params."""
    om = params.coupling_qb_cavity
    return params.coupling_cavity_env / om, params.spectral_width / om


def _polynomials(g: float, l: float) -> tuple[np.ndarray, np.ndarray]:
    """Denominator p(s) and memory factor m(s) at Omega = 1, kappa(s) =
    -i*m(s)/p(s): the cubic and s + l at finite width, the quadratic and 1
    when memoryless (l = inf)."""
    if math.isinf(l):
        return (np.array([1.0, 0.5 * g, 1.0], dtype=np.complex128),
                np.array([1.0]))
    return (np.array([1.0, l, 1.0 + 0.5 * l * g, l], dtype=np.complex128),
            np.array([1.0, l]))


def _cluster_roots(roots: np.ndarray) -> list[tuple[complex, int]]:
    """Clusters of roots linked by pairs closer than 1e-7 relative to the
    larger of the two -> (center, multiplicity), in (real, imag) order."""
    size = np.abs(roots)
    close = (np.abs(roots[:, None] - roots) < 1e-7 * np.maximum.outer(
        size, size)) | np.eye(len(roots), dtype=bool)
    linked = np.linalg.matrix_power(close.astype(int), len(roots)) > 0
    groups = {tuple(np.flatnonzero(row)) for row in linked}
    clusters = [(sum(complex(roots[i]) for i in g) / len(g), len(g))
                for g in groups]
    return sorted(clusters, key=lambda c: (c[0].real, c[0].imag))


def _partial_fractions(nums, roots: np.ndarray) -> Terms:
    """Terms of the inverse Laplace transforms of N_k(s) / prod_j (s - s_j),
    one entry per numerator N_k in ``nums``, one root per cluster: the
    entries are the real parts of the transforms.

    A cluster of roots takes the confluent terms t**k * exp(s*t), from
    derivatives of the reduced numerator q(s) = N(s) / prod_other(s - s_k).
    """
    clusters = _cluster_roots(roots)
    coefs = np.zeros((len(nums), len(clusters),
                      max(m for _, m in clusters)), dtype=np.complex128)
    for j, (s0, m) in enumerate(clusters):
        others = [c for c, mc in clusters if c != s0 for _ in range(mc)]
        # evaluate R(s0) = prod (s0 - r_k) and its log-derivative sums from
        # the factors directly: expanded coefficients lose precision badly
        # for nearly-coincident roots
        r0 = complex(np.prod([s0 - r for r in others])) if others else 1.0 + 0j
        sum1 = sum(1.0 / (s0 - r) for r in others)
        sum2 = sum(1.0 / (s0 - r) ** 2 for r in others)
        r1 = r0 * sum1
        r2 = r0 * (sum1 * sum1 - sum2)
        for k, num in enumerate(nums):
            qd = [np.polyval(num, s0) / r0]
            if m >= 2:
                n1 = np.polyval(np.polyder(num), s0)
                qd.append((n1 - qd[0] * r1) / r0)
            if m >= 3:
                n2 = np.polyval(np.polyder(num, 2), s0)
                qd.append((n2 - 2.0 * qd[1] * r1 - qd[0] * r2) / r0)
            for r in range(m):
                # coefficient of 1/(s-s0)^(m-r) is q^(r)(s0)/r!
                power = m - r - 1
                coefs[k, j, power] = (qd[r] / math.factorial(r)
                                      / math.factorial(power))
    return (np.array([s0 for s0, _ in clusters], dtype=np.complex128),
            coefs)


def _eval_terms(terms: Terms, t) -> list[np.ndarray]:
    """Each entry of ``terms`` at the times ``t``, one exponential per root.

    Each entry adds its products root by root, highest power first, and
    skips all-zero coefficients, so the result does not depend on how many
    entries share a root.  For stacked terms ``t`` holds one time per cell:
    a cell's zero padding adds exact zeros, so it gets the bytes of its own
    terms.
    """
    roots, coefs = terms
    t = np.asarray(t, dtype=np.float64)
    outs = [np.zeros(t.shape) for _ in coefs]
    for j, root in enumerate(roots):
        if not coefs[:, j].any():
            continue
        e = np.exp(root * t)  # exactly 1 at a zero root
        for out, rows in zip(outs, coefs[:, j]):
            for power in reversed(range(len(rows))):
                a = rows[power]
                if not a.any():
                    continue
                term = a.real * e.real  # Re(a e) = Re a Re e - Im a Im e
                term -= a.imag * e.imag
                if power:
                    term *= t ** power
                out += term
                del term  # keep at most one product alive beside e
        del e  # free this root's exponential before the next one
    return outs


_GRID_BLOCK_ROWS = 32  # grid rows filled at a time by _real_parts_on_grid


def _real_parts_on_grid(terms: Terms, tmax: float, n: int) -> np.ndarray:
    """The entries of ``terms`` on np.linspace(0, tmax, n), [entry, point].

    Point m = i*b + k of b = isqrt(n) columns sits at t = m*h, h =
    tmax/(n - 1), so exp(s*t) = exp(s*i*b*h) * exp(s*k*h): one exponential
    per row and per column for each root, and Re(a*exp(s*t)) from real
    products.  ``_GRID_BLOCK_ROWS`` rows are filled at a time, so that the
    temporaries stay in cache.
    """
    roots, coefs = terms
    h = tmax / (n - 1)
    cols = math.isqrt(n)
    rows = -(-n // cols)
    col_t = np.arange(cols) * h
    row_t = np.arange(0, rows * cols, cols) * h
    exps = []
    for s in roots:
        ec = np.exp(s * col_t)
        exps.append((np.exp(s * row_t), ec.real.copy(), ec.imag.copy()))
    confluent = coefs.shape[2] > 1
    out = np.zeros((len(coefs), rows, cols))
    part, im_part = np.empty((2, _GRID_BLOCK_ROWS, cols))
    for r0 in range(0, rows, _GRID_BLOCK_ROWS):
        r1 = min(r0 + _GRID_BLOCK_ROWS, rows)
        if confluent:
            t = np.arange(r0 * cols, r1 * cols).reshape(r1 - r0, cols) * h
        part_k, im_k = part[:r1 - r0], im_part[:r1 - r0]
        for j, (s, (er, ec_re, ec_im)) in enumerate(zip(roots, exps)):
            er = er[r0:r1, None]
            for block, by_power in zip(out[:, r0:r1], coefs[:, j]):
                for power in reversed(range(len(by_power))):
                    if not by_power[power]:
                        continue
                    # Re(a e_r e_c) = Re(a e_r) Re(e_c) - Im(a e_r) Im(e_c)
                    ar = by_power[power] * er
                    np.multiply(ar.real, ec_re, out=part_k)
                    if s.imag:
                        part_k -= np.multiply(ar.imag, ec_im, out=im_k)
                    if power:
                        part_k *= t ** power
                    block += part_k
    return out.reshape(len(out), -1)[:, :n]


def _conjugate_pairs(roots: np.ndarray) -> np.ndarray:
    """The roots of a real polynomial of degree 2 or 3: an exact conjugate
    pair, if any, and real roots.

    The roots of least and greatest imaginary part pair up when each is
    nearer the other's conjugate than both are to the real axis, as
    s = (hi + conj(lo))/2 and conj(s).  From complex coefficients a pair
    is conjugate only to roundoff, 3.6e-6 apart at the triple root.
    """
    lo, *mid, hi = sorted(roots, key=lambda s: s.imag)
    if abs(hi - lo.conjugate()) < hi.imag - lo.imag:
        s = 0.5 * (hi + lo.conjugate())
        return np.array([s.conjugate(), *np.real(mid), s])
    return np.array([lo.real, *np.real(mid), hi.real], dtype=np.complex128)


def _roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of the monic p(s) in (real, imag) order.

    The quadratic s^2 + b*s + c (b = g/2, c = 1) has the larger root
    -(b + sqrt(b^2 - 4c))/2 = -(g + R)/4, R = sqrt(g^2 - 16), and the other
    c/larger.  The cubic's are the companion-matrix eigenvalues, polished
    with two Newton steps.  Both are made exact conjugate pairs
    (``_conjugate_pairs``), which also makes the double root at g = 4 real.
    """
    if len(coeffs) == 3:
        _, b, c = coeffs
        r = np.sqrt(b * b - 4.0 * c)
        big = -0.5 * (b + r)
        roots = np.array([big, c / big])
    else:
        roots = np.roots(coeffs)
        dcoeffs = np.polyder(coeffs)
        for _ in range(2):  # Newton polish
            pv = np.polyval(coeffs, roots)
            dv = np.polyval(dcoeffs, roots)
            mask = np.abs(dv) > 0
            roots = np.where(mask, roots - pv / np.where(mask, dv, 1.0),
                             roots)
    roots = _conjugate_pairs(roots)
    return roots[np.lexsort((roots.imag, roots.real))]


def solve_roots(params: ModelParams) -> PropagatorRoots:
    """Physical roots of the denominator, Omega times those of p(s);
    ``degenerate`` is set when some of them cluster and take confluent
    terms t**k * exp(s*t)."""
    roots = _roots(_polynomials(*_ratios(params))[0])
    return PropagatorRoots(
        tuple(params.coupling_qb_cavity * complex(s) for s in roots),
        any(m > 1 for _, m in _cluster_roots(roots)))


@functools.lru_cache(maxsize=512)
def _transfer(g: float, l: float) -> Terms:
    """Terms of the entries u, w and v of U, in Omega*tau, at the ratios.

    p - m vanishes at s = 0, so dropping its constant term divides it by s
    exactly.  With real numerators and exact conjugate roots a pair's
    coefficients (a, a') fold into a + conj(a') on its root of positive
    imaginary part: Re(a' exp(conj(s) t)) = Re(conj(a') exp(s t)).
    """
    coeffs, memory = _polynomials(g, l)
    roots, coefs = _partial_fractions(
        (np.polymul([1.0, 0.0], memory), memory,
         np.polysub(coeffs, memory)[:-1]), _roots(coeffs))
    lower = roots.imag < 0
    for j in np.flatnonzero(lower):
        coefs[:, roots == roots[j].conjugate()] += coefs[:, j, None].conj()
    return roots[~lower], coefs[:, ~lower]


def _weights(init: InitialState) -> np.ndarray:
    """Rows c1 and c2 of c = U c(0) over the entries (u, w, v):
    c1 = c1_0*u - i*c2_0*w and c2 = -i*c1_0*w + c2_0*v."""
    a, b = init.c1_0, init.c2_0
    return np.array([[a, -1j * b, 0.0], [0.0, -1j * a, b]])


def _apply(terms: Terms, weights: np.ndarray, t) -> list[np.ndarray]:
    """weights @ (u, w, v) at the times ``t`` in Omega*tau, one complex array
    per row; an entry of zero weight in every row is not evaluated."""
    roots, coefs = terms
    used = np.flatnonzero(weights.any(axis=0))
    entries = _eval_terms((roots, coefs[used]), t)
    outs = []
    for row in weights[:, used]:
        out = np.zeros(np.shape(t), dtype=np.complex128)
        for weight, entry in zip(row, entries):
            if weight:
                out += weight * entry
        outs.append(out)
    return outs


def kappa_grid(params: ModelParams, tau) -> np.ndarray:
    """Charging propagator kappa = -i*w, c2 of the empty battery, on an
    array of physical times; its real part is exactly +0."""
    om_tau = params.coupling_qb_cavity * np.asarray(tau, dtype=np.float64)
    return _apply(_transfer(*_ratios(params)),
                  _weights(empty_battery_state())[1:], om_tau)[0]


def _check_tau(tau: float) -> None:
    if not 0 <= tau < math.inf:
        raise ValueError(f"tau must be non-negative and finite, got {tau}")


def kappa_at(params: ModelParams, tau: float) -> complex:
    """kappa(tau): amplitude reaching the battery from a full cavity."""
    _check_tau(tau)
    return complex(kappa_grid(params, np.float64(tau)))


def kappa_memoryless_at(params: ModelParams, tau: float) -> complex:
    """``kappa_at`` for memoryless params only."""
    if not params.memoryless:
        raise ValueError("params are not memoryless")
    return kappa_at(params, tau)


def amplitude_grid(params: ModelParams, init: InitialState,
                   tau) -> tuple[np.ndarray, np.ndarray]:
    """(c1, c2) amplitudes on an array of physical times."""
    om_tau = params.coupling_qb_cavity * np.asarray(tau, dtype=np.float64)
    c1, c2 = _apply(_transfer(*_ratios(params)), _weights(init), om_tau)
    return c1, c2


def amplitudes_of_cells(params_seq, init: InitialState):
    """The amplitudes c1 and c2 of many cells, one time per cell.

    Returns ``f(t) -> (c1, c2)`` for ``t`` in Omega*tau of shape
    ``(len(params_seq),)``, or of any shape for a single cell.  The cells
    share one stack of terms, and each cell's values have the bytes of its
    own terms evaluated alone.
    """
    cells = [_transfer(*_ratios(p)) for p in params_seq]
    n_roots = max((r.size for r, _ in cells), default=0)
    depth = max((c.shape[2] for _, c in cells), default=0)
    roots = np.zeros((n_roots, len(cells)), dtype=np.complex128)
    coefs = np.zeros((3, n_roots, depth, len(cells)), dtype=np.complex128)
    for i, (r, c) in enumerate(cells):
        roots[:r.size, i] = r
        coefs[:, :r.size, :c.shape[2], i] = c
    weights = _weights(init)
    return lambda t: _apply((roots, coefs), weights, t)


def amplitudes_at(params: ModelParams, init: InitialState,
                  tau: float) -> tuple[complex, complex]:
    """(c1, c2) at a single time; for the empty battery c2 = kappa * c1(0)."""
    _check_tau(tau)
    c1, c2 = amplitude_grid(params, init, np.float64(tau))
    return complex(c1), complex(c2)


@dataclass(frozen=True)
class ChargingTrajectory:
    """Uniform-grid trajectory with all derived per-time columns.

    ``times`` holds the dimensionless values Omega*tau; ``kappa`` is the
    charging propagator, ``population`` the battery excited population
    |c2|^2, ``stored_energy`` omega0*population and ``ergotropy`` the
    extractable work, both in absolute energy units (units of omega0 when
    omega0 = 1).
    """

    times: np.ndarray
    kappa: np.ndarray
    population: np.ndarray
    stored_energy: np.ndarray
    ergotropy: np.ndarray


def trajectory(params: ModelParams, init: InitialState | None = None,
               tmax: float = 25.0, steps: int = 1001) -> ChargingTrajectory:
    """Evaluate amplitudes and figures of merit on a uniform time grid.

    ``tmax`` and the stored grid are in Omega*tau.  A population |c2|^2
    outside [0, 1] raises ``metrics.NumericalGuardError``.
    """
    if not 0 < tmax < math.inf:
        raise ValueError("tmax must be positive and finite")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if init is None:
        init = empty_battery_state()
    from . import metrics  # deferred: metrics depends on this module

    taus = np.linspace(0.0, tmax, steps)
    # kappa (the empty battery's c2) and init's c2 share the entry w
    kap, c2 = _apply(_transfer(*_ratios(params)), np.stack(
        [_weights(empty_battery_state())[1], _weights(init)[1]]), taus)
    pop = metrics._clipped_population(np.abs(c2) ** 2)
    return ChargingTrajectory(taus, kap, pop,
                              metrics.stored_energy(params, pop),
                              metrics.ergotropy_qubit(params, pop))
