"""Exact amplitudes and the charging propagator kappa(t).

The Laplace-domain solution of the amplitude equations has, after clearing
fractions, the common cubic denominator

    p(s) = s^3 + lam*s^2 + (Omega^2 + lam*gamma/2)*s + lam*Omega^2,

so every amplitude is a sum of (at most) three exponentials, obtained by
partial fractions.  Roots are computed as eigenvalues of the companion
matrix (better conditioned near degeneracies than a closed-form cubic) and
polished with two Newton steps; clustered roots fall back to the confluent
partial-fraction expansion with t^k * exp(s*t) terms.

The terms of kappa, or of c1 and c2 together, are held as poles: a pair
of arrays (roots, coefs), the distinct roots in (real, imag) order and
coefs[output, root, power] the coefficient of t**power * exp(root*t).  One
evaluator walks the roots in order and computes each root's exponential
exp(s*t) once per call, whatever the number of terms and outputs that share
it.  The poles of many cells stack along a trailing cell axis, padded with
zero coefficients at the zero root; the same evaluator then advances every
cell at one time point each.

In the flat-spectrum limit the denominator collapses to the quadratic
s^2 + gamma*s/2 + Omega^2 and the propagator has the closed form

    kappa(t) = -(4i*Omega/R) * exp(-gamma*t/4) * sinh(R*t/4),
    R = sqrt(gamma^2 - 16*Omega^2),

with the removable R -> 0 limit kappa(t) = -i*Omega*t*exp(-gamma*t/4).
(The exponent and prefactor follow from exact inversion; the form is
analytic in R^2, so the branch of the square root cancels.)
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import InitialState, ModelParams, empty_battery_state

# (coefficient, root, power) triples: f(t) = sum coef * t**power * exp(root*t)
Terms = tuple[tuple[complex, complex, int], ...]
# (roots, coefs): distinct roots in (real, imag) order and coefs indexed
# [output, root, power]; stacked cells add a trailing axis to both
Poles = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class PropagatorRoots:
    """Roots and kappa partial-fraction data of the cubic denominator."""

    roots: tuple[complex, complex, complex]
    residues_kappa: tuple[complex, complex, complex]
    degenerate: bool
    kappa_terms: Terms


def cubic_coefficients(params: ModelParams) -> np.ndarray:
    om = params.coupling_qb_cavity
    gamma = params.coupling_cavity_env
    lam = params.spectral_width
    return np.array([1.0, lam, om ** 2 + 0.5 * lam * gamma, lam * om ** 2],
                    dtype=np.complex128)


def _cluster_tol(params: ModelParams) -> float:
    return 1e-7 * max(params.coupling_qb_cavity, params.spectral_width,
                      params.coupling_cavity_env)


def _cluster_roots(roots: np.ndarray, tol: float) -> list[tuple[complex, int]]:
    """Union-find clustering of near-coincident roots -> (center, multiplicity)."""
    n = len(roots)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) < tol:
                parent[find(j)] = find(i)
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(complex(roots[i]))
    clusters = [(sum(g) / len(g), len(g)) for g in groups.values()]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


def _partial_fraction_terms(num: np.ndarray, roots: np.ndarray,
                            tol: float) -> Terms:
    """Inverse Laplace transform of N(s) / prod_j (s - s_j).

    Handles repeated roots (clustered within ``tol``) via derivatives of the
    reduced numerator q(s) = N(s) / prod_other(s - s_k).
    """
    clusters = _cluster_roots(roots, tol)
    terms: list[tuple[complex, complex, int]] = []
    for s0, m in clusters:
        others = [c for c, mc in clusters if c != s0 for _ in range(mc)]
        # evaluate R(s0) = prod (s0 - r_k) and its log-derivative sums from
        # the factors directly: expanded coefficients lose precision badly
        # for nearly-coincident roots
        r0 = complex(np.prod([s0 - r for r in others])) if others else 1.0 + 0j
        sum1 = sum(1.0 / (s0 - r) for r in others)
        sum2 = sum(1.0 / (s0 - r) ** 2 for r in others)
        n0 = np.polyval(num, s0)
        qd = [n0 / r0]
        if m >= 2:
            n1 = np.polyval(np.polyder(num), s0)
            r1 = r0 * sum1
            qd.append((n1 - qd[0] * r1) / r0)
        if m >= 3:
            n2 = np.polyval(np.polyder(num, 2), s0)
            r2 = r0 * (sum1 * sum1 - sum2)
            qd.append((n2 - 2.0 * qd[1] * r1 - qd[0] * r2) / r0)
        for r in range(m):
            # coefficient of 1/(s-s0)^(m-r) is q^(r)(s0)/r!
            power = m - r - 1
            coef = qd[r] / math.factorial(r) / math.factorial(power)
            terms.append((complex(coef), complex(s0), power))
    return tuple(terms)


def _poles(*outputs: Terms) -> Poles:
    """The terms of each output as poles.

    Terms whose coefficient is exactly zero (c2's cancelled 1/s pole) add
    nothing and are left out, and so is a root left without terms.  Roots
    keep the (real, imag) order ``_cluster_roots`` gives every term list.
    """
    kept = [[term for term in terms if term[0] != 0] for terms in outputs]
    roots = sorted(dict.fromkeys(root for terms in kept
                                 for _, root, _ in terms),
                   key=lambda s: (s.real, s.imag))
    slot = {root: j for j, root in enumerate(roots)}
    depth = 1 + max((power for terms in kept for *_, power in terms),
                    default=0)
    coefs = np.zeros((len(kept), len(roots), depth), dtype=np.complex128)
    for k, terms in enumerate(kept):
        for coef, root, power in terms:
            coefs[k, slot[root], power] = coef
    return np.array(roots, dtype=np.complex128), coefs


def _eval_poles(poles: Poles, t) -> list[np.ndarray]:
    """The outputs sum coefs[k, j, p] * t**p * exp(roots[j]*t) of poles,
    with one exponential per root.

    Each output adds its products root by root, highest power first, as a
    per-term loop over the partial fractions would, and skips all-zero
    coefficients, so the result does not depend on how many outputs share
    a root.  For stacked poles ``t`` holds one time per cell: a cell's zero
    padding adds exact zeros, so it gets the bytes of its own poles.
    """
    roots, coefs = poles
    t = np.asarray(t, dtype=np.float64)
    outs = [np.zeros(t.shape, dtype=np.complex128) for _ in coefs]
    for j, root in enumerate(roots):
        if not coefs[:, j].any():
            continue
        e = np.exp(root * t)  # exactly 1 at a zero root
        for out, rows in zip(outs, coefs[:, j]):
            for power in reversed(range(len(rows))):
                if not rows[power].any():
                    continue
                term = rows[power] * e
                if power:
                    term *= t ** power
                out += term
                del term  # keep at most one product alive beside e
        del e  # free this root's exponential before the next one
    return outs


@functools.lru_cache(maxsize=256)
def solve_roots(params: ModelParams) -> PropagatorRoots:
    """Roots and kappa residues of the cubic denominator p(s).

    Roots come from the companion-matrix eigenvalues, polished with two
    Newton steps.  Residues A_j = -i*Omega*(s_j + lam)/p'(s_j) are valid for
    simple roots; near-degenerate roots set the ``degenerate`` flag and the
    confluent expansion is stored in ``kappa_terms``.
    """
    if params.memoryless:
        raise ValueError("memoryless params have no cubic denominator; "
                         "use kappa_memoryless_at")
    coeffs = cubic_coefficients(params)
    roots = np.roots(coeffs)
    dcoeffs = np.polyder(coeffs)
    for _ in range(2):  # Newton polish
        pv = np.polyval(coeffs, roots)
        dv = np.polyval(dcoeffs, roots)
        mask = np.abs(dv) > 0
        roots = np.where(mask, roots - pv / np.where(mask, dv, 1.0), roots)
    order = np.lexsort((roots.imag, roots.real))
    roots = roots[order]

    om = params.coupling_qb_cavity
    lam = params.spectral_width
    num = np.array([-1j * om, -1j * om * lam])  # -i*Omega*(s + lam)
    terms = _partial_fraction_terms(num, roots, _cluster_tol(params))
    degenerate = any(power for _, _, power in terms)
    if degenerate:
        residues = tuple(np.polyval(num, s) / np.polyval(dcoeffs, s)
                         for s in roots)  # formal values, unused for kappa
    else:
        residues = tuple(complex(c) for c, _, _ in terms)
    return PropagatorRoots(tuple(complex(s) for s in roots),
                           residues, degenerate, terms)


def _memoryless_R(params: ModelParams) -> complex:
    gamma = params.coupling_cavity_env
    om = params.coupling_qb_cavity
    return cmath.sqrt(complex(gamma * gamma - 16.0 * om * om))


def _sinhc(z):
    """sinh(z)/z with a series for small |z| (removable singularity)."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 0.0, z)
    with np.errstate(invalid="ignore"):
        full = np.where(small, 1.0, np.sinh(zs) / np.where(small, 1.0, zs))
    series = 1.0 + z * z / 6.0 * (1.0 + z * z / 20.0)
    return np.where(small, series, full)


def kappa_grid(params: ModelParams, tau) -> np.ndarray:
    """Charging propagator kappa on an array of times."""
    if params.memoryless:
        tau = np.asarray(tau, dtype=np.float64)
        x = 0.25 * _memoryless_R(params) * tau
        # -(4i*Omega/R) sinh(R t/4) = -i*Omega*t*sinhc(R t/4)
        return (-1j * params.coupling_qb_cavity * tau * _sinhc(x)
                * np.exp(-0.25 * params.coupling_cavity_env * tau))
    return _eval_poles(_poles(solve_roots(params).kappa_terms), tau)[0]


def kappa_at(params: ModelParams, tau: float) -> complex:
    """kappa(tau): amplitude reaching the battery from a full cavity."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    return complex(kappa_grid(params, np.float64(tau)))


def kappa_memoryless_at(params: ModelParams, tau: float) -> complex:
    """``kappa_at`` for memoryless params only."""
    if not params.memoryless:
        raise ValueError("params are not memoryless")
    return kappa_at(params, tau)


def _amplitude_partial_fractions(params: ModelParams,
                                 init: InitialState) -> tuple[Terms, Terms]:
    """Partial-fraction terms of c1(t) and c2(t) for arbitrary initial
    amplitudes (finite width).

    c1(s) = (c1_0*s - i*Omega*c2_0)(s + lam) / p(s)
    c2(s) = c2_0/s - i*Omega*(c1_0*s - i*Omega*c2_0)(s + lam) / (s*p(s))
    (the two 1/s poles cancel exactly; they are kept in the expansion for
    robustness rather than cancelled by hand).
    """
    pr = solve_roots(params)
    roots3 = np.array(pr.roots)
    lam = params.spectral_width
    om = params.coupling_qb_cavity
    tol = _cluster_tol(params)
    lin = np.array([init.c1_0, -1j * om * init.c2_0])  # c1_0*s - i*Om*c2_0
    shift = np.array([1.0, lam])                       # s + lam
    n1 = np.polymul(lin, shift)
    terms1 = _partial_fraction_terms(n1, roots3, tol)
    # c2: expand (c2_0*p(s) - i*Omega*N1(s)) / (s * p(s))
    coeffs = cubic_coefficients(params)
    n2 = np.polyadd(init.c2_0 * coeffs, -1j * om * n1)
    roots4 = np.concatenate(([0.0 + 0.0j], roots3))
    terms2 = _partial_fraction_terms(n2, roots4, tol)
    return terms1, terms2


@functools.lru_cache(maxsize=512)
def _amplitude_poles(params: ModelParams, init: InitialState) -> Poles:
    """Poles of c1 (output 0) and c2 (output 1) at finite width."""
    return _poles(*_amplitude_partial_fractions(params, init))


def _memoryless_constants(params: ModelParams, init: InitialState) -> tuple:
    """Per-cell scalars of the flat-spectrum closed form:
    (Omega, R/4, -gamma/4, a, b, a*R^2/16) with a = c2(0) and
    b = c2'(0) + gamma/4*c2(0)."""
    om = params.coupling_qb_cavity
    gamma = params.coupling_cavity_env
    r = _memoryless_R(params)
    a = init.c2_0
    b = -1j * om * init.c1_0 + 0.25 * gamma * init.c2_0
    return om, 0.25 * r, -0.25 * gamma, a, b, a * (r * r / 16.0)


def _amplitudes_memoryless_grid(consts: tuple,
                                tau) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (c1, c2) in the flat-spectrum limit for arbitrary init.

    ``consts`` comes from ``_memoryless_constants``; with each constant an
    array over cells, ``tau`` holds one time per cell.
    """
    tau = np.asarray(tau, dtype=np.float64)
    om, quarter_r, quarter_gamma, a, b, a_r2 = consts
    x = quarter_r * tau
    env = np.exp(quarter_gamma * tau)
    shc = _sinhc(x)
    ch = np.cosh(x)
    del x
    c2 = env * (a * ch + b * tau * shc)
    # c2' = -(g/4) c2 + env*(a*(R^2 t/16) sinhc + b cosh); c1 = i*c2'/Omega
    c2p = quarter_gamma * c2 + env * (a_r2 * tau * shc + b * ch)
    c1 = 1j * c2p / om
    return c1, c2


def amplitude_grid(params: ModelParams, init: InitialState,
                   tau) -> tuple[np.ndarray, np.ndarray]:
    """(c1, c2) amplitudes on an array of times."""
    if params.memoryless:
        return _amplitudes_memoryless_grid(
            _memoryless_constants(params, init), tau)
    c1, c2 = _eval_poles(_amplitude_poles(params, init), tau)
    return c1, c2


def c2_of_cells(params_seq, init: InitialState):
    """The battery amplitude c2 of many cells, one time per cell.

    Returns ``f(t) -> c2`` for ``t`` of shape ``(len(params_seq),)``.
    Finite-width cells share one stack of c2 poles, memoryless cells one
    set of per-cell closed-form constants; each cell's value has the bytes
    of ``amplitude_grid(params, init, t[i:i+1])[1]``.
    """
    memoryless = np.array([p.memoryless for p in params_seq], dtype=bool)
    fin = np.flatnonzero(~memoryless)
    flat = np.flatnonzero(memoryless)
    cells = [_amplitude_poles(params_seq[i], init) for i in fin]
    n_roots = max((r.size for r, _ in cells), default=0)
    depth = max((c.shape[2] for _, c in cells), default=0)
    roots = np.zeros((n_roots, fin.size), dtype=np.complex128)
    coefs = np.zeros((1, n_roots, depth, fin.size), dtype=np.complex128)
    for i, (r, c) in enumerate(cells):
        roots[:r.size, i] = r
        coefs[0, :r.size, :c.shape[2], i] = c[1]  # c2 only
    consts = tuple(np.array(col) for col in zip(
        *(_memoryless_constants(params_seq[i], init) for i in flat)))

    def c2(t: np.ndarray) -> np.ndarray:
        out = np.empty(t.shape, dtype=np.complex128)
        if fin.size:
            out[fin] = _eval_poles((roots, coefs), t[fin])[0]
        if flat.size:
            out[flat] = _amplitudes_memoryless_grid(consts, t[flat])[1]
        return out

    return c2


def amplitudes_at(params: ModelParams, init: InitialState,
                  tau: float) -> tuple[complex, complex]:
    """(c1, c2) at a single time; for the empty battery c2 = kappa * c1(0)."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
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

    ``tmax`` is a physical time; the stored grid is Omega*tau.
    """
    if not 0 < tmax < math.inf:
        raise ValueError("tmax must be positive and finite")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if init is None:
        init = empty_battery_state()
    from . import metrics  # deferred: metrics depends on this module

    taus = np.linspace(0.0, tmax, steps)
    kap = kappa_grid(params, taus)
    _, c2 = amplitude_grid(params, init, taus)
    pop = np.minimum(np.abs(c2) ** 2, 1.0)
    return ChargingTrajectory(params.coupling_qb_cavity * taus, kap, pop,
                              metrics.stored_energy(params, pop),
                              metrics.ergotropy_qubit(params, pop))
