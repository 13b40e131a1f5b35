"""Exact amplitudes and the charging propagator kappa(t).

The Laplace-domain solution of the amplitude equations has, after clearing
fractions, the common cubic denominator at finite width lam

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

In the flat-spectrum limit (infinite width) the same engine runs on the
quadratic denominator p(s) = s^2 + gamma*s/2 + Omega^2, whose roots have
a closed form; its exceptional point gamma = 4*Omega is an exact double
root and takes the confluent expansion like any clustered root.
"""

from __future__ import annotations

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
    """Roots and kappa partial-fraction terms of the denominator p(s)."""

    roots: tuple[complex, ...]
    degenerate: bool
    kappa_terms: Terms


def cubic_coefficients(params: ModelParams) -> np.ndarray:
    om = params.coupling_qb_cavity
    gamma = params.coupling_cavity_env
    lam = params.spectral_width
    return np.array([1.0, lam, om ** 2 + 0.5 * lam * gamma, lam * om ** 2],
                    dtype=np.complex128)


def _polynomials(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Denominator p(s) and memory factor m(s), kappa(s) = -i*Omega*m(s)/p(s):
    the cubic and s + lam at finite width, the quadratic and 1 when
    memoryless."""
    if params.memoryless:
        om = params.coupling_qb_cavity
        return (np.array([1.0, 0.5 * params.coupling_cavity_env, om ** 2],
                         dtype=np.complex128), np.array([1.0]))
    return cubic_coefficients(params), np.array([1.0, params.spectral_width])


def _cluster_tol(params: ModelParams) -> float:
    lam = 0.0 if params.memoryless else params.spectral_width
    return 1e-7 * max(params.coupling_qb_cavity, lam,
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


def _roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of the monic p(s) in (real, imag) order.

    The quadratic s^2 + b*s + c (b = gamma/2, c = Omega^2) has the larger
    root -(b + sqrt(b^2 - 4c))/2 = -(gamma + R)/4, R = sqrt(gamma^2 -
    16*Omega^2), and the other c/larger; at gamma = 4*Omega both are the
    larger one, as c/larger can miss it by an ulp (Omega = 0.1).  The
    cubic's are the companion-matrix eigenvalues, polished with two Newton
    steps.
    """
    if len(coeffs) == 3:
        _, b, c = coeffs
        r = np.sqrt(b * b - 4.0 * c)
        big = -0.5 * (b + r)
        roots = np.array([big, c / big if r else big])
    else:
        roots = np.roots(coeffs)
        dcoeffs = np.polyder(coeffs)
        for _ in range(2):  # Newton polish
            pv = np.polyval(coeffs, roots)
            dv = np.polyval(dcoeffs, roots)
            mask = np.abs(dv) > 0
            roots = np.where(mask, roots - pv / np.where(mask, dv, 1.0),
                             roots)
    return roots[np.lexsort((roots.imag, roots.real))]


@functools.lru_cache(maxsize=256)
def solve_roots(params: ModelParams) -> PropagatorRoots:
    """Roots of the denominator p(s) and the partial-fraction terms of
    kappa(s) = -i*Omega*m(s)/p(s).

    Near-degenerate roots set the ``degenerate`` flag and give confluent
    terms t**k * exp(s*t) in ``kappa_terms``.
    """
    coeffs, memory = _polynomials(params)
    roots = _roots(coeffs)
    terms = _partial_fraction_terms(-1j * params.coupling_qb_cavity * memory,
                                    roots, _cluster_tol(params))
    return PropagatorRoots(tuple(complex(s) for s in roots),
                           any(power for _, _, power in terms), terms)


def kappa_grid(params: ModelParams, tau) -> np.ndarray:
    """Charging propagator kappa on an array of times."""
    return _eval_poles(_poles(solve_roots(params).kappa_terms), tau)[0]


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


def _amplitude_partial_fractions(params: ModelParams,
                                 init: InitialState) -> tuple[Terms, Terms]:
    """Partial-fraction terms of c1(t) and c2(t) for arbitrary initial
    amplitudes.

    c1(s) = (c1_0*s - i*Omega*c2_0) m(s) / p(s)
    c2(s) = c2_0/s - i*Omega*(c1_0*s - i*Omega*c2_0) m(s) / (s*p(s))
    (the two 1/s poles cancel exactly; they are kept in the expansion for
    robustness rather than cancelled by hand).
    """
    roots = np.array(solve_roots(params).roots)
    om = params.coupling_qb_cavity
    tol = _cluster_tol(params)
    coeffs, memory = _polynomials(params)
    lin = np.array([init.c1_0, -1j * om * init.c2_0])  # c1_0*s - i*Om*c2_0
    n1 = np.polymul(lin, memory)
    terms1 = _partial_fraction_terms(n1, roots, tol)
    # c2: expand (c2_0*p(s) - i*Omega*N1(s)) / (s * p(s))
    n2 = np.polyadd(init.c2_0 * coeffs, -1j * om * n1)
    terms2 = _partial_fraction_terms(
        n2, np.concatenate(([0.0 + 0.0j], roots)), tol)
    return terms1, terms2


@functools.lru_cache(maxsize=512)
def _amplitude_poles(params: ModelParams, init: InitialState) -> Poles:
    """Poles of c1 (output 0) and c2 (output 1)."""
    return _poles(*_amplitude_partial_fractions(params, init))


def amplitude_grid(params: ModelParams, init: InitialState,
                   tau) -> tuple[np.ndarray, np.ndarray]:
    """(c1, c2) amplitudes on an array of times."""
    c1, c2 = _eval_poles(_amplitude_poles(params, init), tau)
    return c1, c2


def c2_of_cells(params_seq, init: InitialState):
    """The battery amplitude c2 of many cells, one time per cell.

    Returns ``f(t) -> c2`` for ``t`` of shape ``(len(params_seq),)``.  The
    cells share one stack of c2 poles; each cell's value has the bytes of
    ``amplitude_grid(params, init, t[i:i+1])[1]``.
    """
    cells = [_amplitude_poles(p, init) for p in params_seq]
    n_roots = max((r.size for r, _ in cells), default=0)
    depth = max((c.shape[2] for _, c in cells), default=0)
    roots = np.zeros((n_roots, len(cells)), dtype=np.complex128)
    coefs = np.zeros((1, n_roots, depth, len(cells)), dtype=np.complex128)
    for i, (r, c) in enumerate(cells):
        roots[:r.size, i] = r
        coefs[0, :r.size, :c.shape[2], i] = c[1]  # c2 only
    return lambda t: _eval_poles((roots, coefs), t)[0]


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
