"""Exact amplitudes and the charging propagator kappa(t).

The engine is dimensionless: it runs at Omega = 1 on the ratios
g = gamma/Omega and l = lam/Omega, with time the Omega*tau of every figure
axis.  Omega enters only where a physical time tau comes in (``kappa_grid``,
``amplitude_grid``) and where physical roots go out (``solve_roots``).  The
Laplace-domain solution of the amplitude equations has, after clearing
fractions, the common cubic denominator at finite width

    p(s) = s^3 + l*s^2 + (1 + l*g/2)*s + l,

so every amplitude is a sum of (at most) three exponentials, obtained by
partial fractions.  Roots are computed as eigenvalues of the companion
matrix (better conditioned near degeneracies than a closed-form cubic) and
polished with two Newton steps; roots closer than 1e-7 relative to the
larger of the pair form a cluster and take the confluent partial-fraction
expansion with t^k * exp(s*t) terms.

One partial-fraction expansion per (params, initial state) gives c1 and c2
together as poles: a pair of arrays (roots, coefs), the distinct roots in
(real, imag) order and coefs[output, root, power] the coefficient of
t**power * exp(root*t).  The charging propagator kappa is c2 of the empty
battery.  One evaluator walks the roots in order and computes each root's
exponential exp(s*t) once per call, whatever the number of terms and
outputs that share it.  The poles of many cells stack along a trailing
cell axis, padded with zero coefficients at the zero root; the same
evaluator then advances every cell at one time point each, as the
lockstep searches of ``metrics`` need.

In the flat-spectrum limit (infinite width) the same engine runs on the
quadratic denominator p(s) = s^2 + g*s/2 + 1, whose roots have a closed
form; its exceptional point g = 4 is an exact double root and takes the
confluent expansion like any clustered root.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import InitialState, ModelParams, empty_battery_state

# (roots, coefs): distinct roots in (real, imag) order and coefs indexed
# [output, root, power]; stacked cells add a trailing axis to both
Poles = tuple[np.ndarray, np.ndarray]


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
    """Union-find clustering of roots closer than 1e-7 relative to the
    larger of each pair -> (center, multiplicity), in (real, imag) order."""
    n = len(roots)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if (abs(roots[i] - roots[j])
                    < 1e-7 * max(abs(roots[i]), abs(roots[j]))):
                parent[find(j)] = find(i)
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(complex(roots[i]))
    clusters = [(sum(g) / len(g), len(g)) for g in groups.values()]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


def _partial_fractions(nums, roots: np.ndarray) -> Poles:
    """Poles of the inverse Laplace transforms of N_k(s) / prod_j (s - s_j),
    one output per numerator N_k in ``nums``.

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

    The quadratic s^2 + b*s + c (b = g/2, c = 1) has the larger root
    -(b + sqrt(b^2 - 4c))/2 = -(g + R)/4, R = sqrt(g^2 - 16), and the other
    c/larger; at g = 4 both are the larger one, as c/larger flips the sign
    of its zero imaginary part.  The cubic's are the companion-matrix
    eigenvalues, polished with two Newton steps.
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


def solve_roots(params: ModelParams) -> PropagatorRoots:
    """Physical roots of the denominator, Omega times those of p(s);
    ``degenerate`` is set when some of them cluster and take confluent
    terms t**k * exp(s*t)."""
    roots = _roots(_polynomials(*_ratios(params))[0])
    return PropagatorRoots(
        tuple(params.coupling_qb_cavity * complex(s) for s in roots),
        any(m > 1 for _, m in _cluster_roots(roots)))


def kappa_grid(params: ModelParams, tau) -> np.ndarray:
    """Charging propagator kappa on an array of physical times: c2 of the
    empty battery."""
    roots, coefs = _amplitude_poles(params, empty_battery_state())
    om_tau = params.coupling_qb_cavity * np.asarray(tau, dtype=np.float64)
    return _eval_poles((roots, coefs[1:]), om_tau)[0]


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


@functools.lru_cache(maxsize=512)
def _amplitude_poles(params: ModelParams, init: InitialState) -> Poles:
    """Poles of c1 (output 0) and c2 (output 1), in Omega*tau, for
    arbitrary initial amplitudes:

    c1(s) = n1(s) / p(s),  n1(s) = (c1_0*s - i*c2_0) m(s)
    c2(s) = (c2_0*p(s) - i*n1(s)) / (s*p(s))

    The numerator of c2 vanishes at s = 0 (c2_0*l on both sides at finite
    width, c2_0 when memoryless), so dropping its constant term divides it
    by s exactly and c2 has the poles of p alone.
    """
    coeffs, memory = _polynomials(*_ratios(params))
    lin = np.array([init.c1_0, -1j * init.c2_0])  # c1_0*s - i*c2_0
    n1 = np.polymul(lin, memory)
    n2 = np.polyadd(init.c2_0 * coeffs, -1j * n1)[:-1]
    return _partial_fractions((n1, n2), _roots(coeffs))


def amplitude_grid(params: ModelParams, init: InitialState,
                   tau) -> tuple[np.ndarray, np.ndarray]:
    """(c1, c2) amplitudes on an array of physical times."""
    om_tau = params.coupling_qb_cavity * np.asarray(tau, dtype=np.float64)
    c1, c2 = _eval_poles(_amplitude_poles(params, init), om_tau)
    return c1, c2


def amplitudes_of_cells(params_seq, init: InitialState):
    """The amplitudes c1 and c2 of many cells, one time per cell.

    Returns ``f(t) -> (c1, c2)`` for ``t`` in Omega*tau of shape
    ``(len(params_seq),)``, or of any shape for a single cell.  The cells
    share one stack of poles, and each cell's values have the bytes of its
    own poles evaluated alone.
    """
    cells = [_amplitude_poles(p, init) for p in params_seq]
    n_roots = max((r.size for r, _ in cells), default=0)
    depth = max((c.shape[2] for _, c in cells), default=0)
    roots = np.zeros((n_roots, len(cells)), dtype=np.complex128)
    coefs = np.zeros((2, n_roots, depth, len(cells)), dtype=np.complex128)
    for i, (r, c) in enumerate(cells):
        roots[:r.size, i] = r
        coefs[:, :r.size, :c.shape[2], i] = c
    return lambda t: _eval_poles((roots, coefs), t)


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
    # kappa (the empty battery's c2) and init's c2 share the roots of p
    roots, empty = _amplitude_poles(params, empty_battery_state())
    kap, c2 = _eval_poles((roots, np.stack(
        [empty[1], _amplitude_poles(params, init)[1][1]])), taus)
    pop = metrics._clipped_population(np.abs(c2) ** 2)
    return ChargingTrajectory(taus, kap, pop,
                              metrics.stored_energy(params, pop),
                              metrics.ergotropy_qubit(params, pop))
