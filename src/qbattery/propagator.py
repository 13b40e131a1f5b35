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

One batched partial-fraction expansion (``_transfer_many``) takes many
ratio pairs at once and gives u, w and v of each as terms: one root per
real root, cluster or conjugate pair, and each entry the sum of
Re(coef * t**power * exp(root*t)).  The cells' terms stack along a
trailing axis, and each cell has the bytes of its one-cell expansion
(``_transfer``, cached, so cells that differ only in Omega or in the
initial state share it).  One evaluator (``_eval_terms``) reads them: at
any array of times, one exponential per root, so the searches of
``metrics`` read each open bracket of a stack at one time point; or at
the points (r + k)*h of a uniform grid, one exponential per row start r
and per column offset k, as the scans of ``metrics`` read it.  Every
population the package reads passes one guard, here below its readers
(``_clipped_population``): |c2|^2 outside [0, 1] beyond roundoff, NaN
included, raises ``NumericalGuardError`` (exit 4); the rest is clipped.
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


def _qubit_ergotropy(omega0, p) -> np.ndarray:
    """omega0*(2p - 1) above p = 1/2, else zero: the ergotropy of diag(p,
    1 - p) at a guarded population ``p``; ``omega0`` a scalar or per entry."""
    return np.where(p > 0.5, omega0 * (2.0 * p - 1.0), 0.0)


@dataclass(frozen=True)
class PropagatorRoots:
    """Physical roots of the denominator, and whether any cluster; kept
    with ``solve_roots``, which perfbench's tracer wraps."""

    roots: tuple[complex, ...]
    degenerate: bool


def _ratios(params: ModelParams) -> tuple[float, float]:
    """(gamma/Omega, lam/Omega): all the engine reads of params."""
    om = params.coupling_qb_cavity
    return params.coupling_cavity_env / om, params.spectral_width / om


def _refuse(ok, g, l, what: str) -> None:
    """Raise ``NumericalGuardError`` naming the first cell (g[i], l[i])
    that is not ``ok`` and ``what`` is wrong there."""
    if not ok.all():
        i = np.argmin(ok)
        raise NumericalGuardError(
            f"{what} at gamma/Omega = {float(g[i])!r}, "
            f"lambda/Omega = {float(l[i])!r}")


def _check_finite(g, l, *parts) -> None:
    """Raise ``NumericalGuardError`` naming the first cell (g[i], l[i]) at
    which some part of an expansion, cells along its last axis, is not
    finite."""
    _refuse(np.logical_and.reduce(
        [np.isfinite(x).all(tuple(range(x.ndim - 1))) for x in parts]),
        g, l, "expansion not finite")


def _check_roots(g, l, coeffs: np.ndarray, roots: np.ndarray) -> None:
    """Raise ``NumericalGuardError`` naming the first cell (g[i], l[i]),
    cells along the first axis, at which some root s of its polynomial
    (``coeffs``, highest power first) has a relative residual |p(s)| /
    sum_k |p_k| |s|^k above 1e-10, or one that is NaN.  A root of modulus
    above 1 is put in as 1/s into the reversed polynomial, p(s)/s^n, so no
    power overflows."""
    coeffs = coeffs[:, None, :]
    big = np.abs(roots) > 1.0
    z = np.where(big, 1.0 / np.where(big, roots, 1.0), roots)
    c = np.where(big[..., None], coeffs[..., ::-1], coeffs)
    residual = (np.abs(_horner(c, z)) / _horner(np.abs(c), np.abs(z))).max(-1)
    ok = residual <= 1e-10
    _refuse(ok, g, l, f"root residual {float(residual[np.argmin(ok)])!r} "
            "above 1e-10")


def _complex(re, im) -> np.ndarray:
    """The complex array of parts ``re`` and ``im``, signed zeros kept."""
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _product(a, b) -> np.ndarray:
    """a*b as Re = ar*br - ai*bi and Im = ar*bi + ai*br, every product
    rounded alone, as Python's complex type and numpy's complex scalars
    form it; numpy's complex array loops may fuse a multiply-add."""
    return _complex(a.real * b.real - a.imag * b.imag,
                    a.real * b.imag + a.imag * b.real)


def _quotient(a, b) -> np.ndarray:
    """a/b by Smith's method as Python's complex type forms it, dividing
    by the scaled denominator where numpy multiplies by its reciprocal."""
    by_real = np.abs(b.real) >= np.abs(b.imag)
    big = np.where(by_real, b.real, b.imag)
    small = np.where(by_real, b.imag, b.real)
    p = np.where(by_real, a.real, a.imag)
    q = np.where(by_real, a.imag, a.real)
    ratio = small / big
    den = big + small * ratio
    return _complex((p + q * ratio) / den,
                    np.where(by_real, q - p * ratio, p * ratio - q) / den)


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomials ``coeffs[..., k]`` (highest power first) at ``x``,
    by np.polyval's Horner steps."""
    y = np.zeros_like(x)
    for k in range(coeffs.shape[-1]):
        y = y * x + coeffs[..., k]
    return y


def _polyder(coeffs: np.ndarray) -> np.ndarray:
    """np.polyder along the last axis."""
    return coeffs[..., :-1] * np.arange(coeffs.shape[-1] - 1, 0, -1)


def _polynomials(g, l) -> tuple[np.ndarray, np.ndarray]:
    """Denominator p(s) and memory factor m(s) at Omega = 1, kappa(s) =
    -i*m(s)/p(s), coefficients along the last axis: the cubic and s + l at
    finite width, the quadratic and 1 when memoryless (l = inf).  Arrays
    ``g`` and ``l`` give one cell per entry, all of one regime."""
    g, l = np.broadcast_arrays(np.asarray(g, dtype=np.float64),
                               np.asarray(l, dtype=np.float64))
    one = np.ones_like(g)
    if np.isinf(l).any():
        return (np.stack([one, 0.5 * g, one], -1).astype(np.complex128),
                one[..., None])
    return (np.stack([one, l, 1.0 + 0.5 * l * g, l],
                     -1).astype(np.complex128),
            np.stack([one, l], -1))


def _conjugate_pairs(roots: np.ndarray) -> np.ndarray:
    """The roots of real polynomials of degree 2 or 3, along the last axis:
    an exact conjugate pair, if any, and real roots.

    The roots of least and greatest imaginary part pair up when each is
    nearer the other's conjugate than both are to the real axis, as
    s = (hi + conj(lo))/2 and conj(s).  From complex coefficients a pair
    is conjugate only to roundoff, 3.6e-6 apart at the triple root.
    """
    by_imag = np.take_along_axis(
        roots, np.argsort(roots.imag, axis=-1, kind="stable"), -1)
    lo, mid, hi = by_imag[..., :1], by_imag[..., 1:-1], by_imag[..., -1:]
    s = 0.5 * (hi + lo.conj())
    return np.where(np.abs(hi - lo.conj()) < hi.imag - lo.imag,
                    np.concatenate([s.conj(), mid.real, s], -1),
                    np.concatenate([lo.real, mid.real, hi.real], -1))


def _roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of the monic p(s), coefficients along the last axis, in
    (real, imag) order.

    The quadratic s^2 + b*s + c (b = g/2, c = 1) has the larger root
    -(b + sqrt(b^2 - 4c))/2 = -(g + R)/4, R = sqrt(g^2 - 16), and the other
    c/larger.  The cubic's are the eigenvalues of the companion matrix that
    np.roots builds, polished with two Newton steps.  Both are made exact
    conjugate pairs (``_conjugate_pairs``), which also makes the double
    root at g = 4 real.
    """
    if coeffs.shape[-1] == 3:
        b, c = coeffs[..., 1], coeffs[..., 2]
        big = -0.5 * (b + np.sqrt(b * b - 4.0 * c))
        roots = np.stack([big, c / big], -1)
    else:
        companion = np.zeros(coeffs.shape[:-1] + (3, 3), dtype=np.complex128)
        companion[..., 0, :] = -coeffs[..., 1:] / coeffs[..., :1]
        companion[..., 1, 0] = companion[..., 2, 1] = 1.0
        roots = np.linalg.eigvals(companion)
        coeffs = coeffs[..., None, :]
        for _ in range(2):  # Newton polish
            pv = _horner(coeffs, roots)
            dv = _horner(_polyder(coeffs), roots)
            mask = np.abs(dv) > 0
            roots = np.where(mask, roots - pv / np.where(mask, dv, 1.0),
                             roots)
    roots = _conjugate_pairs(roots)
    return np.take_along_axis(
        roots, np.lexsort((roots.imag, roots.real), axis=-1), -1)


def _clusters(roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clusters of roots linked by pairs closer than 1e-7 relative to the
    larger of the two, along the last axis: (centres, multiplicities) in
    (real, imag) order, multiplicity 0 after the last cluster.  A centre
    is the sum of its roots in index order over their number."""
    n = roots.shape[-1]
    size = np.abs(roots)
    close = (np.abs(roots[..., :, None] - roots[..., None, :])
             < 1e-7 * np.maximum(size[..., :, None], size[..., None, :])
             ) | np.eye(n, dtype=bool)
    linked = np.linalg.matrix_power(close.astype(int), n) > 0
    # a cluster sits on the row of its first root
    mults = np.where(linked.argmax(-1) == np.arange(n), linked.sum(-1), 0)
    re = im = 0.0
    for k in range(n):
        re = np.where(linked[..., k], re + roots[..., k, None].real, re)
        im = np.where(linked[..., k], im + roots[..., k, None].imag, im)
    centres = _quotient(_complex(re, im), np.maximum(mults, 1).astype(float))
    order = np.lexsort((centres.imag, centres.real, mults == 0), axis=-1)
    return (np.take_along_axis(centres, order, -1),
            np.take_along_axis(mults, order, -1))


def _partial_fractions(nums, roots: np.ndarray) -> Terms:
    """Terms of the inverse Laplace transforms of N_k(s) / prod_j (s - s_j),
    one entry per numerator N_k in ``nums``, one root per cluster: the
    entries are the real parts of the transforms.  Roots and numerator
    coefficients lie along the last axis; leading axes are cells, which the
    terms stack along trailing axes, each cell's clusters first and zeros
    after them.

    A cluster of roots takes the confluent terms t**k * exp(s*t), from
    derivatives of the reduced numerator q(s) = N(s) / prod_other(s - s_k).
    R(s0) = prod (s0 - r_k) and its log-derivative sums are evaluated from
    the factors directly: expanded coefficients lose precision badly for
    nearly-coincident roots.  Cells of one cluster pattern are expanded
    together, each with the roundings of scalar complex arithmetic
    (``_product``, ``_quotient``, np.polyval's Horner steps) that the
    goldens pin.
    """
    lead = roots.shape[:-1]
    roots = roots.reshape(-1, roots.shape[-1])
    nums = [np.broadcast_to(num, lead + np.shape(num)[-1:]).reshape(
        len(roots), -1) for num in nums]
    centres, mults = _clusters(roots)
    out_roots = np.zeros(((mults > 0).sum(-1).max(initial=0), len(roots)),
                         dtype=np.complex128)
    coefs = np.zeros((len(nums), len(out_roots), mults.max(initial=0),
                      len(roots)), dtype=np.complex128)
    patterns, of_cell = np.unique(mults, axis=0, return_inverse=True)
    for p, pattern in enumerate(patterns):
        cells = np.flatnonzero(of_cell.ravel() == p)
        ms = [int(m) for m in pattern if m]
        c = np.ascontiguousarray(centres[cells, :len(ms)].T)
        out_roots[:len(ms), cells] = c
        group = [num[cells] for num in nums]
        for j, m in enumerate(ms):
            d = c[j] - c[[k for k, mk in enumerate(ms) if k != j
                          for _ in range(mk)]]
            r0 = (d[0] if len(d) == 1 else _product(*d) if len(d)
                  else np.ones_like(c[j]))
            if m >= 2:  # R'(s0) = r1 and R''(s0) = r2
                zero = np.zeros_like(c[j])
                sum1 = sum(_quotient(1.0, d), zero)
                # sums from 0, and squares as 1 * (d * d), as Python forms them
                sum2 = sum(_quotient(1.0, _product(1.0, _product(d, d))),
                           zero)
                r1 = _product(r0, sum1)
                r2 = _product(r0, _product(sum1, sum1) - sum2)
            for k, num in enumerate(group):
                qd = [_horner(num, c[j]) / r0]
                if m >= 2:
                    n1 = _horner(_polyder(num), c[j])
                    qd.append((n1 - _product(qd[0], r1)) / r0)
                if m >= 3:
                    n2 = _horner(_polyder(_polyder(num)), c[j])
                    qd.append((n2 - _product(_product(2.0, qd[1]), r1)
                               - _product(qd[0], r2)) / r0)
                for r, q in enumerate(qd):
                    # coefficient of 1/(s-s0)^(m-r) is q^(r)(s0)/r!
                    power = m - r - 1
                    coefs[k, j, power, cells] = (q / math.factorial(r)
                                                 / math.factorial(power))
    return (out_roots.reshape(out_roots.shape[:1] + lead),
            coefs.reshape(coefs.shape[:3] + lead))


# each cell's outer product of a row and a column part: one rounded product
# per point, as a broadcast multiply forms it, only faster
_OUTER = "...r,...k->...rk"


def _eval_terms(terms: Terms, t, cols=None, h=None,
                work=None) -> list[np.ndarray]:
    """Each entry of ``terms`` at the times ``t``, one exponential per root;
    or, given integer column offsets ``cols`` and the spacing ``h``, at the
    grid points (t[r] + cols[k])*h of the integer row starts ``t``, [(cell,)
    row, column], as views of ``work`` when given, a float buffer of at
    least (entries + 2) times that many points.

    Each entry adds its products root by root, highest power first, and
    skips all-zero coefficients, so the result does not depend on how many
    entries share a root.  For stacked terms ``t`` holds one time per cell,
    or the row starts of every cell: a cell's zero padding adds exact zeros,
    so it gets the bytes of its own terms.  On a grid a term is the
    pointwise one at the row start times the column factor e_c =
    exp(s*cols[k]*h), Re(a e_r) Re(e_c) - Im(a e_r) Im(e_c): one rounded
    product per point and part, and no Im part unless the root is complex
    in some cell.
    """
    roots, coefs = terms
    t = np.asarray(t, dtype=np.float64)
    grid = cols is not None
    if grid:  # a row axis on every cell; the columns follow it
        roots, coefs = roots[..., None], coefs[..., None]
        shape = (len(coefs) + 2,) + roots.shape[1:-1] + (len(t), len(cols))
        work = (np.empty(shape) if work is None
                else work[:math.prod(shape)].reshape(shape))
        work[:-2] = 0.0
        *outs, part, im_part = work
        if coefs[:, :, 1:].any():  # the times of confluent terms
            times = (t[:, None] + cols) * h
        t, col_t = t * h, cols * h
    else:
        outs = [np.zeros(t.shape) for _ in coefs]
    for j, root in enumerate(roots):
        if not coefs[:, j].any():
            continue
        e = np.exp(root * t)  # exactly 1 at a zero root
        if grid:
            ec = np.exp(root * col_t)
            ec_re = ec.real.copy()
            ec_im = ec.imag.copy() if root.imag.any() else None
        for out, rows in zip(outs, coefs[:, j]):
            for power in reversed(range(len(rows))):
                a = rows[power]
                if not a.any():
                    continue
                term = a.real * e.real  # Re(a e) = Re a Re e - Im a Im e
                term -= a.imag * e.imag
                if grid:  # times the column factor e_c
                    term = np.einsum(_OUTER, term, ec_re, out=part)
                    if ec_im is not None:
                        term -= np.einsum(_OUTER, a.real * e.imag
                                          + a.imag * e.real, ec_im,
                                          out=im_part)
                if power:
                    term *= (times if grid else t) ** power
                out += term
                del term  # keep at most one product alive beside e
        del e  # free this root's exponential before the next one
    return outs


def solve_roots(params: ModelParams) -> PropagatorRoots:
    """Physical roots of the denominator, Omega times those of p(s);
    ``degenerate`` is set when some of them cluster and take confluent
    terms t**k * exp(s*t).  No module of the package calls it: it stays
    because perfbench's tracer wraps it.  Roots that are not finite, or of
    relative residual above 1e-10, raise ``NumericalGuardError``."""
    g, l = _ratios(params)
    with np.errstate(all="ignore"):
        p = _polynomials(g, l)[0]
        _check_finite([g], [l], p[:, None])
        roots = _roots(p)
        _check_finite([g], [l], roots[:, None])
        _check_roots([g], [l], p[None], roots[None])
    return PropagatorRoots(
        tuple(params.coupling_qb_cavity * complex(s) for s in roots),
        bool((_clusters(roots)[1] > 1).any()))


def _transfer_many(ratios) -> Terms:
    """Terms of the entries u, w and v of U, in Omega*tau, for a sequence
    of (g, l) ratio pairs: roots[j, cell] and coefs[entry, j, power, cell],
    each cell's roots first and zeros after them.  A cell's terms have the
    bytes of its one-cell expansion, whatever the batch.  A cell whose
    polynomials, roots or coefficients are not finite, such as one whose
    ratios overflow them, raises ``NumericalGuardError``, its polynomials
    checked before their roots are sought; so does a cell with a finite
    root of relative residual above 1e-10 (``_check_roots``), as the
    companion matrix gives at gamma/Omega = 1, lambda/Omega = 1e62.

    p - m vanishes at s = 0, so dropping its constant term divides it by s
    exactly.  With real numerators and exact conjugate roots a pair's
    coefficients (a, a') fold into a + conj(a') on its root of positive
    imaginary part: Re(a' exp(conj(s) t)) = Re(conj(a') exp(s t)).
    """
    g, l = np.asarray(ratios, dtype=np.float64).reshape(-1, 2).T
    roots = np.zeros((3, len(g)), dtype=np.complex128)
    coefs = np.zeros((3, 3, 3, len(g)), dtype=np.complex128)
    keep = np.zeros(roots.shape, dtype=bool)
    depth = 0
    for cells in (np.flatnonzero(np.isfinite(l)), np.flatnonzero(np.isinf(l))):
        if not cells.size:
            continue
        with np.errstate(all="ignore"):
            p, m = _polynomials(g[cells], l[cells])
            _check_finite(g[cells], l[cells], p.T)
            p_minus_m = p.copy()
            p_minus_m[:, -m.shape[1]:] -= m
            roots_p = _roots(p)
            # the numerators s*m, m and (p - m)/s of u, w and v
            r, c = _partial_fractions(
                (np.pad(m, ((0, 0), (0, 1))), m, p_minus_m[:, :-1]), roots_p)
            _check_finite(g[cells], l[cells], r, c)
            _check_roots(g[cells], l[cells], p, roots_p)
        roots[:len(r), cells] = r
        coefs[:, :len(r), :c.shape[2], cells] = c
        keep[:len(r), cells] = ~(r.imag < 0)
        depth = max(depth, c.shape[2])
    lower = roots.imag < 0
    for j in range(3):
        for k in range(3):
            mate = lower[j] & (roots[k] == roots[j].conj())
            coefs[:, k] = np.where(mate, coefs[:, k] + coefs[:, j].conj(),
                                   coefs[:, k])
    # the kept roots first, in order, and zeros after them
    order = np.argsort(~keep, axis=0, kind="stable")
    keep = np.take_along_axis(keep, order, 0)
    n_roots = keep.sum(0).max(initial=0)
    roots = np.where(keep, np.take_along_axis(roots, order, 0), 0)
    coefs = np.where(keep[:, None], np.take_along_axis(
        coefs, order[None, :, None], 1), 0)
    return roots[:n_roots], coefs[:, :n_roots, :depth]


@functools.lru_cache(maxsize=512)
def _transfer(g: float, l: float) -> Terms:
    """``_transfer_many`` of one cell, cached, so that cells that differ
    only in Omega or in the initial state share it."""
    roots, coefs = _transfer_many([(g, l)])
    return roots[:, 0], coefs[..., 0]


def _select(terms: Terms, index) -> Terms:
    """The terms of the cells ``index`` of a stack: one cell for an integer,
    a stack for an array or a slice of them."""
    roots, coefs = terms
    return roots[:, index], coefs[..., index]


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
    if len(used) < len(coefs):
        coefs = coefs[used]
    entries, shape = _eval_terms((roots, coefs), t), np.shape(t)
    outs = []
    for row in weights[:, used]:
        out = np.zeros(shape, dtype=np.complex128)
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


def _check_tmax(tmax: float) -> None:
    """The one horizon rule of trajectories and of the metrics searches."""
    if not 0 < tmax < math.inf:
        raise ValueError("tmax must be positive and finite")


def kappa_at(params: ModelParams, tau: float) -> complex:
    """kappa(tau): amplitude reaching the battery from a full cavity."""
    _check_tau(tau)
    return complex(kappa_grid(params, np.float64(tau)))


def amplitude_grid(params: ModelParams, init: InitialState,
                   tau) -> tuple[np.ndarray, np.ndarray]:
    """(c1, c2) amplitudes on an array of physical times."""
    om_tau = params.coupling_qb_cavity * np.asarray(tau, dtype=np.float64)
    c1, c2 = _apply(_transfer(*_ratios(params)), _weights(init), om_tau)
    return c1, c2


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
    outside [0, 1] raises ``NumericalGuardError``.
    """
    _check_tmax(tmax)
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if init is None:
        init = empty_battery_state()
    taus = np.linspace(0.0, tmax, steps)
    # kappa (the empty battery's c2) and init's c2 share the entry w
    kap, c2 = _apply(_transfer(*_ratios(params)), np.stack(
        [_weights(empty_battery_state())[1], _weights(init)[1]]), taus)
    pop = _clipped_population(np.abs(c2) ** 2)
    return ChargingTrajectory(taus, kap, pop, params.omega0 * pop,
                              _qubit_ergotropy(params.omega0, pop))
