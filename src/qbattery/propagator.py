"""Exact amplitudes and the charging propagator kappa(t).

The engine is dimensionless: it runs at Omega = 1 on the ratios
g = gamma/Omega and l = lam/Omega, with time the Omega*tau of every figure
axis.  Omega enters only where a physical time tau comes in (``kappa_grid``,
``amplitude_grid``, which refuse an Omega*tau that is negative or not
finite) and where physical roots go out (``solve_roots``).

Every amplitude is c(t) = U(t) c(0), with the transfer matrix
U = [[u, -i*w], [-i*w, v]] whose entries are real functions of t; the
charging propagator is kappa = -i*w.  In the Laplace domain u = s*m/p,
w = m/p and v = ((p - m)/s)/p, with the cubic denominator at finite width
p(s) = s^3 + l*s^2 + (1 + l*g/2)*s + l and the memory factor m(s) = s + l,
or, in the flat-spectrum limit (infinite width), the quadratic
p(s) = s^2 + g*s/2 + 1 and m(s) = 1.  So each entry is an operator in
d/dt on one impulse response x = L^-1[1/p]: w = m(d/dt) x, u = w' and
v = u + k1*x, k1 = l*g/2 (g/2 when memoryless) the s^1 coefficient of
p - m.  The roots of p come from real arithmetic: Newton steps find the
cubic's real root, which deflates it onto a quadratic whose closed form,
like the memoryless one's, gives exact conjugate pairs; roots closer than
1e-7 relative to the larger of the pair, or three near the triple point,
form a cluster and take confluent t^k * exp(s*t) terms, as does the
quadratic's double root at g = 4.

One batched partial-fraction expansion of 1/p (``_transfer_many``) takes
many ratio pairs at once and gives x, and so u, w and v, of each as terms,
each derivative one map of the terms (``_derivative``): one root per real
root, cluster or conjugate pair, and each entry the sum of Re(coef *
t**power * exp(root*t)).  The cells' terms stack along a trailing axis,
and each cell has the bytes of its one-cell expansion (``_transfer``,
cached, so cells that differ only in Omega or in the initial state share
it).  One evaluator (``_eval_terms``) reads them: at any array of times,
one exponential per root, so the searches of ``metrics`` read each open
bracket of a stack at one time point; or at the points (r + k)*h of a
uniform grid, one exponential per row start r and per column offset k, as
the scans of ``metrics`` read it.  One envelope (``_envelope``) bounds
them on an interval: every bound the searches of ``metrics`` prove.  Every
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
    residual = (np.abs(_horner(c, z))
                / _horner(np.abs(c), np.abs(z)).real).max(-1)
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
    """The real polynomials ``coeffs[..., k]`` (highest power first) at
    ``x`` as a complex array, for ``_check_roots``: np.polyval's Horner
    steps, each complex product rounded as ``_product`` rounds it."""
    xr, xi, re, im = x.real, x.imag, coeffs[..., :1].sum(-1), 0.0
    for k in range(1, coeffs.shape[-1]):
        re, im = re * xr - im * xi + coeffs[..., k], re * xi + im * xr
    return _complex(re, im)


def _polynomials(g, l) -> tuple[np.ndarray, np.ndarray]:
    """Denominator p(s) and memory factor m(s) at Omega = 1, kappa(s) =
    -i*m(s)/p(s), coefficients along the last axis: the cubic and s + l at
    finite width, the quadratic and 1 when memoryless (l = inf).  Arrays
    ``g`` and ``l`` give one cell per entry, all of one regime."""
    g, l = np.broadcast_arrays(np.asarray(g, dtype=np.float64),
                               np.asarray(l, dtype=np.float64))
    one = np.ones_like(g)
    if np.isinf(l).any():
        return np.stack([one, 0.5 * g, one], -1), one[..., None]
    return np.stack([one, l, 1.0 + 0.5 * l * g, l], -1), np.stack([one, l], -1)


def _real_root(l, k) -> np.ndarray:
    """The real root r in [-l, 0) of p(s) = s^3 + l*s^2 + k*s + l, by
    Newton steps that move monotonically to it: from -l where p(-l/3) > 0,
    p being concave left of its inflection -l/3, else from 0, p being
    convex right of it.  A cell stops at the first iterate that fails to
    move toward r, and only open cells step.  Where |s| > 1 a step p/p' is
    s*q/(3q - z*q') of q(z) = z^3*p(1/z), z = 1/s, so nothing overflows."""
    shape, l, k = l.shape, l.ravel(), k.ravel()
    rising = 2.0 * l * l / 27.0 + 1.0 > k / 3.0  # p(-l/3) > 0
    root = np.where(rising, -l, 0.0)
    s, cells, l2 = root, np.arange(root.size), 2.0 * l
    for _ in range(100):  # a cap left unmet is _check_roots' to refuse
        z = 1.0 / np.minimum(s, -1.0)  # 1/s where |s| > 1, as s <= 0
        new = s - np.where(
            s < -1.0,
            s * (((l * z + k) * z + l) * z + 1.0) / ((k * z + l2) * z + 3.0),
            (((s + l) * s + k) * s + l) / ((3.0 * s + l2) * s + k))
        moved = np.where(rising, new > s, new < s)  # NaN fails both
        root[cells[moved]] = new[moved]
        s, l, k, l2, rising, cells = (
            x[moved] for x in (new, l, k, l2, rising, cells))
        if not cells.size:
            break
    return root.reshape(shape)


def _roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of the monic p(s), real coefficients along the last axis, in
    (real, imag) order, in real arithmetic.

    The cubic, k = 1 + l*g/2, has a real root r in [-l, 0), as p(0) = l > 0
    and p(-l) = -l^2*g/2 <= 0 (``_real_root``; the inflection -l/3 parts it
    from any double root).  It deflates onto s^2 + b*s + c with c = -l/r
    and b = l + r, or (c - k)/r where |r| > 1.  That quadratic, like the
    memoryless s^2 + (g/2)*s + 1, has with h = b/2 the exact conjugate pair
    -h -+ i*sqrt(c - h^2), or the real roots -(h + sign(h)*sqrt(h^2 - c))
    and c over it, such as the double root -1 at g = 4.
    """
    if coeffs.shape[-1] == 3:
        real, b, c = [], coeffs[..., 1], coeffs[..., 2]
    else:
        l, k = coeffs[..., 1], coeffs[..., 2]
        r = _real_root(l, k)
        c = -l / r
        real, b = [r], np.where(np.abs(r) <= 1.0, l + r, (c - k) / r)
    h = 0.5 * b
    disc = h * h - c
    pair, root = disc < 0.0, np.sqrt(np.abs(disc))
    larger = -(h + np.copysign(root, h))
    im = np.where(pair, root, 0.0)
    roots = np.stack(real + [_complex(np.where(pair, -h, larger), 0.0 - im),
                             _complex(np.where(pair, -h, c / larger), im)], -1)
    return np.take_along_axis(
        roots, np.lexsort((roots.imag, roots.real), axis=-1), -1)


def _clusters(roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clusters of roots linked by pairs closer than 1e-7 relative to the
    larger of the two, or of three roots within eps**0.2 of their centroid
    relative to its modulus, along the last axis: (centres, multiplicities)
    in (real, imag) order, multiplicity 0 after the last cluster.  A centre
    is the sum of its roots in index order over their number."""
    n = roots.shape[-1]
    size = np.abs(roots)
    close = (np.abs(roots[..., :, None] - roots[..., None, :])
             < 1e-7 * np.maximum(size[..., :, None], size[..., None, :])
             ) | np.eye(n, dtype=bool)
    whole = close.sum((-2, -1)) > n + 2  # two close pairs link all three
    if n == 3:
        # near the triple point p is x^3 + a*x + b about the centroid, a and
        # b of one order: confluent terms err like |a| ~ spread^3, partial
        # fractions by eps/spread^2, and the two meet at spread eps**(1/5)
        centroid = roots.mean(-1, keepdims=True)
        whole |= (np.abs(roots - centroid) <= np.finfo(float).eps ** 0.2
                  * np.abs(centroid)).all(-1)
    linked = close | whole[..., None, None]
    # a cluster sits on the row of its first root
    mults = np.where(linked.argmax(-1) == np.arange(n), linked.sum(-1), 0)
    centres = _quotient((linked * roots[..., None, :]).sum(-1),
                        np.maximum(mults, 1).astype(float))
    order = np.lexsort((centres.imag, centres.real, mults == 0), axis=-1)
    return (np.take_along_axis(centres, order, -1),
            np.take_along_axis(mults, order, -1))


def _partial_fractions(roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Terms (roots, coefs[root, power]) of the impulse response x, the
    inverse Laplace transform of 1 / prod_j (s - s_j), one root per
    cluster.  Roots lie along the last axis; leading axes are cells, which
    the terms stack along trailing axes, each cell's clusters first and
    zeros after them.

    A cluster of m roots at s0 takes the confluent terms t**k * exp(s0*t),
    the coefficient of t**(m-1-r) being q^(r)(s0) / (r! (m-1-r)!) with
    q = 1/R, R(s) = prod (s - s_k) over the other roots: q = 1/R(s0),
    q' = -q*S1 and q'' = q*(S1^2 + S2), S1 and S2 the sums of 1/d and 1/d^2
    over the factors d = s0 - s_k, evaluated from the factors directly, as
    expanded coefficients lose precision badly for nearly-coincident roots.
    Cells of one cluster pattern are expanded together, each with the
    roundings of scalar complex arithmetic (``_product``, ``_quotient``)
    that the goldens pin.
    """
    lead = roots.shape[:-1]
    roots = roots.reshape(-1, roots.shape[-1])
    centres, mults = _clusters(roots)
    out_roots = np.zeros(((mults > 0).sum(-1).max(initial=0), len(roots)),
                         dtype=np.complex128)
    coefs = np.zeros((len(out_roots), mults.max(initial=0), len(roots)),
                     dtype=np.complex128)
    patterns, of_cell = np.unique(mults, axis=0, return_inverse=True)
    for p, pattern in enumerate(patterns):
        cells = np.flatnonzero(of_cell.ravel() == p)
        ms = [int(m) for m in pattern if m]
        c = np.ascontiguousarray(centres[cells, :len(ms)].T)
        out_roots[:len(ms), cells] = c
        for j, m in enumerate(ms):
            d = c[j] - c[[k for k, mk in enumerate(ms) if k != j
                          for _ in range(mk)]]
            qd = [_quotient(1.0, d[0] if len(d) == 1 else _product(*d)
                            if len(d) else np.ones_like(c[j]))]
            if m >= 2:
                zero = np.zeros_like(c[j])
                sum1 = sum(_quotient(1.0, d), zero)
                qd.append(-_product(qd[0], sum1))
            if m >= 3:
                # sums from 0, and squares as 1 * (d * d), as Python forms them
                sum2 = sum(_quotient(1.0, _product(1.0, _product(d, d))),
                           zero)
                qd.append(_product(qd[0], _product(sum1, sum1) + sum2))
            for r, q in enumerate(qd):
                power = m - r - 1
                coefs[j, power, cells] = (q / math.factorial(r)
                                          / math.factorial(power))
    return (out_roots.reshape(out_roots.shape[:1] + lead),
            coefs.reshape(coefs.shape[:2] + lead))


def _derivative(roots: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Coefficients of the time derivative of the terms (roots[root, cell],
    coefs[..., root, power, cell]): each term a*t**k*exp(s*t) gives
    s*a*t**k + k*a*t**(k-1), s*a formed by ``_product``."""
    out = _product(roots[:, None], coefs)
    out[..., :-1, :] += coefs[..., 1:, :] * np.arange(
        1.0, coefs.shape[-2])[:, None]
    return out


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


def _envelope(terms: Terms, t_a, t_b) -> np.ndarray:
    """sum_jp |a_jp| t_b^p e^max(Re s_j t_a, Re s_j t_b) per entry of
    ``terms``, times broadcast against the roots' trailing axes: a bound
    on the entry over [t_a, t_b] that needs t_a >= 0, for which it covers
    confluent powers t^p and a conjugate pair folded into 2a on one root,
    |Re(2a e^(st))| <= 2|a| e^(Re s t).  Overflows come out as they are."""
    roots, coefs = terms
    size = np.abs(coefs[:, :, -1])
    with np.errstate(all="ignore"):
        for power in range(coefs.shape[2] - 2, -1, -1):
            size = size * t_b + np.abs(coefs[:, :, power])
        s = roots.real
        return (size * np.exp(np.maximum(s * t_a, s * t_b))).sum(1)


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
    root of relative residual above 1e-10 (``_check_roots``).

    u, w and v come from the terms of x = L^-1[1/p], w by Horner in the
    operator m(d/dt).  With exact conjugate roots a pair's coefficients
    (a, a') of x, and so of u, w and v, are conjugate to the bit, so they
    fold into 2a = a + conj(a') on its root of positive imaginary part:
    Re(a' exp(conj(s) t)) = Re(conj(a') exp(s t)).
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
            roots_p = _roots(p)
            r, x = _partial_fractions(roots_p)
            w = x  # w = m(d/dt) x by Horner in the operator, m monic
            for coef in m.T[1:]:
                w = _derivative(r, w) + coef * x
            u = _derivative(r, w)
            k1 = p[:, -2] - (m[:, -2] if m.shape[1] > 1 else 0.0)
            c = np.stack([u, w, u + k1 * x])
            _check_finite(g[cells], l[cells], r, c)
            _check_roots(g[cells], l[cells], p, roots_p)
        roots[:len(r), cells] = r
        coefs[:, :len(r), :c.shape[2], cells] = c
        keep[:len(r), cells] = ~(r.imag < 0)
        depth = max(depth, c.shape[2])
    coefs = np.where((roots.imag > 0)[:, None], 2.0 * coefs, coefs)
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


def _om_tau(params: ModelParams, tau) -> np.ndarray:
    """Omega*tau of the physical times ``tau``; ValueError where it is
    negative, NaN or infinite (as when it overflows)."""
    with np.errstate(over="ignore"):
        om_tau = params.coupling_qb_cavity * np.asarray(tau, dtype=np.float64)
    ok = (om_tau >= 0.0) & (om_tau < math.inf)
    if not ok.all():
        raise ValueError("Omega*tau must be non-negative and finite, got "
                         f"{om_tau[~ok].flat[0]!r}")
    return om_tau


def kappa_grid(params: ModelParams, tau) -> np.ndarray:
    """Charging propagator kappa = -i*w, c2 of the empty battery, on an
    array of physical times; its real part is exactly +0."""
    return _apply(_transfer(*_ratios(params)),
                  _weights(empty_battery_state())[1:],
                  _om_tau(params, tau))[0]


def _check_tmax(tmax: float) -> None:
    """The one horizon rule of trajectories and of the metrics searches."""
    if not 0 < tmax < math.inf:
        raise ValueError("tmax must be positive and finite")


def amplitude_grid(params: ModelParams, init: InitialState,
                   tau) -> tuple[np.ndarray, np.ndarray]:
    """(c1, c2) amplitudes on an array of physical times."""
    return tuple(_apply(_transfer(*_ratios(params)), _weights(init),
                        _om_tau(params, tau)))


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
