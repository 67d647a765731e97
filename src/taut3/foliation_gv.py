"""Differential forms on the periodic grid torus and Godbillon-Vey integrals.

Forms are stored componentwise at grid vertices; the exterior derivative uses
centered differences (so d o d = 0 exactly, shifts commute) and the wedge is
the pointwise antisymmetric product.  A codim-1 foliation is described by a
nonvanishing 1-form omega; integrability means omega ^ d(omega) = 0, the
defining 1-form theta solves d(omega) = theta ^ omega, and the GV integral is
the integral of theta ^ d(theta) over the torus.  `gv_term` computes the whole
chain in one pass over x-slabs of the grid (`_gv_blocks`); besides omega, no
array spans the grid, as each reader of |omega|^2 squares omega slab by slab.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isfinite, sqrt
from typing import NamedTuple

import numpy as np

_PAIRS = ((0, 1), (0, 2), (1, 2))


class SingularityError(ValueError):
    """The 1-form vanishes (or nearly vanishes) somewhere; leaves degenerate."""


class TautnessError(RuntimeError):
    """A foliation in the list failed the transversal-circle test (strict mode)."""


@dataclass(frozen=True)
class DiscreteForm:
    """Degree-k form sampled on an n^3 periodic grid over the unit torus.

    values: (n,n,n) for k in {0,3}; (3,n,n,n) for k in {1,2} with 2-form
    components ordered (01, 02, 12).
    """

    degree: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if self.degree in (0, 3):
            if v.ndim != 3 or len(set(v.shape)) != 1:
                raise ValueError("scalar-type form needs shape (n, n, n)")
        elif self.degree in (1, 2):
            if v.ndim != 4 or v.shape[0] != 3 or len(set(v.shape[1:])) != 1:
                raise ValueError("vector-type form needs shape (3, n, n, n)")
        else:
            raise ValueError("degree must be 0..3")
        object.__setattr__(self, "values", v)

    @property
    def grid_size(self) -> int:
        return self.values.shape[-1]

    @property
    def spacing(self) -> float:
        return 1.0 / self.grid_size

    @cached_property
    def _mean_norm(self) -> float:
        """Mean length over the grid, once the form has passed the
        nonvanishing check."""
        return _check_nonvanishing(self)


def grid_coords(n: int):
    """Vertex coordinates of the unit torus grid as three broadcastable arrays
    of shapes (n,1,1), (1,n,1) and (1,1,n)."""
    xs = np.arange(n) / n
    return np.meshgrid(xs, xs, xs, indexing="ij", sparse=True)


# Bytes of one component of one x-slab of the GV pass.  A slab's working set
# is about twenty such blocks (omega, d(omega), theta, d(theta), products), so
# at 64 KiB it fits a 2 MB L2 cache: grids 128 and 192 run one row at a time,
# grid 32 in four 8-row slabs (faster than two of 16 rows on 2 cores).
_SLAB_BYTES = 1 << 16


# Bytes of one component of one x-slab when sampling omega.  Sampling runs
# the expressions once per slab, so its slabs are larger than the GV pass's:
# at grid 128, 8-row slabs (1 MiB) sampled faster than the whole grid at once
# and than 1-row slabs.
_SAMPLE_BYTES = 1 << 20

# |omega| must exceed NONVANISHING_FLOOR times its grid mean at every vertex,
# and its pairing with each edge of a transversal loop TAUTNESS_TOLERANCE times
# that mean; a form whose Frobenius defect exceeds INTEGRABILITY_TOLERANCE is
# not integrable.
NONVANISHING_FLOOR = 1e-6
TAUTNESS_TOLERANCE = 1e-8
INTEGRABILITY_TOLERANCE = 1e-6


def _slab_rows(n, nbytes=None):
    """Grid rows per x-slab at grid size n, for `nbytes` per component
    (default `_SLAB_BYTES`)."""
    return max(1, min(n, (nbytes or _SLAB_BYTES) // (8 * n * n)))


def _slabs(n, nbytes=None):
    """The x-slabs of `_slab_rows(n, nbytes)` rows, as slices; the last may be
    shorter."""
    rows = _slab_rows(n, nbytes)
    return [slice(a, min(a + rows, n)) for a in range(0, n, rows)]


def form_from_functions(degree: int, n: int, *fns) -> DiscreteForm:
    """Sample component functions f(x, y, z) on the grid.

    The functions receive the broadcastable coordinates of `grid_coords`, cut
    to x-slabs of `_SAMPLE_BYTES` per component, so a factor that depends on x
    alone is evaluated on a slab's rows, not on the whole grid, and no
    temporary spans the grid; each result is broadcast to its slab as it is
    stored.  Overflow, division by zero and invalid operations give inf/nan
    silently; FoliationSpec rejects them.
    """
    if degree not in (0, 1, 2, 3):
        raise ValueError("degree must be 0..3")
    scalar = degree in (0, 3)
    if len(fns) != (1 if scalar else 3):
        raise ValueError(f"a degree-{degree} form needs {1 if scalar else 3} component functions")
    x, y, z = grid_coords(n)
    values = np.empty((n, n, n) if scalar else (3, n, n, n))
    with np.errstate(all="ignore"):
        for comp, f in zip(values[None] if scalar else values, fns):
            for rows in _slabs(n, _SAMPLE_BYTES):
                comp[rows] = f(x[rows], y, z)
    return DiscreteForm(degree, values)


def _ddi(f, axis, h, out):
    """Centered difference (f[i+1] - f[i-1]) / 2h along a periodic grid axis,
    written into `out`."""
    n = f.shape[axis]

    def cut(start, stop):
        idx = [slice(None)] * f.ndim
        idx[axis] = slice(start, stop)
        return tuple(idx)

    np.subtract(f[cut(2, n)], f[cut(0, n - 2)], out=out[cut(1, n - 1)])
    for i, ahead, behind in ((0, 1 % n, n - 1), (n - 1, 0, (n - 2) % n)):  # the wrap
        np.subtract(f[cut(ahead, ahead + 1)], f[cut(behind, behind + 1)], out=out[cut(i, i + 1)])
    out /= 2.0 * h
    return out


def _norm_sq(w, out, tmp):
    """(w0^2 + w1^2) + w2^2 of a block of 1-form rows, written into `out` with
    `tmp` as scratch; overflow gives inf."""
    with np.errstate(over="ignore"):
        np.square(w[0], out=out)
        out += np.square(w[1], out=tmp)
        out += np.square(w[2], out=tmp)
    return out


def _check_nonvanishing(omega: DiscreteForm) -> float:
    """Mean of |omega| over the grid; raises SingularityError where |omega| is
    not finite or at most NONVANISHING_FLOOR times the mean.  Squares omega by
    x-slabs of `_SLAB_BYTES`.  A finite length is non-negative and below
    1.4e154, so a slab's sum is finite exactly when each of its lengths is."""
    w, n = omega.values, omega.grid_size
    buf, tmp = np.empty((2, _slab_rows(n), n, n))

    def lengths():
        for rows in _slabs(n):
            k = rows.stop - rows.start
            yield rows, np.sqrt(_norm_sq(w[:, rows], buf[:k], tmp[:k]), out=buf[:k])

    total, least = 0.0, np.inf
    for rows, mag in lengths():
        part = float(np.sum(mag))
        if not np.isfinite(part):
            _raise_at(~np.isfinite(mag), rows, "1-form is not finite (or overflows)")
        total += part
        least = min(least, float(np.min(mag)))
    mean = total / n**3
    bound = NONVANISHING_FLOOR * max(mean, 1e-300)
    if least <= bound:
        for rows, mag in lengths():
            bad = mag <= bound
            if np.any(bad):
                _raise_at(bad, rows, "1-form (nearly) vanishes")
    return mean


def _raise_at(bad, rows, what):
    """Raise SingularityError at the first flagged cell of an x-slab."""
    i, j, k = (int(c) for c in np.argwhere(bad)[0])
    raise SingularityError(f"{what} at grid cell {(rows.start + i, j, k)}")


class _Slab(NamedTuple):
    """One x-slab of the GV chain, as views into buffers that the next slab
    overwrites.  Fields past `norm_sq` are None when theta is not wanted."""

    dw: np.ndarray  # d(omega)
    frob: np.ndarray  # omega ^ d(omega)
    norm_sq: np.ndarray  # |omega|^2
    theta: np.ndarray | None
    miss: np.ndarray | None  # d(omega) - theta ^ omega
    dtheta: np.ndarray | None
    gv: np.ndarray | None  # theta ^ d(theta)


def _rows(f, lo, hi):
    """Rows lo..hi-1 along the x axis (axis -3) of a periodic grid array: a view
    where they do not wrap, else a copy."""
    n = f.shape[-3]
    if 0 <= lo and hi <= n:
        return f[..., lo:hi, :, :]
    return f.take(np.arange(lo, hi) % n, axis=-3)


def _d1(v, h, out, tmp):
    """d of a 1-form given on rows r-1..r+k along axis 1 of `v`, written into
    `out` on rows r..r+k-1: the x differences read the halo rows, y and z wrap
    as in `_ddi`.  Each value is computed as the whole-grid derivative does."""
    for comp, (i, j) in zip(out, _PAIRS):
        if i == 0:
            np.subtract(v[j, 2:], v[j, :-2], out=comp)
            comp /= 2.0 * h
        else:
            _ddi(v[j, 1:-1], i, h, comp)
        comp -= _ddi(v[i, 1:-1], j, h, tmp)
    return out


def _wedge11(u, v, out, tmp):
    """Pointwise u ^ v of two 1-forms, components (01, 02, 12)."""
    for comp, (i, j) in zip(out, _PAIRS):
        np.multiply(u[i], v[j], out=comp)
        comp -= np.multiply(u[j], v[i], out=tmp)
    return out


def _wedge12(u, v, out, tmp):
    """Pointwise u ^ v of a 1-form and a 2-form."""
    np.multiply(u[0], v[2], out=out)
    out -= np.multiply(u[1], v[1], out=tmp)
    out += np.multiply(u[2], v[0], out=tmp)
    return out


def _theta(w, v, norm_sq, out, tmp):
    """Pointwise minimal-norm solution of v = theta ^ w: identifying 2-forms with
    axial vectors, g = theta x w is solved by (w x g) / |w|^2 with g = (v2, -v1,
    v0); the products and signs are those of np.cross(w, g)."""
    t0, t1, t2 = out
    np.multiply(w[1], v[0], out=t0)
    t0 += np.multiply(w[2], v[1], out=tmp)
    np.multiply(w[2], v[2], out=t1)
    t1 -= np.multiply(w[0], v[0], out=tmp)
    np.negative(np.multiply(w[0], v[1], out=t2), out=t2)
    t2 -= np.multiply(w[1], v[2], out=tmp)
    out /= norm_sq
    return out


def _gv_blocks(omega: DiscreteForm, theta: bool = True):
    """The GV chain of a 1-form in one pass over x-slabs, yielding a `_Slab` per
    slab in order.

    d(theta) on a slab reads theta one row past either side, and theta there
    reads d(omega), which reads omega one row further: omega is read with a
    two-row periodic halo along x.  The first slab computes d(omega), |omega|^2
    and theta on both of its border rows; every later slab carries its two low
    rows of each over from the slab before.  No array spans the grid, and
    every field value is bit-identical to the whole-grid computation.
    """
    w, h, n = omega.values, omega.spacing, omega.grid_size
    rows = _slab_rows(n)
    plane = (n, n)
    # buffer row j of dw_buf, nsq_buf and theta_buf holds grid row a-1+j of slab [a, a+k)
    dw_buf, (tmp, nsq_buf) = np.empty((3, rows + 2) + plane), np.empty((2, rows + 2) + plane)
    frob_buf = np.empty((rows,) + plane)
    if theta:
        theta_buf = np.empty((3, rows + 2) + plane)
        miss_buf, dtheta_buf = np.empty((3, rows) + plane), np.empty((3, rows) + plane)
        gv_buf = np.empty((rows,) + plane)
    for a in range(0, n, rows):
        k = min(rows, n - a)
        new = 2 if a else 0  # buffer rows 0 and 1 carry over past the first slab
        src = _rows(w, a - 2 + new, a + k + 2)
        if new:
            dw_buf[:, :2] = dw_buf[:, rows : rows + 2]
            nsq_buf[:2] = nsq_buf[rows : rows + 2]
        _d1(src, h, dw_buf[:, new : k + 2], tmp[: k + 2 - new])
        nsq = _norm_sq(src[:, 1:-1], nsq_buf[new : k + 2], tmp[: k + 2 - new])
        dw, w_core = dw_buf[:, : k + 2], src[:, 2 - new : 2 - new + k]
        dw_core, nsq_core = dw[:, 1:-1], nsq_buf[1 : k + 1]
        frob = _wedge12(w_core, dw_core, frob_buf[:k], tmp[:k])
        if not theta:
            yield _Slab(dw_core, frob, nsq_core, None, None, None, None)
            continue
        if new:
            theta_buf[:, :2] = theta_buf[:, rows : rows + 2]
        _theta(src[:, 1:-1], dw[:, new:], nsq, theta_buf[:, new : k + 2], tmp[: k + 2 - new])
        th = theta_buf[:, : k + 2]
        th_core = th[:, 1:-1]
        miss = _wedge11(th_core, w_core, miss_buf[:, :k], tmp[:k])
        np.subtract(dw_core, miss, out=miss)
        dth = _d1(th, h, dtheta_buf[:, :k], tmp[:k])
        gv = _wedge12(th_core, dth, gv_buf[:k], tmp[:k])
        yield _Slab(dw_core, frob, nsq_core, th_core, miss, dth, gv)


def _sum_sq(a):
    """Sum of squares of a field block.  Not np.vdot: a multithreaded BLAS would
    spend a second core's time on every slab."""
    return float(np.sum(np.square(a)))


@dataclass(frozen=True)
class FoliationSpec:
    omega: DiscreteForm
    transversal: tuple | None = None  # ordered closed path of grid vertices
    label: str = ""

    def __post_init__(self):
        if self.omega.degree != 1:
            raise ValueError("foliation needs a 1-form")
        self.omega._mean_norm  # the nonvanishing check


def tautness_check(spec: FoliationSpec):
    """Transversal-circle test: the pairing of omega with each edge of the loop
    must keep a constant sign and stay away from zero.

    Returns True/False, or None when no transversal loop is supplied
    (inconclusive, deliberately distinct from False).
    """
    if spec.transversal is None:
        return None
    path = [tuple(int(c) for c in p) for p in spec.transversal]
    if len(path) < 2:
        raise ValueError("transversal path needs at least two vertices")
    n = spec.omega.grid_size
    outside = [p for p in path if len(p) != 3 or not all(0 <= c < n for c in p)]
    if outside:
        raise ValueError(f"transversal vertex {outside[0]} is not a vertex of the {n}^3 grid")
    w = spec.omega.values
    pairings = []
    for p, q in zip(path, path[1:] + path[:1]):
        delta = [(q[i] - p[i]) % n for i in range(3)]
        delta = [dd - n if dd > n // 2 else dd for dd in delta]
        nz = [i for i in range(3) if delta[i] != 0]
        if len(nz) != 1 or abs(delta[nz[0]]) != 1:
            raise ValueError(f"path step {p} -> {q} is not a single lattice edge")
        i, sgn = nz[0], delta[nz[0]]
        pairings.append(sgn * 0.5 * (w[i][p] + w[i][q]))
    pairings = np.asarray(pairings)
    if np.min(np.abs(pairings)) <= TAUTNESS_TOLERANCE * max(spec.omega._mean_norm, 1e-300):
        return False
    return bool(np.all(pairings > 0) or np.all(pairings < 0))


@dataclass(frozen=True)
class GvReport:
    total: float
    per_foliation: tuple  # (label, gv value or None, taut flag, theta residual)
    warnings: tuple
    integrability_residuals: tuple  # one per foliation, excluded ones included


def gv_term(spec: FoliationSpec, k: int = 0, strict: bool = False):
    """One foliation's (label, gv, taut, theta residual) row, Frobenius defect
    and warning (or None), as `gv_report` sums them.

    The tautness test runs first; then one slab pass (`_gv_blocks`) gives the
    defect |omega ^ d omega| / (|omega| |d omega| + eps) and, for a row that is
    not excluded, the theta residual |d omega - theta ^ omega| / |d omega| (0 if
    d omega = 0) and the GV integral of theta ^ d theta (L2 norms are grid RMS
    values); such a row raises ValueError if its defect exceeds
    INTEGRABILITY_TOLERANCE.  A sum that
    overflows raises SingularityError.  The pass holds no array the size of the
    grid, so a caller that samples each foliation just before this call holds
    one foliation's omega at a time."""
    label = spec.label or f"foliation[{k}]"
    taut = tautness_check(spec)
    failed = f"{label}: failed the transversal-circle tautness test"
    if taut is False and strict:
        raise TautnessError(failed)
    omega = spec.omega
    frob = dw = w = miss = gv = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for s in _gv_blocks(omega, theta=taut is not False):
            frob += _sum_sq(s.frob)
            dw += _sum_sq(s.dw)
            w += float(np.sum(s.norm_sq))
            if s.theta is not None:
                miss += _sum_sq(s.miss)
                gv += float(np.sum(s.gv))
    if not all(map(isfinite, (frob, dw, w, miss, gv))):
        raise SingularityError(f"{label}: a GV sum over the grid is not finite")
    cells = omega.grid_size**3
    defect = sqrt(frob / cells) / (sqrt(w / cells) * sqrt(dw / cells) + 1e-30)
    if taut is False:
        return (label, None, taut, None), defect, failed + "; excluded from the sum"
    if defect > INTEGRABILITY_TOLERANCE:
        raise ValueError("form is not integrable within tolerance; no theta exists")
    warning = None if taut else f"{label}: no transversal supplied, tautness inconclusive"
    return (label, gv * omega.spacing**3, taut, sqrt(miss / dw) if dw else 0.0), defect, warning


def gv_report(terms) -> GvReport:
    """Sum the `gv_term` results of a list of foliations, in order."""
    rows, defects, warnings = zip(*terms) if terms else ((), (), ())
    total = sum(val for _label, val, _taut, _res in rows if val is not None)
    return GvReport(float(total), rows, tuple(w for w in warnings if w), defects)
