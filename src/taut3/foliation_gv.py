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
# is about thirty such blocks (omega; d(omega), |omega|^2 and theta of two or
# three slabs; the differences, d(theta) and products), so at 64 KiB it fits a
# 2 MB L2 cache: grids 128 and 192 run one row at a time, grid 32 in four 8-row
# slabs (faster than two of 16 rows on 2 cores).
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
    temporary spans the grid; each result, which may be a read-only view, is
    broadcast to its slab as it is stored, the one copy made of it.  Overflow,
    division by zero and invalid operations give inf/nan silently;
    FoliationSpec rejects them.
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


def _d_slab(v, before, after, h, diffs, out):
    """d of a 1-form on a slab of x-rows `v` (3, k, n, n), given the rows just
    `before` and `after` it, written into `out` (which may be diffs[:3]).
    `diffs` (6, k, n, n) takes the centered differences x of (v1, v2), y of
    (v2, v0) and z of (v0, v1): the y and z interiors are one subtract each over
    the flattened slab, whose wrap columns are then overwritten.  Each value is
    computed as the whole-grid derivative does."""
    k, n = v.shape[1], v.shape[-1]
    np.subtract(v[1:, 2:], v[1:, :-2], out=diffs[:2, 1:-1])
    for r in {0, k - 1}:  # the edge rows read the rows before and after the slab
        ahead = v[1:, r + 1] if r + 1 < k else after[1:]
        behind = v[1:, r - 1] if r else before[1:]
        np.subtract(ahead, behind, out=diffs[:2, r])
    for step, f, dif in ((n, v[::-2], diffs[2:4]), (1, v[:2], diffs[4:])):
        flat, out_flat = f.reshape(2, -1), dif.reshape(2, -1)
        np.subtract(flat[:, 2 * step :], flat[:, : -2 * step], out=out_flat[:, step:-step])
        if step > 1:
            f, dif = f.swapaxes(-1, -2), dif.swapaxes(-1, -2)
        for i, ahead, behind in ((0, 1 % n, n - 1), (n - 1, 0, (n - 2) % n)):  # the wrap
            np.subtract(f[..., ahead], f[..., behind], out=dif[..., i])
    diffs /= 2.0 * h
    return np.subtract(diffs[:3], diffs[3:], out=out)


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

    d(theta) on a slab reads theta one row past either side: the last row of
    the slab before and the first row of the slab after.  So each slab's
    d(omega) and |omega|^2, and theta on its first row, are computed one slab
    ahead, into buffers that rotate over two slabs (three for theta when slabs
    are one row).  A one-row prologue puts theta on the last grid row where the
    first slab reads it, and the last slab computes grid row 0 again as the row
    after it.  omega is read in place, no row is copied, no array spans the
    grid, and every field value is bit-identical to the whole-grid computation.
    """
    w, h, n = omega.values, omega.spacing, omega.grid_size
    slabs, rows, plane = _slabs(n), _slab_rows(n), (n, n)
    dw_buf, nsq_buf = np.empty((2, 3, rows) + plane), np.empty((2, rows) + plane)
    tmp, frob_buf, gv_buf = np.empty((3, rows) + plane)
    diffs = np.empty((6, rows) + plane)  # scratch of each d, then d(theta) and the miss
    slots = 2 + (rows == 1)  # a one-row slab reads theta from both other slabs
    theta_buf = np.empty((slots, 3, rows) + plane) if theta else None

    def ahead(i, lo, k, at=0):
        """d(omega) and |omega|^2 on grid rows lo..lo+k-1 into rows at.. of slab
        i's buffers, and theta on the first of them."""
        v, out = w[:, lo : lo + k], slice(at, at + k)
        dw = _d_slab(v, w[:, lo - 1], w[:, (lo + k) % n], h, diffs[:, :k], dw_buf[i % 2, :, out])
        nsq = _norm_sq(v, nsq_buf[i % 2, out], tmp[:k])
        if theta:
            th = theta_buf[i % slots, :, at : at + 1]
            _theta(v[:, :1], dw[:, :1], nsq[:1], th, tmp[:1])

    if theta:
        ahead(-1, n - 1, 1, rows - 1)
    ahead(0, 0, slabs[0].stop)
    for i, s in enumerate(slabs):
        if s.stop < n:
            ahead(i + 1, s.stop, min(rows, n - s.stop))
        elif theta:
            ahead(i + 1, 0, 1)
        k, w_core = s.stop - s.start, w[:, s]
        dw, nsq = dw_buf[i % 2, :, :k], nsq_buf[i % 2, :k]
        frob = _wedge12(w_core, dw, frob_buf[:k], tmp[:k])
        if not theta:
            yield _Slab(dw, frob, nsq, None, None, None, None)
            continue
        th = theta_buf[i % slots, :, :k]
        if k > 1:
            _theta(w_core[:, 1:], dw[:, 1:], nsq[1:], th[:, 1:], tmp[: k - 1])
        before, after = theta_buf[(i - 1) % slots, :, -1], theta_buf[(i + 1) % slots, :, 0]
        dth = _d_slab(th, before, after, h, diffs[:, :k], diffs[:3, :k])
        miss = _wedge11(th, w_core, diffs[3:, :k], tmp[:k])
        np.subtract(dw, miss, out=miss)
        gv = _wedge12(th, dth, gv_buf[:k], tmp[:k])
        yield _Slab(dw, frob, nsq, th, miss, dth, gv)


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
