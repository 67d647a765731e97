"""Godbillon-Vey integrals of foliations of the periodic grid torus.

A codim-1 foliation is described by a nonvanishing 1-form omega, given by its
three component functions f(x, y, z); integrability means omega ^ d(omega) = 0,
the defining 1-form theta solves d(omega) = theta ^ omega, and the GV integral
is the integral of theta ^ d(theta) over the torus.  Forms live at the vertices
of an n^3 periodic grid; the exterior derivative uses centered differences (so
d o d = 0 exactly, shifts commute) and the wedge is the pointwise antisymmetric
product.  `gv_term` computes the whole chain in one pass over x-slabs of the
grid (`_gv_blocks`), which reads omega from a small ring of sampled chunks
(`_Omega`), so no array spans the grid, omega included.  The pass works in grid
units: each d is the undivided difference f[i+1] - f[i-1], 2h times the
derivative, and the sums are rescaled once after the pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, isfinite, ldexp, sqrt
from typing import NamedTuple

import numpy as np


class SingularityError(ValueError):
    """The 1-form vanishes (or nearly vanishes) somewhere; leaves degenerate."""


class TautnessError(RuntimeError):
    """A foliation in the list failed the transversal-circle test (strict mode)."""


def grid_coords(n: int):
    """Vertex coordinates of the unit torus grid as three broadcastable arrays
    of shapes (n,1,1), (1,n,1) and (1,1,n)."""
    xs = np.arange(n) / n
    return np.meshgrid(xs, xs, xs, indexing="ij", sparse=True)


# Bytes of one component of one x-slab of the GV pass.  A slab's working set
# is 27-30 such blocks (omega; d(omega) and |omega|^2 of two slabs, theta of
# two or three; six differences, which also take omega ^ d(omega) and
# theta ^ d(theta); a scratch block and the three that the sums square into),
# so at 64 KiB it fits a 2 MB L2 cache: grids 128 and 192 run one row at a
# time, grid 32 in four 8-row slabs (faster than two of 16 rows on 2 cores).
_SLAB_BYTES = 1 << 16


# Bytes of one component of one chunk of sampled omega.  Sampling runs the
# expressions once per chunk, so its chunks are larger than the GV pass's
# slabs: at grid 128, 8-row chunks (1 MiB) sampled faster than the whole grid
# at once and than 1-row chunks.
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


def _slabs(n):
    """The x-slabs of the GV pass, `_slab_rows(n)` rows each, as slices; the
    last may be shorter."""
    rows = _slab_rows(n)
    return [slice(a, min(a + rows, n)) for a in range(0, n, rows)]


class _Omega:
    """A 1-form's grid rows as the GV pass reads them, sampled from its three
    component functions.

    The functions receive the broadcastable coordinates of `grid_coords`, cut
    to the rows wanted, so a factor that depends on x alone is evaluated on
    those rows only; each result, which may be a read-only view, is broadcast
    to its rows as it is stored, the one copy made of it.  Rows are sampled a
    chunk at a time, about `_SAMPLE_BYTES` per component and a whole number of
    GV slabs high, into a ring of two chunk slots (three when a chunk is one
    slab).  Where that many chunks cover the grid, the slots are the chunks'
    rows of one whole omega instead, all sampled at once, before the pass
    allocates its buffers.  Each row is sampled into the ring once; where the
    ring holds less than the grid, the wrap rows n-2 and n-1 that the pass
    reads before its first slab, and 0 and 1 after its last, are sampled once
    more into a two-row buffer.  omega at the `vertices` ((m, 3) indices) is
    copied to `at_vertices` as their rows are sampled.  Overflow, division by
    zero and invalid operations give inf/nan silently; `gv_term` rejects them.
    """

    def __init__(self, fns, n, vertices):
        self.fns, self.n, self.coords = fns, n, grid_coords(n)
        rows = _slab_rows(n)
        self.height = min(n, rows * max(1, _slab_rows(n, _SAMPLE_BYTES) // rows))
        slots, self.edge_rows, self.edge_at = 2 + (self.height == rows), None, None
        if -(-n // self.height) <= slots:
            whole = np.empty((3, n, n, n))
            self.slots = [whole[:, a : a + self.height] for a in range(0, n, self.height)]
        else:
            self.slots = list(np.empty((slots, 3, self.height, n, n)))
            self.edge_rows = np.empty((3, 2, n, n))
        self.held = [None] * len(self.slots)
        self.vertices, self.at_vertices = vertices, np.empty((3, len(vertices)))
        if self.edge_rows is None:
            for a in range(0, n, self.height):
                self.block(a, 1)

    def sample(self, rows, out):
        """omega on the grid rows `rows` (a slice or an index array), into
        `out` of shape (3, k, n, n)."""
        x, y, z = self.coords
        with np.errstate(all="ignore"):
            for comp, f in zip(out, self.fns):
                comp[...] = f(x[rows], y, z)
        return out

    def block(self, lo, k):
        """Grid rows lo..lo+k-1, inside one chunk, as a (3, k, n, n) view of
        the ring, sampling their chunk into its slot if it is not there."""
        c = lo // self.height
        slot, a = c % len(self.slots), c * self.height
        if self.held[slot] != c:
            b = min(a + self.height, self.n)
            chunk = self.sample(slice(a, b), self.slots[slot][:, : b - a])
            mine = (self.vertices[:, 0] >= a) & (self.vertices[:, 0] < b)
            i, j, l = self.vertices[mine].T
            self.at_vertices[:, mine] = chunk[:, i - a, j, l]
            self.held[slot] = c
        return self.slots[slot][:, lo - a : lo - a + k]

    def edge(self, lo):
        """Grid rows lo and lo + 1 mod n, for lo = n - 2 or 0, as two
        (3, 1, n, n) views; they come from the ring only if it holds the
        grid, so reading them evicts no chunk."""
        if self.edge_rows is None:
            return [self.block(r % self.n, 1) for r in (lo, lo + 1)]
        if self.edge_at != lo:
            self.edge_at = lo
            self.sample(np.array([lo, lo + 1]) % self.n, self.edge_rows)
        return [self.edge_rows[:, :1], self.edge_rows[:, 1:]]

    def row(self, r):
        """Grid row r as a (3, 1, n, n) view, for 0 <= r <= n: row n is row 0
        as the last slab reads it."""
        return self.edge(0)[0] if r == self.n else self.block(r, 1)


def _norm_sq(w, out, tmp):
    """(w0^2 + w1^2) + w2^2 of a block of 1-form rows, written into `out` with
    `tmp` as scratch; overflow gives inf."""
    with np.errstate(over="ignore"):
        np.square(w[0], out=out)
        out += np.square(w[1], out=tmp)
        out += np.square(w[2], out=tmp)
    return out


def _raise_at(omega, rows, bound=None):
    """Raise SingularityError at the first cell of the x-slab `rows` where
    |omega| is not finite, or at most `bound` if one is given; the slab is
    sampled again to find it."""
    k, n = rows.stop - rows.start, omega.n
    v = omega.sample(rows, np.empty((3, k, n, n)))
    mag = np.sqrt(_norm_sq(v, np.empty((k, n, n)), np.empty((k, n, n))))
    bad, what = ((~np.isfinite(mag), "1-form is not finite (or overflows)") if bound is None
                 else (mag <= bound, "1-form (nearly) vanishes"))
    i, j, l = (int(c) for c in np.argwhere(bad)[0])
    raise SingularityError(f"{what} at grid cell {(rows.start + i, j, l)}")


class _Slab(NamedTuple):
    """One x-slab of the GV chain in grid units, as views into buffers that the
    next slab overwrites: d(omega), theta and omega ^ d(omega) are 2h times
    their values, d(theta) (2h)^2 and theta ^ d(theta) (2h)^3 times."""

    dw: np.ndarray  # d(omega)
    frob: np.ndarray  # omega ^ d(omega)
    norm_sq: np.ndarray  # |omega|^2
    theta: np.ndarray
    dtheta: np.ndarray
    gv: np.ndarray  # theta ^ d(theta)


def _d_slab(v, before, after, diffs, out):
    """2h times d of a 1-form on a slab of x-rows `v` (3, k, n, n), given the
    rows just `before` and `after` it, written into `out` (which may be
    diffs[:3]).
    `diffs` (6, k, n, n) takes the centered differences x of (v1, v2), y of
    (v2, v0) and z of (v0, v1): the y and z interiors are one subtract each over
    the flattened slab, whose wrap columns are then overwritten.  Each value is
    computed as the whole-grid derivative does at 2h = 1."""
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
    return np.subtract(diffs[:3], diffs[3:], out=out)


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


def _gv_blocks(omega: _Omega):
    """The GV chain of a 1-form in one pass over x-slabs, yielding a `_Slab` per
    slab in order.

    d(theta) on a slab reads theta one row past either side: the last row of
    the slab before and the first row of the slab after.  So each slab's
    d(omega) and |omega|^2, and theta on its first row, are computed one slab
    ahead, into buffers that rotate over two slabs (three for theta when slabs
    are one row).  A one-row prologue puts theta on the last grid row where the
    first slab reads it, and the last slab computes grid row 0 again as the row
    after it.  omega's rows are views of the ring of `omega`, no row is copied,
    no array spans the grid, and every field value is bit-identical to the
    whole-grid computation at 2h = 1.
    """
    n = omega.n
    slabs, rows, plane = _slabs(n), _slab_rows(n), (n, n)
    dw_buf, nsq_buf = np.empty((2, 3, rows) + plane), np.empty((2, rows) + plane)
    tmp = np.empty((rows,) + plane)
    diffs = np.empty((6, rows) + plane)  # scratch of each d, then d(theta) and two products
    slots = 2 + (rows == 1)  # a one-row slab reads theta from both other slabs
    theta_buf = np.empty((slots, 3, rows) + plane)

    def ahead(i, v, before, after, at=0):
        """d(omega) and |omega|^2 on the grid rows `v`, whose neighbour rows are
        `before` and `after`, into rows at.. of slab i's buffers, and theta on
        the first of them."""
        k = v.shape[1]
        dw = _d_slab(v, before[:, 0], after[:, 0], diffs[:, :k], dw_buf[i % 2, :, at : at + k])
        nsq = _norm_sq(v, nsq_buf[i % 2, at : at + k], tmp[:k])
        _theta(v[:, :1], dw[:, :1], nsq[:1], theta_buf[i % slots, :, at : at + 1], tmp[:1])

    before, last = omega.edge(n - 2)
    ahead(-1, last, before, omega.block(0, 1), rows - 1)
    ahead(0, omega.block(0, slabs[0].stop), last, omega.row(slabs[0].stop))
    for i, s in enumerate(slabs):
        if s.stop < n:
            k = min(rows, n - s.stop)
            ahead(i + 1, omega.block(s.stop, k), omega.block(s.stop - 1, 1), omega.row(s.stop + k))
        else:
            first, second = omega.edge(0)
            ahead(i + 1, first, omega.block(n - 1, 1), second)
        k = s.stop - s.start
        w_core, dw, nsq = omega.block(s.start, k), dw_buf[i % 2, :, :k], nsq_buf[i % 2, :k]
        th = theta_buf[i % slots, :, :k]
        if k > 1:
            _theta(w_core[:, 1:], dw[:, 1:], nsq[1:], th[:, 1:], tmp[: k - 1])
        before, after = theta_buf[(i - 1) % slots, :, -1], theta_buf[(i + 1) % slots, :, 0]
        dth = _d_slab(th, before, after, diffs[:, :k], diffs[:3, :k])
        frob = _wedge12(w_core, dw, diffs[3, :k], tmp[:k])
        gv = _wedge12(th, dth, diffs[4, :k], tmp[:k])
        yield _Slab(dw, frob, nsq, th, dth, gv)


def _sum_sq(a, buf):
    """Sum of squares of a field block, squared into the front of the flat
    pass buffer `buf`, whose contiguous block sums as np.square(a) would.  Not
    np.vdot: a multithreaded BLAS would spend a second core's time on every
    slab."""
    return float(np.sum(np.square(a, out=buf[: a.size].reshape(a.shape))))


@dataclass(frozen=True)
class FoliationSpec:
    omega: tuple  # the three component functions f(x, y, z) of the 1-form
    grid: int
    transversal: tuple | None = None  # ordered closed path of grid vertices
    label: str = ""


def _loop_edges(transversal, n):
    """The vertices of a transversal loop on the n^3 grid as an (m, 3) array,
    with the axis and sign of the edge from each vertex to the next; raises
    ValueError unless each step is a single lattice edge."""
    path = [tuple(int(c) for c in p) for p in transversal]
    if len(path) < 2:
        raise ValueError("transversal path needs at least two vertices")
    outside = [p for p in path if len(p) != 3 or not all(0 <= c < n for c in p)]
    if outside:
        raise ValueError(f"transversal vertex {outside[0]} is not a vertex of the {n}^3 grid")
    axes, signs = [], []
    for p, q in zip(path, path[1:] + path[:1]):
        delta = [(q[i] - p[i]) % n for i in range(3)]
        delta = [dd - n if dd > n // 2 else dd for dd in delta]
        nz = [i for i in range(3) if delta[i] != 0]
        if len(nz) != 1 or abs(delta[nz[0]]) != 1:
            raise ValueError(f"path step {p} -> {q} is not a single lattice edge")
        axes.append(nz[0])
        signs.append(delta[nz[0]])
    return np.array(path), np.array(axes), np.array(signs)


def tautness_check(pairings, mean: float) -> bool:
    """Transversal-circle test: the pairings of omega with the edges of the
    loop must keep a constant sign and stay above TAUTNESS_TOLERANCE times
    omega's mean length."""
    if np.min(np.abs(pairings)) <= TAUTNESS_TOLERANCE * max(mean, 1e-300):
        return False
    return bool(np.all(pairings > 0) or np.all(pairings < 0))


@dataclass(frozen=True)
class GvReport:
    total: float
    per_foliation: tuple  # (label, gv value or None, taut flag)
    warnings: tuple
    integrability_residuals: tuple  # one per foliation, excluded ones included


def gv_term(spec: FoliationSpec, k: int = 0, strict: bool = False):
    """One foliation's (label, gv, taut) row, Frobenius defect and warning (or
    None), as `gv_report` sums them.

    The transversal is checked first (ValueError).  Then one slab pass
    (`_gv_blocks`) samples omega and gives the mean and least of |omega|, its
    pairings with the loop's edges, the defect |omega ^ d omega| / (|omega|
    |d omega| + eps) and the GV integral of theta ^ d theta (L2 norms are grid
    RMS values).  The pass sums in grid units, and each sum is rescaled by the
    power of n/2 that undoes them.  The sum of |omega ^ d omega|^2 grows as
    |omega|^4, so it is taken at the scale 2^-2e, e the binary exponent of the
    first slab's largest |omega|, and the defect's denominator is taken at the
    same scale before its eps is added: a power of two, so omega and 2^k omega
    give the same defect bit for bit, and a small omega meets the same
    tolerance as a large one.  After the pass come, in order:
    SingularityError where |omega| is not finite or at most NONVANISHING_FLOOR
    times its mean; the tautness test (None without a loop), a failure of
    which raises TautnessError if `strict` and otherwise excludes the row;
    SingularityError if a sum that the row reports overflows; and, for a row
    that is not excluded, ValueError if the defect exceeds
    INTEGRABILITY_TOLERANCE.  No array spans the grid."""
    label, n = spec.label or f"foliation[{k}]", spec.grid
    if len(spec.omega) != 3:
        raise ValueError("a foliation needs 3 component functions")
    loop = None if spec.transversal is None else _loop_edges(spec.transversal, n)
    omega = _Omega(spec.omega, n, np.empty((0, 3), int) if loop is None else loop[0])
    buf = np.empty(3 * _slab_rows(n) * n * n)  # the squares and lengths of each slab
    frob = dw = w = gv = total = 0.0
    least, scale = [], None
    with np.errstate(all="ignore"):
        for s, slab in zip(_slabs(n), _gv_blocks(omega)):
            size, shape = slab.norm_sq.size, slab.norm_sq.shape
            mag = np.sqrt(slab.norm_sq, out=buf[:size].reshape(shape))
            part = float(np.sum(mag))
            if not isfinite(part):  # each finite length is below 1.4e154, so their sum is finite
                _raise_at(omega, s)
            total += part
            least.append(float(np.min(mag)))
            if scale is None:  # 2^-2e, kept finite below |omega| ~ 2^-511
                scale = ldexp(1.0, min(-2 * frexp(float(np.max(mag)))[1], 1022))
            block = buf[size : 2 * size].reshape(shape)
            frob += _sum_sq(np.multiply(slab.frob, scale, out=block), buf)
            dw += _sum_sq(slab.dw, buf)
            w += float(np.sum(slab.norm_sq))
            gv += float(np.sum(slab.gv))
        q = n / 2  # 1 / 2h: exact on power-of-two grids
        frob, dw, gv = frob * q * q, dw * q * q, gv * q**3
        mean = total / n**3
        bound = NONVANISHING_FLOOR * max(mean, 1e-300)
        if min(least) <= bound:
            _raise_at(omega, next(s for s, m in zip(_slabs(n), least) if m <= bound), bound)
    taut = None
    if loop is not None:
        _, axes, signs = loop
        at, j = omega.at_vertices, np.arange(len(axes))
        taut = tautness_check(signs * 0.5 * (at[axes, j] + at[axes, (j + 1) % len(j)]), mean)
    failed = f"{label}: failed the transversal-circle tautness test"
    if taut is False and strict:
        raise TautnessError(failed)
    if not all(map(isfinite, (frob, dw, w) + (() if taut is False else (gv,)))):
        raise SingularityError(f"{label}: a GV sum over the grid is not finite")
    cells = n**3
    defect = sqrt(frob / cells) / (sqrt(w / cells) * sqrt(dw / cells) * scale + 1e-30)
    if taut is False:
        return (label, None, taut), defect, failed + "; excluded from the sum"
    if defect > INTEGRABILITY_TOLERANCE:
        raise ValueError("form is not integrable within tolerance; no theta exists")
    warning = None if taut else f"{label}: no transversal supplied, tautness inconclusive"
    return (label, gv * (1.0 / n) ** 3, taut), defect, warning


def gv_report(terms) -> GvReport:
    """Sum the `gv_term` results of a list of foliations, in order."""
    rows, defects, warnings = zip(*terms) if terms else ((), (), ())
    total = sum(val for _label, val, _taut in rows if val is not None)
    return GvReport(float(total), rows, tuple(w for w in warnings if w), defects)
