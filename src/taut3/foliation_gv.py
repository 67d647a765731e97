"""Godbillon-Vey integrals of foliations of the periodic grid torus.

A codim-1 foliation is a nonvanishing 1-form omega, given by its component
functions f(x, y, z), with omega ^ d(omega) = 0; theta solves d(omega) =
theta ^ omega, and the GV integral is that of theta ^ d(theta) over the torus.
Forms live at the vertices of an n^3 periodic grid, where d takes centred
differences (d o d = 0 exactly).  These sum by parts, sum a D b = -sum b D a,
so theta ^ d(theta) sums exactly as 2 (theta_x D_y theta_z + theta_y D_z
theta_x + theta_z D_x theta_y).  `gv_term` computes the chain in one pass over
x-slabs of the grid (`_Pass`) in grid units (each d the undivided f[i+1] -
f[i-1], the sums rescaled after it), reading omega from a ring of sampled
chunks (`_Omega`): no array spans the grid.  A component given as None (`cli`
gives one that folds to 0) evaluates no expression: on a form with two
components the ring holds zeros for it (`_zero`), and the pass runs on all
three.  On f dx_k, the only component present, theta = d log|f| solves
d(omega) = theta ^ omega and is closed, so GV is exactly 0 (the class
depends only on the foliation, here that of dx_k; Godbillon-Vey 1971):
`gv_term` runs no pass there, reads f once for the sum and least of |f|
(`_magnitudes`) and reports 0.0, refusing an f that changes sign between
grid samples, since it vanishes or has a pole between them.
"""

from __future__ import annotations

from math import frexp, inf, isfinite, ldexp, sqrt
from typing import NamedTuple

import numpy as np

from .exprs import CompiledExpr


class SingularityError(ValueError):
    """The 1-form vanishes (or nearly vanishes) somewhere; leaves degenerate."""


class TautnessError(RuntimeError):
    """A foliation in the list failed the transversal-circle test (strict mode)."""


def grid_coords(n: int):
    """Vertex coordinates of the unit torus grid as three broadcastable arrays
    of shapes (n,1,1), (1,n,1) and (1,1,n)."""
    xs = np.arange(n) / n
    return np.meshgrid(xs, xs, xs, indexing="ij", sparse=True)


# Bytes of one component of one x-slab of the GV pass: grid 32 runs in four
# 8-row slabs, grids past 64 one row at a time.  A pass makes 19 such blocks on
# two or three components (d(omega) 3, |omega|^2 1, theta 9, work 6).
_SLAB_BYTES = 1 << 16

# Bytes of one component of one chunk of sampled omega, a few slabs since the
# expressions run once per chunk: at grid 128 the bench's exp-g form samples in
# 6.3 ms in 8-row chunks (1 MiB) as in 32-row ones, 7.0 in 4-row, 13 in 1-row.
_SAMPLE_BYTES = 1 << 20

# |omega| must exceed NONVANISHING_FLOOR times its grid mean at every vertex, and
# its pairing with each loop edge TAUTNESS_TOLERANCE times that mean; a form whose
# Frobenius defect exceeds INTEGRABILITY_TOLERANCE is not integrable.
NONVANISHING_FLOOR = 1e-6
TAUTNESS_TOLERANCE = 1e-8
INTEGRABILITY_TOLERANCE = 1e-6


def _slab_rows(n, nbytes=None):
    """Grid rows per x-slab at grid n for `nbytes` per component (`_SLAB_BYTES`)."""
    return max(1, min(n, (nbytes or _SLAB_BYTES) // (8 * n * n)))


def _slabs(n):
    """The x-slabs of the GV pass as slices of `_slab_rows(n)` rows, the last maybe fewer."""
    rows = _slab_rows(n)
    return [slice(a, min(a + rows, n)) for a in range(0, n, rows)]


def _zero(x, y, z):
    """An absent component of a form with two: the ring writes its rows as zeros."""
    return 0.0


class _Omega:
    """A 1-form's grid rows as `gv_term` reads them, a block of rows the
    stack (p, k, n, n) of its components: of f dx_k, f alone (p = 1), which
    `_magnitudes` reads; otherwise all three, an absent one (None) as zeros
    written by `_zero`, which the pass reads.  Their functions receive the
    coordinates of `grid_coords` cut to the rows wanted: a `CompiledExpr`
    writes into the ring in place through its `out`, any other result is
    broadcast into it.  Rows are sampled a chunk at a time, about
    `_SAMPLE_BYTES` per component and a whole number of slabs high, into two
    chunk slots (three when a chunk is one slab), or, where that many chunks
    cover the grid, into one whole omega when the ring is made.  Each row is
    sampled once, and where the ring holds less than the grid and the pass
    reads it, the wrap rows n-2, n-1, 0 and 1 once more into a two-row
    buffer.  Overflow and invalid operations give inf/nan silently;
    `gv_term` rejects them."""

    def __init__(self, fns, n):
        present = [f for f in fns if f is not None]
        wrap = len(present) != 1
        self.fns = [_zero if f is None else f for f in fns] if wrap else present
        self.n, self.coords = n, grid_coords(n)
        p, rows = len(self.fns), _slab_rows(n)
        self.height = min(n, rows * max(1, _slab_rows(n, _SAMPLE_BYTES) // rows))
        slots = 2 + (self.height == rows)
        whole = -(-n // self.height) <= slots
        mem = np.empty(p * n * n * (n if whole else slots * self.height + 2 * wrap))
        self.edge_rows, self.edge_at = None, None
        if whole:
            self.slots = [mem.reshape(p, n, n, n)[:, a : a + self.height]
                          for a in range(0, n, self.height)]
        else:
            cut = slots * p * self.height * n * n
            self.slots = list(mem[:cut].reshape(slots, p, self.height, n, n))
            if wrap:
                self.edge_rows = mem[cut:].reshape(p, 2, n, n)
        self.held = [None] * len(self.slots)
        if whole:
            for a in range(0, n, self.height):
                self.block(a, 1)

    def sample(self, rows, out):
        """omega's components on the grid rows `rows` into `out` (p, k, n, n)."""
        x, y, z = self.coords
        with np.errstate(all="ignore"):
            for comp, f in zip(out, self.fns):
                if isinstance(f, CompiledExpr):
                    f(x[rows], y, z, out=comp)
                else:
                    comp[...] = f(x[rows], y, z)
        return out

    def block(self, lo, k):
        """Grid rows lo..lo+k-1, inside one chunk, as a view (p, k, n, n) of
        the ring, sampling their chunk into its slot if it is not there; row
        n is row 0 as the last slab reads it (`edge`)."""
        if lo == self.n:
            return self.edge(0)[0]
        c = lo // self.height
        slot, a = c % len(self.slots), c * self.height
        if self.held[slot] != c:
            b = min(a + self.height, self.n)
            self.sample(slice(a, b), self.slots[slot][:, : b - a])
            self.held[slot] = c
        return self.slots[slot][:, lo - a : lo - a + k]

    def edge(self, lo):
        """Grid rows lo and lo + 1 mod n, for lo = n - 2 or 0, as two blocks
        of one row; they come from the ring only if it holds the grid, so
        reading them evicts no chunk (a ring made without `wrap` that holds
        less has none)."""
        if self.edge_rows is None:
            return [self.block(r % self.n, 1) for r in (lo, lo + 1)]
        if self.edge_at != lo:
            self.edge_at = lo
            self.sample(np.array([lo, lo + 1]) % self.n, self.edge_rows)
        return [self.edge_rows[:, r : r + 1] for r in (0, 1)]


def _raise_at(omega, bound=None):
    """Raise SingularityError at the first cell, sampling the slabs again, where
    |omega| as the pass takes it is not finite, or at most `bound` if given."""
    n = omega.n
    for s in _slabs(n):
        v = omega.sample(s, np.empty((len(omega.fns), s.stop - s.start, n, n)))
        mag = np.absolute(v[0]) if len(v) == 1 else np.sqrt(sum(np.square(v[1:]), np.square(v[0])))
        bad, what = ((~np.isfinite(mag), "1-form is not finite (or overflows)") if bound is None
                     else (mag <= bound, "1-form (nearly) vanishes"))
        if bad.any():
            i, j, l = (int(c) for c in np.argwhere(bad)[0])
            raise SingularityError(f"{what} at grid cell {(s.start + i, j, l)}")


def _magnitudes(omega):
    """The sum and least of |f| over the grid for omega = f dx_k, folded slab
    by slab as the pass folds |omega|, and the first grid cell where f > 0
    and where f < 0, by sign (+1.0 or -1.0), reading each row of f once from
    the ring.  Where f keeps one sign on a slab, |f| is f or -f, so the least
    of |f| is f's least or its greatest negated, and its sum f's or that
    negated (negation is exact): only a slab where signs mix (or a zero or
    nan) takes |f|."""
    total, least, first = 0.0, inf, {}
    for s in _slabs(omega.n):
        f = omega.block(s.start, s.stop - s.start)[0]
        sign, low = 1.0, np.minimum.reduce(f, None)
        if not low > 0:
            high = np.maximum.reduce(f, None)
            sign, low = (-1.0, -high) if high < 0 else (0.0, None)
        if sign:
            total += sign * np.add.reduce(f, None)
            least = min(least, low)
            first.setdefault(sign, (s.start, 0, 0))
            continue
        mag = np.absolute(f)
        total += np.add.reduce(mag, None)
        least = min(least, np.minimum.reduce(mag, None))
        for sign, cells in ((1.0, f > 0), (-1.0, f < 0)):
            if cells.any():
                i, j, l = np.argwhere(cells)[0]
                first.setdefault(sign, (s.start + int(i), int(j), int(l)))
    return total, least, first


# Pointwise products as, per component of the result, its terms (sign, i, j),
# each +-u_i v_j, summed in this order: u ^ v of a 1-form and a 2-form, and theta,
# the minimal-norm solution of v = theta ^ w: with 2-forms as axial vectors, g =
# theta x w is solved by (w x g) / |w|^2, g = (v2, -v1, v0), as np.cross(w, g).
_WEDGE12 = ((1, 0, 2), (-1, 1, 1), (1, 2, 0))
_THETA = (((1, 1, 0), (1, 2, 1)), ((1, 2, 2), (-1, 0, 0)), ((-1, 0, 1), (-1, 1, 2)))

# d of a 1-form as three stacked centred differences (axis, components, work
# blocks), one along each axis, into work blocks 0-5: the plaquette q, (a, b) =
# (0, 1), (0, 2) or (1, 2), is D_a v_b, block q, less D_b v_a, block q + 3.
_D_OMEGA = ((0, slice(1, 3), slice(0, 2)), (1, slice(2, None, -2), slice(2, 4)),
            (2, slice(0, 2), slice(4, 6)))

# The GV terms (a, axis, b), each theta_a D_axis theta_b, whose sum is half that of
# theta ^ d(theta) = theta_0 (D_1 theta_2 - D_2 theta_1) - theta_1 (D_0 theta_2 -
# D_2 theta_0) + theta_2 (D_0 theta_1 - D_1 theta_0): -theta_a D theta_b sums as
# theta_b D theta_a.  Term t takes the difference of theta_b into work block t
# (_D_THETA), then its product with theta_a (_GV_PRODUCTS).
_GV = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
_D_THETA = tuple((axis, b, t) for t, (_a, axis, b) in enumerate(_GV))
_GV_PRODUCTS = tuple((1, a, t) for t, (a, _axis, _b) in enumerate(_GV))


class _Pass:
    """The GV pass on omega's three components at grid n in x-slabs of
    `_slab_rows(n)` rows, on 19 blocks (rows, n, n) of its own: d(omega) and
    |omega|^2 of one slab, theta of three and a work area (d's differences,
    |omega|, squares and products, then GV term t's in block t), all laid
    out when the pass is made.  `stages` reads each slab of omega once
    (`_ahead`), then sums the slab's GV terms; as they read D_x theta_y,
    theta runs a slab ahead, from a one-row prologue on the last grid row to
    grid row 0 again.  Each slab's sums are reduced whole and folded in slab
    order into `sums`: |omega|, |omega ^ d omega|^2 (at `scale`), |d omega|^2,
    |omega|^2, the GV terms and, leaving out nan as np.fmin does, the least
    |omega|.  Every value is bit-identical to the whole-grid chain at 2h = 1
    (on a form with two components, with the absent one sampled as zeros)."""

    def __init__(self, n):
        self.n, self.rows = n, _slab_rows(n)
        grid = np.empty((19, self.rows, n, n))
        self.blocks = len(grid)
        self.dw, self.nsq, self.work = grid[:3], grid[3], grid[13:]
        self.theta = grid[4:13].reshape(3, 3, self.rows, n, n)
        # theta one row past either side of the slab in theta block `slot`
        self.around = [(self.theta[i - 1][:, -1:], self.theta[(i + 1) % 3][:, :1])
                       for i in range(3)]

    def stages(self, omega):
        """Run the pass over the row source `omega` (an `_Omega`), yielding ("ahead",
        i) once slab i's `_ahead` is in place, and ("slab", i) once its GV terms are."""
        n, rows, slabs = self.n, self.rows, _slabs(self.n)
        self.sums, self.scale = [0.0, 0.0, 0.0, 0.0, 0.0, inf], 1.0
        first, last = omega.edge(n - 2)
        self._ahead(last, first, omega.block(0, 1), rows - 1, 2, None)
        self._ahead(omega.block(0, slabs[0].stop), last, omega.block(slabs[0].stop, 1), 0, 0, True)
        yield "ahead", 0
        for i, s in enumerate(slabs):
            j = i + 1
            if j < len(slabs):
                a, b = slabs[j].start, slabs[j].stop
                self._ahead(omega.block(a, b - a), omega.block(a - 1, 1), omega.block(b, 1), 0,
                            j % 3, False)
                yield "ahead", j
            else:
                first, second = omega.edge(0)
                self._ahead(first, omega.block(n - 1, 1), second, 0, j % 3, None)
            theta, work, k = self.theta[i % 3], self.work, s.stop - s.start
            if k < rows:
                theta, work = theta[:, :k], work[:, :k]
            _d(theta, *self.around[i % 3], work, _D_THETA, n)
            _products([_GV_PRODUCTS], theta, work, work[:1], work[-1])
            self.sums[4] += np.add.reduce(work[0], None)
            yield "slab", i

    def _ahead(self, v, before, after, at, slot, summed):
        """d(omega), |omega|^2 and theta on omega's rows v (3, k, n, n) between
        `before` and `after`, theta into rows at.. of theta block `slot`, and
        their sums; `summed` None for theta alone (wrap rows), True at first."""
        k = v.shape[1]
        work, theta = self.work, self.theta[slot]
        if k < self.rows:
            work, theta = work[:, :k], theta[:, at : at + k]
        mag, dw, nsq = work[0], self.dw[:, :k], self.nsq[:k]
        _d(v, before, after, work, _D_OMEGA, self.n)
        np.subtract(work[:3], work[3:], dw)
        sq = work[:3]  # then (w0^2 + w1^2) + w2^2
        np.square(v, sq)
        np.add(sq[0], sq[1], nsq)
        np.add(nsq, sq[2], nsq)
        _products(_THETA, v, dw, theta, work[0])
        np.divide(theta, nsq, theta)
        if summed is None:
            return
        np.sqrt(nsq, mag)
        sums = self.sums
        sums[0] += np.add.reduce(mag, None)
        sums[5] = min(sums[5], np.minimum.reduce(mag, None))
        if summed:
            # 2^-2e, e the binary exponent of the largest |omega| (capped below 2^-511)
            self.scale = ldexp(1.0, min(-2 * frexp(float(np.max(mag)))[1], 1022))
        squares = self.work.reshape(-1)[: dw.size].reshape(dw.shape)
        np.square(dw, squares)
        sums[2] += np.add.reduce(squares, None)
        sums[3] += np.add.reduce(nsq, None)
        _products([_WEDGE12], v, dw, work[2:3], work[3])
        np.multiply(work[2], self.scale, work[1])
        np.square(work[1], mag)
        sums[1] += np.add.reduce(mag, None)


def _d(f, before, after, out, diffs, n):
    """2h d of the k-row stack f (p, k, n, n) between the rows `before` and
    `after` into blocks of `out` by the `diffs` (axis, components, blocks):
    undivided centred differences f[i+1] - f[i-1], the y and z interiors one
    subtract over the flattened rows, the wrap columns one more."""
    for axis, sel, osel in diffs:
        if axis == 0:
            k = f.shape[1]
            # the edge rows read the rows before and after the slab
            terms = [(f[sel, 2:], f[sel, :-2], out[osel, 1:-1])] if k > 2 else []
            terms.append((f[sel, 1:2] if k > 1 else after[sel], before[sel], out[osel, :1]))
            if k > 1:
                terms.append((after[sel], f[sel, k - 2 : k - 1], out[osel, k - 1 : k]))
        else:
            step, fflat, oflat = n ** (2 - axis), f.reshape(len(f), -1), out.reshape(len(out), -1)
            terms = [(fflat[sel, 2 * step :], fflat[sel, : -2 * step], oflat[osel, step:-step])]
            # the wrap: columns 0 and n-1 read columns 1 and 0 ahead, n-1 and n-2
            # behind, as views (..., 2, n) along the last axis of y-rows or z-columns
            g, o = (f, out) if axis == 1 else (f.swapaxes(-1, -2), out.swapaxes(-1, -2))
            behind = slice(n - 1, n - 3 if n > 2 else None, -1)
            ends = slice(None, None, max(n - 1, 1))
            terms.append((g[sel, ..., 1::-1, :], g[sel, ..., behind, :], o[osel, ..., ends, :]))
        for a, b, dst in terms:
            np.subtract(a, b, dst)


def _products(terms, u, v, out, tmp):
    """Pointwise products of the stacks u and v by the `terms` (sign, index into
    u, index into v) of each block of `out`: the first written (negated if
    negative), the rest added or subtracted through the scratch `tmp`."""
    for o, ((sign, i, j), *rest) in zip(out, terms):
        np.multiply(u[i], v[j], o)
        if sign < 0:
            np.negative(o, o)
        for sign, i, j in rest:
            np.multiply(u[i], v[j], tmp)
            (np.add if sign > 0 else np.subtract)(o, tmp, o)


class FoliationSpec(NamedTuple):
    """A foliation as `gv_term` takes it.  A component of omega given as None is
    identically zero and evaluates no expression (`_zero`)."""

    omega: tuple  # the three component functions f(x, y, z) of the 1-form, or None
    grid: int
    transversal: tuple | None = None  # ordered closed path of grid vertices
    label: str = ""


def _loop_edges(transversal, n):
    """A transversal loop's vertices on the n^3 grid (m, 3) and the axis and sign of each
    edge to the next; ValueError unless each vertex is on the grid, each step one edge."""
    if len(transversal) < 2:
        raise ValueError("transversal path needs at least two vertices")
    vertices = np.array([p if len(p) == 3 else (-1, -1, -1) for p in transversal], dtype=int)
    outside = np.flatnonzero(((vertices < 0) | (vertices >= n)).any(axis=1))
    if outside.size:
        vertex = tuple(map(int, transversal[outside[0]]))
        raise ValueError(f"transversal vertex {vertex} is not a vertex of the {n}^3 grid")
    h = (n - 1) // 2  # each step the shorter way round, in -h..n-1-h
    delta = (np.roll(vertices, -1, axis=0) - vertices + h) % n - h
    bad = np.flatnonzero(np.abs(delta).sum(axis=1) != 1)
    if bad.size:
        p, q = (tuple(vertices[i % len(vertices)].tolist()) for i in (bad[0], bad[0] + 1))
        raise ValueError(f"path step {p} -> {q} is not a single lattice edge")
    axes = np.argmax(delta != 0, axis=1)
    return vertices, axes, delta[np.arange(len(axes)), axes]


def tautness_check(pairings, mean: float) -> bool:
    """Transversal-circle test: omega's pairings with the loop's edges keep a
    constant sign and stay above TAUTNESS_TOLERANCE times its mean length."""
    if np.min(np.abs(pairings)) <= TAUTNESS_TOLERANCE * max(mean, 1e-300):
        return False
    return bool(np.all(pairings > 0) or np.all(pairings < 0))


class GvReport(NamedTuple):
    total: float
    per_foliation: tuple  # (label, gv value or None, taut flag)
    warnings: tuple
    integrability_residuals: tuple  # one per foliation, excluded ones included


def gv_term(spec: FoliationSpec, k: int = 0, strict: bool = False):
    """One foliation's (label, gv, taut) row, Frobenius defect and warning (or
    None), as `gv_report` sums them.

    The transversal is checked first (ValueError), and an omega whose three
    components are all absent (None) vanishes (SingularityError at the first
    cell).  On two or three present components one slab pass (`_Pass`) over
    all three, an absent one sampled as zeros (`_zero`), gives the mean and
    least of |omega|, the defect |omega ^ d omega| / (|omega| |d omega| +
    eps) (grid RMS norms, at a power of two that follows |omega|, so that
    2^k omega gives the defect of omega bit for bit) and the GV integral,
    theta ^ d theta summed by parts as 2 (theta_x D_y theta_z + theta_y D_z
    theta_x + theta_z D_x theta_y), rescaled from grid units by powers of
    n/2.  On f dx_k, the only present component, GV is exactly 0
    (theta = d log|f| is closed): `_magnitudes` reads f once for the mean and
    least of |f|, and gv and the defect are 0.0, with no difference taken (the
    theta chain reads its discretisation error instead, -1.02e-3 at grid 32
    on a generic positive f).  Then, in order: SingularityError where |omega|
    is not finite, its sum overflows or it is at most NONVANISHING_FLOOR times
    its mean, or where f of f dx_k takes both signs on the grid, so that it
    vanishes or has a pole between two samples; the tautness test on omega's
    pairings with the loop's edges, its components evaluated at the loop's
    vertices (None without a loop), a failure of which raises TautnessError if
    `strict` and otherwise excludes the row; SingularityError if a sum that the
    row reports overflows; and, for a row that is not excluded, ValueError if
    the defect exceeds INTEGRABILITY_TOLERANCE."""
    label, n = spec.label or f"foliation[{k}]", spec.grid
    if len(spec.omega) != 3:
        raise ValueError("a foliation needs 3 component functions")
    loop = None if spec.transversal is None else _loop_edges(spec.transversal, n)
    if all(f is None for f in spec.omega):
        raise SingularityError("1-form (nearly) vanishes at grid cell (0, 0, 0)")
    omega = _Omega(spec.omega, n)
    with np.errstate(all="ignore"):
        if len(omega.fns) == 1:
            total, least, sign_cells = _magnitudes(omega)
            frob = dw = w = gv = 0.0
            scale = 1.0
        else:
            gv_pass = _Pass(n)
            for _ in gv_pass.stages(omega):
                pass
            total, frob, dw, w, gv, least = map(float, gv_pass.sums)
            scale, sign_cells = gv_pass.scale, {}
        if not isfinite(total):
            _raise_at(omega)  # each finite sqrt(|omega|^2) is below 1.4e154, an |f| is not
            raise SingularityError(f"{label}: a GV sum over the grid is not finite")
        q = n / 2  # 1 / 2h: exact on power-of-two grids
        frob, dw, gv = frob * q * q, dw * q * q, 2 * gv * q**3
        mean = total / n**3
        bound = NONVANISHING_FLOOR * max(mean, 1e-300)
        if least <= bound:
            _raise_at(omega, bound)
    if len(sign_cells) == 2:
        positive, negative = sign_cells[1.0], sign_cells[-1.0]
        raise SingularityError(f"{label}: 1-form changes sign, positive at grid cell {positive} "
                               f"and negative at {negative}: it vanishes or has a pole between")
    taut = None
    if loop is not None:
        vertices, axes, signs = loop
        at, j = np.zeros((3, len(axes))), np.arange(len(axes))
        coords = [c.reshape(-1)[i] for c, i in zip(omega.coords, vertices.T)]
        with np.errstate(all="ignore"):
            for c, f in enumerate(spec.omega):
                if f is not None:  # an absent component reads 0
                    at[c] = f(*coords)
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
        raise ValueError(f"{label}: form is not integrable within tolerance; no theta exists")
    warning = None if taut else f"{label}: no transversal supplied, tautness inconclusive"
    return (label, gv * (1.0 / n) ** 3, taut), defect, warning


def gv_report(terms) -> GvReport:
    """Sum the `gv_term` results of a list of foliations, in order."""
    rows, defects, warnings = zip(*terms) if terms else ((), (), ())
    total = sum(val for _label, val, _taut in rows if val is not None)
    return GvReport(float(total), rows, tuple(w for w in warnings if w), defects)
