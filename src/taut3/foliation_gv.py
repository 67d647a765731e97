"""Godbillon-Vey integrals of foliations of the periodic grid torus.

A codim-1 foliation is described by a nonvanishing 1-form omega, given by its
three component functions f(x, y, z); integrability means omega ^ d(omega) = 0,
the defining 1-form theta solves d(omega) = theta ^ omega, and the GV integral
is the integral of theta ^ d(theta) over the torus.  Forms live at the vertices
of an n^3 periodic grid; the exterior derivative uses centered differences (so
d o d = 0 exactly, shifts commute) and the wedge is the pointwise antisymmetric
product.  `gv_term` computes the whole chain in one pass over x-slabs of the
grid, which reads omega from a small ring of sampled chunks (`_Omega`), so no
array spans the grid.  The pass works in grid units: each d is the undivided
difference f[i+1] - f[i-1], 2h times the derivative, and the sums are rescaled
once after it.  It is a plan (`_Plan`) for omega's layout of present
components, flat lists of ufunc steps over blocks of its own, kept for a next
call on the same layout and grid (`_plan`).  A component of omega given as
None (`cli` gives one that folds to the constant 0) is never sampled, and the
plan computes only what the sums of a row read (`_chain`): f dz, whose
d(omega), theta and d(theta) have two components and omega ^ d(omega) none,
costs about half of a form with three components.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, isfinite, ldexp, sqrt

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


# Bytes of one component of one x-slab of the GV pass; it sets the slab height
# up to grid 64 (grid 32 runs in four 8-row slabs), and larger grids run one
# row at a time.  A plan holds 19 such blocks for a form with three components
# (d(omega) 3, |omega|^2 1, theta of three slabs 9, a work area 6) and 13 for
# f dz (2 + 1 + 6 + 4).  Past grid 90 a row is over 64 KiB per component, so
# that is 1.6-2.4 MiB at grid 128, about a 2 MiB L2 cache; yet the pass costs
# 15-16 ns per cell of f dz and 42-58 ns of three components at grids 64, 128
# and 192 alike (2 cores), so the cache does not set it.
_SLAB_BYTES = 1 << 16


# Bytes of one component of one chunk of sampled omega.  Sampling runs the
# expressions once per chunk, so its chunks are larger than the GV pass's
# slabs: at grid 128, 8-row chunks (1 MiB) sample the bench's exp-g form in
# place in 6.3 ms, as 32-row ones do, 4-row ones in 7.0 and 1-row ones in 13.
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


def _packed(present):
    """Each component's index in a stack of the present ones (the true flags of
    `present`), in order, or None for an absent one."""
    return tuple(sum(map(bool, present[:c])) if on else None for c, on in enumerate(present))


def _ring(n, p):
    """(rows per chunk, chunk slots, whether the slots are one whole omega,
    floats) of the ring of p sampled components at grid n."""
    rows = _slab_rows(n)
    height = min(n, rows * max(1, _slab_rows(n, _SAMPLE_BYTES) // rows))
    slots = 2 + (height == rows)
    whole = -(-n // height) <= slots
    return height, slots, whole, p * n * n * (n if whole else slots * height + 2)


class _Omega:
    """A 1-form's grid rows as the GV pass reads them, sampled from the
    functions of its present components.

    A component given as None is absent and never sampled; a block of rows
    is the stack (p, k, n, n) of the p present ones.  The functions receive
    the coordinates of `grid_coords` cut to the rows wanted; a `CompiledExpr`
    writes into the ring in place (`CompiledExpr.into`), any other result is
    broadcast into it.  Rows are sampled a chunk at a time, about
    `_SAMPLE_BYTES` per component and a whole number of slabs high, into two
    chunk slots (three when a chunk is one slab), or, where that many chunks
    cover the grid, into one whole omega when the ring is made.  Each row is
    sampled once, and where the ring holds less than the grid the wrap rows
    n-2, n-1, 0 and 1 once more into a two-row buffer.  omega at the `vertices` ((m, 3)) is copied
    to `at_vertices` (p, m).  Overflow and invalid operations give inf/nan
    silently; `gv_term` rejects them."""

    def __init__(self, fns, n, vertices):
        self.present = tuple(f is not None for f in fns)
        self.fns, self.n, self.coords = [f for f in fns if f is not None], n, grid_coords(n)
        p = len(self.fns)
        self.height, slots, whole, size = _ring(n, p)
        mem = np.empty(size)
        self.edge_rows, self.edge_at = None, None
        if whole:
            whole = mem.reshape(p, n, n, n)
            self.slots = [whole[:, a : a + self.height] for a in range(0, n, self.height)]
        else:
            cut = slots * p * self.height * n * n
            self.slots = list(mem[:cut].reshape(slots, p, self.height, n, n))
            self.edge_rows = mem[cut:].reshape(p, 2, n, n)
        self.held = [None] * len(self.slots)
        self.vertices, self.at_vertices = vertices, np.empty((p, len(vertices)))
        if self.edge_rows is None:
            for a in range(0, n, self.height):
                self.block(a, 1)

    def sample(self, rows, out):
        """omega's present components on the grid rows `rows` (a slice or an
        index array), into `out` of shape (p, k, n, n)."""
        x, y, z = self.coords
        with np.errstate(all="ignore"):
            for comp, f in zip(out, self.fns):
                if isinstance(f, CompiledExpr):
                    f.into(comp, x[rows], y, z)
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
            chunk = self.sample(slice(a, b), self.slots[slot][:, : b - a])
            mine = (self.vertices[:, 0] >= a) & (self.vertices[:, 0] < b)
            i, j, l = self.vertices[mine].T
            self.at_vertices[:, mine] = chunk[:, i - a, j, l]
            self.held[slot] = c
        return self.slots[slot][:, lo - a : lo - a + k]

    def edge(self, lo):
        """Grid rows lo and lo + 1 mod n, for lo = n - 2 or 0, as two blocks
        of one row; they come from the ring only if it holds the grid, so
        reading them evicts no chunk."""
        if self.edge_rows is None:
            return [self.block(r % self.n, 1) for r in (lo, lo + 1)]
        if self.edge_at != lo:
            self.edge_at = lo
            self.sample(np.array([lo, lo + 1]) % self.n, self.edge_rows)
        return [self.edge_rows[:, r : r + 1] for r in (0, 1)]


def _raise_at(omega, bound=None):
    """Raise SingularityError at the first cell, slab by slab, where |omega| is
    not finite, or at most `bound` if one is given; the slabs are sampled
    again to find it."""
    n = omega.n
    for s in _slabs(n):
        sq = np.square(omega.sample(s, np.empty((len(omega.fns), s.stop - s.start, n, n))))
        mag = np.sqrt(sum(sq[1:], sq[0]))  # (w0^2 + w1^2) + w2^2
        bad, what = ((~np.isfinite(mag), "1-form is not finite (or overflows)") if bound is None
                     else (mag <= bound, "1-form (nearly) vanishes"))
        if bad.any():
            i, j, l = (int(c) for c in np.argwhere(bad)[0])
            raise SingularityError(f"{what} at grid cell {(s.start + i, j, l)}")


# Pointwise products as, per component of the result, its terms (sign, i, j),
# each +-u_i v_j, summed in this order: u ^ v of a 1-form and a 2-form, and
# theta, the minimal-norm solution of v = theta ^ w: identifying 2-forms with
# axial vectors, g = theta x w is solved by (w x g) / |w|^2 with g = (v2, -v1,
# v0), whose products and signs are those of np.cross(w, g).
_WEDGE12 = ((1, 0, 2), (-1, 1, 1), (1, 2, 0))
_THETA = (((1, 1, 0), (1, 2, 1)), ((1, 2, 2), (-1, 0, 0)), ((-1, 0, 1), (-1, 1, 2)))

_PAIRS = ((0, 1), (0, 2), (1, 2))  # the components of a 2-form

# The six centred differences that d of a 1-form takes, as (axis, component),
# two along each axis: the plaquette q = (a, b) is D_a v_b, slot q, less
# D_b v_a, slot q + 3.
_DIFFS = ((0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1))


def _chain(present):
    """What the pass computes for omega's layout `present`, pruned back from
    the sums of a row: d(omega)'s plaquettes (all, for the sum of |d omega|^2),
    theta's terms by component, d(theta)'s plaquettes, and the terms of
    omega ^ d(omega) and theta ^ d(theta).  A term with an absent factor goes,
    a plaquette q of d(theta) unless theta ^ d(theta) pairs it with
    theta_(2-q), and a theta component that neither reads."""
    w = present
    dw = tuple(w[a] or w[b] for a, b in _PAIRS)
    theta = [[t for t in terms if w[t[1]] and dw[t[2]]] for terms in _THETA]
    dtheta = tuple(bool(theta[2 - q] and (theta[a] or theta[b])) for q, (a, b) in enumerate(_PAIRS))
    gv = [t for t in _WEDGE12 if theta[t[1]] and dtheta[t[2]]]
    read = {t[1] for t in gv} | {c for q, pair in enumerate(_PAIRS) if dtheta[q] for c in pair}
    theta = [t if c in read else [] for c, t in enumerate(theta)]
    return dw, theta, dtheta, [t for t in _WEDGE12 if w[t[1]] and dw[t[2]]], gv


def _views(a):
    """Index functions of a stack (p, k, n, n): itself, rows flat, y and z swapped."""
    return a.__getitem__, a.reshape(len(a), -1).__getitem__, a.swapaxes(-1, -2).__getitem__


class _Plan:
    """The GV pass for one layout of omega's present components at grid n in
    `rows`-row x-slabs: flat lists of steps (ufunc, operands, output) over
    blocks (rows, n, n) of its own that compute what `_chain` keeps.  The
    blocks are d(omega) and |omega|^2 of one slab, theta of three and a work
    area: each d's differences (plaquette q's terms in blocks q and q + 3
    where it has both), d(theta) in blocks q, the squares that the sums
    reduce, flat from its start, and products with a scratch block.

    `stages` reads each slab of omega once, one slab ahead: its d(omega),
    |omega|^2, theta and their sums.  Then come d(theta) of the slab before,
    reading theta one row past either side in the other theta blocks, and
    theta ^ d(theta).  A one-row prologue puts theta on the last grid row;
    the last slab reads grid row 0 again as the row after it.  Each stage's
    steps are built on first use, omega's rows entering as indices into
    views of the ring taken per slab.  Each slab's sums are reduced whole
    (as np.sum and np.min do; np.vdot may spend a second core on each slab)
    and folded in slab order into `sums`: |omega|, |omega ^ d omega|^2 (at
    `_scale`), |d omega|^2, |omega|^2, theta ^ d(theta), and by np.fmin
    (np.minimum where no value is nan) the least |omega|.  Every value is
    bit-identical to the whole-grid computation at 2h = 1, apart from the
    signs of zeros of skipped terms."""

    def __init__(self, present, n, rows):
        self.n, self.rows, self.at = n, rows, _packed(present)
        dw, self.theta_terms, dtheta, self.frob, self.gv = _chain(present)
        self.dw_at, self.theta_at = _packed(dw), _packed(self.theta_terms)
        self.dtheta_at = tuple(q if on else None for q, on in enumerate(dtheta))
        # theta ^ d(theta) goes to the first blocks d(theta) leaves; with two or
        # more components a plaquette of d(theta) has both terms: six blocks
        self.gv_out, self.gv_tmp = [b for b in range(6) if b not in self.dtheta_at][:2]
        self.counts = (sum(dw), sum(map(bool, self.theta_terms)),
                       6 if sum(present) > 1 else self.gv_tmp + 1)
        self.blocks = self.counts[0] + 1 + 3 * self.counts[1] + self.counts[2]
        # the six sums, a cell for each to take a slab's reduction, the scale
        self.sums, self.built = np.zeros(13), {}
        pw, pt, _ = self.counts
        grid = np.empty((self.blocks, rows, n, n))
        self.dw, self.nsq = grid[:pw], grid[pw]
        self.theta = grid[pw + 1 : pw + 1 + 3 * pt].reshape(3, pt, rows, n, n)
        self.work = grid[pw + 1 + 3 * pt :]

    def stages(self, omega):
        """Run the pass over the row source `omega` (an `_Omega`), yielding
        ("ahead", i) once slab i's d(omega), |omega|^2, theta and their sums
        are in place, and ("slab", i) once its d(theta) and gv are."""
        n, rows, slabs = self.n, self.rows, _slabs(self.n)
        self.sums[:], self.sums[5] = 0.0, np.inf
        first, last = omega.edge(n - 2)
        self._ahead(last, first, omega.block(0, 1), rows - 1, 2, None)
        k = slabs[0].stop
        self._ahead(omega.block(0, k), last, omega.block(k, 1), 0, 0, True)
        yield "ahead", 0
        for i, s in enumerate(slabs):
            if s.stop < n:
                k = min(rows, n - s.stop)
                self._ahead(omega.block(s.stop, k), omega.block(s.stop - 1, 1),
                            omega.block(s.stop + k, 1), 0, (i + 1) % 3, False)
                yield "ahead", i + 1
            else:
                first, second = omega.edge(0)
                self._ahead(first, omega.block(n - 1, 1), second, 0, (i + 1) % 3, None)
            _run(self._stage("slab", s.stop - s.start, i % 3)[0], ())
            yield "slab", i

    def _ahead(self, v, before, after, at, slot, summed):
        """The stage on omega's rows v (p, k, n, n) between `before` and `after`,
        theta into rows at.. of theta block `slot`; `summed` None for theta
        alone (wrap rows), True for the first slab (it sets the scale)."""
        steps, refs = self._stage("ahead", v.shape[1], at, slot, summed)
        roles = (v, before, after, v.reshape(len(v), -1), v.swapaxes(-1, -2))
        _run(steps, [roles[r][ix] for r, ix in refs])

    def _stage(self, *key):
        """(steps, omega's views) of a stage, built on first use."""
        if key not in self.built:
            steps, refs = [], []

            def emit(fn, *args):
                steps.append((fn, args, int in map(type, args)))

            def role(r):
                return lambda ix: refs.append((r, ix)) or len(refs) - 1

            getattr(self, "_build_" + key[0])(emit, role, *key[1:])
            self.built[key] = steps, refs
        return self.built[key]

    def _build_ahead(self, emit, role, k, at, slot, summed):
        """Emit the steps of `_ahead`, omega's roles by `role`."""
        n, sums, work = self.n, self.sums, self.work[:, :k]
        v, dw, nsq = (role(0), role(3), role(4)), self.dw[:, :k], self.nsq[:k]
        self._d(emit, v, self.at, role(1), role(2), k, _views(dw), self.dw_at, _views(work))
        p = len(self.at) - self.at.count(None)
        sq = nsq[None] if p == 1 else work[:p]  # then (w0^2 + w1^2) + w2^2
        emit(np.square, v[0](()), sq)
        for c in range(1, p):
            emit(np.add, sq[0] if c == 1 else nsq, sq[c], nsq)
        theta = self.theta[slot][:, at : at + k]
        _product_steps(emit, [t for t in self.theta_terms if t], v[0], self.at, dw.__getitem__,
                  self.dw_at, theta, work[0])
        emit(np.divide, theta, nsq, theta)
        if summed is None:
            return
        flat, size = self.work.reshape(-1), k * n * n
        mag, scaled = flat[:size].reshape(k, n, n), flat[size : 2 * size].reshape(k, n, n)
        emit(np.sqrt, nsq, mag)
        emit(np.add.reduce, mag, None, None, sums[6, ...])
        emit(np.minimum.reduce, mag, None, None, sums[11, ...])
        if summed:
            emit(_scale, mag, sums)
        squares = flat[: dw.size].reshape(dw.shape)
        emit(np.square, dw, squares)
        emit(np.add.reduce, squares, None, None, sums[8, ...])
        emit(np.add.reduce, nsq, None, None, sums[9, ...])
        if self.frob:
            _product_steps(emit, [self.frob], v[0], self.at, dw.__getitem__, self.dw_at, work[2:3],
                      work[3])
            emit(np.multiply, work[2], sums[12, ...], scaled)
            emit(np.square, scaled, mag)
            emit(np.add.reduce, mag, None, None, sums[7, ...])
        emit(np.add, sums[:4], sums[6:10], sums[:4])
        emit(np.fmin, sums[5:6], sums[11:12], sums[5:6])

    def _build_slab(self, emit, role, k, slot):
        """Emit d(theta) and theta ^ d(theta) of a k-row slab in theta block `slot`."""
        theta, rows = self.theta[slot][:, :k], self.rows
        before, after = self.theta[(slot - 1) % 3][:, rows - 1 :], self.theta[(slot + 1) % 3][:, :1]
        work = _views(self.work[:, :k])
        self._d(emit, _views(theta), self.theta_at, before.__getitem__, after.__getitem__, k,
                work, self.dtheta_at, work)
        if self.gv:
            gv = self.work[self.gv_out, :k]
            _product_steps(emit, [self.gv], theta.__getitem__, self.theta_at, work[0], (0, 1, 2), [gv],
                      self.work[self.gv_tmp, :k])
            emit(np.add.reduce, gv, None, None, self.sums[10, ...])
            emit(np.add, self.sums[4:5], self.sums[10:11], self.sums[4:5])

    def _d(self, emit, f, fat, before, after, k, out, oat, work):
        """Steps of 2h d of a 1-form on k rows, whose components f (`_views`),
        `before` and `after` index laid out by `fat`, into the plaquettes of
        `out` laid out by `oat` (None: not computed).  A plaquette with both
        terms takes them into blocks q and q + 3 of `work` and subtracts them
        (all three at once if all have both); a lone D_a v_b goes into `out`,
        a lone D_b v_a with its operands swapped.  The two differences along
        an axis are one, of a pair of components, where they go alike."""
        both = [oat[q] is not None and fat[a] is not None and fat[b] is not None
                for q, (a, b) in enumerate(_PAIRS)]
        for axis in range(3):
            diffs = [(fat[c], (work, s, False) if both[s % 3] else (out, oat[s % 3], s >= 3))
                     for s, (_, c) in enumerate(_DIFFS[2 * axis : 2 * axis + 2], 2 * axis)
                     if oat[s % 3] is not None and fat[c] is not None]
            if len(diffs) == 2 and diffs[0][1][::2] == diffs[1][1][::2]:
                (i, (dst, a, swap)), (j, (_, b, _)) = diffs
                pair = lambda i, j: slice(i, 2 * j - i if 2 * j >= i else None, j - i)  # i, j
                diffs = [(pair(i, j), (dst, pair(a, b), swap))]
            for sel, (dst, osel, swap) in diffs:
                _diff_steps(emit, f, before, after, sel, dst, osel, axis, k, self.n, swap)
        if all(both):  # then oat is (0, 1, 2)
            emit(np.subtract, work[0]((slice(0, 3),)), work[0]((slice(3, 6),)),
                 out[0]((slice(0, 3),)))
            return
        for q in (q for q in range(3) if both[q]):
            emit(np.subtract, work[0]((q,)), work[0]((q + 3,)), out[0]((oat[q],)))


def _diff_steps(emit, f, before, after, sel, out, osel, axis, k, n, swap):
    """Steps of the undivided centred difference f[i+1] - f[i-1] (reversed if
    `swap`) of components `sel` of the k-row stack f along grid axis `axis`
    into components `osel` of `out` (both `_views`); along x it reads the rows
    `before` and `after` the slab.  The y and z interiors are one subtract
    over the flattened rows, whose wrap columns one more then overwrites."""
    def sub(a, b, o):
        emit(np.subtract, *((b, a) if swap else (a, b)), o)

    if axis == 0:
        if k > 2:
            sub(f[0]((sel, slice(2, None))), f[0]((sel, slice(-2))), out[0]((osel, slice(1, -1))))
        # the edge rows read the rows before and after the slab
        sub(f[0]((sel, slice(1, 2))) if k > 1 else after((sel,)), before((sel,)),
            out[0]((osel, slice(1))))
        if k > 1:
            sub(after((sel,)), f[0]((sel, slice(k - 2, k - 1))), out[0]((osel, slice(k - 1, k))))
        return
    step = n ** (2 - axis)
    sub(f[1]((sel, slice(2 * step, None))), f[1]((sel, slice(-2 * step))),
        out[1]((osel, slice(step, -step))))
    # the wrap: columns 0 and n-1 read columns 1 and 0 ahead, n-1 and n-2
    # behind, as views (..., 2, n) along the last axis of y-rows or z-columns
    g, o = (f[0], out[0]) if axis == 1 else (f[2], out[2])
    ahead, behind = slice(1, None, -1), slice(n - 1, n - 3 if n > 2 else None, -1)
    sub(g((sel, Ellipsis, ahead, slice(None))), g((sel, Ellipsis, behind, slice(None))),
        o((osel, Ellipsis, slice(None, None, max(n - 1, 1)), slice(None))))


def _product_steps(emit, terms, u, uat, v, vat, out, tmp):
    """Steps of pointwise products of forms read by u and v laid out by `uat`
    and `vat`, by the `terms` of each block of `out`, with scratch `tmp`: each
    first term written and negated in place if negative, the rest added or
    subtracted."""
    for o, ((sign, i, j), *rest) in zip(out, terms):
        emit(np.multiply, u((uat[i],)), v((vat[j],)), o)
        if sign < 0:
            emit(np.negative, o, o)
        for sign, i, j in rest:
            emit(np.multiply, u((uat[i],)), v((vat[j],)), tmp)
            emit(np.add if sign > 0 else np.subtract, o, tmp, o)


def _scale(mag, sums):
    """The scale 2^-2e of |omega ^ d omega|^2 into sums[12], e the binary exponent
    of the largest |omega| in `mag`; finite below |omega| ~ 2^-511."""
    sums[12] = ldexp(1.0, min(-2 * frexp(float(np.max(mag)))[1], 1022))


def _run(steps, w):
    """Run steps (fn, operands, whether any is an int), an int operand
    standing for that view of omega's rows in `w`."""
    for fn, args, omega in steps:
        fn(*([w[a] if type(a) is int else a for a in args] if omega else args))


_plans = {}  # the last call's plan by (layout, grid, slab height): calls must not overlap


def _plan(present, n):
    """The plan for omega's layout `present` at grid n: the last call's if it
    had the same, else a new one, made once that is dropped.  Its steps take
    about 0.6 ms to build, a quarter of a grid-32 call with three
    components; it holds 13 to 19 blocks of a slab component."""
    key = (present, n, _slab_rows(n))
    plan = _plans.get(key)
    if plan is None:
        _plans.clear()
        plan = _plans[key] = _Plan(*key)
    return plan


@dataclass(frozen=True)
class FoliationSpec:
    """A foliation as `gv_term` takes it.  A component of omega given as None
    is identically zero: it is never sampled, and no term of the GV chain that
    it is a factor of is computed."""

    omega: tuple  # the three component functions f(x, y, z) of the 1-form, or None
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
    vertices = np.array(path)
    delta = (np.roll(vertices, -1, axis=0) - vertices) % n
    delta = np.where(delta > n // 2, delta - n, delta)  # the shorter way round
    bad = np.flatnonzero((np.count_nonzero(delta, axis=1) != 1) | (np.abs(delta).sum(axis=1) != 1))
    if bad.size:
        p, q = path[bad[0]], path[(bad[0] + 1) % len(path)]
        raise ValueError(f"path step {p} -> {q} is not a single lattice edge")
    axes = np.argmax(delta != 0, axis=1)
    return vertices, axes, delta[np.arange(len(path)), axes]


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

    The transversal is checked first (ValueError), and an omega whose three
    components are all absent (None) vanishes (SingularityError at the first
    cell).  Then one slab pass (`_Plan.stages`) samples omega and gives the
    mean and least of |omega|, its pairings with the loop's edges, the
    defect |omega ^ d omega| / (|omega| |d omega| + eps) (grid RMS norms)
    and the GV integral of theta ^ d theta, rescaled from grid units by
    powers of n/2.  Sum and denominator of the defect are taken at the power
    of two `_scale`, so omega and 2^k omega give the same defect bit for bit
    and a small omega meets the tolerance of a large one.  Then, in order:
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
    if all(f is None for f in spec.omega):
        raise SingularityError("1-form (nearly) vanishes at grid cell (0, 0, 0)")
    plan = _plan(tuple(f is not None for f in spec.omega), n)
    omega = _Omega(spec.omega, n, np.empty((0, 3), int) if loop is None else loop[0])
    with np.errstate(all="ignore"):
        for _ in plan.stages(omega):
            pass
        # each finite length is below 1.4e154, so their sum is finite
        total, frob, dw, w, gv, least, *_cells, scale = plan.sums.tolist()
        if not isfinite(total):
            _raise_at(omega)
        q = n / 2  # 1 / 2h: exact on power-of-two grids
        frob, dw, gv = frob * q * q, dw * q * q, gv * q**3
        mean = total / n**3
        bound = NONVANISHING_FLOOR * max(mean, 1e-300)
        if least <= bound:
            _raise_at(omega, bound)
    taut = None
    if loop is not None:
        _, axes, signs = loop
        at, j = np.zeros((3, len(axes))), np.arange(len(axes))
        at[np.flatnonzero(omega.present)] = omega.at_vertices  # an absent component reads 0
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
