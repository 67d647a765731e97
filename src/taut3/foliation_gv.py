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

Every form of the chain is read as its three components (`_Form`), None for
one that is identically zero.  A component of omega given as None (`cli`
gives one whose expression folds to the constant 0) is never sampled or
stored; a term with an absent factor is skipped, a component with no term
left is absent and takes no buffer, and the sum of an absent field is 0.0.
So f dz, whose d(omega) and theta have two components each and
omega ^ d(omega) none, costs about half of a form with three components;
with none absent, every value is computed by the full chain's arithmetic.
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


# Bytes of one component of one x-slab of the GV pass; it sets the slab height
# up to grid 64 (grid 32 runs in four 8-row slabs, faster than two of 16 rows
# on 2 cores), and larger grids run one row at a time.  A slab's working set is
# 26 such blocks for a form with three components (omega; d(omega) and
# |omega|^2 of two slabs; theta of two; the work area of six; the three that
# the sums square into) and 19 for f dz, whose absent components take none;
# one-row slabs keep theta of three slabs, 29 and 21 blocks.  Past grid 90 one
# row is more than 64 KiB per component (128 KiB at grid 128, 288 KiB at grid
# 192), so there the working set is 2.6-8.2 MiB, more than a 2 MiB L2 cache;
# yet the cost per cell of `gv_term` does not rise from grid 48 to 192
# (56-86 ns for three components and 30-68 ns for f dz, two runs on 2 cores,
# highest at grid 48), so the cache does not set it.
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


def _packed(present):
    """Each component's index in a stack of the present ones (the True flags of
    `present`), in order, or None for an absent one."""
    at, p = [], 0
    for on in present:
        at.append(p if on else None)
        p += bool(on)
    return tuple(at)


class _Form:
    """A block of a form, read as the sequence of its three components:
    component c is the view stack[at[c]] of `stack`, or None (absent) where
    at[c] is None."""

    __slots__ = ("stack", "at")

    def __init__(self, stack, at):
        self.stack, self.at = stack, at

    def __getitem__(self, c):
        i = self.at[c]
        return None if i is None else self.stack[i]

    def rows(self, rows):
        """The rows `rows` (a slice) of each component."""
        return _Form(self.stack[:, rows], self.at)


class _Omega:
    """A 1-form's grid rows as the GV pass reads them, sampled from the
    functions of its present components.

    A component given as None is absent: it is zero everywhere, is never
    sampled and holds no memory, and blocks read it as None; the ring's
    arrays hold the p present components.  The functions
    receive the broadcastable coordinates of `grid_coords`, cut to the rows
    wanted, so a factor that depends on x alone is evaluated on those rows
    only; each result, which may be a read-only view, is broadcast to its rows
    as it is stored, the one copy made of it.  Rows are sampled a chunk at a
    time, about `_SAMPLE_BYTES` per present component and a whole number of GV
    slabs high, into a ring of two chunk slots (three when a chunk is one
    slab).  Where that many chunks cover the grid, the slots are the chunks'
    rows of one whole omega instead, all sampled at once, before the pass
    allocates its buffers.  Each row is sampled into the ring once; where the
    ring holds less than the grid, the wrap rows n-2 and n-1 that the pass
    reads before its first slab, and 0 and 1 after its last, are sampled once
    more into a two-row buffer.  The present components of omega at the
    `vertices` ((m, 3) indices) are copied to `at_vertices` (p, m) as their
    rows are sampled.  Overflow, division by zero and invalid operations give
    inf/nan silently; `gv_term` rejects them.
    """

    def __init__(self, fns, n, vertices):
        self.present = tuple(f is not None for f in fns)
        self.at = _packed(self.present)
        self.fns, self.n, self.coords = [f for f in fns if f is not None], n, grid_coords(n)
        p, rows = len(self.fns), _slab_rows(n)
        self.height = min(n, rows * max(1, _slab_rows(n, _SAMPLE_BYTES) // rows))
        slots, self.edge_rows, self.edge_at = 2 + (self.height == rows), None, None
        if -(-n // self.height) <= slots:
            whole = np.empty((p, n, n, n))
            self.slots = [whole[:, a : a + self.height] for a in range(0, n, self.height)]
        else:
            self.slots = list(np.empty((slots, p, self.height, n, n)))
            self.edge_rows = np.empty((p, 2, n, n))
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
                comp[...] = f(x[rows], y, z)
        return out

    def block(self, lo, k):
        """Grid rows lo..lo+k-1, inside one chunk, as per-component (k, n, n)
        views of the ring, sampling their chunk into its slot if it is not
        there."""
        c = lo // self.height
        slot, a = c % len(self.slots), c * self.height
        if self.held[slot] != c:
            b = min(a + self.height, self.n)
            chunk = self.sample(slice(a, b), self.slots[slot][:, : b - a])
            mine = (self.vertices[:, 0] >= a) & (self.vertices[:, 0] < b)
            i, j, l = self.vertices[mine].T
            self.at_vertices[:, mine] = chunk[:, i - a, j, l]
            self.held[slot] = c
        return _Form(self.slots[slot][:, lo - a : lo - a + k], self.at)

    def edge(self, lo):
        """Grid rows lo and lo + 1 mod n, for lo = n - 2 or 0, as two blocks
        of one row; they come from the ring only if it holds the grid, so
        reading them evicts no chunk."""
        if self.edge_rows is None:
            return [self.block(r % self.n, 1) for r in (lo, lo + 1)]
        if self.edge_at != lo:
            self.edge_at = lo
            self.sample(np.array([lo, lo + 1]) % self.n, self.edge_rows)
        return [_Form(self.edge_rows[:, r : r + 1], self.at) for r in (0, 1)]

    def row(self, r):
        """Grid row r as a block of one row, for 0 <= r <= n: row n is row 0
        as the last slab reads it."""
        return self.edge(0)[0] if r == self.n else self.block(r, 1)


# Pointwise products as, per component of the result, its terms (sign, i, j),
# each +-u_i v_j, summed in this order: u ^ v of a 1-form and a 2-form, and
# theta (`_theta`).
_WEDGE12 = (((1, 0, 2), (-1, 1, 1), (1, 2, 0)),)
_THETA = (((1, 1, 0), (1, 2, 1)), ((1, 2, 2), (-1, 0, 0)), ((-1, 0, 1), (-1, 1, 2)))

# the components of a 2-form
_PAIRS = ((0, 1), (0, 2), (1, 2))


def _live(terms, u, v):
    """The terms of a pointwise product of two forms laid out by `u` and `v`
    (`_Form.at`), less those with an absent factor, as (sign, index in u's
    stack, index in v's): per component of the result, its terms left, or
    None where none is."""
    return [[(sign, u[i], v[j]) for sign, i, j in t if u[i] is not None and v[j] is not None]
            or None for t in terms]


def _products(live, u, v, out, tmp):
    """Pointwise products of the blocks of two forms by the terms of `_live`
    with None left out, written into the blocks `out` of the result's present
    components with `tmp` as scratch: each first term written, a negative one
    negated in place, and the rest added or subtracted."""
    u, v = u.stack, v.stack
    for o, ((sign, i, j), *rest) in zip(out, live):
        np.multiply(u[i], v[j], o)
        if sign < 0:
            np.negative(o, o)
        for sign, i, j in rest:
            (np.add if sign > 0 else np.subtract)(o, np.multiply(u[i], v[j], tmp), o)
    return out


def _norm_sq(w, out, squares):
    """(w0^2 + w1^2) + w2^2 of a `_Form` block of 1-form rows over its present
    components, written into `out`, squared into the front of `squares`
    (3, ...); overflow gives inf."""
    p = len(w.stack)
    if p == 1:
        return np.square(w.stack[0], out)
    sq = np.square(w.stack, squares[:p])
    np.add(sq[0], sq[1], out)
    if p == 3:
        out += sq[2]
    return out


def _raise_at(omega, rows, bound=None):
    """Raise SingularityError at the first cell of the x-slab `rows` where
    |omega| is not finite, or at most `bound` if one is given; the slab is
    sampled again to find it."""
    k, n = rows.stop - rows.start, omega.n
    v = _Form(omega.sample(rows, np.empty((len(omega.fns), k, n, n))), omega.at)
    mag = np.sqrt(_norm_sq(v, np.empty((k, n, n)), np.empty((3, k, n, n))))
    bad, what = ((~np.isfinite(mag), "1-form is not finite (or overflows)") if bound is None
                 else (mag <= bound, "1-form (nearly) vanishes"))
    i, j, l = (int(c) for c in np.argwhere(bad)[0])
    raise SingularityError(f"{what} at grid cell {(rows.start + i, j, l)}")


class _Slab(NamedTuple):
    """One x-slab of the GV chain in grid units, as views into buffers that the
    next slab overwrites: d(omega), theta and omega ^ d(omega) are 2h times
    their values, d(theta) (2h)^2 and theta ^ d(theta) (2h)^3 times.  Forms
    are `_Form`s; a 3-form with no term left is None."""

    dw: _Form  # d(omega)
    frob: np.ndarray | None  # omega ^ d(omega)
    norm_sq: np.ndarray  # |omega|^2
    theta: _Form
    dtheta: _Form
    gv: np.ndarray | None  # theta ^ d(theta)


def _swapped(a, b, out, **kwargs):
    """b - a into `out`."""
    return np.subtract(b, a, out, **kwargs)


def _diff(f, axis, before, after, out, sub=np.subtract):
    """The undivided centered difference f[i+1] - f[i-1] of component blocks
    f (..., k, n, n) of a slab along grid axis `axis`, written into `out` by
    `sub` (`_swapped` gives f[i-1] - f[i+1]); along x it reads the rows
    `before` and `after` the slab (..., 1, n, n).  The y and z interiors are
    one subtract each over the flattened blocks, whose two wrap columns are
    then overwritten by one subtract of strided views."""
    if axis == 0:
        k = f.shape[-3]
        if k > 2:
            sub(f[..., 2:, :, :], f[..., :-2, :, :], out[..., 1:-1, :, :])
        # the edge rows read the rows before and after the slab
        sub(f[..., 1:2, :, :] if k > 1 else after, before, out[..., :1, :, :])
        if k > 1:
            sub(after, f[..., -2:-1, :, :], out[..., -1:, :, :])
        return out
    n, lead = f.shape[-1], f.shape[:-3] + (-1,)
    step, flat = n ** (2 - axis), f.reshape(lead)
    sub(flat[..., 2 * step :], flat[..., : -2 * step], out.reshape(lead)[..., step:-step])
    # the wrap: columns 0 and n-1 read columns 1 and 0 ahead, n-1 and n-2
    # behind, as views (..., 2, n) iterated in C order, along their last axis
    g, o = (f, out) if axis == 1 else (f.swapaxes(-1, -2), out.swapaxes(-1, -2))
    sub(g[..., 1::-1, :], g[..., ::-1, :][..., :2, :], o[..., :: max(n - 1, 1), :], order="C")
    return out


# The six centred differences that d of a 1-form takes, as (axis, component),
# two along each axis: the plaquette c = (a, b) is D_a v_b, slot c, less
# D_b v_a, slot c + 3.
_DIFFS = ((0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1))


def _d_slab(v, before, after, out, work):
    """2h times d of a 1-form on a slab of x-rows, written into the present
    components of `out`: v holds the slab's blocks (k, n, n), and `before`
    and `after` the rows (1, n, n) just before and after it, in stacks laid
    out alike.  A plaquette with both terms takes them into its two slots of
    `work` (6, k, n, n), whose first three `out` may be, and subtracts them,
    all three at once where every plaquette has both; a lone D_a v_b is
    written into `out`, and a lone D_b v_a with its operands swapped.  Where
    both differences along an axis go to `work`, they are one difference of
    the two components' view as a pair of the stack.  Each value is computed
    as the whole-grid derivative does at 2h = 1."""
    at = v.at
    both = [at[a] is not None and at[b] is not None for a, b in _PAIRS]
    for axis in range(3):
        s, t = 2 * axis, 2 * axis + 1
        if both[s % 3] and both[t % 3]:
            i, j = at[_DIFFS[s][1]], at[_DIFFS[t][1]]
            pair = slice(i, 2 * j - i if 2 * j >= i else None, j - i)
            _diff(v.stack[pair], axis, before.stack[pair], after.stack[pair], work[s : t + 1])
            continue
        for slot in (s, t):
            c, plaquette = _DIFFS[slot][1], slot % 3
            if at[c] is None:
                continue
            if both[plaquette]:
                _diff(v[c], axis, before[c], after[c], work[slot])
            else:
                _diff(v[c], axis, before[c], after[c], out[plaquette],
                      _swapped if slot >= 3 else np.subtract)
    if all(both):
        np.subtract(work[:3], work[3:], out.stack)
    else:
        for c in (c for c in range(3) if both[c]):
            np.subtract(work[c], work[c + 3], out[c])
    return out


def _wedge12(live, u, v, out, tmp):
    """Pointwise u ^ v of a 1-form and a 2-form by the terms `live` of
    `_WEDGE12`, into `out`; None if there are none."""
    return _products(live, u, v, [out], tmp)[0] if live else None


def _theta(live, w, v, norm_sq, out, tmp):
    """Pointwise minimal-norm solution of v = theta ^ w: identifying 2-forms with
    axial vectors, g = theta x w is solved by (w x g) / |w|^2 with g = (v2, -v1,
    v0); the products and signs are those of np.cross(w, g), the terms `live`
    of `_THETA`."""
    _products(live, w, v, out.stack, tmp)
    np.divide(out.stack, norm_sq, out.stack)
    return out


def _chain(at):
    """The layouts (`_Form.at`) of d(omega), theta and d(theta), and the
    terms that theta, omega ^ d(omega) and theta ^ d(theta) keep (of `_live`,
    None left out), given omega's layout `at`.  d(theta) takes the first
    three blocks of the pass's work area, component c in block c."""
    def d(w):
        return [w[a] is not None or w[b] is not None for a, b in _PAIRS]

    def kept(live):
        return [t for t in live if t]

    dw = _packed(d(at))
    theta = _live(_THETA, at, dw)
    theta_at = _packed([t is not None for t in theta])
    dtheta = tuple(c if on else None for c, on in enumerate(d(theta_at)))
    frob, gv = _live(_WEDGE12, at, dw), _live(_WEDGE12, theta_at, dtheta)
    return (dw, theta_at, dtheta), (kept(theta), kept(frob), kept(gv))


def _gv_blocks(omega: _Omega):
    """The GV chain of a 1-form in one pass over x-slabs, yielding a `_Slab` per
    slab in order.

    d(theta) on a slab reads theta one row past either side: the last row of
    the slab before and the first row of the slab after.  So each slab's
    d(omega) and |omega|^2, and theta on its first row, are computed one slab
    ahead, into buffers that rotate over two slabs (three for theta when slabs
    are one row); theta on the rest of a slab is computed just before d(theta)
    reads it.  A one-row prologue puts theta on the last grid row where the
    first slab reads it, and the last slab computes grid row 0 again as the
    row after it.  omega's rows are views of the ring of `omega`, no row is
    copied, and no array spans the grid.  Each buffer of a form holds only
    its components that have a term left; a work area of six blocks takes
    each d's differences, then d(theta) in its first three, omega ^ d(omega)
    and theta ^ d(theta) in the next two, and the last is scratch.  Every
    field value is bit-identical to the whole-grid computation at 2h = 1,
    apart from the signs of zeros where a term is skipped.
    """
    n = omega.n
    slabs, rows, plane = _slabs(n), _slab_rows(n), (n, n)
    (dw_at, theta_at, dth_at), (theta_terms, frob_terms, gv_terms) = _chain(omega.at)
    slots = 2 + (rows == 1)  # a one-row slab reads theta from both other slabs

    def buffers(count, at):
        """`count` rotating buffers of one slab of a form laid out by `at`."""
        p = sum(i is not None for i in at)
        return [_Form(b, at) for b in np.empty((count, p, rows) + plane)]

    dw_buf, theta_buf = buffers(2, dw_at), buffers(slots, theta_at)
    nsq_buf, work = np.empty((2, rows) + plane), np.empty((6, rows) + plane)
    first_row = slice(0, 1)
    # the first and the last row of each slab's theta
    heads = [t.rows(first_row) for t in theta_buf]
    tails = [t.rows(slice(rows - 1, rows)) for t in theta_buf]

    def ahead(i, v, before, after, at=0):
        """d(omega) and |omega|^2 on the grid rows `v`, whose neighbour rows are
        `before` and `after`, into rows at.. of slab i's buffers, and theta on
        the first of them."""
        k = v.stack.shape[1]
        dw = dw_buf[i % 2] if k == rows else dw_buf[i % 2].rows(slice(at, at + k))
        _d_slab(v, before, after, dw, work[:, :k])
        nsq = _norm_sq(v, nsq_buf[i % 2, at : at + k], work[:3, :k])
        th = (tails if at else heads)[i % slots]
        _theta(theta_terms, v.rows(first_row), dw.rows(first_row), nsq[:1], th, work[5, :1])

    first, last = omega.edge(n - 2)
    ahead(-1, last, first, omega.block(0, 1), rows - 1)
    w_next = omega.block(0, slabs[0].stop)
    ahead(0, w_next, last, omega.row(slabs[0].stop))
    dth_full = _Form(work[:3], dth_at)
    for i, s in enumerate(slabs):
        w_core = w_next  # the ring keeps a slab's chunk while the next one is read
        if s.stop < n:
            k = min(rows, n - s.stop)
            w_next = omega.block(s.stop, k)
            ahead(i + 1, w_next, omega.block(s.stop - 1, 1), omega.row(s.stop + k))
        else:
            first, second = omega.edge(0)
            ahead(i + 1, first, omega.block(n - 1, 1), second)
        k = s.stop - s.start
        dw, nsq, th, dth = dw_buf[i % 2], nsq_buf[i % 2, :k], theta_buf[i % slots], dth_full
        if k < rows:
            part = slice(0, k)
            dw, th, dth = dw.rows(part), th.rows(part), _Form(work[:3, :k], dth_at)
        if k > 1:
            rest = slice(1, k)
            _theta(theta_terms, w_core.rows(rest), dw.rows(rest), nsq[1:], th.rows(rest),
                   work[5, : k - 1])
        dth = _d_slab(th, tails[(i - 1) % slots], heads[(i + 1) % slots], dth, work[:, :k])
        frob = _wedge12(frob_terms, w_core, dw, work[3, :k], work[5, :k])
        gv = _wedge12(gv_terms, th, dth, work[4, :k], work[5, :k])
        yield _Slab(dw, frob, nsq, th, dth, gv)


def _sum_sq(a, buf):
    """Sum of squares of a field block, squared into the front of the flat
    pass buffer `buf`, whose contiguous block sums as np.square(a) would.  Not
    np.vdot: a multithreaded BLAS would spend a second core's time on every
    slab."""
    return _sum(np.square(a, buf[: a.size].reshape(a.shape)))


def _sum(a):
    """np.sum(a) as a float, by the reduction that np.sum calls: its dispatch
    in Python costs as much as summing a small slab."""
    return float(np.add.reduce(a, None))


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

    The transversal is checked first (ValueError), and an omega whose three
    components are all absent (None) vanishes (SingularityError at the first
    cell, as the pass would find).  Then one slab pass
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
    if all(f is None for f in spec.omega):
        raise SingularityError("1-form (nearly) vanishes at grid cell (0, 0, 0)")
    omega = _Omega(spec.omega, n, np.empty((0, 3), int) if loop is None else loop[0])
    # the squares of d(omega) and the lengths of each slab: d(omega) has three
    # components, or two where omega has one (each enters two of d(omega))
    buf = np.empty(min(3, len(omega.fns) + 1) * _slab_rows(n) * n * n)
    frob = dw = w = gv = total = 0.0
    least, scale = [], None
    with np.errstate(all="ignore"):
        for s, slab in zip(_slabs(n), _gv_blocks(omega)):
            size, shape = slab.norm_sq.size, slab.norm_sq.shape
            mag = np.sqrt(slab.norm_sq, buf[:size].reshape(shape))
            part = _sum(mag)
            if not isfinite(part):  # each finite length is below 1.4e154, so their sum is finite
                _raise_at(omega, s)
            total += part
            least.append(float(np.minimum.reduce(mag, None)))
            if scale is None:  # 2^-2e, kept finite below |omega| ~ 2^-511
                scale = ldexp(1.0, min(-2 * frexp(float(np.max(mag)))[1], 1022))
            if slab.frob is not None:
                block = buf[size : 2 * size].reshape(shape)
                frob += _sum_sq(np.multiply(slab.frob, scale, block), buf)
            dw += _sum_sq(slab.dw.stack, buf)
            w += _sum(slab.norm_sq)
            if slab.gv is not None:
                gv += _sum(slab.gv)
        q = n / 2  # 1 / 2h: exact on power-of-two grids
        frob, dw, gv = frob * q * q, dw * q * q, gv * q**3
        mean = total / n**3
        bound = NONVANISHING_FLOOR * max(mean, 1e-300)
        if min(least) <= bound:
            _raise_at(omega, next(s for s, m in zip(_slabs(n), least) if m <= bound), bound)
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
        raise ValueError("form is not integrable within tolerance; no theta exists")
    warning = None if taut else f"{label}: no transversal supplied, tautness inconclusive"
    return (label, gv * (1.0 / n) ** 3, taut), defect, warning


def gv_report(terms) -> GvReport:
    """Sum the `gv_term` results of a list of foliations, in order."""
    rows, defects, warnings = zip(*terms) if terms else ((), (), ())
    total = sum(val for _label, val, _taut in rows if val is not None)
    return GvReport(float(total), rows, tuple(w for w in warnings if w), defects)
