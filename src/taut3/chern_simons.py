"""Lattice Chern-Simons functional on the periodic 3-grid.

Connections are su(2)-valued 1-cochains, stored as pure quaternions in the
convention of `su2` (matrix product = `qmul`, matrix trace = `qtrace`); the
wedge is the cubical cup product (front-face / back-face with shuffle signs),
which obeys the Leibniz rule exactly and makes the action an exact polynomial
(quadratic + cubic) in the field.  The gradient is the closed-form adjoint of
d and of the cup products; `stationarity_check` confirms it against central
differences of the action along a few fixed random directions.

`stationarity_check` computes dA and A cup A of the field once and reads the
action, the gradient and the curvature F = dA + A cup A off them.  The kernels
take whole cochains, with any leading batch axes: a shift is two slice
copies, d takes one shift per axis, and a cup product one `qmul` per axis (A_i
against the two other directions of B, shifted along i; on large grids a
chunk of grid rows at a time).  Every product and sum keeps the operands and
the order of the plaquette-by-plaquette forms in `tests/cs_oracles.py`, so
the results equal theirs bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .su2 import qmul

_PAIRS = ((0, 1), (0, 2), (1, 2))

# quaternion slot of each su(2) basis coefficient (i * Pauli): E0 -> c, E1 -> b, E2 -> d
_COEFF_SLOTS = [2, 1, 3]

# directions along which stationarity_check differentiates the action
FD_DIRECTIONS = 8

# Bytes of perturbed fields per batched action call in stationarity_check.  A
# call's temporaries peak near three times its batch.  At 1 MiB grids up to 8
# take all 2 * FD_DIRECTIONS actions in one call, and grid 64 (25 MB per
# field) takes one field per call.
_BATCH_BYTES = 1 << 20

# Bytes of shifted operand per qmul in cup_11; larger products go a chunk of
# grid rows at a time.
_CHUNK_BYTES = 1 << 18


class ConnectionError_(ValueError):
    """Input is not a valid Lie-algebra-valued lattice field."""


@dataclass(frozen=True)
class LatticeConnection:
    """su(2)-valued 1-cochain on an n^3 periodic grid over the unit 3-torus.

    components: real array (3, n, n, n, 4) of pure quaternions, index order
    (direction, x, y, z, quaternion slot).
    """

    components: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.components, dtype=float)
        if a.ndim != 5 or a.shape[0] != 3 or a.shape[4] != 4 or len(set(a.shape[1:4])) != 1:
            raise ConnectionError_("expected shape (3, n, n, n, 4)")
        scale = max(1.0, float(np.max(np.abs(a))))
        if np.max(np.abs(a[..., 0])) > 1e-12 * scale:
            raise ConnectionError_("components must be pure quaternions (traceless)")
        object.__setattr__(self, "components", a)

    @property
    def grid_size(self) -> int:
        return self.components.shape[1]

    @property
    def spacing(self) -> float:
        return 1.0 / self.grid_size

    def coefficients(self) -> np.ndarray:
        """Real coordinates in the i * Pauli basis of su(2), shape (3, n, n, n, 3)."""
        return self.components[..., _COEFF_SLOTS]

    @classmethod
    def from_coefficients(cls, coeffs) -> "LatticeConnection":
        coeffs = np.asarray(coeffs, dtype=float)
        comp = np.zeros(coeffs.shape[:-1] + (4,))
        comp[..., _COEFF_SLOTS] = coeffs
        return cls(comp)

    @classmethod
    def zero(cls, n: int) -> "LatticeConnection":
        return cls(np.zeros((3, n, n, n, 4)))

    @classmethod
    def random(cls, n: int, scale: float = 0.1, seed: int = 0) -> "LatticeConnection":
        rng = np.random.default_rng(seed)
        return cls.from_coefficients(scale * rng.standard_normal((3, n, n, n, 3)))


# per grid axis, the index of all points but the last, all but the first, the
# last and the first of a per-direction field (..., n, n, n, 4)
_CUTS = tuple(
    tuple((Ellipsis, part) + (slice(None),) * (3 - axis)
          for part in (slice(None, -1), slice(1, None), slice(-1, None), slice(None, 1)))
    for axis in range(3)
)

# the two directions other than 0, 1 and 2, as slices of the direction axis
_OTHER = (slice(1, 3), slice(0, 3, 2), slice(0, 2))

# per axis i, (r, c, k, first) for the two directions k other than i, r their
# place in _OTHER[i]: c is the plaquette of {i, k} (its index in _PAIRS) and
# `first` whether i < k, i.e. whether the term along i comes first in it
_PLAQUETTES = tuple(
    tuple((r, i + k - 1, k, i < k) for r, k in enumerate(range(3)[_OTHER[i]])) for i in range(3)
)


def _fwd(f, axis, out=None):
    """Value at x + e_axis of a per-direction field (..., n, n, n, 4), by two
    slice copies into `out` (a new array if None); grid axes 0..2 are counted
    from the end, so leading batch axes pass through."""
    init, tail, last, first = _CUTS[axis]
    out = np.empty_like(f) if out is None else out
    out[init] = f[tail]
    out[last] = f[first]
    return out


def _back(f, axis, out=None):
    """Value at x - e_axis, as `_fwd`."""
    init, tail, last, first = _CUTS[axis]
    out = np.empty_like(f) if out is None else out
    out[tail] = f[init]
    out[first] = f[last]
    return out


def _comp(a, i):
    """Component i (an index or a slice) of a cochain (..., 3, n, n, n, 4):
    leading axes are a batch, then comes the direction (1-cochains) or
    plaquette (2-cochains) index."""
    return a[..., i, :, :, :, :]


def d_one(a, h: float):
    """Exterior derivative of a 1-cochain: (dA)_ij = D_i A_j - D_j A_i, from
    one shift per axis i of the two directions other than i."""
    out = np.empty_like(a)
    for i in range(3):
        shifted = _fwd(_comp(a, _OTHER[i]), i)
        for r, c, k, first in _PLAQUETTES[i]:
            oc = _comp(out, c)
            if first:
                np.subtract(_comp(shifted, r), _comp(a, k), out=oc)
            else:
                oc -= _comp(shifted, r)
    for c, (i, _j) in enumerate(_PAIRS):
        oc = _comp(out, c)
        oc += _comp(a, i)
    out /= h
    return out


def cup_11(a, b):
    """Cup product of two 1-cochains into a 2-cochain (component order (01, 02,
    12)): (A cup B)_ij = A_i B_j(x + e_i) - A_j B_i(x + e_j), by one qmul per
    axis i of A_i against the two other directions of B, shifted along i.
    Past `_CHUNK_BYTES` of shifted operand, each qmul goes over chunks of grid
    rows (x), whose operands stay in cache."""
    out = np.empty_like(a)
    n = a.shape[-4]
    for i in range(3):
        shifted = _fwd(_comp(b, _OTHER[i]), i)
        rows = max(1, _CHUNK_BYTES * n // shifted.nbytes)
        for x in range(0, n, rows):
            chunk = np.s_[..., x : x + rows, :, :, :]
            prod = qmul(_comp(a, slice(i, i + 1))[chunk], shifted[chunk])
            for r, c, _k, first in _PLAQUETTES[i]:
                oc = _comp(out, c)[chunk]
                if first:
                    oc[...] = _comp(prod, r)
                else:
                    oc -= _comp(prod, r)
    return out


def _qmul_real(p, q):
    """Real part of qmul(p, q), by the same operations in the same order."""
    return p[..., 0] * q[..., 0] - p[..., 1] * q[..., 1] - p[..., 2] * q[..., 2] - p[..., 3] * q[..., 3]


def cup_12_real(a, b):
    """Real part of the cup product of a 1-cochain with a 2-cochain, a 3-cochain
    whose matrix trace (`qtrace`) is twice it; the action reads nothing else."""
    # partitions of (0,1,2): {0}+(1,2) sign +, {1}+(0,2) sign -, {2}+(0,1) sign +
    return (
        _qmul_real(_comp(a, 0), _fwd(_comp(b, 2), 0))
        - _qmul_real(_comp(a, 1), _fwd(_comp(b, 1), 1))
        + _qmul_real(_comp(a, 2), _fwd(_comp(b, 0), 2))
    )


def _integral(dens_da, dens_aa, h: float, level: float):
    """(k/4) sum_x tr[A cup dA + (2/3) A cup A cup A] h^3 over the grid axes,
    from the real parts of the two cup_12 products (tr = 2 Re)."""
    return (level / 4.0) * np.sum(2.0 * (dens_da + (2.0 / 3.0) * dens_aa), axis=(-3, -2, -1)) * h**3


def _actions(a, h: float, level: float):
    """The action of each field in a batch (..., 3, n, n, n, 4), shape (...)."""
    if a.shape[-2] < 4:
        raise ConnectionError_("grid size must be at least 4")
    return _integral(cup_12_real(a, d_one(a, h)), cup_12_real(a, cup_11(a, a)), h, level)


def _u_slot_gradient(da, aa):
    """G with d/dU of T(U, dA) + (2/3) T(U, A cup A) equal to sum_x tr(dU G),
    where T(U, v) = sum_x tr[(U cup v)(x)]: direction i of each term is
    v's plaquette opposite i, shifted along i, with the cup_12 sign."""

    def u_slot(v):
        out = np.empty_like(v)
        for i in range(3):
            _fwd(_comp(v, 2 - i), i, out=_comp(out, i))
        np.negative(_comp(out, 1), out=_comp(out, 1))
        return out

    g, term = u_slot(da), u_slot(aa)
    term *= 2.0 / 3.0
    g += term
    return g


def _w_slot_gradient(g, a, h: float, level: float):
    """Add to the U-slot part g the derivative through the 2-cochain W = dA or
    A cup A, and return the gradient w.r.t. the basis coefficients.

    H, per plaquette (01, 02, 12), is the derivative of T(A, V) in V under the
    trace pairing; the adjoints of d and of the cup products apply to it.  The
    four products of each plaquette go in two qmuls: H against the directions
    i, j of A, and A_j(x + e_i), A_i(x + e_j) against H."""
    hmat = np.empty_like(a)
    for c in range(3):
        _back(_comp(a, 2 - c), 2 - c, out=_comp(hmat, c))
    np.negative(_comp(hmat, 1), out=_comp(hmat, 1))
    for c, (i, j) in enumerate(_PAIRS):
        hc, gi, gj = _comp(hmat, c), _comp(g, i), _comp(g, j)
        # d/dW of T(A, dW): adjoint of d applied to the V-slot quaternions
        gj += (_back(hc, i) - hc) / h
        gi -= (_back(hc, j) - hc) / h
        # d/dW of T(A, W cup A) and of T(A, A cup W)
        left = np.empty_like(_comp(a, slice(0, 2)))
        _fwd(_comp(a, j), i, out=_comp(left, 0))
        _fwd(_comp(a, i), j, out=_comp(left, 1))
        hp = _comp(hmat, slice(c, c + 1))  # H against a pair
        ah = qmul(left, hp)  # A_j(x + e_i) H, A_i(x + e_j) H
        del left
        ha = qmul(hp, _comp(a, _OTHER[2 - c]))  # H A_i, H A_j
        gi += (2.0 / 3.0) * (_comp(ah, 0) - _back(_comp(ha, 1), j))
        gj -= (2.0 / 3.0) * (_comp(ah, 1) - _back(_comp(ha, 0), i))
        del ah, ha  # not held through the next plaquette's products

    # derivative along basis element e_k: tr(e_k G) = -2 <e_k, G>
    return (-0.5 * level * h**3) * g[..., _COEFF_SLOTS]


def action_gradient(conn: LatticeConnection, level: float = 1.0) -> np.ndarray:
    """Exact closed-form gradient of the action w.r.t. the basis coefficients.

    Assembled from the adjoints of d and of the cup products under the trace
    pairing; exact because the cup product obeys the Leibniz rule and the
    grid is closed.  Returns shape (3, n, n, n, 3).
    """
    a, h = conn.components, conn.spacing
    return _w_slot_gradient(_u_slot_gradient(d_one(a, h), cup_11(a, a)), a, h, level)


@dataclass(frozen=True)
class StationarityReport:
    action: float
    grad_norm: float
    curvature_norm: float
    agreement: float


def _batch_fields(n: int) -> int:
    """Perturbed fields per batched action call at grid size n."""
    return max(1, _BATCH_BYTES // (3 * n**3 * 4 * 8))


def stationarity_check(conn: LatticeConnection, step: float = 1e-4, level: float = 1.0) -> StationarityReport:
    """The action of the field, and its exact gradient compared with central
    differences of the action along FD_DIRECTIONS fixed random unit
    directions, both reported against the curvature norm (flat <=>
    stationary).

    dA and A cup A are computed once: the action, the U-slot part of the
    gradient and the curvature F = dA + A cup A are read off them, and both
    are released before the perturbed fields are built.  The 2 *
    FD_DIRECTIONS perturbed actions are evaluated in batches of
    `_batch_fields` fields; each is bit-identical to the action of that field
    alone."""
    if not (1e-6 <= step <= 1e-3):
        raise ValueError("finite-difference step must lie in [1e-6, 1e-3]")
    a, h = conn.components, conn.spacing
    da, aa = d_one(a, h), cup_11(a, a)
    action = float(_integral(cup_12_real(a, da), cup_12_real(a, aa), h, level))
    g = _u_slot_gradient(da, aa)
    # Frobenius norm of F in the 2x2 matrices of `su2`'s convention: sqrt(2) |q|
    curvature_norm = float(np.sqrt(2.0) * np.linalg.norm(np.add(da, aa, out=da)))
    del da, aa
    g = _w_slot_gradient(g, a, h, level)
    c0 = conn.coefficients()
    rng = np.random.default_rng(0)
    exact = []

    def perturbed():
        for _ in range(FD_DIRECTIONS):
            v = rng.standard_normal(c0.shape)
            v /= np.linalg.norm(v)
            exact.append(np.sum(g * v))
            yield c0 + step * v
            yield c0 - step * v

    fields, total, per_call = perturbed(), 2 * FD_DIRECTIONS, _batch_fields(conn.grid_size)

    def batch_actions(size):
        batch = np.zeros((size,) + a.shape)
        for comp in batch:
            comp[..., _COEFF_SLOTS] = next(fields)
        return _actions(batch, h, level)

    actions = np.concatenate([batch_actions(min(per_call, total - lo))
                              for lo in range(0, total, per_call)])
    fd = (actions[0::2] - actions[1::2]) / (2 * step)
    agreement = np.linalg.norm(fd - exact) / max(np.linalg.norm(exact), 1e-14)
    return StationarityReport(
        action=action,
        grad_norm=float(np.linalg.norm(g)),
        curvature_norm=curvature_norm,
        agreement=float(agreement),
    )
