"""Lattice Chern-Simons functional on the periodic 3-grid.

Connections are su(2)-valued 1-cochains, stored as pure quaternions in the
convention of `su2` (matrix product = `qmul`, matrix trace = `qtrace`); the
wedge is the cubical cup product (front-face / back-face with shuffle signs),
which obeys the Leibniz rule exactly and makes the action an exact polynomial
(quadratic + cubic) in the field.  The gradient is the closed-form adjoint of
d and of the cup products; `stationarity_check` confirms it against central
differences of the action along a few fixed random directions.
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


def _fwd(f, axis):
    """Value at x + e_axis of a per-direction field (..., n, n, n, 4); grid
    axes 0..2 are counted from the end, so leading batch axes pass through."""
    return np.roll(f, -1, axis=axis - 4)


def _back(f, axis):
    return np.roll(f, 1, axis=axis - 4)


def _comp(a, i):
    """Component i of a cochain (..., 3, n, n, n, 4): leading axes are a batch,
    then comes the direction (1-cochains) or plaquette (2-cochains) index."""
    return a[..., i, :, :, :, :]


def d_one(a, h: float):
    """Exterior derivative of a 1-cochain: (dA)_ij = D_i A_j - D_j A_i."""
    out = np.empty_like(a)
    for c, (i, j) in enumerate(_PAIRS):
        ai, aj = _comp(a, i), _comp(a, j)
        _comp(out, c)[...] = (_fwd(aj, i) - aj - _fwd(ai, j) + ai) / h
    return out


def cup_11(a, b):
    """Cup product of two 1-cochains into a 2-cochain (component order (01, 02, 12))."""
    out = np.empty_like(a)
    for c, (i, j) in enumerate(_PAIRS):
        _comp(out, c)[...] = (qmul(_comp(a, i), _fwd(_comp(b, j), i))
                              - qmul(_comp(a, j), _fwd(_comp(b, i), j)))
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


def curvature(conn: LatticeConnection) -> np.ndarray:
    """F = dA + A cup A on plaquettes; quaternions of shape (3, n, n, n, 4)."""
    a = conn.components
    return d_one(a, conn.spacing) + cup_11(a, a)


def _actions(a, h: float, level: float):
    """The action of each field in a batch (..., 3, n, n, n, 4), shape (...)."""
    if a.shape[-2] < 4:
        raise ConnectionError_("grid size must be at least 4")
    dens = cup_12_real(a, d_one(a, h)) + (2.0 / 3.0) * cup_12_real(a, cup_11(a, a))
    return (level / 4.0) * np.sum(2.0 * dens, axis=(-3, -2, -1)) * h**3


def cs_action(conn: LatticeConnection, level: float = 1.0) -> float:
    """(k/4) integral of tr[A ^ dA + (2/3) A ^ A ^ A] over the grid torus."""
    return float(_actions(conn.components, conn.spacing, level))


def _u_slot_gradient(v):
    """G with d/dU of T(U, v) = sum_x tr[(U cup v)(x)] equal to sum_x tr(dU G)."""
    return np.stack([_fwd(v[2], 0), -_fwd(v[1], 1), _fwd(v[0], 2)])


def _v_slot_gradient(u):
    """H with d/dV of T(u, V) under the trace pairing, per 2-cochain slot (01, 02, 12)."""
    return np.stack([_back(u[2], 2), -_back(u[1], 1), _back(u[0], 0)])


def action_gradient(conn: LatticeConnection, level: float = 1.0) -> np.ndarray:
    """Exact closed-form gradient of the action w.r.t. the basis coefficients.

    Assembled from the adjoints of d and of the cup products under the trace
    pairing; exact because the cup product obeys the Leibniz rule and the
    grid is closed.  Returns shape (3, n, n, n, 3).
    """
    a, h = conn.components, conn.spacing
    hmat = _v_slot_gradient(a)
    # d/dU of T(U, dA) and of T(U, A cup A)
    g = _u_slot_gradient(d_one(a, h)) + (2.0 / 3.0) * _u_slot_gradient(cup_11(a, a))
    for c, (i, j) in enumerate(_PAIRS):
        hc = hmat[c]
        # d/dW of T(A, dW): adjoint of d applied to the V-slot quaternions
        g[j] += (_back(hc, i) - hc) / h
        g[i] -= (_back(hc, j) - hc) / h
        # d/dW of T(A, W cup A) and of T(A, A cup W)
        g[i] += (2.0 / 3.0) * (qmul(_fwd(a[j], i), hc) - _back(qmul(hc, a[j]), j))
        g[j] -= (2.0 / 3.0) * (qmul(_fwd(a[i], j), hc) - _back(qmul(hc, a[i]), i))

    # derivative along basis element e_k: tr(e_k G) = -2 <e_k, G>
    return (-0.5 * level * h**3) * g[..., _COEFF_SLOTS]


@dataclass(frozen=True)
class StationarityReport:
    grad_norm: float
    curvature_norm: float
    agreement: float


def _batch_fields(n: int) -> int:
    """Perturbed fields per batched action call at grid size n."""
    return max(1, _BATCH_BYTES // (3 * n**3 * 4 * 8))


def stationarity_check(conn: LatticeConnection, step: float = 1e-4, level: float = 1.0) -> StationarityReport:
    """Compare the exact gradient with central differences of the action along
    FD_DIRECTIONS fixed random unit directions, and report both against the
    curvature norm (flat <=> stationary).

    The 2 * FD_DIRECTIONS perturbed actions are evaluated in batches of
    `_batch_fields` fields; each is bit-identical to `cs_action` of that field."""
    if not (1e-6 <= step <= 1e-3):
        raise ValueError("finite-difference step must lie in [1e-6, 1e-3]")
    g = action_gradient(conn, level)
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
        batch = np.zeros((size,) + conn.components.shape)
        for comp in batch:
            comp[..., _COEFF_SLOTS] = next(fields)
        return _actions(batch, conn.spacing, level)

    actions = np.concatenate([batch_actions(min(per_call, total - lo))
                              for lo in range(0, total, per_call)])
    fd = (actions[0::2] - actions[1::2]) / (2 * step)
    agreement = np.linalg.norm(fd - exact) / max(np.linalg.norm(exact), 1e-14)
    return StationarityReport(
        grad_norm=float(np.linalg.norm(g)),
        # Frobenius norm of the 2x2 matrices of `su2`'s convention: sqrt(2) |q|
        curvature_norm=float(np.sqrt(2.0) * np.linalg.norm(curvature(conn))),
        agreement=float(agreement),
    )
