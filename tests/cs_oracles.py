"""Oracles for the lattice Chern-Simons functional of `taut3.chern_simons`.

`cs_action` and `curvature` are the standalone action and F = dA + A cup A of
one field.  `taut3` no longer calls them: `stationarity_check` reads both off
the dA and A cup A that it computes once.

The `roll_*` functions are the kernels as first written: fields of pure
quaternions in the convention of `su2` (`embed`), one `np.roll` per shift and
one `su2.qmul` per product, plaquette by plaquette.  The package's kernels
take the i * Pauli coefficients, shift by slice copies and take one product
per axis, without the quaternions' zero slot; every product and sum keeps its
operands and its order, so they match these bit for bit, apart from the signs
of zeros.  All of them take a leading batch axis.
"""

import numpy as np

from taut3 import chern_simons as cs
from taut3.chern_simons import FD_DIRECTIONS, LatticeConnection, StationarityReport
from taut3.su2 import qmul

_PAIRS = ((0, 1), (0, 2), (1, 2))

# quaternion slot of each su(2) basis coefficient (i * Pauli): E0 -> c, E1 -> b, E2 -> d
COEFF_SLOTS = [2, 1, 3]


def embed(c):
    """The pure quaternions (..., 4) of coefficient vectors c (..., 3)."""
    q = np.zeros(np.shape(c)[:-1] + (4,))
    q[..., COEFF_SLOTS] = c
    return q


def coefficients(q):
    """The coefficient vectors (..., 3) of the vector parts of quaternions
    (..., 4), C-contiguous like the package's arrays."""
    return np.ascontiguousarray(q[..., COEFF_SLOTS])


def cs_action(conn: LatticeConnection, level: float = 1.0) -> float:
    """(k/4) integral of tr[A ^ dA + (2/3) A ^ A ^ A] over the grid torus."""
    return float(cs._actions(conn.components, conn.spacing, level))


def curvature(conn: LatticeConnection) -> np.ndarray:
    """F = dA + A cup A on plaquettes, from the package's kernels; quaternions
    of shape (3, n, n, n, 4)."""
    a = conn.components
    f = embed(cs.d_one(a, conn.spacing) + cs.cup_11(a, a))
    f[..., 0] = cs.cup_11_real(a, a)
    return f


def roll_fwd(f, axis):
    """Value at x + e_axis of a per-direction field (..., n, n, n, 4)."""
    return np.roll(f, -1, axis=axis - 4)


def roll_back(f, axis):
    return np.roll(f, 1, axis=axis - 4)


def comp(a, i):
    """Component i of a cochain (..., 3, n, n, n, 4)."""
    return a[..., i, :, :, :, :]


def roll_d_one(a, h):
    """(dA)_ij = D_i A_j - D_j A_i, one plaquette at a time."""
    out = np.empty_like(a)
    for c, (i, j) in enumerate(_PAIRS):
        ai, aj = comp(a, i), comp(a, j)
        comp(out, c)[...] = (roll_fwd(aj, i) - aj - roll_fwd(ai, j) + ai) / h
    return out


def roll_cup_11(a, b):
    """(A cup B)_ij = A_i B_j(x + e_i) - A_j B_i(x + e_j), two products per plaquette."""
    out = np.empty_like(a)
    for c, (i, j) in enumerate(_PAIRS):
        comp(out, c)[...] = (qmul(comp(a, i), roll_fwd(comp(b, j), i))
                             - qmul(comp(a, j), roll_fwd(comp(b, i), j)))
    return out


def roll_cup_12_real(a, b):
    return (
        qmul(comp(a, 0), roll_fwd(comp(b, 2), 0))[..., 0]
        - qmul(comp(a, 1), roll_fwd(comp(b, 1), 1))[..., 0]
        + qmul(comp(a, 2), roll_fwd(comp(b, 0), 2))[..., 0]
    )


def roll_actions(a, h, level):
    """The action of each field in a batch (..., 3, n, n, n, 4)."""
    dens = roll_cup_12_real(a, roll_d_one(a, h)) + (2.0 / 3.0) * roll_cup_12_real(a, roll_cup_11(a, a))
    return (level / 4.0) * np.sum(2.0 * dens, axis=(-3, -2, -1)) * h**3


def roll_curvature(a, h):
    return roll_d_one(a, h) + roll_cup_11(a, a)


def roll_gradient(a, h, level):
    """The exact gradient w.r.t. the basis coefficients: the U slot of both
    cup_12 products, then the W slot plaquette by plaquette, four products
    each."""

    def u_slot(v):
        return np.stack([roll_fwd(comp(v, 2), 0), -roll_fwd(comp(v, 1), 1), roll_fwd(comp(v, 0), 2)], axis=-5)

    hmat = np.stack([roll_back(comp(a, 2), 2), -roll_back(comp(a, 1), 1), roll_back(comp(a, 0), 0)], axis=-5)
    g = u_slot(roll_d_one(a, h)) + (2.0 / 3.0) * u_slot(roll_cup_11(a, a))
    for c, (i, j) in enumerate(_PAIRS):
        hc, ai, aj = comp(hmat, c), comp(a, i), comp(a, j)
        gi, gj = comp(g, i), comp(g, j)
        gj += (roll_back(hc, i) - hc) / h
        gi -= (roll_back(hc, j) - hc) / h
        gi += (2.0 / 3.0) * (qmul(roll_fwd(aj, i), hc) - roll_back(qmul(hc, aj), j))
        gj -= (2.0 / 3.0) * (qmul(roll_fwd(ai, j), hc) - roll_back(qmul(hc, ai), i))
    return (-0.5 * level * h**3) * coefficients(g)


def loop_stationarity_check(conn: LatticeConnection, step: float = 1e-4, level: float = 1.0):
    """`stationarity_check` as first written, on the roll kernels: one action
    call per perturbed field, directions drawn in the same order, and the
    action, gradient and curvature each computed from the field afresh.  The
    norms are taken as the package takes them: the coefficients in C order,
    and the curvature's real part apart."""
    c0, h = conn.components, conn.spacing
    a = embed(c0)
    g = roll_gradient(a, h, level)

    def action_at(c):
        return float(roll_actions(embed(c), h, level))

    rng = np.random.default_rng(0)
    fd, exact = [], []
    for _ in range(FD_DIRECTIONS):
        v = rng.standard_normal(c0.shape)
        v /= np.linalg.norm(v)
        fd.append((action_at(c0 + step * v) - action_at(c0 - step * v)) / (2 * step))
        exact.append(np.sum(g * v))
    agreement = np.linalg.norm(np.subtract(fd, exact)) / max(np.linalg.norm(exact), 1e-14)
    f = roll_curvature(a, h)
    fc, re = coefficients(f), np.ascontiguousarray(f[..., 0])
    return StationarityReport(
        action=float(roll_actions(a, h, level)),
        grad_norm=float(np.linalg.norm(g)),
        curvature_norm=float(np.sqrt(2.0 * (np.vdot(fc, fc) + np.vdot(re, re)))),
        agreement=float(agreement),
    )
