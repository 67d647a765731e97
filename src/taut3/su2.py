"""Unit-quaternion model of SU(2), vectorized over leading axes.

A quaternion (a, b, c, d) corresponds to the matrix
    [[a + d i,  b + c i],
     [-b + c i, a - d i]]
so trace = 2a and the identity is (1, 0, 0, 0).  All functions accept arrays
of shape (..., 4) and broadcast.
"""

from __future__ import annotations

import numpy as np

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def qmul(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a1, b1, c1, d1 = np.moveaxis(p, -1, 0)
    a2, b2, c2, d2 = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        ],
        axis=-1,
    )


def qconj(q):
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def qpow(q, n: int):
    if n < 0:
        return qpow(qconj(q), -n)
    out = np.broadcast_to(IDENTITY, np.shape(q)).copy()
    base = np.asarray(q, dtype=float)
    while n:
        if n & 1:
            out = qmul(out, base)
        base_sq = qmul(base, base)
        base = base_sq
        n >>= 1
    return out


def qtrace(q):
    return 2.0 * np.asarray(q, dtype=float)[..., 0]


def dist_to_identity(q):
    """Operator-norm distance |U - I| = |q - 1|, which is 2 |sin(theta/2)| for a
    unit quaternion, accurate to relative rounding even next to the identity."""
    return np.linalg.norm(np.asarray(q, dtype=float) - IDENTITY, axis=-1)


def to_matrix(q):
    q = np.asarray(q, dtype=float)
    a, b, c, d = np.moveaxis(q, -1, 0)
    m = np.empty(np.shape(a) + (2, 2), dtype=complex)
    m[..., 0, 0] = a + 1j * d
    m[..., 0, 1] = b + 1j * c
    m[..., 1, 0] = -b + 1j * c
    m[..., 1, 1] = a - 1j * d
    return m
