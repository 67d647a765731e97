"""Quaternion helpers that only the tests use: normalisation, the exponential
chart of SU(2) and its inverse (the Gauss-Newton search of `rep_oracles`
steps in it), axis-angle elements, random unit quaternions and the 2x2
complex matrices of the `taut3.su2` convention.

Quaternions follow `taut3.su2`: (a, b, c, d) with trace 2a, as arrays of shape
(..., 4).
"""

import numpy as np


def qnormalize(q):
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def qexp(v):
    """Exponential of the imaginary quaternion (0, v): axis-angle chart."""
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v, axis=-1, keepdims=True)
    small = theta < 1e-30
    sinc = np.where(small, 1.0, np.sin(theta) / np.where(small, 1.0, theta))
    return np.concatenate([np.cos(theta), sinc * v], axis=-1)


def qlog(q):
    """Imaginary part of log: inverse of qexp on the unit group, values in su(2)."""
    q = np.asarray(q, dtype=float)
    a = np.clip(q[..., 0], -1.0, 1.0)
    v = q[..., 1:]
    vn = np.linalg.norm(v, axis=-1, keepdims=True)
    theta = np.arctan2(vn[..., 0], a)[..., None]
    small = vn < 1e-30
    scale = np.where(small, 1.0, theta / np.where(small, 1.0, vn))
    return scale * v


def from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis, axis=-1, keepdims=True)
    angle = np.asarray(angle, dtype=float)[..., None]
    return np.concatenate([np.cos(angle), np.sin(angle) * axis], axis=-1)


def random_unit(rng, shape=()):
    return qnormalize(rng.normal(size=shape + (4,)))


def to_matrix(q):
    """The matrix [[a + d i, b + c i], [-b + c i, a - d i]] of each quaternion."""
    q = np.asarray(q, dtype=float)
    a, b, c, d = np.moveaxis(q, -1, 0)
    m = np.empty(np.shape(a) + (2, 2), dtype=complex)
    m[..., 0, 0] = a + 1j * d
    m[..., 0, 1] = b + 1j * c
    m[..., 1, 0] = -b + 1j * c
    m[..., 1, 1] = a - 1j * d
    return m
