"""Exact SU(2) representation varieties of the built-in presentations.

Cyclic groups: the characters into the maximal torus.  Brieskorn spheres
(Fintushel-Stern 1990): every irreducible class sends the central element to
eps = +-1, each generator of finite order to a rotation by a multiple of
pi/order fixed by eps, and there is one class per triple of such angles that
satisfies the strict spherical triangle inequality; the only reducible class
is the trivial one.  Presentations with betti_1 > 0 are refused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import su2
from .presentations import CyclicShape, GroupPresentation, SeifertShape, TriangleShape

RESIDUAL_TOLERANCE = 1e-10  # largest relator residual accepted for a class
TRACE_ROUNDING = 1e-6  # classes are ordered by trace coordinates rounded to this


class RegularityError(RuntimeError):
    """The Casson-style count does not apply: some twisted H^1 is nonzero."""


class ModuliNotFiniteError(RuntimeError):
    """The representation moduli are not a finite set (betti_1 > 0)."""


@dataclass(frozen=True)
class Su2Element:
    """Unit quaternion; renormalized on construction."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        n = np.sqrt(self.a**2 + self.b**2 + self.c**2 + self.d**2)
        if abs(n - 1.0) > 1e-6:
            raise ValueError("quaternion too far from the unit sphere")
        object.__setattr__(self, "a", self.a / n)
        object.__setattr__(self, "b", self.b / n)
        object.__setattr__(self, "c", self.c / n)
        object.__setattr__(self, "d", self.d / n)

    @property
    def quaternion(self):
        return np.array([self.a, self.b, self.c, self.d])

    @classmethod
    def from_array(cls, q):
        q = np.asarray(q, dtype=float)
        return cls(float(q[0]), float(q[1]), float(q[2]), float(q[3]))


@dataclass(frozen=True)
class Su2Rep:
    generator_images: tuple
    trace_coords: np.ndarray
    irreducible: bool
    residual: float

    def images_array(self):
        return np.stack([g.quaternion for g in self.generator_images])


@dataclass(frozen=True)
class RepModuli:
    classes: tuple


def evaluate_word(images, word):
    """Product of generator images along a word; images shape (..., g, 4)."""
    images = np.asarray(images, dtype=float)
    lead = images.shape[:-2]
    out = np.broadcast_to(su2.IDENTITY, lead + (4,)).copy()
    for g, e in word:
        out = su2.qmul(out, su2.qpow(images[..., g, :], e))
    return out


def relator_residual(images, relators):
    """Max operator-norm deviation of the relator images from the identity."""
    devs = [su2.dist_to_identity(evaluate_word(images, r)) for r in relators]
    return np.max(np.stack(devs, axis=-1), axis=-1)


def trace_coordinates(images):
    """Traces of generator images and of pairwise products (conjugation invariants)."""
    images = np.asarray(images, dtype=float)
    g = images.shape[-2]
    cols = [su2.qtrace(images[..., i, :]) for i in range(g)]
    for i, j in itertools.combinations(range(g), 2):
        cols.append(su2.qtrace(su2.qmul(images[..., i, :], images[..., j, :])))
    return np.stack(cols, axis=-1)


def _any_noncommuting(images, tol):
    """True iff some pair of generator images fails to commute:
    tr[g_i, g_j] < 2 - tol for some i, j."""
    g = images.shape[-2]
    for i, j in itertools.combinations(range(g), 2):
        comm = su2.qmul(
            su2.qmul(images[..., i, :], images[..., j, :]),
            su2.qmul(su2.qconj(images[..., i, :]), su2.qconj(images[..., j, :])),
        )
        if np.any(su2.qtrace(comm) < 2.0 - tol):
            return True
    return False


def _cyclic_classes(order: int):
    """Characters of Z/order into the maximal torus, modulo Weyl inversion."""
    classes = []
    for k in range(order // 2 + 1):
        ang = 2.0 * np.pi * k / order
        q = np.array([[np.cos(ang), 0.0, 0.0, np.sin(ang)]])
        classes.append(q)
    return classes


def _spherical_triangle(x, y, z, n):
    """Strict spherical triangle inequality for the side angles x, y, z (times
    pi/n), in integers: it holds exactly when rotations by x and y whose
    product is a rotation by z fail to commute."""
    return abs(x - y) < z < min(x + y, 2 * n - x - y)


def _rotation_pair(t1, t2, gamma):
    """Rotations by t1 (axis d) and t2 (axis in the b-d plane) with
    Re(x1 x2) = cos(gamma); Re(x1 x2) = cos t1 cos t2 - sin t1 sin t2 u_d."""
    u = (math.cos(t1) * math.cos(t2) - math.cos(gamma)) / (math.sin(t1) * math.sin(t2))
    x1 = [math.cos(t1), 0.0, 0.0, math.sin(t1)]
    x2 = [math.cos(t2), math.sin(t2) * math.sqrt(1.0 - u * u), 0.0, math.sin(t2) * u]
    return x1, x2


def _triangle_classes(shape: TriangleShape):
    """<s, t | s^b = t^c = (st)^a>: s, t, st rotate by k pi/b, l pi/c, m pi/a
    with s^b = (-1)^k, t^c = (-1)^l, (st)^a = (-1)^m all equal."""
    a, b, c = shape.a, shape.b, shape.c
    n = a * b * c
    out = [np.array([su2.IDENTITY, su2.IDENTITY])]
    for k, l, m in itertools.product(range(1, b), range(1, c), range(1, a)):
        if k % 2 == l % 2 == m % 2 and _spherical_triangle(k * a * c, l * a * b, m * b * c, n):
            out.append(np.array(_rotation_pair(k * math.pi / b, l * math.pi / c, m * math.pi / a)))
    return out


def _seifert_classes(shape: SeifertShape):
    """<x1, x2, x3, h | [x_i, h], x_i^alpha_i h^beta_i, x1 x2 x3 h^b0>: h goes to
    eps = +-1 and x_i to a rotation by k_i pi/alpha_i, k_i odd exactly when
    eps^beta_i = -1; then x3 = eps^b0 (x1 x2)^-1, so x1 x2 rotates by gamma =
    theta_3 or pi - theta_3."""
    alphas, betas = shape.alphas, shape.betas
    n = math.prod(alphas)
    out = [np.array([su2.IDENTITY] * 4)]
    for eps in (1, -1):
        # eps^e = -1 exactly when eps = -1 and e is odd
        ks = [range(1 if eps == -1 and beta % 2 else 2, alpha, 2)
              for alpha, beta in zip(alphas, betas)]
        flip = eps == -1 and shape.b0 % 2 == 1
        for k1, k2, k3 in itertools.product(*ks):
            x, y, z = (k * n // alpha for k, alpha in zip((k1, k2, k3), alphas))
            if not _spherical_triangle(x, y, n - z if flip else z, n):
                continue
            t1, t2, t3 = (k * math.pi / alpha for k, alpha in zip((k1, k2, k3), alphas))
            x1, x2 = _rotation_pair(t1, t2, math.pi - t3 if flip else t3)
            x3 = (-1.0 if flip else 1.0) * su2.qconj(su2.qmul(x1, x2))
            out.append(np.array([x1, x2, x3, [eps, 0.0, 0.0, 0.0]]))
    return out


def require_finite_moduli(p: GroupPresentation) -> None:
    """Refuse positive betti_1, where the moduli form positive-dimensional families."""
    if p.h1.betti_1 > 0:
        raise ModuliNotFiniteError(
            f"{p.label}: betti_1 > 0, representation moduli form positive-dimensional "
            "families, not a finite set of classes"
        )


def _make_rep(images, residual, coords=None):
    elems = tuple(Su2Element.from_array(q) for q in images)
    return Su2Rep(
        generator_images=elems,
        trace_coords=trace_coordinates(images) if coords is None else coords,
        irreducible=_any_noncommuting(images, 1e-6),
        residual=float(residual),
    )


def enumerate_reps(p: GroupPresentation) -> RepModuli:
    """All conjugacy classes of homomorphisms pi_1 -> SU(2), constructed exactly
    from the presentation's shape; each class is checked against the relators."""
    require_finite_moduli(p)
    if isinstance(p.shape, CyclicShape):
        images = np.stack(_cyclic_classes(p.shape.order))
    elif isinstance(p.shape, TriangleShape):
        images = np.stack(_triangle_classes(p.shape))
    elif isinstance(p.shape, SeifertShape):
        images = np.stack(_seifert_classes(p.shape))
    else:
        raise ValueError(f"{p.label or 'presentation'}: no exact construction of the flat moduli")
    residuals = relator_residual(images, p.relators)
    if np.max(residuals) > RESIDUAL_TOLERANCE:
        raise AssertionError(
            f"{p.label}: a constructed class misses the relators by {np.max(residuals):.1e}"
        )
    coords = trace_coordinates(images)
    order = range(len(images))  # cyclic classes stay in the order of their characters
    if not isinstance(p.shape, CyclicShape):
        keys = np.round(coords / TRACE_ROUNDING).astype(np.int64)
        order = sorted(order, key=lambda i: tuple(keys[i]))
    return RepModuli(tuple(_make_rep(images[i], residuals[i], coords[i]) for i in order))


def casson_count(m: RepModuli, regularity) -> int:
    """Unsigned Casson-type count: number of irreducible classes, each weighted +1.

    regularity: twisted first-cohomology dimension for each irreducible class,
    in the order they appear in m.classes.  Any nonzero entry is a regularity
    violation and the count is refused.
    """
    irr = [r for r in m.classes if r.irreducible]
    regularity = list(regularity)
    if len(regularity) != len(irr):
        raise ValueError("need one twisted-H^1 dimension per irreducible class")
    bad = [i for i, h in enumerate(regularity) if h != 0]
    if bad:
        raise RegularityError(
            f"irreducible classes {bad} have twisted H^1 != 0; the counting construction does not apply"
        )
    return len(irr)
