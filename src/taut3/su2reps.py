"""Enumeration of SU(2) representation varieties of finitely presented groups.

Strategy: exact character enumeration for cyclic groups; for multi-generator
groups a gauge-fixed seed grid refined by damped Gauss-Newton on the relator
equations, followed by deduplication in conjugation-invariant trace
coordinates.
"""

from __future__ import annotations

import itertools
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from . import su2
from .presentations import GroupPresentation


class RegularityError(RuntimeError):
    """The Casson-style count does not apply: some twisted H^1 is nonzero."""


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-10
    dedup_tolerance: float = 1e-6
    grid_density: int = 9
    random_seeds: int = 400
    max_iterations: int = 80
    seed: int = 0


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
    warnings: tuple = ()


def evaluate_word(images, word):
    """Product of generator images along a word; images shape (..., g, 4)."""
    images = np.asarray(images, dtype=float)
    lead = images.shape[:-2]
    out = np.broadcast_to(su2.IDENTITY, lead + (4,)).copy()
    for g, e in word:
        out = su2.qmul(out, su2.qpow(images[..., g, :], e))
    return out


def _relator_logs(images, relators):
    """One evaluation of the relator words: their su(2) logs, flattened to shape
    (..., 3 * len(relators)), and their max operator-norm deviation from the identity."""
    words = [evaluate_word(images, r) for r in relators]
    devs = np.stack([su2.dist_to_identity(w) for w in words], axis=-1)
    return np.concatenate([su2.qlog(w) for w in words], axis=-1), np.max(devs, axis=-1)


def relator_residual(images, relators):
    """Max operator-norm deviation of the relator images from the identity."""
    return _relator_logs(images, relators)[1]


def trace_coordinates(images):
    """Traces of generator images and of pairwise products (conjugation invariants)."""
    images = np.asarray(images, dtype=float)
    g = images.shape[-2]
    cols = [su2.qtrace(images[..., i, :]) for i in range(g)]
    for i, j in itertools.combinations(range(g), 2):
        cols.append(su2.qtrace(su2.qmul(images[..., i, :], images[..., j, :])))
    return np.stack(cols, axis=-1)


def is_irreducible(rep: Su2Rep, tol: float = 1e-6) -> bool:
    """True iff some pair of generator images fails to commute:
    tr[g_i, g_j] < 2 - tol for some i, j."""
    images = rep.images_array()
    return _any_noncommuting(images, tol)


def _any_noncommuting(images, tol):
    g = images.shape[-2]
    for i, j in itertools.combinations(range(g), 2):
        comm = su2.qmul(
            su2.qmul(images[..., i, :], images[..., j, :]),
            su2.qmul(su2.qconj(images[..., i, :]), su2.qconj(images[..., j, :])),
        )
        if np.any(su2.qtrace(comm) < 2.0 - tol):
            return True
    return False


def _gauss_newton(images, relators, cfg: SolverConfig):
    """Damped batched Gauss-Newton on the relator map SU(2)^g -> SU(2)^r."""
    n, g, _ = images.shape
    eps = 1e-6
    res, dev = _relator_logs(images, relators)
    for _ in range(cfg.max_iterations):
        active = dev > cfg.tolerance * 0.1
        if not np.any(active):
            break
        jac = np.empty((n, res.shape[-1], 3 * g))
        for j in range(g):
            for k in range(3):
                step = np.zeros(3)
                step[k] = eps
                bumped = images.copy()
                bumped[:, j, :] = su2.qmul(images[:, j, :], su2.qexp(step))
                res_p = _relator_logs(bumped, relators)[0]
                bumped[:, j, :] = su2.qmul(images[:, j, :], su2.qexp(-step))
                res_m = _relator_logs(bumped, relators)[0]
                jac[:, :, 3 * j + k] = (res_p - res_m) / (2 * eps)
        step = -np.einsum("nij,nj->ni", np.linalg.pinv(jac, rcond=1e-8), res)
        # damping 0.5 while the residual increases
        cur = np.linalg.norm(res, axis=-1)
        scale = np.ones(n)
        for _ in range(12):
            trial = images.copy()
            sv = (scale[:, None] * step).reshape(n, g, 3)
            for j in range(g):
                trial[:, j, :] = su2.qmul(images[:, j, :], su2.qexp(sv[:, j, :]))
            trial_res, dev = _relator_logs(trial, relators)
            new = np.linalg.norm(trial_res, axis=-1)
            worse = (new > cur) & active & (scale > 1e-6)
            if not np.any(worse):
                break
            scale[worse] *= 0.5
        # the last round evaluated the accepted iterate
        images, res = trial, trial_res
    return images


def _seed_grid(p: GroupPresentation, cfg: SolverConfig):
    """Gauge-fixed seeds: first image diagonal, second in the c = 0 slice,
    further generators randomized (deterministic given cfg.seed)."""
    g = p.num_generators
    m = cfg.grid_density
    alphas = np.linspace(0.0, np.pi, m)
    g0 = np.stack([np.cos(alphas), np.zeros(m), np.zeros(m), np.sin(alphas)], axis=-1)
    if g == 1:
        return g0[:, None, :]
    betas = np.linspace(0.0, np.pi, m)
    gammas = np.linspace(-np.pi / 2, np.pi / 2, m)
    b, c = np.meshgrid(betas, gammas, indexing="ij")
    b, c = b.ravel(), c.ravel()
    g1 = np.stack([np.cos(b), np.sin(b) * np.cos(c), np.zeros_like(b), np.sin(b) * np.sin(c)], axis=-1)
    seeds0 = np.repeat(g0, len(g1), axis=0)
    seeds1 = np.tile(g1, (m, 1))
    seeds = np.stack([seeds0, seeds1], axis=1)
    if g == 2:
        return seeds
    rng = np.random.default_rng(cfg.seed)
    take = min(len(seeds), cfg.random_seeds)
    idx = rng.choice(len(seeds), size=take, replace=False)
    seeds = seeds[idx]
    rest = su2.random_unit(rng, (take, g - 2))
    return np.concatenate([seeds, rest], axis=1)


def _cyclic_classes(order: int):
    """Characters of Z/order into the maximal torus, modulo Weyl inversion."""
    classes = []
    for k in range(order // 2 + 1):
        ang = 2.0 * np.pi * k / order
        q = np.array([[np.cos(ang), 0.0, 0.0, np.sin(ang)]])
        classes.append(q)
    return classes


def _dedup(images_list, residuals, dedup_tol):
    """Deduplicate by trace coordinates; deterministic canonical order."""
    if not images_list:
        return []
    coords = np.stack([trace_coordinates(im) for im in images_list])
    order = np.lexsort(np.round(coords / dedup_tol).astype(np.int64).T[::-1])
    kept = []
    for i in order:
        if any(np.max(np.abs(coords[i] - coords[j])) < dedup_tol for j, _ in kept):
            # keep the representative with the smaller residual
            for idx, (j, _) in enumerate(kept):
                if np.max(np.abs(coords[i] - coords[j])) < dedup_tol and residuals[i] < residuals[j]:
                    kept[idx] = (i, images_list[i])
            continue
        kept.append((i, images_list[i]))
    kept.sort(key=lambda t: tuple(np.round(coords[t[0]] / dedup_tol).astype(np.int64)))
    return [(images_list[i], residuals[i]) for i, _ in kept]


def _make_rep(images, residual):
    elems = tuple(Su2Element.from_array(q) for q in images)
    return Su2Rep(
        generator_images=elems,
        trace_coords=trace_coordinates(images),
        irreducible=_any_noncommuting(images, 1e-6),
        residual=float(residual),
    )


def enumerate_reps(p: GroupPresentation, cfg: SolverConfig = SolverConfig()) -> RepModuli:
    """All conjugacy classes of homomorphisms pi_1 -> SU(2), as far as the
    solver can see them.  Exact for cyclic groups; grid + Gauss-Newton with
    trace-coordinate dedup otherwise."""
    warns = []
    h1 = p.h1
    if h1.betti_1 > 0:
        msg = (f"{p.label or 'presentation'}: betti_1 = {h1.betti_1} > 0, moduli may be "
               "positive-dimensional; enumeration is grid-limited")
        warns.append(msg)
        _warnings.warn(msg, stacklevel=2)

    if p.num_generators == 1:
        order = abs(p.relators[0][0][1]) if p.relators and p.relators[0] else 0
        if order == 0:
            raise ValueError("free cyclic group has a circle of representations")
        pairs = [(im, 0.0) for im in _cyclic_classes(order)]
    else:
        seeds = _seed_grid(p, cfg)
        refined = _gauss_newton(seeds, p.relators, cfg)
        dev = relator_residual(refined, p.relators)
        ok = dev <= cfg.tolerance
        images_list = [refined[i] for i in np.nonzero(ok)[0]]
        residuals = dev[ok]
        pairs = _dedup(images_list, list(residuals), cfg.dedup_tolerance)

    classes = tuple(_make_rep(im, r) for im, r in pairs)
    if not classes:
        msg = f"{p.label or 'presentation'}: no representations found (diagnostic: check tolerances)"
        warns.append(msg)
        _warnings.warn(msg, stacklevel=2)
    if len(classes) > 60:
        msg = (f"{p.label or 'presentation'}: {len(classes)} classes after dedup; "
               "likely a positive-dimensional component sampled on the grid")
        if msg not in warns:
            warns.append(msg)
            _warnings.warn(msg, stacklevel=2)
    return RepModuli(classes=classes, warnings=tuple(warns))


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
