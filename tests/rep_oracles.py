"""Oracles for the exact flat SU(2) moduli of `taut3.su2reps`.

- `search_reps`: a numerical search.  A gauge-fixed seed grid is refined by
  damped batched Gauss-Newton on the relator equations, and the converged
  points are deduplicated in conjugation-invariant trace coordinates.  It
  knows nothing of the presentation's shape, so converging only to
  constructed classes is an independent check that there are no others.
- `brieskorn_sigma`: the signature that fixes the number of irreducible
  classes of a Brieskorn sphere, 2|sigma/8|.
- `is_irreducible`: whether some pair of a rep's generator images fails to
  commute.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from su2_oracles import qexp, qlog, random_unit
from taut3 import su2, su2reps
from taut3.su2reps import RepModuli, evaluate_word, trace_coordinates


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-10
    dedup_tolerance: float = 1e-6
    grid_density: int = 9
    random_seeds: int = 400
    max_iterations: int = 80
    seed: int = 0


def _relator_logs(images, relators):
    """One evaluation of the relator words: their su(2) logs, flattened to shape
    (..., 3 * len(relators)), and their max operator-norm deviation from the identity."""
    words = [evaluate_word(images, r) for r in relators]
    devs = np.stack([su2.dist_to_identity(w) for w in words], axis=-1)
    return np.concatenate([qlog(w) for w in words], axis=-1), np.max(devs, axis=-1)


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
                bumped[:, j, :] = su2.qmul(images[:, j, :], qexp(step))
                res_p = _relator_logs(bumped, relators)[0]
                bumped[:, j, :] = su2.qmul(images[:, j, :], qexp(-step))
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
                trial[:, j, :] = su2.qmul(images[:, j, :], qexp(sv[:, j, :]))
            trial_res, dev = _relator_logs(trial, relators)
            new = np.linalg.norm(trial_res, axis=-1)
            worse = (new > cur) & active & (scale > 1e-6)
            if not np.any(worse):
                break
            scale[worse] *= 0.5
        # the last round evaluated the accepted iterate
        images, res = trial, trial_res
    return images


def _seed_grid(p, cfg: SolverConfig):
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
    rest = random_unit(rng, (take, g - 2))
    return np.concatenate([seeds, rest], axis=1)


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


def search_reps(p, cfg: SolverConfig = SolverConfig()) -> RepModuli:
    """The classes that the seeded search converges to, as far as it sees them."""
    seeds = _seed_grid(p, cfg)
    refined = _gauss_newton(seeds, p.relators, cfg)
    dev = su2reps.relator_residual(refined, p.relators)
    ok = dev <= cfg.tolerance
    images_list = [refined[i] for i in np.nonzero(ok)[0]]
    pairs = _dedup(images_list, list(dev[ok]), cfg.dedup_tolerance)
    return RepModuli(tuple(su2reps._make_rep(im, r, trace_coordinates(im)) for im, r in pairs))


def brieskorn_sigma(p, q, r):
    """Signature of the Milnor fibre of x^p + y^q + z^r (Brieskorn 1966): the
    lattice points (i, j, k), 0 < i < p etc., with s = i/p + j/q + k/r in
    (0, 1) mod 2, minus those with s in (1, 2) mod 2."""
    count = 0
    for i, j, k in itertools.product(range(1, p), range(1, q), range(1, r)):
        s = (Fraction(i, p) + Fraction(j, q) + Fraction(k, r)) % 2
        count += (0 < s < 1) - (1 < s < 2)
    return count


def is_irreducible(rep, tol: float = 1e-6) -> bool:
    """True iff some pair of generator images fails to commute:
    tr[g_i, g_j] < 2 - tol for some i, j."""
    return su2reps._any_noncommuting(rep.images_array(), tol)
