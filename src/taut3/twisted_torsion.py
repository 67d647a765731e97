"""Torsion and the Casson certificate of flat SU(2) classes, from the presentation.

An acyclic class rho has torsion t = (2 - tr rho(h))^(n-2) / prod_j (2 - tr rho(c_j))
over the n core words c_j and the fibre h of the presentation's shape (no
numerator without a fibre): Reidemeister-Franz torsion on L(p, q) (Milnor 1966,
"Whitehead torsion", §12), Freed's formula on Sigma(p, q, r) with rho(h) = -1
(Freed 1992).  Each word is evaluated once over all classes, and 2 - tr U is
read as |U - 1|^2, which keeps its relative accuracy next to the identity.  The
Casson certificate is H^1(pi; Ad rho), from the Fox derivatives of the
relators (Fox 1953) under Ad rho, the Jacobian of the relator map at rho.

The twisted cellular complex of a presentation with its 3-cell is the reference
that the benchmark's oracle checks against.  Its blocks use the transposed
representation (an anti-homomorphism), which makes the fundamental identity
w - 1 = sum_j (dw/dx_j)(x_j - 1) translate into D1 @ D2 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import su2
from .presentations import GroupPresentation, builtin_presentation
from .su2reps import RESIDUAL_TOLERANCE, RepModuli, Su2Rep, evaluate_word, require_finite_moduli

# singular values of the Ad rho Fox matrix below this fraction of the largest
# count as zero: over the 80596 irreducible classes of 93 Brieskorn spheres up to
# pqr = 30000, the kept ones are at least 3.7e-6 of the largest, the others at most 8e-14.
# Against the longest relator length l, over the 92322 irreducible classes of the
# 1113 spheres with pqr <= 2000: the largest is at least 0.59 l, the kept ones at
# least 1.6e-4 l, the others at most 2e-14 l; so 1e-8 l is the rank rule's floor.
RANK_TOLERANCE = 1e-8


def cw_structure(family: str, *params) -> GroupPresentation:
    """The built-in presentation of a family, refused unless it has a 3-cell."""
    p = builtin_presentation(family, *params)
    if p.d3_words is None:
        raise ValueError(f"no frozen CW structure for {p.label}")
    return p


@dataclass(frozen=True)
class TwistedComplex:
    """Boundary matrices D1: C1->C0, D2: C2->C1, D3: C3->C2 (complex entries)."""

    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray


def _geometric(m, e: int):
    """(1 + m + ... + m^(e-1), m^e) for matrices m of shape (..., k, k) and
    e >= 0, by binary powering: S(a + b) = S(a) + m^a S(b)."""
    total, power = np.zeros_like(m), np.broadcast_to(np.eye(m.shape[-1]), m.shape)
    run_sum, run = power, m  # S(2^n), m^(2^n)
    while e:
        if e & 1:
            total, power = total + power @ run_sum, power @ run
        e >>= 1
        if e:
            run_sum, run = run_sum + run @ run_sum, run @ run
    return total, power


def _fox_images(relators, images) -> np.ndarray:
    """Images of the Fox derivatives dr_i/dx_j under a unitary representation,
    shape (..., r, g, k, k) for generator images of shape (..., g, k, k).  One
    walk per relator, a run x_j^e at a time: the run adds prefix (1 + x_j + ...
    + x_j^(e-1)) to entry (i, j) if e > 0 and -prefix (x_j^-1 + ... + x_j^e)
    if e < 0, where prefix is the image of the letters before it."""
    images = np.asarray(images)
    *lead, g, k, _ = images.shape
    out = np.zeros((*lead, len(relators), g, k, k), dtype=images.dtype)
    for i, r in enumerate(relators):
        prefix = np.broadcast_to(np.eye(k), (*lead, k, k))
        for j, e in r:
            step = images[..., j, :, :] if e > 0 else images[..., j, :, :].conj().swapaxes(-1, -2)
            total, power = _geometric(step, abs(e))
            out[..., i, j, :, :] += prefix @ total if e > 0 else -(prefix @ step @ total)
            prefix = prefix @ power
    return out


def build_twisted_complex(p: GroupPresentation, rep: Su2Rep) -> TwistedComplex:
    """Representation images of the boundary words of `p`'s cells: block (k, l)
    of each boundary matrix is tau(w)^T for the group-ring element w there."""
    images = rep.images_array()
    cells = np.array([sum(c * evaluate_word(images, w) for c, w in cell) for cell in p.d3_words])
    # tau(q) = [[a + d i, b + c i], [-b + c i, a - d i]], linear in q = (a, b, c, d)
    a, b, c, d = np.moveaxis(np.concatenate([images, cells]), -1, 0)
    tau = np.stack([a + 1j * d, b + 1j * c, -b + 1j * c, a - 1j * d], axis=-1).reshape(-1, 2, 2)
    g = len(images)
    blocks = ((tau[:g] - np.eye(2))[None], _fox_images(p.relators, tau[:g]).swapaxes(0, 1),
              tau[g:, None])
    d1, d2, d3 = (b.transpose(0, 3, 1, 2).reshape(2 * b.shape[0], 2 * b.shape[1]) for b in blocks)
    scale = max(1.0, *(np.linalg.norm(b, 2) for b in (d1, d2, d3)))
    if np.linalg.norm(d1 @ d2, 2) > 1e-8 * scale or np.linalg.norm(d2 @ d3, 2) > 1e-8 * scale:
        raise AssertionError(f"{p.label}: boundary matrices do not compose to zero")
    return TwistedComplex(d1, d2, d3)


def sv_torsion_oracle(c: TwistedComplex) -> float:
    """Independent route to log T via singular values of the boundary maps.

    With L_i = sum of log of the nonzero singular values squared of D_i, the
    nonzero spectrum of Delta_i splits as spec(D_i^H D_i) U spec(D_{i+1} D_{i+1}^H),
    so log T = (1/2) sum_i (-1)^i i (L_i + L_{i+1}).
    """
    ls = [0.0] * 5
    for i, d in enumerate((c.d1, c.d2, c.d3), 1):
        sv = np.linalg.svd(d, compute_uv=False)
        cut = 1e-10 * max(1.0, sv[0] if sv.size else 1.0)
        ls[i] = float(np.sum(2.0 * np.log(sv[sv > cut])))
    return 0.5 * sum((-1) ** i * i * (ls[i] + ls[i + 1]) for i in range(4))


@dataclass(frozen=True)
class TorsionResult:
    log_t: float
    t: float
    acyclic: bool  # else the torsion depends on the metric


@dataclass(frozen=True)
class TorsionSumResult:
    total: float | None  # None where a class is left out
    irreducible_subtotal: float | None  # None where an irreducible class is left out
    per_class: tuple  # (trace_coords, TorsionResult, irreducible) triples
    notes: tuple


def torsion_sum(p: GroupPresentation, moduli: RepModuli) -> TorsionSumResult:
    """Torsions of the classes of `moduli`, the flat moduli of `p`, and their sums.

    A class is acyclic when no core goes to 1 and the fibre goes to -1; it gets
    the core formula.  The trivial class gets the cellular value 2 log|H_1|
    where `p` carries its 3-cell.  Every other class (the trivial one without a
    3-cell, and those that send the fibre to +1) is left out with a note, and
    so is every sum over it.  Positive betti_1 (positive-dimensional moduli) is
    refused.
    """
    require_finite_moduli(p)
    shape = p.shape
    images = np.stack([r.images_array() for r in moduli.classes])
    d = np.stack([su2.dist_to_identity(evaluate_word(images, w)) for w in shape.cores])
    acyclic = np.all(d > RESIDUAL_TOLERANCE, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 where a class is not acyclic
        log_t = -2.0 * np.sum(np.log(d), axis=0)
        if shape.fibre is not None:
            fibre = evaluate_word(images, shape.fibre)
            acyclic &= su2.qtrace(fibre) < 0
            log_t += 2.0 * (len(d) - 2) * np.log(su2.dist_to_identity(fibre))
    trivial = np.all(su2.dist_to_identity(images) <= RESIDUAL_TOLERANCE, axis=-1)
    cellular = None if p.d3_words is None else 2.0 * math.log(math.prod(p.h1.torsion_coefficients))
    per_class, notes, left_out = [], [], []
    for rep, lt, ok, triv in zip(moduli.classes, log_t, acyclic, trivial):
        if ok:
            res = TorsionResult(log_t=float(lt), t=float(np.exp(lt)), acyclic=True)
        else:
            where = f"class {np.round(rep.trace_coords, 6).tolist()}: not acyclic"
            if triv and cellular is not None:
                res = TorsionResult(log_t=cellular, t=math.exp(cellular), acyclic=False)
                notes.append(f"{where}, torsion is metric-dependent")
            else:
                left_out.append(rep)
                notes.append(f"{where}, left out: " + (
                    "the trivial class has no cellular torsion without a 3-cell" if triv
                    else "the fibre goes to +1"))
                continue
        per_class.append((tuple(float(x) for x in rep.trace_coords), res, rep.irreducible))
    notes.append("finiteness of the flat-moduli set is what makes this sum a single number")
    total = None if left_out else float(sum(res.t for _tc, res, _irr in per_class))
    irr_total = None if any(r.irreducible for r in left_out) else float(
        sum(res.t for _tc, res, irr in per_class if irr))
    return TorsionSumResult(total=total, irreducible_subtotal=irr_total,
                            per_class=tuple(per_class), notes=tuple(notes))


def adjoint_h1_dims(p: GroupPresentation, moduli: RepModuli) -> list:
    """dim H^1(pi; Ad rho) of each irreducible class of `moduli`, in order.

    The Fox matrix of the relators under Ad rho is the Jacobian of the relator
    map at rho, whose kernel is the space of cocycles; an irreducible rho fixes
    no vector, so its coboundaries span 3 dimensions and dim H^1 =
    3g - rank - 3 (Weil 1964).
    """
    images = su2.adjoint(np.stack([r.images_array() for r in moduli.classes]))
    ranks = _fox_ranks(_fox_images(p.relators, images), p.relators)
    g = p.num_generators
    return [3 * g - int(k) - 3 for k, rep in zip(ranks, moduli.classes) if rep.irreducible]


def _fox_ranks(fox, relators) -> np.ndarray:
    """Ranks of a stack of Fox matrices of `relators` under unitary images,
    shape (m, r, g, k, k).  A singular value counts if it exceeds
    RANK_TOLERANCE times the largest one or, if that is larger, times the
    longest relator length: a Fox entry of a relator of length l has norm at
    most l, so a Fox matrix that is 0 up to roundoff has rank 0."""
    m, r, g, k = fox.shape[:4]
    sv = np.linalg.svd(fox.transpose(0, 1, 3, 2, 4).reshape(m, k * r, k * g), compute_uv=False)
    longest = max(sum(abs(e) for _j, e in w) for w in relators)
    return np.sum(sv > RANK_TOLERANCE * np.maximum(sv[:, :1], longest), axis=1)
