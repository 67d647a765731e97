"""Twisted chain complexes from free differential calculus, their Laplacians,
and torsion.

Boundary words with group-ring coefficients come from the CW structures of the
built-in manifold families; a representation turns them into complex block
matrices.  Words are evaluated as unit quaternions and summed there, and each
sum becomes a 2x2 block only at the end: `su2.to_matrix` is linear and
multiplicative, so the block of sum_k c_k w_k is sum_k c_k tau(w_k).  Blocks
use the transposed representation (an anti-homomorphism), which is what makes
the fundamental identity w - 1 = sum_j (dw/dx_j)(x_j - 1) translate into
D1 @ D2 = 0 at the matrix level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import su2
from .presentations import GroupPresentation, builtin_presentation, gen
from .su2reps import RepModuli, Su2Rep, evaluate_word, require_finite_moduli
from .zeta import ZERO_THRESHOLD, zeta_log_det


class UnsupportedFamilyError(ValueError):
    """No CW structure for the requested family."""


@dataclass(frozen=True)
class CwStructure:
    """One 0-cell, one 1-cell per generator, one 2-cell per relator, and one
    3-cell whose boundary is one group-ring element per 2-cell, written as
    (coefficient, word) pairs."""

    presentation: GroupPresentation
    d3_words: tuple
    label: str = ""


def _lens_cw(p: int, q: int) -> CwStructure:
    pres = builtin_presentation("Lens", p, q)
    qbar = pow(q, -1, p)
    return CwStructure(pres, (((1, gen(0, qbar)), (-1, ())),), label=pres.label)


def _s3_cw() -> CwStructure:
    pres = builtin_presentation("S3")
    return CwStructure(pres, (((1, gen(0)), (-1, ())),), label="S3")


def _torus3_cw() -> CwStructure:
    pres = builtin_presentation("Torus3")
    # relators come in the order [x,y], [x,z], [y,z]; the 3-cell is the cube
    x, y, z = gen(0), gen(1), gen(2)
    d3 = (((1, z), (-1, ())), ((1, ()), (-1, y)), ((1, x), (-1, ())))
    return CwStructure(pres, d3, label="Torus3")


def _brieskorn_cw() -> CwStructure:
    pres = builtin_presentation("Brieskorn", 2, 3, 5)
    # relators s^3 t^-5 and (st)^2 s^-3; the 3-cell boundary (1 - t, s^-1 - t)
    # generates the kernel of d2 over Z[G], |G| = 120 (checked in the tests)
    s_inv, t = gen(0, -1), gen(1)
    d3 = (((1, ()), (-1, t)), ((-1, t), (1, s_inv)))
    return CwStructure(pres, d3, label="Brieskorn(2,3,5)")


def cw_structure(family: str, *params) -> CwStructure:
    """CW structures of the supported families."""
    if family == "S3":
        return _s3_cw()
    if family == "Lens":
        return _lens_cw(*params)
    if family == "Torus3":
        return _torus3_cw()
    if family == "Brieskorn":
        if tuple(params) != (2, 3, 5):
            raise UnsupportedFamilyError(
                f"no frozen CW structure for Brieskorn{tuple(params)}; only (2, 3, 5)"
            )
        return _brieskorn_cw()
    raise UnsupportedFamilyError(f"no CW structure for family {family!r}")


@dataclass(frozen=True)
class TwistedComplex:
    """Boundary matrices D1: C1->C0, D2: C2->C1, D3: C3->C2 (complex entries)."""

    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    label: str = ""

    @property
    def dims(self):
        return (self.d1.shape[0], self.d1.shape[1], self.d2.shape[1], self.d3.shape[1])

    def boundary(self, i: int) -> np.ndarray:
        return (self.d1, self.d2, self.d3)[i - 1]


def _fox_images(relators, images) -> np.ndarray:
    """Quaternion images of the Fox derivatives dr_i/dx_j (Fox 1953), shape
    (r, g, 4).  One walk per relator: each letter x_j adds +prefix to entry
    (i, j), each x_j^-1 adds -(prefix x_j^-1), where prefix is the image of
    the letters before it."""
    out = np.zeros((len(relators), len(images), 4))
    for i, r in enumerate(relators):
        prefix = su2.IDENTITY
        for j, e in r:
            step = images[j] if e > 0 else su2.qconj(images[j])
            for _ in range(abs(e)):
                if e > 0:
                    out[i, j] += prefix
                    prefix = su2.qmul(prefix, step)
                else:
                    prefix = su2.qmul(prefix, step)
                    out[i, j] -= prefix
    return out


def _blocks(q) -> np.ndarray:
    """Block matrix whose (k, l) block is tau(q[k, l])^T, for q of shape (m, n, 4)."""
    m = su2.to_matrix(q)
    return m.transpose(0, 3, 1, 2).reshape(2 * q.shape[0], 2 * q.shape[1])


def build_twisted_complex(cw: CwStructure, rep: Su2Rep) -> TwistedComplex:
    """Representation images of the boundary words, as 2x2 blocks."""
    images = rep.images_array()
    pres = cw.presentation
    if len(cw.d3_words) != len(pres.relators):
        raise ValueError("CW structure inconsistent: need one 3-cell boundary word per 2-cell")
    d3_images = np.array(
        [sum(c * evaluate_word(images, w) for c, w in cell) for cell in cw.d3_words]
    )
    d1 = _blocks((images - su2.IDENTITY)[None])
    d2 = _blocks(_fox_images(pres.relators, images).transpose(1, 0, 2))
    d3 = _blocks(d3_images[:, None])
    c = TwistedComplex(d1, d2, d3, label=cw.label)
    scale = max(1.0, *(np.linalg.norm(b, 2) for b in (d1, d2, d3)))
    if np.linalg.norm(d1 @ d2, 2) > 1e-8 * scale or np.linalg.norm(d2 @ d3, 2) > 1e-8 * scale:
        raise AssertionError(f"{cw.label}: boundary matrices do not compose to zero")
    return c


@dataclass(frozen=True)
class SpectrumSummary:
    """Per degree 0..3: sorted Laplacian eigenvalues, kernel dimension, log det'."""

    eigenvalues: tuple
    zero_counts: tuple
    log_dets: tuple


def twisted_laplacians(c: TwistedComplex) -> SpectrumSummary:
    """Spectra of Delta_i = D_i^* D_i + D_{i+1} D_{i+1}^* in the cellular inner
    products, one eigendecomposition per degree.

    Eigenvalues under ZERO_THRESHOLD times the spectral radius count as zero.
    """
    eigs, zeros, logdets = [], [], []
    for i in range(4):
        n = c.dims[i]
        h = np.zeros((n, n), dtype=complex)
        if i >= 1:
            h += c.boundary(i).conj().T @ c.boundary(i)
        if i <= 2:
            h += c.boundary(i + 1) @ c.boundary(i + 1).conj().T
        lam = np.linalg.eigvalsh(h)
        lam = np.where(np.abs(lam) < ZERO_THRESHOLD * max(1.0, np.max(np.abs(lam), initial=0.0)), 0.0, lam)
        if np.any(lam < 0):
            raise AssertionError("twisted Laplacian produced a negative eigenvalue")
        lam = np.sort(lam)
        eigs.append(tuple(float(x) for x in lam))
        zeros.append(int(np.sum(lam == 0.0)))
        logdets.append(zeta_log_det(lam))
    return SpectrumSummary(tuple(eigs), tuple(zeros), tuple(logdets))


@dataclass(frozen=True)
class TorsionResult:
    log_t: float
    t: float
    acyclic: bool
    betti: tuple
    metric_dependent: bool


def rs_torsion(c: TwistedComplex) -> TorsionResult:
    """Analytic torsion of the complex:
    log T = (1/2) sum_i (-1)^i * i * log det' Delta_i.

    The Betti numbers are the kernel dimensions of the Laplacians, since
    ker Delta_i is isomorphic to H_i (finite-dimensional Hodge theory)."""
    spec = twisted_laplacians(c)
    log_t = 0.5 * sum((-1) ** i * i * spec.log_dets[i] for i in range(4))
    betti = spec.zero_counts
    acyclic = not any(betti)
    return TorsionResult(
        log_t=float(log_t),
        t=float(np.exp(log_t)),
        acyclic=acyclic,
        betti=betti,
        metric_dependent=not acyclic,
    )


def sv_torsion_oracle(c: TwistedComplex) -> float:
    """Independent route to log T via singular values of the boundary maps.

    With L_i = sum of log of the nonzero singular values squared of D_i, the
    nonzero spectrum of Delta_i splits as spec(D_i^H D_i) U spec(D_{i+1} D_{i+1}^H),
    so log T = (1/2) sum_i (-1)^i i (L_i + L_{i+1}).
    """
    ls = [0.0] * 5
    for i in (1, 2, 3):
        sv = np.linalg.svd(c.boundary(i), compute_uv=False)
        cut = 1e-10 * max(1.0, sv[0] if sv.size else 1.0)
        ls[i] = float(np.sum(2.0 * np.log(sv[sv > cut])))
    return 0.5 * sum((-1) ** i * i * (ls[i] + ls[i + 1]) for i in range(4))


@dataclass(frozen=True)
class TorsionSumResult:
    total: float
    irreducible_subtotal: float
    per_class: tuple  # (trace_coords, TorsionResult, irreducible) triples
    notes: tuple


def torsion_sum(p: GroupPresentation, cw: CwStructure, moduli: RepModuli) -> TorsionSumResult:
    """Sum of analytic torsions over the representation classes of `moduli`.

    Finiteness of the class set is what makes this converge; positive betti_1
    (positive-dimensional moduli) is refused.
    """
    require_finite_moduli(p)
    per_class = []
    total = 0.0
    irr_total = 0.0
    notes = []
    for rep in moduli.classes:
        c = build_twisted_complex(cw, rep)
        res = rs_torsion(c)
        per_class.append((tuple(float(x) for x in rep.trace_coords), res, rep.irreducible))
        total += res.t
        if rep.irreducible:
            irr_total += res.t
        if not res.acyclic:
            notes.append(
                f"class {np.round(rep.trace_coords, 6).tolist()}: not acyclic, torsion is metric-dependent"
            )
    notes.append("finiteness of the flat-moduli set is what makes this sum a single number")
    return TorsionSumResult(
        total=float(total),
        irreducible_subtotal=float(irr_total),
        per_class=tuple(per_class),
        notes=tuple(notes),
    )
