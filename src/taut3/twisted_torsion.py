"""Twisted chain complexes from free differential calculus, their Laplacians,
and torsion.

Boundary words with group-ring coefficients come from frozen CW structures of
the built-in manifold families; a representation turns them into complex block
matrices.  Matrix images use the transposed representation (an
anti-homomorphism), which is what makes the fundamental identity
w - 1 = sum_j (dw/dx_j)(x_j - 1) translate into D1 @ D2 = 0 at the matrix
level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import su2
from .presentations import (
    GroupPresentation,
    Word,
    builtin_presentation,
    concat_words,
    gen,
    reduce_word,
)
from .su2reps import RepModuli, Su2Rep, evaluate_word
from .zeta import ZERO_THRESHOLD, zeta_log_det


class UnsupportedFamilyError(ValueError):
    """No frozen CW structure for the requested family."""


class ModuliNotFiniteError(RuntimeError):
    """Torsion sum refused: the representation moduli are not a finite set."""


class GroupRingElement:
    """Integer combination of reduced words, exact arithmetic."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, c in dict(terms).items():
                w = reduce_word(w)
                c = int(c)
                if c:
                    self.terms[w] = self.terms.get(w, 0) + c
            self.terms = {w: c for w, c in self.terms.items() if c}

    @classmethod
    def from_word(cls, w: Word, coeff: int = 1):
        return cls({reduce_word(w): coeff})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement(out)

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product in the group ring (concatenate-and-reduce words)."""
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = concat_words(w1, w2)
                out[w] = out.get(w, 0) + c1 * c2
        return GroupRingElement(out)

    def augmentation(self) -> int:
        return sum(self.terms.values())

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __repr__(self):
        return f"GroupRingElement({self.terms!r})"

    def matrix_image_t(self, images) -> np.ndarray:
        """Sum of coefficients times transposed representation matrices."""
        out = np.zeros((2, 2), dtype=complex)
        for w, c in self.terms.items():
            out += c * su2.to_matrix(evaluate_word(images, w)).T
        return out


def fox_derivative(w: Word, j: int) -> GroupRingElement:
    """Free derivative d(w)/dx_j.

    Product rule d(uv) = du + u dv with d(x_j) = 1, d(x_j^-1) = -x_j^-1.
    """
    w = reduce_word(w)
    out = {}
    prefix: Word = ()
    for g_idx, e in w:
        if g_idx == j:
            if e > 0:
                for k in range(e):
                    u = concat_words(prefix, gen(j, k)) if k else prefix
                    out[u] = out.get(u, 0) + 1
            else:
                for k in range(1, -e + 1):
                    u = concat_words(prefix, gen(j, -k))
                    out[u] = out.get(u, 0) - 1
        prefix = concat_words(prefix, ((g_idx, e),))
    return GroupRingElement(out)


@dataclass(frozen=True)
class CwStructure:
    """One 0-cell, one 1-cell per generator, one 2-cell per relator, one 3-cell
    whose boundary words (one group-ring element per 2-cell) are frozen."""

    presentation: GroupPresentation
    d3_words: tuple
    label: str = ""


def _lens_cw(p: int, q: int) -> CwStructure:
    pres = builtin_presentation("Lens", p, q)
    qbar = pow(q, -1, p)
    d3 = GroupRingElement({gen(0, qbar): 1, (): -1})
    return CwStructure(pres, (d3,), label=pres.label)


def _s3_cw() -> CwStructure:
    pres = builtin_presentation("S3")
    d3 = GroupRingElement({gen(0): 1, (): -1})
    return CwStructure(pres, (d3,), label="S3")


def _torus3_cw() -> CwStructure:
    pres = builtin_presentation("Torus3")
    # relators come in the order [x,y], [x,z], [y,z]; the 3-cell is the cube
    x, y, z = gen(0), gen(1), gen(2)
    d3 = (
        GroupRingElement({z: 1, (): -1}),
        GroupRingElement({(): 1, y: -1}),
        GroupRingElement({x: 1, (): -1}),
    )
    return CwStructure(pres, d3, label="Torus3")


def _brieskorn_cw() -> CwStructure:
    pres = builtin_presentation("Brieskorn", 2, 3, 5)
    data = json.loads(
        resources.files("taut3").joinpath("_data/brieskorn_2_3_5_d3.json").read_text()
    )
    d3 = tuple(
        GroupRingElement({tuple(tuple(p) for p in word): coeff for word, coeff in comp})
        for comp in data["d3_words"]
    )
    return CwStructure(pres, d3, label="Brieskorn(2,3,5)")


def cw_structure(family: str, *params) -> CwStructure:
    """Frozen CW structure fixtures for the supported families."""
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

    def betti_numbers(self, tol: float = 1e-8):
        """Twisted Betti numbers by rank-nullity on the boundary matrices."""
        ranks = [np.linalg.matrix_rank(b, tol=tol) for b in (self.d1, self.d2, self.d3)]
        dims = self.dims
        out = []
        for i in range(4):
            r_in = ranks[i - 1] if i >= 1 else 0
            r_out = ranks[i] if i <= 2 else 0
            out.append(dims[i] - r_in - r_out)
        return tuple(int(b) for b in out)

    def is_acyclic(self, tol: float = 1e-8) -> bool:
        return all(b == 0 for b in self.betti_numbers(tol))


def build_twisted_complex(cw: CwStructure, rep: Su2Rep) -> TwistedComplex:
    """Representation images of the boundary words, as 2x2 blocks."""
    images = rep.images_array()
    pres = cw.presentation
    g, r = pres.num_generators, len(pres.relators)
    if len(cw.d3_words) != r:
        raise ValueError("CW structure inconsistent: need one 3-cell boundary word per 2-cell")
    tau = lambda w: su2.to_matrix(evaluate_word(images, w)).T
    eye = np.eye(2)
    d1 = np.hstack([tau(gen(j)) - eye for j in range(g)])
    d2 = np.block([[fox_derivative(ri, j).matrix_image_t(images) for ri in pres.relators] for j in range(g)])
    d3 = np.vstack([s.matrix_image_t(images) for s in cw.d3_words])
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


def _check_spd(w, n):
    w = np.asarray(w, dtype=complex)
    if w.shape != (n, n) or np.linalg.norm(w - w.conj().T) > 1e-12 * max(1.0, np.linalg.norm(w)):
        raise ValueError("weight matrix must be Hermitian of matching size")
    if np.min(np.linalg.eigvalsh(w)) <= 0:
        raise ValueError("weight matrix must be positive definite")
    return w


def twisted_laplacians(
    c: TwistedComplex, weights=None, zero_threshold: float = ZERO_THRESHOLD
) -> SpectrumSummary:
    """Spectra of Delta_i = D_i^* D_i + D_{i+1} D_{i+1}^* in the weighted inner
    products (identity weights by default).

    Weights are volume-normalized (scaled to unit determinant): a chain group
    carries a preferred volume from its cellular basis, and torsion depends on
    an inner product only through that volume — the determinant factor is the
    exact finite-dimensional metric anomaly.  Normalizing keeps the honest
    invariance statement: any two inner products give the same torsion.
    """
    dims = c.dims
    if weights is None:
        weights = [np.eye(n) for n in dims]
    weights = [_check_spd(w, n) for w, n in zip(weights, dims)]
    weights = [
        w * np.exp(-np.linalg.slogdet(w)[1] / n) for w, n in zip(weights, dims)
    ]
    chol = [np.linalg.cholesky(w) for w in weights]
    # B_i = L_{i-1}^H D_i L_i^{-H} turns the weighted adjoint into the plain one
    bs = [None] * 4
    for i in (1, 2, 3):
        di = c.boundary(i)
        bs[i] = chol[i - 1].conj().T @ di @ np.linalg.inv(chol[i].conj().T)
    eigs, zeros, logdets = [], [], []
    for i in range(4):
        n = dims[i]
        h = np.zeros((n, n), dtype=complex)
        if i >= 1:
            h += bs[i].conj().T @ bs[i]
        if i <= 2:
            h += bs[i + 1] @ bs[i + 1].conj().T
        lam = np.linalg.eigvalsh(h)
        lam = np.where(np.abs(lam) < zero_threshold * max(1.0, np.max(np.abs(lam), initial=0.0)), 0.0, lam)
        if np.any(lam < 0):
            raise AssertionError("twisted Laplacian produced a negative eigenvalue")
        lam = np.sort(lam)
        eigs.append(tuple(float(x) for x in lam))
        zeros.append(int(np.sum(lam == 0.0)))
        logdets.append(zeta_log_det(lam, threshold=zero_threshold))
    return SpectrumSummary(tuple(eigs), tuple(zeros), tuple(logdets))


@dataclass(frozen=True)
class TorsionResult:
    log_t: float
    t: float
    acyclic: bool
    betti: tuple
    metric_dependent: bool


def rs_torsion(c: TwistedComplex, weights=None, zero_threshold: float = ZERO_THRESHOLD) -> TorsionResult:
    """Analytic torsion of the complex:
    log T = (1/2) sum_i (-1)^i * i * log det' Delta_i."""
    spec = twisted_laplacians(c, weights, zero_threshold)
    log_t = 0.5 * sum((-1) ** i * i * spec.log_dets[i] for i in range(4))
    betti = c.betti_numbers()
    acyclic = all(b == 0 for b in betti)
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


def require_finite_moduli(p: GroupPresentation) -> None:
    """Refuse positive betti_1, where the moduli form positive-dimensional families."""
    if p.h1.betti_1 > 0:
        raise ModuliNotFiniteError(
            f"{p.label}: betti_1 > 0, representation moduli form positive-dimensional "
            "families; the torsion sum is not a finite sum"
        )


def torsion_sum(p: GroupPresentation, cw: CwStructure, moduli: RepModuli) -> TorsionSumResult:
    """Sum of analytic torsions over the representation classes of `moduli`.

    Finiteness of the class set is what makes this converge; positive betti_1
    (positive-dimensional moduli) is refused.
    """
    require_finite_moduli(p)
    per_class = []
    total = 0.0
    irr_total = 0.0
    notes = list(moduli.warnings)
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
