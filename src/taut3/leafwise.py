"""Leafwise de Rham complex for the product foliation of T^3 by 2-torus leaves.

Forms along the leaves are truncated Fourier series in the leaf coordinates
(x, y) with a transverse grid index z; the leafwise differential is diagonal
in Fourier modes, so Laplacian spectra are exact: 4 pi^2 (m^2 + n^2) with
multiplicities forced by the leaf Hodge theory.  The torsion combines
zeta-log-determinants with the degree-weighted alternating sum; for the flat
product foliation it cancels identically at every truncation.

A degree-weighted variant (independent scalings of the 0-, 1-, 2-form inner
products) breaks Hodge duality and produces a nonzero, metric-dependent
torsion log T = (#nonzero modes / 2) * log(c0 c2 / c1^2); a genuine leaf
metric always has c1^2 = c0 c2 by the star isomorphism and gives zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .zeta import zeta_log_det

TWO_PI = 2.0 * math.pi


class DegreeError(ValueError):
    """Operation undefined at this leafwise degree (leaf dimension is 2)."""


class UnsupportedFoliationError(ValueError):
    """No leafwise spectral model is available for this foliation."""


@dataclass(frozen=True)
class LeafwiseForm:
    """Truncated-Fourier leafwise form.

    coefficients: degree 0/2 -> (n_z, 2M+1, 2M+1); degree 1 -> (n_z, 2, 2M+1, 2M+1),
    second axis ordering (dx, dy).  Mode (m, n) sits at index (m+M, n+M).
    """

    degree: int
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if self.degree not in (0, 1, 2):
            raise DegreeError("leafwise degree must be 0, 1 or 2 (rank-2 leaf bundle)")
        want = 4 if self.degree == 1 else 3
        if c.ndim != want or c.shape[-1] != c.shape[-2] or c.shape[-1] % 2 == 0:
            raise ValueError("bad coefficient shape for this degree")
        if self.degree == 1 and c.shape[1] != 2:
            raise ValueError("degree-1 form needs a (dx, dy) component axis")
        object.__setattr__(self, "coefficients", c)

    @property
    def truncation(self) -> int:
        return (self.coefficients.shape[-1] - 1) // 2

    def is_real_valued(self, tol: float = 1e-12) -> bool:
        """Conjugate-symmetry c(-m,-n) = conj(c(m,n)) of every component."""
        c = self.coefficients
        flipped = np.conj(c[..., ::-1, ::-1])
        return bool(np.max(np.abs(c - flipped)) <= tol)


def _modes(truncation: int) -> np.ndarray:
    return np.arange(-truncation, truncation + 1, dtype=float)


def d_f(form: LeafwiseForm) -> LeafwiseForm:
    """Leafwise exterior derivative, diagonal in Fourier modes."""
    if form.degree >= 2:
        raise DegreeError("d_f undefined in top leaf degree")
    m = _modes(form.truncation)
    c = form.coefficients
    if form.degree == 0:
        dx = (TWO_PI * 1j) * m[:, None] * c
        dy = (TWO_PI * 1j) * m[None, :] * c
        return LeafwiseForm(1, np.stack([dx, dy], axis=1))
    # d(a dx + b dy) = (Dx b - Dy a) dx^dy
    curl = (TWO_PI * 1j) * (m[:, None] * c[:, 1] - m[None, :] * c[:, 0])
    return LeafwiseForm(2, curl)


@dataclass(frozen=True)
class LeafSpectrum:
    degree: int
    truncation: int
    eigenvalues: np.ndarray  # sorted, one leaf's worth (identical at each z)
    kernel_dim: int
    log_det: float  # zeta-regularized, per transverse point


def _mode_eigenvalues(truncation: int) -> np.ndarray:
    m = _modes(truncation)
    lam = TWO_PI**2 * (m[:, None] ** 2 + m[None, :] ** 2)
    return np.sort(lam.ravel())


def tangential_laplacian(degree: int, truncation: int, weights=(1.0, 1.0, 1.0)) -> LeafSpectrum:
    """Exact spectrum of the leafwise Laplacian at one transverse point.

    Base eigenvalues 4 pi^2 (m^2 + n^2); with degree weights (c0, c1, c2) the
    exact part of each Laplacian scales by c_{k}/c_{k-1} ratios: Delta_0 by
    c1/c0, Delta_2 by c2/c1, and Delta_1 carries one copy of each.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if degree not in (0, 1, 2):
        raise DegreeError("degree must be 0, 1 or 2")
    c0, c1, c2 = (float(w) for w in weights)
    if min(c0, c1, c2) <= 0:
        raise ValueError("weights must be positive")
    lam = _mode_eigenvalues(truncation)
    if degree == 0:
        eig = lam * (c1 / c0)
    elif degree == 2:
        eig = lam * (c2 / c1)
    else:
        nz = lam[lam > 0]
        eig = np.sort(np.concatenate([[0.0, 0.0], nz * (c1 / c0), nz * (c2 / c1)]))
    kernel = int(np.sum(eig <= 1e-12))
    return LeafSpectrum(
        degree=degree,
        truncation=truncation,
        eigenvalues=eig,
        kernel_dim=kernel,
        log_det=zeta_log_det(eig),
    )


@dataclass(frozen=True)
class LeafwiseTorsionResult:
    log_t: float
    t: float
    euler_like: float  # the literal alternating Betti half-sum, kept for reference
    betti: tuple
    metric_dependent: bool
    per_degree_log_dets: tuple


def leafwise_torsion(truncation: int, n_z: int = 1, weights=(1.0, 1.0, 1.0)) -> LeafwiseTorsionResult:
    """log T = (1/2) sum_k (-1)^k k log det' Delta_k, averaged transversally.

    The transverse direction contributes a uniform weight 1/n_z per grid
    point, so for the z-independent product model the average equals the
    single-leaf value.  Zero iff the weights are metric-like (c1^2 = c0 c2).
    """
    if n_z < 1:
        raise ValueError("n_z must be >= 1")
    if truncation == 0:
        return LeafwiseTorsionResult(0.0, 1.0, 0.0, (1, 2, 1), False, (0.0, 0.0, 0.0))
    spectra = [tangential_laplacian(k, truncation, weights) for k in range(3)]
    logdets = tuple(s.log_det for s in spectra)
    log_t = 0.5 * sum((-1) ** k * k * ld for k, ld in enumerate(logdets))
    betti = tuple(s.kernel_dim for s in spectra)
    euler_like = 0.5 * sum((-1) ** k * b for k, b in enumerate(betti))
    c0, c1, c2 = (float(w) for w in weights)
    dependent = abs(math.log(c0 * c2 / c1**2)) > 1e-14
    # n_z transverse points, uniform weight 1/n_z: the average is the per-leaf value
    return LeafwiseTorsionResult(
        log_t=float(log_t),
        t=float(math.exp(log_t)),
        euler_like=float(euler_like),
        betti=betti,
        metric_dependent=dependent,
        per_degree_log_dets=logdets,
    )


@dataclass(frozen=True)
class LeafwiseModel:
    """A foliation admitted by the leafwise machinery: the product foliation
    of T^3 by horizontal 2-tori, with optional degree-weight scalings."""

    kind: str = "product"
    truncation: int = 4
    n_z: int = 8
    weights: tuple = (1.0, 1.0, 1.0)
    label: str = ""


@dataclass(frozen=True)
class FoliationTorsionSum:
    total: float
    per_foliation: tuple  # (label, T, log T, metric_dependent)


def foliation_torsion_sum(models) -> FoliationTorsionSum:
    """Sum of leafwise torsions T over the declared foliation classes."""
    total = 0.0
    rows = []
    for k, model in enumerate(models):
        if not isinstance(model, LeafwiseModel) or model.kind != "product":
            raise UnsupportedFoliationError(
                "only the product foliation of T^3 (kind='product', optionally "
                "with degree-weight scalings) has a leafwise spectral model"
            )
        res = leafwise_torsion(model.truncation, model.n_z, model.weights)
        label = model.label or f"foliation[{k}]"
        total += res.t
        rows.append((label, res.t, res.log_t, res.metric_dependent))
    return FoliationTorsionSum(total=float(total), per_foliation=tuple(rows))


@dataclass(frozen=True)
class Cs3DegeneracyReport:
    tangential_rank: int
    lambda3_dim: int
    vanishes: bool
    note: str


def tangential_cs3_degeneracy(tangential_rank: int = 2) -> Cs3DegeneracyReport:
    """Report that tangential 3-forms vanish identically for rank-2 leaf bundles.

    dim Lambda^3 of a rank-r bundle is C(r, 3); for codimension-1 foliations
    of a 3-manifold r = 2, so every tangential Chern-Simons 3-form is zero
    and the associated integral invariant is identically 0.  Whether a
    nontrivial reading exists (forms on the full manifold built from
    tangential data) is left open here on purpose.
    """
    dim = math.comb(tangential_rank, 3)
    return Cs3DegeneracyReport(
        tangential_rank=tangential_rank,
        lambda3_dim=dim,
        vanishes=(dim == 0),
        note=(
            "Lambda^3 F* = 0 for rank-2 tangential bundles: the tangential "
            "Chern-Simons 3-form integral vanishes identically under the "
            "literal reading; a nondegenerate interpretation is an open question."
        ),
    )
