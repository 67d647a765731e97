"""Leafwise de Rham complex for the product foliation of T^3 by 2-torus leaves.

Forms along the leaves are truncated Fourier series in the leaf coordinates
(x, y); the leafwise differential is diagonal in Fourier modes, so Laplacian
spectra are exact: 4 pi^2 (m^2 + n^2) with multiplicities forced by the leaf
Hodge theory.  The model does not depend on the transverse coordinate, so one
leaf's spectra are the whole answer.  The torsion combines
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
METRIC_LIKE_TOLERANCE = 1e-14  # largest |log(c0 c2 / c1^2)| of metric-like weights


@dataclass(frozen=True)
class LeafSpectrum:
    eigenvalues: np.ndarray  # sorted, one leaf's worth
    kernel_dim: int
    log_det: float  # zeta-regularized


def _mode_eigenvalues(truncation: int) -> np.ndarray:
    m = np.arange(-truncation, truncation + 1, dtype=float)
    lam = TWO_PI**2 * (m[:, None] ** 2 + m[None, :] ** 2)
    return np.sort(lam.ravel())


def tangential_laplacian(degree: int, truncation: int, weights=(1.0, 1.0, 1.0)) -> LeafSpectrum:
    """Exact spectrum of the leafwise Laplacian on Fourier modes |m|, |n| <= truncation.

    Base eigenvalues 4 pi^2 (m^2 + n^2); with degree weights (c0, c1, c2) the
    exact part of each Laplacian scales by c_{k}/c_{k-1} ratios: Delta_0 by
    c1/c0, Delta_2 by c2/c1, and Delta_1 carries one copy of each.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2 (rank-2 leaf bundle)")
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
    return LeafSpectrum(
        eigenvalues=eig,
        kernel_dim=int(np.sum(eig <= 1e-12)),
        log_det=zeta_log_det(eig),
    )


@dataclass(frozen=True)
class LeafwiseTorsionResult:
    log_t: float
    betti: tuple
    metric_dependent: bool
    per_degree_log_dets: tuple


def leafwise_torsion(truncation: int, weights=(1.0, 1.0, 1.0)) -> LeafwiseTorsionResult:
    """log T = (1/2) sum_k (-1)^k k log det' Delta_k.

    Zero iff the weights are metric-like (c1^2 = c0 c2).  T itself is not
    returned: at truncation 64 with weights (1, 0.5, 1) it overflows a float.
    """
    spectra = [tangential_laplacian(k, truncation, weights) for k in range(3)]
    logdets = tuple(s.log_det for s in spectra)
    log_t = 0.5 * sum((-1) ** k * k * ld for k, ld in enumerate(logdets))
    c0, c1, c2 = (float(w) for w in weights)
    return LeafwiseTorsionResult(
        log_t=float(log_t),
        betti=tuple(s.kernel_dim for s in spectra),
        metric_dependent=abs(math.log(c0 * c2 / c1**2)) > METRIC_LIKE_TOLERANCE,
        per_degree_log_dets=logdets,
    )
