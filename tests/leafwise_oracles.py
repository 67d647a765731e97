"""The truncated Fourier model of the leafwise Laplacians, kept as the oracle
of their mode structure.

On the Fourier modes |m|, |n| <= truncation of the unit-square leaf the
leafwise differential is diagonal, so the spectra are exact: 4 pi^2 (m^2 + n^2)
with multiplicities forced by the leaf Hodge theory.  `taut3.leafwise` reports
the zeta-regularised determinants of the whole spectrum in closed form; the
partial sums here grow like T^2 log T with the truncation T, and their torsion
is the closed form's with the nonzero-mode count (2T + 1)^2 - 1 in place of
zeta_Delta(0) = -1.
"""

import math
from dataclasses import dataclass

import numpy as np

from zeta_oracles import zeta_log_det

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LeafSpectrum:
    eigenvalues: np.ndarray  # sorted, one leaf's worth
    kernel_dim: int
    log_det: float  # sum of log over the nonzero eigenvalues


def mode_eigenvalues(truncation: int) -> np.ndarray:
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
    lam = mode_eigenvalues(truncation)
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


def truncated_log_t(truncation: int, weights=(1.0, 1.0, 1.0)):
    """(log T, per-degree log dets) of the truncated spectra,
    log T = (1/2) sum_k (-1)^k k log det' Delta_k."""
    logdets = tuple(tangential_laplacian(k, truncation, weights).log_det for k in range(3))
    return 0.5 * sum((-1) ** k * k * ld for k, ld in enumerate(logdets)), logdets
