"""The Laplacian route to twisted torsion, the reference for the closed forms
of `taut3.twisted_torsion.torsion_sum` and for its Betti numbers.

On the twisted cellular complex of `build_twisted_complex`, each degree's
Laplacian Delta_i = D_i^* D_i + D_(i+1) D_(i+1)^* is diagonalised in the
cellular inner products: its kernel gives the twisted Betti numbers (ker
Delta_i = H_i, finite-dimensional Hodge theory), and its nonzero eigenvalues
the zeta log-determinants of the analytic torsion.
"""

from dataclasses import dataclass

import numpy as np

from zeta_oracles import ZERO_THRESHOLD, zeta_log_det


def boundary(c, i):
    """D_i of the complex, i = 1, 2, 3."""
    return (c.d1, c.d2, c.d3)[i - 1]


def dims(c):
    """Dimensions of the chain groups C_0 .. C_3."""
    return (c.d1.shape[0], c.d1.shape[1], c.d2.shape[1], c.d3.shape[1])


@dataclass(frozen=True)
class SpectrumSummary:
    """Per degree 0..3: sorted Laplacian eigenvalues, kernel dimension, log det'."""

    eigenvalues: tuple
    zero_counts: tuple
    log_dets: tuple


def twisted_laplacians(c) -> SpectrumSummary:
    """Spectra of the Laplacians, one eigendecomposition per degree.
    Eigenvalues under ZERO_THRESHOLD times the spectral radius count as zero."""
    eigs, zeros, logdets = [], [], []
    for i, n in enumerate(dims(c)):
        h = np.zeros((n, n), dtype=complex)
        if i >= 1:
            h += boundary(c, i).conj().T @ boundary(c, i)
        if i <= 2:
            h += boundary(c, i + 1) @ boundary(c, i + 1).conj().T
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
class LaplacianTorsion:
    log_t: float
    t: float
    acyclic: bool
    betti: tuple


def rs_torsion(c) -> LaplacianTorsion:
    """Analytic torsion of the complex, log T = (1/2) sum_i (-1)^i i log det' Delta_i,
    with the Betti numbers as the kernel dimensions of the Laplacians."""
    spec = twisted_laplacians(c)
    log_t = 0.5 * sum((-1) ** i * i * spec.log_dets[i] for i in range(4))
    return LaplacianTorsion(log_t=float(log_t), t=float(np.exp(log_t)),
                            acyclic=not any(spec.zero_counts), betti=spec.zero_counts)
