"""Zeta-regularized log-determinants.

Every spectrum the package builds is finite, and there the regularized
determinant is literally the product of the nonzero eigenvalues.  The
Euler-Maclaurin continuation that recovers the classical circle value
det' = 4 pi^2 from an infinite spectrum lives in the tests
(`tests/zeta_oracles.py`), as the check of this convention.
"""

from __future__ import annotations

import numpy as np

ZERO_THRESHOLD = 1e-10


def zeta_log_det(spectrum) -> float:
    """Sum of log(lambda) over eigenvalues above ZERO_THRESHOLD * spectral radius.

    Empty product convention: no nonzero eigenvalues -> 0 (det' = 1).
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.size == 0:
        return 0.0
    if np.any(lam < -ZERO_THRESHOLD * max(1.0, np.max(np.abs(lam)))):
        raise ValueError("negative eigenvalue in spectrum")
    cut = ZERO_THRESHOLD * max(1.0, float(np.max(np.abs(lam))))
    nz = lam[lam > cut]
    return float(np.sum(np.log(nz))) if nz.size else 0.0
