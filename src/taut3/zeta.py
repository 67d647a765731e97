"""Zeta-regularized log-determinants.

Finite spectra: the regularized determinant is literally the product of the
nonzero eigenvalues.  Formula-given infinite spectra go through analytic
continuation; the derivative of the Riemann zeta function is evaluated by
Euler-Maclaurin summation, which is enough to recover the classical circle
value det' = 4 pi^2.
"""

from __future__ import annotations

import math

import numpy as np

ZERO_THRESHOLD = 1e-10


def zeta_log_det(spectrum, threshold: float = ZERO_THRESHOLD) -> float:
    """Sum of log(lambda) over eigenvalues above threshold * spectral radius.

    Empty product convention: no nonzero eigenvalues -> 0 (det' = 1).
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.size == 0:
        return 0.0
    if np.any(lam < -threshold * max(1.0, np.max(np.abs(lam)))):
        raise ValueError("negative eigenvalue in spectrum")
    cut = threshold * max(1.0, float(np.max(np.abs(lam))))
    nz = lam[lam > cut]
    return float(np.sum(np.log(nz))) if nz.size else 0.0


def _bernoulli_single(m: int):
    """Bernoulli number B_m via the Akiyama-Tanigawa scheme, exact."""
    from fractions import Fraction

    a = [Fraction(0)] * (m + 1)
    for j in range(m + 1):
        a[j] = Fraction(1, j + 1)
        for k in range(j, 0, -1):
            a[k - 1] = Fraction(k) * (a[k - 1] - a[k])
    return a[0]


def _pochhammer_poly(m: int):
    """Coefficients of s(s+1)...(s+m-1) as a numpy polynomial."""
    p = np.poly1d([1.0])
    for i in range(m):
        p = p * np.poly1d([1.0, float(i)])
    return p


def riemann_zeta_em_prime(s: float, terms: int = 24, tail: int = 10) -> float:
    """d/ds of the Euler-Maclaurin expression for the Riemann zeta function,
    differentiated term by term; valid for real s != 1."""
    n = terms
    ln = math.log(n)
    total = sum(-math.log(k) * k ** (-s) for k in range(2, n))
    total += -0.5 * ln * n ** (-s)
    total += n ** (1 - s) * (-ln / (s - 1) - 1.0 / (s - 1) ** 2)
    for k in range(1, tail + 1):
        b2k = float(_bernoulli_single(2 * k))
        poch = _pochhammer_poly(2 * k - 1)
        dpoch = poch.deriv()
        total += (
            b2k
            / math.factorial(2 * k)
            * (dpoch(s) - ln * poch(s))
            * n ** (-s - 2 * k + 1)
        )
    return total


def circle_laplacian_log_det(terms: int = 24, tail: int = 10) -> float:
    """log det' of the Laplacian on the unit circle, spectrum {n^2 : n in Z}.

    zeta(s) = 2 zeta_R(2s), so -zeta'(0) = -4 zeta_R'(0) = 2 log(2 pi) = log(4 pi^2).
    """
    return -4.0 * riemann_zeta_em_prime(0.0, terms=terms, tail=tail)
