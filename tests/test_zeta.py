import math

import numpy as np
import pytest

from zeta_oracles import (
    _bernoulli_single,
    _pochhammer_poly,
    circle_laplacian_log_det,
    riemann_zeta_em_prime,
    zeta_log_det,
)


def riemann_zeta_em(s: float, terms: int = 24, tail: int = 10) -> float:
    """Riemann zeta by Euler-Maclaurin, valid for s != 1 (real s well left of 1
    too): the expression that `riemann_zeta_em_prime` differentiates."""
    n = terms
    total = sum(k ** (-s) for k in range(1, n))
    total += 0.5 * n ** (-s)
    total += n ** (1 - s) / (s - 1)
    for k in range(1, tail + 1):
        b2k = float(_bernoulli_single(2 * k))
        poch = _pochhammer_poly(2 * k - 1)(s)
        total += b2k / math.factorial(2 * k) * poch * n ** (-s - 2 * k + 1)
    return total


def test_finite_log_det_is_product_of_nonzero_eigenvalues():
    lam = [0.0, 2.0, 3.0, 5.0]
    assert abs(zeta_log_det(lam) - math.log(30.0)) < 1e-12


def test_empty_and_all_zero_spectra():
    assert zeta_log_det([]) == 0.0
    assert zeta_log_det([0.0, 0.0]) == 0.0


def test_negative_eigenvalue_rejected():
    with pytest.raises(ValueError):
        zeta_log_det([-1.0, 2.0])


def test_threshold_is_relative():
    lam = [1e-14, 1.0]
    assert abs(zeta_log_det(lam)) < 1e-12  # tiny value treated as kernel


def test_riemann_zeta_known_values():
    assert abs(riemann_zeta_em(2.0) - math.pi**2 / 6) < 1e-12
    assert abs(riemann_zeta_em(4.0) - math.pi**4 / 90) < 1e-12
    assert abs(riemann_zeta_em(0.0) - (-0.5)) < 1e-10
    assert abs(riemann_zeta_em(-1.0) - (-1.0 / 12.0)) < 1e-10


def test_riemann_zeta_prime_at_zero():
    # zeta'(0) = -(1/2) log(2 pi)
    assert abs(riemann_zeta_em_prime(0.0) + 0.5 * math.log(2 * math.pi)) < 1e-10


def test_zeta_prime_matches_finite_difference():
    h = 1e-6
    for s in (2.0, 3.5, -0.5):
        fd = (riemann_zeta_em(s + h) - riemann_zeta_em(s - h)) / (2 * h)
        assert abs(riemann_zeta_em_prime(s) - fd) < 1e-7


def test_circle_determinant():
    # spectrum {n^2 : n != 0} regularizes to det' = 4 pi^2
    assert abs(circle_laplacian_log_det() - math.log(4 * math.pi**2)) < 1e-8
