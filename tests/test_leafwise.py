import math

import mpmath
import numpy as np
import pytest

from leafwise_oracles import tangential_laplacian, truncated_log_t
from taut3.leafwise import LOG_DET_LAPLACIAN, leafwise_torsion
from zeta_oracles import ZERO_THRESHOLD

FOUR_PI2 = 4 * math.pi**2


def d_f(degree, c):
    """Oracle: leafwise exterior derivative on Fourier coefficients.

    Degree 0: c has shape (2M+1, 2M+1), mode (m, n) at index (m+M, n+M).
    Degree 1: c has shape (2, 2M+1, 2M+1), components (dx, dy).
    """
    M = (c.shape[-1] - 1) // 2
    m = np.arange(-M, M + 1, dtype=float)
    if degree == 0:
        return np.stack([(2j * math.pi) * m[:, None] * c, (2j * math.pi) * m[None, :] * c])
    # d(a dx + b dy) = (Dx b - Dy a) dx^dy
    return (2j * math.pi) * (m[:, None] * c[1] - m[None, :] * c[0])


def single_mode(M, m, n):
    c = np.zeros((2 * M + 1, 2 * M + 1), dtype=complex)
    c[m + M, n + M] = 1.0
    return c


def operator_matrix(degree, M):
    """The matrix of d_f from degree-k to degree-(k+1) forms, column by column."""
    shape = (2 * M + 1, 2 * M + 1) if degree == 0 else (2, 2 * M + 1, 2 * M + 1)
    basis = np.eye(int(np.prod(shape)), dtype=complex)
    return np.stack([d_f(degree, e.reshape(shape)).ravel() for e in basis], axis=1)


def test_d_f_constant_is_zero():
    assert np.max(np.abs(d_f(0, single_mode(2, 0, 0)))) == 0.0


def test_d_f_is_fourier_diagonal():
    df = d_f(0, single_mode(3, 2, 1))
    assert df[0, 5, 4] == pytest.approx(2j * math.pi * 2)
    assert df[1, 5, 4] == pytest.approx(2j * math.pi * 1)


def test_d_f_squared_zero_on_random_forms():
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        dd = d_f(1, d_f(0, c))
        assert np.max(np.abs(dd)) < 1e-12 * max(1.0, np.max(np.abs(c)) * FOUR_PI2 * 16)


@pytest.mark.parametrize("M", [1, 2, 4])
@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (1.0, 2.0, 1.0), (0.1, 10.0, 0.1),
                                     (3.0, 0.5, 7.0)])
def test_spectra_match_the_assembled_laplacians(M, weights):
    """Delta_k = d_{k-1} d_{k-1}^+ + d_k^+ d_k, adjoints taken in the inner
    products c_k <., .>, assembled from d_f on the truncated Fourier basis."""
    c0, c1, c2 = weights
    D0, D1 = operator_matrix(0, M), operator_matrix(1, M)
    assert np.max(np.abs(D1 @ D0)) < 1e-9
    # d_k^+ = (c_{k+1} / c_k) d_k^H
    laplacians = [
        (c1 / c0) * D0.conj().T @ D0,
        (c1 / c0) * D0 @ D0.conj().T + (c2 / c1) * D1.conj().T @ D1,
        (c2 / c1) * D1 @ D1.conj().T,
    ]
    for k, lap in enumerate(laplacians):
        want = np.linalg.eigvalsh(lap)
        got = tangential_laplacian(k, M, weights).eigenvalues
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-9 * np.max(want))


def test_top_degree_rejected():
    for degree in (-1, 3):
        with pytest.raises(ValueError, match="degree must be 0, 1 or 2"):
            tangential_laplacian(degree, 2)


def test_spectrum_m1_explicit():
    s = tangential_laplacian(0, 1)
    got = sorted(round(x / FOUR_PI2, 9) for x in s.eigenvalues)
    assert got == [0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]


@pytest.mark.parametrize("M", range(1, 7))
def test_kernel_dims_and_spectral_identities(M):
    s0, s1, s2 = (tangential_laplacian(k, M) for k in range(3))
    assert (s0.kernel_dim, s1.kernel_dim, s2.kernel_dim) == (1, 2, 1)
    assert np.array_equal(s2.eigenvalues, s0.eigenvalues)
    nz0 = s0.eigenvalues[s0.eigenvalues > 0]
    nz1 = s1.eigenvalues[s1.eigenvalues > 0]
    assert np.array_equal(np.sort(nz1), np.sort(np.concatenate([nz0, nz0])))


WEIGHTS = [(1.0, 1.0, 1.0), (1.0, 2.0, 1.0), (0.1, 10.0, 0.1), (3.0, 0.5, 7.0), (1.0, 3.0, 9.0)]


def test_log_det_is_kroneckers_limit_formula():
    """zeta_Delta(s) = 4 (4 pi^2)^(-s) zeta(s) beta(s) over the eigenvalues
    4 pi^2 (m^2 + n^2), (m, n) != 0, with beta(s) = 4^(-s) (zeta(s, 1/4) -
    zeta(s, 3/4)); the Hurwitz derivatives are exact in mpmath, so
    -zeta_Delta'(0) and zeta_Delta(0) = -1 come to 30 digits."""
    with mpmath.workdps(30):
        def hurwitz(s, derivative):
            return mpmath.zeta(s, 0.25, derivative) - mpmath.zeta(s, 0.75, derivative)

        log4, log4pi2 = mpmath.log(4), mpmath.log(4 * mpmath.pi**2)
        beta, dbeta = hurwitz(0, 0), hurwitz(0, 1) - log4 * hurwitz(0, 0)
        zeta, dzeta = mpmath.zeta(0), mpmath.zeta(0, 1, 1)
        at_zero = 4 * zeta * beta
        derivative = -log4pi2 * at_zero + 4 * (dzeta * beta + zeta * dbeta)
        assert abs(at_zero + 1) < mpmath.mpf(10) ** -28
        assert abs(-derivative - LOG_DET_LAPLACIAN) < 1e-15
    assert LOG_DET_LAPLACIAN == -1.0546882809956715


def test_the_report_values_at_unit_weights():
    res = leafwise_torsion()
    L = LOG_DET_LAPLACIAN
    assert res.per_degree_log_dets == (L, 2 * L, L)
    assert (res.log_t, res.betti, res.metric_dependent) == (0.0, (1, 2, 1), False)


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("T", range(1, 7))
def test_truncated_torsion_is_the_closed_form_with_the_mode_count(T, weights):
    """A scaling a of a Laplacian moves its log det' by zeta_Delta(0) log a:
    the closed form has zeta_Delta(0) = -1 where the truncated partial sums
    have the nonzero-mode count (2T + 1)^2 - 1, and differ in nothing else."""
    n_modes = (2 * T + 1) ** 2 - 1
    c0, c1, c2 = weights
    old_log_t, old = truncated_log_t(T, weights)
    _, unit = truncated_log_t(T)
    new = leafwise_torsion(weights)
    L = LOG_DET_LAPLACIAN
    assert old_log_t == pytest.approx(-n_modes * new.log_t, rel=1e-12, abs=1e-12 * n_modes)
    for k, log_a in ((0, math.log(c1 / c0)), (2, math.log(c2 / c1))):
        assert old[k] - unit[k] == pytest.approx(n_modes * log_a, rel=1e-12, abs=1e-12 * n_modes)
        assert new.per_degree_log_dets[k] == L - log_a
    assert old[1] == pytest.approx(old[0] + old[2], rel=1e-12)
    assert new.per_degree_log_dets[1] == new.per_degree_log_dets[0] + new.per_degree_log_dets[2]


@pytest.mark.parametrize("M", range(0, 7))
def test_torsion_vanishes_for_product_foliation(M):
    assert abs(truncated_log_t(M)[0]) < 1e-10
    res = leafwise_torsion()
    assert res.log_t == 0.0
    assert res.betti == (1, 2, 1)
    assert not res.metric_dependent


def test_weighted_torsion_closed_form():
    res = leafwise_torsion(weights=(1.0, 2.0, 1.0))
    assert res.log_t == 0.5 * math.log(4.0) == math.log(2.0)
    assert res.metric_dependent


def test_metric_like_weights_still_cancel():
    # c1^2 = c0 c2: a genuine leaf metric rescaling, Hodge duality survives
    res = leafwise_torsion(weights=(1.0, 3.0, 9.0))
    assert res.log_t == 0.0
    assert not res.metric_dependent


def test_nonpositive_weights_are_rejected():
    with pytest.raises(ValueError, match="weights must be positive"):
        leafwise_torsion((1.0, 0.0, 1.0))


@pytest.mark.parametrize("weights, dropped", [((10.0, 0.1, 10.0), 0), ((0.1, 10.0, 0.1), 0),
                                              ((100.0, 0.01, 100.0), 16468)])
def test_nonzero_eigenvalues_below_the_zero_cut(weights, dropped):
    """The oracle's zero cut: at truncation 512 and the most extreme weights
    the manifest allows, zeta_log_det drops only the two zero modes of
    Delta_1; past the bounds it drops real eigenvalues."""
    lam = tangential_laplacian(1, 512, weights).eigenvalues
    assert np.sum(lam == 0) == 2
    assert np.sum((lam > 0) & (lam <= ZERO_THRESHOLD * lam.max())) == dropped
