import math

import numpy as np
import pytest

from cyclic_oracles import cyclic_lambda, hochschild_b, random_trig
from taut3.cyclic import (
    CyclicCochain,
    HeadroomError,
    TrigPoly,
    UnitarityError,
    constant,
    fundamental_cocycle,
    k_pairing,
    mode,
)


def scaled_mode(k, amplitude):
    """amplitude * e^{i k theta}, a probe that need not be unitary."""
    return TrigPoly(amplitude * mode(k).coefficients)


def coefficient(f, k):
    d = f.degree_bound
    return complex(f.coefficients[k + d]) if abs(k) <= d else 0.0j


def add(f, g):
    bound = max(f.degree_bound, g.degree_bound)
    return TrigPoly(f.padded(bound).coefficients + g.padded(bound).coefficients)


def evaluate(f, theta):
    ks = np.arange(-f.degree_bound, f.degree_bound + 1)
    return np.exp(1j * np.outer(np.asarray(theta, float), ks)) @ f.coefficients


def winding_number_quadrature(u, samples=4096):
    r"""Oracle: (1/2 pi i) \oint u^{-1} du by trapezoid quadrature."""
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    ks = np.arange(-u.degree_bound, u.degree_bound + 1)
    du = (np.exp(1j * np.outer(theta, ks)) * (1j * ks)) @ u.coefficients
    integral = np.sum(du / evaluate(u, theta)) * (theta[1] - theta[0])
    return float((integral / (2.0j * math.pi)).real)


@pytest.fixture
def tau():
    return fundamental_cocycle(8)


@pytest.fixture
def rng():
    return np.random.default_rng(13)


def test_trigpoly_product_is_exact_convolution():
    f = scaled_mode(2, 3.0)
    g = scaled_mode(-1, 2.0)
    prod = f * g
    assert coefficient(prod, 1) == pytest.approx(6.0)
    assert coefficient(prod, 0) == 0.0


def test_trigpoly_evaluate_agrees_with_coefficients(rng):
    f = random_trig(4, rng)
    theta = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    vals = evaluate(f, theta)
    # inverse DFT consistency on one coefficient
    k = 3
    coeff = np.mean(vals * np.exp(-1j * k * theta))
    assert coeff == pytest.approx(coefficient(f, k), abs=1e-12)


def test_fundamental_cocycle_examples(tau, rng):
    for _ in range(10):
        f = random_trig(4, rng)
        assert abs(tau(constant(1.0), f)) < 1e-14
    assert tau(mode(-1), mode(1)) == pytest.approx(1.0)
    fr = random_trig(4, rng, real=True)
    assert abs(tau(fr, fr)) < 1e-12 * max(1.0, np.max(np.abs(fr.coefficients)) ** 2 * 16)


def test_hochschild_b_of_tau_vanishes(tau, rng):
    b = hochschild_b(tau)
    for _ in range(50):
        f0, f1, f2 = (random_trig(2, rng) for _ in range(3))
        scale = max(1.0, *(np.max(np.abs(f.coefficients)) for f in (f0, f1, f2))) ** 3
        assert abs(b(f0, f1, f2)) < 1e-12 * scale * 16


def test_hochschild_b_nonzero_on_noncocycle():
    kern = np.zeros((17, 17), dtype=complex)
    kern[8, 8] = 1.0  # psi(f0, f1) = (f0)_0 (f1)_0
    psi = CyclicCochain(kern)
    b = hochschild_b(psi)
    one = constant(1.0)
    assert b(one, one, one) == pytest.approx(1.0)
    assert np.max(np.abs(cyclic_lambda(psi).kernel - psi.kernel)) > 0.5


def test_b_is_trilinear(tau, rng):
    b = hochschild_b(tau)
    f0, f1, f2, g0 = (random_trig(2, rng) for _ in range(4))
    lhs = b(add(f0, g0), f1, f2)
    rhs = b(f0, f1, f2) + b(g0, f1, f2)
    assert abs(lhs - rhs) < 1e-12 * 100


def test_cyclic_lambda_properties(tau, rng):
    assert np.max(np.abs(cyclic_lambda(tau).kernel - tau.kernel)) == 0.0
    kern = np.asarray(np.random.default_rng(1).standard_normal((9, 9)), dtype=complex)
    phi = CyclicCochain(kern)
    assert np.max(np.abs(cyclic_lambda(cyclic_lambda(phi)).kernel - phi.kernel)) == 0.0
    # lambda tau = tau means tau(f1, f0) = -tau(f0, f1) on all pairs
    f, g = random_trig(3, rng), random_trig(3, rng)
    assert tau(f, g) == pytest.approx(-tau(g, f), abs=1e-12)


@pytest.mark.parametrize("n", range(-3, 4))
def test_winding_pairing(tau, n):
    assert k_pairing(mode(n), tau) == pytest.approx(n, abs=1e-12)
    assert winding_number_quadrature(mode(n)) == pytest.approx(n, abs=1e-8)


def test_pairing_agrees_with_quadrature_on_products():
    """Products of phased windings carry zero padding past the cochain's bound;
    only the live mode decides between a pairing and a HeadroomError."""
    rng = np.random.default_rng(5)
    tau = fundamental_cocycle(4)
    paired = 0
    for _ in range(20):
        ks = [int(k) for k in rng.integers(-3, 4, size=3)]
        u = scaled_mode(ks[0], np.exp(1j * rng.uniform(0, 2 * math.pi))) * mode(ks[1]) * mode(ks[2])
        if abs(sum(ks)) > 4:
            with pytest.raises(HeadroomError):
                k_pairing(u, tau)
            continue
        assert k_pairing(u, tau) == pytest.approx(winding_number_quadrature(u), abs=1e-8)
        paired += u.degree_bound > 4
    assert paired  # some probes were wider than the cochain and still paired


@pytest.mark.parametrize("bound", [1, 8, 16])
def test_pairing_at_the_degree_bound(bound):
    tau = fundamental_cocycle(bound)
    assert k_pairing(mode(bound), tau) == bound
    assert k_pairing(mode(-bound), tau) == -bound
    for n in (bound + 1, -bound - 1):
        with pytest.raises(HeadroomError, match=f"degree bound {bound}"):
            k_pairing(mode(n), tau)


def test_pairing_conjugation_invariance():
    tau12 = fundamental_cocycle(12)
    v, u = mode(2), mode(3)
    assert k_pairing(v * u * v.conj(), tau12) == pytest.approx(3.0, abs=1e-12)


def test_pairing_rejects_non_unitary(tau):
    with pytest.raises(UnitarityError):
        k_pairing(constant(2.0), tau)
    with pytest.raises(UnitarityError):
        k_pairing(add(mode(1), mode(2)), tau)


def test_headroom_errors():
    small = fundamental_cocycle(2)
    b = hochschild_b(small)
    with pytest.raises(HeadroomError):
        b(mode(2), mode(2), mode(1))
    with pytest.raises(HeadroomError):
        TrigPoly(np.array([1.0, 0.0, 0.0], dtype=complex)).padded(0)
    # zero modes past the bound are no headroom problem
    assert TrigPoly(np.array([0.0, 1.0, 0.0], dtype=complex)).padded(0).degree_bound == 0


def test_padding_to_the_own_bound_is_the_identity():
    f = random_trig(3, np.random.default_rng(4))
    tau = fundamental_cocycle(3)
    assert f.padded(3) is f
    assert tau.padded(3) is tau
