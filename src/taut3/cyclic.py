r"""Degree-1 cyclic cohomology of C(S^1) on a truncated Fourier model.

Elements are trigonometric polynomials; the fundamental cocycle is
tau(f0, f1) = (1/2 pi i) \oint f0 df1, evaluated exactly on coefficients as
Sum_k k (f0)_{-k} (f1)_k.  Cochains are stored as kernel matrices
K[k, l] with phi(f0, f1) = Sum_{k,l} K[k, l] (f0)_k (f1)_l, so the Hochschild
coboundary and the cyclic permutation are exact coefficient arithmetic.
Products truncate; every operation declares the degree headroom it needs and
raises instead of silently dropping modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class HeadroomError(ValueError):
    """A product would exceed the declared Fourier degree bound."""


class UnitarityError(ValueError):
    """The probe element is not a unitary function on the circle."""


@dataclass(frozen=True)
class TrigPoly:
    """Trigonometric polynomial sum_k c_k e^{i k theta}, |k| <= degree_bound.

    coefficients: complex array of length 2*degree_bound + 1, mode k at
    index k + degree_bound.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("need an odd-length coefficient vector")
        object.__setattr__(self, "coefficients", c)

    @property
    def degree_bound(self) -> int:
        return (self.coefficients.size - 1) // 2

    def coefficient(self, k: int) -> complex:
        d = self.degree_bound
        return complex(self.coefficients[k + d]) if abs(k) <= d else 0.0j

    def padded(self, bound: int) -> "TrigPoly":
        d = self.degree_bound
        if bound < d:
            if np.any(np.abs(self.coefficients[: d - bound]) > 0) or np.any(
                np.abs(self.coefficients[d + bound + 1 :]) > 0
            ):
                raise HeadroomError("cannot shrink a trig polynomial with live modes")
            return TrigPoly(self.coefficients[d - bound : d + bound + 1])
        out = np.zeros(2 * bound + 1, dtype=complex)
        out[bound - d : bound + d + 1] = self.coefficients
        return TrigPoly(out)

    def is_real_valued(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.coefficients - np.conj(self.coefficients[::-1]))) <= tol)

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        bound = max(self.degree_bound, other.degree_bound)
        return TrigPoly(self.padded(bound).coefficients + other.padded(bound).coefficients)

    def __mul__(self, other):
        if np.isscalar(other):
            return TrigPoly(self.coefficients * other)
        # exact convolution; the result's bound is the sum of the bounds
        return TrigPoly(np.convolve(self.coefficients, other.coefficients))

    __rmul__ = __mul__

    def conj(self) -> "TrigPoly":
        return TrigPoly(np.conj(self.coefficients[::-1]))

    def evaluate(self, theta) -> np.ndarray:
        d = self.degree_bound
        ks = np.arange(-d, d + 1)
        return np.exp(1j * np.outer(np.asarray(theta, float), ks)) @ self.coefficients


def mode(k: int, amplitude: complex = 1.0) -> TrigPoly:
    c = np.zeros(2 * abs(k) + 1, dtype=complex)
    c[k + abs(k)] = amplitude
    return TrigPoly(c)


def constant(value: complex) -> TrigPoly:
    return TrigPoly(np.array([value], dtype=complex))


def random_trig(degree: int, rng, real: bool = False) -> TrigPoly:
    c = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
    if real:
        c = 0.5 * (c + np.conj(c[::-1]))
    return TrigPoly(c)


@dataclass(frozen=True)
class CyclicCochain:
    """Degree-1 cochain phi(f0, f1) = sum K[k, l] (f0)_k (f1)_l.

    kernel: complex (2B+1, 2B+1) matrix, mode k at index k + B.
    """

    kernel: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=complex)
        if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] % 2 == 0:
            raise ValueError("kernel must be odd-sized and square")
        object.__setattr__(self, "kernel", k)

    @property
    def degree_bound(self) -> int:
        return (self.kernel.shape[0] - 1) // 2

    def padded(self, bound: int) -> "CyclicCochain":
        b = self.degree_bound
        if bound < b:
            raise ValueError("cannot shrink a cochain kernel")
        out = np.zeros((2 * bound + 1, 2 * bound + 1), dtype=complex)
        out[bound - b : bound + b + 1, bound - b : bound + b + 1] = self.kernel
        return CyclicCochain(out)

    def __call__(self, f0: TrigPoly, f1: TrigPoly) -> complex:
        b = max(self.degree_bound, f0.degree_bound, f1.degree_bound)
        k = self.padded(b).kernel
        return complex(f0.padded(b).coefficients @ k @ f1.padded(b).coefficients)

    def __add__(self, other: "CyclicCochain") -> "CyclicCochain":
        b = max(self.degree_bound, other.degree_bound)
        return CyclicCochain(self.padded(b).kernel + other.padded(b).kernel)

    def __mul__(self, scalar):
        return CyclicCochain(self.kernel * scalar)

    __rmul__ = __mul__


def fundamental_cocycle(degree_bound: int = 8) -> CyclicCochain:
    r"""tau(f0, f1) = (1/2 pi i) \oint f0 df1 = sum_l l (f0)_{-l} (f1)_l."""
    b = degree_bound
    kern = np.zeros((2 * b + 1, 2 * b + 1), dtype=complex)
    for l in range(-b, b + 1):
        kern[-l + b, l + b] = l
    return CyclicCochain(kern)


def hochschild_b(phi: CyclicCochain):
    """Trilinear evaluator of the Hochschild coboundary
    (b phi)(f0, f1, f2) = phi(f0 f1, f2) - phi(f0, f1 f2) + phi(f2 f0, f1).

    Products are exact convolutions; evaluation fails with HeadroomError if a
    product's live modes exceed the cochain kernel's bound.
    """

    def evaluator(f0: TrigPoly, f1: TrigPoly, f2: TrigPoly) -> complex:
        bound = phi.degree_bound
        for prod in (f0 * f1, f1 * f2, f2 * f0):
            live = np.nonzero(np.abs(prod.coefficients) > 0)[0]
            if live.size and max(abs(live - prod.degree_bound)) > bound:
                raise HeadroomError(
                    f"product degree exceeds the cochain bound {bound}; "
                    "rebuild the cochain with more headroom"
                )
        return phi(f0 * f1, f2) - phi(f0, f1 * f2) + phi(f2 * f0, f1)

    return evaluator


def cyclic_lambda(phi: CyclicCochain) -> CyclicCochain:
    """(lambda phi)(f0, f1) = -phi(f1, f0); cocycles satisfy lambda phi = phi."""
    return CyclicCochain(-phi.kernel.T)


@dataclass(frozen=True)
class Current1:
    """1-current on S^1 given by a density: c(omega) = int rho(theta) omega.

    For omega = f dtheta / (2 pi i) normalization below, the density is a trig
    polynomial; closedness is automatic in top degree (recorded, not checked).
    """

    density: TrigPoly

    @property
    def closed(self) -> bool:
        return True  # top-degree currents on S^1 are closed for dimension reasons


def current_to_cocycle(current: Current1, degree_bound: int | None = None) -> CyclicCochain:
    """phi_c(f0, f1) = c(f0 df1) with the (1/2 pi i) normalization: the
    uniform density rho = 1 maps to the fundamental cocycle tau.

    Coefficients: (1/2pi) int rho f0 f1' dtheta = sum_{j+k+l=0} rho_j (f0)_k l (f1)_l,
    so K[k, l] = l * rho_{-k-l}.
    """
    rho = current.density
    b = degree_bound if degree_bound is not None else rho.degree_bound + 8
    kern = np.zeros((2 * b + 1, 2 * b + 1), dtype=complex)
    for k in range(-b, b + 1):
        for l in range(-b, b + 1):
            kern[k + b, l + b] = l * rho.coefficient(-k - l)
    return CyclicCochain(kern)


def k_pairing(u: TrigPoly, phi: CyclicCochain, tol: float = 1e-10) -> float:
    """phi(u^{-1}, u) for unitary u; for phi = tau this is the winding number."""
    uu = u * u.conj()
    expect = constant(1.0).padded(uu.degree_bound)
    if np.max(np.abs(uu.coefficients - expect.coefficients)) > tol:
        raise UnitarityError("u u* != 1: probe is not unitary on the circle")
    val = phi(u.conj(), u)  # u^{-1} = conj(u) for unitary u
    if abs(val.imag) > 1e-8 * max(1.0, abs(val)):
        raise AssertionError(f"pairing has a stray imaginary part: {val.imag}")
    return float(val.real)


@dataclass(frozen=True)
class TfccReport:
    cochain: CyclicCochain
    coefficient: float  # multiple of the fundamental class generator
    foliation_count: int


def tfcc_sum(g: int, degree_bound: int = 8) -> TfccReport:
    """Transverse-fundamental-cocycle sum over g declared foliation classes.

    Each taut foliation with a once-hitting closed transversal contributes the
    fundamental cocycle of C(S^1); the sum is g * tau, still a cyclic cocycle.
    """
    if not isinstance(g, (int, np.integer)) or g <= 0:
        raise ValueError("g must be a positive integer (cardinality of the declared class list)")
    tau = fundamental_cocycle(degree_bound)
    total = float(g) * tau
    pairing = k_pairing(mode(1), total)
    return TfccReport(cochain=total, coefficient=pairing, foliation_count=int(g))


def winding_number_quadrature(u: TrigPoly, samples: int = 4096) -> float:
    r"""Oracle: (1/2 pi i) \oint u^{-1} du by trapezoid quadrature."""
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    vals = u.evaluate(theta)
    dtheta = theta[1] - theta[0]
    ks = np.arange(-u.degree_bound, u.degree_bound + 1)
    dvals = (np.exp(1j * np.outer(theta, ks)) * (1j * ks)) @ u.coefficients
    integral = np.sum(dvals / vals) * dtheta
    return float((integral / (2.0j * math.pi)).real)
