r"""Degree-1 cyclic cohomology of C(S^1) on a truncated Fourier model.

Elements are trigonometric polynomials; the fundamental cocycle is
tau(f0, f1) = (1/2 pi i) \oint f0 df1, evaluated exactly on coefficients as
Sum_k k (f0)_{-k} (f1)_k.  Cochains are stored as kernel matrices
K[k, l] with phi(f0, f1) = Sum_{k,l} K[k, l] (f0)_k (f1)_l, so evaluation is
exact coefficient arithmetic.  The Hochschild coboundary and the cyclic
permutation that check tau is a cyclic cocycle live in the tests
(`tests/cyclic_oracles.py`).
Products truncate; every operation declares the degree headroom it needs and
raises instead of silently dropping modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


PAIRING_TOLERANCE = 1e-10  # unitarity defect and relative imaginary part a pairing accepts


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

    def padded(self, bound: int) -> "TrigPoly":
        d = self.degree_bound
        if bound == d:
            return self
        if bound < d:
            if np.any(np.abs(self.coefficients[: d - bound]) > 0) or np.any(
                np.abs(self.coefficients[d + bound + 1 :]) > 0
            ):
                raise HeadroomError(f"live modes beyond the degree bound {bound}")
            return TrigPoly(self.coefficients[d - bound : d + bound + 1])
        out = np.zeros(2 * bound + 1, dtype=complex)
        out[bound - d : bound + d + 1] = self.coefficients
        return TrigPoly(out)

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        # exact convolution; the result's bound is the sum of the bounds
        return TrigPoly(np.convolve(self.coefficients, other.coefficients))

    def conj(self) -> "TrigPoly":
        return TrigPoly(np.conj(self.coefficients[::-1]))


def mode(k: int) -> TrigPoly:
    c = np.zeros(2 * abs(k) + 1, dtype=complex)
    c[k + abs(k)] = 1.0
    return TrigPoly(c)


def constant(value: complex) -> TrigPoly:
    return TrigPoly(np.array([value], dtype=complex))


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
        if bound == b:
            return self
        out = np.zeros((2 * bound + 1, 2 * bound + 1), dtype=complex)
        out[bound - b : bound + b + 1, bound - b : bound + b + 1] = self.kernel
        return CyclicCochain(out)

    def __call__(self, f0: TrigPoly, f1: TrigPoly) -> complex:
        b = max(self.degree_bound, f0.degree_bound, f1.degree_bound)
        k = self.padded(b).kernel
        return complex(f0.padded(b).coefficients @ k @ f1.padded(b).coefficients)


def fundamental_cocycle(degree_bound: int = 8) -> CyclicCochain:
    r"""tau(f0, f1) = (1/2 pi i) \oint f0 df1 = sum_l l (f0)_{-l} (f1)_l."""
    b = degree_bound
    kern = np.zeros((2 * b + 1, 2 * b + 1), dtype=complex)
    for l in range(-b, b + 1):
        kern[-l + b, l + b] = l
    return CyclicCochain(kern)


def k_pairing(u: TrigPoly, phi: CyclicCochain) -> float:
    """phi(u^{-1}, u) for unitary u; for phi = tau this is the winding number.

    Raises HeadroomError if u has a live mode past phi's degree bound, where
    the pairing would read the zero padding of phi's kernel.
    """
    u = u.padded(phi.degree_bound)
    uu = u * u.conj()
    expect = constant(1.0).padded(uu.degree_bound)
    if np.max(np.abs(uu.coefficients - expect.coefficients)) > PAIRING_TOLERANCE:
        raise UnitarityError("u u* != 1: probe is not unitary on the circle")
    val = phi(u.conj(), u)  # u^{-1} = conj(u) for unitary u
    if abs(val.imag) > PAIRING_TOLERANCE * max(1.0, abs(val)):
        raise AssertionError(f"pairing has a stray imaginary part: {val.imag}")
    return float(val.real)
