"""Checks of the cyclic-cocycle model of `taut3.cyclic` that no run computes:
random trigonometric probes, the Hochschild coboundary and the cyclic
permutation of a degree-1 cochain.  The fundamental cocycle tau is a cyclic
cocycle exactly when b tau = 0 and lambda tau = tau.
"""

import numpy as np

from taut3.cyclic import CyclicCochain, TrigPoly


def random_trig(degree: int, rng, real: bool = False) -> TrigPoly:
    c = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
    if real:
        c = 0.5 * (c + np.conj(c[::-1]))
    return TrigPoly(c)


def hochschild_b(phi: CyclicCochain):
    """Trilinear evaluator of the Hochschild coboundary
    (b phi)(f0, f1, f2) = phi(f0 f1, f2) - phi(f0, f1 f2) + phi(f2 f0, f1).

    Products are exact convolutions; evaluation fails with HeadroomError if a
    product's live modes exceed the cochain kernel's bound.
    """

    def evaluator(f0: TrigPoly, f1: TrigPoly, f2: TrigPoly) -> complex:
        pairs = ((f0, f1), (f1, f2), (f2, f0))
        p01, p12, p20 = ((f * g).padded(phi.degree_bound) for f, g in pairs)
        return phi(p01, f2) - phi(f0, p12) + phi(p20, f1)

    return evaluator


def cyclic_lambda(phi: CyclicCochain) -> CyclicCochain:
    """(lambda phi)(f0, f1) = -phi(f1, f0); cocycles satisfy lambda phi = phi."""
    return CyclicCochain(-phi.kernel.T)
