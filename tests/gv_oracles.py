"""The whole-grid Godbillon-Vey chain, kept as the reference for the slab pass
of `taut3.foliation_gv`.

Each step builds a full (3, n, n, n) or (n, n, n) array: the exterior
derivative, the wedge, theta, the theta ^ omega miss, d(theta) and
theta ^ d(theta).  The slab pass must reproduce every field value bit for bit
and every sum to summation rounding.
"""

from __future__ import annotations

import numpy as np

from taut3.foliation_gv import _PAIRS, DiscreteForm, _ddi


def d(form: DiscreteForm) -> DiscreteForm:
    """Exterior derivative; d o d = 0 exactly (centered shifts commute)."""
    h = form.spacing
    v = form.values
    if form.degree == 0:
        out = np.empty((3,) + v.shape)
        for i in range(3):
            _ddi(v, i, h, out[i])
        return DiscreteForm(1, out)
    if form.degree == 1:
        out, tmp = np.empty_like(v), np.empty_like(v[0])
        for comp, (i, j) in zip(out, _PAIRS):
            _ddi(v[j], i, h, comp)
            comp -= _ddi(v[i], j, h, tmp)
        return DiscreteForm(2, out)
    if form.degree == 2:
        # d(c01 dx dy + c02 dx dz + c12 dy dz) = (D2 c01 - D1 c02 + D0 c12) dx dy dz
        out, tmp = np.empty_like(v[0]), np.empty_like(v[0])
        _ddi(v[0], 2, h, out)
        out -= _ddi(v[1], 1, h, tmp)
        out += _ddi(v[2], 0, h, tmp)
        return DiscreteForm(3, out)
    return DiscreteForm(3, np.zeros_like(v))  # top degree: d vanishes identically


def wedge(a: DiscreteForm, b: DiscreteForm) -> DiscreteForm:
    """Pointwise wedge product."""
    ka, kb = a.degree, b.degree
    if ka + kb > 3:
        raise ValueError("wedge degree exceeds 3")
    if ka == 0:
        vals = a.values[None] * b.values if b.degree in (1, 2) else a.values * b.values
        return DiscreteForm(kb, vals)
    if kb == 0:
        return wedge(b, a)
    u, v = a.values, b.values
    if ka == 1 and kb == 1:
        out, tmp = np.empty_like(u), np.empty_like(u[0])
        for comp, (i, j) in zip(out, _PAIRS):
            np.multiply(u[i], v[j], out=comp)
            comp -= np.multiply(u[j], v[i], out=tmp)
        return DiscreteForm(2, out)
    if ka == 1 and kb == 2:
        out = u[0] * v[2]
        tmp = np.multiply(u[1], v[1])
        out -= tmp
        out += np.multiply(u[2], v[0], out=tmp)
        return DiscreteForm(3, out)
    if ka == 2 and kb == 1:
        return wedge(b, a)  # sign (-1)^(1*2) = +1
    raise ValueError("unsupported wedge degrees")


def norm_sq(omega: DiscreteForm) -> np.ndarray:
    """Pointwise squared length (w0^2 + w1^2) + w2^2 of a 1-form."""
    w = omega.values
    return (w[0] ** 2 + w[1] ** 2) + w[2] ** 2


def l2_norm(form: DiscreteForm) -> float:
    return float(np.sqrt(np.mean(form.values**2) * (3.0 if form.values.ndim == 4 else 1.0)))


def integrate(form: DiscreteForm) -> float:
    """Integral of a 3-form over the torus (cell volume h^3)."""
    if form.degree != 3:
        raise ValueError("can only integrate 3-forms")
    return float(np.sum(form.values)) * form.spacing**3


def _frobenius(omega: DiscreteForm):
    """d(omega) and the Frobenius defect, both from one exterior derivative."""
    if omega.degree != 1:
        raise ValueError("expected a 1-form")
    omega._mean_norm  # the nonvanishing check, once per form
    dw = d(omega)
    return dw, l2_norm(wedge(omega, dw)) / (l2_norm(omega) * l2_norm(dw) + 1e-30)


def integrability_residual(omega: DiscreteForm) -> float:
    """Scale-free Frobenius defect |omega ^ d omega| / (|omega| |d omega| + eps)."""
    return _frobenius(omega)[1]


def solve_theta(omega: DiscreteForm, tol: float = 1e-6):
    """Pointwise minimal-norm solution of d(omega) = theta ^ omega.

    Identifying 2-forms with axial vectors, the equation reads
    g = theta x omega, whose minimal-norm solution is (omega x g) / |omega|^2.
    Returns (theta, residual).
    """
    return _theta(omega, *_frobenius(omega), tol)


def _theta(omega: DiscreteForm, dw: DiscreteForm, defect: float, tol: float):
    if defect > tol:
        raise ValueError("form is not integrable within tolerance; no theta exists")
    w, v = omega.values, dw.values
    # theta = omega x g / |omega|^2 with g = (v2, -v1, v0) the axial vector of
    # d(omega); the products and signs are those of np.cross(omega, g)
    theta, tmp = np.empty_like(w), np.empty_like(w[0])
    t0, t1, t2 = theta
    np.multiply(w[1], v[0], out=t0)
    t0 += np.multiply(w[2], v[1], out=tmp)
    np.multiply(w[2], v[2], out=t1)
    t1 -= np.multiply(w[0], v[0], out=tmp)
    np.negative(np.multiply(w[0], v[1], out=t2), out=t2)
    t2 -= np.multiply(w[1], v[2], out=tmp)
    theta /= norm_sq(omega)
    theta_form = DiscreteForm(1, theta)
    miss = wedge(theta_form, omega).values
    np.subtract(v, miss, out=miss)
    return theta_form, l2_norm(DiscreteForm(2, miss))


def gv_integral(omega: DiscreteForm, theta: DiscreteForm) -> float:
    """Integral of theta ^ d theta over the torus."""
    return integrate(wedge(theta, d(theta)))
