"""The whole-grid Godbillon-Vey chain, kept as the reference for the slab pass
of `taut3.foliation_gv`.

`DiscreteForm` holds a form sampled on the whole grid, and `form_from_functions`
samples one there.  Each step builds a full (3, n, n, n) or (n, n, n) array:
the exterior derivative (one centered difference `_ddi` per component and
axis), the wedge, theta, the theta ^ omega miss, d(theta) and theta ^ d(theta).
The slab pass works in grid units, so it must reproduce every field value of
this chain at 2h = 1 bit for bit, and every sum at the grid's spacing to
summation rounding (bit for bit on power-of-two grids).  It reads the theta
residual off omega ^ d(omega); the miss d(omega) - theta ^ omega is taken here
directly.  `foliation` turns a sampled form back into the component functions
that `gv_term` takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from taut3.foliation_gv import FoliationSpec, grid_coords

_PAIRS = ((0, 1), (0, 2), (1, 2))  # the components of a 2-form


@dataclass(frozen=True)
class DiscreteForm:
    """Degree-k form sampled on an n^3 periodic grid over the unit torus.

    values: (n,n,n) for k in {0,3}; (3,n,n,n) for k in {1,2} with 2-form
    components ordered (01, 02, 12).
    """

    degree: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if self.degree in (0, 3):
            if v.ndim != 3 or len(set(v.shape)) != 1:
                raise ValueError("scalar-type form needs shape (n, n, n)")
        elif self.degree in (1, 2):
            if v.ndim != 4 or v.shape[0] != 3 or len(set(v.shape[1:])) != 1:
                raise ValueError("vector-type form needs shape (3, n, n, n)")
        else:
            raise ValueError("degree must be 0..3")
        object.__setattr__(self, "values", v)

    @property
    def grid_size(self) -> int:
        return self.values.shape[-1]

    @property
    def spacing(self) -> float:
        return 1.0 / self.grid_size


def form_from_functions(degree: int, n: int, *fns) -> DiscreteForm:
    """Component functions f(x, y, z) sampled on the whole grid at once: each
    is evaluated on the sparse coordinates of `grid_coords` and broadcast to
    the grid."""
    x, y, z = grid_coords(n)
    with np.errstate(all="ignore"):
        values = np.stack([np.broadcast_to(np.asarray(f(x, y, z), dtype=float), (n, n, n))
                           for f in fns])
    return DiscreteForm(degree, values[0] if degree in (0, 3) else values)


def component_fns(values):
    """Component functions that read a (3, n, n, n) array of 1-form values at
    the grid coordinates they are given, so that sampling them gives back
    exactly these values."""
    n = values.shape[-1]

    def reader(comp):
        return lambda *xyz: comp[tuple(np.rint(np.asarray(t) * n).astype(int) for t in xyz)]

    return tuple(reader(c) for c in values)


def foliation(omega: DiscreteForm, transversal=None, label="") -> FoliationSpec:
    """The FoliationSpec of a sampled 1-form."""
    return FoliationSpec(component_fns(omega.values), omega.grid_size, transversal, label)


def _ddi(f, axis, h, out):
    """Centered difference (f[i+1] - f[i-1]) / 2h along a periodic grid axis,
    written into `out`."""
    n = f.shape[axis]

    def cut(start, stop):
        idx = [slice(None)] * f.ndim
        idx[axis] = slice(start, stop)
        return tuple(idx)

    np.subtract(f[cut(2, n)], f[cut(0, n - 2)], out=out[cut(1, n - 1)])
    for i, ahead, behind in ((0, 1 % n, n - 1), (n - 1, 0, (n - 2) % n)):  # the wrap
        np.subtract(f[cut(ahead, ahead + 1)], f[cut(behind, behind + 1)], out=out[cut(i, i + 1)])
    out /= 2.0 * h
    return out


def d(form: DiscreteForm, h: float | None = None) -> DiscreteForm:
    """Exterior derivative; d o d = 0 exactly (centered shifts commute).  The
    differences are divided by 2h, h the grid spacing unless one is given."""
    h = form.spacing if h is None else h
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
        return DiscreteForm(2, _wedge11(u, v, np.empty_like(u), np.empty_like(u[0])))
    if ka == 1 and kb == 2:
        out = u[0] * v[2]
        tmp = np.multiply(u[1], v[1])
        out -= tmp
        out += np.multiply(u[2], v[0], out=tmp)
        return DiscreteForm(3, out)
    if ka == 2 and kb == 1:
        return wedge(b, a)  # sign (-1)^(1*2) = +1
    raise ValueError("unsupported wedge degrees")


def _wedge11(u, v, out, tmp):
    """Pointwise u ^ v of two 1-forms, components (01, 02, 12)."""
    for comp, (i, j) in zip(out, _PAIRS):
        np.multiply(u[i], v[j], out=comp)
        comp -= np.multiply(u[j], v[i], out=tmp)
    return out


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


def _frobenius(omega: DiscreteForm, h: float | None = None):
    """d(omega) and the Frobenius defect, both from one exterior derivative
    (differences over 2h, as `d` takes them)."""
    if omega.degree != 1:
        raise ValueError("expected a 1-form")
    dw = d(omega, h)
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
