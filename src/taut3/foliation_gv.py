"""Differential forms on the periodic grid torus and Godbillon-Vey integrals.

Forms are stored componentwise at grid vertices; the exterior derivative uses
centered differences (so d o d = 0 exactly, shifts commute) and the wedge is
the pointwise antisymmetric product.  A codim-1 foliation is described by a
nonvanishing 1-form omega; integrability means omega ^ d(omega) = 0, the
defining 1-form theta solves d(omega) = theta ^ omega, and the GV integral is
the integral of theta ^ d(theta) over the torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_PAIRS = ((0, 1), (0, 2), (1, 2))


class SingularityError(ValueError):
    """The 1-form vanishes (or nearly vanishes) somewhere; leaves degenerate."""


class TautnessError(RuntimeError):
    """A foliation in the list failed the transversal-circle test (strict mode)."""


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

    @cached_property
    def _norm_sq(self) -> np.ndarray:
        """Pointwise squared length of a vector-type form, computed once."""
        return _sum_of_squares(self.values)

    @cached_property
    def _mean_norm(self) -> float:
        """Mean length over the grid, once the form has passed the
        nonvanishing check."""
        return _check_nonvanishing(self)


def grid_coords(n: int):
    """Vertex coordinates of the unit torus grid as three broadcastable arrays
    of shapes (n,1,1), (1,n,1) and (1,1,n)."""
    xs = np.arange(n) / n
    return np.meshgrid(xs, xs, xs, indexing="ij", sparse=True)


def form_from_functions(degree: int, n: int, *fns) -> DiscreteForm:
    """Sample component functions f(x, y, z) on the grid.

    The functions receive the broadcastable coordinates of `grid_coords`, so
    a factor that depends on x alone is evaluated on n points, not n^3; each
    result is broadcast to (n,n,n) as it is stored.  Overflow, division by
    zero and invalid operations give inf/nan silently; FoliationSpec rejects
    them.
    """
    if degree not in (0, 1, 2, 3):
        raise ValueError("degree must be 0..3")
    scalar = degree in (0, 3)
    if len(fns) != (1 if scalar else 3):
        raise ValueError(f"a degree-{degree} form needs {1 if scalar else 3} component functions")
    x, y, z = grid_coords(n)
    values = np.empty((n, n, n) if scalar else (3, n, n, n))
    with np.errstate(all="ignore"):
        for comp, f in zip(values[None] if scalar else values, fns):
            comp[...] = f(x, y, z)
    return DiscreteForm(degree, values)


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


def l2_norm(form: DiscreteForm) -> float:
    return float(np.sqrt(np.mean(form.values**2) * (3.0 if form.values.ndim == 4 else 1.0)))


def integrate(form: DiscreteForm) -> float:
    """Integral of a 3-form over the torus (cell volume h^3)."""
    if form.degree != 3:
        raise ValueError("can only integrate 3-forms")
    return float(np.sum(form.values)) * form.spacing**3


def _sum_of_squares(values):
    """Sum of the squared components, (v0^2 + v1^2) + v2^2; overflow gives inf."""
    out, tmp = np.empty_like(values[0]), np.empty_like(values[0])
    with np.errstate(over="ignore"):
        np.square(values[0], out=out)
        out += np.square(values[1], out=tmp)
        out += np.square(values[2], out=tmp)
    return out


def _check_nonvanishing(omega: DiscreteForm, floor: float = 1e-6) -> float:
    """Mean of |omega| over the grid; raises SingularityError where |omega| is
    not finite or (nearly) vanishes."""
    mag = np.sqrt(omega._norm_sq)
    if not np.all(np.isfinite(mag)):
        cell = tuple(int(i) for i in np.argwhere(~np.isfinite(mag))[0])
        raise SingularityError(f"1-form is not finite (or overflows) at grid cell {cell}")
    mean = float(np.mean(mag))
    bad = mag <= floor * max(mean, 1e-300)
    if np.any(bad):
        cell = tuple(int(i) for i in np.argwhere(bad)[0])
        raise SingularityError(f"1-form (nearly) vanishes at grid cell {cell}")
    return mean


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
    theta /= omega._norm_sq
    theta_form = DiscreteForm(1, theta)
    miss = wedge(theta_form, omega).values
    np.subtract(v, miss, out=miss)
    return theta_form, l2_norm(DiscreteForm(2, miss))


def gv_integral(omega: DiscreteForm, theta: DiscreteForm) -> float:
    """Integral of theta ^ d theta over the torus."""
    return integrate(wedge(theta, d(theta)))


@dataclass(frozen=True)
class FoliationSpec:
    omega: DiscreteForm
    transversal: tuple | None = None  # ordered closed path of grid vertices
    label: str = ""

    def __post_init__(self):
        if self.omega.degree != 1:
            raise ValueError("foliation needs a 1-form")
        self.omega._mean_norm  # the nonvanishing check


def tautness_check(spec: FoliationSpec, tol: float = 1e-8):
    """Transversal-circle test: the pairing of omega with each edge of the loop
    must keep a constant sign and stay away from zero.

    Returns True/False, or None when no transversal loop is supplied
    (inconclusive, deliberately distinct from False).
    """
    if spec.transversal is None:
        return None
    path = [tuple(int(c) for c in p) for p in spec.transversal]
    if len(path) < 2:
        raise ValueError("transversal path needs at least two vertices")
    n = spec.omega.grid_size
    outside = [p for p in path if len(p) != 3 or not all(0 <= c < n for c in p)]
    if outside:
        raise ValueError(f"transversal vertex {outside[0]} is not a vertex of the {n}^3 grid")
    w = spec.omega.values
    mean_mag = spec.omega._mean_norm
    pairings = []
    closed = list(path) + [path[0]]
    for p, q in zip(closed[:-1], closed[1:]):
        delta = [(q[i] - p[i]) % n for i in range(3)]
        delta = [dd - n if dd > n // 2 else dd for dd in delta]
        nz = [i for i in range(3) if delta[i] != 0]
        if len(nz) != 1 or abs(delta[nz[0]]) != 1:
            raise ValueError(f"path step {p} -> {q} is not a single lattice edge")
        i, sgn = nz[0], delta[nz[0]]
        val = sgn * 0.5 * (w[i][p] + w[i][q])
        pairings.append(val)
    pairings = np.asarray(pairings)
    if np.min(np.abs(pairings)) <= tol * max(mean_mag, 1e-300):
        return False
    return bool(np.all(pairings > 0) or np.all(pairings < 0))


@dataclass(frozen=True)
class GvReport:
    total: float
    per_foliation: tuple  # (label, gv value or None, taut flag, theta residual)
    warnings: tuple
    integrability_residuals: tuple  # one per foliation, excluded ones included


def gv_term(spec: FoliationSpec, k: int = 0, strict: bool = False, tol: float = 1e-6):
    """One foliation's (label, gv, taut, theta residual) row, Frobenius defect
    and warning (or None) for `gv_invariant`.  d(omega) and theta are freed on
    return, so a caller that samples each foliation just before this call
    holds one foliation's arrays at a time."""
    label = spec.label or f"foliation[{k}]"
    dw, defect = _frobenius(spec.omega)
    taut = tautness_check(spec)
    if taut is False:
        msg = f"{label}: failed the transversal-circle tautness test"
        if strict:
            raise TautnessError(msg)
        return (label, None, taut, None), defect, msg + "; excluded from the sum"
    warning = None if taut else f"{label}: no transversal supplied, tautness inconclusive"
    theta, res = _theta(spec.omega, dw, defect, tol)
    return (label, gv_integral(spec.omega, theta), taut, res), defect, warning


def gv_report(terms) -> GvReport:
    """Sum the `gv_term` results of a list of foliations, in order."""
    rows, defects, warnings = zip(*terms) if terms else ((), (), ())
    total = 0.0
    for _label, val, _taut, _res in rows:
        if val is not None:
            total += val
    return GvReport(float(total), rows, tuple(w for w in warnings if w), defects)


def gv_invariant(foliations, strict: bool = False, tol: float = 1e-6) -> GvReport:
    """Sum of GV integrals over the supplied foliation representatives."""
    return gv_report([gv_term(spec, k, strict, tol) for k, spec in enumerate(foliations)])
