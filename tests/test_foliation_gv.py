import json
import tracemalloc
from collections import Counter
from math import isfinite, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gv_oracles as go
from gv_oracles import (
    DiscreteForm,
    component_fns,
    d,
    foliation,
    form_from_functions,
    integrate,
    l2_norm,
    solve_theta,
    wedge,
)
from taut3 import foliation_gv as fg
from taut3.exprs import compile_expr
from taut3.foliation_gv import (
    FoliationSpec,
    SingularityError,
    TautnessError,
    grid_coords,
    gv_report,
    gv_term,
    tautness_check,
)

TWO_PI = 2 * np.pi
LENS_7_2 = Path(__file__).resolve().parents[1] / "perfbench" / "manifests" / "lens_7_2.json"
POINCARE = LENS_7_2.with_name("poincare.json")


def exp_f_fns(ax=0.3, ay=0.2):
    """The components of e^{f(x,y)} dz with f = ax sin(2 pi x) + ay cos(2 pi y);
    integrable."""
    return (lambda x, y, z: 0 * x, lambda x, y, z: 0 * x,
            lambda x, y, z: np.exp(ax * np.sin(TWO_PI * x) + ay * np.cos(TWO_PI * y)))


def omega_exp_f(n, ax=0.3, ay=0.2):
    """e^{f(x,y)} dz sampled on the grid."""
    return form_from_functions(1, n, *exp_f_fns(ax, ay))


def gv_row(omega, tol=None):
    """(gv, theta residual, defect) of a sampled omega through the production
    slab pass, with INTEGRABILITY_TOLERANCE set to `tol` if one is given."""
    with pytest.MonkeyPatch.context() as mp:
        if tol is not None:
            mp.setattr(fg, "INTEGRABILITY_TOLERANCE", tol)
        (_label, gv, _taut, res), defect, _warning = gv_term(foliation(omega))
    return gv, res, defect


def ring(fns, n):
    """The sampled rows of a 1-form, as the slab pass reads them."""
    return fg._Omega(tuple(fns), n, np.empty((0, 3), int))


def pass_fields(fns, n):
    """The per-slab blocks of `_gv_blocks` on component functions, copied out of
    the reused buffers and concatenated along x, in the order and the grid
    units of `_Slab`: d(omega), omega ^ d(omega), |omega|^2, theta, d(theta)
    and theta ^ d(theta)."""
    blocks = [[a.copy() for a in s] for s in fg._gv_blocks(ring(fns, n))]
    return [np.concatenate(parts, axis=parts[0].ndim - 3) for parts in zip(*blocks)]


def slab_fields(omega):
    """`pass_fields` of a sampled omega."""
    return pass_fields(component_fns(omega.values), omega.grid_size)


def test_dd_is_zero_to_roundoff():
    rng = np.random.default_rng(0)
    f0 = DiscreteForm(0, rng.standard_normal((16, 16, 16)))
    f1 = DiscreteForm(1, rng.standard_normal((3, 16, 16, 16)))
    scale = 16.0**2  # two divisions by h amplify roundoff by n^2
    assert np.max(np.abs(d(d(f0)).values)) < 1e-13 * scale
    assert np.max(np.abs(d(d(f1)).values)) < 1e-13 * scale


def test_wedge_antisymmetry_and_degrees():
    rng = np.random.default_rng(1)
    a = DiscreteForm(1, rng.standard_normal((3, 8, 8, 8)))
    b = DiscreteForm(1, rng.standard_normal((3, 8, 8, 8)))
    assert np.max(np.abs(wedge(a, a).values)) == 0.0
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert np.max(np.abs(ab.values + ba.values)) < 1e-12
    top = wedge(a, ab)
    assert top.degree == 3
    with pytest.raises(ValueError):
        wedge(top, a)


def test_integral_of_exact_form_vanishes():
    rng = np.random.default_rng(2)
    two = DiscreteForm(2, rng.standard_normal((3, 12, 12, 12)))
    assert abs(integrate(d(two))) < 1e-12


def test_derivative_matches_analytic():
    n = 64
    f = form_from_functions(0, n, lambda x, y, z: np.sin(TWO_PI * x) * np.cos(TWO_PI * y))
    df = d(f)
    x, y, z = grid_coords(n)
    exact = TWO_PI * np.cos(TWO_PI * x) * np.cos(TWO_PI * y)
    # centered-difference error bound: (2 pi)^3 h^2 / 6 ~ 1e-2 at n = 64
    assert np.max(np.abs(df.values[0] - exact)) < 2e-2


def test_integrability_residual_discriminates():
    n = 32
    assert gv_row(omega_exp_f(n))[2] < 1e-12
    # the standard contact-like form is maximally non-integrable
    contact = form_from_functions(
        1,
        n,
        lambda x, y, z: np.cos(TWO_PI * z),
        lambda x, y, z: np.sin(TWO_PI * z),
        lambda x, y, z: 1.0 + 0 * x,
    )
    assert gv_row(contact, tol=np.inf)[2] > 0.1


def test_theta_residual_is_scale_free():
    """The theta residual is relative to |d omega|, so omega and c omega report
    the same one: to the bit for c = 2^332, whose products round as omega's do,
    and at roundoff for c = 10^100, which rounds each sample differently.  On
    eps (cos(2 pi z) dx + sin(2 pi z) dy) + dz the part of d omega along omega
    is eps times d omega, so the residual is eps.  It is taken from
    |omega ^ d omega| / |omega|, divided before it is squared, so that it stays
    finite at c = 10^100."""
    n, eps = 32, 2.0**-100

    def residual(c):
        fns = (lambda x, y, z: c * eps * np.cos(TWO_PI * z),
               lambda x, y, z: c * eps * np.sin(TWO_PI * z), lambda x, y, z: c + 0 * x)
        return gv_row(form_from_functions(1, n, *fns), tol=np.inf)[1]

    base = residual(1.0)
    assert base == pytest.approx(eps, rel=1e-12, abs=0)
    assert residual(2.0**332) == base
    assert residual(1e100) == pytest.approx(base, rel=1e-12, abs=0)


def test_theta_residual_of_an_integrable_product_form_is_zero():
    """On f(x) dz, omega ^ d(omega) is exactly (signed) zero, and so is the
    residual read off it; also where d omega = 0."""
    n = 32

    def residual(f):
        return gv_row(form_from_functions(1, n, lambda x, y, z: 0 * x, lambda x, y, z: 0 * x, f))[1]

    assert residual(lambda x, y, z: 2 + np.sin(TWO_PI * x)) == 0.0
    assert residual(lambda x, y, z: 1 + 0 * x) == 0.0  # d omega = 0


def test_solve_theta_matches_analytic_minimal_solution():
    n = 48
    om = omega_exp_f(n)
    assert gv_row(om)[1] < 1e-12
    theta = slab_fields(om)[3] * (n / 2)  # from grid units
    x, y, z = grid_coords(n)
    fx = 0.3 * TWO_PI * np.cos(TWO_PI * x)
    fy = -0.2 * TWO_PI * np.sin(TWO_PI * y)
    assert np.max(np.abs(theta[0] - fx)) < 1e-2
    assert np.max(np.abs(theta[1] - fy)) < 1e-2
    assert np.max(np.abs(theta[2])) < 1e-12


def contact_fns():
    """cos(2 pi z) dx + sin(2 pi z) dy + dz, maximally non-integrable."""
    return (lambda x, y, z: np.cos(TWO_PI * z), lambda x, y, z: np.sin(TWO_PI * z),
            lambda x, y, z: 1.0 + 0 * x)


def test_solve_theta_rejects_nonintegrable():
    n = 16
    with pytest.raises(ValueError, match="not integrable"):
        gv_term(FoliationSpec(contact_fns(), n))
    with pytest.raises(ValueError, match="not integrable"):
        solve_theta(form_from_functions(1, n, *contact_fns()))


def test_singular_form_detected(monkeypatch):
    """sin(2 pi x) dx vanishes on the vertex planes x = 0 and x = 1/2, in one
    slab or, with 4-row slabs, in two; `_raise_at` names the first flagged
    cell."""
    fns = (lambda x, y, z: np.sin(TWO_PI * x), lambda x, y, z: 0 * x, lambda x, y, z: 0 * x)
    for rows in (16, 4):
        ragged_slabs(monkeypatch, 16, rows, 16)
        with pytest.raises(SingularityError, match=r"vanishes at grid cell \(0, 0, 0\)"):
            gv_term(FoliationSpec(fns, 16))


def test_gv_closed_form_cases_vanish():
    for n in (16, 32):
        assert abs(gv_row(omega_exp_f(n))[0]) < 1e-8


def test_gv_invariant_under_constant_rescale():
    n = 32
    om = omega_exp_f(n)
    scaled = DiscreteForm(1, 2.7 * om.values)
    assert abs(gv_row(om)[0] - gv_row(scaled)[0]) < 1e-10


def gauge_changed_fns():
    """The components of e^{g} dz for a generic smooth g: same foliation as dz,
    GV class 0."""
    def g(x, y, z):
        return (
            0.4 * np.sin(TWO_PI * x) * np.cos(TWO_PI * y)
            + 0.3 * np.sin(TWO_PI * y) * np.sin(TWO_PI * z)
            + 0.2 * np.cos(TWO_PI * x) * np.sin(TWO_PI * z)
        )

    return (lambda x, y, z: 0 * x, lambda x, y, z: 0 * x, lambda x, y, z: np.exp(g(x, y, z)))


def gauge_changed_omega(n):
    """e^{g} dz sampled on the grid."""
    return form_from_functions(1, n, *gauge_changed_fns())


def test_gauge_change_drift_converges():
    """GV of e^g dz must converge to the invariant value 0 at order >= 1.5."""
    drifts = []
    for n in (16, 32, 64):
        drifts.append(abs(gv_term(FoliationSpec(gauge_changed_fns(), n))[0][1]))
    assert drifts[0] > drifts[1] > drifts[2]
    orders = [np.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
    assert min(orders) >= 1.5


@pytest.mark.parametrize("c", [2.0**300, 2.0**400], ids=["2^300", "2^400"])
def test_a_power_of_two_scale_changes_no_row_and_no_defect(c):
    """c e^g (0.3 dx + 0.7 dy + dz) gives the row and defect of c = 1 bit for
    bit: the sum of |omega ^ d omega|^2, which grows as c^4, would overflow
    at c = 2^300 and 2^400 unless it were taken at a scale that follows
    |omega|."""
    g = gauge_changed_fns()[2]
    n, loop = 32, tuple((0, 0, k) for k in range(32))

    def term(c):
        fns = tuple((lambda a: lambda x, y, z: c * a * g(x, y, z))(a) for a in (0.3, 0.7, 1.0))
        return gv_term(FoliationSpec(fns, n, loop))

    (label, gv, taut, res), defect, warning = term(1.0)
    assert taut and warning is None and 0 < defect < 1e-15
    assert term(c) == ((label, gv, taut, res), defect, None)


@pytest.mark.parametrize("c", [1.0, 1e-15, 1e-20, 2.0**-300], ids=["1", "1e-15", "1e-20", "2^-300"])
def test_a_small_non_integrable_form_is_rejected(c):
    """The defect's sums and its eps share a scale that follows |omega| down
    as well as up, so shrinking omega cannot bring |omega ^ d omega| under an
    absolute eps: a random form stays non-integrable at every c."""
    omega = random_omega(np.random.default_rng(0), 16)
    with pytest.raises(ValueError, match="not integrable"):
        gv_term(foliation(DiscreteForm(1, c * omega.values)))


def taut_flag(fns, n, transversal):
    return gv_term(FoliationSpec(fns, n, transversal))[0][2]


def test_tautness_check_outcomes():
    n = 24
    loop_z = tuple((0, 0, k) for k in range(n))
    loop_x = tuple((k, 0, 0) for k in range(n))
    assert taut_flag(exp_f_fns(), n, loop_z) is True
    assert taut_flag(exp_f_fns(), n, loop_x) is False
    assert taut_flag(exp_f_fns(), n, None) is None  # inconclusive, not False
    with pytest.raises(ValueError, match="single lattice edge"):
        taut_flag(exp_f_fns(), n, ((0, 0, 0), (0, 0, 2)))
    with pytest.raises(ValueError, match="at least two vertices"):
        taut_flag(exp_f_fns(), n, ((0, 0, 0),))
    # the test itself: a constant sign, and every pairing above the floor
    assert tautness_check(np.array([1.0, 2.0]), 1.0) is True
    assert tautness_check(np.array([-1.0, -2.0]), 1.0) is True
    assert tautness_check(np.array([1.0, -2.0]), 1.0) is False
    assert tautness_check(np.array([1.0, 1e-9]), 1.0) is False


def test_tautness_reads_omega_at_the_loop_vertices_of_every_chunk(monkeypatch):
    """The pairings come from omega at the loop's vertices, whichever chunk of
    the ring sampled them: on a random form, a loop through every row, with
    edges along all three axes, pairs as the sampled array does."""
    n = 9
    ragged_slabs(monkeypatch, n, rows=2, chunk=4)
    values = np.random.default_rng(5).standard_normal((3, n, n, n))
    values[2] += 4.0
    loop = ([(0, 1, 3)] + [(i, 2, 3) for i in range(n)] + [(i, 2, 4) for i in range(n - 1, -1, -1)]
            + [(0, 1, 4)])
    seen = []
    monkeypatch.setattr(fg, "tautness_check", lambda pairings, mean: seen.append(pairings) or True)
    monkeypatch.setattr(fg, "INTEGRABILITY_TOLERANCE", np.inf)
    gv_term(foliation(DiscreteForm(1, values), transversal=tuple(loop)))
    want = []
    for p, q in zip(loop, loop[1:] + loop[:1]):
        axis = next(i for i in range(3) if p[i] != q[i])
        sign = 1 if (q[axis] - p[axis]) % n == 1 else -1
        want.append(sign * 0.5 * (values[axis][p] + values[axis][q]))
    assert np.array_equal(seen[0], np.array(want))


def test_gv_invariant_report_and_strict_mode():
    n = 24
    good = FoliationSpec(exp_f_fns(), n, tuple((0, 0, k) for k in range(n)), label="good")
    bad = FoliationSpec(exp_f_fns(), n, tuple((k, 0, 0) for k in range(n)), label="bad")
    rep = gv_report([gv_term(good, 0), gv_term(bad, 1)])
    assert rep.per_foliation[0][1] is not None
    assert rep.per_foliation[1][1] is None  # excluded
    assert any("tautness" in w for w in rep.warnings)
    with pytest.raises(TautnessError):
        gv_report([gv_term(bad, 0, strict=True)])


@pytest.mark.parametrize("vertex", [(0, 0, 8), (0, 0, -1), (0, 0)])
def test_tautness_check_rejects_vertices_off_the_grid(vertex):
    with pytest.raises(ValueError, match="not a vertex"):
        gv_term(FoliationSpec(exp_f_fns(), 8, ((0, 0, 7), vertex)))


@pytest.mark.parametrize("component", [
    lambda x, y, z: (x - x) / (x - x) + 1,  # nan everywhere
    lambda x, y, z: np.exp(1000 * x),  # inf where x > 0.7
    lambda x, y, z: 1e200 * (1 + x),  # finite, but its square overflows
])
def test_non_finite_form_is_rejected_without_warnings(component):
    fns = (lambda x, y, z: 0 * x, lambda x, y, z: 0 * x, component)
    with pytest.raises(SingularityError, match="not finite"):
        gv_term(FoliationSpec(fns, 8))


# --- the kernels as first written, kept as oracles ------------------------------
# np.roll differences, dense meshgrid sampling, np.cross theta and list-plus-stack
# products; the whole-grid kernels of gv_oracles.py and the production sampling
# and differences must reproduce them bit for bit.

PAIRS = ((0, 1), (0, 2), (1, 2))


def roll_ddi(f, axis, h):
    return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2.0 * h)


def stack_d(form):
    h, v = form.spacing, form.values
    if form.degree == 0:
        return np.stack([roll_ddi(v, i, h) for i in range(3)])
    if form.degree == 1:
        return np.stack([roll_ddi(v[j], i, h) - roll_ddi(v[i], j, h) for i, j in PAIRS])
    if form.degree == 2:
        return roll_ddi(v[0], 2, h) - roll_ddi(v[1], 1, h) + roll_ddi(v[2], 0, h)
    return np.zeros_like(v)


def stack_wedge(a, b):
    ka, kb = a.degree, b.degree
    if ka == 0:
        return a.values[None] * b.values if kb in (1, 2) else a.values * b.values
    if kb == 0:
        return stack_wedge(b, a)
    if ka == 1 and kb == 1:
        return np.stack([a.values[i] * b.values[j] - a.values[j] * b.values[i] for i, j in PAIRS])
    if ka == 2:
        return stack_wedge(b, a)
    return a.values[0] * b.values[2] - a.values[1] * b.values[1] + a.values[2] * b.values[0]


def cross_theta(omega, dw):
    w, v = omega.values, dw.values
    g = np.stack([v[2], -v[1], v[0]])
    theta = np.cross(w, g, axisa=0, axisb=0).transpose(3, 0, 1, 2) / np.sum(w**2, axis=0)
    res = l2_norm(DiscreteForm(2, v - stack_wedge(DiscreteForm(1, theta), omega)))
    return theta, res


def dense_sample(n, *fns):
    xs = np.arange(n) / n
    x, y, z = np.meshgrid(xs, xs, xs, indexing="ij")
    with np.errstate(all="ignore"):
        return np.stack([np.broadcast_to(np.asarray(f(x, y, z), dtype=float), x.shape)
                         for f in fns])


def random_form(rng, degree, n):
    shape = (n, n, n) if degree in (0, 3) else (3, n, n, n)
    return DiscreteForm(degree, rng.standard_normal(shape))


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_sliced_difference_matches_roll(n, axis):
    f = np.random.default_rng(n + 10 * axis).standard_normal((n, n, n))
    got = go._ddi(f, axis, 1.0 / n, np.empty_like(f))
    assert np.array_equal(got, roll_ddi(f, axis, 1.0 / n))


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_d_matches_stacked_oracle(n, degree):
    form = random_form(np.random.default_rng(degree), degree, n)
    assert np.array_equal(d(form).values, stack_d(form))


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("ka, kb", [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0),
                                    (1, 1), (1, 2), (2, 1)])
def test_wedge_matches_stacked_oracle(n, ka, kb):
    rng = np.random.default_rng(10 * ka + kb)
    a, b = random_form(rng, ka, n), random_form(rng, kb, n)
    assert np.array_equal(wedge(a, b).values, stack_wedge(a, b))


@pytest.mark.parametrize("n", [6, 7])
def test_theta_matches_cross_oracle(n):
    rng = np.random.default_rng(n)
    omega = DiscreteForm(1, rng.standard_normal((3, n, n, n)) + np.array([0, 0, 3.0])[:, None, None, None])
    dw = random_form(rng, 2, n)  # any 2-form: the pointwise solve does not need integrability
    theta, res = go._theta(omega, dw, 0.0, 1e-6)
    want_theta, want_res = cross_theta(omega, dw)
    assert np.array_equal(theta.values, want_theta)
    assert res == want_res


def test_theta_keeps_the_signed_zeros_of_np_cross():
    n = 6
    rng = np.random.default_rng(3)
    omega = DiscreteForm(1, np.stack([np.zeros((n, n, n)), np.zeros((n, n, n)),
                                      np.exp(rng.standard_normal((n, n, n)))]))
    dw = DiscreteForm(2, rng.standard_normal((3, n, n, n)) * (rng.random((3, n, n, n)) < 0.5))
    theta, _ = go._theta(omega, dw, 0.0, 1e-6)
    want, _ = cross_theta(omega, dw)
    assert np.array_equal(np.signbit(theta.values), np.signbit(want))


def dense_rows(n, rows, *fns):
    """The components evaluated on dense coordinate arrays of the grid rows
    `rows` (an index array)."""
    xs = np.arange(n) / n
    x, y, z = np.meshgrid(xs[rows], xs, xs, indexing="ij")
    with np.errstate(all="ignore"):
        return np.stack([np.broadcast_to(np.asarray(f(x, y, z), dtype=float), x.shape)
                         for f in fns])


def sampled_by_the_pass(monkeypatch, fns, n, want=None, transversal=None):
    """The grid rows that gv_term's pass samples on `fns` at grid n, in order;
    each sample is checked, as it is taken, against those rows of `want` or,
    by default, a dense evaluation of them."""
    seen, real = [], fg._Omega.sample

    def checking(self, rows, out):
        real(self, rows, out)
        picked = np.arange(n)[rows]
        assert np.array_equal(out, dense_rows(n, picked, *fns) if want is None else want[:, picked])
        seen.extend(picked.tolist())
        return out

    with monkeypatch.context() as mp:
        mp.setattr(fg._Omega, "sample", checking)
        mp.setattr(fg, "INTEGRABILITY_TOLERANCE", np.inf)
        gv_term(FoliationSpec(tuple(fns), n, transversal))
    return seen


def rows_sampled(fns, n):
    """Each grid row once, and the wrap rows n-2, n-1, 0 and 1 once more where
    the ring holds less than the grid."""
    want = Counter(range(n))
    if ring(fns, n).edge_rows is not None:
        want.update([n - 2, n - 1, 0, 1])
    return want


@pytest.mark.parametrize("index", [0, 1])
def test_sparse_sampling_matches_dense_on_the_bench_expressions(monkeypatch, index):
    entry = json.loads(LENS_7_2.read_text())["foliations"][index]
    fns = [compile_expr(s) for s in entry["omega"]]
    n = entry["grid"]
    assert Counter(sampled_by_the_pass(monkeypatch, fns, n)) == rows_sampled(fns, n)


def test_sparse_sampling_matches_dense_on_python_functions(monkeypatch):
    fns = [lambda x, y, z: 0 * x, lambda x, y, z: 1.0,
           lambda x, y, z: np.exp(np.sin(TWO_PI * x) * np.cos(TWO_PI * y) + z)]
    assert Counter(sampled_by_the_pass(monkeypatch, fns, 9)) == Counter(range(9))


@pytest.mark.parametrize("n", [9, 32, 64, 128, 192])
def test_the_pass_samples_each_row_once_as_a_dense_sample_would(monkeypatch, n):
    """Grids 9 and 32 are one chunk, 64 two that the ring holds together, and
    128 and 192 sixteen and sixty-four, read through two slots and the wrap
    rows."""
    fns = [compile_expr(s) for s in SAMPLED["x, y and z"]]
    assert Counter(sampled_by_the_pass(monkeypatch, fns, n)) == rows_sampled(fns, n)
    assert (n >= 128) == (ring(fns, n).edge_rows is not None)


@pytest.mark.parametrize("rows, chunk", [(1, 1), (1, 3), (2, 2), (2, 4), (2, 5), (3, 3), (4, 8)])
def test_ragged_chunks_sample_each_row_once(monkeypatch, rows, chunk):
    """At grid 9, chunks of 1-8 rows, ragged where they do not divide 9, in two
    slots, three where a chunk is one slab, or one per chunk."""
    n = 9
    ragged_slabs(monkeypatch, n, rows, chunk)
    fns = [compile_expr(s) for s in SAMPLED["x, y and z"]]
    assert Counter(sampled_by_the_pass(monkeypatch, fns, n)) == rows_sampled(fns, n)


@pytest.mark.parametrize("manifest, index", [(LENS_7_2, 0), (LENS_7_2, 1), (POINCARE, 0)],
                         ids=["lens_7_2-exp-g", "lens_7_2-exp-xy", "poincare-exp-g"])
def test_gv_term_rows_are_unchanged_on_the_bench_foliations(manifest, index):
    """A bench foliation's row, defect and warning, with omega sampled chunk by
    chunk, are those of the pass reading omega sampled on the whole grid at
    once."""
    entry = json.loads(manifest.read_text())["foliations"][index]
    fns = [compile_expr(s) for s in entry["omega"]]
    n, loop = entry["grid"], tuple(map(tuple, entry["transversal"]))
    got = gv_term(FoliationSpec(tuple(fns), n, loop, entry["label"]))
    assert got == gv_term(foliation(form_from_functions(1, n, *fns), loop, entry["label"]))
    assert got[0][2] is True


def test_gv_term_checks_the_component_count():
    with pytest.raises(ValueError, match="3 component functions"):
        gv_term(FoliationSpec((lambda x, y, z: x, lambda x, y, z: y), 4))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 16), degree=st.sampled_from([0, 1]), seed=st.integers(0, 2**32 - 1))
def test_dd_is_zero_to_roundoff_on_random_forms(n, degree, seed):
    form = random_form(np.random.default_rng(seed), degree, n)
    # two divisions by h amplify roundoff by n^2
    assert np.max(np.abs(d(d(form)).values)) < 1e-13 * n**2



# --- the slab pass against the whole-grid oracle ----------------------------------

def random_omega(rng, n):
    """A random, non-integrable 1-form kept away from zero by a constant dz part."""
    return DiscreteForm(1, rng.standard_normal((3, n, n, n)) + np.array([0, 0, 4.0])[:, None, None, None])


def oracle_fields(omega, h=None):
    """The whole-grid chain in the order of `_Slab`, its differences divided by
    2h (h the grid spacing unless one is given), and the direct theta residual
    |d omega - theta ^ omega| / |d omega|."""
    dw = d(omega, h)
    theta, miss = go._theta(omega, dw, 0.0, 1.0)
    dtheta = d(theta, h)
    fields = (dw.values, wedge(omega, dw).values, go.norm_sq(omega), theta.values,
              dtheta.values, wedge(theta, dtheta).values)
    return fields, miss / l2_norm(dw)


def streamed_row(fields, n, q=1.0):
    """(gv, theta residual, defect) of per-cell fields, summed slab by slab in
    the pass's order and then scaled by powers of q = 1/2h, as the pass does."""
    dw_f, frob_f, norm_sq_f, _theta_f, _dtheta_f, gv_f = fields
    frob = dw = w = miss = gv = 0.0
    for s in fg._slabs(n):
        frob += float(np.sum(np.square(frob_f[s])))
        dw += float(np.sum(np.square(dw_f[:, s])))
        w += float(np.sum(norm_sq_f[s]))
        miss += float(np.sum(np.square(frob_f[s] / np.sqrt(norm_sq_f[s]))))
        gv += float(np.sum(gv_f[s]))
    frob, dw, miss, gv = frob * q * q, dw * q * q, miss * q * q, gv * q**3
    cells = n**3
    return (gv * (1.0 / n) ** 3, sqrt(miss / dw) if dw else 0.0,
            sqrt(frob / cells) / (sqrt(w / cells) * sqrt(dw / cells) + 1e-30))


def assert_slab_pass_matches_oracle(omega):
    """The pass's fields are the oracle's at 2h = 1, whose division is exact,
    bit for bit and signed zeros included, and its row is their sums rescaled.
    That row's gv and defect are those of the oracle's fields at the grid's
    spacing bit for bit on power-of-two grids, where the rescaling is exact,
    and to rounding elsewhere; its residual is the oracle's direct one, and
    all three agree with the whole-grid sums to summation rounding."""
    n, h = omega.grid_size, omega.spacing
    unit, _ = oracle_fields(omega, h=0.5)
    for got, want in zip(slab_fields(omega), unit):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    got_gv, got_res, got_defect = gv_row(omega, tol=np.inf)
    assert (got_gv, got_res, got_defect) == streamed_row(unit, n, q=n / 2)
    fields, res = oracle_fields(omega)
    want_gv, _res, want_defect = streamed_row(fields, n)
    if n & (n - 1) == 0:
        assert (got_gv, got_defect) == (want_gv, want_defect)
    assert got_gv == pytest.approx(want_gv, rel=1e-12, abs=0)
    assert got_defect == pytest.approx(want_defect, rel=1e-12, abs=0)
    assert got_res == pytest.approx(res, rel=1e-12, abs=0)
    dw, defect = go._frobenius(omega)
    gv = fields[-1]
    assert got_defect == pytest.approx(defect, rel=1e-12, abs=0)
    assert abs(got_gv - np.sum(gv) * h**3) <= 1e-15 * h**3 * np.sum(np.abs(gv))


def test_the_examples_cover_a_ragged_last_slab_and_a_grid_inside_one_slab():
    assert 39 % fg._slab_rows(39) != 0
    assert fg._SLAB_BYTES // (8 * 8**2) > 8  # grid 8 is smaller than one slab


@settings(max_examples=25, deadline=None)
@given(n=st.integers(8, 40), seed=st.integers(0, 2**32 - 1))
@example(n=39, seed=1)
@example(n=8, seed=0)
def test_slab_pass_matches_the_whole_grid_oracle(n, seed):
    assert_slab_pass_matches_oracle(random_omega(np.random.default_rng(seed), n))


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_the_row_is_the_oracles_bit_for_bit_on_power_of_two_grids(n):
    assert_slab_pass_matches_oracle(random_omega(np.random.default_rng(n), n))


def test_an_overflow_of_the_rescaled_gv_sum_is_rejected(monkeypatch):
    """The pass sums theta ^ d(theta) in grid units, (2h)^3 times its value;
    where only that sum times (n/2)^3 overflows, the row is still rejected.
    Two adjacent cells where omega is 3e-155 times its size elsewhere make
    theta there about 1e154 times its size elsewhere; the floor is lifted so
    that they pass the nonvanishing check, and omega is scaled up so that
    their |omega|^2 is a normal float."""
    n = 16
    values = 1e50 * random_omega(np.random.default_rng(0), n).values
    values[:, 5, 5, 5:7] *= 3e-155
    monkeypatch.setattr(fg, "NONVANISHING_FLOOR", 0.0)
    monkeypatch.setattr(fg, "INTEGRABILITY_TOLERANCE", np.inf)
    gv = float(np.sum(pass_fields(component_fns(values), n)[-1]))
    assert isfinite(gv) and not isfinite(gv * (n / 2) ** 3)
    with pytest.raises(SingularityError, match="a GV sum over the grid is not finite"):
        gv_term(foliation(DiscreteForm(1, values)))


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 8, 9])
def test_slab_pass_matches_the_oracle_at_every_slab_height(monkeypatch, rows):
    """One-row slabs read both neighbours of theta from the other two buffers;
    5 and 8 rows give two slabs with a ragged last slab of 4 rows and of 1 row,
    which reads the wrapped grid row 0 from the first slab's reused buffer."""
    n = 9
    monkeypatch.setattr(fg, "_SLAB_BYTES", 8 * n * n * rows)
    assert fg._slab_rows(n) == rows
    assert_slab_pass_matches_oracle(random_omega(np.random.default_rng(rows), n))


@pytest.mark.parametrize("rows, chunk", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 4), (2, 6),
                                         (3, 3), (3, 6), (4, 4), (4, 8)])
def test_slab_pass_matches_the_oracle_at_every_chunk_height(monkeypatch, rows, chunk):
    """Chunks of one slab evict the oldest of three slots; longer ones of two;
    three chunks of 4 or two of 8 rows fill one omega; the last chunk is
    ragged wherever its height does not divide 9."""
    n = 9
    ragged_slabs(monkeypatch, n, rows, chunk)
    omega = ring([], n)
    assert omega.height == chunk and len(omega.slots) == min(-(-n // chunk), 2 + (rows == chunk))
    assert_slab_pass_matches_oracle(random_omega(np.random.default_rng(10 * rows + chunk), n))


def held_bytes(omega):
    """Bytes of a ring's slots and wrap rows."""
    edge = 0 if omega.edge_rows is None else omega.edge_rows.nbytes
    return sum(s.nbytes for s in omega.slots) + edge


def test_gv_term_allocates_less_than_one_omega(traced_peak):
    """Sampling included, a gv_term call at grid 128 holds less than a third
    of one omega."""
    n = 128
    spec = FoliationSpec(gauge_changed_fns(), n, tuple((0, 0, k) for k in range(n)))
    _, peak = traced_peak(gv_term, spec)
    assert peak < 8 * n**3


@pytest.mark.parametrize("n", [32, 64, 128])
def test_gv_term_scratch_is_a_few_dozen_slab_blocks(traced_peak, n):
    """Counted in blocks of one component of one slab, the pass holds d(omega)
    and |omega|^2 of two slabs (8), theta of two or, for one-row slabs, three
    (6 or 9), six differences, which also take omega ^ d(omega) and
    theta ^ d(theta), and one scratch block (7), and the buffer that the sums
    square into (3).  Besides these, the whole call holds the ring of sampled
    omega and, while a chunk is sampled, the operand and result of one
    operation on a chunk component and less than two blocks of factors that do
    not span the chunk.  A ring that
    holds the grid (grids 32 and 64) is sampled before the pass allocates its
    buffers, so the call holds the larger of the two: on the bench's exp-g
    form 2.28, 8.09 and 12.26 MiB at grids 32, 64 and 128, of which the ring
    is 0.75 (one chunk), 6 and 6.75 MiB."""
    fns = [compile_expr(s) for s in json.loads(LENS_7_2.read_text())["foliations"][0]["omega"]]
    spec = FoliationSpec(tuple(fns), n, tuple((0, 0, k) for k in range(n)))
    ((_label, _gv, taut, _res), _defect, _warning), peak = traced_peak(gv_term, spec)
    rows, omega = fg._slab_rows(n), ring(fns, n)
    block = 8 * rows * n * n
    pass_bytes = (8 + 3 * (2 + (rows == 1)) + 7 + 3) * block
    sampling = 2 * 8 * omega.height * n * n
    if omega.edge_rows is None:
        fixed = held_bytes(omega) + max(pass_bytes, sampling)
    else:
        fixed = held_bytes(omega) + pass_bytes + sampling
    assert taut  # the pass solved for theta
    assert fixed <= peak < fixed + 2 * block


def test_the_ring_never_holds_more_than_one_omega():
    """Two slots of about `_SAMPLE_BYTES` per component, or where the chunks
    are that few, one omega: grid 32 is one chunk, not three slots."""
    fns = [compile_expr(s) for s in SAMPLED["x, y and z"]]
    for n in (8, 9, 32, 39, 64, 96, 128, 192):
        omega, rows = ring(fns, n), fg._slab_rows(n)
        assert omega.height % rows == 0 or omega.height == n
        assert held_bytes(omega) <= 3 * 8 * n**3
        if omega.edge_rows is not None:
            assert omega.height * 8 * n * n <= fg._SAMPLE_BYTES
            assert len(omega.slots) == 2 + (omega.height == rows)
    assert len(ring(fns, 32).slots) == 1


def live_grid_arrays(n):
    """Sizes of the live numpy buffers traced by tracemalloc that hold at least
    n^3 floats."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return [t.size for t in snapshot.traces if t.size >= 8 * n**3]


def test_no_array_spans_the_grid(monkeypatch):
    """While gv_term samples each chunk of a grid-96 form, no live array holds
    n^3 floats."""
    n = 96
    fns = [compile_expr(s) for s in ("0", "0", "exp(0.3*sin(2*pi*x) + 0.2*cos(2*pi*y))")]
    found, real = [], fg._Omega.sample

    def probing(self, rows, out):
        found.append(live_grid_arrays(n))
        return real(self, rows, out)

    monkeypatch.setattr(fg._Omega, "sample", probing)
    tracemalloc.start()
    try:
        row = gv_term(FoliationSpec(tuple(fns), n, tuple((0, 0, k) for k in range(n))))
    finally:
        tracemalloc.stop()
    assert row[0][1] is not None
    assert len(found) == -(-n // ring(fns, n).height) + 2 and not any(found)


# --- the Leibniz rule of the oracle's d and wedge ---------------------------------
# Centered differences obey it to second order only: for one axis,
# D(fg) - (Df) g - f (Dg) = h^2/2 (f'' g' + f' g'') + O(h^4).  With every
# frequency |k_i| <= K and sup norms bounded by the sums A, B of the absolute
# amplitudes, one such term is at most h^2 (2 pi K)^3 A B.  A component of
# d(f alpha) has two of them; one of d(alpha ^ beta) has six (three products of
# two terms each).

K = 2


def trig_component(rng, n):
    """A sum of two random Fourier modes with |k_i| <= K; returns it with the
    sum of its absolute amplitudes."""
    x, y, z = grid_coords(n)
    out, bound = np.zeros((n, n, n)), 0.0
    for _ in range(2):
        kx, ky, kz = rng.integers(-K, K + 1, size=3)
        amp, phase = rng.uniform(-1, 1), rng.uniform(0, TWO_PI)
        out = out + amp * np.sin(TWO_PI * (kx * x + ky * y + kz * z) + phase)
        bound += abs(amp)
    return out, bound


def trig_form(rng, degree, n):
    comps = [trig_component(rng, n) for _ in range(1 if degree in (0, 3) else 3)]
    values = comps[0][0] if degree in (0, 3) else np.stack([c for c, _ in comps])
    return DiscreteForm(degree, values), max(b for _, b in comps)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 32), seed=st.integers(0, 2**32 - 1))
def test_leibniz_rule_holds_to_second_order(n, seed):
    rng = np.random.default_rng(seed)
    h, c = 1.0 / n, (TWO_PI * K) ** 3
    f, a_f = trig_form(rng, 0, n)
    alpha, a_alpha = trig_form(rng, 1, n)
    beta, a_beta = trig_form(rng, 1, n)
    # d(f alpha) = df ^ alpha + f d(alpha)
    lhs = d(wedge(f, alpha)).values
    rhs = wedge(d(f), alpha).values + wedge(f, d(alpha)).values
    assert np.max(np.abs(lhs - rhs)) <= 2 * c * a_f * a_alpha * h**2
    # d(alpha ^ beta) = d(alpha) ^ beta - alpha ^ d(beta)
    lhs = d(wedge(alpha, beta)).values
    rhs = wedge(d(alpha), beta).values - wedge(alpha, d(beta)).values
    assert np.max(np.abs(lhs - rhs)) <= 6 * c * a_alpha * a_beta * h**2


# --- sampling and the nonvanishing check against the whole grid -----------------

def whole_grid_sample(n, *fns):
    """Each component evaluated once on the whole sparse grid, then broadcast."""
    x, y, z = grid_coords(n)
    with np.errstate(all="ignore"):
        return np.stack([np.broadcast_to(np.asarray(f(x, y, z), dtype=float), (n, n, n))
                         for f in fns])


def whole_grid_check(values, floor=1e-6):
    """The nonvanishing check on whole-grid arrays: the mean of |omega|, or the
    message of the SingularityError it raises."""
    with np.errstate(over="ignore"):
        mag = np.sqrt((values[0] ** 2 + values[1] ** 2) + values[2] ** 2)
    if not np.all(np.isfinite(mag)):
        cell = tuple(int(i) for i in np.argwhere(~np.isfinite(mag))[0])
        return f"1-form is not finite (or overflows) at grid cell {cell}"
    mean = float(np.mean(mag))
    bad = mag <= floor * max(mean, 1e-300)
    if np.any(bad):
        cell = tuple(int(i) for i in np.argwhere(bad)[0])
        return f"1-form (nearly) vanishes at grid cell {cell}"
    return mean


def ragged_slabs(monkeypatch, n, rows=5, chunk=None):
    """Set the slab budget to `rows` rows at grid n, and the sampling budget to
    `chunk` rows (default `rows`)."""
    monkeypatch.setattr(fg, "_SAMPLE_BYTES", 8 * n * n * (chunk or rows))
    monkeypatch.setattr(fg, "_SLAB_BYTES", 8 * n * n * rows)
    assert fg._slab_rows(n) == rows


SAMPLED = {
    "x only": ["0", "1 + x^2", "exp(0.3*sin(2*pi*x))"],
    "y only": ["cos(2*pi*y)", "0", "2 + sin(2*pi*y)"],
    "x, y and z": ["0.1*sin(2*pi*z)", "0.2*cos(2*pi*x)*sin(2*pi*y)",
                   "exp(0.4*sin(2*pi*x)*cos(2*pi*y) + 0.3*sin(2*pi*y)*sin(2*pi*z))"],
}


@pytest.mark.parametrize("n", [8, 39, 64])
@pytest.mark.parametrize("kind", sorted(SAMPLED))
def test_slab_sampling_matches_the_whole_grid(monkeypatch, n, kind):
    """The sampled rows and the streamed |omega|^2 equal the whole grid's, by
    the default budgets and by 5-row slabs and chunks, which leave a shorter
    last one; the mean length that the tautness test reads is the streamed
    sum of the lengths to the bit, and the whole grid's mean to rounding."""
    fns = [compile_expr(s) for s in SAMPLED[kind]]
    want = whole_grid_sample(n, *fns)
    norm_sq = (want[0] ** 2 + want[1] ** 2) + want[2] ** 2
    for ragged in (False, True):
        if ragged:
            ragged_slabs(monkeypatch, n)
        means = []
        with monkeypatch.context() as mp:
            mp.setattr(fg, "tautness_check", lambda pairings, mean: means.append(mean) or True)
            seen = sampled_by_the_pass(mp, fns, n, want, ((0, 0, 0), (0, 0, 1)))
        assert Counter(seen) == rows_sampled(fns, n)
        streamed = pass_fields(fns, n)[2]
        assert np.array_equal(streamed, norm_sq)
        lengths = sum(float(np.sum(np.sqrt(norm_sq[s]))) for s in fg._slabs(n))
        assert means == [lengths / n**3]
        assert means[0] == pytest.approx(whole_grid_check(want), rel=1e-13, abs=0)


PLANTS = {"first row": (0, 3, 7), "last row of a slab": (4, 38, 0),
          "first row of a slab": (5, 0, 38), "last row": (38, 2, 1)}


@pytest.mark.parametrize("value", [0.0, np.inf, np.nan])
@pytest.mark.parametrize("where", sorted(PLANTS))
def test_slab_check_raises_where_the_whole_grid_check_does(monkeypatch, value, where):
    n = 39
    ragged_slabs(monkeypatch, n)
    values = np.zeros((3, n, n, n))
    values[2] = 1.0 + grid_coords(n)[0]
    values[:, PLANTS[where][0], PLANTS[where][1], PLANTS[where][2]] = value
    message = whole_grid_check(values)
    assert f"grid cell {PLANTS[where]}" in message
    with pytest.raises(SingularityError) as err:
        gv_term(foliation(DiscreteForm(1, values)))
    assert str(err.value) == message


def test_slab_check_reports_a_non_finite_cell_before_a_vanishing_one(monkeypatch):
    n = 39
    ragged_slabs(monkeypatch, n)
    values = np.ones((3, n, n, n))
    values[:, 0, 0, 0] = 0.0
    values[1, 38, 5, 5] = np.inf
    message = whole_grid_check(values)
    assert message == "1-form is not finite (or overflows) at grid cell (38, 5, 5)"
    with pytest.raises(SingularityError, match=r"not finite .* \(38, 5, 5\)"):
        gv_term(foliation(DiscreteForm(1, values)))


def test_errors_come_in_the_order_singular_tautness_integrability():
    """A bad loop is refused before the pass; after it, a singular form is
    refused before the tautness test, even where that test fails in strict
    mode, and a failed tautness test comes before the integrability test."""
    n = 16
    loop_z = tuple((0, 0, k) for k in range(n))
    loop_x_at_quarter_z = tuple((k, 0, n // 4) for k in range(n))  # cos(2 pi z) = 0 there
    singular = (lambda x, y, z: np.sin(TWO_PI * x), lambda x, y, z: 0 * x, lambda x, y, z: 0 * x)
    with pytest.raises(ValueError, match="single lattice edge"):
        gv_term(FoliationSpec(singular, n, ((0, 0, 0), (0, 0, 2))))
    with pytest.raises(SingularityError, match=r"vanishes at grid cell \(0, 0, 0\)"):
        gv_term(FoliationSpec(singular, n, loop_z), strict=True)  # dz pairs to 0: not taut
    inf_x = (lambda x, y, z: np.exp(1000 * x), lambda x, y, z: 0 * x, lambda x, y, z: 0 * x)
    with pytest.raises(SingularityError, match="not finite"):
        gv_term(FoliationSpec(inf_x, n, loop_z), strict=True)
    with pytest.raises(TautnessError, match="tautness"):
        gv_term(FoliationSpec(contact_fns(), n, loop_x_at_quarter_z), strict=True)
    (_label, gv, taut, res), defect, warning = gv_term(FoliationSpec(contact_fns(), n,
                                                                     loop_x_at_quarter_z))
    assert (gv, taut, res) == (None, False, None) and defect > 0.1 and "excluded" in warning
    with pytest.raises(ValueError, match="not integrable"):
        gv_term(FoliationSpec(contact_fns(), n, tuple((k, 0, 0) for k in range(n))))
