import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gv_oracles as go
from gv_oracles import d, integrate, l2_norm, solve_theta, wedge
from taut3 import foliation_gv as fg
from taut3.exprs import compile_expr
from taut3.foliation_gv import (
    DiscreteForm,
    FoliationSpec,
    SingularityError,
    TautnessError,
    form_from_functions,
    grid_coords,
    gv_invariant,
    gv_term,
    tautness_check,
)

TWO_PI = 2 * np.pi
LENS_7_2 = Path(__file__).resolve().parents[1] / "perfbench" / "manifests" / "lens_7_2.json"


def omega_exp_f(n, ax=0.3, ay=0.2):
    """e^{f(x,y)} dz with f = ax sin(2 pi x) + ay cos(2 pi y); integrable."""
    return form_from_functions(
        1,
        n,
        lambda x, y, z: 0 * x,
        lambda x, y, z: 0 * x,
        lambda x, y, z: np.exp(ax * np.sin(TWO_PI * x) + ay * np.cos(TWO_PI * y)),
    )


def gv_row(omega, tol=None):
    """(gv, theta residual, defect) of omega through the production slab pass,
    with INTEGRABILITY_TOLERANCE set to `tol` if one is given."""
    with pytest.MonkeyPatch.context() as mp:
        if tol is not None:
            mp.setattr(fg, "INTEGRABILITY_TOLERANCE", tol)
        (_label, gv, _taut, res), defect, _warning = gv_term(FoliationSpec(omega))
    return gv, res, defect


def slab_fields(omega, theta=True):
    """The per-slab blocks of `_gv_blocks`, copied out of the reused buffers and
    concatenated along x: d(omega), theta, d(theta), theta ^ d(theta) and
    |omega|^2."""
    blocks = [[None if a is None else a.copy() for a in (s.dw, s.theta, s.dtheta, s.gv, s.norm_sq)]
              for s in fg._gv_blocks(omega, theta)]
    return [None if parts[0] is None else np.concatenate(parts, axis=parts[0].ndim - 3)
            for parts in zip(*blocks)]


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


def test_solve_theta_matches_analytic_minimal_solution():
    n = 48
    om = omega_exp_f(n)
    assert gv_row(om)[1] < 1e-12
    _dw, theta, _dtheta, _gv, _norm_sq = slab_fields(om)
    x, y, z = grid_coords(n)
    fx = 0.3 * TWO_PI * np.cos(TWO_PI * x)
    fy = -0.2 * TWO_PI * np.sin(TWO_PI * y)
    assert np.max(np.abs(theta[0] - fx)) < 1e-2
    assert np.max(np.abs(theta[1] - fy)) < 1e-2
    assert np.max(np.abs(theta[2])) < 1e-12


def test_solve_theta_rejects_nonintegrable():
    n = 16
    contact = form_from_functions(
        1,
        n,
        lambda x, y, z: np.cos(TWO_PI * z),
        lambda x, y, z: np.sin(TWO_PI * z),
        lambda x, y, z: 1.0 + 0 * x,
    )
    with pytest.raises(ValueError, match="not integrable"):
        gv_term(FoliationSpec(contact))
    with pytest.raises(ValueError, match="not integrable"):
        solve_theta(contact)


def test_singular_form_detected():
    n = 16
    with pytest.raises(SingularityError):
        FoliationSpec(
            form_from_functions(
                1,
                n,
                lambda x, y, z: np.sin(TWO_PI * x),
                lambda x, y, z: 0 * x,
                lambda x, y, z: 0 * x,
            )
        )


def test_gv_closed_form_cases_vanish():
    for n in (16, 32):
        assert abs(gv_row(omega_exp_f(n))[0]) < 1e-8


def test_gv_invariant_under_constant_rescale():
    n = 32
    om = omega_exp_f(n)
    scaled = DiscreteForm(1, 2.7 * om.values)
    assert abs(gv_row(om)[0] - gv_row(scaled)[0]) < 1e-10


def gauge_changed_omega(n):
    """e^{g} dz for a generic smooth g: same foliation as dz, GV class 0."""
    def g(x, y, z):
        return (
            0.4 * np.sin(TWO_PI * x) * np.cos(TWO_PI * y)
            + 0.3 * np.sin(TWO_PI * y) * np.sin(TWO_PI * z)
            + 0.2 * np.cos(TWO_PI * x) * np.sin(TWO_PI * z)
        )

    return form_from_functions(
        1, n, lambda x, y, z: 0 * x, lambda x, y, z: 0 * x,
        lambda x, y, z: np.exp(g(x, y, z)),
    )


def test_gauge_change_drift_converges():
    """GV of e^g dz must converge to the invariant value 0 at order >= 1.5."""
    drifts = []
    for n in (16, 32, 64):
        drifts.append(abs(gv_row(gauge_changed_omega(n))[0]))
    assert drifts[0] > drifts[1] > drifts[2]
    orders = [np.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
    assert min(orders) >= 1.5


def test_tautness_check_outcomes():
    n = 24
    om = omega_exp_f(n)
    loop_z = tuple((0, 0, k) for k in range(n))
    loop_x = tuple((k, 0, 0) for k in range(n))
    assert tautness_check(FoliationSpec(om, transversal=loop_z)) is True
    assert tautness_check(FoliationSpec(om, transversal=loop_x)) is False
    assert tautness_check(FoliationSpec(om)) is None  # inconclusive, not False
    with pytest.raises(ValueError):
        tautness_check(FoliationSpec(om, transversal=((0, 0, 0), (0, 0, 2))))


def test_gv_invariant_report_and_strict_mode():
    n = 24
    om = omega_exp_f(n)
    good = FoliationSpec(om, transversal=tuple((0, 0, k) for k in range(n)), label="good")
    bad = FoliationSpec(om, transversal=tuple((k, 0, 0) for k in range(n)), label="bad")
    rep = gv_invariant([good, bad])
    assert rep.per_foliation[0][1] is not None
    assert rep.per_foliation[1][1] is None  # excluded
    assert any("tautness" in w for w in rep.warnings)
    with pytest.raises(TautnessError):
        gv_invariant([bad], strict=True)


@pytest.mark.parametrize("vertex", [(0, 0, 8), (0, 0, -1), (0, 0)])
def test_tautness_check_rejects_vertices_off_the_grid(vertex):
    om = omega_exp_f(8)
    with pytest.raises(ValueError, match="not a vertex"):
        tautness_check(FoliationSpec(om, transversal=((0, 0, 7), vertex)))


@pytest.mark.parametrize("component", [
    lambda x, y, z: (x - x) / (x - x) + 1,  # nan everywhere
    lambda x, y, z: np.exp(1000 * x),  # inf where x > 0.7
    lambda x, y, z: 1e200 * (1 + x),  # finite, but its square overflows
])
def test_non_finite_form_is_rejected_without_warnings(component):
    om = form_from_functions(1, 8, lambda x, y, z: 0 * x, lambda x, y, z: 0 * x, component)
    with pytest.raises(SingularityError, match="not finite"):
        FoliationSpec(om)


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
    got = fg._ddi(f, axis, 1.0 / n, np.empty_like(f))
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


@pytest.mark.parametrize("index", [0, 1])
def test_sparse_sampling_matches_dense_on_the_bench_expressions(index):
    manifest = json.loads(LENS_7_2.read_text())
    entry = manifest["foliations"][index]
    fns = [compile_expr(s) for s in entry["omega"]]
    n = entry["grid"]
    assert np.array_equal(form_from_functions(1, n, *fns).values, dense_sample(n, *fns))


def test_sparse_sampling_matches_dense_on_python_functions():
    fns = [lambda x, y, z: 0 * x, lambda x, y, z: 1.0,
           lambda x, y, z: np.exp(np.sin(TWO_PI * x) * np.cos(TWO_PI * y) + z)]
    assert np.array_equal(form_from_functions(1, 9, *fns).values, dense_sample(9, *fns))
    scalar = form_from_functions(0, 9, fns[2])
    assert scalar.values.shape == (9, 9, 9)
    assert np.array_equal(scalar.values, dense_sample(9, fns[2])[0])


def test_form_from_functions_checks_the_component_count():
    with pytest.raises(ValueError, match="3 component functions"):
        form_from_functions(1, 4, lambda x, y, z: x, lambda x, y, z: y)
    with pytest.raises(ValueError, match="degree must be"):
        form_from_functions(4, 4, lambda x, y, z: x)


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


def assert_slab_pass_matches_oracle(omega):
    h = omega.spacing
    dw, defect = go._frobenius(omega)
    theta, res = go._theta(omega, dw, 0.0, 1.0)
    dtheta = d(theta)
    gv = wedge(theta, dtheta)
    got = slab_fields(omega)
    for field, want in zip(got, (dw.values, theta.values, dtheta.values, gv.values,
                                 go.norm_sq(omega))):
        assert np.array_equal(field, want)
        assert np.array_equal(np.signbit(field), np.signbit(want))
    excluded = slab_fields(omega, theta=False)
    assert np.array_equal(excluded[0], dw.values)
    assert np.array_equal(excluded[-1], got[-1])
    got_gv, got_res, got_defect = gv_row(omega, tol=np.inf)
    assert got_defect == pytest.approx(defect, rel=1e-12, abs=0)
    assert got_res == pytest.approx(res, rel=1e-12, abs=0)
    assert abs(got_gv - integrate(gv)) <= 1e-15 * h**3 * np.sum(np.abs(gv.values))


def test_the_examples_cover_a_ragged_last_slab_and_a_grid_inside_one_slab():
    assert 39 % fg._slab_rows(39) != 0
    assert fg._SLAB_BYTES // (8 * 8**2) > 8  # grid 8 is smaller than one slab


@settings(max_examples=25, deadline=None)
@given(n=st.integers(8, 40), seed=st.integers(0, 2**32 - 1))
@example(n=39, seed=1)
@example(n=8, seed=0)
def test_slab_pass_matches_the_whole_grid_oracle(n, seed):
    assert_slab_pass_matches_oracle(random_omega(np.random.default_rng(seed), n))


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 9])
def test_slab_pass_matches_the_oracle_at_every_slab_height(monkeypatch, rows):
    """Slabs of 1 and 2 rows carry rows that overlap their own buffer rows."""
    n = 9
    monkeypatch.setattr(fg, "_SLAB_BYTES", 8 * n * n * rows)
    assert fg._slab_rows(n) == rows
    assert_slab_pass_matches_oracle(random_omega(np.random.default_rng(rows), n))


def test_gv_term_allocates_less_than_one_omega(traced_peak):
    spec = FoliationSpec(gauge_changed_omega(64), transversal=tuple((0, 0, k) for k in range(64)))
    _, peak = traced_peak(gv_term, spec)
    assert peak < spec.omega.values.nbytes


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


# --- slab-wise sampling and nonvanishing check against the whole grid -------------

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


def ragged_slabs(monkeypatch, n, rows=5):
    """Set both slab budgets to `rows` rows at grid n, a height that leaves a
    shorter last slab."""
    assert n % rows
    monkeypatch.setattr(fg, "_SAMPLE_BYTES", 8 * n * n * rows)
    monkeypatch.setattr(fg, "_SLAB_BYTES", 8 * n * n * rows)
    assert fg._slab_rows(n, fg._SAMPLE_BYTES) == fg._slab_rows(n) == rows


SAMPLED = {
    "x only": ["0", "1 + x^2", "exp(0.3*sin(2*pi*x))"],
    "y only": ["cos(2*pi*y)", "0", "2 + sin(2*pi*y)"],
    "x, y and z": ["0.1*sin(2*pi*z)", "0.2*cos(2*pi*x)*sin(2*pi*y)",
                   "exp(0.4*sin(2*pi*x)*cos(2*pi*y) + 0.3*sin(2*pi*y)*sin(2*pi*z))"],
}


@pytest.mark.parametrize("n", [8, 39, 64])
@pytest.mark.parametrize("kind", sorted(SAMPLED))
def test_slab_sampling_matches_the_whole_grid(monkeypatch, n, kind):
    fns = [compile_expr(s) for s in SAMPLED[kind]]
    want = whole_grid_sample(n, *fns)
    for ragged in (False, True):
        if ragged:
            ragged_slabs(monkeypatch, n)
        omega = form_from_functions(1, n, *fns)
        assert np.array_equal(omega.values, want)
        norm_sq = slab_fields(omega, theta=False)[-1]
        assert np.array_equal(norm_sq, (want[0] ** 2 + want[1] ** 2) + want[2] ** 2)
        mean = whole_grid_check(want)
        assert omega._mean_norm == pytest.approx(mean, rel=1e-13, abs=0)


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
        FoliationSpec(DiscreteForm(1, values))
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
        FoliationSpec(DiscreteForm(1, values))


def test_sampling_and_check_hold_omega_and_two_sampling_slabs(traced_peak):
    """An operation on a sampling slab holds its operand and its result, two
    slab-sized arrays; the check's slab buffers are smaller than one GV slab."""
    n = 64
    fns = [compile_expr(s) for s in SAMPLED["x, y and z"]]
    spec, peak = traced_peak(lambda: FoliationSpec(form_from_functions(1, n, *fns)))
    assert peak <= spec.omega.values.nbytes + 2 * fg._SAMPLE_BYTES + fg._SLAB_BYTES


def test_no_array_but_omega_spans_the_grid(traced_peak):
    """Sampling with the nonvanishing check, and then the GV pass, each hold
    less than n^3 floats besides omega."""
    n = 96
    fns = [compile_expr(s) for s in ("0", "0", "exp(0.3*sin(2*pi*x) + 0.2*cos(2*pi*y))")]
    loop = tuple((0, 0, k) for k in range(n))
    spec, peak = traced_peak(lambda: FoliationSpec(form_from_functions(1, n, *fns), loop))
    assert peak - spec.omega.values.nbytes < 8 * n**3
    row, peak = traced_peak(gv_term, spec)
    assert row[0][1] is not None and peak < 8 * n**3
