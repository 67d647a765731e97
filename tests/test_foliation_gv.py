import itertools
import json
import resource
import sys
import threading
import tracemalloc
from collections import Counter
from math import isfinite, ldexp, sqrt
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
    """(gv, defect) of a sampled omega through the production slab pass, with
    INTEGRABILITY_TOLERANCE set to `tol` if one is given."""
    with pytest.MonkeyPatch.context() as mp:
        if tol is not None:
            mp.setattr(fg, "INTEGRABILITY_TOLERANCE", tol)
        (_label, gv, _taut), defect, _warning = gv_term(foliation(omega))
    return gv, defect


def ring(fns, n):
    """The sampled rows of a 1-form (components None where absent), as
    gv_term's ring holds them."""
    return fg._Omega(tuple(fns), n)


def new_pass(n):
    """The pass at grid n.  The bench's forms are all f dz, which runs no
    pass, so only these tests reach `_Pass.__init__`, `_Pass.stages`,
    `_Pass._ahead`, `_d`, `_products`, `_Omega.edge` and, on a form with
    two components, `_zero` (tests/test_reachable.py)."""
    return fg._Pass(n)


def pass_fields(fns, n):
    """The fields of the pass on two or three component functions (None where
    absent, which the ring samples as zeros), copied out of its workspace
    slab by slab and concatenated along x, in grid units, by name: d(omega),
    omega ^ d(omega), |omega|^2, theta and half the density of the GV sum by
    parts, "gv"."""
    gvp, slabs = new_pass(n), fg._slabs(n)
    fields = {name: [] for name in ("d(omega)", "omega ^ d(omega)", "|omega|^2", "theta", "gv")}
    for stage, i in gvp.stages(ring(fns, n)):
        k = slabs[i].stop - slabs[i].start
        if stage == "ahead":
            fields["d(omega)"].append(gvp.dw[:, :k].copy())
            fields["omega ^ d(omega)"].append(gvp.work[2, :k].copy())
            fields["|omega|^2"].append(gvp.nsq[:k].copy())
            fields["theta"].append(gvp.theta[i % 3][:, :k].copy())
        else:
            fields["gv"].append(gvp.work[0, :k].copy())
    return {name: np.concatenate(parts, axis=parts[0].ndim - 3) for name, parts in fields.items()}


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
    assert gv_row(omega_exp_f(n))[1] < 1e-12
    # the standard contact-like form is maximally non-integrable
    contact = form_from_functions(
        1,
        n,
        lambda x, y, z: np.cos(TWO_PI * z),
        lambda x, y, z: np.sin(TWO_PI * z),
        lambda x, y, z: 1.0 + 0 * x,
    )
    assert gv_row(contact, tol=np.inf)[1] > 0.1


def test_solve_theta_matches_analytic_minimal_solution():
    n = 48
    om = omega_exp_f(n)
    assert gv_row(om)[1] < 1e-12
    theta = slab_fields(om)["theta"] * (n / 2)  # from grid units
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
    """The error names the foliation: its label, or its index in the list."""
    n = 16
    with pytest.raises(ValueError, match=r"^foliation\[3\]: form is not integrable"):
        gv_term(FoliationSpec(contact_fns(), n), 3)
    with pytest.raises(ValueError, match=r"^contact: form is not integrable"):
        gv_term(FoliationSpec(contact_fns(), n, label="contact"))
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


# A generic positive f: its one-component form f dz has GV exactly 0, which the
# whole-grid chain on theta = df / f reads only in the limit.
GENERIC_F = ("exp(0.4*sin(2*pi*(y + z)) + 0.3*sin(2*pi*(2*x - 2*y + 2*z))"
             " + 0.75*sin(2*pi*(x - 2*y)))")


def test_gv_of_f_dz_is_exactly_zero_and_the_chain_tends_to_it():
    """f dz with f = GENERIC_F: theta = d log f is closed, so GV is 0, and
    gv_term reads exactly 0.0 at grids 16-128.  The independent check is the
    whole-grid chain (`one_component_theta`, the sum by parts), which reads
    -7.88e-3, -1.02e-3, -7.41e-5 and -4.80e-6 there: it tends to 0, each
    value at least 3.5 times smaller than the last (7.7, 13.8, 15.4).  The
    slab pass on f dz with its zeros sampled reads that chain's value."""
    f = compile_expr(GENERIC_F)
    chain = []
    for n in (16, 32, 64, 128):
        (_label, gv, _taut), defect, _warning = gv_term(FoliationSpec((None, None, f), n))
        assert (gv, defect) == (0.0, 0.0)
        omega = form_from_functions(1, n, zero, zero, f)
        chain.append(go.gv_by_parts(go.one_component_theta(omega, 2)))
        assert gv_term(FoliationSpec((zero, zero, f), n))[0][1] == pytest.approx(chain[-1], rel=1e-9)
    assert abs(chain[-1]) < 1e-5
    assert all(abs(a) >= 3.5 * abs(b) for a, b in zip(chain, chain[1:]))


@pytest.mark.parametrize("n", [8, 39, 128])
@pytest.mark.parametrize("text", ["exp(0.3*sin(2*pi*x))", "-2 - cos(2*pi*y)*sin(2*pi*z)",
                                  "cos(2*pi*x) + 0.5"], ids=["positive", "negative", "mixed"])
def test_the_sum_and_least_of_f_are_those_of_abs_f(n, text):
    """`_magnitudes` gives the sum and least of |f| bit for bit as the pass
    folded |omega|, a reduction of |f| per slab in slab order, whether f is
    positive, negative (its sum negated, its greatest negated) or of both
    signs on a slab."""
    f = compile_expr(text)
    total, least, _cells = fg._magnitudes(ring((None, None, f), n))
    magnitude = np.abs(form_from_functions(0, n, f).values)
    want_total, want_least = 0.0, np.inf
    for s in fg._slabs(n):
        want_total += np.add.reduce(magnitude[s], None)
        want_least = min(want_least, np.minimum.reduce(magnitude[s], None))
    assert (total, least) == (want_total, want_least)


SIGN_CHANGES = {  # f of f dz, and its first positive and first negative grid cell at grid 39
    "across slabs": ("cos(2*pi*x)", (0, 0, 0), (10, 0, 0)),
    "within a slab": ("-cos(2*pi*y)", (0, 10, 0), (0, 0, 0)),
}


@pytest.mark.parametrize("rows", [None, 1])
@pytest.mark.parametrize("case", sorted(SIGN_CHANGES))
def test_f_dz_that_changes_sign_is_refused(monkeypatch, case, rows):
    """cos(2 pi x) has no zero at a vertex of grid 39, so |f| passes the floor
    check, but it takes both signs, so f dz vanishes on x = 1/4 and x = 3/4
    between samples: SingularityError names the first cell of each sign,
    whether the signs mix in one slab or differ between slabs (by default
    5-row slabs, and 1-row ones).  It comes after the finiteness and floor
    checks, and before the tautness test, even in strict mode."""
    n = 39
    if rows:
        ragged_slabs(monkeypatch, n, rows)
    text, positive, negative = SIGN_CHANGES[case]
    f = compile_expr(text)
    fns = (None, None, f)
    loop_z, loop_x = (tuple((0, 0, k) for k in range(n)), tuple((k, 0, 0) for k in range(n)))
    message = (f"foliation[0]: 1-form changes sign, positive at grid cell {positive} and "
               f"negative at {negative}: it vanishes or has a pole between")
    for loop in (loop_z, loop_x):
        with pytest.raises(SingularityError) as err:
            gv_term(FoliationSpec(fns, n, loop), strict=True)
        assert str(err.value) == message
    for value, error in ((np.inf, "is not finite (or overflows)"), (0.0, "(nearly) vanishes")):
        planted = form_from_functions(0, n, f).values.copy()
        planted[20, 3, 3] = value
        with pytest.raises(SingularityError) as err:
            gv_term(FoliationSpec((None, None, component_fns(planted[None])[0]), n, loop_z))
        assert str(err.value) == f"1-form {error} at grid cell (20, 3, 3)"


# The non-integrable ABC form
# omega = 1/2 (sin 2 pi z + cos 2 pi y, sin 2 pi x + cos 2 pi z, 6 + sin 2 pi y + cos 2 pi x)
# and its integral of theta ^ d(theta) at grids 16, 32, 64 and 128.
ABC = ("0.5*(sin(2*pi*z) + cos(2*pi*y))", "0.5*(sin(2*pi*x) + cos(2*pi*z))",
       "0.5*(6 + sin(2*pi*y) + cos(2*pi*x))")
ABC_GV = (7.112492083192656, 7.539657935833179, 7.649862186313206, 7.677630660513364)


def test_gv_converges_at_second_order(monkeypatch):
    """With the integrability test off, the chain converges at second order on
    a form with three components that no symmetry makes exact: each doubling
    of the grid divides the change of the integral by 3.5 to 4.5 (3.88 and
    3.97), and the values stay those pinned in ABC_GV to 1e-12."""
    monkeypatch.setattr(fg, "INTEGRABILITY_TOLERANCE", np.inf)
    fns = tuple(compile_expr(s) for s in ABC)
    gvs = [gv_term(FoliationSpec(fns, n))[0][1] for n in (16, 32, 64, 128)]
    assert gvs == pytest.approx(ABC_GV, rel=1e-12, abs=0)
    steps = np.diff(gvs)
    assert all(3.5 <= ratio <= 4.5 for ratio in steps[:-1] / steps[1:])


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

    (label, gv, taut), defect, warning = term(1.0)
    assert taut and warning is None and 0 < defect < 1e-15
    assert term(c) == ((label, gv, taut), defect, None)


@pytest.mark.parametrize("k", [-600, -520, 500, 600])
def test_a_power_of_two_scale_changes_no_row_of_f_dz(k):
    """2^k e^g dz with its zeros absent, as `cli` passes them, gives the row of
    k = 0 bit for bit at grid 32: gv is 0.0 and |omega| is |f|, whose scale
    follows f exactly wherever f is a normal float.  (Through |omega|^2,
    k = 600 overflowed to "not finite", k = -600 underflowed to "vanishes",
    and k = -520 moved gv from 5.06e-18 to -1.66e-18.)"""
    g = gauge_changed_fns()[2]
    n, loop = 32, tuple((0, 0, k) for k in range(32))

    def term(c):
        return gv_term(FoliationSpec((None, None, lambda x, y, z: c * g(x, y, z)), n, loop))

    (label, gv, taut), defect, warning = term(1.0)
    assert taut and defect == 0.0 and warning is None
    assert term(ldexp(1.0, k)) == ((label, gv, taut), defect, None)


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


def pairings_of(values, loop, n):
    """omega's pairings with the edges of `loop`, from its values (3, ...) at
    the grid vertices by `values[axis][p]`."""
    want = []
    for p, q in zip(loop, loop[1:] + loop[:1]):
        axis = next(i for i in range(3) if p[i] != q[i])
        sign = 1 if (q[axis] - p[axis]) % n == 1 else -1
        want.append(sign * 0.5 * (values[axis][p] + values[axis][q]))
    return np.array(want)


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
    assert np.array_equal(seen[0], pairings_of(values, loop, n))


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


def walks(n):
    """Paths on the n^3 grid that step by 0, +-1 or 2 along one axis, and, if
    `back`, return the same way: a loop if every step is one edge."""
    step = st.tuples(st.integers(0, 2), st.sampled_from([1, -1] * 4 + [0, 2]))
    start = st.tuples(*[st.integers(0, n - 1)] * 3)

    def walk(start, steps, back):
        path = [start]
        for axis, by in steps:
            path.append(tuple((c + by) % n if i == axis else c for i, c in enumerate(path[-1])))
        return path + (path[-2:0:-1] if back else [])

    return st.builds(walk, start, st.lists(step, min_size=1, max_size=10), st.booleans())


def paths(n):
    """Walks, and lists of vertices that may be off the grid or not of length 3."""
    vertex = st.lists(st.integers(-1, n), min_size=0, max_size=4).map(tuple)
    return walks(n) | st.lists(vertex | st.tuples(*[st.integers(0, n - 1)] * 3), max_size=6)


@settings(max_examples=300)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), paths(n))))
@example((2, [(0, 0, 0), (1, 0, 0)]))
@example((8, [(0, 0, 9), (0, 0)]))
def test_loop_edges_matches_the_step_by_step_check(case):
    """The array checks of a transversal give the vertices, axes and signs of
    the reference, or its error and the vertex or step that it names."""
    n, path = case
    try:
        want = go.loop_edges(path, n)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            fg._loop_edges(path, n)
        assert str(err.value) == str(exc)
        return
    got = fg._loop_edges(path, n)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("component", [
    lambda x, y, z: (x - x) / (x - x) + 1,  # nan everywhere
    lambda x, y, z: np.exp(1000 * x),  # inf where x > 0.7
    lambda x, y, z: 1e200 * (1 + x),  # finite, but its square overflows
    # 2^600 e^g: its zeros sampled, so three components, whose |omega|^2 overflows
    lambda x, y, z: ldexp(1.0, 600) * gauge_changed_fns()[2](x, y, z),
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
    return np.cross(w, g, axisa=0, axisb=0).transpose(3, 0, 1, 2) / np.sum(w**2, axis=0)


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
    theta = go._theta(omega, dw, 0.0, 1e-6)
    assert np.array_equal(theta.values, cross_theta(omega, dw))


def test_theta_keeps_the_signed_zeros_of_np_cross():
    n = 6
    rng = np.random.default_rng(3)
    omega = DiscreteForm(1, np.stack([np.zeros((n, n, n)), np.zeros((n, n, n)),
                                      np.exp(rng.standard_normal((n, n, n)))]))
    dw = DiscreteForm(2, rng.standard_normal((3, n, n, n)) * (rng.random((3, n, n, n)) < 0.5))
    theta = go._theta(omega, dw, 0.0, 1e-6)
    assert np.array_equal(np.signbit(theta.values), np.signbit(cross_theta(omega, dw)))


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


def oracle_fields(omega, h=None, terms=go.GV_TERMS):
    """The whole-grid chain as `pass_fields` names its fields, its differences
    divided by 2h (h the grid spacing unless one is given): d(omega),
    omega ^ d(omega), |omega|^2, theta and the GV density of the `terms`
    that the pass keeps."""
    dw = d(omega, h)
    theta = go._theta(omega, dw, 0.0, 1.0)
    return {"d(omega)": dw.values, "omega ^ d(omega)": wedge(omega, dw).values,
            "|omega|^2": go.norm_sq(omega), "theta": theta.values,
            "gv": go.gv_density(theta, h, terms)}


def streamed_row(fields, n, q=1.0):
    """(gv, defect) of per-cell fields, summed slab by slab in the pass's order
    and then scaled by powers of q = 1/2h, as the pass does."""
    frob = dw = w = gv = 0.0
    for s in fg._slabs(n):
        frob += float(np.sum(np.square(fields["omega ^ d(omega)"][s])))
        dw += float(np.sum(np.square(fields["d(omega)"][:, s])))
        w += float(np.sum(fields["|omega|^2"][s]))
        gv += float(np.sum(fields["gv"][s]))
    frob, dw, gv = frob * q * q, dw * q * q, 2 * gv * q**3
    cells = n**3
    return gv * (1.0 / n) ** 3, sqrt(frob / cells) / (sqrt(w / cells) * sqrt(dw / cells) + 1e-30)


def assert_fields_equal(got, want):
    """The same fields, bit for bit and signed zeros included."""
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name
        assert np.array_equal(np.signbit(got[name]), np.signbit(want[name])), name


def wedge_terms(theta):
    """theta ^ d(theta) and the sum of the absolute values of its three
    products, of the whole-grid chain."""
    dtheta = d(theta).values
    products = [theta.values[0] * dtheta[2], theta.values[1] * dtheta[1], theta.values[2] * dtheta[0]]
    return wedge(theta, d(theta)).values, float(sum(np.sum(np.abs(p)) for p in products))


def assert_slab_pass_matches_oracle(omega):
    """The pass's fields are the oracle's at 2h = 1, whose division is exact,
    bit for bit and signed zeros included, and its row is their sums rescaled.
    That row's gv and defect are those of the oracle's fields at the grid's
    spacing bit for bit on power-of-two grids, where the rescaling is exact,
    and to rounding elsewhere; the defect agrees with the whole-grid sums to
    summation rounding, and gv, the sum by parts, with the sum of
    theta ^ d(theta) within 1e-15 of the sum of its products' sizes."""
    n, h = omega.grid_size, omega.spacing
    unit = oracle_fields(omega, h=0.5)
    assert_fields_equal(slab_fields(omega), unit)
    got_gv, got_defect = gv_row(omega, tol=np.inf)
    assert (got_gv, got_defect) == streamed_row(unit, n, q=n / 2)
    fields = oracle_fields(omega)
    want_gv, want_defect = streamed_row(fields, n)
    if n & (n - 1) == 0:
        assert (got_gv, got_defect) == (want_gv, want_defect)
    assert got_gv == pytest.approx(want_gv, rel=1e-12, abs=0)
    assert got_defect == pytest.approx(want_defect, rel=1e-12, abs=0)
    dw, defect = go._frobenius(omega)
    assert got_defect == pytest.approx(defect, rel=1e-12, abs=0)
    wedged, size = wedge_terms(DiscreteForm(1, fields["theta"]))
    assert abs(got_gv - np.sum(wedged) * h**3) <= 1e-15 * h**3 * size


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


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 12), seed=st.integers(0, 2**32 - 1))
@example(n=3, seed=0)
def test_the_sum_by_parts_is_the_sum_of_theta_wedge_d_theta_exactly(n, seed):
    """On theta fields of small integers, differenced at 2h = 1, every
    difference, product and sum is exact, so twice the sum of the GV density
    by parts is the sum of theta ^ d(theta) to the bit."""
    values = np.random.default_rng(seed).integers(-8, 9, size=(3, n, n, n)).astype(float)
    theta = DiscreteForm(1, values)
    by_parts = np.sum(go.gv_density(theta, 0.5))
    assert 2 * by_parts == np.sum(wedge(theta, d(theta, 0.5)).values)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_the_sum_by_parts_agrees_with_the_wedge_sum_on_the_abc_form(monkeypatch, n):
    """On the non-integrable ABC form, the row's gv, the sum by parts, is the
    sum of theta ^ d(theta) within 1e-15 of the sum of its products' sizes."""
    monkeypatch.setattr(fg, "INTEGRABILITY_TOLERANCE", np.inf)
    fns = tuple(compile_expr(s) for s in ABC)
    omega = form_from_functions(1, n, *fns)
    wedged, size = wedge_terms(go._theta(omega, d(omega), 0.0, 1.0))
    gv = gv_term(FoliationSpec(fns, n))[0][1]
    assert abs(gv - np.sum(wedged) / n**3) <= 1e-15 * size / n**3


def test_an_overflow_of_the_rescaled_gv_sum_is_rejected(monkeypatch):
    """The pass sums the GV terms in grid units, (2h)^3 times their value;
    where only twice that sum times (n/2)^3 overflows, the row is still rejected.
    Two adjacent cells where omega is 3e-155 times its size elsewhere make
    theta there about 1e154 times its size elsewhere; the floor is lifted so
    that they pass the nonvanishing check, and omega is scaled up so that
    their |omega|^2 is a normal float."""
    n = 16
    values = 1e50 * random_omega(np.random.default_rng(0), n).values
    values[:, 5, 5, 5:7] *= 3e-155
    monkeypatch.setattr(fg, "NONVANISHING_FLOOR", 0.0)
    monkeypatch.setattr(fg, "INTEGRABILITY_TOLERANCE", np.inf)
    gv = float(np.sum(pass_fields(component_fns(values), n)["gv"]))
    assert isfinite(gv) and not isfinite(2 * gv * (n / 2) ** 3)
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


def lens_exp_g(as_cli):
    """The components of the bench's grid-128 exp-g form, (0, 0, e^g): its zeros
    sampled as the constant 0, or absent (None) as `cli` passes them."""
    fns = [compile_expr(s) for s in json.loads(LENS_7_2.read_text())["foliations"][0]["omega"]]
    return tuple(None if as_cli and f.is_zero else f for f in fns)


def test_gv_term_allocates_less_than_one_omega(traced_peak):
    """Sampling included, a gv_term call at grid 128 holds less than a quarter
    of one omega (three components of 8 n^3 bytes) on a form given by three
    Python functions, and on f dz given as `cli` gives it less than 1/16
    (2.28 MiB, the ring's two 8-row chunks and no pass; through the pass
    2.91, 4.16 before the sum by parts, and the slab pass before the plan
    held 6.89)."""
    n = 128
    loop = tuple((0, 0, k) for k in range(n))
    _, peak = traced_peak(gv_term, FoliationSpec(gauge_changed_fns(), n, loop))
    assert peak < 6 * n**3
    _, peak = traced_peak(gv_term, FoliationSpec(lens_exp_g(as_cli=True), n, loop))
    assert peak < 1.5 * n**3


@pytest.mark.parametrize("n", [32, 64, 128])
def test_gv_term_scratch_is_a_few_dozen_slab_blocks(traced_peak, n):
    """Counted in blocks of one component of one slab, a call makes, for a
    form with three components, d(omega) (3) and |omega|^2 (1) of one slab,
    theta of three (9) and a work area (6) that takes the differences of
    d(omega), the squares that the sums reduce, the products with their
    scratch and the GV terms: 19 blocks at every slab height.  f dz with its
    zeros absent runs no pass (0 blocks), and its ring holds no wrap rows.
    The call holds the ring of sampled omega and the pass's blocks, and
    besides them less than 4 blocks: while a chunk is sampled, the factors
    of its expression that span less than a chunk.  On the bench's exp-g
    form that is 2.09, 7.37 and 9.41 MiB at grids 32, 64 and 128, of which
    the ring is 0.75 (one chunk), 6 and 6.75 MiB, and with its zeros absent
    0.40, 2.18 and 2.28 MiB, of which the ring is 0.25, 2 and 2 MiB (through
    the pass, 3 blocks, 0.59, 2.37 and 2.91 MiB; before the sum by parts
    1.21, 2.99 and 4.16 MiB; the slab pass before the plan held 2.25, 8.10
    and 12.14 MiB, and 1.40, 4.09 and 6.89)."""
    rows = fg._slab_rows(n)
    block = 8 * rows * n * n
    for as_cli, blocks in ((False, 3 + 1 + 3 * 3 + 6), (True, 0)):
        fns = lens_exp_g(as_cli)
        if blocks:
            assert new_pass(n).blocks == blocks
        spec = FoliationSpec(fns, n, tuple((0, 0, k) for k in range(n)))
        ((_label, _gv, taut), _defect, _warning), peak = traced_peak(gv_term, spec)
        omega = ring(fns, n)
        fixed = held_bytes(omega) + blocks * block
        assert taut and (omega.edge_rows is None) == (as_cli or n < 128)
        assert fixed <= peak < fixed + 4 * block


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
        streamed = pass_fields(fns, n)["|omega|^2"]
        assert np.array_equal(streamed, norm_sq)
        lengths = sum(float(np.sum(np.sqrt(norm_sq[s]))) for s in fg._slabs(n))
        assert means == [lengths / n**3]
        assert means[0] == pytest.approx(whole_grid_check(want), rel=1e-13, abs=0)


BENCH_FORMS = {f"{m.stem}-{e['label']}": e["omega"] for m in (LENS_7_2, POINCARE)
               for e in json.loads(m.read_text())["foliations"]}


@pytest.mark.parametrize("n", [32, 39, 64, 128])
@pytest.mark.parametrize("texts", [*BENCH_FORMS.values(), *SAMPLED.values()],
                         ids=[*BENCH_FORMS, *SAMPLED])
def test_the_pairings_are_omega_as_the_ring_samples_it(monkeypatch, n, texts):
    """The pairings that gv_term hands to the tautness test equal, bit for bit,
    those of omega's ring samples at the loop's vertices, though they are
    evaluated at those vertices alone: on the compiled bench and sampled
    expressions (zeros absent, as `cli` passes them), by a staircase that
    steps along x, y and z in turn, through every row and so every chunk and
    slab, and reads each component at n points that differ in every
    coordinate."""
    fns = tuple(None if f.is_zero else f for f in map(compile_expr, texts))
    present = [c for c, f in enumerate(fns) if f is not None]
    if len(present) > 1:  # the ring holds all three, an absent one as zeros
        present = [0, 1, 2]
    loop = [((k + 2) // 3 % n, (k + 1) // 3 % n, k // 3 % n) for k in range(3 * n)]
    vertices, real = np.array(loop), fg._Omega.sample
    sampled = np.zeros((3, len(loop)))

    def recording(self, rows, out):
        real(self, rows, out)
        for r, row in enumerate(np.arange(n)[rows]):
            mine = vertices[:, 0] == row
            sampled[np.ix_(present, mine)] = out[:, r, vertices[mine, 1], vertices[mine, 2]]
        return out

    seen = []
    monkeypatch.setattr(fg._Omega, "sample", recording)
    monkeypatch.setattr(fg, "tautness_check", lambda pairings, mean: seen.append(pairings) or True)
    monkeypatch.setattr(fg, "INTEGRABILITY_TOLERANCE", np.inf)
    gv_term(FoliationSpec(fns, n, tuple(loop)))
    want = pairings_of([dict(zip(loop, w)) for w in sampled], loop, n)
    assert len(seen) == 1 and np.array_equal(seen[0].view(np.int64), want.view(np.int64))


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
    (_label, gv, taut), defect, warning = gv_term(FoliationSpec(contact_fns(), n,
                                                                loop_x_at_quarter_z))
    assert (gv, taut) == (None, False) and defect > 0.1 and "excluded" in warning
    with pytest.raises(ValueError, match="not integrable"):
        gv_term(FoliationSpec(contact_fns(), n, tuple((k, 0, 0) for k in range(n))))


# --- absent components: a component given as None evaluates no expression -----

def smooth_positive(rng):
    """2 plus two random Fourier modes of amplitude below 1/2: a component that
    is nonvanishing on its own."""
    modes = [(rng.integers(-2, 3, size=3), rng.uniform(-0.5, 0.5), rng.uniform(0, TWO_PI))
             for _ in range(2)]
    return lambda x, y, z: 2 + sum(a * np.sin(TWO_PI * (k[0] * x + k[1] * y + k[2] * z) + p)
                                   for k, a, p in modes)


def zero(x, y, z):
    return 0 * x


MASKS = [mask for mask in np.ndindex(2, 2, 2) if any(mask)]  # 1 marks a zero component


def outcome(fns, n):
    """gv_term's row, defect and warning on a z-loop, or the error it raises,
    with the integrability test off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fg, "INTEGRABILITY_TOLERANCE", np.inf)
        try:
            return gv_term(FoliationSpec(tuple(fns), n, tuple((0, 0, k) for k in range(n))))
        except SingularityError as exc:
            return str(exc)


def assert_absent_matches_sampled(fns, zeros, n):
    """gv_term with the components `zeros` absent equals it with them sampled as
    the constant 0: with two components left, the ring samples the absent
    one as zeros, so the row, defect and warning are those of the sampled
    zeros.  Where one component is left, gv is exactly 0.0, where the pass
    on the sampled zeros reads the discretisation error of its chain; the
    rest of the row is the same, and the defect is 0.0 on both."""
    sampled = outcome([zero if z else f for f, z in zip(fns, zeros)], n)
    given = [None if z else f for f, z in zip(fns, zeros)]
    absent = outcome(given, n)
    if isinstance(sampled, str) or isinstance(absent, str):
        assert absent == sampled
        return
    (row, defect, warning), (want_row, want_defect, want_warning) = absent, sampled
    if sum(zeros) == 2 and row[1] is not None:
        assert row[1] == 0.0
        row = (row[0], want_row[1], row[2])
    assert (row, defect, warning) == (want_row, want_defect, want_warning)


GRIDS = [(8, None), (9, None), (32, None), (39, None), (64, None), (128, None), (39, (5, 5))] + [
    (9, budget) for budget in [(1, 1), (1, 3), (2, 2), (2, 4), (2, 5), (3, 3), (4, 8)]]


@pytest.mark.parametrize("n, budget", GRIDS, ids=[f"{n}" + (f"-{b[0]}-{b[1]}" if b else "")
                                                   for n, b in GRIDS])
def test_absent_components_give_the_rows_of_sampled_zeros(monkeypatch, n, budget):
    """On a random nonvanishing form, for every set of zero components (all
    three: both refuse the form as vanishing), by the default budgets and by
    ragged slabs and chunks."""
    if budget:
        ragged_slabs(monkeypatch, n, *budget)
    fns = [smooth_positive(np.random.default_rng(100 * n + c)) for c in range(3)]
    for mask in MASKS:
        assert_absent_matches_sampled(fns, mask, n)


@pytest.mark.parametrize("n", [8, 39, 64])
@pytest.mark.parametrize("kind", sorted(SAMPLED))
def test_absent_zeros_give_the_rows_of_sampled_zeros_on_the_sampled_forms(n, kind):
    fns = [compile_expr(s) for s in SAMPLED[kind]]
    assert_absent_matches_sampled(fns, [f.is_zero for f in fns], n)


@pytest.mark.parametrize("manifest, index", [(LENS_7_2, 0), (LENS_7_2, 1), (POINCARE, 0)],
                         ids=["lens_7_2-exp-g", "lens_7_2-exp-xy", "poincare-exp-g"])
def test_absent_zeros_give_the_bench_rows(manifest, index):
    """The bench foliations are f dz: the defect is 0.0 as when the zeros are
    sampled, and the row is the same but for gv, exactly 0.0 with the zeros
    absent, where the pass on the sampled zeros reads roundoff of 0."""
    entry = json.loads(manifest.read_text())["foliations"][index]
    fns = [compile_expr(s) for s in entry["omega"]]
    n, loop = entry["grid"], tuple(map(tuple, entry["transversal"]))
    given = tuple(None if f.is_zero else f for f in fns)
    (label, gv, taut), defect, warning = gv_term(FoliationSpec(given, n, loop))
    (want_label, want_gv, want_taut), *want = gv_term(FoliationSpec(tuple(fns), n, loop))
    assert (label, taut, defect, warning) == (want_label, want_taut, *want)
    assert defect == 0.0 and gv == 0.0


@pytest.mark.parametrize("n", [8, 9, 32, 39, 64, 128])
def test_the_ring_holds_and_samples_only_present_components(monkeypatch, n):
    """For every set of absent components, gv_term samples the ring as a
    dense evaluation would: each grid row as often as with no component
    absent, or, where one component is left and only `_magnitudes` reads
    it, each row once, with no wrap rows.  Where one component is left, the
    ring's slots and wrap rows hold it alone.  Where two are, the ring holds
    all three, the absent one written as zeros by `fg._zero`, and no
    component function is called for it."""
    fns = [smooth_positive(np.random.default_rng(c)) for c in range(3)]
    real = fg._Omega.sample
    for mask in MASKS[:-1]:  # not all three absent
        called = set()
        given = [None if z else (lambda x, y, z, c=c, f=f: called.add(c) or f(x, y, z))
                 for c, (f, z) in enumerate(zip(fns, mask))]
        present = [f for f in given if f is not None]
        omega = ring(given, n)
        if len(present) == 1:
            assert len(omega.fns) == len(present) and omega.fns == present
            assert all(len(slot) == len(present) for slot in omega.slots)
            assert held_bytes(omega) <= len(present) * 8 * n**3
        else:
            assert omega.fns == [fg._zero if f is None else f for f in given]
            assert all(len(slot) == 3 for slot in omega.slots)
            assert held_bytes(omega) <= 3 * 8 * n**3
            present = [zero if f is None else f for f in given]
        seen = []

        def checking(self, rows, out):
            real(self, rows, out)
            picked = np.arange(n)[rows]
            assert np.array_equal(out, dense_rows(n, picked, *present))
            seen.extend(picked.tolist())
            return out

        called.clear()
        with monkeypatch.context() as mp:
            mp.setattr(fg._Omega, "sample", checking)
            outcome(given, n)
        assert called == {c for c, z in enumerate(mask) if not z}
        assert Counter(seen) == rows_sampled(given, n)
        assert (omega.edge_rows is not None) == (n >= 128 and len(present) > 1)


def test_an_omega_with_no_component_vanishes():
    """Three absent components are refused as the pass refuses three sampled
    zeros, after the loop's check and before any sampling."""
    with pytest.raises(ValueError, match="single lattice edge"):
        gv_term(FoliationSpec((None, None, None), 8, ((0, 0, 0), (0, 0, 2))))
    for fns in ((None, None, None), (zero, zero, zero)):
        with pytest.raises(SingularityError, match=r"vanishes at grid cell \(0, 0, 0\)"):
            gv_term(FoliationSpec(fns, 8))


# --- every field of the pass is the whole-grid oracle's ---------------------------

# the layouts that the pass serves: two or three present components
LAYOUTS = [present for present in itertools.product((False, True), repeat=3) if sum(present) > 1]


@pytest.mark.parametrize("n", [8, 9, 39, 64])
@pytest.mark.parametrize("present", LAYOUTS, ids=lambda p: "".join("xyz"[c] for c in range(3) if p[c]))
def test_every_field_of_the_pass_is_the_oracles_on_sampled_zeros(present, n):
    """For each layout of two or three present components, every field of
    the pass, d(omega), omega ^ d(omega), |omega|^2, theta and the density
    of the GV sum by parts, equals the whole-grid oracle on omega with its
    absent component sampled as zeros at 2h = 1, bit for bit and signed
    zeros included, slab by slab over every slab and wrap row of the grid."""
    rng = np.random.default_rng(10 * n + sum(present))
    fns = [smooth_positive(rng) if on else None for on in present]
    want = oracle_fields(form_from_functions(1, n, *[f or zero for f in fns]), 0.5)
    assert_fields_equal(pass_fields(fns, n), want)


class CountedUfunc:
    """A ufunc that adds each call, and the elements of its result or, for a
    reduction, of its operand, to a tally (a Counter), and each call to the
    count of its name."""

    def __init__(self, ufunc, tally):
        self.ufunc, self.tally = ufunc, tally

    def count(self, elements):
        self.tally.update({"calls": 1, "elements": int(elements), self.ufunc.__name__: 1})

    def __call__(self, *args, **kwargs):
        result = self.ufunc(*args, **kwargs)
        self.count(np.size(result))
        return result

    def reduce(self, array, *args, **kwargs):
        self.count(np.size(array))
        return self.ufunc.reduce(array, *args, **kwargs)


class CountingNumpy:
    """numpy as foliation_gv reads it, with every ufunc counted."""

    def __init__(self, tally):
        self.tally = tally

    def __getattr__(self, name):
        value = getattr(np, name)
        return CountedUfunc(value, self.tally) if isinstance(value, np.ufunc) else value


def pass_work(fns, n):
    """The ufunc calls and element operations of one gv_term call at grid n
    on `fns`, without a loop, and the names of the ufuncs called: a call's
    elements are those of its result, a reduction's those it reads."""
    tally = Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fg, "np", CountingNumpy(tally))
        mp.setattr(fg, "INTEGRABILITY_TOLERANCE", np.inf)
        gv_term(FoliationSpec(tuple(fns), n))
    return tally.pop("calls"), tally.pop("elements"), set(tally)


@pytest.mark.parametrize("form, n, calls, elements", [
    ("f dz", 128, 256, 4194304),
    ("f dz", 32, 8, 65536),
    ("x, y and z", 32, 236, 1836512),
    ("x only", 32, 236, 1836512),
], ids=["f-dz-128", "f-dz-32", "three-32", "two-32"])
def test_the_pass_does_a_pinned_amount_of_work(form, n, calls, elements):
    """The ufunc calls and element operations of a gv_term call repeat
    exactly, so a change to it can show its work apart from the host's
    noise.  f dz (the bench's exp-g form, its zeros absent, positive) takes
    2.0 element operations per cell at grid 128, the least and the sum of f
    per slab, and no subtract, divide or multiply: GV is exactly 0 there.  A
    form with three components takes 56.0 at grid 32, and so does one with
    two (its zero absent), whose ring holds the absent component as zeros:
    with the terms of an absent factor pruned, it took 202 calls and
    1,451,628 operations (44.3 per cell).  Through the pass, f dz took 1408
    calls and 10.0 operations per cell at grid 128 and 52 and 10.1 at grid
    32 (2446 and 21.1, and 98 and 21.6, before the sum by parts); three
    components took 240 and 62.2."""
    fns = (lens_exp_g(as_cli=True) if form == "f dz"
           else [None if f.is_zero else f for f in map(compile_expr, SAMPLED[form])])
    got_calls, got_elements, names = pass_work(fns, n)
    assert (got_calls, got_elements) == (calls, elements)
    assert elements / n**3 <= (2 if form == "f dz" else 57)
    if form == "f dz":
        assert names == {"minimum", "add"}  # no subtract, divide or multiply


def test_repeated_calls_take_few_page_faults(monkeypatch):
    """At grid 32 repeated calls take under 50 minor page faults each, though
    each makes its ring and its blocks: the allocator hands the memory of one
    call to the next (the slab pass before the plan took 496)."""
    monkeypatch.setattr(fg, "INTEGRABILITY_TOLERANCE", np.inf)
    spec = FoliationSpec(tuple(compile_expr(s) for s in SAMPLED["x, y and z"]), 32)
    row = gv_term(spec)
    assert gv_term(spec) == row
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        assert gv_term(spec) == row
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50 * 10


@pytest.mark.parametrize("grids", [(32, 32), (32, 16)], ids=["one grid", "two grids"])
def test_calls_on_two_threads_give_their_serial_rows(monkeypatch, grids):
    """No call keeps state for another: two threads that run gv_term at once,
    on one form at one grid or at two grids, each get the rows of serial
    calls."""
    monkeypatch.setattr(fg, "INTEGRABILITY_TOLERANCE", np.inf)
    fns = tuple(compile_expr(s) for s in SAMPLED["x, y and z"])
    specs = [FoliationSpec(fns, n) for n in grids]
    want = [gv_term(spec) for spec in specs]
    start, rows = threading.Barrier(2), [[], []]

    def run(i):
        start.wait()
        rows[i] += [gv_term(specs[i]) for _ in range(20)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert rows == [[row] * 20 for row in want]
