import numpy as np
import pytest

from taut3.foliation_gv import (
    DiscreteForm,
    FoliationSpec,
    SingularityError,
    TautnessError,
    d,
    form_from_functions,
    grid_coords,
    gv_integral,
    gv_invariant,
    integrability_residual,
    integrate,
    l2_norm,
    solve_theta,
    tautness_check,
    wedge,
)

TWO_PI = 2 * np.pi


def omega_exp_f(n, ax=0.3, ay=0.2):
    """e^{f(x,y)} dz with f = ax sin(2 pi x) + ay cos(2 pi y); integrable."""
    return form_from_functions(
        1,
        n,
        lambda x, y, z: 0 * x,
        lambda x, y, z: 0 * x,
        lambda x, y, z: np.exp(ax * np.sin(TWO_PI * x) + ay * np.cos(TWO_PI * y)),
    )


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
    assert integrability_residual(omega_exp_f(n)) < 1e-12
    # the standard contact-like form is maximally non-integrable
    contact = form_from_functions(
        1,
        n,
        lambda x, y, z: np.cos(TWO_PI * z),
        lambda x, y, z: np.sin(TWO_PI * z),
        lambda x, y, z: 1.0 + 0 * x,
    )
    assert integrability_residual(contact) > 0.1


def test_solve_theta_matches_analytic_minimal_solution():
    n = 48
    om = omega_exp_f(n)
    theta, res = solve_theta(om)
    assert res < 1e-12
    x, y, z = grid_coords(n)
    fx = 0.3 * TWO_PI * np.cos(TWO_PI * x)
    fy = -0.2 * TWO_PI * np.sin(TWO_PI * y)
    assert np.max(np.abs(theta.values[0] - fx)) < 1e-2
    assert np.max(np.abs(theta.values[1] - fy)) < 1e-2
    assert np.max(np.abs(theta.values[2])) < 1e-12


def test_solve_theta_rejects_nonintegrable():
    n = 16
    contact = form_from_functions(
        1,
        n,
        lambda x, y, z: np.cos(TWO_PI * z),
        lambda x, y, z: np.sin(TWO_PI * z),
        lambda x, y, z: 1.0 + 0 * x,
    )
    with pytest.raises(ValueError):
        solve_theta(contact)


def test_singular_form_detected():
    n = 16
    with pytest.raises(SingularityError):
        integrability_residual(
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
        om = omega_exp_f(n)
        theta, _ = solve_theta(om)
        assert abs(gv_integral(om, theta)) < 1e-8


def test_gv_invariant_under_constant_rescale():
    n = 32
    om = omega_exp_f(n)
    theta, _ = solve_theta(om)
    scaled = DiscreteForm(1, 2.7 * om.values)
    theta2, _ = solve_theta(scaled)
    assert abs(gv_integral(om, theta) - gv_integral(scaled, theta2)) < 1e-10


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
        om = gauge_changed_omega(n)
        theta, res = solve_theta(om, tol=1e-6)
        drifts.append(abs(gv_integral(om, theta)))
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
