import itertools
import math

import numpy as np
import pytest

from rep_oracles import SolverConfig, brieskorn_sigma, is_irreducible, search_reps
from su2_oracles import from_axis_angle, random_unit
from taut3 import su2, su2reps
from taut3.presentations import (
    SIZE_BOUND,
    GroupPresentation,
    ParameterError,
    builtin_presentation,
)
from taut3.su2reps import (
    ModuliNotFiniteError,
    RegularityError,
    casson_count,
    enumerate_reps,
    evaluate_word,
    relator_residual,
    trace_coordinates,
)


@pytest.mark.parametrize("p", range(2, 13))
def test_lens_class_counts(p):
    moduli = enumerate_reps(builtin_presentation("Lens", p, 1))
    assert len(moduli.classes) == p // 2 + 1


@pytest.mark.parametrize("family, params", [("S3", ()), ("Lens", (7, 2)), ("Lens", (12, 5))])
def test_cyclic_residuals_are_evaluated(family, params, count_calls):
    calls = count_calls("relator_residual", su2reps)
    pres = builtin_presentation(family, *params)
    moduli = enumerate_reps(pres)
    assert len(calls) == 1  # one batched evaluation for all classes
    images, relators = calls[0]
    assert len(images) == len(moduli.classes) and relators == pres.relators
    residuals = [rep.residual for rep in moduli.classes]
    assert residuals == list(relator_residual(images, relators))
    assert max(residuals) <= su2reps.RESIDUAL_TOLERANCE


def test_lens5_trace_values():
    moduli = enumerate_reps(builtin_presentation("Lens", 5, 1))
    traces = sorted(float(r.trace_coords[0]) for r in moduli.classes)
    expected = sorted(2 * math.cos(2 * math.pi * k / 5) for k in range(3))
    assert np.allclose(traces, expected, atol=1e-10)
    assert all(not r.irreducible for r in moduli.classes)  # abelian group


def brieskorn_235_angle_oracle():
    """Independent enumeration of irreducible classes for the (2,3,5) sphere.

    In the presentation <s,t | s^3 t^-5, (st)^2 s^-3> all of s^3 = t^5 = (st)^2
    are a central element h; irreducibly h = -1, so the rotation angles are
    theta_s in {pi/3}, theta_t in {pi/5, 3pi/5}, theta_st = pi/2, subject to
    the spherical-triangle condition
        |theta_s - theta_t| < theta_st < min(theta_s + theta_t,
                                             2 pi - theta_s - theta_t).
    Returns the set of (tr s, tr t) pairs.
    """
    out = set()
    theta_s = math.pi / 3
    theta_st = math.pi / 2
    for ell in (1, 3):
        theta_t = ell * math.pi / 5
        lo = abs(theta_s - theta_t)
        hi = min(theta_s + theta_t, 2 * math.pi - theta_s - theta_t)
        if lo < theta_st < hi:
            out.add((round(2 * math.cos(theta_s), 6), round(2 * math.cos(theta_t), 6)))
    return out


def test_brieskorn_235_matches_angle_oracle(brieskorn_235_moduli):
    irr = [r for r in brieskorn_235_moduli.classes if r.irreducible]
    oracle = brieskorn_235_angle_oracle()
    assert len(oracle) == 2
    found = {
        (round(float(r.trace_coords[0]), 6), round(float(r.trace_coords[1]), 6))
        for r in irr
    }
    assert found == oracle
    # every solution actually satisfies the relators
    for r in irr:
        assert r.residual <= 1e-10


def test_trace_coordinates_conjugation_invariant():
    rng = np.random.default_rng(3)
    images = random_unit(rng, (2,))
    g = random_unit(rng)
    conj = np.stack([su2.qmul(su2.qmul(g, images[i]), su2.qconj(g)) for i in range(2)])
    assert np.allclose(trace_coordinates(images), trace_coordinates(conj), atol=1e-10)


def test_relator_residual_zero_on_true_rep():
    pres = builtin_presentation("Lens", 6, 1)
    im = from_axis_angle(np.array([0.0, 0.0, 1.0]), 2 * math.pi / 6)[None, :]
    assert relator_residual(im[None, :], pres.relators)[0] < 1e-12


def test_irreducibility_flags():
    rng = np.random.default_rng(0)
    commuting = np.stack([from_axis_angle(np.array([0.0, 0.0, 1.0]), a) for a in (0.3, 1.1)])
    noncomm = random_unit(rng, (2,))

    class FakeRep:
        def __init__(self, im):
            self._im = im

        def images_array(self):
            return self._im

    assert not is_irreducible(FakeRep(commuting))
    assert is_irreducible(FakeRep(noncomm))


def test_casson_count_and_regularity(brieskorn_235_moduli):
    moduli = brieskorn_235_moduli
    n_irr = sum(r.irreducible for r in moduli.classes)
    assert casson_count(moduli, [0] * n_irr) == 2
    with pytest.raises(RegularityError):
        casson_count(moduli, [1] + [0] * (n_irr - 1))
    with pytest.raises(ValueError):
        casson_count(moduli, [0])  # wrong length


def test_enumeration_refuses_positive_betti():
    """T^3 has a 3-dimensional family of commuting triples, not a class list."""
    with pytest.raises(ModuliNotFiniteError, match="betti_1 > 0"):
        enumerate_reps(builtin_presentation("Torus3"))


def test_enumeration_refuses_presentations_without_a_shape():
    pres = builtin_presentation("Lens", 5, 1)
    with pytest.raises(ValueError, match="no exact construction"):
        enumerate_reps(GroupPresentation(1, pres.relators, label="hand-made"))


def test_evaluate_word_inverse():
    rng = np.random.default_rng(5)
    images = random_unit(rng, (2,))
    w = ((0, 2), (1, -1))
    prod = su2.qmul(su2.qpow(images[0], 2), su2.qconj(images[1]))
    assert np.allclose(evaluate_word(images, w), prod, atol=1e-12)


def test_gauss_newton_evaluates_each_iterate_once(count_calls):
    """The damping loop's evaluation of the accepted iterate also gives its
    deviation; only the final acceptance test calls `relator_residual`."""
    calls = count_calls("relator_residual", su2reps)
    search_reps(builtin_presentation("Brieskorn", 2, 3, 5), SolverConfig(max_iterations=3))
    assert len(calls) == 1


def search_against_exact(pqr):
    """The numerical search, blind to the presentation's shape, with 100 seeds
    and 30 iterations: every class it converges to is one of the constructed
    classes, and it finds every constructed irreducible class."""
    pres = builtin_presentation("Brieskorn", *pqr)
    exact = enumerate_reps(pres).classes
    found = search_reps(pres, SolverConfig(seed=0, random_seeds=100, max_iterations=30)).classes

    def near(r, classes):
        return [c for c in classes if np.max(np.abs(c.trace_coords - r.trace_coords)) < 1e-6]

    for f in found:
        assert [e.irreducible for e in near(f, exact)] == [f.irreducible]
    for e in exact:
        if e.irreducible:
            assert len(near(e, found)) == 1
    return found, exact


def test_brieskorn_2_3_11_finds_every_irreducible_class():
    """Seifert presentation, 4 generators: all 2|lambda| = 4 irreducible classes.
    At this seed the search misses the trivial class, a degenerate point of
    Gauss-Newton; the construction adds it exactly."""
    found, exact = search_against_exact((2, 3, 11))
    assert sum(r.irreducible for r in found) == 4 and len(exact) == 5


def test_search_finds_the_exact_poincare_sphere_classes():
    found, exact = search_against_exact((2, 3, 5))
    assert len(found) == len(exact) == 3


SMALL_TRIPLES = [
    t for t in itertools.combinations(range(2, 51), 3)
    if math.prod(t) <= 200 and all(math.gcd(a, b) == 1 for a, b in itertools.combinations(t, 2))
]


def test_small_triples_cover_both_presentation_shapes():
    assert len(SMALL_TRIPLES) == 31
    shapes = {type(builtin_presentation("Brieskorn", *t).shape).__name__ for t in SMALL_TRIPLES}
    assert shapes == {"TriangleShape", "SeifertShape"}


@pytest.mark.parametrize("pqr", SMALL_TRIPLES, ids=lambda t: "-".join(map(str, t)))
def test_exact_brieskorn_moduli(pqr, count_calls):
    """1 + 2|sigma/8| classes (Fintushel-Stern; Neumann-Wahl), each satisfying
    the relators, built with no search: at most 164 su2.qmul and 28 su2.qpow
    calls, the counts of Sigma(3,5,13), the most any of these triples takes."""
    pres = builtin_presentation("Brieskorn", *pqr)
    products, powers = count_calls("qmul", su2), count_calls("qpow", su2)
    moduli = enumerate_reps(pres)
    assert len(products) <= 164 and len(powers) <= 28
    sigma = brieskorn_sigma(*pqr)
    assert sigma % 8 == 0
    irreducible = [r for r in moduli.classes if r.irreducible]
    assert len(irreducible) == 2 * abs(sigma // 8)
    assert len(moduli.classes) == len(irreducible) + 1
    reducible = next(r for r in moduli.classes if not r.irreducible)
    assert np.allclose(reducible.trace_coords, 2.0)
    assert max(r.residual for r in moduli.classes) <= 1e-10
    images = np.stack([r.images_array() for r in moduli.classes])
    assert np.max(relator_residual(images, pres.relators)) <= 1e-10


def test_brieskorn_product_bound():
    """Triples past the bound are refused; the largest exponent within it still
    meets the residual tolerance."""
    with pytest.raises(ParameterError, match="p\\*q\\*r"):
        builtin_presentation("Brieskorn", 2, 3, 10007)
    r = max(r for r in range(SIZE_BOUND // 6 - 5, SIZE_BOUND // 6 + 1)
            if math.gcd(r, 6) == 1)
    moduli = enumerate_reps(builtin_presentation("Brieskorn", 2, 3, r))
    assert max(c.residual for c in moduli.classes) <= 1e-10
