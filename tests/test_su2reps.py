import itertools
import math

import numpy as np
import pytest

from taut3 import su2, su2reps
from taut3.presentations import builtin_presentation
from taut3.su2reps import (
    RegularityError,
    SolverConfig,
    casson_count,
    enumerate_reps,
    evaluate_word,
    is_irreducible,
    relator_residual,
    trace_coordinates,
)


@pytest.mark.parametrize("p", range(2, 13))
def test_lens_class_counts(p):
    moduli = enumerate_reps(builtin_presentation("Lens", p, 1))
    assert len(moduli.classes) == p // 2 + 1


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
    images = su2.random_unit(rng, (2,))
    g = su2.random_unit(rng)
    conj = np.stack([su2.qmul(su2.qmul(g, images[i]), su2.qconj(g)) for i in range(2)])
    assert np.allclose(trace_coordinates(images), trace_coordinates(conj), atol=1e-10)


def test_relator_residual_zero_on_true_rep():
    pres = builtin_presentation("Lens", 6, 1)
    im = su2.from_axis_angle(np.array([0.0, 0.0, 1.0]), 2 * math.pi / 6)[None, :]
    assert relator_residual(im[None, :], pres.relators)[0] < 1e-12


def test_irreducibility_flags():
    rng = np.random.default_rng(0)
    commuting = np.stack([su2.from_axis_angle(np.array([0.0, 0.0, 1.0]), a) for a in (0.3, 1.1)])
    noncomm = su2.random_unit(rng, (2,))

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


def test_enumeration_warns_on_positive_betti():
    with pytest.warns(UserWarning):
        enumerate_reps(
            builtin_presentation("Torus3"),
            SolverConfig(grid_density=3, random_seeds=10, max_iterations=10),
        )


def test_evaluate_word_inverse():
    rng = np.random.default_rng(5)
    images = su2.random_unit(rng, (2,))
    w = ((0, 2), (1, -1))
    prod = su2.qmul(su2.qpow(images[0], 2), su2.qconj(images[1]))
    assert np.allclose(evaluate_word(images, w), prod, atol=1e-12)


def test_gauss_newton_evaluates_each_iterate_once(count_calls):
    """The damping loop's evaluation of the accepted iterate also gives its
    deviation; only the final acceptance test calls `relator_residual`."""
    calls = count_calls("relator_residual", su2reps)
    enumerate_reps(builtin_presentation("Brieskorn", 2, 3, 5), SolverConfig(max_iterations=3))
    assert len(calls) == 1


def test_brieskorn_2_3_11_finds_every_irreducible_class():
    """With an exact distance to the identity, converged seeds count as converged:
    all 2|lambda| = 4 irreducible classes even with 100 seeds and 30 iterations."""
    moduli = enumerate_reps(builtin_presentation("Brieskorn", 2, 3, 11),
                            SolverConfig(seed=0, random_seeds=100, max_iterations=30))
    assert sum(r.irreducible for r in moduli.classes) == 4
