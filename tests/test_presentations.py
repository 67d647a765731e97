import math

import numpy as np
import pytest

from taut3.presentations import (
    GroupPresentation,
    ParameterError,
    builtin_presentation,
    concat_words,
    gen,
    homology_h1,
    invert_word,
    reduce_word,
    word_power,
)


def test_reduce_word_cancels_and_merges():
    assert reduce_word(((0, 1), (0, -1))) == ()
    assert reduce_word(((0, 2), (0, 3))) == ((0, 5),)
    assert reduce_word(((0, 1), (1, 2), (1, -2), (0, -1))) == ()
    assert reduce_word(((0, 1), (1, 0), (0, 2))) == ((0, 3),)


def test_invert_and_concat_are_group_ops():
    w = ((0, 2), (1, -1), (0, 3))
    assert concat_words(w, invert_word(w)) == ()
    assert invert_word(invert_word(w)) == w
    assert word_power(gen(0), 4) == ((0, 4),)
    assert word_power(w, 0) == ()


def test_presentation_validation():
    with pytest.raises(ValueError):
        GroupPresentation(1, (((1, 1),),))  # generator index out of range
    # relators are normalized on construction; zero exponents reduce away
    p = GroupPresentation(1, (((0, 0),),))
    assert p.relators == ((),)


def test_homology_lens_and_s3():
    assert homology_h1(builtin_presentation("S3")).torsion_coefficients == ()
    h = homology_h1(builtin_presentation("Lens", 7, 2))
    assert h.betti_1 == 0 and h.torsion_coefficients == (7,)


def test_homology_torus3():
    h = homology_h1(builtin_presentation("Torus3"))
    assert h.betti_1 == 3 and h.torsion_coefficients == ()


@pytest.mark.parametrize("pqr", [(2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 7), (3, 5, 7)])
def test_brieskorn_presentations_are_homology_spheres(pqr):
    pres = builtin_presentation("Brieskorn", *pqr)
    h = homology_h1(pres)
    assert h.betti_1 == 0 and h.torsion_coefficients == ()


def test_brieskorn_parameter_checks():
    with pytest.raises(ParameterError):
        builtin_presentation("Brieskorn", 2, 4, 5)  # not coprime
    with pytest.raises(ParameterError):
        builtin_presentation("Brieskorn", 1, 2, 3)
    with pytest.raises(ParameterError):
        builtin_presentation("Lens", 4, 2)


@pytest.mark.parametrize("family", ["S3", "Torus3"])
def test_parameter_free_families_refuse_parameters(family):
    with pytest.raises(ParameterError, match="takes no parameters"):
        builtin_presentation(family, 1, 2)


def test_h1_is_computed_once_per_presentation():
    pres = builtin_presentation("Lens", 7, 2)
    assert pres.h1 is pres.h1
    assert pres.h1 == homology_h1(pres)


def test_homology_invariant_under_relator_tweaks():
    """Conjugating or inverting a relator is a Tietze move; H_1 cannot change."""
    base = builtin_presentation("Lens", 9, 2)
    r = base.relators[0]
    conj = concat_words(gen(0), r, gen(0, -1))
    for variant in (invert_word(r), conj):
        p2 = GroupPresentation(1, (variant,))
        assert homology_h1(p2).torsion_coefficients == (9,)


def test_exponent_matrix_matches_abelianization():
    pres = builtin_presentation("Brieskorn", 2, 3, 5)
    m = np.asarray(pres.exponent_matrix(), dtype=float)
    # homology-sphere check again, via the determinant route
    assert m.shape[0] == m.shape[1]
    assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-9
