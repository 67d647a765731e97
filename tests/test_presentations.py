import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from taut3.presentations import (
    SIZE_BOUND,
    CyclicShape,
    GroupPresentation,
    SeifertShape,
    TriangleShape,
    ParameterError,
    builtin_presentation,
    concat_words,
    gen,
    homology_h1,
    invariant_factors,
    reduce_word,
    word_power,
)


def invert_word(w):
    return tuple((g, -e) for g, e in reversed(w))


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


@pytest.mark.parametrize("family, params", [("Lens", (7, 2)), ("Brieskorn", (2, 3, 5)),
                                            ("Brieskorn", (2, 3, 11)), ("Torus3", ())])
def test_presentations_and_shapes_are_hashable_and_equal_by_value(family, params):
    """Two builds of one presentation are equal and hash alike, and so are their
    shapes (the benchmark's tracer counts distinct presentations in a set); a
    keyword build, whose `h1` is unread, equals one whose `h1` is read."""
    p, q = builtin_presentation(family, *params), builtin_presentation(family, *params)
    assert p is not q and p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p.shape == q.shape and hash(p.shape) == hash(q.shape)
    rebuilt = GroupPresentation(num_generators=p.num_generators, relators=p.relators,
                                label=p.label, shape=p.shape, d3_words=p.d3_words)
    assert p.h1 is not None and "h1" not in vars(rebuilt)
    assert rebuilt == p and hash(rebuilt) == hash(p)
    assert GroupPresentation(p.num_generators, p.relators, p.label + "'", p.shape) != p


def test_shapes_differ_by_their_exponents_and_their_kind():
    assert CyclicShape(7) == CyclicShape(7, 1) != CyclicShape(7, 2)
    assert TriangleShape(2, 3, 5) != TriangleShape(2, 3, 7)
    assert SeifertShape((2, 3, 11), (1, 1, 1), -1) != SeifertShape((2, 3, 11), (1, 1, 2), -1)
    assert builtin_presentation("Lens", 7, 2) != builtin_presentation("Lens", 7, 3)


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


def sympy_h1(num_generators, matrix):
    """H_1 from sympy's Smith normal form of the exponent-sum matrix: the oracle."""
    if not matrix:
        return num_generators, ()
    snf = smith_normal_form(Matrix(matrix))
    factors = [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i] != 0]
    return num_generators - len(factors), tuple(f for f in factors if f > 1)


def presentation_of(matrix, num_generators):
    """One relator per row, each generator once with its row entry as exponent."""
    return GroupPresentation(
        num_generators, tuple(tuple((g, e) for g, e in enumerate(row) if e) for row in matrix)
    )


entries = st.integers(-9, 9) | st.just(0) | st.integers(-SIZE_BOUND, SIZE_BOUND)


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 7 x 5, with no rows at all, zero rows and zero columns."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(1, 5))
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows)), cols


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_homology_matches_sympy_smith_normal_form(drawn):
    matrix, cols = drawn
    pres = presentation_of(matrix, cols)
    assert pres.exponent_matrix() == matrix
    h = homology_h1(pres)
    assert (h.betti_1, h.torsion_coefficients) == sympy_h1(cols, matrix)


def test_invariant_factors_form_a_divisibility_chain():
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[4, 0, 0], [0, 6, 0], [0, 0, 0]]) == [2, 12]
    assert invariant_factors([[0, 0]]) == [] and invariant_factors([]) == []


def test_every_lens_space_below_200_has_cyclic_h1():
    for p in range(2, 200):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                h = homology_h1(builtin_presentation("Lens", p, q))
                assert (h.betti_1, h.torsion_coefficients) == (0, (p,))


def pairwise_coprime_triples(bound):
    return [(p, q, r) for p in range(2, bound) for q in range(p + 1, bound)
            for r in range(q + 1, bound // (p * q) + 1)
            if p * q * r <= bound and math.gcd(p, q) == math.gcd(p, r) == math.gcd(q, r) == 1]


def test_builtin_presentations_match_the_sympy_oracle():
    """S^3, T^3, some lens spaces, every Brieskorn sphere with pqr <= 200 (both
    presentation shapes) and a few near the size bound."""
    triples = pairwise_coprime_triples(200) + [(2, 3, 4999), (29, 31, 33), (2, 7, 2141)]
    presentations = [builtin_presentation("S3"), builtin_presentation("Torus3")]
    presentations += [builtin_presentation("Lens", p, q) for p, q in ((2, 1), (7, 2), (12, 5))]
    presentations += [builtin_presentation("Brieskorn", *pqr) for pqr in triples]
    assert {pres.num_generators for pres in presentations} == {1, 2, 3, 4}
    for pres in presentations:
        h = homology_h1(pres)
        assert (h.betti_1, h.torsion_coefficients) == sympy_h1(
            pres.num_generators, pres.exponent_matrix()), pres.label
