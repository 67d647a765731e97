import math

import numpy as np
import pytest

from taut3 import su2
from taut3.presentations import builtin_presentation, concat_words, gen, invert_word
from taut3.su2reps import RepModuli, enumerate_reps, evaluate_word
from taut3.twisted_torsion import (
    GroupRingElement,
    ModuliNotFiniteError,
    UnsupportedFamilyError,
    build_twisted_complex,
    cw_structure,
    fox_derivative,
    rs_torsion,
    sv_torsion_oracle,
    torsion_sum,
    twisted_laplacians,
)


def random_word(rng, n_gens=3, length=6):
    pairs = [(int(rng.integers(n_gens)), int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1))
             for _ in range(length)]
    return tuple(pairs)


def test_fox_product_rule_on_1000_random_pairs():
    """d(uv)/dx_j = du/dx_j + u * dv/dx_j, exactly, in the group ring."""
    rng = np.random.default_rng(11)
    for _ in range(1000):
        u = random_word(rng)
        v = random_word(rng)
        j = int(rng.integers(3))
        lhs = fox_derivative(concat_words(u, v), j)
        rhs = fox_derivative(u, j) + GroupRingElement.from_word(u) * fox_derivative(v, j)
        assert lhs == rhs


@pytest.mark.parametrize("p", range(1, 21))
def test_fox_derivative_of_powers(p):
    """d(x^p)/dx = 1 + x + ... + x^{p-1}, brute force."""
    got = fox_derivative(gen(0, p), 0)
    expect = GroupRingElement({gen(0, k) if k else (): 1 for k in range(p)})
    assert got == expect


def test_fox_derivative_of_negative_powers():
    # d(x^-p)/dx = -(x^-1 + ... + x^-p)
    got = fox_derivative(gen(0, -3), 0)
    expect = GroupRingElement({gen(0, -1): -1, gen(0, -2): -1, gen(0, -3): -1})
    assert got == expect


def test_fundamental_identity():
    """w - 1 = sum_j d(w)/dx_j (x_j - 1) in the group ring."""
    rng = np.random.default_rng(2)
    for _ in range(100):
        w = random_word(rng)
        lhs = GroupRingElement.from_word(w) - GroupRingElement.one()
        rhs = GroupRingElement.zero()
        for j in range(3):
            rhs = rhs + fox_derivative(w, j) * (
                GroupRingElement.from_word(gen(j)) - GroupRingElement.one()
            )
        assert lhs == rhs


FAMILIES = [("S3", ()), ("Lens", (5, 1)), ("Lens", (7, 2)), ("Torus3", ()), ("Brieskorn", (2, 3, 5))]


@pytest.mark.parametrize("family,params", FAMILIES)
def test_boundaries_compose_to_zero(request, family, params):
    cw = cw_structure(family, *params)
    if family == "Torus3":
        # the trivial representation suffices; enumeration would be grid-limited
        from taut3.su2reps import Su2Element, Su2Rep

        images = tuple(Su2Element.from_array(su2.IDENTITY) for _ in range(3))
        reps = [Su2Rep(images, np.zeros(6), False, 0.0)]
    elif family == "Brieskorn":
        reps = list(request.getfixturevalue("brieskorn_235_moduli").classes)
    else:
        reps = list(enumerate_reps(cw.presentation).classes)
    for rep in reps:
        c = build_twisted_complex(cw, rep)  # raises internally if D@D != 0
        for pair in (c.d1 @ c.d2, c.d2 @ c.d3):
            assert np.linalg.norm(pair) < 1e-10 * max(1.0, np.linalg.norm(c.d2))


@pytest.mark.parametrize(
    "family,params,expected",
    [
        ("S3", (), (1, 0, 0, 1)),
        ("Lens", (5, 1), (1, 0, 0, 1)),
        ("Torus3", (), (1, 3, 3, 1)),
        ("Brieskorn", (2, 3, 5), (1, 0, 0, 1)),
    ],
)
def test_untwisted_homology_matches_known(family, params, expected):
    """At the trivial representation the complex computes H_*(N; C^2):
    per C^2 block, the Betti numbers of the manifold."""
    from taut3.su2reps import Su2Element, Su2Rep

    cw = cw_structure(family, *params)
    g = cw.presentation.num_generators
    images = tuple(Su2Element.from_array(su2.IDENTITY) for _ in range(g))
    rep = Su2Rep(images, np.zeros(max(1, g * (g + 1) // 2 + g)), False, 0.0)
    c = build_twisted_complex(cw, rep)
    assert c.betti_numbers() == tuple(2 * b for b in expected)


def test_lens2_nontrivial_character_fully_acyclic():
    cw = cw_structure("Lens", 2, 1)
    moduli = enumerate_reps(cw.presentation)
    nontriv = [r for r in moduli.classes if abs(r.trace_coords[0] + 2.0) < 1e-8]
    assert len(nontriv) == 1
    c = build_twisted_complex(cw, nontriv[0])
    assert c.is_acyclic()
    spec = twisted_laplacians(c)
    # scalar zeta = -1 twist: Delta_0 per block is |zeta - 1|^2 = 4
    assert np.allclose(spec.eigenvalues[0], [4.0, 4.0], atol=1e-10)


def test_brieskorn_fixture_acyclic_at_irreducibles(brieskorn_235_moduli):
    cw = cw_structure("Brieskorn", 2, 3, 5)
    irr = [r for r in brieskorn_235_moduli.classes if r.irreducible]
    assert len(irr) == 2
    ts = []
    for rep in irr:
        c = build_twisted_complex(cw, rep)
        res = rs_torsion(c)
        assert res.acyclic
        ts.append(res.t)
    # the two torsions multiply to |H_1| = 1-style reciprocity: 3 +- sqrt(5) roots
    ts = sorted(ts)
    assert np.allclose(ts, [3 - math.sqrt(5), 3 + math.sqrt(5)], atol=1e-6)


def test_metric_independence_on_acyclic_complex(brieskorn_235_moduli):
    cw = cw_structure("Brieskorn", 2, 3, 5)
    rep = next(r for r in brieskorn_235_moduli.classes if r.irreducible)
    c = build_twisted_complex(cw, rep)
    base = rs_torsion(c).log_t
    rng = np.random.default_rng(17)
    for _ in range(20):
        weights = []
        for n in c.dims:
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            weights.append(a @ a.conj().T + n * np.eye(n))
        res = rs_torsion(c, weights=weights)
        assert abs(res.log_t - base) < 1e-8


def test_torsion_matches_svd_oracle(brieskorn_235_moduli):
    lens = cw_structure("Lens", 5, 1)
    cases = [(lens, enumerate_reps(lens.presentation)),
             (cw_structure("Brieskorn", 2, 3, 5), brieskorn_235_moduli)]
    for cw, moduli in cases:
        for rep in moduli.classes:
            c = build_twisted_complex(cw, rep)
            assert abs(rs_torsion(c).log_t - sv_torsion_oracle(c)) < 1e-8


def test_torsion_sum_refuses_positive_betti():
    with pytest.raises(ModuliNotFiniteError):
        torsion_sum(builtin_presentation("Torus3"), cw_structure("Torus3"), RepModuli(()))


def test_torsion_sum_reports_finiteness_note():
    pres = builtin_presentation("Lens", 3, 1)
    result = torsion_sum(pres, cw_structure("Lens", 3, 1), enumerate_reps(pres))
    assert any("finiteness" in note for note in result.notes)
    assert result.total > 0


def test_unsupported_family_errors():
    with pytest.raises(UnsupportedFamilyError):
        cw_structure("Brieskorn", 2, 3, 7)
    with pytest.raises(UnsupportedFamilyError):
        cw_structure("Nope")


def test_weight_validation():
    cw = cw_structure("S3")
    rep = enumerate_reps(cw.presentation).classes[0]
    c = build_twisted_complex(cw, rep)
    bad = [np.eye(n) for n in c.dims]
    bad[0] = -np.eye(c.dims[0])
    with pytest.raises(ValueError):
        twisted_laplacians(c, weights=bad)
