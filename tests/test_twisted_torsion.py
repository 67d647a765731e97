import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rep_oracles import brieskorn_sigma
from su2_oracles import qnormalize, to_matrix
from taut3 import su2
from taut3.presentations import (
    ParameterError,
    _brieskorn_seifert,
    builtin_presentation,
    concat_words,
    gen,
    reduce_word,
)
from taut3.su2reps import ModuliNotFiniteError, RepModuli, enumerate_reps, evaluate_word
from taut3.twisted_torsion import (
    RANK_TOLERANCE,
    TwistedComplex,
    _fox_images,
    _fox_ranks,
    adjoint_h1_dims,
    build_twisted_complex,
    cw_structure,
    sv_torsion_oracle,
    torsion_sum,
)
from test_su2reps import SMALL_TRIPLES
from torsion_oracles import boundary, dims, rs_torsion, twisted_laplacians

# the representations the Fox walk runs on: tau on C^2, and Ad on su(2) = R^3
REPRESENTATIONS = {"C2": to_matrix, "Ad": su2.adjoint}


def random_word(rng, n_gens=3, length=6):
    pairs = [(int(rng.integers(n_gens)), int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1))
             for _ in range(length)]
    return tuple(pairs)


def fox(w, images, rep=to_matrix):
    """Images of dw/dx_j under `rep` for every generator j, shape (g, k, k)."""
    return _fox_images((reduce_word(w),), rep(images))[0]


def fox_terms(w, j):
    """dw/dx_j as (coefficient, word) pairs, one per letter x_j^(+-1) of w: the
    word-by-word reference for the quaternion walk."""
    terms, prefix = [], ()
    for g, e in w:
        if g == j:
            terms += ([(1, concat_words(prefix, gen(g, k))) for k in range(e)] if e > 0
                      else [(-1, concat_words(prefix, gen(g, -k))) for k in range(1, 1 - e)])
        prefix = concat_words(prefix, gen(g, e))
    return terms


def reweighted(c, weights):
    """The complex with the adjoints taken in the inner products `weights`
    (SPD, one per chain group, scaled to unit determinant):
    B_i = L_(i-1)^H D_i L_i^-H for W_i = L_i L_i^H."""
    chol = [np.linalg.cholesky(w * np.exp(-np.linalg.slogdet(w)[1] / len(w))) for w in weights]
    b = [chol[i - 1].conj().T @ boundary(c, i) @ np.linalg.inv(chol[i].conj().T) for i in (1, 2, 3)]
    return TwistedComplex(*b)


unit_quaternions = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(qnormalize)
letters = st.tuples(st.integers(0, 2), st.integers(1, 5), st.sampled_from([1, -1])).map(
    lambda t: (t[0], t[1] * t[2]))
words = st.lists(letters, max_size=8).map(reduce_word)
generator_images = st.lists(unit_quaternions, min_size=3, max_size=3).map(np.stack)


@settings(deadline=None)
@given(w=words, images=generator_images)
def test_fox_images_match_the_word_by_word_sums(w, images):
    for rep in REPRESENTATIONS.values():
        zero = np.zeros_like(rep(su2.IDENTITY))
        want = [sum((c * rep(evaluate_word(images, u)) for c, u in fox_terms(w, j)), zero)
                for j in range(3)]
        assert np.max(np.abs(fox(w, images, rep) - want)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(u=words, v=words, images=generator_images)
def test_fox_product_rule(u, v, images):
    """F(uv) = F(u) + rho(u) F(v), to roundoff, in both representations."""
    for rep in REPRESENTATIONS.values():
        lhs = fox(concat_words(u, v), images, rep)
        rhs = fox(u, images, rep) + rep(evaluate_word(images, u)) @ fox(v, images, rep)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("p", range(1, 21))
@settings(max_examples=20, deadline=None)
@given(x=unit_quaternions)
def test_fox_derivative_of_powers(p, x):
    """d(x^p)/dx = 1 + x + ... + x^(p-1)."""
    for rep in REPRESENTATIONS.values():
        expect = sum(rep(su2.qpow(x, k)) for k in range(p))
        assert np.max(np.abs(fox(gen(0, p), x[None], rep) - expect)) < 1e-12


@settings(deadline=None)
@given(x=unit_quaternions, p=st.integers(1, 5))
def test_fox_derivative_of_negative_powers(x, p):
    """d(x^-p)/dx = -(x^-1 + ... + x^-p)."""
    for rep in REPRESENTATIONS.values():
        expect = -sum(rep(su2.qpow(x, -k)) for k in range(1, p + 1))
        assert np.max(np.abs(fox(gen(0, -p), x[None], rep) - expect)) < 1e-12


@settings(deadline=None)
@given(w=words, images=generator_images)
def test_fundamental_identity(w, images):
    """rho(w) - 1 = sum_j F_j(w) (rho(x_j) - 1), in both representations."""
    for rep in REPRESENTATIONS.values():
        one = np.eye(len(rep(su2.IDENTITY)))
        rhs = np.sum(fox(w, images, rep) @ (rep(images) - one), axis=0)
        assert np.max(np.abs(rep(evaluate_word(images, w)) - one - rhs)) < 1e-12


@pytest.mark.parametrize("pqr", [(2, 3, 5), (2, 3, 11), (3, 4, 5), (2, 5, 7)])
def test_fd_jacobian_matches_the_ad_fox_matrix(pqr):
    """The Ad rho Fox matrix is the Jacobian of the relator map at rho: moving
    x_j to exp(eps u) rho(x_j) moves r_i(rho) to exp(eps J_ij u + O(eps^2))
    r_i(rho).  Central differences agree to 1e-8 on every class, on
    two-generator and Seifert presentations and both signs of rho(h)."""
    p = builtin_presentation("Brieskorn", *pqr)
    images = np.stack([r.images_array() for r in enumerate_reps(p).classes])
    jac = _fox_images(p.relators, su2.adjoint(images))
    back = [su2.qconj(evaluate_word(images, r)) for r in p.relators]
    eps = 1e-6
    for j, a in itertools.product(range(p.num_generators), range(3)):
        moves = []
        for sign in (1, -1):
            step = np.zeros(4)
            step[0], step[1 + a] = math.cos(eps), sign * math.sin(eps)
            moved = images.copy()
            moved[:, j] = su2.qmul(step, images[:, j])
            moves.append(np.stack([su2.qmul(evaluate_word(moved, r), b)[:, 1:]
                                   for r, b in zip(p.relators, back)], axis=1))
        fd = (moves[0] - moves[1]) / (2 * eps)
        assert np.max(np.abs(fd - jac[:, :, j, :, a])) < 1e-8


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
        reps = list(enumerate_reps(cw).classes)
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
    g = cw.num_generators
    images = tuple(Su2Element.from_array(su2.IDENTITY) for _ in range(g))
    rep = Su2Rep(images, np.zeros(max(1, g * (g + 1) // 2 + g)), False, 0.0)
    c = build_twisted_complex(cw, rep)
    assert rs_torsion(c).betti == tuple(2 * b for b in expected)


def lens_spaces(bound):
    return [(p, q) for p in range(2, bound + 1) for q in range(1, p) if math.gcd(p, q) == 1]


def test_closed_forms_match_the_laplacian_route(brieskorn_235_moduli):
    """Every class of S^3, of each L(p, q) with p <= 30 and of Sigma(2,3,5): the
    core formula, and 2 log|H_1| on the trivial class, against the Laplacians
    of the twisted complex, to 1e-12 relative on t."""
    cases = [(cw_structure("S3"), None), (cw_structure("Brieskorn", 2, 3, 5), brieskorn_235_moduli)]
    cases += [(cw_structure("Lens", p, q), None) for p, q in lens_spaces(30)]
    worst = 0.0
    for cw, moduli in cases:
        moduli = moduli or enumerate_reps(cw)
        result = torsion_sum(cw, moduli)
        assert len(result.per_class) == len(moduli.classes)
        for rep, (_tc, res, _irr) in zip(moduli.classes, result.per_class):
            want = rs_torsion(build_twisted_complex(cw, rep))
            assert res.acyclic == want.acyclic
            worst = max(worst, abs(res.t - want.t) / want.t)
    assert worst < 1e-12


@pytest.mark.parametrize("pqr", [(2, 3, 5), (2, 3, 7)])
def test_seifert_cores_agree_with_the_triangle_cores(pqr):
    """Both presentations of Sigma(2,3,5) and Sigma(2,3,7) give the same torsion
    on each irreducible class.  The values are distinct, so matching them in
    sorted order matches the classes."""
    torsions = []
    for p in (builtin_presentation("Brieskorn", *pqr), _brieskorn_seifert(*pqr)):
        per_class = torsion_sum(p, enumerate_reps(p)).per_class
        torsions.append(sorted(res.t for _tc, res, irr in per_class if irr))
    triangle, seifert = torsions
    assert len(triangle) == len(seifert) == 2 * abs(brieskorn_sigma(*pqr) // 8)
    assert len(set(np.round(triangle, 6))) == len(triangle)
    assert seifert == pytest.approx(triangle, rel=1e-12, abs=0)


def test_torsion_on_every_small_brieskorn_sphere():
    """On the 31 pairwise-coprime triples with pqr <= 200, the 206 irreducible
    classes that send the fibre to -1 get a positive torsion, and the 50 that
    send it to +1 are left out with a note, as is the trivial class wherever the
    presentation has no 3-cell."""
    computed = fixed = 0
    for pqr in SMALL_TRIPLES:
        p = builtin_presentation("Brieskorn", *pqr)
        moduli = enumerate_reps(p)
        result = torsion_sum(p, moduli)
        fibre = evaluate_word(np.stack([r.images_array() for r in moduli.classes]), p.shape.fibre)
        minus = [bool(f[0] < 0) for f in fibre]
        assert [tc for tc, _res, irr in result.per_class if irr] == [
            tuple(r.trace_coords) for r, m in zip(moduli.classes, minus) if m]
        assert all(0 < res.t < math.inf for _tc, res, irr in result.per_class if irr)
        notes = [n for n in result.notes if "fibre goes to +1" in n]
        assert len(notes) == sum(r.irreducible and not m for r, m in zip(moduli.classes, minus))
        assert (result.total is None) == (p.d3_words is None or bool(notes))
        assert (result.irreducible_subtotal is None) == bool(notes)
        computed += sum(irr for _tc, _res, irr in result.per_class)
        fixed += len(notes)
    assert (computed, fixed) == (206, 50)


def test_lens_torsion_takes_logarithmically_many_products(count_calls):
    """Each core word is evaluated once over all classes, so the su2.qmul calls
    of torsion_sum on L(p, q) per class grow no faster than log p."""
    calls = count_calls("qmul", su2)
    per_class = {}
    for p in (10, 100, 1000, 10000):
        pres = builtin_presentation("Lens", p, 3)
        moduli = enumerate_reps(pres)
        before = len(calls)
        torsion_sum(pres, moduli)
        per_class[p] = (len(calls) - before) / len(moduli.classes)
    for p, n in per_class.items():
        assert n <= per_class[10] * math.log(p) / math.log(10)


def test_lens2_nontrivial_character_fully_acyclic():
    cw = cw_structure("Lens", 2, 1)
    moduli = enumerate_reps(cw)
    nontriv = [r for r in moduli.classes if abs(r.trace_coords[0] + 2.0) < 1e-8]
    assert len(nontriv) == 1
    c = build_twisted_complex(cw, nontriv[0])
    assert rs_torsion(c).acyclic
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
    # closed form: 4 / prod_j (2 - tr rho(c_j)) over the cores s, t, st
    for got, want in zip(sorted(ts), [3 - math.sqrt(5), 3 + math.sqrt(5)]):
        assert abs(got - want) < 1e-13 * want


def test_metric_independence_on_acyclic_complex(brieskorn_235_moduli):
    cw = cw_structure("Brieskorn", 2, 3, 5)
    rep = next(r for r in brieskorn_235_moduli.classes if r.irreducible)
    c = build_twisted_complex(cw, rep)
    base = rs_torsion(c).log_t
    rng = np.random.default_rng(17)
    for _ in range(20):
        weights = []
        for n in dims(c):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            weights.append(a @ a.conj().T + n * np.eye(n))
        assert abs(rs_torsion(reweighted(c, weights)).log_t - base) < 1e-8


def test_torsion_matches_svd_oracle(brieskorn_235_moduli):
    lens = cw_structure("Lens", 5, 1)
    cases = [(lens, enumerate_reps(lens)),
             (cw_structure("Brieskorn", 2, 3, 5), brieskorn_235_moduli)]
    for cw, moduli in cases:
        for rep in moduli.classes:
            c = build_twisted_complex(cw, rep)
            assert abs(rs_torsion(c).log_t - sv_torsion_oracle(c)) < 1e-8


def test_torsion_sum_refuses_positive_betti():
    with pytest.raises(ModuliNotFiniteError):
        torsion_sum(builtin_presentation("Torus3"), RepModuli(()))


def test_torsion_sum_reports_finiteness_note():
    pres = builtin_presentation("Lens", 3, 1)
    result = torsion_sum(pres, enumerate_reps(pres))
    assert any("finiteness" in note for note in result.notes)
    assert result.total > 0


@pytest.mark.parametrize("params, order", [((7, 2), 7), ((5, 1), 5), ((101, 13), 101)])
def test_the_trivial_class_torsion_is_exactly_the_order_of_h1_squared(params, order):
    """t of the trivial class is |H_1|^2 computed in integers, not exp(2 log
    |H_1|), which reads 48.99999999999999 at L(7,2); its log_t stays 2 log
    |H_1|."""
    pres = builtin_presentation("Lens", *params)
    result = torsion_sum(pres, enumerate_reps(pres))
    (trivial,) = [res for _tc, res, _irr in result.per_class if not res.acyclic]
    assert trivial.t == float(order**2)
    assert trivial.log_t == 2.0 * math.log(order)
    if params == (7, 2):
        assert result.total == 50.0  # 7^2 + 1


def test_unsupported_family_errors():
    """cw_structure refuses a presentation without a 3-cell; torsion_sum needs
    none, and leaves out only the trivial class and the total there."""
    refusal = r"^no frozen CW structure for Brieskorn\(2,3,7\)$"
    with pytest.raises(ValueError, match=refusal):
        cw_structure("Brieskorn", 2, 3, 7)
    pres = builtin_presentation("Brieskorn", 2, 3, 7)
    result = torsion_sum(pres, enumerate_reps(pres))
    assert result.total is None and len(result.per_class) == 2
    assert result.irreducible_subtotal == sum(res.t for _tc, res, _irr in result.per_class)
    with pytest.raises(ParameterError):
        cw_structure("Nope")


@pytest.mark.parametrize("params", list(itertools.permutations((2, 3, 5))))
def test_the_3_cell_follows_the_relators(params):
    """The orderings of (2, 3, 5) whose presentation has Sigma(2,3,5)'s
    relators carry its 3-cell; the others have s^5 t^-3 and no 3-cell."""
    pres = builtin_presentation("Brieskorn", *params)
    same = pres.relators == builtin_presentation("Brieskorn", 2, 3, 5).relators
    assert same == (params in [(2, 3, 5), (3, 2, 5), (3, 5, 2)])
    assert pres.d3_words == (builtin_presentation("Brieskorn", 2, 3, 5).d3_words if same else None)


def _betti_by_svd_ranks(c):
    ranks = [0] + [np.linalg.matrix_rank(boundary(c, i), tol=1e-8) for i in (1, 2, 3)] + [0]
    return tuple(n - ranks[i] - ranks[i + 1] for i, n in enumerate(dims(c)))


def test_betti_numbers_match_svd_ranks(brieskorn_235_moduli):
    """Laplacian kernel dimensions against rank-nullity on the boundary maps."""
    cases = [(cw_structure("Brieskorn", 2, 3, 5), brieskorn_235_moduli.classes)]
    for p, q in [(2, 1), (5, 1), (7, 2), (12, 5)]:
        cw = cw_structure("Lens", p, q)
        cases.append((cw, enumerate_reps(cw).classes))
    for cw, classes in cases:
        for rep in classes:
            c = build_twisted_complex(cw, rep)
            assert rs_torsion(c).betti == _betti_by_svd_ranks(c)


def _group_closure(images):
    """Elements of the group generated by `images` (unit quaternions), shape (n, 4)."""
    step = np.concatenate([images, su2.qconj(images)])
    elems = su2.IDENTITY[None]
    while True:
        cand = np.concatenate([elems, su2.qmul(elems[:, None], step[None]).reshape(-1, 4)])
        keep = []
        for q in cand:
            if all(np.linalg.norm(q - k) > 1e-8 for k in keep):
                keep.append(q)
        if len(keep) == len(elems):
            return elems
        elems = np.stack(keep)


def test_brieskorn_3_cell_generates_the_kernel_of_d2(brieskorn_235_moduli):
    """Over Z[G], G = pi_1 of the Poincare sphere (order 120, the faithful image
    of an irreducible class), the 3-cell boundary (1 - t, s^-1 - t) lies in the
    kernel of d2 exactly, has zero augmentation, and its G-orbit spans that
    kernel, so the CW structure has the homology of the manifold."""
    cw = cw_structure("Brieskorn", 2, 3, 5)
    images = next(r for r in brieskorn_235_moduli.classes if r.irreducible).images_array()
    elems = _group_closure(images)
    n = len(elems)
    assert n == 120

    def index(q):
        k = int(np.argmax(elems @ q))
        assert np.linalg.norm(elems[k] - q) < 1e-8
        return k

    mul = np.array([[index(su2.qmul(a, b)) for b in elems] for a in elems])

    def vector(terms):  # (coefficient, word) pairs -> integer vector over G
        v = np.zeros(n, dtype=np.int64)
        for c, w in terms:
            v[index(evaluate_word(images, w))] += c
        return v

    def right_mult(a):  # matrix of v -> v a in Z[G]
        m = np.zeros((n, n), dtype=np.int64)
        for e in np.nonzero(a)[0]:
            m[mul[:, e], np.arange(n)] += a[e]
        return m

    relators = cw.relators
    d2 = np.block([[right_mult(vector(fox_terms(r, j))) for r in relators] for j in range(2)])
    s = np.concatenate([vector(cell) for cell in cw.d3_words])
    assert not (d2 @ s).any()
    assert s[:n].sum() == 0 and s[n:].sum() == 0
    inv = np.array([index(su2.qconj(g)) for g in elems])
    # (g . s)(w) = s(g^-1 w)
    orbit = np.array([np.concatenate([s[:n][mul[inv[g]]], s[n:][mul[inv[g]]]]) for g in range(n)])
    kernel_dim = 2 * n - np.linalg.matrix_rank(d2.astype(float))
    assert np.linalg.matrix_rank(orbit.astype(float)) == kernel_dim == 119


def test_a_fox_matrix_that_is_zero_up_to_roundoff_has_rank_0(brieskorn_235_moduli):
    """The rank rule's floor: a zero Fox matrix and one with roundoff-size
    entries have rank 0, though the second one's singular values are all
    above RANK_TOLERANCE times its largest.  The Ad rho Fox matrices of the
    Poincare sphere keep the rank of the relative rule, and H^1 = 0."""
    pres = builtin_presentation("Brieskorn", 2, 3, 5)
    r, g = len(pres.relators), pres.num_generators
    noise = 1e-15 * np.random.default_rng(0).standard_normal((1, r, g, 3, 3))
    fox = np.concatenate([np.zeros((1, r, g, 3, 3)), noise])
    assert _fox_ranks(fox, pres.relators).tolist() == [0, 0]
    sv = np.linalg.svd(noise.transpose(0, 1, 3, 2, 4).reshape(3 * r, 3 * g), compute_uv=False)
    assert np.all(sv > RANK_TOLERANCE * sv[0])
    images = su2.adjoint(np.stack([c.images_array() for c in brieskorn_235_moduli.classes]))
    fox = _fox_images(pres.relators, images)
    sv = np.linalg.svd(fox.transpose(0, 1, 3, 2, 4).reshape(len(fox), 3 * r, 3 * g),
                       compute_uv=False)
    relative = np.sum(sv > RANK_TOLERANCE * sv[:, :1], axis=1).tolist()
    assert _fox_ranks(fox, pres.relators).tolist() == relative
    assert adjoint_h1_dims(pres, brieskorn_235_moduli) == [0, 0]
