import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from su2_oracles import from_axis_angle, qexp, qlog, qnormalize, random_unit
from taut3 import su2
from taut3.presentations import SIZE_BOUND

_coord = st.floats(-1e6, 1e6, allow_subnormal=False)
# arbitrary finite quaternions; with pure=True the real part is dropped (su(2) elements)
_quaternion = st.builds(
    lambda q, pure: np.array([0.0 if pure else q[0], *q[1:]]),
    st.tuples(_coord, _coord, _coord, _coord),
    st.booleans(),
)
_unit = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 4)
    .filter(lambda v: np.hypot.reduce(v) > 0.1)
    .map(lambda v: qnormalize(np.array(v)))
)
# up to the largest exponent in a built-in presentation: x^p in Lens(p, q)
_exponent = st.integers(-SIZE_BOUND, SIZE_BOUND)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_qmul_matches_matrix_product(rng):
    p = random_unit(rng, (50,))
    q = random_unit(rng, (50,))
    lhs = su2.to_matrix(su2.qmul(p, q))
    rhs = su2.to_matrix(p) @ su2.to_matrix(q)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@given(_quaternion, _quaternion)
@example(np.array([0.0, 0.3, -2.0, 5.0]), np.array([0.0, -7.0, 0.25, 1.5]))
def test_qmul_is_the_matrix_product_on_any_quaternions(p, q):
    """qmul is bilinear: it matches the 2x2 product off the unit sphere too,
    which lattice Chern-Simons relies on for pure quaternions of any norm."""
    lhs = su2.to_matrix(su2.qmul(p, q))
    rhs = su2.to_matrix(p) @ su2.to_matrix(q)
    # hypot.reduce: np.linalg.norm squares its entries and underflows to 0 below ~1e-154
    bound = 1e-14 * np.hypot.reduce(p) * np.hypot.reduce(q) + 1e-300
    assert np.max(np.abs(lhs - rhs)) <= bound


@given(_unit, _unit, _unit)
def test_qmul_is_associative(p, q, r):
    lhs = su2.qmul(su2.qmul(p, q), r)
    rhs = su2.qmul(p, su2.qmul(q, r))
    assert np.max(np.abs(lhs - rhs)) <= 1e-15 * 4


@given(_unit)
def test_conjugate_is_the_inverse_on_unit_quaternions(q):
    assert np.max(np.abs(su2.qmul(q, su2.qconj(q)) - su2.IDENTITY)) <= 1e-15 * 4
    assert np.max(np.abs(su2.qmul(su2.qconj(q), q) - su2.IDENTITY)) <= 1e-15 * 4


@given(_quaternion, _quaternion)
def test_norm_is_multiplicative(p, q):
    norm = np.hypot.reduce
    assert abs(norm(su2.qmul(p, q)) - norm(p) * norm(q)) <= 1e-15 * 4 * norm(p) * norm(q) + 1e-300


@given(_unit, _exponent, _exponent)
def test_qpow_adds_exponents(q, m, n):
    """Repeated squaring loses about one rounding per unit of exponent, so the
    tolerance grows with |m| + |n|."""
    lhs = su2.qpow(q, m + n)
    rhs = su2.qmul(su2.qpow(q, m), su2.qpow(q, n))
    assert np.max(np.abs(lhs - rhs)) <= 1e-15 * (4 + abs(m) + abs(n))


def test_conjugate_is_inverse(rng):
    q = random_unit(rng, (20,))
    prod = su2.qmul(q, su2.qconj(q))
    assert np.max(np.abs(prod - su2.IDENTITY)) < 1e-12


def test_qpow_binary_vs_repeated(rng):
    q = random_unit(rng, (10,))
    acc = np.broadcast_to(su2.IDENTITY, q.shape).copy()
    for n in range(1, 8):
        acc = su2.qmul(acc, q)
        assert np.max(np.abs(su2.qpow(q, n) - acc)) < 1e-10
    assert np.max(np.abs(su2.qmul(su2.qpow(q, -3), su2.qpow(q, 3)) - su2.IDENTITY)) < 1e-10


def test_exp_log_roundtrip(rng):
    q = random_unit(rng, (30,))
    back = qexp(qlog(q))
    assert np.max(np.abs(back - q)) < 1e-10


def test_trace_and_det(rng):
    q = random_unit(rng, (30,))
    m = su2.to_matrix(q)
    assert np.max(np.abs(su2.qtrace(q) - np.trace(m, axis1=-2, axis2=-1).real)) < 1e-12
    det = np.linalg.det(m)
    assert np.max(np.abs(det - 1.0)) < 1e-12


def test_from_axis_angle():
    # the angle argument is the quaternion half-angle: trace = 2 cos(angle)
    q = from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 4)
    assert abs(su2.qtrace(q) - 2 * np.cos(np.pi / 4)) < 1e-12
    assert np.allclose(su2.qpow(q, 8), su2.IDENTITY, atol=1e-12)  # order 8
    assert abs(su2.dist_to_identity(su2.IDENTITY)) < 1e-12


@pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-6, 1.0, 3.0])
def test_dist_to_identity_is_accurate_next_to_the_identity(t):
    """|U - I| = 2 sin(t/2) for U = exp(t e1), to relative rounding: the solver's
    convergence test (tolerance 1e-10) must resolve distances that small."""
    d = su2.dist_to_identity(qexp(np.array([t, 0.0, 0.0])))
    assert abs(d - 2 * np.sin(t / 2)) <= 1e-12 * 2 * np.sin(t / 2)
