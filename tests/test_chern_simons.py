import numpy as np
import pytest

from taut3 import chern_simons
from taut3.chern_simons import (
    ConnectionError_,
    LatticeConnection,
    action_gradient,
    cs_action,
    curvature,
    stationarity_check,
)
from taut3.su2 import qmul, qtrace, to_matrix

# i * Pauli matrices: the real basis of su(2) that the coefficients refer to
SU2_BASIS = np.array(
    [
        [[0.0 + 0.0j, 0.0 + 1.0j], [0.0 + 1.0j, 0.0 + 0.0j]],
        [[0.0 + 0.0j, 1.0 + 0.0j], [-1.0 + 0.0j, 0.0 + 0.0j]],
        [[0.0 + 1.0j, 0.0 + 0.0j], [0.0 + 0.0j, 0.0 - 1.0j]],
    ]
)

_PAIRS = ((0, 1), (0, 2), (1, 2))


def _gradient_scan(conn: LatticeConnection, level: float, step: float, richardson: bool):
    """Per-coefficient derivative scan; one action evaluation per perturbation."""
    coeffs = conn.coefficients()
    grad = np.empty_like(coeffs)
    ts = (step, -step, 2 * step, -2 * step) if richardson else (step, -step)
    for idx in np.ndindex(*coeffs.shape):
        vals = {}
        for t in ts:
            c2 = coeffs.copy()
            c2[idx] += t
            vals[t] = cs_action(LatticeConnection.from_coefficients(c2), level)
        d1 = (vals[step] - vals[-step]) / (2 * step)
        if richardson:
            d2 = (vals[2 * step] - vals[-2 * step]) / (4 * step)
            grad[idx] = (4 * d1 - d2) / 3
        else:
            grad[idx] = d1
    return grad


def richardson_gradient(conn: LatticeConnection, level: float = 1.0, step: float = 0.25):
    """Oracle gradient: per-coefficient Richardson-extrapolated central
    differences, exact for the cubic action up to roundoff.  Slow."""
    return _gradient_scan(conn, level, step, richardson=True)


def finite_difference_gradient(conn: LatticeConnection, level: float = 1.0, step: float = 1e-4):
    """Plain central-difference gradient of the action, step per coefficient."""
    return _gradient_scan(conn, level, step, richardson=False)


def naive_action(conn: LatticeConnection, level: float = 1.0) -> float:
    """Reference implementation with explicit Python loops over sites.

    Independent of the vectorized path: builds complex 2x2 matrices from the
    coefficients, indexes the grid site by site and writes out the cup
    products from their face definitions.
    """
    a = np.einsum("dxyzk,kab->dxyzab", conn.coefficients(), SU2_BASIS)
    n = conn.grid_size
    h = conn.spacing

    def at(d, x, y, z):
        return a[d, x % n, y % n, z % n]

    def da(c, x, y, z):
        i, j = _PAIRS[c]
        e = [0, 0, 0]
        ei = e.copy(); ei[i] = 1
        ej = e.copy(); ej[j] = 1
        return (
            at(j, x + ei[0], y + ei[1], z + ei[2]) - at(j, x, y, z)
            - at(i, x + ej[0], y + ej[1], z + ej[2]) + at(i, x, y, z)
        ) / h

    def aa(c, x, y, z):
        i, j = _PAIRS[c]
        ei = [0, 0, 0]; ei[i] = 1
        ej = [0, 0, 0]; ej[j] = 1
        return at(i, x, y, z) @ at(j, x + ei[0], y + ei[1], z + ei[2]) - at(j, x, y, z) @ at(
            i, x + ej[0], y + ej[1], z + ej[2]
        )

    def cup12(u, b2, x, y, z):
        # partitions {0}+(1,2) sign +, {1}+(0,2) sign -, {2}+(0,1) sign +
        return (
            u(0, x, y, z) @ b2(2, x + 1, y, z)
            - u(1, x, y, z) @ b2(1, x, y + 1, z)
            + u(2, x, y, z) @ b2(0, x, y, z + 1)
        )

    total = 0.0 + 0.0j
    for x in range(n):
        for y in range(n):
            for z in range(n):
                dens = cup12(at, da, x, y, z) + (2.0 / 3.0) * cup12(at, aa, x, y, z)
                total += np.trace(dens)
    return float(((level / 4.0) * total * h**3).real)


@pytest.fixture
def conn():
    return LatticeConnection.random(4, scale=0.2, seed=3)


def test_action_matches_naive_loop_oracle(conn):
    fast = cs_action(conn)
    slow = naive_action(conn)
    assert abs(fast - slow) < 1e-12 * max(1.0, abs(slow))


def test_connection_validation():
    bad = np.zeros((3, 4, 4, 4, 4))
    bad[0, 0, 0, 0, 0] = 1.0  # real part: the identity direction, not in su(2)
    with pytest.raises(ConnectionError_):
        LatticeConnection(bad)
    with pytest.raises(ConnectionError_):
        LatticeConnection(np.zeros((3, 4, 4, 4)))
    with pytest.raises(ConnectionError_):
        LatticeConnection(np.zeros((3, 4, 4, 5, 4)))
    with pytest.raises(ConnectionError_):
        cs_action(LatticeConnection.zero(2))  # grid too small


def test_coefficients_roundtrip(conn):
    back = LatticeConnection.from_coefficients(conn.coefficients())
    assert np.array_equal(back.components, conn.components)
    # the stored quaternions are the matrices sum_k coeff_k E_k
    mats = np.einsum("dxyzk,kab->dxyzab", conn.coefficients(), SU2_BASIS)
    assert np.max(np.abs(to_matrix(conn.components) - mats)) < 1e-15


def test_action_is_an_exact_cubic_polynomial():
    """S(tA) = t^2 S2 + t^3 S3; two evaluations determine the rest exactly."""
    conn = LatticeConnection.random(4, scale=0.3, seed=8)
    a = conn.components

    def s(t):
        return cs_action(LatticeConnection(t * a))

    s1, s2 = s(1.0), s(2.0)
    # solve t^2 alpha + t^3 beta through t = 1, 2
    beta = (s2 - 4 * s1) / 4.0
    alpha = s1 - beta
    for t in (0.5, 3.0, -1.0):
        predicted = alpha * t**2 + beta * t**3
        assert abs(s(t) - predicted) < 1e-10 * max(1.0, abs(predicted))


def test_gradient_exact_vs_richardson(conn):
    g = action_gradient(conn)
    r = richardson_gradient(conn)
    denom = max(np.linalg.norm(r), 1e-30)
    assert np.linalg.norm(g - r) / denom < 1e-10


def test_gradient_vs_plain_finite_differences(conn):
    g = action_gradient(conn)
    fd = finite_difference_gradient(conn, step=1e-4)
    assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-5


def test_flat_connections_are_stationary():
    n = 4
    zero = LatticeConnection.zero(n)
    assert np.linalg.norm(action_gradient(zero)) == 0.0
    # constant field in a single su(2) direction: commuting, flat
    coeffs = np.zeros((3, n, n, n, 3))
    coeffs[2, ..., 2] = 0.37
    const = LatticeConnection.from_coefficients(coeffs)
    assert np.linalg.norm(curvature(const)) < 1e-12
    scale = max(np.max(np.abs(const.components)), 1e-30)
    assert np.linalg.norm(action_gradient(const)) < 1e-6 * scale


def test_fd_convergence_order():
    """Central differences of the directional derivative converge at second
    order (the cubic term along a generic direction supplies the h^2 error;
    along single coordinates the cubic vanishes and the error is roundoff)."""
    conn = LatticeConnection.random(4, scale=0.2, seed=9)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(conn.coefficients().shape)
    v /= np.linalg.norm(v)
    c0 = conn.coefficients()
    exact = float(np.sum(action_gradient(conn) * v))

    def s(t):
        return cs_action(LatticeConnection.from_coefficients(c0 + t * v))

    errs = []
    for step in (2e-1, 1e-1):
        fd = (s(step) - s(-step)) / (2 * step)
        errs.append(abs(fd - exact))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_stationarity_report(conn):
    rep = stationarity_check(conn, step=1e-4)
    assert rep.agreement < 1e-5
    assert rep.grad_norm > 0 and rep.curvature_norm > 0
    with pytest.raises(ValueError):
        stationarity_check(conn, step=1e-2)  # outside the allowed step range


def test_action_gauge_scale():
    conn = LatticeConnection.random(4, scale=0.15, seed=1)
    assert abs(cs_action(conn, level=2.0) - 2.0 * cs_action(conn, level=1.0)) < 1e-12


def test_stationarity_check_catches_a_wrong_gradient(conn, monkeypatch):
    assert stationarity_check(conn, step=1e-4).agreement < 1e-5
    exact = chern_simons.action_gradient

    def off_by_one_coefficient(c, level=1.0):
        g = exact(c, level)
        g[1, 2, 0, 3, 2] += 1e-3 * np.linalg.norm(g)
        return g

    monkeypatch.setattr(chern_simons, "action_gradient", off_by_one_coefficient)
    assert stationarity_check(conn, step=1e-4).agreement > 1e-5


# --- the batched stationarity check against a loop of single actions -------------

def loop_stationarity_check(conn, step=1e-4, level=1.0):
    """stationarity_check as first written: one cs_action call per perturbed
    field, directions drawn in the same order."""
    g = chern_simons.action_gradient(conn, level)
    c0 = conn.coefficients()

    def action_at(c):
        return cs_action(LatticeConnection.from_coefficients(c), level)

    rng = np.random.default_rng(0)
    fd, exact = [], []
    for _ in range(chern_simons.FD_DIRECTIONS):
        v = rng.standard_normal(c0.shape)
        v /= np.linalg.norm(v)
        fd.append((action_at(c0 + step * v) - action_at(c0 - step * v)) / (2 * step))
        exact.append(np.sum(g * v))
    agreement = np.linalg.norm(np.subtract(fd, exact)) / max(np.linalg.norm(exact), 1e-14)
    return chern_simons.StationarityReport(
        grad_norm=float(np.linalg.norm(g)),
        curvature_norm=float(np.sqrt(2.0) * np.linalg.norm(curvature(conn))),
        agreement=float(agreement),
    )


CASES = [(0, 0.1, 1.0), (1, 2.0, -3.5), (7, 1e-3, 1e6), (7, 0.5, -1e6)]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
def test_batched_actions_equal_single_actions(n):
    for seed, scale, level in CASES:
        fields = np.stack([LatticeConnection.random(n, scale, seed + k).components for k in range(3)])
        batch = chern_simons._actions(fields, 1.0 / n, level)
        assert batch.shape == (3,)
        for got, comp in zip(batch, fields):
            assert got == cs_action(LatticeConnection(comp), level)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
def test_batched_check_equals_the_loop_of_single_actions(n):
    for seed, scale, level in CASES:
        conn = LatticeConnection.random(n, scale, seed)
        assert stationarity_check(conn, level=level) == loop_stationarity_check(conn, level=level)


@pytest.mark.parametrize("per_call", [1, 3, 5, 15])
def test_chunked_batches_equal_the_loop(monkeypatch, count_calls, per_call):
    n = 5
    field_bytes = 3 * n**3 * 4 * 8
    monkeypatch.setattr(chern_simons, "_BATCH_BYTES", per_call * field_bytes + field_bytes // 2)
    assert chern_simons._batch_fields(n) == per_call
    conn = LatticeConnection.random(n, 0.3, 2)
    want = loop_stationarity_check(conn, level=-2.0)
    calls = count_calls("_actions", chern_simons)
    assert stationarity_check(conn, level=-2.0) == want
    total = 2 * chern_simons.FD_DIRECTIONS
    sizes = [len(args[0]) for args in calls]
    assert sizes == [per_call] * (total // per_call) + ([total % per_call] if total % per_call else [])


def test_batch_sizes_at_the_grid_bounds():
    assert chern_simons._batch_fields(8) >= 2 * chern_simons.FD_DIRECTIONS  # one call
    assert chern_simons._batch_fields(64) == 1  # a 25 MB field per call


def test_batched_check_rejects_small_grids():
    with pytest.raises(ConnectionError_):
        stationarity_check(LatticeConnection.random(3))


# --- the action reads only the real part of the cup_12 products --------------------

def cup_12(a, b):
    """Cup product of a 1-cochain with a 2-cochain into a 3-cochain, all four
    quaternion slots."""
    comp, fwd = chern_simons._comp, chern_simons._fwd
    return (qmul(comp(a, 0), fwd(comp(b, 2), 0))
            - qmul(comp(a, 1), fwd(comp(b, 1), 1))
            + qmul(comp(a, 2), fwd(comp(b, 0), 2)))


def quaternion_actions(a, h, level):
    """The action as first written: the trace of full-quaternion cup products."""
    d_one, cup_11 = chern_simons.d_one, chern_simons.cup_11
    dens = cup_12(a, d_one(a, h)) + (2.0 / 3.0) * cup_12(a, cup_11(a, a))
    return (level / 4.0) * np.sum(qtrace(dens), axis=(-3, -2, -1)) * h**3


@pytest.mark.parametrize("n", [4, 6, 16])
def test_actions_equal_the_full_quaternion_route(n):
    for seed, scale, level in CASES:
        fields = np.stack([LatticeConnection.random(n, scale, seed + k).components for k in range(3)])
        for a in (fields, fields[0]):  # batched and unbatched
            assert np.array_equal(chern_simons._actions(a, 1.0 / n, level),
                                  quaternion_actions(a, 1.0 / n, level))
