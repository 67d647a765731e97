import numpy as np
import pytest

from cs_oracles import (
    coefficients,
    comp,
    cs_action,
    curvature,
    embed,
    loop_stationarity_check,
    roll_actions,
    roll_cup_11,
    roll_cup_12_real,
    roll_curvature,
    roll_d_one,
    roll_fwd,
    roll_gradient,
)
from su2_oracles import to_matrix
from taut3 import chern_simons
from taut3.chern_simons import (
    ConnectionError_,
    LatticeConnection,
    action_gradient,
    stationarity_check,
)
from taut3.su2 import qmul, qtrace

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
    coeffs = conn.components
    grad = np.empty_like(coeffs)
    ts = (step, -step, 2 * step, -2 * step) if richardson else (step, -step)
    for idx in np.ndindex(*coeffs.shape):
        vals = {}
        for t in ts:
            c2 = coeffs.copy()
            c2[idx] += t
            vals[t] = cs_action(LatticeConnection(c2), level)
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
    a = np.einsum("dxyzk,kab->dxyzab", conn.components, SU2_BASIS)
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
    with pytest.raises(ConnectionError_):
        LatticeConnection(np.zeros((3, 4, 4, 4, 4)))  # quaternions, not su(2) coefficients
    with pytest.raises(ConnectionError_):
        LatticeConnection(np.zeros((3, 4, 4, 4)))
    with pytest.raises(ConnectionError_):
        LatticeConnection(np.zeros((3, 4, 4, 5, 3)))
    with pytest.raises(ConnectionError_):
        cs_action(LatticeConnection.zero(2))  # grid too small


def test_coefficients_roundtrip(conn):
    """The oracles' quaternions of the stored coefficients are the matrices
    sum_k coeff_k E_k, and give the coefficients back."""
    quaternions = embed(conn.components)
    assert np.array_equal(coefficients(quaternions), conn.components)
    mats = np.einsum("dxyzk,kab->dxyzab", conn.components, SU2_BASIS)
    assert np.max(np.abs(to_matrix(quaternions) - mats)) < 1e-15


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
    const = LatticeConnection(coeffs)
    assert np.linalg.norm(curvature(const)) < 1e-12
    scale = max(np.max(np.abs(const.components)), 1e-30)
    assert np.linalg.norm(action_gradient(const)) < 1e-6 * scale


def test_fd_convergence_order():
    """Central differences of the directional derivative converge at second
    order (the cubic term along a generic direction supplies the h^2 error;
    along single coordinates the cubic vanishes and the error is roundoff)."""
    conn = LatticeConnection.random(4, scale=0.2, seed=9)
    rng = np.random.default_rng(4)
    c0 = conn.components
    v = rng.standard_normal(c0.shape)
    v /= np.linalg.norm(v)
    exact = float(np.sum(action_gradient(conn) * v))

    def s(t):
        return cs_action(LatticeConnection(c0 + t * v))

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
    exact = chern_simons._w_slot_gradient  # returns the gradient that the check compares

    def off_by_one_coefficient(*args):
        g = exact(*args)
        g[1, 2, 0, 3, 2] += 1e-3 * np.linalg.norm(g)
        return g

    monkeypatch.setattr(chern_simons, "_w_slot_gradient", off_by_one_coefficient)
    assert stationarity_check(conn, step=1e-4).agreement > 1e-5


# --- the batched stationarity check against a loop of single actions -------------

CASES = [(0, 0.1, 1.0), (1, 2.0, -3.5), (7, 1e-3, 1e6), (7, 0.5, -1e6)]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
def test_batched_actions_equal_single_actions(n):
    for seed, scale, level in CASES:
        fields = np.stack([LatticeConnection.random(n, scale, seed + k).components for k in range(3)])
        batch = chern_simons._actions(fields, 1.0 / n, level)
        assert batch.shape == (3,)
        for got, field in zip(batch, fields):
            assert got == cs_action(LatticeConnection(field), level)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
def test_batched_check_equals_the_loop_of_single_actions(n):
    for seed, scale, level in CASES:
        conn = LatticeConnection.random(n, scale, seed)
        assert stationarity_check(conn, level=level) == loop_stationarity_check(conn, level=level)


@pytest.mark.parametrize("per_call", [1, 3, 5, 15])
def test_chunked_batches_equal_the_loop(monkeypatch, count_calls, per_call):
    conn = LatticeConnection.random(5, 0.3, 2)
    field_bytes = conn.components.nbytes
    monkeypatch.setattr(chern_simons, "_BATCH_BYTES", per_call * field_bytes + field_bytes // 2)
    assert chern_simons._batch_fields(conn.components) == per_call
    want = loop_stationarity_check(conn, level=-2.0)
    calls = count_calls("_actions", chern_simons)
    assert stationarity_check(conn, level=-2.0) == want
    total = 2 * chern_simons.FD_DIRECTIONS
    sizes = [len(args[0]) for args in calls]
    assert sizes == [per_call] * (total // per_call) + ([total % per_call] if total % per_call else [])


def test_batch_sizes_at_the_grid_bounds():
    def fields_per_call(n):
        return chern_simons._batch_fields(LatticeConnection.zero(n).components)

    assert fields_per_call(8) >= 2 * chern_simons.FD_DIRECTIONS  # one call
    assert fields_per_call(64) == 1  # a 19 MB field per call


def test_batched_check_rejects_small_grids():
    with pytest.raises(ConnectionError_):
        stationarity_check(LatticeConnection.random(3))


# --- the action reads only the real part of the cup_12 products --------------------

def cup_12(a, b):
    """Cup product of a 1-cochain with a 2-cochain into a 3-cochain, all four
    quaternion slots."""
    return (qmul(comp(a, 0), roll_fwd(comp(b, 2), 0))
            - qmul(comp(a, 1), roll_fwd(comp(b, 1), 1))
            + qmul(comp(a, 2), roll_fwd(comp(b, 0), 2)))


def quaternion_actions(c, h, level):
    """The action as first written, on the quaternions of the coefficients c:
    the trace of full-quaternion cup products."""
    a = embed(c)
    dens = cup_12(a, roll_d_one(a, h)) + (2.0 / 3.0) * cup_12(a, roll_cup_11(a, a))
    return (level / 4.0) * np.sum(qtrace(dens), axis=(-3, -2, -1)) * h**3


@pytest.mark.parametrize("n", [4, 6, 16])
def test_actions_equal_the_full_quaternion_route(n):
    for seed, scale, level in CASES:
        fields = np.stack([LatticeConnection.random(n, scale, seed + k).components for k in range(3)])
        for a in (fields, fields[0]):  # batched and unbatched
            assert np.array_equal(chern_simons._actions(a, 1.0 / n, level),
                                  quaternion_actions(a, 1.0 / n, level))


# --- the per-axis kernels against the per-plaquette np.roll forms -------------------

@pytest.mark.parametrize("n", [4, 5, 6, 16])
def test_kernels_equal_the_roll_oracles_bit_for_bit(n):
    """Shifts by slice copies and one product per axis keep every product and
    sum of the quaternion forms with its operands and in its order, the
    quaternions' zero slot and its zero terms aside: d, both parts of cup_11,
    cup_12_real, the action, the gradient and the curvature equal the roll
    forms exactly (up to the signs of zeros, which array_equal ignores),
    batched and unbatched."""
    h = 1.0 / n
    for seed, scale, level in CASES:
        fields = np.stack([LatticeConnection.random(n, scale, seed + k).components for k in range(2)])
        for a, b in ((fields, fields[::-1]), (fields[0], fields[1])):  # batched and unbatched
            qa, qb = embed(a), embed(b)
            da, aa = chern_simons.d_one(a, h), chern_simons.cup_11(a, a)
            qda, qaa, qab = roll_d_one(qa, h), roll_cup_11(qa, qa), roll_cup_11(qa, qb)
            assert np.array_equal(embed(da), qda)  # dA of su(2) coefficients has no real part
            assert np.array_equal(aa, coefficients(qaa))
            assert np.array_equal(chern_simons.cup_11_real(a, a), qaa[..., 0])
            assert np.array_equal(chern_simons.cup_11(a, b), coefficients(qab))
            assert np.array_equal(chern_simons.cup_11_real(a, b), qab[..., 0])
            assert np.array_equal(chern_simons.cup_12_real(a, da), roll_cup_12_real(qa, qda))
            # A's zero slot meets the real part of A cup A, which aa leaves out
            assert np.array_equal(chern_simons.cup_12_real(a, aa), roll_cup_12_real(qa, qaa))
            assert np.array_equal(chern_simons._actions(a, h, level), roll_actions(qa, h, level))
            g = chern_simons._w_slot_gradient(chern_simons._u_slot_gradient(da, aa), a, h, level)
            assert np.array_equal(g, roll_gradient(qa, h, level))
        conn = LatticeConnection(fields[0])
        q = embed(fields[0])
        assert np.array_equal(action_gradient(conn, level), roll_gradient(q, h, level))
        assert np.array_equal(curvature(conn), roll_curvature(q, h))
        assert stationarity_check(conn, level=level) == loop_stationarity_check(conn, level=level)


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
def test_chunked_cup_products_equal_the_roll_form(monkeypatch, count_calls, rows):
    """Past `_CHUNK_BYTES` of shifted operand, cup_11 takes each axis's product
    a few grid rows at a time, the last chunk short where the rows do not
    divide the grid; the products and sums are those of one call."""
    n = 5
    fields = np.stack([LatticeConnection.random(n, 0.7, k).components for k in range(2)])
    for a, b in ((fields, fields[::-1]), (fields[0], fields[1])):  # batched and unbatched
        row_bytes = a.nbytes * 2 // 3 // n  # one grid row of two directions
        monkeypatch.setattr(chern_simons, "_CHUNK_BYTES", rows * row_bytes + row_bytes // 2)
        calls = count_calls("_vector_part", chern_simons)
        assert np.array_equal(chern_simons.cup_11(a, b), coefficients(roll_cup_11(embed(a), embed(b))))
        assert len(calls) == 3 * -(-n // rows)


def test_stationarity_check_holds_at_most_six_fields(traced_peak):
    """At grid 32 each perturbed action is a call of its own.  The check's
    peak of new memory is then g, v and the batch (3 fields) plus one cup_11
    (out and one shifted pair, which each axis refills; its products take a
    few grid rows at a time): 5.12 fields, 11.5 MiB.  While each axis
    allocated its own pair, two were alive at once and the peak was 5.52
    fields (12.4 MiB); when each vector also stored a zero quaternion slot, it
    was 5.78 of those larger fields (17.3 MiB); one qmul per product held
    5.68, one per axis over the whole grid 6.34, and one for all six products
    of a gradient 14.  The bound keeps a later batching from doubling the
    footprint at large grids unnoticed."""
    conn = LatticeConnection.random(32, 0.1, 1)
    _, peak = traced_peak(stationarity_check, conn)
    assert peak <= 6 * conn.components.nbytes
