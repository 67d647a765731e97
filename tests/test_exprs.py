import json
import math
import operator
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from taut3 import exprs
from taut3.exprs import MAX_DEPTH, ExprError, compile_expr, parse_expr


def ev(text, x=0.0, y=0.0, z=0.0):
    return float(compile_expr(text)(np.asarray(x), np.asarray(y), np.asarray(z)))


def test_arithmetic_and_precedence():
    assert ev("1 + 2 * 3") == 7.0
    assert ev("(1 + 2) * 3") == 9.0
    assert ev("2 ^ 3 ^ 2") == 512.0  # right-associative
    assert ev("2 ** 3") == 8.0
    assert ev("7 / 2") == 3.5
    assert ev("-3 + 1") == -2.0
    assert ev("--4") == 4.0


def test_variables_and_constants():
    assert ev("x + 2*y - z", 1.0, 2.0, 3.0) == 2.0
    assert ev("pi") == pytest.approx(math.pi)


def test_functions():
    assert ev("sin(pi/2)") == pytest.approx(1.0)
    assert ev("cos(0)") == 1.0
    assert ev("exp(1)") == pytest.approx(math.e)
    assert ev("exp(sin(2*pi*x))", 0.25) == pytest.approx(math.e)
    assert ev("exp(-x^2)", 2.0) == pytest.approx(math.exp(-4.0))


def test_vectorized_evaluation():
    f = compile_expr("sin(2*pi*x)*cos(2*pi*y)")
    x = np.linspace(0, 1, 8)
    out = f(x, np.zeros(8), np.zeros(8))
    assert out.shape == (8,)
    assert np.allclose(out, np.sin(2 * np.pi * x))


def test_broadcast_of_constants():
    f = compile_expr("3")
    x = np.zeros((4, 4))
    assert f(x, x, x).shape == (4, 4)


@pytest.mark.parametrize("text, zero", [("0", True), ("0.0", True), ("1-1", True), ("-0", True),
                                        ("0 # x", True), ("0*x", False), ("x-x", False),
                                        ("sin(pi)", False), ("1e-300", False)])
def test_a_constant_zero_is_known_without_evaluating(text, zero):
    """An expression is zero when it folds to the constant 0; "0*x" and "x-x"
    keep their variable, and sin(pi) folds to 1.2e-16."""
    f = compile_expr(text)
    assert f.is_zero is zero
    if zero:
        assert np.array_equal(f(np.ones(3), 0.0, 0.0), np.zeros(3))


@pytest.mark.parametrize(
    "bad",
    ["", "1 +", "sin", "sin(", "foo(1)", "x y", "1 & 2", "(1", "w",
     "(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x", "+".join(["x"] * (MAX_DEPTH + 2)),
     "9^9^9", "1/0", "exp(1000)", "(-8)^(1/3)", "1" + "0" * 400, "1)+(2", "1, 2", "True",
     "1j", "x.real", "sin(x, y)", "sin(x=1)", "\x00", "__import__('os')"],
    ids=lambda bad: bad if len(bad) <= 20 else f"{bad[:6]}...{len(bad)}-chars",
)
def test_malformed_expressions(bad):
    with pytest.raises(ExprError):
        parse_expr(bad)


def test_python_precedence_numbers_whitespace_and_comments():
    assert ev("-2^2") == -4.0  # -(2^2), as in Python
    assert ev("2^-1") == 0.5
    assert ev("1e-3 + 2_000") == 2000.001
    assert ev(" x\n\t+\r\n y\u00a0", 1.0, 2.0) == 3.0
    assert ev("x  # first term\n + y  # second", 1.0, 2.0) == 3.0


def test_error_message_quotes_at_most_40_characters():
    with pytest.raises(ExprError) as info:
        parse_expr("x" * 1000 + "!")
    assert "x" * 41 not in str(info.value)


# A random expression tree, rendered fully parenthesised, with its value computed
# directly in numpy.  Constant subtrees are evaluated when the tree is built, with
# floating-point errors raised: there the parser must raise ExprError instead.
# They are folded as the parser folds them, with Python's operators on
# np.float64 (whose power can differ from np.power in the last bit); subtrees
# that read a coordinate use the ufuncs.
_X, _Y, _Z = np.meshgrid(*[np.linspace(0.0, 1.0, 3)] * 3, indexing="ij")
_COORDS = {"x": _X, "y": _Y, "z": _Z}
_BINARY = {"+": (np.add, operator.add), "-": (np.subtract, operator.sub),
           "*": (np.multiply, operator.mul), "/": (np.divide, operator.truediv),
           "^": (np.power, operator.pow)}
_UNARY = {"-": (np.negative, operator.neg), "sin": (np.sin, np.sin), "cos": (np.cos, np.cos),
          "exp": (np.exp, np.exp)}


def _node(text, fns, *children):
    """(text, value) where value is an array, a float for constants, or None
    for a constant subtree that raises a floating-point error.  `fns` is the
    (ufunc, constant fold) pair of the node's operation."""
    ufunc, fold = fns
    values = [v for _t, v in children]
    if any(v is None for v in values):
        return text, None
    if all(isinstance(v, float) for v in values):
        try:
            with np.errstate(all="raise", under="ignore"):
                return text, float(fold(*map(np.float64, values)))
        except FloatingPointError:
            return text, None
    with np.errstate(all="ignore"):
        return text, ufunc(*values)


_leaves = st.one_of(
    st.sampled_from("xyz").map(lambda v: (v, _COORDS[v])),
    st.just(("pi", math.pi)),
    st.floats(0.0, 1e3).map(lambda f: (repr(f), f)),
    st.integers(0, 1000).map(lambda i: (str(i), float(i))),
)


def _extend(children):
    binary = st.tuples(st.sampled_from(sorted(_BINARY)), children, children).map(
        lambda t: _node(f"({t[1][0]} {t[0]} {t[2][0]})", _BINARY[t[0]], t[1], t[2]))
    unary = st.tuples(st.sampled_from(sorted(_UNARY)), children).map(
        lambda t: _node(f"({t[0]}({t[1][0]}))", _UNARY[t[0]], t[1]))
    return binary | unary


_SIN_PI = _node("(sin(pi))", _UNARY["sin"], ("pi", math.pi))


@given(st.recursive(_leaves, _extend, max_leaves=12))
@example(("-(x ^ 2)", -(_X**2)))
@example(_node("(x - ((sin(pi)) ^ (sin(pi))))", _BINARY["-"], ("x", _X),
               _node("((sin(pi)) ^ (sin(pi)))", _BINARY["^"], _SIN_PI, _SIN_PI)))
def test_compile_expr_matches_numpy_on_random_trees(tree):
    text, expected = tree
    if expected is None:
        with pytest.raises(ExprError):
            compile_expr(text)
        return
    with np.errstate(all="ignore"):
        got = compile_expr(text)(_X, _Y, _Z)
    np.testing.assert_allclose(got, np.broadcast_to(expected, _X.shape), rtol=1e-12,
                               equal_nan=True)


@given(st.text() | st.text(alphabet="xyzpisncoexp()+-*/^.,0123456789e_ \n#", max_size=40))
@example("sin(")
def test_any_text_parses_or_raises_expr_error(text):
    try:
        parse_expr(text)
    except ExprError:
        pass


# --- in-place evaluation ---------------------------------------------------------

_BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "manifests"
_N = 6
_GRID = np.meshgrid(*[np.arange(_N) / _N] * 3, indexing="ij", sparse=True)
# chunks of grid rows as the GV pass samples them: slabs, one row, the wrap rows
_CHUNKS = [slice(0, 4), slice(4, 6), slice(2, 3), np.array([4, 5]), np.array([5, 0])]


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def assert_into_matches_call(f):
    """f(x[rows], y, z, out=out) writes f(x[rows], y, z) into `out` bit for bit,
    nan payloads and signed zeros included, chunk after chunk, and leaves a
    buffer of any other shape unwritten."""
    x, y, z = _GRID
    for rows in _CHUNKS:
        with np.errstate(all="ignore"):
            want = np.broadcast_to(f(x[rows], y, z), (len(x[rows]), _N, _N))
            out = np.full(want.shape, 7.0)
            assert f(x[rows], y, z, out=out) is out
        assert np.array_equal(bits(out), bits(want))
        for shape in ((len(x[rows]) + 1, _N, _N), (_N, _N), want.shape[:2] + (1,)):
            wrong = np.full(shape, 7.0)
            with pytest.raises(ValueError, match="shape"):
                f(x[rows], y, z, out=wrong)
            assert np.all(wrong == 7.0)


@pytest.mark.parametrize("text", [
    "3", "-0", "1 - 1", "pi", "x", "1 + x^2", "exp(0.3*sin(2*pi*x))", "y", "cos(2*pi*y)*z",
    "2 + sin(2*pi*y)", "x*y*z", "x*y*z + sin(x*y*z)", "(x + y + z)*(x*y*z)",
    "(x*y - z)*(y*z - x)/(z*x + 1)", "-(x*y*z)^2", "2^(x*y*z)",
    # ndarray's ** may take np.sqrt or np.reciprocal, which differ from
    # np.power at -0 and -inf: full-size bases, -0 and -inf among them
    "(x*y - 0.5)^0.5", "(-(x*y))^0.5", "(x*y + 1)^-1", "(x*y*z - 0.5)^0.5", "(-(x*y*z))^0.5",
    "(x*y*z + 1)^-1", "(-exp(1000*x*y*z))^0.5", "(-exp(1000*x*y*z))^-1", "1 + (-(x*y*z))^0.5",
] + [t for m in sorted(_BENCH.glob("*.json")) for e in json.loads(m.read_text()).get("foliations", [])
     for t in e["omega"]])
def test_into_matches_call(text):
    """Constant, x-only, broadcast-only, full-size, powers and the bench
    expressions."""
    assert_into_matches_call(compile_expr(text))


@given(st.recursive(_leaves, _extend, max_leaves=12))
@example(("(x * y) * (z + (x * y))", None))
def test_into_matches_call_on_random_trees(tree):
    text, expected = tree
    try:
        f = compile_expr(text)
    except ExprError:
        return  # a constant subtree that raises: no tree to evaluate
    assert_into_matches_call(f)


def test_every_operation_but_the_power_has_its_ufunc():
    """Each operation of the language but the power is computed into a buffer
    by its ufunc, which gives its bits; one missing from `_UFUNCS` would make
    a new array wherever it stands in a tree."""
    operations = {*exprs._BINARY.values(), *exprs._FUNCTIONS.values(), operator.neg}
    assert set(exprs._UFUNCS) == operations - {operator.pow}
    values = np.array([-np.inf, -2.5, -0.0, 0.0, 1e-300, 0.75, 3.0, 1e300, np.inf, np.nan])
    a, b = np.meshgrid(values, values, sparse=True)
    with np.errstate(all="ignore"):
        for op, ufunc in exprs._UFUNCS.items():
            args = (a,) if op in exprs._FUNCTIONS.values() or op is operator.neg else (a, b)
            want = ufunc(*args)
            assert np.array_equal(bits(np.broadcast_to(op(*args), want.shape)), bits(want))


def test_sampling_a_chunk_in_place_keeps_its_temporaries_small():
    """The bench's exp-g expression into an 8-row chunk at grid 128 (1 MiB):
    each node whose operand was written into the chunk is computed there too,
    so its temporaries peak under half the chunk (a plain call and a copy
    take twice the chunk; a node missing from the chain, about one chunk)."""
    text = json.loads((_BENCH / "lens_7_2.json").read_text())["foliations"][0]["omega"][2]
    f, n = compile_expr(text), 128
    x, y, z = np.meshgrid(*[np.arange(n) / n] * 3, indexing="ij", sparse=True)
    out = np.empty((8, n, n))
    f(x[:8], y, z, out=out)
    tracemalloc.start()
    try:
        f(x[:8], y, z, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes / 2
