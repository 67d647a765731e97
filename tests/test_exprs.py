import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
_X, _Y, _Z = np.meshgrid(*[np.linspace(0.0, 1.0, 3)] * 3, indexing="ij")
_COORDS = {"x": _X, "y": _Y, "z": _Z}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
_UNARY = {"-": np.negative, "sin": np.sin, "cos": np.cos, "exp": np.exp}


def _node(text, fn, *children):
    """(text, value) where value is an array, a float for constants, or None
    for a constant subtree that raises a floating-point error."""
    values = [v for _t, v in children]
    if any(v is None for v in values):
        return text, None
    if all(isinstance(v, float) for v in values):
        try:
            with np.errstate(all="raise", under="ignore"):
                return text, float(fn(*map(np.float64, values)))
        except FloatingPointError:
            return text, None
    with np.errstate(all="ignore"):
        return text, fn(*values)


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


@given(st.recursive(_leaves, _extend, max_leaves=12))
@example(("-(x ^ 2)", -(_X**2)))
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
