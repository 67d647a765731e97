"""Tiny expression language for manifest-supplied form components.

Python arithmetic over numbers, `pi`, the coordinates `x`, `y`, `z` and
one-argument `sin`, `cos` and `exp`, with `+ - * /`, unary `-` and the power
`^` (or `**`), parsed by `ast` with Python's precedence (`-a^b` is -(a^b)) and
number syntax (`1e-3`).  Whitespace and newlines may stand between tokens; `#`
starts a comment.  Each node is checked against this whitelist and only the
checked tree is evaluated: manifest text never reaches `eval`, `exec` or
`compile`.  Every failure is an ExprError: bad syntax, nesting deeper than
MAX_DEPTH levels (a sum of n terms nests n), or a constant subexpression that
overflows, divides by zero or leaves the reals.  One walker, `evaluate`, runs
a tree over numpy arrays, in place into a given buffer where it can.
"""

from __future__ import annotations

import ast
import math
import operator
import re

import numpy as np

MAX_DEPTH = 200

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_NAMES = {"pi": math.pi, "x": "x", "y": "y", "z": "z"}  # coordinates stay names


class ExprError(ValueError):
    """Malformed expression text."""


def _apply(fn, *args):
    """The node fn(*args), folded to a float when every argument is one."""
    if not all(isinstance(a, float) for a in args):
        return (fn, *args)
    with np.errstate(all="raise", under="ignore"):
        return float(fn(*map(np.float64, args)))


def _check(node, depth):
    """The checked tree of an ast node: a float, a variable name or (fn, *args)."""
    if depth > MAX_DEPTH:
        raise ExprError(f"nested deeper than {MAX_DEPTH} levels")
    kind, sub = type(node), depth + 1
    if kind is ast.Constant and type(node.value) in (int, float):
        return float(node.value)
    if kind is ast.Name and node.id in _NAMES:
        return _NAMES[node.id]
    if kind is ast.UnaryOp and type(node.op) is ast.USub:
        return _apply(operator.neg, _check(node.operand, sub))
    if kind is ast.BinOp and type(node.op) in _BINARY:
        return _apply(_BINARY[type(node.op)], _check(node.left, sub), _check(node.right, sub))
    if (kind is ast.Call and type(node.func) is ast.Name and node.func.id in _FUNCTIONS
            and len(node.args) == 1 and not node.keywords):
        return _apply(_FUNCTIONS[node.func.id], _check(node.args[0], sub))
    what = getattr(node, "id", None) or type(getattr(node, "op", node)).__name__
    raise ExprError(f"not in the language: {what[:40]!r}")


def parse_expr(text: str):
    """Parse to a checked tree; raises ExprError on malformed input."""
    # inside parentheses newlines and leading blanks are plain whitespace
    source = "(\n" + re.sub(r"[^\S\n]", " ", text).replace("^", "**") + "\n)"
    try:
        body = ast.parse(source, mode="eval").body
        if body.lineno == 1:  # the text closed the wrapping parenthesis
            raise ExprError("unbalanced parentheses or no expression")
        return _check(body, 0)
    except (SyntaxError, ValueError, ArithmeticError, RecursionError, MemoryError) as exc:
        detail = exc.msg if isinstance(exc, SyntaxError) else str(exc) or type(exc).__name__
        quoted = repr(text if len(text) <= 40 else text[:37] + "...")
        raise ExprError(f"bad expression {quoted}: {detail}") from None


# the ufunc of each operation that `evaluate` may compute into a buffer: not the
# power, which ndarray's `**` may compute by another route (np.sqrt, np.square,
# np.reciprocal) than np.power's loop
_UFUNCS = {operator.add: np.add, operator.sub: np.subtract, operator.mul: np.multiply,
           operator.truediv: np.divide, operator.neg: np.negative,
           np.sin: np.sin, np.cos: np.cos, np.exp: np.exp}


def evaluate(node, x, y, z, out=None):
    """The value of a checked tree at x, y and z, by its operations in order.
    Given a buffer `out`, a node offers it to its operands in order until one
    returns it, and is computed into it by the same ufunc if it is not a power
    and its operands broadcast to out's shape: every bit stays."""
    if not isinstance(node, tuple):
        return {"x": x, "y": y, "z": z}[node] if isinstance(node, str) else node
    fn, *args = node
    vals, offer = [], out
    for a in args:
        vals.append(evaluate(a, x, y, z, offer))
        if vals[-1] is out:
            offer = None
    ufunc = _UFUNCS.get(fn)
    if out is not None and ufunc is not None and np.broadcast(*vals).shape == out.shape:
        return ufunc(*vals, out=out)
    return fn(*vals)


class CompiledExpr:
    """A checked tree as f(x, y, z, out=None) over numpy arrays.  The result
    has the broadcast shape of x, y and z and may be a read-only view; given
    `out`, it is written there (see `evaluate`).  A plain class: a dataclass
    would cost every import about a millisecond."""

    __slots__ = ("tree",)

    def __init__(self, tree):
        self.tree = tree

    def __call__(self, x, y, z, out=None):
        """f(x, y, z), or, given `out` of the broadcast shape of x, y and z
        (ValueError before anything is written otherwise), f(x, y, z) written
        into `out` bit for bit, and `out` returned."""
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z))
        if out is None:
            return np.broadcast_to(np.asarray(evaluate(self.tree, x, y, z), dtype=float), shape)
        if out.shape != shape:
            raise ValueError(f"buffer of shape {out.shape} for a result of shape {shape}")
        value = evaluate(self.tree, x, y, z, out)
        if value is not out:
            np.copyto(out, value)
        return out

    @property
    def is_zero(self) -> bool:
        """Whether the expression folds to the constant 0, as "0", "0.0",
        "1-1" and "-0" do: then it is 0 at every point.  "0*x" does not fold,
        and "sin(pi)" folds to 1.2e-16."""
        return self.tree == 0.0


def compile_expr(text: str) -> CompiledExpr:
    """Parse once, return the expression as f(x, y, z)."""
    return CompiledExpr(parse_expr(text))
