"""Tiny expression language for manifest-supplied form components.

Python arithmetic over numbers, `pi`, the coordinates `x`, `y`, `z` and
one-argument `sin`, `cos` and `exp`, with `+ - * /`, unary `-` and the power
`^` (or `**`), parsed by `ast` with Python's precedence (`-a^b` is -(a^b)) and
number syntax (`1e-3`).  Whitespace and newlines may stand between tokens; `#`
starts a comment.  Each node is checked against this whitelist and only the
checked tree is evaluated: manifest text never reaches `eval`, `exec` or
`compile`.  Every failure is an ExprError: bad syntax, nesting deeper than
MAX_DEPTH levels (a sum of n terms nests n), or a constant subexpression that
overflows, divides by zero or leaves the reals.
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


def evaluate(node, x, y, z):
    if isinstance(node, tuple):
        fn, *args = node
        return fn(*(evaluate(a, x, y, z) for a in args))
    return {"x": x, "y": y, "z": z}[node] if isinstance(node, str) else node


def compile_expr(text: str):
    """Parse once, return f(x, y, z) evaluating over numpy arrays; the result
    has the broadcast shape of x, y and z and may be a read-only view."""
    tree = parse_expr(text)
    return lambda x, y, z: np.broadcast_to(
        np.asarray(evaluate(tree, x, y, z), dtype=float),
        np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z)),
    )
