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


# the ufunc of each operation of a tree that `into` may write into a buffer:
# not the power, which ndarray's `**` may compute by another route (np.sqrt,
# np.square, np.reciprocal) than np.power's loop
_UFUNCS = {operator.add: np.add, operator.sub: np.subtract, operator.mul: np.multiply,
           operator.truediv: np.divide, operator.neg: np.negative,
           np.sin: np.sin, np.cos: np.cos, np.exp: np.exp}
_BITS = {"x": 1, "y": 2, "z": 4}


def _annotate(node):
    """A tree as `_fill` walks it: a node is (ufunc or None, mask, args, node),
    mask the bits (`_BITS`) of the coordinates it reads; leaves stay as they
    are."""
    if not isinstance(node, tuple):
        return node
    fn, *args = node
    args = tuple(map(_annotate, args))
    mask = 0
    for a in args:
        mask |= a[1] if isinstance(a, tuple) else _BITS.get(a, 0) if isinstance(a, str) else 0
    return _UFUNCS.get(fn), mask, args, node


def _fill(node, coords, full, out):
    """The value of an annotated node with a ufunc whose result has the shape
    of `out` (full[mask]), computed at the coordinates `coords` by the
    operations of `evaluate` in its order and written into `out`.  Its first
    operand of that kind is written there first; the others are computed by
    `evaluate`."""
    ufunc, _mask, args, _node = node
    vals, chained = [], False
    for a in args:
        if not chained and isinstance(a, tuple) and a[0] is not None and full[a[1]]:
            vals.append(_fill(a, coords, full, out))
            chained = True
        else:
            vals.append(evaluate(a[3] if isinstance(a, tuple) else a, *coords))
    return ufunc(*vals, out)


class CompiledExpr:
    """A checked tree as f(x, y, z) over numpy arrays; the result has the
    broadcast shape of x, y and z and may be a read-only view.  `into`
    writes that result into a given buffer.  A plain class: a dataclass would
    cost every import about a millisecond."""

    __slots__ = ("tree", "_annotated")

    def __init__(self, tree):
        self.tree, self._annotated = tree, None

    def __call__(self, x, y, z):
        return np.broadcast_to(
            np.asarray(evaluate(self.tree, x, y, z), dtype=float),
            np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z)),
        )

    def into(self, out, x, y, z):
        """f(x, y, z) written into `out`, which must have the broadcast shape of
        x, y and z (ValueError before anything is written otherwise), bit for
        bit as `__call__` computes it: the same ufuncs in the same order.  If
        the root operation has that shape and is not a power, it writes into
        `out`, and so, from there down, does the first such operand of each
        that does; the rest make new arrays, as `__call__` does.  Any other
        result is broadcast into `out`.  Returns `out`."""
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z))
        if out.shape != shape:
            raise ValueError(f"buffer of shape {out.shape} for a result of shape {shape}")
        if self._annotated is None:
            self._annotated = _annotate(self.tree)
        root, coords = self._annotated, (x, y, z)
        full = [np.broadcast_shapes(*(np.shape(c) for b, c in enumerate(coords) if m >> b & 1))
                == shape for m in range(8)]
        if isinstance(root, tuple) and root[0] is not None and full[root[1]]:
            _fill(root, coords, full, out)
        else:
            np.copyto(out, self(x, y, z))
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
