"""Manifest loading and validation.

A manifest is a JSON document declaring everything a run needs: the manifold,
foliation data (symbolic 1-form components plus transversal loops), leafwise
and cyclic model parameters.  Validation is strict — unknown keys are
rejected — so a typo fails loudly before any computation starts.  Every
size (grids, truncations, degree bounds, the number of foliations) has a
maximum, so no manifest can ask for more than about a gigabyte of memory in
one stage; `gv` at its largest grid, 192, peaks near a fifth of that.  The
`solver` block of earlier versions is still validated, but ignored: the flat
moduli are computed exactly.  So is `leafwise.n_z`: the leafwise model does
not depend on the transverse coordinate.

`SCHEMA` is a JSON Schema, checked by a small walker over the dict itself
rather than by a JSON Schema library: numpy is the only runtime dependency,
and the tests hold the walker to jsonschema's verdicts.  The walker knows the
13 keywords in `_KEYWORDS` with JSON Schema's semantics (a boolean is not a
number, 2.0 is an integer, `const: 1` rejects `true`), and raises on any other,
so the schema cannot come to rely on one that is silently skipped.  Of the
errors a manifest has, the one nearest the root is reported, the first in
the schema's order among equals.  JSON has no NaN or Infinity and no number
beyond the float range, so `load_manifest` rejects `NaN`, `Infinity`,
`-Infinity` and overflowing literals such as `1e400`, which Python's `json`
would otherwise accept, and the walker rejects a non-finite float that a Python
caller puts in the dict; there it departs from jsonschema, which accepts them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1

# `gv` holds one foliation at a time, so foliations cost time, not memory: on
# 2 cores a `taut3 gv` process took 1.5-1.7 s and peaked at 216 MB RSS on one
# grid-192 foliation with three nonconstant components, and 18 s and 216 MB
# on 16 of them.
MAX_FOLIATIONS = 16

_EXPR = {"type": "string", "minLength": 1}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "manifold"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "manifold": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {"enum": ["S3", "Lens", "Brieskorn", "Torus3"]},
                "params": {"type": "array", "items": {"type": "integer"}, "maxItems": 3},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tolerance": {"type": "number", "exclusiveMinimum": 0},
                "dedup_tolerance": {"type": "number", "exclusiveMinimum": 0},
                "grid_density": {"type": "integer", "minimum": 2},
                "random_seeds": {"type": "integer", "minimum": 0},
                "max_iterations": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "chern_simons": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "grid": {"type": "integer", "minimum": 4, "maximum": 64},
                # far past these bounds the action overflows, or roundoff
                # swamps its finite differences
                "scale": {"type": "number", "minimum": 0, "maximum": 10},
                "level": {"type": "number", "minimum": -1e6, "maximum": 1e6},
                "step": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "foliations": {
            "type": "array",
            "maxItems": MAX_FOLIATIONS,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["omega"],
                "properties": {
                    "label": {"type": "string"},
                    "omega": {"type": "array", "items": _EXPR, "minItems": 3, "maxItems": 3},
                    "grid": {"type": "integer", "minimum": 8, "maximum": 192},
                    "transversal": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 0},
                            "minItems": 3,
                            "maxItems": 3,
                        },
                    },
                },
            },
        },
        "leafwise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "truncation": {"type": "integer", "minimum": 1, "maximum": 512},
                "n_z": {"type": "integer", "minimum": 1, "maximum": 1024},
                # at truncation 512 every eigenvalue of the weighted
                # Laplacians stays above the zero cut of zeta_log_det
                "weights": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0.1, "maximum": 10},
                    "minItems": 3,
                    "maxItems": 3,
                },
            },
        },
        "cyclic": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "degree_bound": {"type": "integer", "minimum": 1, "maximum": 512},
                "windings": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": -512, "maximum": 512},
                    "maxItems": 1025,
                },
            },
        },
        "output": {"type": "string"},
    },
}

_KEYWORDS = frozenset({
    "type", "const", "enum", "required", "properties", "additionalProperties", "items",
    "minItems", "maxItems", "minLength", "minimum", "maximum", "exclusiveMinimum",
})

_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float), "integer": int}


class ManifestError(ValueError):
    """Manifest failed schema validation or could not be parsed."""


@dataclass(frozen=True)
class Manifest:
    family: str
    params: tuple
    chern_simons: dict = field(default_factory=dict)
    foliations: tuple = ()
    leafwise: dict = field(default_factory=dict)
    cyclic: dict = field(default_factory=dict)
    output: str | None = None
    raw: dict = field(default_factory=dict)


def _is_type(value, name: str) -> bool:
    """JSON Schema's type test: a boolean is no number, and 2.0 is an integer."""
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _TYPES[name]) and not isinstance(value, bool)


def _equal(value, expected) -> bool:
    """JSON Schema equality of scalars: `true` is not 1, but 1.0 is."""
    return isinstance(value, bool) == isinstance(expected, bool) and value == expected


def _errors(schema: dict, value, path: tuple, found: list) -> None:
    """Append (path, message) for each keyword of `schema` that `value` fails,
    a node's own keywords before those of its children."""
    if not _KEYWORDS.issuperset(schema) or schema.get("additionalProperties", False) is not False:
        raise NotImplementedError(f"SCHEMA uses a keyword the walker does not implement: {schema}")
    if "type" in schema and not _is_type(value, schema["type"]):
        found.append((path, f"{value!r} is not of type {schema['type']!r}"))
    if "const" in schema and not _equal(value, schema["const"]):
        found.append((path, f"{schema['const']!r} was expected"))
    if "enum" in schema and not any(_equal(value, e) for e in schema["enum"]):
        found.append((path, f"{value!r} is not one of {schema['enum']!r}"))
    if isinstance(value, dict):
        found += [(path, f"{key!r} is a required property")
                  for key in schema.get("required", ()) if key not in value]
        properties = schema.get("properties", {})
        extra = sorted((key for key in value if key not in properties), key=str)
        if "additionalProperties" in schema and extra:
            listed = ", ".join(map(repr, extra))
            verb = "was" if len(extra) == 1 else "were"
            found.append((path, f"Additional properties are not allowed ({listed} {verb} unexpected)"))
        for key, sub in properties.items():
            if key in value:
                _errors(sub, value[key], path + (key,), found)
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            found.append((path, f"{value!r} is too short"))
        if len(value) > schema.get("maxItems", math.inf):
            found.append((path, f"{value!r} is too long"))
        if "items" in schema:
            for i, item in enumerate(value):
                _errors(schema["items"], item, path + (i,), found)
    elif isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            found.append((path, f"{value!r} is too short"))
    elif _is_type(value, "number"):
        if isinstance(value, float) and not math.isfinite(value):
            found.append((path, f"{value!r} is not a finite number"))
        if "minimum" in schema and value < schema["minimum"]:
            found.append((path, f"{value!r} is less than the minimum of {schema['minimum']!r}"))
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            found.append((path, f"{value!r} is less than or equal to the minimum of "
                                f"{schema['exclusiveMinimum']!r}"))
        if "maximum" in schema and value > schema["maximum"]:
            found.append((path, f"{value!r} is greater than the maximum of {schema['maximum']!r}"))


def validate_manifest(data: dict) -> Manifest:
    found = []
    _errors(SCHEMA, data, (), found)
    if found:
        # like jsonschema's best_match, the error nearest the root
        depth = min(len(path) for path, _ in found)
        path, message = next(error for error in found if len(error[0]) == depth)
        raise ManifestError(f"manifest invalid at {'/'.join(map(str, path)) or '<root>'}: {message}")
    man = data["manifold"]
    return Manifest(
        family=man["family"],
        # JSON Schema counts 2.0 as an integer
        params=tuple(int(x) for x in man.get("params", ())),
        chern_simons=dict(data.get("chern_simons", {})),
        foliations=tuple(data.get("foliations", ())),
        leafwise=dict(data.get("leafwise", {})),
        cyclic=dict(data.get("cyclic", {})),
        output=data.get("output"),
        raw=data,
    )


def _finite(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ManifestError(f"manifest is not valid JSON: {literal} is not a finite number")
    return value


def load_manifest(path) -> Manifest:
    p = Path(path)
    try:
        data = json.loads(p.read_text(), parse_float=_finite, parse_constant=_finite)
    except FileNotFoundError as exc:
        raise ManifestError(f"manifest not found: {p}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ManifestError("manifest root must be a JSON object")
    return validate_manifest(data)
