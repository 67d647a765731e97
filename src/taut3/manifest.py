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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

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


# built once: jsonschema.validate would re-check SCHEMA against its metaschema
# on every load (tests check it once)
_VALIDATOR = validator_for(SCHEMA)(SCHEMA)


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


def validate_manifest(data: dict) -> Manifest:
    exc = best_match(_VALIDATOR.iter_errors(data))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ManifestError(f"manifest invalid at {path}: {exc.message}") from exc
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


def load_manifest(path) -> Manifest:
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except FileNotFoundError as exc:
        raise ManifestError(f"manifest not found: {p}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ManifestError("manifest root must be a JSON object")
    return validate_manifest(data)
