import copy
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from taut3 import manifest
from taut3.cli import main as cli_main
from taut3.manifest import MAX_FOLIATIONS, SCHEMA, ManifestError, load_manifest, validate_manifest
from taut3.reports import manifest_digest


def minimal(**extra):
    data = {"schema_version": 1, "manifold": {"family": "Lens", "params": [5, 1]}}
    data.update(extra)
    return data


def test_valid_manifest_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(minimal(leafwise={"truncation": 3})))
    m = load_manifest(path)
    assert m.family == "Lens" and m.params == (5, 1)
    assert m.leafwise["truncation"] == 3


def test_unknown_keys_rejected():
    with pytest.raises(ManifestError):
        validate_manifest(minimal(bogus=1))
    with pytest.raises(ManifestError):
        validate_manifest({"schema_version": 1, "manifold": {"family": "Lens", "extra": 2}})


def test_schema_violations():
    with pytest.raises(ManifestError):
        validate_manifest({"schema_version": 2, "manifold": {"family": "Lens"}})
    with pytest.raises(ManifestError):
        validate_manifest(minimal(solver={"tolerance": -1.0}))
    with pytest.raises(ManifestError):
        validate_manifest(minimal(foliations=[{"label": "x"}]))  # omega missing


def test_missing_or_malformed_file(tmp_path):
    with pytest.raises(ManifestError):
        load_manifest(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ManifestError):
        load_manifest(bad)


def test_content_key_is_order_insensitive():
    """A report's manifest digest keys the manifest's content, not its layout."""
    assert manifest_digest({"a": 1, "b": 2}) == manifest_digest({"b": 2, "a": 1})
    assert manifest_digest({"a": 1}) != manifest_digest({"a": 2})


# the manifest_digest of every report on a shipped bench manifest; it must not
# change when the code that computes it does
SHIPPED_DIGESTS = {
    "brieskorn_2_3_11": "c614adad2435008c69e3e11a07c13ad7d15cc64c15aa771e9afe2472fd06e7b5",
    "brieskorn_3_4_5": "c7092b92af1b0ff227ba9fd2f95c27e11d5d2b029df479f7223ec540b91e2d8e",
    "lens_7_2": "b0cb83d055c08198277165fac4c31a23bd8f64fd5bee25da3ed803bdc3b5607d",
    "poincare": "874eb64f37106a08ce184508a2e9259c290812bccb3bc4122d48917db2bc76c0",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
def test_manifest_digest_is_pinned(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "manifests" / f"{name}.json"
    assert manifest_digest(load_manifest(path).raw) == SHIPPED_DIGESTS[name]


def test_schema_is_valid_against_its_metaschema():
    validator_for(SCHEMA).check_schema(SCHEMA)


def test_validation_errors_are_the_best_match():
    with pytest.raises(ManifestError, match="manifest invalid at manifold/params/0: 'a' is not of"):
        validate_manifest(minimal(manifold={"family": "Lens", "params": ["a", 1]}))


# every size with its maximum; at the maximum a stage peaks near 1 GB (see CHANGES.md)
SIZE_BOUNDS = [
    (("chern_simons", "grid"), 64),
    (("foliations", 0, "grid"), 192),
    (("leafwise", "truncation"), 512),
    (("leafwise", "n_z"), 1024),
    (("cyclic", "degree_bound"), 512),
]


def with_size(keys, value):
    data = minimal(chern_simons={}, foliations=[{"omega": ["0", "0", "1"]}], leafwise={},
                   cyclic={})
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return data


@pytest.mark.parametrize("keys, bound", SIZE_BOUNDS,
                         ids=["/".join(map(str, keys)) for keys, _ in SIZE_BOUNDS])
def test_sizes_are_bounded_from_above(tmp_path, capsys, keys, bound):
    validate_manifest(with_size(keys, bound))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(with_size(keys, bound + 1)))
    # refused by validation, before any array is allocated
    assert cli_main(["all", "--manifest", str(path), "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: manifest invalid at") and "Traceback" not in err
    assert f"{bound + 1} is greater than the maximum of {bound}" in err


def test_foliations_are_bounded(tmp_path, capsys):
    """`gv` holds one foliation at a time, so their number bounds its time."""
    foliation = {"omega": ["0", "0", "1"], "grid": 8}
    validate_manifest(minimal(foliations=[foliation] * MAX_FOLIATIONS))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(minimal(foliations=[foliation] * (MAX_FOLIATIONS + 1))))
    assert cli_main(["gv", "--manifest", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: manifest invalid at foliations: ") and "Traceback" not in err
    assert "is too long" in err


def test_shipped_manifests_validate():
    root = Path(__file__).resolve().parents[1]
    for path in sorted((root / "perfbench" / "manifests").glob("*.json")):
        load_manifest(path)
    readme = (root / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    validate_manifest(json.loads(block.replace(', "..."', "")))  # the elided transversal


@pytest.mark.parametrize(
    "block, message",
    [({"windings": list(range(-512, 514))}, "is too long"),
     ({"windings": [0, 513]}, "513 is greater than the maximum of 512"),
     ({"windings": [-513]}, "-513 is less than the minimum of -512"),
     ({"degree_bound": 8, "windings": [2**70]}, "is greater than the maximum of 512")],
)
def test_windings_are_bounded(block, message):
    """At most one winding per mode of the largest degree bound, each within it:
    the ignored `cyclic` block keeps the bounds it had."""
    validate_manifest(minimal(cyclic={"windings": list(range(-512, 513))}))
    with pytest.raises(ManifestError, match=message):
        validate_manifest(minimal(cyclic=block))


@pytest.mark.parametrize("block", [{"scale": 10.5}, {"level": -1.5e6}, {"level": 1e300}])
def test_chern_simons_fields_are_bounded(block):
    """Far past these bounds the action overflows to inf or nan."""
    validate_manifest(minimal(chern_simons={"scale": 10, "level": -1e6}))
    with pytest.raises(ManifestError, match="than the (minimum|maximum) of"):
        validate_manifest(minimal(chern_simons=block))


# --- the in-house walker against jsonschema -----------------------------------------

def schema_nodes(schema, path=()):
    """(path, subschema) for every node of the schema, with index 0 for list items."""
    yield path, schema
    for key, sub in schema.get("properties", {}).items():
        yield from schema_nodes(sub, path + (key,))
    if "items" in schema:
        yield from schema_nodes(schema["items"], path + (0,))


def test_the_walker_implements_exactly_the_keywords_of_the_schema():
    assert set().union(*(node for _, node in schema_nodes(SCHEMA))) == manifest._KEYWORDS
    for schema in ({"type": "string", "pattern": "a"}, {"additionalProperties": True},
                   {"additionalProperties": {"type": "string"}}, {"type": "boolean"}):
        with pytest.raises((NotImplementedError, KeyError)):
            manifest._errors(schema, "a", (), [])


ROOT = Path(__file__).resolve().parents[1]

# every key of the schema set, each to a valid value
FULL = {
    "schema_version": 1,
    "manifold": {"family": "Lens", "params": [7, 2]},
    "solver": {"tolerance": 1e-10, "dedup_tolerance": 1e-6, "grid_density": 4,
               "random_seeds": 3, "max_iterations": 50, "seed": 0},
    "chern_simons": {"grid": 4, "scale": 0.1, "level": 1.0, "step": 1e-4, "seed": 0},
    "foliations": [{"label": "f", "omega": ["0", "0", "1"], "grid": 8,
                    "transversal": [[0, 0, 0], [0, 0, 1], [0, 0, 2]]}],
    "leafwise": {"truncation": 3, "n_z": 2, "weights": [1.0, 2.0, 0.5]},
    "cyclic": {"degree_bound": 4, "windings": [1, -1]},
    "output": "report.json",
}
BASES = {path.stem: json.loads(path.read_text())
         for path in sorted((ROOT / "perfbench" / "manifests").glob("*.json"))} | {"full": FULL}
ORACLE = validator_for(SCHEMA)(SCHEMA)
NAMES = sorted({path[-1] for path, _ in schema_nodes(SCHEMA) if path and isinstance(path[-1], str)})
NAMES.append("bogus")
# the bounds of the schema, on and either side, and the values JSON Schema types tell apart
EDGES = [0, 1, 2, 3, 4, 7, 8, 16, 17, 63, 64, 65, 191, 192, 193, 511, 512, 513, 1023, 1024, 1025,
         -1, -512, -513, 2**70, 0.0, -0.0, 1e-4, 0.0999, 0.1, 1.0, 2.0, 2.5, 10, 10.0, 10.5, 1e6,
         -1e6, 1.5e6, -1.5e6, 1e300, True, False, None, "", "x", "0", "S3", "Lens", "Brieskorn",
         "Torus3", [], {}, [0, 0, 1], ["0", "0", "1"]]
# each draw of an edge value is a copy: `mutate` edits the lists and dicts it puts in a
# document, and an edit of the shared [] or {} of EDGES would change later examples
# (hypothesis then raises FlakyStrategyDefinition) and the edge values themselves
SCALARS = (st.sampled_from(EDGES).map(copy.deepcopy) | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3))
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.sampled_from(NAMES), inner, max_size=3), max_leaves=8)


def assert_walker_agrees(doc):
    """The walker accepts `doc` if and only if jsonschema does, finds errors at
    the same places, and reports one at the depth best_match picks."""
    found = []
    manifest._errors(SCHEMA, doc, (), found)
    expected = list(ORACLE.iter_errors(doc))
    assert {path for path, _ in found} == {tuple(e.absolute_path) for e in expected}
    if expected:
        with pytest.raises(ManifestError) as exc:
            validate_manifest(doc)
        depth = min(len(e.absolute_path) for e in expected)
        assert str(exc.value) in {f"manifest invalid at {'/'.join(map(str, path)) or '<root>'}: {message}"
                                  for path, message in found if len(path) == depth}
    else:
        validate_manifest(doc)


@pytest.mark.parametrize("path", [path for path, _ in schema_nodes(SCHEMA)][1:],
                         ids=lambda path: "/".join(map(str, path)))
def test_the_walker_agrees_with_jsonschema_on_every_edge_value(path):
    for value in EDGES:
        doc = copy.deepcopy(FULL)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert_walker_agrees(doc)


def mutate(draw, doc):
    """One random edit somewhere in `doc`: replace, delete or add an entry, or
    resize a list to a length at or near one of the schema's bounds."""
    node = doc
    while True:
        inner = [k for k, v in (node.items() if isinstance(node, dict) else enumerate(node))
                 if isinstance(v, (dict, list))]
        if not inner or draw(st.booleans()):
            break
        node = node[draw(st.sampled_from(inner))]
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    action = draw(st.sampled_from(["replace", "delete", "add", "resize"]))
    if action == "replace" and keys:
        node[draw(st.sampled_from(keys))] = draw(VALUES)
    elif action == "delete" and keys:
        del node[draw(st.sampled_from(keys))]
    elif isinstance(node, dict):
        node[draw(st.sampled_from(NAMES))] = draw(VALUES)
    elif action == "resize" and node:
        # only a list of scalars grows past the largest bound (1025 windings): 1025
        # copies of a subtree make a document that takes seconds to check
        long = [] if any(isinstance(v, (dict, list)) for v in node) else [1025, 1026]
        length = draw(st.sampled_from([0, 1, 2, 3, 4, 16, 17, *long]))
        node[:] = [node[i % len(node)] for i in range(length)]
    else:
        node.append(draw(VALUES))


@pytest.mark.parametrize("base", sorted(BASES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_walker_agrees_with_jsonschema(base, data):
    doc = copy.deepcopy(BASES[base])
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data.draw, doc)
    assert_walker_agrees(doc)


def test_a_valid_transversal_is_checked_in_one_sweep(count_calls):
    """The walker checks a list of bounded integers, or of lists of them (a
    transversal's vertices), in one sweep, and visits each item only where
    one fails: loading lens_7_2.json, with 192 vertices in its two
    transversals, calls it 29 times, not once per vertex and coordinate
    (799).  A bad vertex or coordinate anywhere in the list is still found
    where jsonschema finds it, with the walker's message."""
    calls = count_calls("_errors", manifest)
    load_manifest(ROOT / "perfbench" / "manifests" / "lens_7_2.json")
    assert len(calls) == 29
    for bad in (-1, 1.5, 2.0, True, "0", None, [0], [0, 0], [0, 0, 0, 0], 2**70):
        for where in ((0, 0), (127, 2), (63, None)):
            doc = copy.deepcopy(BASES["lens_7_2"])
            vertices = doc["foliations"][1 if where[0] < 64 else 0]["transversal"]
            if where[1] is None:
                vertices[where[0]] = bad
            else:
                vertices[where[0]][where[1]] = bad
            assert_walker_agrees(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("path", [("chern_simons", "scale"), ("chern_simons", "step"),
                                  ("leafwise", "weights", 0), ("solver", "tolerance")],
                         ids=lambda path: "/".join(map(str, path)))
def test_non_finite_numbers_are_invalid(path, value):
    """A Python caller can put NaN or an infinity in the dict, which JSON cannot
    hold; the walker refuses them, where jsonschema would accept some."""
    doc = copy.deepcopy(FULL)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    where = "/".join(map(str, path))
    with pytest.raises(ManifestError, match=f"^manifest invalid at {where}: "
                                            f"{re.escape(repr(value))} is not a finite number$"):
        validate_manifest(doc)
