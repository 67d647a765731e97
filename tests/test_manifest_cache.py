import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from jsonschema.validators import validator_for

from taut3.cache import Cache, content_key
from taut3.cli import main as cli_main
from taut3.manifest import SCHEMA, ManifestError, load_manifest, validate_manifest


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
    assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})
    assert content_key({"a": 1}) != content_key({"a": 2})


def test_cache_roundtrip(tmp_path):
    c = Cache(directory=tmp_path)
    inputs = {"pipeline": "x", "n": 3}
    assert c.get(inputs) is None
    c.put(inputs, {"value": [1.0, 2.0]})
    assert c.get(inputs) == {"value": [1.0, 2.0]}


def test_cache_corruption_discarded_with_warning(tmp_path):
    c = Cache(directory=tmp_path)
    inputs = {"pipeline": "y"}
    c.put(inputs, {"v": 1})
    (path,) = tmp_path.glob("*.json")
    entry = json.loads(path.read_text())
    entry["payload"] = {"v": 999}  # checksum now stale
    path.write_text(json.dumps(entry))
    assert c.get(inputs) is None
    assert any("corrupt" in w for w in c.warnings)
    assert not path.exists()  # bad entry removed


@pytest.mark.parametrize("entry", [[], None, 3, "payload"])
def test_cache_entry_that_is_not_an_object_is_corrupt(tmp_path, entry):
    c = Cache(directory=tmp_path)
    inputs = {"pipeline": "z"}
    c.put(inputs, {"v": 1})
    (path,) = tmp_path.glob("*.json")
    path.write_text(json.dumps(entry))
    assert c.get(inputs) is None
    assert any("corrupt" in w for w in c.warnings)
    assert not path.exists()


def test_cli_recomputes_over_a_non_object_cache_entry(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TAUT3_CACHE_DIR", str(tmp_path / "cache"))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(minimal()))
    argv = ["torsion", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")]
    assert cli_main(argv) == 0
    first = json.loads((tmp_path / "r.json").read_text())["sections"]
    (path,) = (tmp_path / "cache").glob("*.json")
    path.write_text("[]")
    capsys.readouterr()
    assert cli_main(argv) == 0
    assert "corrupt" in capsys.readouterr().err
    assert json.loads((tmp_path / "r.json").read_text())["sections"] == first


def test_cache_disabled_never_touches_disk(tmp_path):
    c = Cache(directory=tmp_path, enabled=False)
    c.put({"k": 1}, {"v": 2})
    assert c.get({"k": 1}) is None
    assert list(tmp_path.iterdir()) == []


def test_cache_entry_from_another_version_is_a_miss(tmp_path, monkeypatch):
    c = Cache(directory=tmp_path)
    inputs = {"pipeline": "torsion"}
    monkeypatch.setattr("taut3.cache.__version__", "0.0.0-older")
    c.put(inputs, {"v": 1})
    assert c.get(inputs) == {"v": 1}
    monkeypatch.undo()
    assert c.get(inputs) is None
    assert c.warnings == []  # a plain miss, not a corrupt entry


def test_concurrent_writers_do_not_collide(tmp_path):
    c = Cache(directory=tmp_path)
    inputs = {"pipeline": "w"}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda i: c.put(inputs, {"v": i % 2}), range(40), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert c.get(inputs) in ({"v": 0}, {"v": 1})
    assert c.warnings == []
    assert list(tmp_path.glob("*.tmp")) == []


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


def test_shipped_manifests_validate():
    root = Path(__file__).resolve().parents[1]
    for path in sorted((root / "perfbench" / "manifests").glob("*.json")):
        load_manifest(path)
    readme = (root / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    validate_manifest(json.loads(block.replace(', "..."', "")))  # the elided transversal
