"""Smoke test of the benchmark harness: tiny manifests, one round, oracles on.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import oracles
import run
import taut3.su2

ROOT = Path(__file__).resolve().parents[2]
EXPR = "exp(0.3*sin(2*pi*x) + 0.2*cos(2*pi*y))"
SMALL = {
    "leafwise": {"truncation": 2, "n_z": 2},
    "cyclic": {"degree_bound": 4},
    "chern_simons": {"grid": 4},
    "foliations": [{"label": "f", "omega": ["0", "0", EXPR], "grid": 8,
                    "transversal": [[0, 0, k] for k in range(8)]}],
}
TINY = {
    "poincare.json": {"manifold": {"family": "Brieskorn", "params": [2, 3, 5]},
                      "solver": {"max_iterations": 10}, **SMALL},
    "lens.json": {"manifold": {"family": "Lens", "params": [5, 1]}, **SMALL},
    # too few seeds and iterations to find every class: exercises the recall path
    "seifert.json": {"manifold": {"family": "Brieskorn", "params": [2, 3, 11]},
                     "solver": {"max_iterations": 15, "random_seeds": 40}},
}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    d = tmp_path_factory.mktemp("manifests")
    for name, body in TINY.items():
        (d / name).write_text(json.dumps({"schema_version": 1, **body}))
    return d


def smoke(tiny, tmp_path, manifest, command, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    work = run.Workload(command, (manifest,), "smoke")
    return run.run_workload("smoke", work, 0, 0, trace, tmp_path, tiny)


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for section, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[section]} == table


@pytest.mark.parametrize("trace", [False, True])
def test_poincare_all(tiny, tmp_path, monkeypatch, trace):
    lines, result, record = smoke(tiny, tmp_path, "poincare.json", "all", trace, monkeypatch)
    assert result["correct"] and result["failed"] == 0, lines
    assert set(result["metrics"]) == set(metrics.PER_LAYER if trace else metrics.END_TO_END)
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["su2reps.enumerate_reps_calls"] == 3
        assert m["su2reps.recompute_ratio"] == 3
        assert m["twisted_torsion.build_twisted_complex_calls"] == 5
        assert m["cli.calls"] > 0
        assert m["chern_simons.action_evals_computed"] == 2 * 9 * 4**3
        plain, traced = record["ops"]
        assert plain["digest"] == traced["digest"]
        assert taut3.su2.qmul.__module__ == "taut3.su2" and not hasattr(taut3.su2.qmul, "__wrapped__")
    else:
        assert result["metrics"]["class_recall"]["value"] == 1.0


def test_lattice_fields(tiny, tmp_path, monkeypatch):
    lines, result, _ = smoke(tiny, tmp_path, "lens.json", "all", True, monkeypatch)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["metrics"]["su2reps.enumerate_reps_calls"]["value"] == 2


def test_missing_classes_fail_the_op_but_not_correctness(tiny, tmp_path, monkeypatch):
    lines, result, record = smoke(tiny, tmp_path, "seifert.json", "reps", False, monkeypatch)
    assert result["correct"] and result["failed"] == 1
    assert result["metrics"]["class_recall"]["value"] < 1
    assert record["ops"][0]["missing"]


def test_digest_mismatch_is_an_error(tmp_path):
    rec = {"manifest": "m", "seed": 3, "digest": "a", "errors": []}
    run.check_digests("w", [rec], tmp_path)
    again = dict(rec, digest="b", errors=[])
    run.check_digests("w", [again], tmp_path)
    assert again["errors"]


def test_oracles_catch_wrong_values(tiny, tmp_path, monkeypatch):
    _, _, record = smoke(tiny, tmp_path, "poincare.json", "all", False, monkeypatch)
    body = json.loads((tmp_path / "reports" / "poincare-seed0.json").read_text())
    manifest = json.loads((tiny / "poincare.json").read_text())
    assert oracles.check_report(body, manifest).errors == []
    for section, key, value in (("casson", "unsigned_count", 3),
                                ("chern_simons", "fd_agreement", 1e-3),
                                ("godbillon_vey", "total", 1e-3)):
        bad = copy.deepcopy(body)
        bad["sections"][section]["values"][key] = value
        assert oracles.check_report(bad, manifest).errors, section
    bad = copy.deepcopy(body)
    bad["sections"]["torsion"]["values"]["per_class"][0]["log_t"] += 1e-3
    assert oracles.check_report(bad, manifest).errors
    bad = copy.deepcopy(body)
    reps = bad["sections"]["reps"]["values"]
    reps["trace_coordinates"].pop()
    reps["class_count"] -= 1
    assert oracles.check_report(bad, manifest).missing
    bad = copy.deepcopy(body)
    reps = bad["sections"]["reps"]["values"]
    reps["trace_coordinates"].append([0.5, 0.5, 0.5])
    reps["class_count"] += 1
    verdict = oracles.check_report(bad, manifest)
    assert verdict.errors and verdict.found == verdict.expected == 3


def test_brieskorn_oracle():
    counts = {t: oracles.brieskorn_irreducible_count(*t)
              for t in [(2, 3, 5), (2, 3, 7), (2, 3, 11), (3, 4, 5)]}
    assert counts == {(2, 3, 5): 2, (2, 3, 7): 2, (2, 3, 11): 4, (3, 4, 5): 4}
    assert len(oracles.triangle_group_irreducibles(2, 3, 5)) == 2


def test_refuses_to_run_without_the_package(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "poincare-all",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
