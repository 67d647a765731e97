import json
from pathlib import Path

import pytest

from taut3 import cli, twisted_torsion
from taut3 import foliation_gv as fg
from taut3.cli import (
    EXIT_OK,
    EXIT_REGULARITY,
    EXIT_TAUTNESS,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    main,
)


def write_manifest(tmp_path, data, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def lens5_manifest(tmp_path, **extra):
    n = 16
    data = {
        "schema_version": 1,
        "manifold": {"family": "Lens", "params": [5, 1]},
        "foliations": [
            {
                "label": "expfz",
                "omega": ["0", "0", "exp(0.3*sin(2*pi*x) + 0.2*cos(2*pi*y))"],
                "grid": n,
                "transversal": [[0, 0, k] for k in range(n)],
            }
        ],
        "leafwise": {"truncation": 3, "n_z": 4},
        "cyclic": {"degree_bound": 8, "windings": [-3, -2, -1, 0, 1, 2, 3]},
    }
    data.update(extra)
    return write_manifest(tmp_path, data)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path_factory, monkeypatch):
    monkeypatch.setenv("TAUT3_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))


def run(args):
    return main(args)


def test_reps_subcommand(tmp_path, capsys):
    code = run(["reps", "--manifest", lens5_manifest(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "class_count = 3" in out


def test_cyclic_subcommand(tmp_path, capsys):
    code = run(["cyclic", "--manifest", lens5_manifest(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "'3': 3.0" in out


def test_all_is_deterministic_modulo_timings(tmp_path):
    manifest = lens5_manifest(tmp_path)
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert run(["all", "--manifest", manifest, "--out", str(out), "--seed", "0"]) == EXIT_OK
        data = json.loads(out.read_text())
        data.pop("timings", None)
        reports.append(data)
    assert reports[0] == reports[1]
    assert set(reports[0]["sections"]) >= {
        "reps",
        "torsion",
        "chern_simons",
        "godbillon_vey",
        "leafwise",
        "cyclic",
    }


def test_exit_codes(tmp_path):
    bad_schema = write_manifest(
        tmp_path, {"schema_version": 1, "manifold": {"family": "Lens"}, "oops": 1}, "bad.json"
    )
    assert run(["reps", "--manifest", bad_schema]) == EXIT_USAGE

    unsupported = write_manifest(
        tmp_path,
        {"schema_version": 1, "manifold": {"family": "Brieskorn", "params": [2, 3, 7]}},
        "b237.json",
    )
    assert run(["torsion", "--manifest", unsupported]) == EXIT_UNSUPPORTED

    torus = write_manifest(
        tmp_path, {"schema_version": 1, "manifold": {"family": "Torus3"}}, "t3.json"
    )
    assert run(["torsion", "--manifest", torus]) == EXIT_REGULARITY
    assert run(["casson", "--manifest", torus]) == EXIT_REGULARITY

    missing = str(tmp_path / "nope.json")
    assert run(["reps", "--manifest", missing]) == EXIT_USAGE


def test_strict_tautness_failure(tmp_path):
    n = 16
    manifest = write_manifest(
        tmp_path,
        {
            "schema_version": 1,
            "manifold": {"family": "S3"},
            "foliations": [
                {
                    "label": "bad-transversal",
                    "omega": ["0", "0", "1"],
                    "grid": n,
                    "transversal": [[k, 0, 0] for k in range(n)],
                }
            ],
        },
        "strict.json",
    )
    assert run(["gv", "--manifest", manifest]) == EXIT_OK
    assert run(["gv", "--manifest", manifest, "--strict"]) == EXIT_TAUTNESS


def test_warnings_surface_in_report(tmp_path):
    """Fault-injection manifests: every lower-module warning class shows up."""
    n = 16
    manifest = write_manifest(
        tmp_path,
        {
            "schema_version": 1,
            "manifold": {"family": "Lens", "params": [5, 1]},
            "foliations": [
                {
                    "label": "no-transversal",
                    "omega": ["0", "0", "exp(0.3*sin(2*pi*x))"],
                    "grid": n,
                }
            ],
            "leafwise": {"truncation": 2, "weights": [1.0, 2.0, 1.0]},
        },
        "faults.json",
    )
    out = tmp_path / "rep.json"
    assert run(["all", "--manifest", manifest, "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    warnings = {name: sec["warnings"] for name, sec in data["sections"].items()}
    assert any("inconclusive" in w for w in warnings["godbillon_vey"])
    assert any("metric-dependent" in w for w in warnings["leafwise"])
    assert any("not acyclic" in w for w in warnings["torsion"])
    assert any("skipped" in w for w in warnings["casson"])  # not a homology sphere


def test_cache_hit_gives_identical_torsion_report(tmp_path, capsys):
    manifest = lens5_manifest(tmp_path)
    outs = []
    for name in ("c1.json", "c2.json"):
        out = tmp_path / name
        assert run(["torsion", "--manifest", manifest, "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        data.pop("timings", None)
        outs.append(data)
    assert outs[0] == outs[1]


def test_no_cache_flag(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("TAUT3_CACHE_DIR", str(cache_dir))
    manifest = lens5_manifest(tmp_path)
    assert run(["torsion", "--manifest", manifest, "--no-cache"]) == EXIT_OK
    assert not cache_dir.exists()


@pytest.fixture
def enumerations(monkeypatch):
    """Labels of the presentations whose flat moduli a CLI run enumerates."""
    calls = []
    real = cli.enumerate_reps

    def counting(p, *args, **kwargs):
        calls.append(p.label)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_reps", counting)
    return calls


@pytest.mark.parametrize(
    "command, manifold, code, message",
    [
        ("torsion", {"family": "Torus3"}, EXIT_REGULARITY, "betti_1 > 0"),
        ("casson", {"family": "Torus3"}, EXIT_REGULARITY, "not an integral homology sphere"),
        ("torsion", {"family": "Brieskorn", "params": [2, 3, 7]}, EXIT_UNSUPPORTED,
         "no frozen CW structure for Brieskorn(2, 3, 7)"),
        ("casson", {"family": "Brieskorn", "params": [2, 3, 7]}, EXIT_UNSUPPORTED,
         "no frozen CW structure for Brieskorn(2, 3, 7)"),
    ],
)
def test_refusal_comes_before_enumeration(tmp_path, capsys, enumerations, command, manifold,
                                          code, message):
    manifest = write_manifest(tmp_path, {"schema_version": 1, "manifold": manifold})
    assert run([command, "--manifest", manifest, "--no-cache"]) == code
    assert message in capsys.readouterr().err
    assert enumerations == []


@pytest.mark.parametrize("family", ["S3", "Lens"])
def test_all_enumerates_the_moduli_once(tmp_path, enumerations, family):
    if family == "S3":
        manifest = write_manifest(tmp_path, {"schema_version": 1, "manifold": {"family": "S3"}})
    else:
        manifest = lens5_manifest(tmp_path)
    assert run(["all", "--manifest", manifest, "--no-cache"]) == EXIT_OK
    assert len(enumerations) == 1


@pytest.mark.parametrize("command", ["gv", "all"])
def test_one_exterior_derivative_of_omega_per_foliation(tmp_path, count_calls, command):
    n = 8
    second = {"label": "exp-xy", "omega": ["0", "0", "exp(0.2*cos(2*pi*y))"], "grid": n,
              "transversal": [[0, 0, k] for k in range(n)]}
    data = json.loads(Path(lens5_manifest(tmp_path)).read_text())
    data["foliations"].append(second)
    manifest = write_manifest(tmp_path, data)
    calls = count_calls("d", fg)
    assert run([command, "--manifest", manifest, "--no-cache"]) == EXIT_OK
    # per foliation: d(omega) once, d(theta) once
    assert [c[0].degree for c in calls] == [1, 1, 1, 1]


def test_all_builds_each_twisted_complex_once(tmp_path, count_calls, brieskorn_235_moduli):
    calls = count_calls("build_twisted_complex", twisted_torsion, cli)
    manifest = write_manifest(
        tmp_path, {"schema_version": 1, "manifold": {"family": "Brieskorn", "params": [2, 3, 5]}}
    )
    assert run(["all", "--manifest", manifest, "--no-cache"]) == EXIT_OK
    assert len(calls) == len(brieskorn_235_moduli.classes) == 3


def _one_foliation(omega_z, transversal=None):
    foliation = {"omega": ["0", "0", omega_z], "grid": 8}
    if transversal is not None:
        foliation["transversal"] = transversal
    return {"schema_version": 1, "manifold": {"family": "S3"}, "foliations": [foliation]}


@pytest.mark.parametrize(
    "command, data",
    [
        ("gv", _one_foliation("(" * 3000 + "x" + ")" * 3000)),
        ("gv", _one_foliation("-" * 3000 + "x")),
        ("gv", _one_foliation("9^9^9")),
        ("gv", _one_foliation("1/0")),
        ("gv", _one_foliation("(x-x)/(x-x)+1")),
        ("gv", _one_foliation("1", transversal=[[0, 0, 7], [0, 0, 8]])),
        ("reps", {"schema_version": 1, "manifold": {"family": "S3", "params": [1, 2]}}),
    ],
    ids=["deep-parentheses", "deep-minus", "power-overflow", "division-by-zero", "nan-samples",
         "transversal-off-grid", "S3-params"],
)
def test_hostile_manifest_values_exit_2(tmp_path, capsys, command, data):
    assert run([command, "--manifest", write_manifest(tmp_path, data), "--no-cache"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_all_computes_h1_once_per_presentation(tmp_path, monkeypatch):
    import sympy.matrices.normalforms as nf

    calls = []
    real = nf.smith_normal_form
    monkeypatch.setattr(nf, "smith_normal_form", lambda m: calls.append(m) or real(m))
    manifest = write_manifest(
        tmp_path, {"schema_version": 1, "manifold": {"family": "Brieskorn", "params": [2, 3, 5]}}
    )
    assert run(["all", "--manifest", manifest, "--no-cache"]) == EXIT_OK
    assert len(calls) == 2  # the manifest's presentation and the CW structure's own


def test_reps_refuses_torus3(tmp_path, capsys):
    """T^3's flat moduli are 3-dimensional: `reps` exits 4, and `all` skips it."""
    manifest = write_manifest(tmp_path, {"schema_version": 1, "manifold": {"family": "Torus3"}})
    assert run(["reps", "--manifest", manifest]) == EXIT_REGULARITY
    assert "betti_1 > 0" in capsys.readouterr().err
    out = tmp_path / "report.json"
    assert run(["all", "--manifest", manifest, "--out", str(out)]) == EXIT_OK
    warnings = json.loads(out.read_text())["sections"]["reps"]["warnings"]
    assert len(warnings) == 1 and warnings[0].startswith("skipped:") and "betti_1 > 0" in warnings[0]


def test_reps_ignores_the_solver_block_and_the_seed(tmp_path):
    base = {"schema_version": 1, "manifold": {"family": "Brieskorn", "params": [2, 3, 11]}}
    sections = []
    for i, (extra, seed) in enumerate([({}, "0"), ({"solver": {"max_iterations": 1}}, "5")]):
        manifest = write_manifest(tmp_path, {**base, **extra}, f"m{i}.json")
        out = tmp_path / f"r{i}.json"
        assert run(["reps", "--manifest", manifest, "--seed", seed, "--out", str(out)]) == EXIT_OK
        sections.append(json.loads(out.read_text())["sections"]["reps"])
    plain, with_solver = sections
    assert plain["values"] == with_solver["values"]
    assert plain["values"]["class_count"] == 5
    assert plain["warnings"] == []
    assert with_solver["warnings"] == [
        "the manifest's solver block is ignored: the flat moduli are exact"
    ]
