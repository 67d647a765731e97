import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rep_oracles import brieskorn_sigma
from test_su2reps import SMALL_TRIPLES
from taut3 import cli, presentations, twisted_torsion
from taut3 import foliation_gv as fg
from taut3.cli import (
    EXIT_OK,
    EXIT_REGULARITY,
    EXIT_TAUTNESS,
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

    no_3_cell = write_manifest(
        tmp_path,
        {"schema_version": 1, "manifold": {"family": "Brieskorn", "params": [2, 3, 7]}},
        "b237.json",
    )
    assert run(["torsion", "--manifest", no_3_cell]) == EXIT_OK

    torus = write_manifest(
        tmp_path, {"schema_version": 1, "manifold": {"family": "Torus3"}}, "t3.json"
    )
    assert run(["torsion", "--manifest", torus]) == EXIT_REGULARITY
    assert run(["casson", "--manifest", torus]) == EXIT_REGULARITY

    missing = str(tmp_path / "nope.json")
    assert run(["reps", "--manifest", missing]) == EXIT_USAGE


@pytest.mark.parametrize("argv, message", [
    (["bogus", "--manifest", "m.json"], "invalid choice: 'bogus'"),
    (["gv"], "the following arguments are required: --manifest"),
])
def test_bad_arguments_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as stop:
        run(argv)
    assert stop.value.code == EXIT_USAGE
    assert message in capsys.readouterr().err


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


def report_body(tmp_path, argv):
    """The report of one run, without its timings."""
    out = tmp_path / "report.json"
    assert run([*argv, "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    data.pop("timings", None)
    return data


def test_repeated_torsion_runs_are_identical(tmp_path):
    argv = ["torsion", "--manifest", lens5_manifest(tmp_path)]
    assert report_body(tmp_path, argv) == report_body(tmp_path, argv)


def test_no_cache_flag(tmp_path):
    """--no-cache is still accepted, and changes nothing."""
    argv = ["all", "--manifest", lens5_manifest(tmp_path)]
    assert report_body(tmp_path, argv) == report_body(tmp_path, [*argv, "--no-cache"])


def all_files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if not p.is_dir())


@pytest.mark.parametrize("command", ["torsion", "all"])
def test_cli_writes_nothing_but_its_report(tmp_path, monkeypatch, capsys, command):
    home, work = tmp_path / "home", tmp_path / "work"
    home.mkdir()
    work.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.chdir(work)
    manifest = lens5_manifest(tmp_path)
    before = all_files(tmp_path)
    assert run([command, "--manifest", manifest, "--out", str(work / "report.json")]) == EXIT_OK
    assert all_files(tmp_path) == sorted(before + [Path("work/report.json")])
    assert capsys.readouterr().err == ""


def gv_peak_bytes(tmp_path, traced_peak, count):
    """Peak traced memory of `gv` on `count` copies of one grid-64 foliation."""
    n = 64
    foliation = {"omega": ["0", "0", "exp(0.3*sin(2*pi*x) + 0.2*cos(2*pi*y))"], "grid": n,
                 "transversal": [[0, 0, k] for k in range(n)]}
    data = {"schema_version": 1, "manifold": {"family": "S3"}, "foliations": [foliation] * count}
    manifest = write_manifest(tmp_path, data, f"gv{count}.json")
    code, peak = traced_peak(run, ["gv", "--manifest", manifest])
    assert code == EXIT_OK
    return peak


def test_gv_holds_one_foliation_at_a_time(tmp_path, capsys, traced_peak):
    one = gv_peak_bytes(tmp_path, traced_peak, 1)
    four = gv_peak_bytes(tmp_path, traced_peak, 4)
    assert one > 3 * 8 * 64**3  # the sampled omega alone
    assert four < 1.25 * one


def test_gv_compiles_every_expression_before_sampling(tmp_path, capsys, count_calls):
    good = {"omega": ["0", "0", "1"], "grid": 8}
    data = {"schema_version": 1, "manifold": {"family": "S3"},
            "foliations": [good, {"omega": ["0", "0", "sin("], "grid": 8}]}
    sampled = count_calls("_Omega", fg)
    assert run(["gv", "--manifest", write_manifest(tmp_path, data)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")
    assert sampled == []


def test_gv_stage_matches_gv_invariant(tmp_path):
    """Sampling and evaluating the foliations one at a time gives the report of
    `gv_report` over the sampled foliations."""
    n = 8
    z_loop = [[0, 0, k] for k in range(n)]
    foliations = [
        {"label": "taut", "omega": ["0", "0", "exp(0.3*sin(2*pi*x))"], "grid": n,
         "transversal": z_loop},
        {"label": "not-taut", "omega": ["0", "0", "1"], "grid": n,
         "transversal": [[k, 0, 0] for k in range(n)]},
        {"omega": ["0", "0", "2 + cos(2*pi*y)"], "grid": n},
    ]
    data = {"schema_version": 1, "manifold": {"family": "S3"}, "foliations": foliations}
    out = tmp_path / "report.json"
    assert run(["gv", "--manifest", write_manifest(tmp_path, data), "--out", str(out)]) == EXIT_OK
    section = json.loads(out.read_text())["sections"]["godbillon_vey"]
    specs = [cli._foliation_spec(e, [cli.compile_expr(s) for s in e["omega"]]) for e in foliations]
    gv = fg.gv_report([fg.gv_term(spec, k) for k, spec in enumerate(specs)])
    assert section["values"]["total"] == gv.total
    assert section["values"]["per_foliation"] == [
        {"label": lab, "gv": val, "taut": taut, "theta_residual": res}
        for lab, val, taut, res in gv.per_foliation
    ]
    assert section["values"]["integrability_residuals"] == list(gv.integrability_residuals)
    assert section["warnings"] == list(gv.warnings)
    assert gv.per_foliation[1][1:3] == (None, False) and len(gv.warnings) == 2


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


def grid_sized_arrays(n):
    """Sizes of the live numpy buffers traced by tracemalloc that hold at least
    n^3 floats."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sorted(t.size for t in snapshot.traces if t.size >= 8 * n**3)


@pytest.mark.parametrize("command", ["gv", "all"])
def test_no_array_of_n3_floats_is_alive_during_gv(tmp_path, monkeypatch, command):
    """Each time the GV pass samples a chunk of a grid-128 foliation, after
    the stages that `all` runs before it, no live array holds n^3 floats: the
    ring holds two 8-row chunks and the wrap rows, not omega."""
    n = 128
    data = json.loads(Path(lens5_manifest(tmp_path)).read_text())
    data["foliations"] = [{"label": "exp-g", "grid": n,
                           "omega": ["0", "0", "exp(0.4*sin(2*pi*x)*cos(2*pi*y) + 0.3*sin(2*pi*z))"],
                           "transversal": [[0, 0, k] for k in range(n)]}]
    alive, sample = [], fg._Omega.sample

    def probing(self, rows, out):
        alive.append(grid_sized_arrays(n))
        return sample(self, rows, out)

    monkeypatch.setattr(fg._Omega, "sample", probing)
    tracemalloc.start()
    try:
        assert run([command, "--manifest", write_manifest(tmp_path, data), "--no-cache"]) == EXIT_OK
    finally:
        tracemalloc.stop()
    assert len(alive) == 128 // 8 + 2 and not any(alive)


@pytest.mark.parametrize("command", ["gv", "all"])
def test_one_exterior_derivative_of_omega_per_foliation(tmp_path, count_calls, command):
    n = 8
    second = {"label": "exp-xy", "omega": ["0", "0", "exp(0.2*cos(2*pi*y))"], "grid": n,
              "transversal": [[0, 0, k] for k in range(n)]}
    data = json.loads(Path(lens5_manifest(tmp_path)).read_text())
    data["foliations"].append(second)
    manifest = write_manifest(tmp_path, data)
    passes = count_calls("_gv_blocks", fg)
    derivatives = count_calls("_d_slab", fg)
    assert run([command, "--manifest", manifest, "--no-cache"]) == EXIT_OK
    # per foliation: one slab pass over a single slab (grids 16 and 8), in which
    # the kernel takes d(omega) and d(theta) once on the slab, and d(omega) on
    # the grid rows before and after it, where theta wraps around
    assert fg._slab_rows(16) == 16 and fg._slab_rows(n) == n
    assert len(passes) == 2
    assert [args[0].shape[1] for args in derivatives] == [1, 16, 1, 16, 1, n, 1, n]


def test_gv_reports_the_integrability_tolerance_it_applies(tmp_path, monkeypatch, capsys):
    """`tolerances.integrability` is the constant gv_term compares the defect
    with: a form passes at twice its defect and fails at half of it."""
    out = tmp_path / "report.json"

    def gv_section(omega_xy):
        data = _one_foliation("1")
        data["foliations"][0]["omega"][:2] = omega_xy
        code = run(["gv", "--manifest", write_manifest(tmp_path, data), "--out", str(out)])
        return code, code == EXIT_OK and json.loads(out.read_text())["sections"]["godbillon_vey"]

    _code, section = gv_section(["0", "0"])
    assert section["tolerances"]["integrability"] == fg.INTEGRABILITY_TOLERANCE == 1e-6
    tilted = ["0.01*cos(2*pi*z)", "0.01*sin(2*pi*z)"]  # a slightly non-integrable form
    monkeypatch.setattr(fg, "INTEGRABILITY_TOLERANCE", math.inf)
    defect = gv_section(tilted)[1]["values"]["integrability_residuals"][0]
    assert defect > 0
    monkeypatch.setattr(fg, "INTEGRABILITY_TOLERANCE", 2 * defect)
    code, section = gv_section(tilted)
    assert code == EXIT_OK and section["tolerances"]["integrability"] == 2 * defect
    monkeypatch.setattr(fg, "INTEGRABILITY_TOLERANCE", defect / 2)
    assert gv_section(tilted)[0] == EXIT_USAGE
    assert "not integrable" in capsys.readouterr().err


def test_all_builds_each_twisted_complex_once(tmp_path, count_calls):
    """At most once: torsion and casson read the presentation and the moduli,
    and build no twisted complex at all."""
    calls = count_calls("build_twisted_complex", twisted_torsion, cli)
    manifest = write_manifest(
        tmp_path, {"schema_version": 1, "manifold": {"family": "Brieskorn", "params": [2, 3, 5]}}
    )
    assert run(["all", "--manifest", manifest, "--no-cache"]) == EXIT_OK
    assert len(calls) == 0


def test_casson_runs_no_torsion(tmp_path, count_calls):
    calls = count_calls("torsion_sum", twisted_torsion, cli)
    manifest = write_manifest(
        tmp_path, {"schema_version": 1, "manifold": {"family": "Brieskorn", "params": [2, 3, 7]}}
    )
    assert run(["casson", "--manifest", manifest]) == EXIT_OK
    assert calls == []


def test_torsion_and_casson_take_no_spectrum(count_calls):
    """Neither pipeline reaches an eigendecomposition, and the package has no
    zeta log-determinant of a spectrum to reach."""
    assert importlib.util.find_spec("taut3.zeta") is None
    calls = [count_calls(name, np.linalg) for name in ("eig", "eigh", "eigvals", "eigvalsh")]
    manifests = Path(__file__).resolve().parents[1] / "perfbench" / "manifests"
    for command, name in (("torsion", "lens_7_2"), ("torsion", "poincare"),
                          ("casson", "poincare"), ("casson", "brieskorn_3_4_5")):
        assert run([command, "--manifest", str(manifests / f"{name}.json")]) == EXIT_OK
    assert calls == [[]] * 4


@pytest.mark.parametrize("params", [[2, 3, 7], [2, 5, 3]])
def test_torsion_and_casson_need_no_3_cell(tmp_path, params):
    """Sigma(2,3,7), and Sigma(2,3,5) through s^5 t^-3, carry no 3-cell: torsion
    leaves out the trivial class and the total, casson needs neither."""
    manifest = write_manifest(
        tmp_path, {"schema_version": 1, "manifold": {"family": "Brieskorn", "params": params}})
    out = tmp_path / "report.json"
    sections = {}
    for command in ("torsion", "casson"):
        assert run([command, "--manifest", manifest, "--out", str(out)]) == EXIT_OK
        sections.update(json.loads(out.read_text())["sections"])
    assert sections["casson"]["values"]["unsigned_count"] == 2
    torsion = sections["torsion"]
    assert "total" not in torsion["values"] and len(torsion["values"]["per_class"]) == 2
    assert any("no cellular torsion without a 3-cell" in w for w in torsion["warnings"])


def test_casson_on_every_small_brieskorn_sphere(tmp_path):
    """2|sigma/8| on the 31 pairwise-coprime triples with pqr <= 200, each
    irreducible class certified by H^1(pi; Ad rho) = 0."""
    out = tmp_path / "report.json"
    for pqr in SMALL_TRIPLES:
        data = {"schema_version": 1, "manifold": {"family": "Brieskorn", "params": list(pqr)}}
        assert run(["casson", "--manifest", write_manifest(tmp_path, data), "--out", str(out)]) == EXIT_OK
        values = json.loads(out.read_text())["sections"]["casson"]["values"]
        assert values["unsigned_count"] == 2 * abs(brieskorn_sigma(*pqr) // 8)
        assert values["twisted_h1_dims"] == [0] * values["unsigned_count"]


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


def test_gv_sums_that_overflow_exit_2(tmp_path, capsys):
    """|omega| near e^353 is finite, but its square sums past the float range:
    the run exits 2, naming the foliation, with no numpy warning."""
    data = _one_foliation("exp(353 + 0.5*sin(2*pi*x)*cos(2*pi*y))",
                          transversal=[[0, 0, k] for k in range(8)])
    data["manifold"] = {"family": "Torus3"}
    assert run(["gv", "--manifest", write_manifest(tmp_path, data)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: foliation[0]: a GV sum over the grid is not finite\n"


def test_all_computes_h1_once_per_presentation(tmp_path, count_calls):
    calls = count_calls("homology_h1", presentations)
    manifest = write_manifest(
        tmp_path, {"schema_version": 1, "manifold": {"family": "Brieskorn", "params": [2, 3, 5]}}
    )
    assert run(["all", "--manifest", manifest, "--no-cache"]) == EXIT_OK
    assert len(calls) == 1  # the presentation carries the 3-cell: there is no other


@pytest.mark.parametrize("params", [[3, 2, 5], [3, 5, 2]])
def test_the_3_cell_follows_the_relators(tmp_path, params):
    """Brieskorn(3,2,5) and (3,5,2) get Sigma(2,3,5)'s presentation, so its
    3-cell, torsion and unsigned count."""

    def sections(params):
        data = {"schema_version": 1, "manifold": {"family": "Brieskorn", "params": params}}
        out = tmp_path / "report.json"
        assert run(["all", "--manifest", write_manifest(tmp_path, data), "--out", str(out)]) == EXIT_OK
        return json.loads(out.read_text())["sections"]

    got, want = sections(params), sections([2, 3, 5])
    for key in ("per_class", "total"):
        assert got["torsion"]["values"][key] == want["torsion"]["values"][key]
    assert got["casson"]["values"]["unsigned_count"] == 2


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


def model_section(tmp_path, command, **blocks):
    """Exit code, stderr and (on success) the report section of one model run."""
    data = {"schema_version": 1, "manifold": {"family": "S3"}, **blocks}
    out = tmp_path / "report.json"
    code = run([command, "--manifest", write_manifest(tmp_path, data), "--out", str(out)])
    section = json.loads(out.read_text())["sections"][command] if code == EXIT_OK else None
    return code, section


@pytest.mark.parametrize("bound", [1, 8, 512])
def test_windings_at_the_degree_bound_pair_to_themselves(tmp_path, bound):
    # every winding up to the bound; at 512 these are the caps (1025 windings)
    windings = list(range(-bound, bound + 1))
    code, section = model_section(
        tmp_path, "cyclic", cyclic={"degree_bound": bound, "windings": windings})
    assert code == EXIT_OK
    assert section["values"]["winding_pairings"] == {str(n): n for n in windings}


@pytest.mark.parametrize("windings", [[9], [-9], [9, 10, -12], [0, 1, 9]])
def test_windings_past_the_degree_bound_exit_2(tmp_path, capsys, windings):
    code, _ = model_section(tmp_path, "cyclic",
                            cyclic={"degree_bound": 8, "windings": windings})
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "degree bound 8" in err and "Traceback" not in err


@pytest.mark.parametrize("weights", [[0.1, 10, 0.1], [10, 0.1, 10], [1, 0.5, 1]])
def test_leafwise_weights_within_the_bounds(tmp_path, weights):
    # the truncation is ignored: log T is the closed form over every Fourier mode
    code, section = model_section(tmp_path, "leafwise",
                                  leafwise={"truncation": 64, "weights": weights})
    assert code == EXIT_OK
    c0, c1, c2 = weights
    assert section["values"]["log_t"] == pytest.approx(0.5 * math.log(c1**2 / (c0 * c2)),
                                                       rel=1e-15)


@pytest.mark.parametrize(
    "weights, message",
    [([0.0999, 1, 1], "less than the minimum of 0.1"),
     ([1, 10.001, 1], "greater than the maximum of 10"),
     ([1, 1e-200, 1], "less than the minimum of 0.1"),
     ([100, 0.01, 100], "greater than the maximum of 10")],
)
def test_leafwise_weights_past_the_bounds_exit_2(tmp_path, capsys, weights, message):
    code, _ = model_section(tmp_path, "leafwise", leafwise={"weights": weights})
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: manifest invalid at leafwise/weights/")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize(
    "command, blocks",
    [("cs-check", {"chern_simons": {"grid": 4, "scale": "?"}}),
     ("cs-check", {"chern_simons": {"grid": 4, "level": "?"}}),
     ("leafwise", {"leafwise": {"weights": ["?", 1, 1]}}),
     ("reps", {"solver": {"tolerance": "?"}})],
    ids=["chern_simons.scale", "chern_simons.level", "leafwise.weights", "solver.tolerance"],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, command, blocks, literal):
    """Python's json reads NaN and the infinities, which JSON does not have; a
    NaN would pass every bound of the schema and reach the report, so
    `manifest._finite` refuses them as the manifest is parsed."""
    data = {"schema_version": 1, "manifold": {"family": "Lens", "params": [5, 1]}, **blocks}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data).replace('"?"', literal))
    assert run([command, "--manifest", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: manifest is not valid JSON: {literal} is not a finite number\n"


def test_leafwise_n_z_is_ignored_with_a_warning(tmp_path):
    _, plain = model_section(tmp_path, "leafwise", leafwise={})
    _, with_n_z = model_section(tmp_path, "leafwise", leafwise={"n_z": 7})
    _, with_truncation = model_section(tmp_path, "leafwise", leafwise={"truncation": 3})
    _, with_both = model_section(tmp_path, "leafwise", leafwise={"truncation": 512, "n_z": 7})
    sections = (plain, with_n_z, with_truncation, with_both)
    assert all(sec["values"] == plain["values"] for sec in sections)
    assert all(sec["metadata"] == {"weights": [1.0, 1.0, 1.0]} for sec in sections)
    n_z = ("the manifest's leafwise.n_z is ignored: the product model "
           "does not depend on the transverse coordinate")
    truncation = ("the manifest's leafwise.truncation is ignored: the determinants are "
                  "closed forms over every Fourier mode")
    assert [sec["warnings"] for sec in sections] == [[], [n_z], [truncation], [truncation, n_z]]


# report v3: every key of every section of `all` on the shipped bench manifests
V3_SHAPE = {
    "reps": (["class_count", "irreducible_count", "residuals", "trace_coordinates"],
             ["relator_residual"], ["family", "params"]),
    "torsion": (["irreducible_subtotal", "per_class", "total"], [], ["family"]),
    "casson": (["twisted_h1_dims", "unsigned_count"], ["relator_residual"], ["convention"]),
    "chern_simons": (["action", "curvature_norm", "fd_agreement", "flat_connection_grad_norm",
                      "grad_norm"], ["fd_agreement", "fd_step"],
                     ["fd_directions", "grid", "level", "scale", "seed"]),
    "godbillon_vey": (["integrability_residuals", "per_foliation", "total"], ["integrability"],
                      ["grids"]),
    "leafwise": (["betti", "log_dets", "log_t", "metric_dependent"], ["log_t_zero"],
                 ["weights"]),
    "cyclic": (["winding_pairings"], ["winding"], ["degree_bound"]),
}


@pytest.mark.parametrize("name", ["poincare", "lens_7_2"])
def test_report_v3_shape_on_the_bench_manifests(tmp_path, name):
    manifest = Path(__file__).resolve().parents[1] / "perfbench" / "manifests" / f"{name}.json"
    body = report_body(tmp_path, ["all", "--manifest", str(manifest), "--seed", "0"])
    assert body["report_version"] == 3
    shape = {
        sec: tuple(sorted(body["sections"][sec][part]) for part in ("values", "tolerances",
                                                                    "metadata"))
        for sec in body["sections"]
    }
    want = {sec: tuple(parts) for sec, parts in V3_SHAPE.items()}
    if name == "lens_7_2":  # not a homology sphere: casson is skipped
        want["casson"] = ([], [], [])
    assert shape == want
    assert body["sections"]["cyclic"]["warnings"] == []
    assert len(body["sections"]["leafwise"]["warnings"]) == 2  # truncation and n_z are ignored
