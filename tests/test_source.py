"""The package's own modules compile without warnings, import nothing they
never use, never call `eval`, `exec` or `compile`, and never import sympy or
scipy, which no run loads; the declared dependencies are exactly the
third-party modules the package imports; and only `presentations.py` (and the
schema's enum in `manifest.py`) names the manifold families.

`compile()` runs on the source text, so invalid escapes and similar warnings
show even where cached `.pyc` files would skip them on import.
"""

import ast
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "taut3"


def test_sources_compile_without_warnings():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in sources:
            compile(path.read_text(), str(path), "exec")


def unused_imports(source: str):
    """Names bound by an import statement that no expression of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read)


def test_unused_imports_checker():
    assert unused_imports("import os.path\nfrom a import b, c as d\nos.sep\nd()") == ["b"]


def test_modules_use_every_name_they_import():
    # __init__.py imports names to re-export them
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def dynamic_code_calls(source: str):
    """Names of the builtins eval, exec and compile that the module calls."""
    return [node.func.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("eval", "exec", "compile")]


def test_dynamic_code_calls_checker():
    source = "eval(s)\nre.compile(p)\nx.eval()\nexec(compile(s, 'f', 'exec'))"
    assert sorted(dynamic_code_calls(source)) == ["compile", "eval", "exec"]


def test_modules_never_evaluate_text_as_code():
    found = {path.name: dynamic_code_calls(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


FAMILIES = {"S3", "Lens", "Brieskorn", "Torus3"}


def family_names(source: str):
    """The string constants of a module that are the name of a family."""
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value in FAMILIES]


def test_family_names_checker():
    source = 'if family == "Lens":\n    f"Brieskorn({p})"\n    "S3 " + "Torus3"\n'
    assert family_names(source) == ["Lens", "Torus3"]


def test_only_the_presentations_know_the_families():
    found = {path.name: family_names(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name not in ("presentations.py", "manifest.py")}
    assert {name: names for name, names in found.items() if names} == {}


def imported_modules(source: str):
    """Top-level names of the absolute imports of a module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_checker():
    source = "import os.path, numpy as np\nfrom . import su2\nfrom sympy.matrices import zeros\n"
    source += "def f():\n    import scipy.linalg\n"
    assert imported_modules(source) == {"os", "numpy", "sympy", "scipy"}


def test_modules_never_import_sympy_or_scipy():
    found = {path.name: imported_modules(path.read_text()) & {"sympy", "scipy"}
             for path in sorted(SRC.glob("*.py"))}
    assert {name: mods for name, mods in found.items() if mods} == {}


def test_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep).group(0) for dep in project["dependencies"]}
    imported = set().union(*(imported_modules(path.read_text()) for path in SRC.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "taut3"}
    assert declared == third_party == {"numpy"}


def test_cli_import_does_not_load_sympy(tmp_path):
    """Neither the import of the CLI nor a whole run loads sympy, scipy or
    jsonschema, which only the tests use: `all` on Sigma(2,3,5) runs every
    pipeline, and `reps` on Sigma(2,3,11) takes the 4-generator Seifert
    presentation."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent)] + sys.path))
    loaded = ("print('loaded:', sorted({m.split('.')[0] for m in sys.modules}"
              " & {'sympy', 'scipy', 'jsonschema'}))\n")
    code = "import sys, taut3.cli\n" + loaded
    for command, manifest in (("all", "poincare.json"), ("reps", "brieskorn_2_3_11.json")):
        argv = [command, "--manifest", str(ROOT / "perfbench" / "manifests" / manifest),
                "--out", str(tmp_path / "report.json")]
        code += f"assert taut3.cli.main({argv!r}) == 0\n" + loaded
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    loads = [line for line in out.stdout.splitlines() if line.startswith("loaded:")]
    assert loads == ["loaded: []"] * 3
