"""The package's own modules compile without warnings, import nothing they
neither use nor list in `__all__`, never call `eval`, `exec` or `compile`, and
never import sympy or scipy, which no run loads, or dataclasses, whose
decorator is slow at import; the declared dependencies are
exactly the third-party modules the package imports; no module keeps state
between calls in a module-level container; only `presentations.py`
(and the schema's enum in `manifest.py`) names the manifold families; and the
package exports exactly the names that the README's quick start imports,
`torsion_sum` on first access.

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


def exported_names(tree):
    """The string constants listed in the module's `__all__ = [...]`; a computed
    `__all__` exports nothing that the checker can see."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name) and target.id == "__all__"
            for elt in getattr(node.value, "elts", ()) if isinstance(elt, ast.Constant)}


def unused_imports(source: str):
    """Names bound by an import statement that no expression of the module
    reads and its `__all__` does not export."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read - exported_names(tree))


def test_unused_imports_checker():
    assert unused_imports("import os.path\nfrom a import b, c as d\nos.sep\nd()") == ["b"]
    assert unused_imports("from a import b, c, d\n__all__ = ['b']\nc()") == ["d"]
    assert unused_imports("from a import b\n__all__ = [n for n in dir()]") == ["b"]


def test_modules_use_every_name_they_import():
    found = {path.name: unused_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def quick_start_imports(readme: str):
    """The names that the README's quick-start code block imports from taut3."""
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    return {a.name for node in ast.walk(ast.parse(block)) if isinstance(node, ast.ImportFrom)
            and node.module == "taut3" for a in node.names}


def test_the_package_exports_the_readme_quick_start():
    import taut3

    names = quick_start_imports((ROOT / "README.md").read_text())
    assert names and sorted(taut3.__all__) == sorted(names)


def test_torsion_sum_is_imported_on_first_access():
    """`taut3.torsion_sum` comes from the package's `__getattr__`: `import
    taut3` does not load `twisted_torsion`, the first access does, and an
    unknown name is still an AttributeError."""
    code = ("import sys, taut3\n"
            "print('taut3.twisted_torsion' in sys.modules)\n"
            "from taut3 import torsion_sum\n"
            "from taut3.twisted_torsion import torsion_sum as real\n"
            "print(torsion_sum is real is taut3.torsion_sum, 'torsion_sum' in vars(taut3))\n"
            "print(hasattr(taut3, 'no_such_name'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent)] + sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split("\n") == ["False", "True True", "False", ""]


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


def empty_containers(source: str):
    """Names that the module's top level binds to an empty container: `{}`,
    `[]`, or a call of dict, list or set without arguments."""
    def empty(node):
        if isinstance(node, (ast.Dict, ast.List, ast.Set)):
            return not (node.keys if isinstance(node, ast.Dict) else node.elts)
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("dict", "list", "set") and not node.args and not node.keywords)

    return [target.id for node in ast.parse(source).body
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
            and empty(node.value)
            for target in getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(target, ast.Name)]


def test_empty_containers_checker():
    source = ("_plans = {}  # kept\nseen: list = []\nA = set()\nB = dict()\nC = {1: 2}\n"
              "D = dict(a=1)\ndef f():\n    cache = {}\n")
    assert empty_containers(source) == ["_plans", "seen", "A", "B"]


def test_no_module_keeps_state_between_calls():
    found = {path.name: empty_containers(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


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


def test_modules_never_import_dataclasses():
    """Each `@dataclass` costs about a millisecond at import, so the records are
    NamedTuples and plain classes."""
    found = [path.name for path in sorted(SRC.glob("*.py"))
             if "dataclasses" in imported_modules(path.read_text())]
    assert found == []


def test_cli_import_does_not_load_sympy(tmp_path):
    """Neither the import of the CLI nor a whole run loads sympy, scipy or
    jsonschema, which only the tests use; neither the import nor a `reps` run
    (on Sigma(2,3,11), the 4-generator Seifert presentation) loads the modules
    of the T^3 pipelines, `twisted_torsion` or dataclasses; and `all` on
    Sigma(2,3,5), run after it, loads those modules for its pipelines but
    still no dataclasses."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent)] + sys.path))
    t3 = ["taut3.chern_simons", "taut3.exprs", "taut3.foliation_gv", "taut3.leafwise",
          "taut3.twisted_torsion"]
    watched = {*t3, "dataclasses"}
    loaded = ("print('loaded:', sorted({m.split('.')[0] for m in sys.modules}"
              f" & {{'sympy', 'scipy', 'jsonschema'}}), sorted(set(sys.modules) & {watched!r}))\n")
    code = "import sys, taut3.cli\n" + loaded
    for command, manifest in (("reps", "brieskorn_2_3_11.json"), ("all", "poincare.json")):
        argv = [command, "--manifest", str(ROOT / "perfbench" / "manifests" / manifest),
                "--out", str(tmp_path / "report.json")]
        code += f"assert taut3.cli.main({argv!r}) == 0\n" + loaded
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    loads = [line for line in out.stdout.splitlines() if line.startswith("loaded:")]
    assert loads == ["loaded: [] []"] * 2 + [f"loaded: [] {t3}"]
