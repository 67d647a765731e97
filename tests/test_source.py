"""The package's own modules compile without warnings, import nothing they
never use, never call `eval`, `exec` or `compile`, and `taut3.cli` starts
without sympy.

`compile()` runs on the source text, so invalid escapes and similar warnings
show even where cached `.pyc` files would skip them on import.
"""

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "taut3"


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


def test_cli_import_does_not_load_sympy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent)] + sys.path))
    code = "import sys, taut3.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
