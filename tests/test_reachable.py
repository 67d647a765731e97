"""Every function defined in `src/taut3` is reached by a run: `taut3 all` on
the four bench manifests, or one of the demos.  The few that neither reaches
are listed in ALLOWED with the caller outside the package that reaches them;
anything else unreached is an oracle or dead code and belongs in the tests.

Reached functions are recorded with `sys.setprofile`, since coverage is not a
dependency.  Class bodies and comprehensions are not functions here; lambdas
and nested functions are.
"""

import contextlib
import inspect
import io
import runpy
import sys
import tempfile
import types
from pathlib import Path

from taut3.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "taut3"

# "module.qualname" -> the file outside src/ whose run reaches it
ALLOWED = {
    "foliation_gv._raise_at": "tests/test_foliation_gv.py",  # singular and non-finite forms
    "manifest._finite": "tests/test_cli.py",  # float literals; no bench manifest has one
    "twisted_torsion.sv_torsion_oracle": "perfbench/oracles.py",
}


def defined_functions():
    """(module, qualname) of every function and lambda in the package source."""
    found = set()

    def walk(code, module):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                is_function = const.co_flags & inspect.CO_OPTIMIZED
                if is_function and (const.co_name == "<lambda>" or not const.co_name.startswith("<")):
                    found.add((module, const.co_qualname))
                walk(const, module)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return found


def test_every_function_is_reached_by_a_bench_run_or_a_demo(tmp_path, monkeypatch):
    reached = set()
    src = str(SRC)

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(src):
            reached.add((Path(code.co_filename).stem, code.co_qualname))

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # the CLI demo's manifest
    monkeypatch.chdir(tmp_path)
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for manifest in sorted((ROOT / "perfbench" / "manifests").glob("*.json")):
                assert main(["all", "--manifest", str(manifest)]) == 0
            for demo in sorted((ROOT / "demos").glob("0*.py")):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
    unreached = {f"{module}.{name}" for module, name in defined_functions() - reached}
    assert unreached == set(ALLOWED)
    assert all((ROOT / caller).is_file() for caller in ALLOWED.values())
