"""Every function defined in `src/taut3` is reached by `taut3 all --out` on the
four bench manifests, as the benchmark runs it.  The few that no such run
reaches are listed in ALLOWED with the file outside the package that calls
them, and that file must name the function; anything else unreached is an
oracle, demo-only or dead code, and belongs in the tests.

Reached functions are recorded with `sys.setprofile`, since coverage is not a
dependency.  Class bodies and comprehensions are not functions here; lambdas
and nested functions are.
"""

import contextlib
import inspect
import io
import re
import sys
import types
from pathlib import Path

from taut3.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "taut3"

# "module.qualname" -> the file outside src/ whose run reaches it
ALLOWED = {
    "foliation_gv._raise_at": "tests/test_foliation_gv.py",  # singular and non-finite forms
    "manifest._finite": "tests/test_cli.py",  # float literals; no bench manifest has one
    "twisted_torsion.cw_structure": "perfbench/oracles.py",  # demo 02 calls it too
    "twisted_torsion.build_twisted_complex": "perfbench/oracles.py",
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


def test_every_function_is_reached_by_a_bench_run(tmp_path):
    reached = set()
    src = str(SRC)

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(src):
            reached.add((Path(code.co_filename).stem, code.co_qualname))

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for manifest in sorted((ROOT / "perfbench" / "manifests").glob("*.json")):
                out = tmp_path / f"{manifest.stem}.json"
                assert main(["all", "--manifest", str(manifest), "--out", str(out)]) == 0
    finally:
        sys.setprofile(None)
    unreached = {f"{module}.{name}" for module, name in defined_functions() - reached}
    assert unreached == set(ALLOWED)


def test_each_allowed_caller_names_its_function():
    for function, caller in ALLOWED.items():
        name = function.rpartition(".")[2]
        assert re.search(rf"\b{name}\b", (ROOT / caller).read_text()), (function, caller)
