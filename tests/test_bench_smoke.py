"""Each workload of the benchmark, one op plain and one traced.

`perfbench/run.py`'s `run_op` runs one CLI call of each bench manifest with
the workload's command and a fixed seed, first plain and then under
`perfbench/tracer.py`'s `Tracer`, which wraps every public function of the
package and probes what `enumerate_reps` and `build_twisted_complex` return.
Both ops must finish without an error or a wrong number by the bench's
oracles, and give the same report digest: a traced op that errors, or whose
report differs, would make the traced bench run incorrect.  The harness is
imported as it is.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

import taut3.cli as cli  # noqa: E402

CASES = [(name, manifest) for name, work in run.WORKLOADS.items() for manifest in work.manifests]


@pytest.mark.parametrize("workload, manifest", CASES, ids=[f"{w}-{m[:-5]}" for w, m in CASES])
def test_a_traced_op_gives_the_report_of_its_plain_twin(tmp_path, workload, manifest):
    command, path = run.WORKLOADS[workload].command, run.MANIFESTS / manifest
    (tmp_path / "reports").mkdir()
    plain = run.run_op(cli, command, path, 7, tmp_path)
    tracer = Tracer()
    traced = run.run_op(cli, command, path, 7, tmp_path, tracer, 0)
    for rec in (plain, traced):
        assert rec["error"] is None and rec["errors"] == [] and rec["missing"] == []
        assert rec["found"] == rec["expected"]
    assert traced["digest"] == plain["digest"] is not None
    assert traced["traced"] and tracer.ops[0].enumerations >= 1 and tracer.spans
