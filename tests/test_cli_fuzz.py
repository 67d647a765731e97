"""Manifest-level fuzzing of `taut3 reps`: whatever the `manifold` block says,
the command exits 0, 2, 3 or 4 with an `error:` line and never with a
traceback, and the classes of a Brieskorn sphere it accepts number
1 + 2|sigma/8|."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from rep_oracles import brieskorn_sigma
from taut3.cli import EXIT_OK, EXIT_REGULARITY, EXIT_UNSUPPORTED, EXIT_USAGE, main
from taut3.presentations import SIZE_BOUND

FAMILIES = ["S3", "Lens", "Brieskorn", "Torus3"]
_junk = st.none() | st.booleans() | st.text(max_size=6) | st.floats() | st.just({})
_param = (
    st.integers(-3, 13)
    | st.sampled_from([10007, SIZE_BOUND + 1, 2**70])
    | st.integers(2, 13).map(float)  # 2.0 is an integer to JSON Schema
    | _junk
)
_manifold = st.one_of(
    # Brieskorn triples, about half of them pairwise coprime
    st.fixed_dictionaries(
        {"family": st.just("Brieskorn"), "params": st.lists(st.integers(2, 13), min_size=3, max_size=3)}
    ),
    st.fixed_dictionaries(
        {"family": st.sampled_from(FAMILIES)},
        optional={"params": st.lists(st.integers(-3, 13), max_size=3)},
    ),
    st.fixed_dictionaries(
        {"family": st.sampled_from(FAMILIES) | st.text(max_size=10) | _junk},
        optional={"params": st.lists(_param, max_size=5) | _junk, "extra": _junk},
    ),
)


def run_reps(manifold):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "m.json", Path(tmp) / "report.json"
        path.write_text(json.dumps({"schema_version": 1, "manifold": manifold}))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["reps", "--manifest", str(path), "--out", str(out), "--no-cache"])
        report = json.loads(out.read_text()) if code == EXIT_OK else None
    return code, stderr.getvalue(), report


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9).flatmap(lambda i: _junk if i == 0 else _manifold))  # 1 in 10 not a dict
@example({"family": "Brieskorn", "params": [2, 3, 5]})
@example({"family": "Brieskorn", "params": [3, 4, 5]})
@example({"family": "Brieskorn", "params": [2.0, 3, 7]})
@example({"family": "Brieskorn", "params": [2, 3, 10007]})
@example({"family": "Brieskorn", "params": [2, 4, 5]})
@example({"family": "Brieskorn", "params": [2, 3]})
@example({"family": "Lens", "params": [SIZE_BOUND + 1, 1]})
@example({"family": "Torus3"})
@example({"family": "Klein"})
def test_reps_on_any_manifold_block(manifold):
    code, err, report = run_reps(manifold)
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_UNSUPPORTED, EXIT_REGULARITY)
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert err.startswith("error:")
    elif manifold["family"] == "Brieskorn":
        reps = report["sections"]["reps"]
        sigma = brieskorn_sigma(*reps["metadata"]["params"])
        assert reps["values"]["class_count"] == 1 + 2 * abs(sigma // 8)
