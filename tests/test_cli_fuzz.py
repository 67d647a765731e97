"""Manifest-level fuzzing of the CLI.

`taut3 reps`: whatever the `manifold` block says, the command exits 0, 2, 3
or 4 with an `error:` line and never with a traceback, and the classes of a
Brieskorn sphere it accepts number 1 + 2|sigma/8|.

`taut3 gv`: whatever 1-4 foliations the manifest declares, from a pool of
well-formed, singular and malformed expressions, the command exits 0, 2, 3 or
5 (the last only under --strict) and never with a traceback.

`taut3 all`: whatever small `chern_simons`, `leafwise` and `cyclic` blocks the
manifest declares, with values at and just past the schema's bounds and
windings at and past the degree bound, the command exits 0, 2, 3, 4 or 5,
never with a traceback, and a report it writes is strict JSON: no NaN and no
Infinity."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from rep_oracles import brieskorn_sigma
from taut3.cli import (
    EXIT_OK,
    EXIT_REGULARITY,
    EXIT_TAUTNESS,
    EXIT_USAGE,
    main,
)
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


def run_cli(command, manifest, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "m.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(manifest))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--manifest", str(path), "--out", str(out), *flags])
        report = json.loads(out.read_text()) if code == EXIT_OK else None
    return code, stderr.getvalue(), report


def run_reps(manifold):
    return run_cli("reps", {"schema_version": 1, "manifold": manifold}, "--no-cache")


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
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_REGULARITY)
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert err.startswith("error:")
    elif manifold["family"] == "Brieskorn":
        reps = report["sections"]["reps"]
        sigma = brieskorn_sigma(*reps["metadata"]["params"])
        assert reps["values"]["class_count"] == 1 + 2 * abs(sigma // 8)


NONVANISHING = ["1", "-2", "exp(0.3*sin(2*pi*x) + 0.2*cos(2*pi*y))", "2 + cos(2*pi*z)", "x^2 + 1"]
# well-formed, but zero, overflowing or not finite somewhere on the grid
SINGULAR = ["0", "x", "sin(2*pi*y)", "1/0", "(x-x)/(x-x)+1", "9^9^9", "exp(1000*x)"]
MALFORMED = ["sin(", "x +", "", "__import__('os')", "x.real", "lambda: 1", "q", "sin(x, y)"]
_expr = st.integers(0, 9).flatmap(
    lambda i: st.sampled_from(NONVANISHING if i < 7 else SINGULAR if i < 9 else MALFORMED)
)
# f dz is integrable for every f; three arbitrary components mostly are not
_omega = st.tuples(st.just("0"), st.just("0"), _expr) | st.tuples(_expr, _expr, _expr)


@st.composite
def _foliation(draw):
    n = draw(st.integers(8, 16))
    foliation = {"omega": list(draw(_omega)), "grid": n}
    loop = draw(st.sampled_from(["none", "z", "x", "off-grid", "short"]))
    if loop == "z":
        foliation["transversal"] = [[0, 0, k] for k in range(n)]
    elif loop == "x":
        foliation["transversal"] = [[k, 0, 0] for k in range(n)]
    elif loop == "off-grid":
        foliation["transversal"] = [[0, 0, n - 1], [0, 0, n]]
    elif loop == "short":
        foliation["transversal"] = [[0, 0, 0]]
    return foliation


@settings(max_examples=40, deadline=None)
@given(st.lists(_foliation(), min_size=1, max_size=4), st.booleans())
@example([{"omega": ["0", "0", "1"], "grid": 8, "transversal": [[k, 0, 0] for k in range(8)]}],
         True)
@example([{"omega": ["0", "0", "1"], "grid": 8}, {"omega": ["0", "0", "sin("], "grid": 8}], False)
def test_gv_on_any_foliations(foliations, strict):
    manifest = {"schema_version": 1, "manifold": {"family": "S3"}, "foliations": foliations}
    code, err, report = run_cli("gv", manifest, *(["--strict"] if strict else []))
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_TAUTNESS)
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert err.startswith("error:")
    else:
        assert len(report["sections"]["godbillon_vey"]["values"]["per_foliation"]) == len(foliations)
    if code == EXIT_TAUTNESS:
        assert strict


def _edges(low, high, inside):
    """Mostly values inside [low, high], often the bounds, rarely just past them."""
    past = [low - abs(low) * 1e-3 - 1e-9, high + abs(high) * 1e-3 + 1e-9]
    return st.integers(0, 19).flatmap(
        lambda i: st.sampled_from(past) if i == 0 else st.sampled_from([low, high]) if i < 6
        else inside
    )


def _winding(bound):
    """Windings up to the degree bound, rarely past it or past the schema's 512."""
    return st.integers(0, 19).flatmap(
        lambda i: st.sampled_from([bound + 1, -bound - 1, 513, -513]) if i == 0
        else st.sampled_from([bound, -bound]) if i < 6 else st.integers(-bound, bound)
    )


_chern_simons = st.fixed_dictionaries({}, optional={
    "grid": st.integers(4, 6),
    "scale": _edges(0.0, 10.0, st.floats(0.0, 10.0)),
    "level": _edges(-1e6, 1e6, st.floats(-1e6, 1e6)),
    "step": _edges(1e-6, 1e-3, st.floats(1e-6, 1e-3)),
    "seed": st.integers(0, 2**64),
})
_leafwise = st.fixed_dictionaries({}, optional={
    "truncation": st.integers(1, 8),
    "n_z": st.integers(1, 4),
    "weights": st.lists(_edges(0.1, 10.0, st.floats(0.1, 10.0)), min_size=3, max_size=3),
})
_cyclic = st.integers(1, 16).flatmap(lambda bound: st.fixed_dictionaries(
    {"degree_bound": st.just(bound)},
    optional={"windings": st.lists(_winding(bound), max_size=6)},
))


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@settings(max_examples=50, deadline=None)
@given(_chern_simons, _leafwise, _cyclic, st.sampled_from(["S3", "Lens"]))
@example({"grid": 4, "scale": 10.0, "level": -1e6}, {"truncation": 8, "weights": [1, 0.5, 1]},
         {"degree_bound": 8, "windings": [8, -8]}, "S3")
@example({}, {"weights": [0.1, 10.0, 0.1]}, {"degree_bound": 8, "windings": [9, 10, -12]}, "S3")
@example({"level": 1e300}, {"weights": [1, 1e-200, 1]}, {"degree_bound": 16}, "Lens")
def test_all_on_any_model_blocks(chern_simons, leafwise, cyclic, family):
    manifold = {"family": family, "params": [5, 1]} if family == "Lens" else {"family": family}
    manifest = {"schema_version": 1, "manifold": manifold, "chern_simons": chern_simons,
                "leafwise": leafwise, "cyclic": cyclic}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "m.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(manifest))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["all", "--manifest", str(path), "--out", str(out)])
        text = out.read_text() if code == EXIT_OK else None
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_REGULARITY, EXIT_TAUTNESS)
    err = stderr.getvalue()
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert err.startswith("error:")
        return
    assert err == ""
    report = json.loads(text, parse_constant=_reject_constant)
    pairings = report["sections"]["cyclic"]["values"]["winding_pairings"]
    assert all(float(k) == v for k, v in pairings.items())
