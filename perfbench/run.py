"""taut3 benchmark: closed-loop workloads of in-process `taut3` CLI calls.

Run from the repository root:

    python3 perfbench/run.py --workload poincare-all --seed 0 --seconds 15 --trace 0

One client, one process. Each operation is a call of `taut3.cli.main` with
`--no-cache`, the operation's seed and a report path; stdout is captured. Op k
of a run uses seed `--seed + k` and manifest k mod (number of manifests). Whole
rounds (one op per manifest) are started while fewer than `--seconds` seconds
have passed. Every operation is checked against the oracles in `oracles.py`.

--trace 0 reports the end-to-end metrics. --trace 1 runs every op twice, first
plain, then with every public function of `taut3` wrapped (`tracer.py`), and
reports per-layer metrics per traced op plus the tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Per-op records, the environment, the spans of a traced run and the report
digests go under perfbench/out/. Exit code 2 if the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import metrics
import oracles
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
MANIFESTS = HERE / "manifests"
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    command: str
    manifests: tuple
    why: str


WORKLOADS = {
    "poincare-all": Workload(
        "all", ("poincare.json",),
        "the headline run on Sigma(2,3,5); ~90% su2reps, the moduli enumerated three times",
    ),
    "seifert-reps": Workload(
        "reps", ("brieskorn_2_3_11.json", "brieskorn_3_4_5.json"),
        "4-generator Seifert presentations with a seeded subsample; where the solver loses classes",
    ),
    "lattice-fields": Workload(
        "all", ("lens_7_2.json",),
        "exact cyclic moduli; Chern-Simons scan and GV sampling dominate, su2reps is idle",
    ),
}


def environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
    }


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def measure_setup(manifests):
    """Median over fresh interpreters of `import taut3.cli` plus manifest loading."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "import taut3.cli\n"
        "from taut3.manifest import load_manifest\n"
        "for p in sys.argv[1:]:\n"
        "    load_manifest(p)\n"
        "print(time.perf_counter() - t0)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code, *map(str, manifests)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def body_digest(body: dict) -> str:
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_op(cli, command, manifest_path, op_seed, out, tracer=None, op_id=None):
    """One CLI call; returns a record with times, digest and oracle verdict."""
    report_path = out / "reports" / f"{manifest_path.stem}-seed{op_seed}.json"
    argv = [command, "--manifest", str(manifest_path), "--no-cache",
            "--seed", str(op_seed), "--out", str(report_path)]
    captured = io.StringIO()
    scope = tracer.tracing(op_id) if tracer is not None else contextlib.nullcontext()
    with scope:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = cli.main(argv)
            error = None if code == 0 else f"exit code {code}"
        except Exception:  # the op fails; the run goes on and reports it
            error = traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    rec = {"manifest": manifest_path.stem, "seed": op_seed, "traced": tracer is not None,
           "wall_s": wall, "cpu_s": cpu,
           "error": error, "digest": None, "found": 0, "expected": 0,
           "errors": [], "missing": []}
    if error is None:
        body = json.loads(report_path.read_text())
        body.pop("timings", None)
        rec["digest"] = body_digest(body)
        verdict = oracles.check_report(body, json.loads(manifest_path.read_text()))
        rec.update(found=verdict.found, expected=verdict.expected,
                   errors=verdict.errors, missing=verdict.missing)
    return rec


def check_digests(workload, records, out):
    """Compare each op's digest with earlier runs in this checkout; errors on a mismatch."""
    path = out / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    for rec in records:
        if rec["digest"] is None:
            continue
        key = f"{workload}/{rec['manifest']}/seed{rec['seed']}"
        if known.setdefault(key, rec["digest"]) != rec["digest"]:
            rec["errors"].append(f"report digest differs from an earlier op with seed {rec['seed']}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)


def layer_metrics(tracer, ops):
    """Per-layer metrics, averaged over the traced ops."""
    funcs, selfs = tracer.per_op()
    per_op = []
    for op in sorted(tracer.ops):
        f, s, st = funcs[op], selfs[op], tracer.ops[op]
        m = {f"{fn}_calls": f[fn][0] for fn in metrics.COUNTED if fn in f}
        m.update({f"{fn}_s": f[fn][1] for fn in metrics.TIMED if fn in f})
        qmul = st.kernels["su2.qmul"]
        m.update({
            "su2.qmul_products": qmul[1],
            "su2.bytes_computed": qmul[1] * metrics.QMUL_BYTES,
            "su2.busy_s": s.get("su2", 0.0),
            "su2reps.classes_found": st.classes_found / st.enumerations if st.enumerations else 0,
            "su2reps.recompute_ratio": st.enumerations / len(st.presentations) if st.presentations else 0,
            "twisted_torsion.complex_recompute_ratio":
                st.complexes / len(st.complex_classes) if st.complex_classes else 0,
            "chern_simons.action_evals_computed": st.action_evals,
            "trace.spans_per_op": sum(1 for sp in tracer.spans if sp[4] == op),
        })
        for mod in metrics.MODULES:
            if mod != "su2":
                m[f"{mod}.self_s"] = s.get(mod, 0.0)
            m[f"{mod}.calls"] = sum(c for k, (c, _) in f.items() if k.split(".")[0] == mod)
        per_op.append(m)
    out = {}
    for name, (unit, _better) in metrics.PER_LAYER.items():
        vals = [m.get(name, 0) for m in per_op]
        out[name] = {"value": sum(vals) / len(vals) if vals else 0, "unit": unit}
    t_p50 = statistics.median(r["wall_s"] for r in ops if r["traced"])
    u_p50 = statistics.median(r["wall_s"] for r in ops if not r["traced"])
    out["trace.traced_op_p50_s"]["value"] = t_p50
    out["trace.untraced_op_p50_s"]["value"] = u_p50
    out["trace.overhead_s"]["value"] = t_p50 - u_p50
    return out


def run_workload(name, work, seed, seconds, trace, out=OUT, manifest_dir=MANIFESTS):
    """Run one workload; returns (printable lines, result object, run record)."""
    import taut3.cli as cli

    (out / "reports").mkdir(parents=True, exist_ok=True)
    manifests = [manifest_dir / m for m in work.manifests]
    env = environment()
    env["loadavg_before"] = loadavg()
    setup_s = measure_setup(manifests) if not trace else None

    tracer = Tracer() if trace else None
    ops = []  # in execution order; a traced op follows its plain twin
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        for path in manifests:
            ops.append(run_op(cli, work.command, path, seed + k, out))
            if tracer is not None:
                ops.append(run_op(cli, work.command, path, seed + k, out, tracer, k))
            k += 1
    env["loadavg_after"] = loadavg()
    check_digests(name, ops, out)
    records = [r for r in ops if not r["traced"]]

    failed = sum(1 for r in ops if r["error"] or r["errors"] or r["missing"])
    correct = all(r["error"] is None and not r["errors"] for r in ops)
    lines = []
    for i, r in enumerate(ops):
        if r["error"]:
            verdict = f"FAIL {r['error'].strip().splitlines()[-1]}"
        elif r["errors"] or r["missing"]:
            verdict = "FAIL " + "; ".join([f"WRONG {e}" for e in r["errors"]]
                                          + [f"MISSING {m}" for m in r["missing"]])
        else:
            verdict = f"ok ({r['found']}/{r['expected']} classes)"
        lines.append(f"op {i} {'traced' if r['traced'] else 'plain'} {r['manifest']} "
                     f"seed {r['seed']}: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
                     f"digest {(r['digest'] or '-')[:16]}: {verdict}")

    if tracer is None:
        expected = sum(r["expected"] for r in records)
        values = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(r["wall_s"] for r in records),
            "op_cpu_p50_s": statistics.median(r["cpu_s"] for r in records),
            "class_recall": sum(r["found"] for r in records) / expected if expected else 1.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        results = {n: {"value": values[n], "unit": u} for n, (u, _) in metrics.END_TO_END.items()}
    else:
        results = layer_metrics(tracer, ops)
    n_note = f" (n={len(records)} ops)"
    lines += [f"metric {n} = {m['value']:.6g} {m['unit']}{n_note if n.startswith('op_') else ''}"
              for n, m in results.items()]
    lines.append(f"metric fail_ratio = {failed / len(ops):.6g} ({failed} of {len(ops)} ops failed)")
    lines.append("env " + json.dumps(env, sort_keys=True))

    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = {"workload": name, "seed": seed, "seconds": seconds, "env": env,
              "ops": ops, "metrics": results}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        with open(out / f"{stem}-spans.jsonl", "w") as fh:
            for sp in tracer.span_records():
                fh.write(json.dumps(sp) + "\n")
    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": results}
    return lines, result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "taut3" / "__init__.py").is_file():
        print(f"error: no taut3 source under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["TAUT3_CACHE_DIR"] = str(OUT / "cache")  # --no-cache: never written

    lines, result, _ = run_workload(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
