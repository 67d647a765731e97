"""Manifest-driven command line front end.

Each subcommand runs one invariant pipeline; `all` runs every pipeline that
applies to the manifest's manifold, reporting the others as skipped, and says
in a `cyclic` section that a manifest's `cyclic` block is ignored.  The
pipelines of one invocation share a `Run`, so the presentation and the flat
moduli are each computed once.  Each pipeline past `reps` imports its module
when it runs (`twisted_torsion` for torsion and casson; chern_simons,
foliation_gv and leafwise for the T^3 pipelines), so a `reps` run loads none
of them.  Reports are written as JSON (sections, tolerances, warnings) with
timings kept in a separate block so repeated runs with the same seed produce
identical reports modulo timing fields.

Exit codes:
  0  success
  2  unreadable or invalid manifest, bad arguments, or an unwritable report path
  4  regularity or finiteness failure (the construction does not apply)
  5  tautness failure under --strict
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from functools import cached_property
from pathlib import Path

import numpy as np

from .manifest import Manifest, ManifestError, load_manifest
from .presentations import builtin_presentation
from .reports import InvariantReport, manifest_digest
from .su2reps import (
    RESIDUAL_TOLERANCE,
    ModuliNotFiniteError,
    RegularityError,
    casson_count,
    enumerate_reps,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGULARITY = 4
EXIT_TAUTNESS = 5


class Run:
    """One invocation: manifest and flags, plus every artifact the pipelines
    share, each computed at most once and only when first read."""

    def __init__(self, m: Manifest, args: argparse.Namespace):
        self.m, self.args = m, args

    @cached_property
    def presentation(self):
        return builtin_presentation(self.m.family, *self.m.params)

    @cached_property
    def moduli(self):
        return enumerate_reps(self.presentation)


def run_reps(run: Run, report: InvariantReport):
    m, moduli = run.m, run.moduli
    sec = report.section("reps")
    sec.values["class_count"] = len(moduli.classes)
    sec.values["irreducible_count"] = sum(r.irreducible for r in moduli.classes)
    sec.values["trace_coordinates"] = [
        [round(float(t), 10) for t in r.trace_coords] for r in moduli.classes
    ]
    sec.values["residuals"] = [float(r.residual) for r in moduli.classes]
    sec.tolerances["relator_residual"] = RESIDUAL_TOLERANCE
    sec.metadata["family"] = m.family
    sec.metadata["params"] = list(m.params)
    if "solver" in m.raw:
        sec.warnings.append("the manifest's solver block is ignored: the flat moduli are exact")


def run_torsion(run: Run, report: InvariantReport):
    from .twisted_torsion import torsion_sum

    m, result = run.m, torsion_sum(run.presentation, run.moduli)
    sec = report.section("torsion")
    sums = {"total": result.total, "irreducible_subtotal": result.irreducible_subtotal}
    sec.values.update(
        {k: v for k, v in sums.items() if v is not None},
        per_class=[
            {
                "trace_coordinates": [round(float(t), 10) for t in tc],
                "log_t": res.log_t,
                "t": res.t,
                "acyclic": res.acyclic,
                "metric_dependent": not res.acyclic,
            }
            for tc, res, _irr in result.per_class
        ],
    )
    sec.metadata["family"] = m.family
    sec.warnings.extend(result.notes)


def run_casson(run: Run, report: InvariantReport):
    from .twisted_torsion import adjoint_h1_dims

    m = run.m
    h1 = run.presentation.h1
    if h1.betti_1 != 0 or h1.torsion_coefficients:
        raise RegularityError(
            f"{m.family}{tuple(m.params)}: not an integral homology sphere; "
            "the counting construction does not apply"
        )
    regularity = adjoint_h1_dims(run.presentation, run.moduli)
    count = casson_count(run.moduli, regularity)
    sec = report.section("casson")
    sec.values["unsigned_count"] = count
    sec.values["twisted_h1_dims"] = regularity
    sec.metadata["convention"] = "unsigned: each irreducible class weighted +1"
    sec.tolerances["relator_residual"] = RESIDUAL_TOLERANCE


def run_cs_check(run: Run, report: InvariantReport):
    from .chern_simons import FD_DIRECTIONS, LatticeConnection, action_gradient, stationarity_check

    block = dict(run.m.chern_simons)
    n = block.get("grid", 4)
    scale = block.get("scale", 0.1)
    level = block.get("level", 1.0)
    step = block.get("step", 1e-4)
    seed = run.args.seed if run.args.seed is not None else block.get("seed", 0)
    conn = LatticeConnection.random(n, scale=scale, seed=seed)
    rep = stationarity_check(conn, step=step, level=level)
    flat = LatticeConnection.zero(n)
    flat_grad = float(np.linalg.norm(action_gradient(flat, level)))
    sec = report.section("chern_simons")
    sec.values.update(
        action=rep.action,
        grad_norm=rep.grad_norm,
        curvature_norm=rep.curvature_norm,
        fd_agreement=rep.agreement,
        flat_connection_grad_norm=flat_grad,
    )
    sec.tolerances["fd_agreement"] = 1e-5
    sec.tolerances["fd_step"] = step
    sec.metadata.update(grid=n, scale=scale, level=level, seed=seed, fd_directions=FD_DIRECTIONS)


def _foliation_spec(entry, fns):
    """The FoliationSpec of a manifest foliation whose expressions compiled to
    `fns`; a component whose expression folds to the constant 0 is None, so
    no expression is evaluated for it.  A transversal given, even an empty
    one, is checked as a path."""
    from .foliation_gv import FoliationSpec

    trans = entry.get("transversal")
    return FoliationSpec(
        omega=tuple(None if f.is_zero else f for f in fns),
        grid=entry.get("grid", 32),
        transversal=None if trans is None else tuple(tuple(p) for p in trans),
        label=entry.get("label", ""),
    )


def run_gv(run: Run, report: InvariantReport):
    from .exprs import compile_expr
    from .foliation_gv import INTEGRABILITY_TOLERANCE, gv_report, gv_term

    m = run.m
    sec = report.section("godbillon_vey")
    if not m.foliations:
        sec.values["total"] = 0.0
        sec.warnings.append("no foliations declared in the manifest")
        return
    # every expression compiles before any foliation is sampled; each foliation
    # is then sampled chunk by chunk as its GV pass reads it
    compiled = [[compile_expr(s) for s in e["omega"]] for e in m.foliations]
    specs = [_foliation_spec(entry, fns) for entry, fns in zip(m.foliations, compiled)]
    terms = [gv_term(spec, k, strict=run.args.strict) for k, spec in enumerate(specs)]
    gv = gv_report(terms)
    sec.values["total"] = gv.total
    sec.values["per_foliation"] = [
        {"label": lab, "gv": val, "taut": taut} for lab, val, taut in gv.per_foliation
    ]
    sec.values["integrability_residuals"] = list(gv.integrability_residuals)
    sec.tolerances["integrability"] = INTEGRABILITY_TOLERANCE
    sec.metadata["grids"] = [spec.grid for spec in specs]
    sec.warnings.extend(gv.warnings)


def run_leafwise(run: Run, report: InvariantReport):
    from .leafwise import METRIC_LIKE_TOLERANCE, leafwise_torsion

    block = dict(run.m.leafwise)
    weights = tuple(block.get("weights", (1.0, 1.0, 1.0)))
    res = leafwise_torsion(weights)
    sec = report.section("leafwise")
    sec.values.update(
        log_t=res.log_t,
        betti=list(res.betti),
        metric_dependent=res.metric_dependent,
        log_dets=list(res.per_degree_log_dets),
    )
    sec.tolerances["log_t_zero"] = METRIC_LIKE_TOLERANCE
    sec.metadata["weights"] = list(weights)
    if res.metric_dependent:
        sec.warnings.append("degree weights are not metric-like; torsion is metric-dependent")
    for key, why in (("truncation", "the determinants are closed forms over every Fourier mode"),
                     ("n_z", "the product model does not depend on the transverse coordinate")):
        if key in block:
            sec.warnings.append(f"the manifest's leafwise.{key} is ignored: {why}")


PIPELINES = {
    "reps": run_reps,
    "torsion": run_torsion,
    "casson": run_casson,
    "cs-check": run_cs_check,
    "gv": run_gv,
    "leafwise": run_leafwise,
}
SUBCOMMANDS = (*PIPELINES, "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taut3",
        description="3-manifold invariants from a JSON manifest",
        epilog="Exit codes:" + __doc__.split("Exit codes:")[1],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=SUBCOMMANDS, help="the pipeline to run")
    parser.add_argument("--manifest", required=True, help="path to the JSON manifest")
    parser.add_argument("--out", default=None, help="report output path (overrides manifest)")
    parser.add_argument("--no-cache", action="store_true", help="ignored: nothing is cached")
    parser.add_argument("--strict", action="store_true", help="tautness failures become errors")
    parser.add_argument("--seed", type=int, default=None, help="override every seeded stage")
    return parser


def _report_path_error(path: Path) -> OSError | None:
    """The OSError that writing the report to `path` would raise because it is
    a directory or its parent is not, found without creating or truncating it."""
    code = (errno.EISDIR if path.is_dir() else errno.ENOENT if not path.parent.exists()
            else errno.ENOTDIR if not path.parent.is_dir() else 0)
    return OSError(code, os.strerror(code), str(path)) if code else None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        m = load_manifest(args.manifest)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_path = args.out or m.output
    unwritable = out_path and _report_path_error(Path(out_path))
    if unwritable:  # before any pipeline runs; the write below may still fail
        print(f"error: cannot write the report: {unwritable}", file=sys.stderr)
        return EXIT_USAGE

    run = Run(m, args)
    report = InvariantReport(manifest_digest=manifest_digest(m.raw))
    names = list(PIPELINES) if args.command == "all" else [args.command]
    if args.command == "all" and "cyclic" in m.raw:
        report.section("cyclic").warnings.append(
            "the manifest's cyclic block is ignored: a cocycle on a fixed model of C(S^1) "
            "describes no declared manifold")
    try:
        for name in names:
            t0 = time.perf_counter()
            try:
                PIPELINES[name](run, report)
            except (ModuliNotFiniteError, RegularityError) as exc:
                if args.command != "all":
                    raise
                report.section(name.replace("-", "_")).warnings.append(f"skipped: {exc}")
            report.timings[name] = time.perf_counter() - t0
    except ValueError as exc:  # ManifestError, ParameterError, ExprError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModuliNotFiniteError, RegularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGULARITY
    except RuntimeError as exc:
        # only run_gv raises a TautnessError, and it has loaded foliation_gv to do so
        fg = sys.modules.get(f"{__package__}.foliation_gv")
        if fg is None or not isinstance(exc, fg.TautnessError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TAUTNESS

    if out_path:
        try:
            Path(out_path).write_text(report.to_json())
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_USAGE
    print(report.to_text())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
