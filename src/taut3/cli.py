"""Manifest-driven command line front end.

Each subcommand runs one invariant pipeline; `all` runs every pipeline that
applies to the manifest's manifold, reporting the others as skipped.  The
pipelines of one invocation share a `Run`, so the presentation (with the
cells of the twisted complexes), the flat moduli and the torsion sum (one
twisted complex per class) are each computed once.  Reports are written as
JSON (sections, tolerances, warnings) with timings kept in a separate block so
repeated runs with the same seed produce identical reports modulo timing fields.

Exit codes:
  0  success
  2  manifest parse/schema error or bad arguments
  3  unsupported family for the requested pipeline
  4  regularity or finiteness failure (the construction does not apply)
  5  tautness failure under --strict
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import chern_simons as cs
from . import cyclic as cyc
from . import foliation_gv as fg
from . import leafwise as lw
from .exprs import ExprError, compile_expr
from .manifest import Manifest, ManifestError, load_manifest
from .presentations import ParameterError, builtin_presentation
from .reports import InvariantReport, manifest_digest
from .su2reps import (
    RESIDUAL_TOLERANCE,
    ModuliNotFiniteError,
    RegularityError,
    casson_count,
    enumerate_reps,
    require_finite_moduli,
)
from .twisted_torsion import UnsupportedFamilyError, require_cells, torsion_sum
from .zeta import ZERO_THRESHOLD

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_REGULARITY = 4
EXIT_TAUTNESS = 5

SUBCOMMANDS = ("reps", "torsion", "casson", "cs-check", "gv", "leafwise", "cyclic", "all")


@dataclass
class Run:
    """One invocation: manifest and flags, plus every artifact the pipelines
    share, each computed at most once and only when first read."""

    m: Manifest
    args: argparse.Namespace

    @cached_property
    def presentation(self):
        return builtin_presentation(self.m.family, *self.m.params)

    @cached_property
    def moduli(self):
        return enumerate_reps(self.presentation)

    @cached_property
    def torsion(self):
        # refuse before the moduli are enumerated
        require_finite_moduli(require_cells(self.presentation))
        return torsion_sum(self.presentation, self.moduli)


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
    m, result = run.m, run.torsion
    sec = report.section("torsion")
    sec.values.update(
        total=result.total,
        irreducible_subtotal=result.irreducible_subtotal,
        per_class=[
            {
                "trace_coordinates": [round(float(t), 10) for t in tc],
                "log_t": res.log_t,
                "t": res.t,
                "acyclic": res.acyclic,
                "metric_dependent": res.metric_dependent,
            }
            for tc, res, _irr in result.per_class
        ],
    )
    sec.tolerances["zero_eigenvalue_threshold"] = ZERO_THRESHOLD
    sec.metadata["family"] = m.family
    sec.warnings.extend(result.notes)


def run_casson(run: Run, report: InvariantReport):
    m = run.m
    h1 = run.presentation.h1
    if h1.betti_1 != 0 or h1.torsion_coefficients:
        raise RegularityError(
            f"{m.family}{tuple(m.params)}: not an integral homology sphere; "
            "the counting construction does not apply"
        )
    # the same twisted H^1 of each irreducible class that the torsion pass computed
    regularity = [res.betti[1] for _tc, res, irr in run.torsion.per_class if irr]
    count = casson_count(run.moduli, regularity)
    sec = report.section("casson")
    sec.values["unsigned_count"] = count
    sec.values["twisted_h1_dims"] = regularity
    sec.metadata["convention"] = "unsigned: each irreducible class weighted +1"
    sec.tolerances["relator_residual"] = RESIDUAL_TOLERANCE


def run_cs_check(run: Run, report: InvariantReport):
    block = dict(run.m.chern_simons)
    n = block.get("grid", 4)
    scale = block.get("scale", 0.1)
    level = block.get("level", 1.0)
    step = block.get("step", 1e-4)
    seed = run.args.seed if run.args.seed is not None else block.get("seed", 0)
    conn = cs.LatticeConnection.random(n, scale=scale, seed=seed)
    rep = cs.stationarity_check(conn, step=step, level=level)
    flat = cs.LatticeConnection.zero(n)
    flat_grad = float(np.linalg.norm(cs.action_gradient(flat, level)))
    sec = report.section("chern_simons")
    sec.values.update(
        action=cs.cs_action(conn, level),
        grad_norm=rep.grad_norm,
        curvature_norm=rep.curvature_norm,
        fd_agreement=rep.agreement,
        flat_connection_grad_norm=flat_grad,
    )
    sec.tolerances["fd_agreement"] = 1e-5
    sec.tolerances["fd_step"] = step
    sec.metadata.update(grid=n, scale=scale, level=level, seed=seed, fd_directions=cs.FD_DIRECTIONS)


def _foliation_spec(entry, fns):
    trans = entry.get("transversal")
    return fg.FoliationSpec(
        omega=fg.form_from_functions(1, entry.get("grid", 32), *fns),
        transversal=tuple(tuple(p) for p in trans) if trans else None,
        label=entry.get("label", ""),
    )


def run_gv(run: Run, report: InvariantReport):
    m = run.m
    sec = report.section("godbillon_vey")
    if not m.foliations:
        sec.values["total"] = 0.0
        sec.warnings.append("no foliations declared in the manifest")
        return
    # every expression compiles before any foliation is sampled; then each
    # foliation is sampled and evaluated in turn, so one ω is alive at a time
    compiled = [[compile_expr(s) for s in e["omega"]] for e in m.foliations]
    terms = [
        fg.gv_term(_foliation_spec(entry, fns), k, strict=run.args.strict)
        for k, (entry, fns) in enumerate(zip(m.foliations, compiled))
    ]
    gv = fg.gv_report(terms)
    sec.values["total"] = gv.total
    sec.values["per_foliation"] = [
        {"label": lab, "gv": val, "taut": taut, "theta_residual": res}
        for lab, val, taut, res in gv.per_foliation
    ]
    sec.values["integrability_residuals"] = list(gv.integrability_residuals)
    sec.tolerances["integrability"] = fg.INTEGRABILITY_TOLERANCE
    sec.metadata["grids"] = [e.get("grid", 32) for e in m.foliations]
    sec.warnings.extend(gv.warnings)


def run_leafwise(run: Run, report: InvariantReport):
    block = dict(run.m.leafwise)
    trunc = block.get("truncation", 4)
    weights = tuple(block.get("weights", (1.0, 1.0, 1.0)))
    res = lw.leafwise_torsion(trunc, weights)
    sec = report.section("leafwise")
    sec.values.update(
        log_t=res.log_t,
        betti=list(res.betti),
        metric_dependent=res.metric_dependent,
        log_dets=list(res.per_degree_log_dets),
    )
    sec.tolerances["log_t_zero"] = lw.METRIC_LIKE_TOLERANCE
    sec.metadata.update(truncation=trunc, weights=list(weights))
    if res.metric_dependent:
        sec.warnings.append("degree weights are not metric-like; torsion is metric-dependent")
    if "n_z" in block:
        sec.warnings.append("the manifest's leafwise.n_z is ignored: the product model "
                            "does not depend on the transverse coordinate")


def run_cyclic(run: Run, report: InvariantReport):
    block = dict(run.m.cyclic)
    bound = block.get("degree_bound", 8)
    tau = cyc.fundamental_cocycle(bound)
    sec = report.section("cyclic")
    sec.values["winding_pairings"] = {
        str(nw): cyc.k_pairing(cyc.mode(nw), tau)
        for nw in block.get("windings", range(-3, 4))
    }
    sec.tolerances["winding"] = cyc.PAIRING_TOLERANCE
    sec.metadata["degree_bound"] = bound


PIPELINES = {
    "reps": run_reps,
    "torsion": run_torsion,
    "casson": run_casson,
    "cs-check": run_cs_check,
    "gv": run_gv,
    "leafwise": run_leafwise,
    "cyclic": run_cyclic,
}


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        m = load_manifest(args.manifest)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    run = Run(m, args)
    report = InvariantReport(manifest_digest=manifest_digest(m.raw))
    names = list(PIPELINES) if args.command == "all" else [args.command]
    try:
        for name in names:
            t0 = time.perf_counter()
            try:
                PIPELINES[name](run, report)
            except (ModuliNotFiniteError, UnsupportedFamilyError, RegularityError) as exc:
                if args.command != "all":
                    raise
                report.section(name.replace("-", "_")).warnings.append(f"skipped: {exc}")
            report.timings[name] = time.perf_counter() - t0
    except UnsupportedFamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ManifestError, ParameterError, ExprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModuliNotFiniteError, RegularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGULARITY
    except fg.TautnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TAUTNESS

    out_path = args.out or m.output
    if out_path:
        Path(out_path).write_text(report.to_json())
    print(report.to_text())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
