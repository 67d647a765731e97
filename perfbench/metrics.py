"""Names, units and directions of every metric the benchmark reports.

`BENCHMARK.json` at the repository root lists the same metrics; the smoke
test checks that the two agree.
"""

from __future__ import annotations

# name -> (unit, better); bounds live in BENCHMARK.json only
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_cpu_p50_s": ("s", "lower"),
    "class_recall": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

MODULES = (
    "cache", "chern_simons", "cli", "cyclic", "exprs", "foliation_gv", "leafwise",
    "manifest", "presentations", "reports", "su2", "su2reps", "twisted_torsion", "zeta",
)

# functions whose per-op call count / inclusive seconds are reported
COUNTED = (
    "su2.qmul", "su2.qpow", "su2.qexp", "su2.qlog",
    "su2reps.enumerate_reps", "su2reps.relator_residual",
    "presentations.homology_h1",
    "twisted_torsion.build_twisted_complex",
    "zeta.zeta_log_det",
    "foliation_gv.d",
)
TIMED = (
    "su2reps.enumerate_reps", "su2reps.relator_residual", "su2reps.trace_coordinates",
    "presentations.homology_h1",
    "twisted_torsion.build_twisted_complex", "twisted_torsion.twisted_laplacians",
    "twisted_torsion.betti_numbers",
    "zeta.zeta_log_det",
    "chern_simons.stationarity_check", "chern_simons.finite_difference_gradient",
    "chern_simons.action_gradient", "chern_simons.curvature",
    "foliation_gv.form_from_functions", "foliation_gv.integrability_residual",
    "foliation_gv.solve_theta", "foliation_gv.gv_integral", "foliation_gv.tautness_check",
    "exprs.compile_expr",
    "manifest.load_manifest",
    "cli.run_reps", "cli.run_torsion", "cli.run_casson", "cli.run_cs_check", "cli.run_gv",
    "cli.run_leafwise", "cli.run_cyclic",
    "reports.to_json",
)

PER_LAYER = {
    **{f"{f}_calls": ("count", "lower") for f in COUNTED},
    **{f"{f}_s": ("s", "lower") for f in TIMED},
    "su2.qmul_products": ("count", "lower"),
    "su2.bytes_computed": ("B", "lower"),
    "su2.busy_s": ("s", "lower"),
    "su2reps.classes_found": ("count", "higher"),
    "su2reps.recompute_ratio": ("ratio", "lower"),
    "twisted_torsion.complex_recompute_ratio": ("ratio", "lower"),
    "chern_simons.action_evals_computed": ("count", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES if m != "su2"},
    **{f"{m}.calls": ("count", "lower") for m in MODULES},
    "trace.traced_op_p50_s": ("s", "lower"),
    "trace.untraced_op_p50_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans_per_op": ("count", "lower"),
}

# bytes a quaternion product reads and writes: two operands and a result, 4 float64 each
QMUL_BYTES = 3 * 4 * 8
