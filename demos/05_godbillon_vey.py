"""Godbillon-Vey integrals of codimension-1 foliations on the 3-torus.

A foliation is presented by a nonvanishing integrable 1-form omega, given by its
three component functions; solving d omega = theta wedge omega pointwise gives
the connection 1-form, and GV = integral theta wedge d theta.  `gv_term`
computes all of it in one pass over slabs of the grid, sampling omega chunk by
chunk as the pass reads it, and also runs the transversal-circle tautness test
when a loop is given.
"""

import numpy as np

from taut3.foliation_gv import FoliationSpec, gv_report, gv_term

n = 32
two_pi = 2 * np.pi


def f(x, y, z):
    return 0.3 * np.sin(two_pi * x) + 0.2 * np.cos(two_pi * y)


def zero(x, y, z):
    return 0 * x


exp_f = (zero, zero, lambda x, y, z: np.exp(f(x, y, z)))

print("=== omega = e^f dz (leaves are graphs over the xy-torus) ===")
(_label, gv, _taut, res), defect, _warning = gv_term(FoliationSpec(exp_f, n))
print(f"integrability residual |omega ^ d omega| / scales = {defect:.2e}")
print(f"connection-form residual |omega ^ d omega| / |omega| over |d omega| = {res:.2e}")
print(f"GV integral = {gv:+.2e}  (this family has vanishing GV)")

print("\n=== Tautness via a transversal circle ===")
loop = tuple((0, 0, k) for k in range(n))  # a z-circle, transverse to the leaves
spec = FoliationSpec(exp_f, n, transversal=loop, label="exp-f")
print(f"z-circle against omega = e^f dz : taut = {gv_term(spec)[0][2]}")
bad = tuple((k, 0, 0) for k in range(n))  # an x-circle lies inside the leaves
bad_spec = FoliationSpec((zero, zero, lambda x, y, z: 1 + 0 * x), n, transversal=bad,
                         label="dz-x-loop")
print(f"x-circle against omega = dz     : taut = {gv_term(bad_spec)[0][2]}")
no_loop = FoliationSpec(exp_f, n, label="no-loop")
print(f"no transversal supplied         : taut = {gv_term(no_loop)[0][2]} (inconclusive)")

print("\n=== Summing over several representatives ===")
report = gv_report([gv_term(s, k) for k, s in enumerate([spec, no_loop])])
for (label, val, taut, resid), defect in zip(report.per_foliation, report.integrability_residuals):
    print(f"  {label:<8} GV = {val:+.2e}  taut = {taut}  residual = {resid:.1e}  "
          f"defect = {defect:.1e}")
print(f"total = {report.total:+.2e}")
for w in report.warnings:
    print(f"warning: {w}")
