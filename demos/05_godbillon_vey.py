"""Godbillon-Vey integrals of codimension-1 foliations on the 3-torus.

A foliation is presented by a nonvanishing integrable 1-form omega; solving
d omega = theta wedge omega pointwise gives the connection 1-form, and
GV = integral theta wedge d theta.  `gv_term` computes all of it in one pass
over slabs of the grid.  The demo also runs the transversal-circle tautness
test.
"""

import numpy as np

from taut3.foliation_gv import (
    FoliationSpec,
    form_from_functions,
    gv_report,
    gv_term,
    tautness_check,
)

n = 32
two_pi = 2 * np.pi


def f(x, y, z):
    return 0.3 * np.sin(two_pi * x) + 0.2 * np.cos(two_pi * y)


print("=== omega = e^f dz (leaves are graphs over the xy-torus) ===")
omega = form_from_functions(1, n, lambda x, y, z: 0 * x, lambda x, y, z: 0 * x,
                            lambda x, y, z: np.exp(f(x, y, z)))
(_label, gv, _taut, res), defect, _warning = gv_term(FoliationSpec(omega))
print(f"integrability residual |omega ^ d omega| / scales = {defect:.2e}")
print(f"connection-form residual |d omega - theta ^ omega| = {res:.2e}")
print(f"GV integral = {gv:+.2e}  (this family has vanishing GV)")

print("\n=== Tautness via a transversal circle ===")
loop = tuple((0, 0, k) for k in range(n))  # a z-circle, transverse to the leaves
spec = FoliationSpec(omega=omega, transversal=loop, label="exp-f")
print(f"z-circle against omega = e^f dz : taut = {tautness_check(spec)}")
bad = tuple((k, 0, 0) for k in range(n))  # an x-circle lies inside the leaves
flat_omega = form_from_functions(1, n, lambda x, y, z: 0 * x,
                                 lambda x, y, z: 0 * x, lambda x, y, z: 1 + 0 * x)
bad_spec = FoliationSpec(omega=flat_omega, transversal=bad, label="dz-x-loop")
print(f"x-circle against omega = dz     : taut = {tautness_check(bad_spec)}")
no_loop = FoliationSpec(omega=omega, label="no-loop")
print(f"no transversal supplied         : taut = {tautness_check(no_loop)} "
      "(inconclusive)")

print("\n=== Summing over several representatives ===")
report = gv_report([gv_term(s, k) for k, s in enumerate([spec, no_loop])])
for (label, val, taut, resid), defect in zip(report.per_foliation, report.integrability_residuals):
    print(f"  {label:<8} GV = {val:+.2e}  taut = {taut}  residual = {resid:.1e}  "
          f"defect = {defect:.1e}")
print(f"total = {report.total:+.2e}")
for w in report.warnings:
    print(f"warning: {w}")
