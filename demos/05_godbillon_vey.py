"""Godbillon-Vey integrals of codimension-1 foliations on the 3-torus.

A foliation is presented by a nonvanishing integrable 1-form omega, given by its
three component functions; solving d omega = theta wedge omega pointwise gives
the connection 1-form, and GV = integral theta wedge d theta.  `gv_term`
computes all of it in one pass over slabs of the grid, sampling omega chunk by
chunk as the pass reads it, and also runs the transversal-circle tautness test
when a loop is given.  A component that is identically zero is given as None,
as `taut3 gv` gives an expression that folds to the constant 0: no expression
is evaluated for it, and where two components are left the pass reads it as
zeros.  A separable form e^h(z) (u(x) dx + v(y) dy + w(z) dz) is integrable,
and its discrete defect is roundoff.  On omega = f dz, the only
component present, theta = d log|f| is closed, so GV is exactly 0: `gv_term`
runs no pass there, reports 0.0, and refuses an f that changes sign on the
grid, since omega vanishes or has a pole between two samples.
"""

import numpy as np

from taut3.foliation_gv import FoliationSpec, SingularityError, gv_report, gv_term

n = 32
two_pi = 2 * np.pi


def f(x, y, z):
    return 0.3 * np.sin(two_pi * x) + 0.2 * np.cos(two_pi * y)


def e_h(z):
    return np.exp(0.3 * np.sin(two_pi * z))


exp_f = (None, None, lambda x, y, z: np.exp(f(x, y, z)))

print("=== omega = e^f dz (leaves are graphs over the xy-torus) ===")
(_label, gv, _taut), defect, _warning = gv_term(FoliationSpec(exp_f, n))
print(f"integrability residual |omega ^ d omega| / scales = {defect:.2e}")
print(f"GV integral = {gv!r}  (exactly 0: theta = d log f is closed)")
try:
    gv_term(FoliationSpec((None, None, lambda x, y, z: np.cos(two_pi * x)), 39))
except SingularityError as exc:
    print(f"omega = cos(2 pi x) dz at grid 39 is refused: {exc}")

print("\n=== omega = e^h(z) (u(x) dx + v(y) dy + w(z) dz) (separable) ===")
separable = (lambda x, y, z: e_h(z) * (2 + np.cos(two_pi * x)),
             lambda x, y, z: e_h(z) * (2 + np.sin(two_pi * y)),
             lambda x, y, z: e_h(z) * (3 + np.cos(two_pi * z)))
(_label, gv, _taut), defect, _warning = gv_term(FoliationSpec(separable, n))
print(f"integrability residual |omega ^ d omega| / scales = {defect:.2e}")
print(f"GV integral = {gv:+.3e}  (roundoff of 0: theta = dh is closed)")

print("\n=== Tautness via a transversal circle ===")
loop = tuple((0, 0, k) for k in range(n))  # a z-circle, transverse to the leaves
spec = FoliationSpec(exp_f, n, transversal=loop, label="exp-f")
print(f"z-circle against omega = e^f dz : taut = {gv_term(spec)[0][2]}")
bad = tuple((k, 0, 0) for k in range(n))  # an x-circle lies inside the leaves
bad_spec = FoliationSpec((None, None, lambda x, y, z: 1 + 0 * x), n, transversal=bad,
                         label="dz-x-loop")
print(f"x-circle against omega = dz     : taut = {gv_term(bad_spec)[0][2]}")
no_loop = FoliationSpec(exp_f, n, label="no-loop")
print(f"no transversal supplied         : taut = {gv_term(no_loop)[0][2]} (inconclusive)")

print("\n=== Summing over several representatives ===")
report = gv_report([gv_term(s, k) for k, s in enumerate([spec, no_loop])])
for (label, val, taut), defect in zip(report.per_foliation, report.integrability_residuals):
    print(f"  {label:<8} GV = {val:+.2e}  taut = {taut}  defect = {defect:.1e}")
print(f"total = {report.total:+.2e}")
for w in report.warnings:
    print(f"warning: {w}")
