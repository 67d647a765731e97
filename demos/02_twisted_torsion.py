"""Twisted chain complexes and the torsion sum over flat moduli.

Builds the SU(2)-twisted cellular complex of a manifold via Fox calculus
(the Fox derivatives of the relators give the 2x2 blocks of D2), checks
exactness at an acyclic representation, and evaluates the zeta-style torsion
of its Laplacians with the route kept in the tests (`tests/torsion_oracles.py`).
The package's own `torsion_sum` reads each class's torsion off the images of
the presentation's core words instead, and gives the same numbers.
"""

import sys
from pathlib import Path

import numpy as np

from taut3 import enumerate_reps, torsion_sum
from taut3.twisted_torsion import build_twisted_complex, cw_structure

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from torsion_oracles import dims, rs_torsion

print("=== Twisted complex for the Poincare sphere ===")
# the presentation, with the boundary of its 3-cell
cw = cw_structure("Brieskorn", 2, 3, 5)
# the exact flat classes: the trivial one and the two spherical-triangle classes
moduli = enumerate_reps(cw)
rep = next(r for r in moduli.classes if r.irreducible)
c = build_twisted_complex(cw, rep)
print(f"chain dimensions: {dims(c)}")
print(f"||D1 D2|| = {np.linalg.norm(c.d1 @ c.d2):.2e}, "
      f"||D2 D3|| = {np.linalg.norm(c.d2 @ c.d3):.2e}")
res = rs_torsion(c)
print(f"twisted betti numbers: {res.betti}  (acyclic: {res.acyclic})")
print(f"torsion of this class: T = {res.t:.6f}  (log T = {res.log_t:.6f})")

print("\n=== Sum over the flat moduli ===")
print("t = 4 / prod_j (2 - tr rho(c_j)) over the cores s, t, st, where rho(s^3) = -1;")
print("the trivial class gets the cellular value 2 log|H_1| = 0:")
s = torsion_sum(cw, moduli=moduli)
for traces, r, irreducible in s.per_class:
    tag = "irreducible" if irreducible else "reducible  "
    print(f"  {tag}  traces {np.round(traces, 4).tolist()}  T = {r.t:.6f}")
print(f"irreducible subtotal = {s.irreducible_subtotal:.6f}")
print(f"total                = {s.total:.6f}")
for note in s.notes:
    print(f"note: {note}")
