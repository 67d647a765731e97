"""Twisted chain complexes and the torsion sum over flat moduli.

Builds the SU(2)-twisted cellular complex of a manifold via Fox calculus,
checks exactness at an acyclic representation, evaluates the zeta-style
torsion, and sums it over all flat classes.
"""

import numpy as np

from taut3 import (
    builtin_presentation,
    build_twisted_complex,
    cw_structure,
    enumerate_reps,
    fox_derivative,
    rs_torsion,
    torsion_sum,
)
from taut3.presentations import concat_words, gen

print("=== Fox calculus sanity ===")
w = concat_words(gen(0, 2), gen(1, -1))  # x^2 y^-1
print(f"d/dx (x^2 y^-1) = {fox_derivative(w, 0)}")
print(f"d/dy (x^2 y^-1) = {fox_derivative(w, 1)}")

print("\n=== Twisted complex for the Poincare sphere ===")
cw = cw_structure("Brieskorn", 2, 3, 5)
# the exact flat classes: the trivial one and the two spherical-triangle classes
moduli = enumerate_reps(builtin_presentation("Brieskorn", 2, 3, 5))
rep = next(r for r in moduli.classes if r.irreducible)
c = build_twisted_complex(cw, rep)
print(f"chain dimensions: {c.dims}")
print(f"||D1 D2|| = {np.linalg.norm(c.d1 @ c.d2):.2e}, "
      f"||D2 D3|| = {np.linalg.norm(c.d2 @ c.d3):.2e}")
print(f"twisted betti numbers: {c.betti_numbers()}  (acyclic: {c.is_acyclic()})")

res = rs_torsion(c)
print(f"torsion of this class: T = {res.t:.6f}  (log T = {res.log_t:.6f})")

print("\n=== Sum over the flat moduli ===")
s = torsion_sum(builtin_presentation("Brieskorn", 2, 3, 5), cw, moduli=moduli)
for traces, r, irreducible in s.per_class:
    tag = "irreducible" if irreducible else "reducible  "
    print(f"  {tag}  traces {np.round(traces, 4).tolist()}  T = {r.t:.6f}")
print(f"irreducible subtotal = {s.irreducible_subtotal:.6f}")
print(f"total                = {s.total:.6f}")
for note in s.notes:
    print(f"note: {note}")
