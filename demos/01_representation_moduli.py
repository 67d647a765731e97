"""Flat SU(2) representation moduli for small closed 3-manifolds.

Constructs the conjugacy classes of SU(2) representations of the fundamental
group for lens spaces and Brieskorn spheres, and shows the unsigned
Casson-style count over the irreducible classes of the Poincare sphere.  The
Laplacian route that the C^2 twisted H^1 comes from is imported from the tests
(`tests/torsion_oracles.py`), since no run of the package computes it.
"""

import sys
from pathlib import Path

import numpy as np

from taut3.presentations import builtin_presentation, homology_h1
from taut3.su2reps import casson_count, enumerate_reps
from taut3.twisted_torsion import adjoint_h1_dims, build_twisted_complex

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from torsion_oracles import rs_torsion

print("=== Lens spaces L(p, 1) ===")
print("pi_1(L(p, q)) = Z/p is abelian, so every SU(2) representation lands in a")
print("maximal torus and the classes are labelled by a rotation angle 2*pi*k/p,")
print("k = 0 .. floor(p/2).  enumerate_reps builds exactly that census:\n")
for p in range(2, 9):
    moduli = enumerate_reps(builtin_presentation("Lens", p, 1))
    traces = sorted(round(float(r.trace_coords[0]), 4) for r in moduli.classes)
    print(f"  p = {p}: {len(moduli.classes)} classes, generator traces {traces}")

print("\n=== The Poincare sphere (Brieskorn (2, 3, 5)) ===")
p235 = builtin_presentation("Brieskorn", 2, 3, 5)
print(f"presentation: {p235.num_generators} generators, "
      f"{len(p235.relators)} relators, H_1 = 0 "
      f"(betti_1 = {homology_h1(p235).betti_1})")
print("Every irreducible class sends the central element s^3 = t^5 = (st)^2 to")
print("-1, so s, t and st rotate by pi/3, k pi/5 and pi/2 with k odd; one class")
print("per angle triple that satisfies the strict spherical triangle inequality.")
moduli = enumerate_reps(p235)
irr = [r for r in moduli.classes if r.irreducible]
print(f"classes constructed: {len(moduli.classes)} total, {len(irr)} irreducible")
for r in irr:
    tr = np.round(np.asarray(r.trace_coords, dtype=float), 4)
    print(f"  irreducible class: generator traces {tr.tolist()}, "
          f"relator residual {r.residual:.2e}")

print("\n=== Brieskorn spheres in general ===")
print("The same construction, on the Seifert presentation <x1, x2, x3, h> where")
print("no two-generator one exists, gives 2|sigma/8| irreducible classes, with")
print("sigma the signature of the Milnor fibre:")
for pqr in [(2, 3, 7), (2, 3, 11), (3, 4, 5), (2, 5, 7), (23, 29, 31)]:
    m = enumerate_reps(builtin_presentation("Brieskorn", *pqr))
    n_irr = sum(r.irreducible for r in m.classes)
    worst = max(r.residual for r in m.classes)
    print(f"  Sigma{pqr}: {n_irr} irreducible classes, largest relator residual {worst:.1e}")

print("\n=== Unsigned count ===")
print("Each irreducible class contributes +1 once H^1(pi; Ad rho) vanishes (the")
print("regularity certificate: 3g - 3 - rank of the Fox matrix of the relators")
print("under Ad rho).  The C^2 twisted complex is acyclic there as well:")
h1 = adjoint_h1_dims(p235, moduli)
c2 = [rs_torsion(build_twisted_complex(p235, r)).betti[1] for r in irr]
print(f"  H^1(Ad rho) dimensions: {h1}; C^2 twisted H^1 dimensions: {c2}")
print(f"  count = {casson_count(moduli, h1)}")
