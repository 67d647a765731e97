"""Zeta-regularized determinants: finite spectra and the circle benchmark.

For a finite spectrum the zeta-determinant is just the product of nonzero
eigenvalues; the classical infinite benchmark det'(-d^2/dtheta^2) = 4 pi^2
on the unit circle is recovered by Euler-Maclaurin continuation.  The package
computes neither (its only determinants are the closed forms of demo 06), so
both come from its tests (`tests/zeta_oracles.py`).
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from zeta_oracles import circle_laplacian_log_det, zeta_log_det

print("=== Finite spectra ===")
lam = np.array([0.0, 0.0, 2.0, 3.0, 5.0])
print(f"spectrum            : {lam.tolist()}")
print(f"zeta log-det        : {zeta_log_det(lam):.12f}")
print(f"log(2 * 3 * 5)      : {math.log(30.0):.12f}")

print("\n=== The circle Laplacian ===")
print("Eigenvalues n^2 (n in Z, each nonzero one twice); the naive product")
print("diverges, but zeta(s) = 2 sum n^(-2s) continues to s = 0 and gives")
print("log det' = -2 zeta'(0) * 2 = log(4 pi^2).")
got = circle_laplacian_log_det()
want = math.log(4 * math.pi**2)
print(f"computed log det'   : {got:.12f}")
print(f"log(4 pi^2)         : {want:.12f}")
print(f"absolute error      : {abs(got - want):.2e}")
