"""Leafwise (tangential) determinants and torsion for the product foliation of T^3.

The foliation of T^3 by horizontal unit-square 2-tori has a tangential de Rham
complex along the leaves.  Kronecker's first limit formula gives the
zeta-regularised determinant of the leaf Laplacian in closed form,
log det' = 4 log(Gamma(1/4) / (2 pi^(3/4))), with zeta_Delta(0) = -1; that is
what the package reports.  The truncated Fourier spectra, whose partial sums
diverge with the truncation, are an oracle of the tests
(`tests/leafwise_oracles.py`), shown here beside the closed form.
"""

import math
import sys
from pathlib import Path

import numpy as np

from taut3.leafwise import LOG_DET_LAPLACIAN, leafwise_torsion

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from leafwise_oracles import tangential_laplacian, truncated_log_t

print("=== The leaf Laplacian on functions ===")
print("Eigenvalues 4 pi^2 (m^2 + n^2), (m, n) in Z^2; zeta_Delta(s) = 4 (4 pi^2)^-s zeta(s) beta(s).")
print(f"closed form log det' = 4 log(Gamma(1/4) / (2 pi^(3/4))) = {LOG_DET_LAPLACIAN:.16f}")
print("Partial sums of log(lambda) over |m|, |n| <= T grow like T^2 log T:")
print("   T   nonzero modes   sum of log(lambda)")
for T in (1, 2, 4, 8, 16, 32):
    s = tangential_laplacian(0, T)
    print(f"  {T:2d}   {(2 * T + 1) ** 2 - 1:13d}   {s.log_det:18.6f}")

M = 4
print(f"\n=== The truncated spectra (oracle, |m|, |n| <= {M}) ===")
s0, s1, s2 = (tangential_laplacian(k, M) for k in range(3))
print(f"  kernel dimensions: {(s0.kernel_dim, s1.kernel_dim, s2.kernel_dim)}")
print(f"  spec(Delta_2) == spec(Delta_0): {np.array_equal(s2.eigenvalues, s0.eigenvalues)}")
nz0 = np.sort(s0.eigenvalues[s0.eigenvalues > 0])
nz1 = np.sort(s1.eigenvalues[s1.eigenvalues > 0])
print(f"  nonzero spec(Delta_1) == two copies of nonzero spec(Delta_0): "
      f"{np.array_equal(nz1, np.sort(np.concatenate([nz0, nz0])))}")

print("\n=== Leafwise torsion ===")
print("Poincare duality along the leaves forces log T = 0 for any honest")
print("leafwise metric; an asymmetric degree scaling breaks the pairing and")
print("shows up as a nonzero, metric-dependent value, (1/2) log(c1^2 / (c0 c2)).")
print(f"The truncated log T has the nonzero-mode count {(2 * M + 1) ** 2 - 1} where the")
print("closed form has zeta_Delta(0) = -1:")
for weights in [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (1.0, 2.0, 1.0)]:
    res = leafwise_torsion(weights)
    flag = "metric-dependent!" if res.metric_dependent else "metric-independent"
    truncated = truncated_log_t(M, weights)[0]
    print(f"  weights {weights}: log T = {res.log_t:+.6f}  ({flag}); "
          f"truncated at {M}: {truncated:+.6f}")
print(f"log 2 = {math.log(2.0):.16f}")
