"""Leafwise (tangential) spectra and torsion for the product foliation of T^3.

The foliation of T^3 by horizontal 2-tori has a tangential de Rham complex
along the leaves; its Laplacians diagonalize in the Fourier basis, so
kernel dimensions, spectral identities, and the leafwise torsion are exact.
"""

import numpy as np

from taut3.leafwise import leafwise_torsion, tangential_laplacian

M = 4
print(f"=== Tangential Laplacians (Fourier truncation |m|, |n| <= {M}) ===")
for k in range(3):
    s = tangential_laplacian(k, M)
    nz = s.eigenvalues[s.eigenvalues > 0]
    print(f"  degree {k}: dim = {s.eigenvalues.size}, kernel = {s.kernel_dim}, "
          f"smallest nonzero = {nz.min():.4f} (= 4 pi^2)")

print("\nHodge-type identities hold exactly:")
s0, s1, s2 = (tangential_laplacian(k, M) for k in range(3))
print(f"  spec(Delta_2) == spec(Delta_0): "
      f"{np.array_equal(s2.eigenvalues, s0.eigenvalues)}")
nz0 = np.sort(s0.eigenvalues[s0.eigenvalues > 0])
nz1 = np.sort(s1.eigenvalues[s1.eigenvalues > 0])
print(f"  nonzero spec(Delta_1) == two copies of nonzero spec(Delta_0): "
      f"{np.array_equal(nz1, np.sort(np.concatenate([nz0, nz0])))}")

print("\n=== Leafwise torsion ===")
print("Poincare duality along the leaves forces log T = 0 for any honest")
print("leafwise metric; an asymmetric degree scaling breaks the pairing and")
print("shows up as a nonzero, metric-dependent value:")
for weights in [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (1.0, 2.0, 1.0)]:
    res = leafwise_torsion(M, weights=weights)
    flag = "metric-dependent!" if res.metric_dependent else "metric-independent"
    print(f"  weights {weights}: log T = {res.log_t:+.6f}  ({flag})")
