"""Degree-1 cyclic cocycles on a truncated Fourier model of C(S^1).

The fundamental cocycle tau(f0, f1) = (1/2*pi*i) int f0 df1 is represented
as a kernel matrix on Fourier coefficients; it is a Hochschild cocycle,
cyclic, and pairs with unitaries u to give their winding number.  The
coboundary b and the cyclic permutation lambda that check the first two come
from the tests (`tests/cyclic_oracles.py`).
"""

import sys
from pathlib import Path

import numpy as np

from taut3.cyclic import HeadroomError, fundamental_cocycle, k_pairing, mode

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from cyclic_oracles import cyclic_lambda, hochschild_b, random_trig

tau = fundamental_cocycle(degree_bound=8)
rng = np.random.default_rng(0)

print("=== Cocycle identities ===")
b = hochschild_b(tau)
f0, f1, f2 = (random_trig(3, rng) for _ in range(3))
print(f"(b tau)(f0, f1, f2)     = {abs(b(f0, f1, f2)):.2e}  (Hochschild cocycle)")
lam = cyclic_lambda(tau)
print(f"max |lambda tau - tau|  = {np.max(np.abs(lam.kernel - tau.kernel)):.2e}  "
      "(cyclic)")
print(f"tau(f, g) + tau(g, f)   = {abs(tau(f0, f1) + tau(f1, f0)):.2e}  "
      "(antisymmetric)")

print("\n=== Winding numbers via the pairing ===")
for k in range(-3, 4):
    print(f"  u = e^(i {k:+d} theta): <u, tau> = {k_pairing(mode(k), tau):+.6f}")

print("\nA winding past the cochain's degree bound is refused, not read as 0:")
try:
    k_pairing(mode(9), tau)
except HeadroomError as exc:
    print(f"  u = e^(i +9 theta): {exc}")
