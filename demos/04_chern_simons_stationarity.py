"""Lattice Chern-Simons action: gradient checks and flat stationarity.

The action S(A) = (k/4pi-normalization) sum tr(A cup dA + 2/3 A cup A cup A)
is an exact cubic polynomial in the lattice coefficients, so its analytic
gradient can be validated against finite differences to near machine
precision; flat (curvature-free) connections are stationary points.
"""

import numpy as np

from taut3 import LatticeConnection, action_gradient, cs_action, curvature
from taut3.chern_simons import FD_DIRECTIONS, stationarity_check

print("=== Random connection on a 4^3 grid ===")
conn = LatticeConnection.random(4, scale=0.2, seed=3)
rep = stationarity_check(conn, step=1e-4)
print(f"action value            : {cs_action(conn):+.6f}")
print(f"|grad S| (analytic)     : {rep.grad_norm:.6f}")
print(f"central differences along {FD_DIRECTIONS} random directions")
print(f"  relative disagreement : {rep.agreement:.2e}")
print(f"|F| (curvature)         : {rep.curvature_norm:.4f}  -> not stationary")

print("\n=== A flat connection is stationary ===")
coeffs = np.zeros((3, 4, 4, 4, 3))
coeffs[2, ..., 2] = 0.37  # constant abelian field along dz
flat = LatticeConnection.from_coefficients(coeffs)
print(f"|F|      = {np.linalg.norm(curvature(flat)):.2e}")
print(f"|grad S| = {np.linalg.norm(action_gradient(flat)):.2e}")

print("\n=== Directional derivatives converge at second order ===")
rng = np.random.default_rng(4)
v = rng.standard_normal(conn.coefficients().shape)
v /= np.linalg.norm(v)
exact = float(np.sum(action_gradient(conn) * v))
c0 = conn.coefficients()
prev = None
for h in (0.4, 0.2, 0.1, 0.05):
    sp = cs_action(LatticeConnection.from_coefficients(c0 + h * v))
    sm = cs_action(LatticeConnection.from_coefficients(c0 - h * v))
    err = abs((sp - sm) / (2 * h) - exact)
    order = f"  order {np.log2(prev / err):.2f}" if prev else ""
    print(f"  h = {h:<5} error = {err:.3e}{order}")
    prev = err
