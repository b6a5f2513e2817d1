#!/usr/bin/env python3
"""The monotone transport maps between exp(-|t|^p) densities and the Gaussian.

Shows the CDF-matching maps, their closed-form derivatives, the uniform
derivative box on [0, 1/3.1], and the signed second-derivative bounds that
drive the stability estimates.
"""

import math

import numpy as np

from isozonoid.transport import (phi_p, phi_p_derivatives, psi_p, rho_p,
                                 second_derivative_bound_phi,
                                 verify_derivative_box,
                                 verify_second_derivative_bounds)

P_LIST = [1, 1.2, 1.5, 1.9, 2.1, 2.3, 2.7, 3, 5, 10, math.inf]

print("=" * 70)
print("1. The maps are inverse odd bijections; p = 2 is the fixed point")
print("=" * 70)
for p in (1, 2.3, 7):
    t = 0.8
    f = phi_p(p, t)
    print(f"p={p}: phi({t}) = {f:.6f},  psi(phi({t})) = {psi_p(p, f):.12f}")
print(f"phi_2(0.8) = {phi_p(2, 0.8):.12f}  (identity)")

print()
print("=" * 70)
print("2. Mass transport identity rho_p(t) = rho_2(phi(t)) phi'(t)")
print("=" * 70)
for p in (1, 2.7, math.inf):
    ts = np.linspace(-0.9, 0.9, 7)
    v, d1, _ = phi_p_derivatives(p, ts)
    err = np.max(np.abs(rho_p(p, ts) - rho_p(2, v) * d1))
    print(f"p={p}: max identity error on [-0.9, 0.9] = {err:.2e}")

print()
print("=" * 70)
print("3. First-derivative box 1/3.1 < phi', psi' < 3.1 on [0, 1/3.1]")
print("=" * 70)
grid = np.linspace(0.0, 1.0 / 3.1, 257)
for p in P_LIST:
    rep = verify_derivative_box(p, grid)
    print(f"p={str(p):>4}: pass, worst margin {rep.worst_margin:+.4f}")

print()
print("=" * 70)
print("4. Signed second-derivative bounds (three branches in p)")
print("=" * 70)
grid2 = np.linspace(1e-4, 1.0 / 8 - 1e-9, 257)
for p in P_LIST:
    if p == 2:
        print("p=   2: skipped (bounds vacuous at the fixed point)")
        continue
    rep = verify_second_derivative_bounds(p, grid2)
    side, bnd = second_derivative_bound_phi(p, 0.05)
    d2 = phi_p_derivatives(p, 0.05)[2]
    print(f"p={str(p):>4}: pass;  phi''(0.05)={d2:+.5f} "
          f"vs {side} bound {bnd:+.5f}")
