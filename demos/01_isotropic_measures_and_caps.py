#!/usr/bin/env python3
"""Isotropic measures on the sphere and the cap machinery.

Walks through: building measures, solving for isotropic weights, the
open-cap mass bound, and the Dvoretzky-Rogers cap construction whose
centers span a quantitatively non-degenerate frame.
"""

import numpy as np

from isozonoid import (beta_dr, cap_mass, check_isotropy, cross_measure,
                       dvoretzky_rogers_caps, equiangular_measure,
                       verify_isotropic_cap_bound)

print("=" * 70)
print("1. Cross and hexagonal measures")
print("=" * 70)
nu2 = cross_measure(2)
hexm = equiangular_measure(3)
for name, mu in (("nu_2", nu2), ("hexagonal", hexm)):
    rep = check_isotropy(mu)
    print(f"{name}: atoms={mu.natoms}  mass={rep.total_mass:.3f}  "
          f"isotropy deviation={rep.deviation:.2e}")

print()
print("=" * 70)
print("2. Solving for isotropic weights on a random direction set")
print("=" * 70)
# not every direction set supports nonnegative isotropic weights; the
# harness helper resamples until the moment solve is feasible
from isozonoid.harness import random_even_isotropic

rng = np.random.default_rng(7)
mu = random_even_isotropic(2, 7, rng)
print(f"directions offered: 14, atoms kept: {mu.natoms}")
print(f"weights: {np.round(mu.weights, 6)}")
print(f"residual: {check_isotropy(mu).deviation:.2e}")

print()
print("=" * 70)
print("3. Cap mass bound: mu(open caps at +-v) >= 1 - n cos^2(alpha)")
print("=" * 70)
for alpha in (0.6, 0.9, 1.2):
    lhs, rhs, ok = verify_isotropic_cap_bound(hexm, [1.0, 0.0], alpha)
    print(f"alpha={alpha:.2f}: mass={lhs:.4f} >= bound={rhs:+.4f}  [{ok}]")

print()
print("=" * 70)
print("4. Dvoretzky-Rogers caps")
print("=" * 70)
for name, mu in (("nu_2", nu2), ("hexagonal", hexm), ("nu_3", cross_measure(3))):
    V, beta = dvoretzky_rogers_caps(mu)
    n = mu.dim
    masses = [cap_mass(mu, v, beta) for v in V]
    det = abs(np.linalg.det(V))
    print(f"{name}: beta={beta:.6f}  cap masses={np.round(masses, 4)}  "
          f"|det|={det:.4f} >= 4n*beta={4 * n * beta:.4f}")
print()
print(f"(beta(n) = 2^-(n+1) n^-(n+1)/2: "
      f"beta(2)={beta_dr(2):.6f}, beta(3)={beta_dr(3):.6f})")
