#!/usr/bin/env python3
"""L_p zonoid volumes: exact polytopes, quadrature, and cross-checks.

The cross measure is extremal: V(Z_p) is minimal and V(Z*_p) maximal
among even isotropic measures.  This script reproduces the closed-form
polar volumes and shows the volume computation routes agreeing.
"""

import math

import numpy as np

from isozonoid import (cross_measure, equiangular_measure, reference_volume,
                       volume_Zp_star_ball_integral, zonoid_volumes)
from isozonoid.harness import random_even_isotropic

print("=" * 70)
print("1. Closed-form polar volumes of the cross measure")
print("   V(Z*_p(nu_n)) = 2^n Gamma(1+1/p)^n / Gamma(1+n/p)")
print("=" * 70)
print(f"{'n':>2} {'p':>4} {'body volume':>14} {'closed form':>14} "
      f"{'rel diff':>10} {'method':>10}")
for n in (2, 3):
    mu = cross_measure(n)
    for p in (1, 2, 4, math.inf):
        res = zonoid_volumes(mu, p)[1]
        ref = reference_volume("Z_STAR", n, p)
        print(f"{n:>2} {str(p):>4} {res.value:>14.9f} {ref:>14.9f} "
              f"{abs(res.value - ref) / ref:>10.2e} {res.method:>10}")

print()
print("=" * 70)
print("2. The exponential-integral route as an independent check")
print("   V(K) = Gamma(1+n/p)^{-1} int exp(-||x||_K^p) dx")
print("=" * 70)
for n in (2, 3):
    mu = cross_measure(n)
    for p in (1, 2, 4):
        bi = volume_Zp_star_ball_integral(mu, p)
        ref = reference_volume("Z_STAR", n, p)
        print(f"n={n} p={p}: integral={bi.value:.10f} (+- {bi.abs_error:.1e})"
              f"  closed form={ref:.10f}")

print()
print("=" * 70)
print("3. Volume direction on non-cross measures (Theorem B direction)")
print("=" * 70)
vz, vzs = zonoid_volumes(equiangular_measure(3), math.inf)
print("hexagonal measure, p = inf:")
print(f"  V(Z_inf)  = {vz.value:.6f}"
      f"  > {reference_volume('Z', 2, math.inf):.6f} = V(Z_inf(nu_2))")
print(f"  V(Z*_inf) = {vzs.value:.6f}"
      f"  < {reference_volume('Z_STAR', 2, math.inf):.6f} = V(Z*_inf(nu_2))")

rng = np.random.default_rng(3)
print("\nfive random even isotropic measures, n = 3, p = 1:")
ref_z = reference_volume("Z", 3, 1)
ref_zs = reference_volume("Z_STAR", 3, 1)
for i in range(5):
    mu = random_even_isotropic(3, 10, rng)
    vz, vzs = zonoid_volumes(mu, 1)
    print(f"  #{i}: V(Z_1)={vz.value:8.4f} (>= {ref_z:.3f})   "
          f"V(Z*_1)={vzs.value:7.4f} (<= {ref_zs:.4f})")
