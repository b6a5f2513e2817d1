#!/usr/bin/env python3
"""Distances between sphere measures: transport, Hausdorff, orbit minima.

The stability theorems measure how far an isotropic measure sits from the
nearest cross measure; this script exercises those distances and the
transport-vs-Hausdorff comparison bound.
"""

import math

import numpy as np

from isozonoid.harness import tilted_pair_measure
from isozonoid.measures import cross_measure, equiangular_measure
from isozonoid.metrics import (deep_hole, fit_cross_frame, hausdorff_to_cross,
                               rotated_cross_measure, wasserstein,
                               wasserstein_hausdorff_bound, wasserstein_to_cross)


def rot2(phi):
    return np.array([[math.cos(phi), -math.sin(phi)],
                     [math.sin(phi), math.cos(phi)]])


print("=" * 70)
print("1. Transport distance between crosses: each atom travels the angle")
print("=" * 70)
nu2 = cross_measure(2)
for alpha in (0.1, 0.25, 0.6):
    rot = rotated_cross_measure(2, rot2(alpha).T)
    val, plan = wasserstein(nu2, rot)
    print(f"alpha={alpha}: delta_W = {val:.12f}  (= 2 alpha = {2 * alpha})")

print()
print("=" * 70)
print("2. Orbit-minimized distances to the cross")
print("=" * 70)
for name, mu in (("rotated cross", rotated_cross_measure(2, rot2(0.7).T)),
                 ("hexagonal", equiangular_measure(3)),
                 ("octagonal", equiangular_measure(4)),
                 ("tilted pair 0.2", tilted_pair_measure(2, 0.2))):
    dwo, _, _ = wasserstein_to_cross(mu)
    dho, _, _ = hausdorff_to_cross(mu.directions)
    print(f"{name:>16}: delta_WO = {dwo:.6f}   delta_HO = {dho:.6f}")
print("(hexagon delta_HO = pi/6 = %.6f, octagon = pi/8 = %.6f)"
      % (np.pi / 6, np.pi / 8))

print()
print("=" * 70)
print("3. delta_W <= 2n delta_H for near-cross measures")
print("=" * 70)
for alpha in (0.05, 0.15, 0.3):
    mu = tilted_pair_measure(2, alpha)
    rep = wasserstein_hausdorff_bound(mu, nu2)
    print(f"tilt={alpha}: delta_W={rep['delta_W']:.4f} <= "
          f"2n*delta_H={rep['bound']:.4f}  [{rep['passed']}]")

print()
print("=" * 70)
print("4. Deep holes and cross-frame fitting")
print("=" * 70)
U = np.array([[1.0, 0.0], [math.sin(0.2), math.cos(0.2)]])
u = deep_hole(U, 0.19)
print(f"two vectors with overlap sin(0.2): deep hole u = {np.round(u, 4)}")
print(f"  |<u_i, u>| = {np.round(np.abs(U @ u), 4)} "
      f"<= 1/sqrt(2) - t/(4*2^1.5) = {1 / math.sqrt(2) - 0.19 / (4 * 2 ** 1.5):.4f}")
fit = fit_cross_frame(U, 0.21)
print(f"nearly orthogonal vectors: fitted frame angular errors "
      f"{np.round(fit.angular_errors, 4)}, certificate {fit.certified_bound:.4f}")
