"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS line on success (visible with pytest -s);
stated runtime budgets are asserted where the criterion pins one.
"""

import math
import time

import numpy as np
import pytest

from isozonoid.ballbarthe import random_decomposition_system, theta_star
from isozonoid.bodies import cube_body
from isozonoid.caps import dvoretzky_rogers_caps, verify_isotropic_cap_bound
from isozonoid.harness import (octagon_Q_body, perturbation_family,
                               planar_suite, random_even_isotropic,
                               s1_sharp_suite, theorem_B_suite,
                               tilted_pair_measure)
from isozonoid.john import contact_measure, john_ellipsoid
from isozonoid.measures import (cap_mass, cross_measure, equiangular_measure,
                                unit_vector)
from isozonoid.metrics import fit_cross_frame, wasserstein, wasserstein_hausdorff_bound
from isozonoid.john import cube_sandwich_check
from isozonoid.zonoids import reference_volume, support_Zp, zonoid_volumes

from oracles import transport_units_oracle

SEED = 0x5EED


def test_criterion_01_closed_form_polar_volumes():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        mu = cross_measure(n)
        for p in (1, 2, 4, math.inf):
            res = zonoid_volumes(mu, p)[1]
            ref = reference_volume("Z_STAR", n, p)
            rel = abs(res.value - ref) / ref
            tol = 1e-9 if res.method == "EXACT" else 1e-3
            assert rel <= tol, (n, p, res.value, ref, res.method)
            worst = max(worst, rel)
    # named anchor values
    assert abs(zonoid_volumes(cross_measure(3), 2)[1].value - 4 * math.pi / 3) \
        <= 1e-3 * (4 * math.pi / 3)
    assert abs(zonoid_volumes(cross_measure(2), math.inf)[1].value - 4.0) <= 4e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: polar volumes match closed form "
          f"(worst rel {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_z2_identity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in (2, 3):
        for _ in range(50):
            mu = random_even_isotropic(n, n * (n + 1) // 2 + 4, rng)
            dirs = rng.standard_normal((1000, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            h = support_Zp(mu, 2, dirs)
            worst = max(worst, float(np.max(np.abs(h - 1.0))))
    assert worst <= 1e-10
    print(f"\nPASS criterion 2: Z_2 identity (max |h-1| = {worst:.2e})")


def test_criterion_03_theorem_b_direction():
    t0 = time.perf_counter()
    failures = 0
    for n in (2, 3):
        fam = perturbation_family("RANDOM_ISOTROPIC", n,
                                  (200, n * (n + 1) // 2 + 4), seed=SEED)
        for p in (1, math.inf):
            reps = theorem_B_suite(n, p, fam)
            failures += sum(0 if r.passed else 1 for r in reps)
    elapsed = time.perf_counter() - t0
    assert failures == 0
    assert elapsed < 600.0
    print(f"\nPASS criterion 3: Theorem B direction on 800 cases "
          f"(0 failures, {elapsed:.1f}s)")


def test_criterion_04_sharp_s1_constants():
    t0 = time.perf_counter()
    rep = s1_sharp_suite([equiangular_measure(3)])[0]
    assert rep.epsilon == pytest.approx(np.pi / 6, abs=1e-9)
    v_inf, v_star = rep.extra["V_Zinf"], rep.extra["V_Zinf_star"]
    assert abs(v_inf - 3.0 * math.sqrt(3.0) / 2.0) <= 1e-12
    assert abs(v_star - 2.0 * math.sqrt(3.0)) <= 1e-12
    assert v_inf >= rep.extra["bound_inf"] >= 2.2617  # 2.5981 >= 2.2618
    assert v_star <= rep.extra["bound_star"] <= 3.7906  # 3.4641 <= 3.7906
    family = [equiangular_measure(m) for m in range(2, 18)]
    family += [tilted_pair_measure(2, a) for a in np.linspace(0.0, 0.42, 48)]
    assert len(family) == 64
    reps = s1_sharp_suite(family)
    assert all(r.passed for r in reps)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 4: sharp S^1 constants "
          f"(hexagon {v_inf:.4f} >= {rep.extra['bound_inf']:.4f}, "
          f"{v_star:.4f} <= {rep.extra['bound_star']:.4f}; "
          f"64-point sweep clean, {elapsed:.1f}s)")


def test_criterion_05_ball_barthe_stability():
    rng = np.random.default_rng(SEED)
    min_theta = math.inf
    for i in range(1000):
        n = int(rng.integers(2, 4))
        nframes = int(rng.integers(2, 6 if n == 2 else 4))   # k <= 10
        sys_ = random_decomposition_system(n, nframes, rng)
        t = np.exp(rng.normal(size=sys_.k))
        # theta_star's Cauchy-Binet expansion verifies the identity to 1e-9
        theta, ok = theta_star(sys_, t)
        assert ok and theta >= 1.0 - 1e-12
        min_theta = min(min_theta, theta)
    print(f"\nPASS criterion 5: 1000 decomposition systems "
          f"(min theta* = {min_theta:.6f})")


def test_criterion_06_transport_bounds():
    from isozonoid.transport import (phi_p_derivatives, rho_p,
                                     verify_derivative_box,
                                     verify_second_derivative_bounds)

    t0 = time.perf_counter()
    p_list = [1, 1.2, 1.5, 1.9, 2.1, 2.3, 2.7, 3, 5, 10, math.inf]
    box_grid = np.linspace(0.0, 1.0 / 3.1, 256)
    snd_grid = np.linspace(1e-6, 1.0 / 8 - 1e-12, 256)
    for p in p_list:
        # each verify function raises at the first row that fails
        assert verify_derivative_box(p, box_grid).worst_margin > -1e-13
        if p != 2:
            assert verify_second_derivative_bounds(p, snd_grid).worst_margin > 0
        grid = np.linspace(-2.0, 2.0, 256)
        if math.isinf(p):
            grid = np.linspace(-0.999, 0.999, 256)
        for t in grid:
            v, d1, _ = phi_p_derivatives(p, t)
            assert abs(rho_p(p, t) - rho_p(2, v) * d1) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 6: transport boxes on 256-point grids "
          f"for 11 p values ({elapsed:.1f}s)")


def test_criterion_07_cap_machinery():
    rng = np.random.default_rng(SEED)
    # (a) isotropic cap bound on 500 random (mu, v, alpha)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        mu = random_even_isotropic(n, n * (n + 1) // 2 + 4, rng)
        for _ in range(5):
            v = unit_vector(rng.standard_normal(n))
            alpha = rng.uniform(0.05, np.pi / 2 - 0.05)
            _, _, ok = verify_isotropic_cap_bound(mu, v, alpha)
            assert ok
    # (b) Dvoretzky-Rogers caps on 100 random measures per n
    for n in (2, 3):
        for _ in range(100):
            mu = random_even_isotropic(n, n * (n + 1) // 2 + 4, rng)
            V, beta = dvoretzky_rogers_caps(mu)
            for v in V:
                assert cap_mass(mu, v, beta) >= beta ** n - 1e-12
            assert abs(np.linalg.det(V)) >= 4 * n * beta - 1e-12
    # (c) cross-frame fitting bounds on 500 perturbations per n
    for n in (2, 3, 4):
        done = 0
        while done < 500:
            t = rng.uniform(0.002, 0.05)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            U = np.array([unit_vector(q[i] + rng.standard_normal(n)
                                      * (t / (4.0 * n))) for i in range(n)])
            if np.max(np.abs(U @ U.T) - np.eye(n)) > math.sin(t):
                continue
            fit = fit_cross_frame(U, t)
            assert fit.hausdorff <= fit.certified_bound + 1e-12
            done += 1
    print("\nPASS criterion 7: cap bound x500, DR caps x200, "
          "cross-frame fits x1500")


def test_criterion_08_wasserstein_hausdorff():
    rng = np.random.default_rng(SEED)
    # bound on 100 near-cross measures
    for i in range(100):
        n = 2 if i % 2 == 0 else 3
        alpha = rng.uniform(0.01, 0.6)          # delta_H stays below pi/4
        mu = tilted_pair_measure(n, alpha)
        rep = wasserstein_hausdorff_bound(mu, cross_measure(n))
        assert rep["delta_H"] < np.pi / 4
        assert rep["passed"]
    # brute-force assignment oracle on <= 8-atom instances
    checked = 0
    for n, denom in ((2, 2), (3, 2)):
        for phi in (0.1, 0.35):
            th = rng.standard_normal(3)
            from scipy.spatial.transform import Rotation

            R = (np.array([[math.cos(phi), -math.sin(phi)],
                           [math.sin(phi), math.cos(phi)]]).T if n == 2
                 else Rotation.from_rotvec(phi * th / np.linalg.norm(th)).as_matrix())
            from isozonoid.metrics import rotated_cross_measure

            mu = rotated_cross_measure(n, R if n == 3 else R)
            lp, _ = wasserstein(cross_measure(n), mu)
            oracle = transport_units_oracle(cross_measure(n), mu, denom)
            assert abs(lp - oracle) <= 1e-10
            checked += 1
    oct1 = equiangular_measure(4)
    lp, _ = wasserstein(oct1, cross_measure(2))
    oracle = transport_units_oracle(oct1, cross_measure(2), 4)
    assert abs(lp - oracle) <= 1e-10
    print(f"\nPASS criterion 8: delta_W <= 2n delta_H on 100 measures; "
          f"LP equals brute-force oracle on {checked + 1} instances")


def test_criterion_09_sandwich_and_john():
    rng = np.random.default_rng(SEED)
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        amax = 1.0 / (3.0 * n)
        alpha = rng.uniform(0.2, 0.95) * amax
        mu = tilted_pair_measure(n, alpha * 0.9)
        assert cube_sandwich_check(mu, alpha)["passed"]
    for n in (2, 3):
        ell = john_ellipsoid(cube_body(n))
        assert ell.ball_deviation() <= 1e-8
        mu = contact_measure(cube_body(n))
        cross = np.vstack([np.eye(n), -np.eye(n)])
        for u in mu.directions:
            assert min(np.linalg.norm(cross - u, axis=1)) <= 1e-8
        assert np.max(np.abs(mu.weights - 0.5)) <= 1e-8
    print("\nPASS criterion 9: cube sandwich x50 exact; John(W^n) = B^n "
          "and contact measure = nu_n to 1e-8")


def test_criterion_10_planar_chain():
    failures = 0
    for t in np.arange(0.0, 0.5001, 0.05):
        rep = planar_suite(octagon_Q_body(t, t))
        s_err = abs(rep.extra["S_M"] - rep.extra["S_M_expected"])
        v_err = abs(rep.extra["V_Q"] - rep.extra["V_Q_expected"])
        if s_err > 1e-12 * 16 or v_err > 1e-12 * 8 or not rep.passed:
            failures += 1
        t_hat, eps = rep.extra["t"], rep.epsilon
        if t_hat > 18.0 * eps + 1e-12 or 3.0 * t_hat > 54.0 * eps + 1e-12:
            failures += 1
    assert failures == 0
    print("\nPASS criterion 10: planar identities to 1e-12 and the "
          "t <= 18 eps chain on the full t-grid")
