import math

import numpy as np
import pytest
from scipy.optimize import minimize

from isozonoid.bodies import (BodyRep, _hull_polar_volumes, cube_body,
                              hull_volume_area)
from isozonoid.errors import (DimensionUnsupportedError, HypothesisFailedError,
                              MassMismatchError)
from isozonoid.harness import (john_normalize, perturbation_family,
                               random_even_isotropic, regular_polygon_body,
                               tilted_pair_measure, truncated_cube_body)
from isozonoid.measures import (AtomicMeasure, cross_measure,
                                equiangular_measure, unit_vector)
from isozonoid import bodies, metrics
from isozonoid.metrics import (_antipodal_half, _bfgs, _body_starts, _clip,
                               _cross_transport_dual, _dcsrch,
                               _hausdorff_to_cross_batch,
                               _bm_epigraph, _intersection_moments,
                               _lockstep_nelder_mead, _quiet_div,
                               _quiet_sqrt, _sym_diff, banach_mazur,
                               deep_hole, fit_cross_frame, hausdorff_spherical,
                               hausdorff_to_cross, rotated_cross_measure,
                               volume_distance, wasserstein,
                               wasserstein_hausdorff_bound,
                               wasserstein_to_cross)

from oracles import (banach_mazur_lambda, banach_mazur_per_start,
                     check_marginals, intersection_volume_three_call,
                     multistart_nelder_mead, multistart_nelder_mead_orbit,
                     polygon_clip_area_exact, rotation_grid_orbit_min,
                     s1_hausdorff_to_cross, s1_transport_to_cross,
                     transport_units_oracle, volume_distance_per_start)


def rot2(phi):
    return np.array([[math.cos(phi), -math.sin(phi)],
                     [math.sin(phi), math.cos(phi)]])


def test_wasserstein_identity(nu2):
    val, plan = wasserstein(nu2, nu2)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert check_marginals(plan, nu2.weights, nu2.weights)


def test_wasserstein_rotated_cross(nu2):
    for alpha in (0.1, 0.3, np.pi / 4):
        rot = rotated_cross_measure(2, rot2(alpha).T)
        val, plan = wasserstein(nu2, rot)
        assert val == pytest.approx(2.0 * alpha, abs=1e-9)
        assert check_marginals(plan, nu2.weights, rot.weights)


def test_wasserstein_mass_mismatch(nu2, hexm):
    bad = rotated_cross_measure(3, np.eye(3))
    with pytest.raises((MassMismatchError, ValueError)):
        wasserstein(nu2, bad)


def test_wasserstein_vs_assignment_oracle(nu2, rng):
    # unit-splitting reduces equal-denominator transport to assignment
    for alpha in (0.2, 0.6):
        rot = rotated_cross_measure(2, rot2(alpha).T)
        lp, _ = wasserstein(nu2, rot)
        oracle = transport_units_oracle(nu2, rot, denom=2)
        assert lp == pytest.approx(oracle, abs=1e-10)
    oct1 = equiangular_measure(4)
    oct2 = rotated_cross_measure(2, rot2(0.15).T)
    # split nu_2 into quarters to match the octagon's 8 unit atoms
    lp, _ = wasserstein(oct1, oct2)
    oracle = transport_units_oracle(oct1, oct2, denom=4)
    assert lp == pytest.approx(oracle, abs=1e-10)


def test_wasserstein_triangle_inequality(rng):
    for _ in range(4):
        mus = [random_even_isotropic(2, 5, rng) for _ in range(3)]
        d01, _ = wasserstein(mus[0], mus[1])
        d12, _ = wasserstein(mus[1], mus[2])
        d02, _ = wasserstein(mus[0], mus[2])
        assert d02 <= d01 + d12 + 1e-9
        assert abs(d01 - wasserstein(mus[1], mus[0])[0]) <= 1e-10


def test_wasserstein_to_cross_rotated_is_zero():
    for phi in (0.0, 0.37, 1.1):
        rot = rotated_cross_measure(2, rot2(phi).T)
        val, frame, cert = wasserstein_to_cross(rot)
        assert val == pytest.approx(0.0, abs=1e-10)


def test_wasserstein_to_cross_hexagon_matches_grid_oracle(hexm):
    val, _, _ = wasserstein_to_cross(hexm)
    # the closed-form transport of tests/oracles.py, checked against the LP
    # in test_s1_transport_oracle_matches_lp
    grid_val, _ = rotation_grid_orbit_min(
        lambda phis: s1_transport_to_cross(hexm, phis), np.pi / 2, 1571)
    assert val <= grid_val + 1e-12
    assert val == pytest.approx(grid_val, abs=1e-3)
    assert val > 0.1


def _s1_orbit_families(rng):
    """The measures of ``verify --suite s1`` and ``--suite zpstab --n 2``
    and 10 random even isotropic measures."""
    fam = perturbation_family("EQUIANGULAR", 2, [2, 3, 4, 6])
    fam += perturbation_family("TILTED_PAIR", 2, np.linspace(0.0, 0.35, 8))
    fam += perturbation_family("TILTED_PAIR", 2, np.linspace(0.0, 0.4, 9))
    return fam + [random_even_isotropic(2, int(rng.integers(3, 9)), rng)
                  for _ in range(10)]


def test_s1_transport_oracle_matches_lp(rng):
    for mu in _s1_orbit_families(rng)[::4]:
        phis = rng.uniform(0.0, np.pi / 2, 3)
        lp = [wasserstein(mu, rotated_cross_measure(2, rot2(phi).T))[0]
              for phi in phis]
        assert np.allclose(s1_transport_to_cross(mu, phis), lp,
                           rtol=0, atol=1e-12)


def test_wasserstein_to_cross_2d_kinks_match_grid_oracle(rng):
    for mu in _s1_orbit_families(rng):
        assert mu.even
        val, frame, cert = wasserstein_to_cross(mu)
        th = np.arctan2(mu.directions[:, 1], mu.directions[:, 0]) % (np.pi / 2)
        assert cert["candidates"] == len(np.unique(np.append(th, 0.0)))
        grid = np.linspace(0.0, np.pi / 2, 2000, endpoint=False)
        # the old candidate set: kinks and the midpoints theta_i + pi/4
        cands = np.concatenate([grid, th, th + np.pi / 4, [0.0, np.pi / 4]])
        best = float(np.min(s1_transport_to_cross(mu, cands)))
        assert abs(val - best) <= 1e-12
        phi = math.atan2(frame[0, 1], frame[0, 0])
        assert val == pytest.approx(s1_transport_to_cross(mu, [phi])[0],
                                    abs=1e-12)


def test_wasserstein_to_cross_tilted_3d(rng):
    from scipy.spatial.transform import Rotation

    from isozonoid.metrics import rotated_cross_measure as rcm

    mu = tilted_pair_measure(3, 0.1)
    val, _, cert = wasserstein_to_cross(mu)
    assert 0.02 <= val <= 0.2
    # coarse SO(3) grid oracle: the multistart result is a true upper bound
    # and not worse than any sampled rotation
    grid_best = math.inf
    for _ in range(400):
        R = Rotation.random(random_state=rng).as_matrix()
        grid_best = min(grid_best, wasserstein(mu, rcm(3, R))[0])
    assert val <= grid_best + 1e-9


def _random_frames(n, m, rng):
    from scipy.spatial.transform import Rotation

    if n == 2:
        return np.array([rot2(phi).T
                         for phi in rng.uniform(0.0, 2.0 * np.pi, m)])
    return Rotation.random(m, random_state=rng).as_matrix()


def _even_mixture(n, rng):
    """A random even isotropic measure with at most 10 folded atoms: a
    convex combination of a random one and a rotated cross."""
    mu = random_even_isotropic(n, n * (n + 1) // 2 + 4, rng)
    nu = rotated_cross_measure(n, _random_frames(n, 1, rng)[0])
    t = rng.uniform(0.2, 0.8)
    return AtomicMeasure(n, np.vstack([mu.directions, nu.directions]),
                         np.concatenate([t * mu.weights,
                                         (1.0 - t) * nu.weights]), even=True)


def _kink_frames(U, rng):
    """For every atom u, a frame with u as its first row and the same frame
    rolled, so that u is a row and the first row is orthogonal to u: the
    two kinks of the line cost (angle 0 and pi/2)."""
    n = U.shape[1]
    out = []
    for u in U:
        Q, _ = np.linalg.qr(np.column_stack([u, rng.standard_normal((n, n - 1))]))
        out += [Q.T, np.roll(Q.T, 1, axis=0)]
    return np.array(out)


@pytest.mark.parametrize("n", [2, 3])
def test_cross_transport_dual_matches_lp(n, rng):
    measures = [tilted_pair_measure(n, 0.1), tilted_pair_measure(n, 0.35),
                _even_mixture(n, rng), _even_mixture(n, rng)]
    for mu in measures:
        U, w = mu.folded
        assert len(U) <= 10
        R = np.concatenate([_random_frames(n, 200, rng), _kink_frames(U, rng)])
        lp = [wasserstein(mu, rotated_cross_measure(n, r))[0] for r in R]
        assert np.max(np.abs(_cross_transport_dual(U, w, R) - lp)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_cross_transport_dual_of_the_cross_at_its_frame(n, rng):
    U, w = cross_measure(n).folded
    assert _cross_transport_dual(U, w, np.eye(n)[None])[0] == 0.0
    for R in _random_frames(n, 4, rng):
        U, w = rotated_cross_measure(n, R).folded
        assert abs(_cross_transport_dual(U, w, R[None])[0]) <= 1e-14


def test_cross_transport_dual_chunks_agree(rng):
    # 600 frames of a 9-atom measure in n = 3 span several chunks
    mu = _even_mixture(3, rng)
    U, w = mu.folded
    R = _random_frames(3, 600, rng)
    parts = [_cross_transport_dual(U, w, R[s:s + 7]) for s in range(0, 600, 7)]
    assert np.allclose(_cross_transport_dual(U, w, R), np.concatenate(parts),
                       rtol=0.0, atol=1e-15)


def test_wasserstein_to_cross_solves_one_lp(monkeypatch):
    lp = metrics.wasserstein
    targets = []

    def counted(mu, nu):
        targets.append(nu)
        return lp(mu, nu)

    monkeypatch.setattr(metrics, "wasserstein", counted)
    for mu in (tilted_pair_measure(2, 0.2), tilted_pair_measure(3, 0.2)):
        targets.clear()
        val, frame, cert = wasserstein_to_cross(mu)
        assert len(targets) == 1 and cert["lp_solves"] == 1
        at_frame = rotated_cross_measure(mu.dim, frame)
        assert np.array_equal(targets[0].directions, at_frame.directions)
        assert val == cert["lp_value"] == lp(mu, at_frame)[0]
        assert abs(cert["dual_value"] - val) <= 1e-12


def test_wasserstein_to_cross_raises_on_dual_lp_mismatch(monkeypatch):
    lp = metrics.wasserstein
    mu = tilted_pair_measure(2, 0.2)
    monkeypatch.setattr(metrics, "wasserstein",
                        lambda a, b: (lp(a, b)[0] + 1e-13, None))
    wasserstein_to_cross(mu)                # within the 1e-12 agreement
    monkeypatch.setattr(metrics, "wasserstein",
                        lambda a, b: (lp(a, b)[0] + 1e-11, None))
    with pytest.raises(AssertionError, match="disagree"):
        wasserstein_to_cross(mu)


def test_wasserstein_to_cross_needs_even_measure(nu2):
    flagless = AtomicMeasure(2, nu2.directions, nu2.weights)
    ang = 2.0 * np.pi * np.arange(3) / 3.0
    star = AtomicMeasure(2, np.stack([np.cos(ang), np.sin(ang)], 1),
                         np.full(3, 2.0 / 3.0))      # isotropic, not even
    for mu in (flagless, star):
        with pytest.raises(HypothesisFailedError, match='"even": true'):
            wasserstein_to_cross(mu)


def test_hausdorff_examples(hexm, nu2):
    X = hexm.directions
    assert hausdorff_spherical(X, X) == 0.0
    val, frame, _ = hausdorff_to_cross(X)
    assert val == pytest.approx(np.pi / 6, abs=1e-9)
    rot = rotated_cross_measure(2, rot2(0.2).T)
    assert hausdorff_spherical(rot.directions, nu2.directions) == pytest.approx(0.2, abs=1e-12)
    val0, _, _ = hausdorff_to_cross(rot.directions)
    assert val0 == pytest.approx(0.0, abs=1e-9)
    # the cross sits inside the octagon support, so only the octagon's
    # one-sided deviation is positive, and it is the distance
    oct8 = equiangular_measure(4).directions
    assert hausdorff_spherical(oct8, nu2.directions) == pytest.approx(np.pi / 4, abs=1e-12)


def test_orbit_search_invariance_under_prerotation(hexm):
    base, _, _ = hausdorff_to_cross(hexm.directions)
    rot = hexm.directions @ rot2(0.77).T
    val, _, _ = hausdorff_to_cross(rot)
    assert val == pytest.approx(base, abs=1e-9)


def _unit_rows(rng, m, n):
    X = rng.standard_normal((m, n))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _assert_batch_matches_scalar(X, R):
    """The kernel on X, and on its half with closed=True when X is closed
    under negation, equals hausdorff_spherical on the full X bit for bit;
    returns whether the folded path was taken."""
    scalar = [hausdorff_spherical(X, np.vstack([r, -r])) for r in R]
    assert np.array_equal(_hausdorff_to_cross_batch(X, R), scalar)
    H = _antipodal_half(X)
    if H is not None:
        assert np.array_equal(_hausdorff_to_cross_batch(H, R, closed=True),
                              scalar)
    return H is not None


def test_hausdorff_to_cross_batch_matches_scalar(rng):
    from scipy.spatial.transform import Rotation

    for n in (2, 3):
        for trial in range(40):
            X = _unit_rows(rng, int(rng.integers(1, 25)), n)
            if trial % 2:
                X = np.vstack([X, -X])
            if n == 3:
                R = Rotation.random(16, random_state=rng).as_matrix()
            else:
                R = np.array([rot2(phi).T
                              for phi in rng.uniform(0.0, 2.0 * np.pi, 16)])
            if trial % 5 == 0:
                X = np.vstack([X, R[0], -R[1]])     # points on the cross
            if trial % 2 and trial % 5 == 0:
                X = np.vstack([X, -R[0], R[1]])     # keep it closed
            if trial % 3 == 0:
                X = X[rng.permutation(len(X))]      # shuffled pair order
            assert _assert_batch_matches_scalar(X, R) == bool(trial % 2)
    # exact right angles, <x, r> == 0, where angle_matrix takes the near
    # formula for both +-r: random frames never reach them
    for n in (2, 3):
        E = np.eye(n)
        quarter = np.eye(n)
        quarter[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
        R = np.stack([E, quarter, quarter.T, -E, E[::-1]])
        diagonal = np.full((1, n), 1.0 / math.sqrt(n))
        for X, closed in ((E[:2], False), (E, False),
                          (np.vstack([E, -E]), True),
                          (np.vstack([-E[::-1], E]), True),
                          (np.vstack([E[:1], -E[1:]]), False),
                          (np.vstack([E[1:], diagonal]), False),
                          (np.vstack([E, diagonal, -diagonal, -E]), True)):
            assert np.any(X @ R.transpose(0, 2, 1) == 0.0)
            assert _assert_batch_matches_scalar(X, R) == closed


def test_hausdorff_to_cross_folds_closed_sets_only(rng):
    """A set closed under exact negation is scored on one row per pair
    (cert ``atoms`` k/2), any other set on all k rows, with the value of
    the full set either way."""
    from scipy.spatial.transform import Rotation

    # JSON-style pair: +0.0 where exact negation gives -0.0
    json_pair = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
                          [0.6, 0.0, 0.8], [-0.6, 0.0, -0.8]])
    assert (-json_pair[0]).tobytes() != json_pair[1].tobytes()
    # even only within MERGE_ANGLE: the partner of x is -x turned by 1e-12
    x = _unit_rows(rng, 4, 3)
    y = -x + 1e-12 * _unit_rows(rng, 4, 3)
    near = np.vstack([x, y / np.linalg.norm(y, axis=1, keepdims=True)])
    assert np.max(np.linalg.norm(near[:4] + near[4:], axis=1)) <= 1e-9
    other = _unit_rows(rng, 7, 3)
    R = Rotation.random(16, random_state=rng).as_matrix()
    for X, closed in ((json_pair, True), (near, False), (other, False)):
        assert _assert_batch_matches_scalar(X, R) == closed
        for Y in (X, X[:, :2] / np.linalg.norm(X[:, :2], axis=1,
                                                keepdims=True)):
            val, frame, cert = hausdorff_to_cross(Y)
            assert cert["atoms"] == (len(Y) // 2 if closed else len(Y))
            assert hausdorff_spherical(Y, np.vstack([frame, -frame])) == val


def test_equiangular_supports_fold():
    # atoms m..2m-1 are the exact negations of atoms 0..m-1, so delta_HO
    # scores one atom per pair for the four equiangular measures of s1, and
    # the m = 3 kink enumeration takes 12 candidates (16 from cos/sin of
    # k pi / m for all 2m atoms)
    for m in (2, 3, 4, 6):
        X = equiangular_measure(m).directions
        assert np.array_equal(X[m:], -X[:m])
        value, frame, cert = hausdorff_to_cross(X)
        assert cert["atoms"] == m
        assert hausdorff_spherical(X, np.vstack([frame, -frame])) == value
    assert hausdorff_to_cross(equiangular_measure(3).directions)[2][
        "candidates"] == 12


def test_hausdorff_to_cross_2d_matches_dense_grid(rng):
    npts = 20000
    fam = perturbation_family("EQUIANGULAR", 2, [2, 3, 4, 6])
    fam += perturbation_family("TILTED_PAIR", 2, np.linspace(0.0, 0.35, 8))
    sets = [mu.directions for mu in fam]
    sets += [random_even_isotropic(2, int(rng.integers(3, 9)), rng).directions
             for _ in range(30)]
    sets += [_unit_rows(rng, int(rng.integers(1, 12)), 2) for _ in range(10)]
    for X in sets:
        X = X @ rot2(rng.uniform(0.0, 2.0 * np.pi)).T
        val, frame, cert = hausdorff_to_cross(X)
        th = np.arctan2(X[:, 1], X[:, 0])
        grid_val, _ = rotation_grid_orbit_min(
            lambda phis: s1_hausdorff_to_cross(th, phis), np.pi / 2, npts)
        assert grid_val - np.pi / 2 / npts <= val <= grid_val + 1e-12
        assert hausdorff_spherical(X, np.vstack([frame, -frame])) == val
        assert cert["method"] == "kink-enumeration"


def test_orbit_search_3d_matches_per_start_scipy(rng):
    for _ in range(3):
        X = random_even_isotropic(3, 10, rng).directions
        val, R, cert = hausdorff_to_cross(X)
        o_val, o_R, o_start, o_nfev = multistart_nelder_mead_orbit(
            lambda R_: hausdorff_spherical(X, np.vstack([R_, -R_])))
        assert val == o_val
        assert np.array_equal(R, o_R)
        assert (cert["best_start"], cert["nfev"]) == (o_start, o_nfev)
        assert cert["starts"] == 61
        assert 1 < cert["batches"] < cert["nfev"]


def test_wasserstein_hausdorff_bound_examples(nu2):
    rep = wasserstein_hausdorff_bound(nu2, nu2)
    assert rep["passed"] and rep["delta_W"] <= 1e-9
    mu = tilted_pair_measure(2, 0.1)
    rep = wasserstein_hausdorff_bound(mu, nu2)
    assert rep["passed"] and rep["bound"] == pytest.approx(0.4, abs=1e-9)


def test_wasserstein_hausdorff_bound_sweep(rng, nu2):
    for _ in range(50):
        alpha = rng.uniform(0.01, 0.3)
        mu = tilted_pair_measure(2, alpha)
        rep = wasserstein_hausdorff_bound(mu, nu2)
        assert rep["passed"]


def test_wasserstein_hausdorff_general_form(nu2):
    mu = tilted_pair_measure(2, 0.1)
    rep = wasserstein_hausdorff_bound(mu, nu2, omega=0.0)
    assert rep["passed"]


def test_deep_hole_2d():
    U = np.array([[1.0, 0.0], [math.sin(0.2), math.cos(0.2)]])
    t = 0.19
    u = deep_hole(U, t)
    bound = 1.0 / math.sqrt(2.0) - t / (4.0 * 2.0 ** 1.5)
    assert np.max(np.abs(U @ u)) <= bound + 1e-9


def test_deep_hole_3d():
    U = np.eye(3).copy()
    U[2] = [math.sin(0.05), 0.0, math.cos(0.05)]
    u = deep_hole(U, 0.04)
    bound = 1.0 / math.sqrt(3.0) - 0.04 / (4.0 * 3.0 ** 1.5)
    assert np.max(np.abs(U @ u)) <= bound + 1e-9


def test_deep_hole_orthonormal_fails():
    with pytest.raises(HypothesisFailedError):
        deep_hole(np.eye(3), 0.01)


def test_fit_cross_frame_exact_input():
    fit = fit_cross_frame(np.eye(3), 0.01)
    assert np.allclose(fit.angular_errors, 0.0, atol=1e-12)
    assert fit.hausdorff <= 1e-12


def test_fit_cross_frame_2d():
    t = 0.05
    U = np.array([[1.0, 0.0], [math.sin(t * 0.9), math.cos(t * 0.9)]])
    fit = fit_cross_frame(U, t)
    assert fit.angular_errors[1] <= t + 1e-12
    assert fit.hausdorff <= fit.certified_bound + 1e-12


def test_fit_cross_frame_3d():
    t = 0.01
    U = np.eye(3).copy()
    U[1] = unit_vector([math.sin(0.008), math.cos(0.008), 0.0])
    U[2] = unit_vector([0.005, -0.006, 1.0])
    fit = fit_cross_frame(U, t)
    assert fit.angular_errors[2] <= 4.0 * math.sqrt(2.0) * t + 1e-12


def test_fit_cross_frame_random_perturbations(rng):
    for n in (2, 3, 4):
        for _ in range(60):
            t = rng.uniform(0.002, 0.05)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            U = []
            for i in range(n):
                noise = rng.standard_normal(n) * (t / (4.0 * n))
                U.append(unit_vector(q[i] + noise))
            U = np.array(U)
            overlap = np.max(np.abs(U @ U.T) - np.eye(n))
            if overlap > math.sin(t):
                continue
            fit = fit_cross_frame(U, t)
            assert fit.hausdorff <= fit.certified_bound + 1e-12


def test_banach_mazur_identical(nu2):
    W = cube_body(2)
    val, _ = banach_mazur(W, W, restarts=2)
    assert val == pytest.approx(0.0, abs=1e-9)
    dvol, _ = volume_distance(W, W, restarts=2)
    assert dvol == pytest.approx(0.0, abs=1e-9)


def test_banach_mazur_scaling_absorbed():
    K = cube_body(2)
    M = cube_body(2, 2.0)
    val, _ = banach_mazur(K, M, restarts=2)
    assert val == pytest.approx(0.0, abs=1e-9)


def test_banach_mazur_disc_vs_square():
    # a fine polygon stands in for the disc; optimal square position gives
    # log sqrt(2), reproduced here to the polygon discretization error
    ang = np.arange(512) * 2.0 * np.pi / 512
    disc = BodyRep.from_vertices(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    val, cert = banach_mazur(disc, cube_body(2), restarts=6)
    assert val == pytest.approx(math.log(math.sqrt(2.0)), abs=1e-3)
    o_val, _, _, _ = banach_mazur_per_start(disc, cube_body(2), 6)
    assert val <= o_val + 1e-12
    # 1-parameter exhaustive check over square rotations: the reported value
    # is an upper bound and cannot beat the rotation family by more than
    # numerical slack
    best = math.inf
    for phi in np.linspace(0, np.pi / 2, 400):
        R = rot2(phi)
        VK = disc.vertices @ R
        inner = np.max(np.abs(VK))                       # cube gauge of disc
        outer = np.max(np.linalg.norm(cube_body(2).vertices @ R.T,
                                      axis=1))           # disc gauge of cube
        best = min(best, math.log(inner * outer))
    assert best - 1e-9 <= val <= math.log(math.sqrt(2.0)) + 1e-9


def test_volume_distance_positive_for_different_bodies():
    hexb = BodyRep.from_halfspaces(
        np.stack([np.cos(np.arange(6) * np.pi / 3),
                  np.sin(np.arange(6) * np.pi / 3)], axis=1), np.ones(6))
    val, cert = volume_distance(hexb, cube_body(2), restarts=4)
    assert val > 0.05
    assert cert["upper_bound_only"]


def test_dwo_zero_iff_cross_fit(nu2, rng):
    # cross measures have distance zero; perturbed ones do not
    rot = rotated_cross_measure(2, rot2(0.81).T)
    val, _, _ = wasserstein_to_cross(rot)
    assert val <= 1e-10
    tilt = tilted_pair_measure(2, 0.2)
    val2, _, _ = wasserstein_to_cross(tilt)
    assert val2 > 1e-3


# objectives of a stack of points (B, N), as the orbit searches pass them
def _rosenbrock_rows(X):
    return np.sum(100.0 * (X[:, 1:] - X[:, :-1] ** 2) ** 2
                  + (1.0 - X[:, :-1]) ** 2, axis=1)


def _kinked_rows(X):
    # nonsmooth and not a rotation objective: an l1 term plus a max of
    # affine functions, with flat directions to trigger contractions
    C = np.linspace(-1.0, 1.0, X.shape[1])
    return (np.sum(np.abs(X - C), axis=1)
            + np.max(np.stack([X[:, 0] + X[:, -1], 0.5 - X[:, 1]]), axis=0))


def _stepped_rows(X):
    # piecewise constant: equal values, hence every tie-break, are common
    return np.floor(4.0 * np.sum(np.abs(X - 0.3), axis=1)) / 4.0


# Rosenbrock starts that converge after 179, 309, 355 and 492 iterations
FAR_APART = np.array([np.ones(4), np.full(4, 0.3), np.full(4, 3.0),
                      np.full(4, 10.0)])


def _lockstep_case(objective, N, maxiter, x0=None, tag=None):
    name = f"{objective.__name__}-{N}-{maxiter}"
    return pytest.param(objective, N, maxiter, x0,
                        id=name if tag is None else f"{name}-{tag}")


@pytest.mark.parametrize("objective,N,maxiter,x0", [
    _lockstep_case(_rosenbrock_rows, 4, 250),
    _lockstep_case(_rosenbrock_rows, 4, 3000),
    _lockstep_case(_kinked_rows, 9, 400), _lockstep_case(_kinked_rows, 9, 4000),
    _lockstep_case(_stepped_rows, 4, 400), _lockstep_case(_stepped_rows, 9, 400),
    # starts that leave hundreds of steps apart; at maxiter 420 the last
    # one stops there, long after the others have left
    _lockstep_case(_rosenbrock_rows, 4, 3000, FAR_APART, "far-apart"),
    _lockstep_case(_rosenbrock_rows, 4, 420, FAR_APART, "maxiter")])
def test_lockstep_nelder_mead_matches_scipy_per_start(objective, N, maxiter,
                                                      x0):
    if x0 is None:
        rng = np.random.default_rng(N * maxiter)
        x0 = np.vstack([np.zeros(N), rng.normal(size=(7, N))])
        x0[1, ::2] = 0.0             # zero entries take scipy's zdelt step
    fun, x, nfev, batches = _lockstep_nelder_mead(objective, x0, 1e-8, 1e-10,
                                                  maxiter)
    o_fun, o_x, o_nfev = multistart_nelder_mead(
        lambda w: float(objective(w[None])[0]), x0, 1e-8, 1e-10, maxiter)
    assert np.array_equal(fun, o_fun)
    assert np.array_equal(x, o_x)
    assert np.array_equal(nfev, o_nfev)
    # one call for the initial simplices, then one to three per step
    assert 1 < batches < o_nfev.sum()


def test_lockstep_nelder_mead_far_apart_premise():
    # with room for every start, only the last one of FAR_APART moves
    # past maxiter 420: it alone stopped there
    short = _lockstep_nelder_mead(_rosenbrock_rows, FAR_APART, 1e-8, 1e-10, 420)
    full = _lockstep_nelder_mead(_rosenbrock_rows, FAR_APART, 1e-8, 1e-10, 3000)
    moved = short[2] != full[2]
    assert moved.tolist() == [False, False, False, True]
    assert full[2].max() - full[2].min() >= 300     # evaluations apart


def _reviso_body(n, shape, param):
    if shape == "cube":
        return john_normalize(cube_body(n))[0]
    if shape == "hexagon":
        return john_normalize(regular_polygon_body(3))[0]
    return john_normalize(truncated_cube_body(n, param))[0]


REVISO_BODIES = [(2, "cube", None), (2, "cut", 0.1), (2, "cut", 0.25),
                 (2, "hexagon", None), (3, "cut", 0.1)]


@pytest.mark.parametrize("n,shape,param", REVISO_BODIES)
def test_banach_mazur_equals_per_start_scipy(n, shape, param):
    K = _reviso_body(n, shape, param)
    restarts = 8 if n == 2 else 4
    val, cert = banach_mazur(K, cube_body(n), restarts=restarts)
    o_val, o_lam, _, _ = banach_mazur_per_start(K, cube_body(n), restarts)
    assert val <= o_val + 1e-12
    assert cert["lambda"] <= o_lam + 1e-12
    assert list(cert) == ["method", "restarts", "lambda", "best_start",
                          "nfev", "nit", "converged", "map",
                          "upper_bound_only"]
    assert cert["method"] == "slsqp-epigraph"
    assert cert["converged"] == restarts


def test_banach_mazur_hexagon_vs_square():
    # d_BM(hexagon, square) = 3/2; Nelder-Mead stalled 4.9e-7 above it
    val, cert = banach_mazur(_reviso_body(2, "hexagon", None), cube_body(2),
                             restarts=8)
    assert abs(val - math.log(1.5)) <= 1e-12
    assert cert["converged"] == 8


def _random_even_polytope(rng, n, k):
    P = rng.normal(size=(k, n))
    return BodyRep.from_vertices(np.vstack([P, -P]))


@pytest.mark.parametrize("n", [2, 3])
def test_banach_mazur_random_pairs_against_oracles(n):
    rng = np.random.default_rng(2016 + n)
    restarts = 8 if n == 2 else 4
    for _ in range(3):
        K = _random_even_polytope(rng, n, int(rng.integers(4, 8)))
        M = _random_even_polytope(rng, n, int(rng.integers(4, 8)))
        val, cert = banach_mazur(K, M, restarts=restarts)
        o_val, _, _, _ = banach_mazur_per_start(K, M, restarts)
        assert val <= o_val + 1e-12
        lam = banach_mazur_lambda(K, M)
        assert cert["lambda"] <= lam(np.eye(n))
        Phi = np.array(cert["map"])
        assert cert["lambda"] == lam(Phi)
        assert abs(abs(np.linalg.det(Phi)) - 1.0) <= 1e-12
        assert val == math.log(max(cert["lambda"], 1.0))


def _epigraph_point(rng, n):
    return np.append(np.eye(n) + 0.3 * rng.normal(size=(n, n)),
                     rng.uniform(1.0, 2.0))


@pytest.mark.parametrize("n", [2, 3])
def test_banach_mazur_folded_constraints_equal_unfolded(n):
    # both bodies even, with facets closed under exact negation: each
    # vertex pair +-v repeats its constraints, so the folded rows are the
    # full rows, each value taken twice
    rng = np.random.default_rng(41 + n)
    K, M = (_random_even_polytope(rng, n, 6) for _ in range(2))
    VK, (AK, bK) = K.vertices, K.halfspaces
    VM, (AM, bM) = M.vertices, M.halfspaces
    assert all(_antipodal_half(X) is not None
               for X in (VK, VM, AK / bK[:, None], AM / bM[:, None]))
    _, constraint = _bm_epigraph(K, M)
    m = len(VK) * len(AM) // 2
    for _ in range(5):
        z = _epigraph_point(rng, n)
        X = z[:-1].reshape(n, n)
        inner = 1.0 - (VK @ np.linalg.inv(X).T) @ (AM / bM[:, None]).T
        outer = z[-1] - (VM @ X.T) @ (AK / bK[:, None]).T
        got = constraint["fun"](z)
        assert len(got) == (inner.size + outer.size) // 2
        for half, full in ((got[:m], inner), (got[m:], outer)):
            assert np.array_equal(np.sort(np.repeat(half, 2)),
                                  np.sort(full.ravel()))


@pytest.mark.parametrize("n,shape,param", REVISO_BODIES)
def test_banach_mazur_constraint_jacobian(n, shape, param):
    # the exact Jacobian against central differences of the constraints
    rng = np.random.default_rng(7)
    _, constraint = _bm_epigraph(_reviso_body(n, shape, param), cube_body(n))
    z, h = _epigraph_point(rng, n), 1e-6
    steps = np.eye(len(z)) * h
    fd = np.stack([(constraint["fun"](z + e) - constraint["fun"](z - e))
                   / (2.0 * h) for e in steps], axis=1)
    np.testing.assert_allclose(constraint["jac"](z), fd, rtol=0, atol=1e-7)


# 8 seeded random symmetric polygons with 3 to 8 vertex pairs
RANDOM_POLYGONS = [(2, "random", seed) for seed in range(8)]


def _volume_distance_body(n, shape, param):
    if shape != "random":
        return _reviso_body(n, shape, param)
    rng = np.random.default_rng(300 + param)
    return _random_even_polytope(rng, 2, int(rng.integers(3, 9)))


@pytest.mark.parametrize("n,shape,param", REVISO_BODIES + RANDOM_POLYGONS)
def test_volume_distance_not_above_per_start_scipy(n, shape, param):
    # BFGS on the exact gradient against per-start scipy Nelder-Mead on the
    # three-call intersection volume
    K = _volume_distance_body(n, shape, param)
    restarts = 4 if n == 2 else 2
    val, cert = volume_distance(K, cube_body(n), restarts=restarts)
    o_val, _, _ = volume_distance_per_start(K, cube_body(n), restarts)
    assert 0.0 <= val <= o_val + (1e-12 if n == 2 else 1e-9)
    assert list(cert) == ["method", "restarts", "best_start", "nfev", "nit",
                          "converged", "grad_norm", "upper_bound_only"]
    assert cert["method"] == "bfgs-exact-gradient"
    assert cert["restarts"] == restarts
    assert 0 <= cert["best_start"] < restarts
    assert restarts <= cert["nit"] < cert["nfev"]
    # n = 2 minima may sit on kinks: the hexagon's best start ends at 0.46
    assert 0.0 <= cert["grad_norm"] < (1e-5 if n == 3 else math.inf)
    assert 0 <= cert["converged"] <= restarts
    if shape == "hexagon":      # every start stops at the kink of its minimum
        assert cert["converged"] == 0


def test_orbit_searches_stop_at_n4():
    # an input error (exit code 2), not a bug
    nu4 = cross_measure(4)
    with pytest.raises(DimensionUnsupportedError):
        wasserstein_to_cross(nu4)
    with pytest.raises(DimensionUnsupportedError):
        hausdorff_to_cross(nu4.directions)


def test_body_searches_need_a_start():
    with pytest.raises(ValueError):
        banach_mazur(cube_body(2), cube_body(2), restarts=0)
    with pytest.raises(ValueError):
        volume_distance(cube_body(2), cube_body(2), restarts=0)


def _intersection_batches(n, rng):
    """(A, b) systems of volume-normalized reviso bodies against the cube,
    one batch A (13, m, n) with its offsets b (m,) per body: random maps,
    the identity (coincident facets for the cube, so exact duplicate dual
    points) and identities perturbed by 1e-14 ... 1e-3."""
    W = cube_body(n)
    bodies = [W, _reviso_body(n, "cut", 0.25)]
    if n == 2:
        bodies.append(_reviso_body(2, "hexagon", None))
    AM, bM = W.halfspaces
    batches = []
    for K in bodies:
        AK, bK = K.halfspaces
        alpha = hull_volume_area(K.vertices)[0] ** (-1.0 / n)
        b = np.concatenate([bK * alpha, bM / 2.0])   # both of volume 1
        mats = [np.eye(n) + 0.3 * rng.normal(size=(n, n)) for _ in range(6)]
        mats += [np.eye(n)]
        mats += [np.eye(n) + eps * rng.normal(size=(n, n))
                 for eps in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3)]
        A = []
        for mat in mats:
            Phi = mat / abs(np.linalg.det(mat)) ** (1.0 / n)
            A.append(np.vstack([AK @ np.linalg.inv(Phi), AM]))
        batches.append((np.array(A), b))
    return batches


@pytest.mark.parametrize("n", [2, 3])
def test_intersection_volume_matches_three_call_path(n, rng):
    for A, b in _intersection_batches(n, rng):
        for Ak in A:
            got = _intersection_moments(Ak, b)[0]
            assert got > 0.0
            assert abs(got - intersection_volume_three_call(Ak, b)) <= 1e-12


def test_intersection_volume_matches_exact_polygon_clip(rng):
    for A, b in _intersection_batches(2, rng):
        for Ak in A:
            exact = float(polygon_clip_area_exact(Ak, b))
            assert abs(_intersection_moments(Ak, b)[0] - exact) <= 1e-12


def test_polar_area_invariant_under_row_order(rng):
    # duplicate dual points go to the lower index (n = 2), and Qhull sees
    # the points in another order (n = 3), so reordering the rows moves the
    # arcs or the fan but must not move the volume, nor the boundary's
    # first moment sum_i M_i; every system is checked, the near-identity
    # ones (near-duplicate dual points) included
    for n, tol in ((2, 1e-15), (3, 1e-14)):
        for A, b in _intersection_batches(n, rng):
            for Ak in A:
                V, _, M = _intersection_moments(Ak, b)
                for _ in range(4):
                    perm = rng.permutation(len(b))
                    Vp, _, Mp = _intersection_moments(Ak[perm], b[perm])
                    assert abs(Vp - V) <= tol
                    assert np.max(np.abs(Mp.sum(axis=0) - M.sum(axis=0))) \
                        <= 1e-14


def test_polar_volume_of_boxes_under_diagonal_maps(rng):
    # [-1, 1]^n against diag(d) [-1, 1]^n: a box of half-widths min(d_i, 1),
    # with coincident facets wherever d_i = 1 and near-coincident ones at
    # 1 +- 1e-14
    for n in (2, 3):
        D = np.vstack([np.ones(3), [1.0, 1.0, 0.5], [1.0 + 1e-14, 1.0, 1.0],
                       [1.0 - 1e-14, 2.0, 1.0],
                       np.exp(rng.normal(size=(8, 3))),
                       [0.5, 1.0, 1.0]])[:, :n]
        cube = np.vstack([np.eye(n), -np.eye(n)])
        for d in D:
            A = np.vstack([cube / np.tile(d, 2)[:, None], cube])
            got = _intersection_moments(A, np.ones(4 * n))[0]
            assert abs(got - 2.0 ** n * np.prod(np.minimum(d, 1.0))) <= 1e-12


def _non_centred_batch(n):
    """[0, 1]^n against s [0.5, 1.5]^n for a batch of s: overlaps of side
    min(1, 1.5 s) - 0.5 s, touching at s = 2 and disjoint at s = 3."""
    cube = np.vstack([np.eye(n), -np.eye(n)])
    b = np.concatenate([np.ones(n), np.zeros(n), np.full(n, 1.5),
                        np.full(n, -0.5)])
    s = np.array([1.0, 0.5, 0.8, 1.9, 2.0, 3.0])
    return np.array([np.vstack([cube, cube / si]) for si in s]), b, s


@pytest.mark.parametrize("n", [2, 3])
def test_intersection_volumes_non_centred_batch(n):
    # all through the Chebyshev-centre shift
    A, b, s = _non_centred_batch(n)
    got = np.array([_intersection_moments(Ak, b)[0] for Ak in A])
    side = np.maximum(np.minimum(1.0, 1.5 * s) - 0.5 * s, 0.0)
    assert np.max(np.abs(got - side ** n)) <= 1e-12
    assert got[4] == got[5] == 0.0
    if n == 2:
        exact = [float(polygon_clip_area_exact(Ak, b)) for Ak in A]
        assert np.max(np.abs(got - exact)) <= 1e-12


def test_intersection_volumes_qhull_calls(monkeypatch, rng):
    # n = 2 is closed form; n = 3 is one hull per system (the polar-dual
    # kernel lives in bodies), and metrics has no halfspace intersection
    calls = []
    real = bodies.ConvexHull
    monkeypatch.setattr(bodies, "ConvexHull",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    for n in (2, 3):
        A, b = _intersection_batches(n, rng)[1]
        del calls[:]
        for Ak in A:
            _intersection_moments(Ak, b)
        assert len(calls) == (0 if n == 2 else len(A))
    # every objective call of the search scores one map and returns its
    # gradient: no hull in n = 2 (its setup's conversions make some), one
    # in n = 3
    searched = []
    real_sym_diff = metrics._sym_diff

    def counted(*system):
        objective = real_sym_diff(*system)

        def wrapped(x):
            start = len(calls)
            out = objective(x)
            searched.append(len(calls) - start)
            return out
        return wrapped

    monkeypatch.setattr(metrics, "_sym_diff", counted)
    for n, shape, param, restarts in ((2, "cut", 0.25, 2),
                                      (2, "hexagon", None, 2),
                                      (3, "cut", 0.1, 1)):
        del searched[:]
        volume_distance(_reviso_body(n, shape, param), cube_body(n),
                        restarts=restarts)
        assert searched
        assert set(searched) == {0 if n == 2 else 1}
    assert not hasattr(metrics, "HalfspaceIntersection")


SYM_DIFF_BODIES = [(2, "cube", None), (2, "cut", 0.1), (2, "cut", 0.25),
                   (2, "hexagon", None), (3, "cube", None), (3, "cut", 0.1),
                   (3, "cut", 0.25)]


def _sym_diff_systems(n, shape, param):
    """The delta_vol objective of a reviso body against the cube, for the
    body at its place and moved off the origin by (0.8, 0.1) (n = 2) or
    (0.8, 0.1, 0) (n = 3): there the intersection does not hold the
    origin."""
    K, W = _reviso_body(n, shape, param), cube_body(n)
    (AK, bK), (AM, bM) = K.halfspaces, W.halfspaces
    bK = bK * hull_volume_area(K.vertices)[0] ** (-1.0 / n)
    bM = bM / 2.0
    return [_sym_diff(AK, np.concatenate([bK + AK @ t, bM]), AM)
            for t in (np.zeros(n), np.array([0.8, 0.1, 0.0])[:n])]


@pytest.mark.parametrize("n,shape,param", SYM_DIFF_BODIES + RANDOM_POLYGONS)
def test_bfgs_driver_equals_scipy_bfgs(n, shape, param):
    # the delta_vol driver takes scipy's BFGS steps bit for bit from every
    # start, on its own port of scipy's line search; a scipy release that
    # changes its BFGS or its line search fails this oracle test without
    # moving the package
    K = _volume_distance_body(n, shape, param)
    (AK, bK), (AM, bM) = K.halfspaces, cube_body(n).halfspaces
    alpha = hull_volume_area(K.vertices)[0] ** (-1.0 / n)
    objective = _sym_diff(AK, np.concatenate([bK * alpha, bM / 2.0]), AM)
    for x0 in _body_starts(n, 8, 0.25, 0):
        fun, x, jac, nfev, nit = _bfgs(objective, x0)
        run = minimize(objective, x0, jac=True, method="BFGS",
                       options={"gtol": 1e-10})
        assert fun == run.fun and type(fun) is type(run.fun)
        assert np.array_equal(x, run.x) and np.array_equal(jac, run.jac)
        assert (nfev, nit) == (run.nfev, run.nit)
        # the gradient met gtol, or the line search failed at a kink
        assert (np.max(np.abs(jac)) <= 1e-10) == run.success
        assert run.success or run.status == 2


def _piecewise(s):
    # a value and a derivative that disagree: the cubic through them has a
    # negative discriminant at the second trial step
    if s == 0:
        return 0.0, -1.0
    return (-0.89 if s >= 1 else -0.89 + 2.0 * (1.0 - s) / 3.0,
            -0.5 if s >= 1 else -1.5)


# (name, phi, phi', first step, options) reaching each case of dcsrch
DCSRCH_CASES = [
    # a higher value, the cubic step and the modified function psi
    ("psi", lambda s: s * s - s, lambda s: 2 * s - 1, 1.0, {}),
    # a higher value, the mean of the cubic and quadratic steps
    ("mean", lambda s: s ** 4 - s, lambda s: 4 * s ** 3 - 1, 10.0, {}),
    # a smaller |derivative|, not bracketed: the cubic and the secant step
    ("far", lambda s: (s - 30.0) ** 2, lambda s: 2 * (s - 30.0), 1.0, {}),
    ("secant", lambda s: s ** 3 - 3 * s, lambda s: 3 * s * s - 3, 0.1, {}),
    # sign changes of the derivative and smaller |derivative|s, bracketed
    ("sine5", lambda s: -s + 0.1 * s * s - 0.5 * math.sin(5 * s),
     lambda s: -1 + 0.2 * s - 2.5 * math.cos(5 * s), 10.0, {"gtol": 0.1}),
    ("sine3", lambda s: -s + 0.3 * s * s - 0.5 * math.sin(3 * s),
     lambda s: -1 + 0.6 * s - 1.5 * math.cos(3 * s), 10.0, {"gtol": 0.1}),
    ("sine10", lambda s: -s + 0.1 * s * s - 0.5 * math.sin(10 * s),
     lambda s: -1 + 0.2 * s - 5.0 * math.cos(10 * s), 1.0, {"gtol": 0.1}),
    # a square (theta / s) ** 2 that x * x rounds to another last bit
    ("square", lambda s: -s + 0.3 * s * s - 2.0 * math.sin(10 * s),
     lambda s: -1 + 2 * 0.3 * s - 2.0 * 10 * math.cos(10 * s), 2.0,
     {"ftol": 0.45, "gtol": 0.5}),
    # a kink: bisection, the last case bracketed, the xtol warning
    ("kink", lambda s: 0.1 * s * s - s + 0.9 * abs(s - 1.0),
     lambda s: 0.2 * s - 1 + 0.9 * math.copysign(1.0, s - 1.0), 0.1,
     {"gtol": 0.01}),
    ("rounding", lambda s: abs(s - 0.7) - 0.7,
     lambda s: math.copysign(1.0, s - 0.7), 1.0, {}),
    # the last case, not bracketed, up to stpmax; and at a zero step
    ("stpmax", lambda s: -s, lambda s: -1.0, 1.0, {"stpmax": 5.0}),
    ("zero step", lambda s: -s, lambda s: -1.0, 0.0, {"stpmin": 0.0}),
    ("stpmin", lambda s: 100 * s * s - s, lambda s: 200 * s - 1, 1.0,
     {"stpmin": 0.5}),
    # an infinite value, and nan under the square root: a non-finite step
    ("inf", lambda s: -s if s < 2 else math.inf, lambda s: -1.0, 1.0, {}),
    ("nan sqrt", lambda s: _piecewise(s)[0], lambda s: _piecewise(s)[1], 1.0,
     {"ftol": 0.9, "gtol": 0.99}),
    # invalid input
    ("uphill", lambda s: s, lambda s: 1.0, 1.0, {}),
]


@pytest.mark.parametrize("name,phi,derphi,stp,options", DCSRCH_CASES,
                         ids=[case[0] for case in DCSRCH_CASES])
def test_dcsrch_equals_scipy_dcsrch(name, phi, derphi, stp, options):
    # scipy's DCSRCH, fed numpy scalars as BFGS feeds it, is the oracle
    from scipy.optimize._dcsrch import DCSRCH
    opts = {"ftol": 1e-4, "gtol": 0.9, "xtol": 1e-14, "stpmin": 1e-100,
            "stpmax": 1e100} | options
    f0, g0 = phi(0.0), derphi(0.0)
    theirs, ours = [], []

    def traced(steps, to):
        def at(s):
            steps.append(float(s))
            return to(phi(float(s)))
        return at

    with np.errstate(all="ignore"):
        oracle = DCSRCH(traced(theirs, np.float64),
                        lambda s: np.float64(derphi(float(s))), **opts)
        step, value, _, task = oracle(stp, phi0=np.float64(f0),
                                      derphi0=np.float64(g0))
    got = _dcsrch(traced(ours, float), lambda s: float(derphi(s)), stp,
                  float(f0), float(g0), **opts)
    assert ours == theirs
    assert got == (None if step is None else float(step), float(value),
                   task.decode())


def test_dcsrch_float_helpers_equal_numpy_scalars():
    rng = np.random.default_rng(0)
    special = [0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, math.inf, -math.inf,
               math.nan]
    xs = special + list(rng.standard_normal(2000)
                        * np.exp2(rng.uniform(-600, 600, 2000)))
    ys = special + list(rng.standard_normal(2000))
    # the squares of _dcsrch: |theta / s| <= 1, or nan
    us = [0.0, -0.0, 1.0, -1.0, math.nan] + list(rng.uniform(-1, 1, 2000))

    def same(a, b):
        return (a == b and math.copysign(1, a) == math.copysign(1, b)
                or a != a and b != b)

    with np.errstate(all="ignore"):
        for u in us:
            # libm pow on both, not x * x: they differ in the last bit for
            # some x
            assert same(float(u) ** 2, float(np.float64(u) ** 2))
        for x in xs:
            assert same(_quiet_sqrt(float(x)),
                        float(np.sqrt(np.float64(x))))
        for x, y in zip(xs, ys):
            assert same(_quiet_div(float(x), float(y)),
                        float(np.float64(x) / np.float64(y)))
        for x in special:
            for y in special:
                assert same(_quiet_div(x, y),
                            float(np.float64(x) / np.float64(y)))
                for z in special:
                    assert same(_clip(x, y, z), float(np.clip(np.float64(x),
                                                              y, z)))


@pytest.mark.parametrize("n,shape,param", SYM_DIFF_BODIES)
def test_sym_diff_gradient_matches_central_differences(n, shape, param, rng):
    h = 1e-6
    for objective in _sym_diff_systems(n, shape, param):
        for _ in range(4):
            x = (np.eye(n) + 0.3 * rng.normal(size=(n, n))).ravel()
            value, grad = objective(x)
            assert 0.0 < value < 2.0
            fd = [(objective(x + h * e)[0] - objective(x - h * e)[0]) / (2 * h)
                  for e in np.eye(n * n)]
            assert np.max(np.abs(grad - fd)) <= 1e-7
            # scale-invariant objective: the gradient is orthogonal to X
            assert abs(grad @ x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("n", [2, 3])
def test_sym_diff_empty_and_singular(n):
    objective = _sym_diff_systems(n, "cut", 0.25)[0]
    for x in (np.eye(n).ravel() * 1e-5, np.zeros(n * n)):    # |det| < 1e-9
        value, grad = objective(x)
        assert value == 2.0 and not grad.any()
    K = _reviso_body(n, "cut", 0.25)
    AK, bK = K.halfspaces
    AM, bM = cube_body(n).halfspaces
    shift = np.eye(n)[0] * 5.0
    far = _sym_diff(AK, np.concatenate([bK + AK @ shift, bM]), AM)
    value, grad = far(np.eye(n).ravel())
    assert value == 2.0 and not grad.any()


def test_intersection_moments_close_the_surface(rng):
    # sum_i a_i n_i = 0 and (1/n) sum_i <n_i, M_i> = V (the divergence
    # theorem), with V the three-call volume, centred or not; centred, V is
    # that of _hull_polar_volumes bit for bit (n = 3) and the exact polygon
    # clip's (n = 2)
    for n in (2, 3):
        systems = [(Ak, b) for A, b in _intersection_batches(n, rng)
                   for Ak in A]
        A, b, _ = _non_centred_batch(n)
        systems += [(Ak, b) for Ak in A[:4]]
        for Ak, bk in systems:
            V, a, M = _intersection_moments(Ak, bk)
            normals = Ak / np.linalg.norm(Ak, axis=1)[:, None]
            assert np.max(np.abs(a @ normals)) <= 1e-12
            assert abs(np.sum(normals * M) / n - V) <= 1e-12 * V
            assert abs(V - intersection_volume_three_call(Ak, bk)) <= 1e-12 * V
            if n == 2:
                assert abs(V - float(polygon_clip_area_exact(Ak, bk))) \
                    <= 1e-12 * V
            elif (bk > 1e-12).all():
                assert V == _hull_polar_volumes(Ak / bk[:, None])[1]
        assert _intersection_moments(A[5], b)[0] == 0.0       # disjoint


def test_intersection_volume_empty_and_invalid():
    for n in (2, 3):
        A = np.vstack([np.eye(n), -np.eye(n)])
        A2 = np.vstack([A, A])
        one, zero = np.ones(n), np.zeros(n)
        # disjoint cubes [0, 1]^n and [2, 3]^n, and two touching ones
        disjoint = np.concatenate([one, zero, 3.0 * one, -2.0 * one])
        touching = np.concatenate([one, zero, 2.0 * one, -one])
        for b in (disjoint, touching):
            V, a, M = _intersection_moments(A2, b)
            assert V == 0.0 and not a.any() and not M.any()
            if n == 2:
                assert polygon_clip_area_exact(A2, b) == 0
        # an off-centre overlap: the unit cube at the origin and at 1/2
        b = np.concatenate([one, zero, 1.5 * one, -0.5 * one])
        assert _intersection_moments(A2, b)[0] == pytest.approx(0.5 ** n)
        with pytest.raises(ValueError):         # a malformed system is a bug
            _intersection_moments(A2, b[:-1])


def test_volume_distance_disjoint_non_centred_body(monkeypatch):
    # a triangle away from the origin: its volume-normalized copy misses the
    # cube at every start, where the objective is flat, so each BFGS start
    # stops after one evaluation and one Chebyshev-centre LP
    lps = []
    real = bodies.linprog
    monkeypatch.setattr(bodies, "linprog",
                        lambda *a, **k: lps.append(1) or real(*a, **k))
    far = BodyRep.from_vertices(np.array([[3.0, 0.0], [4.0, 0.0], [3.0, 1.0]]))
    restarts = 4
    val, cert = volume_distance(far, cube_body(2), restarts=restarts)
    assert val == 2.0
    assert cert["nfev"] == restarts
    assert len(lps) == restarts
