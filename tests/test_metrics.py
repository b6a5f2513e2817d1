import math

import numpy as np
import pytest

from isozonoid.bodies import BodyRep, cube_body, hull_volume_area
from isozonoid.errors import HypothesisFailedError, MassMismatchError
from isozonoid.harness import (john_normalize, perturbation_family,
                               random_even_isotropic, regular_polygon_body,
                               tilted_pair_measure, truncated_cube_body)
from isozonoid.measures import (AtomicMeasure, cross_measure,
                                equiangular_measure, unit_vector)
from isozonoid import bodies, metrics
from isozonoid.metrics import (_cross_transport_dual, _hausdorff_to_cross_batch,
                               _intersection_volume, _intersection_volumes,
                               _lockstep_nelder_mead,
                               banach_mazur,
                               deep_hole, fit_cross_frame, hausdorff_spherical,
                               hausdorff_to_cross, rotated_cross_measure,
                               volume_distance, wasserstein,
                               wasserstein_hausdorff_bound,
                               wasserstein_to_cross)

from oracles import (banach_mazur_per_start, intersection_volume_three_call,
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
    assert plan.check_marginals(nu2.weights, nu2.weights)


def test_wasserstein_rotated_cross(nu2):
    for alpha in (0.1, 0.3, np.pi / 4):
        rot = rotated_cross_measure(2, rot2(alpha).T)
        val, plan = wasserstein(nu2, rot)
        assert val == pytest.approx(2.0 * alpha, abs=1e-9)
        assert plan.check_marginals(nu2.weights, rot.weights)


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
            batch = _hausdorff_to_cross_batch(X, R)
            scalar = [hausdorff_spherical(X, np.vstack([r, -r])) for r in R]
            assert np.array_equal(batch, scalar)


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
    o_val, _, o_start, o_nfev = banach_mazur_per_start(disc, cube_body(2), 6)
    assert (val, cert["best_start"], cert["nfev"]) == (o_val, o_start, o_nfev)
    # 1-parameter exhaustive check over square rotations: the reported value
    # is an upper bound and cannot beat the rotation family by more than
    # numerical slack
    best = math.inf
    for phi in np.linspace(0, np.pi / 2, 400):
        R = rot2(phi)
        VK = disc.vertices @ R
        inner = np.max(np.abs(VK))                       # cube gauge of disc
        outer = np.max(np.linalg.norm(cube_body(2).to_vrep().vertices @ R.T,
                                      axis=1))           # disc gauge of cube
        best = min(best, math.log(inner * outer))
    assert best - 1e-9 <= val <= math.log(math.sqrt(2.0)) + 1e-9


def test_volume_distance_positive_for_different_bodies():
    hexb = BodyRep.from_halfspaces(
        np.stack([np.cos(np.arange(6) * np.pi / 3),
                  np.sin(np.arange(6) * np.pi / 3)], axis=1), np.ones(6),
        check_bounded=False)
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


@pytest.mark.parametrize("objective,N,maxiter", [
    (_rosenbrock_rows, 4, 250), (_rosenbrock_rows, 4, 3000),
    (_kinked_rows, 9, 400), (_kinked_rows, 9, 4000),
    (_stepped_rows, 4, 400), (_stepped_rows, 9, 400)])
def test_lockstep_nelder_mead_matches_scipy_per_start(objective, N, maxiter):
    rng = np.random.default_rng(N * maxiter)
    x0 = np.vstack([np.zeros(N), rng.normal(size=(7, N))])
    x0[1, ::2] = 0.0                 # zero entries take scipy's zdelt step
    fun, x, nfev = _lockstep_nelder_mead(objective, x0, 1e-8, 1e-10, maxiter)
    o_fun, o_x, o_nfev = multistart_nelder_mead(
        lambda w: float(objective(w[None])[0]), x0, 1e-8, 1e-10, maxiter)
    assert np.array_equal(fun, o_fun)
    assert np.array_equal(x, o_x)
    assert np.array_equal(nfev, o_nfev)


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
    o_val, o_lam, o_start, o_nfev = banach_mazur_per_start(
        K, cube_body(n), restarts)
    assert val == o_val
    assert cert["lambda"] == o_lam
    assert (cert["best_start"], cert["nfev"]) == (o_start, o_nfev)


@pytest.mark.parametrize("n,shape,param", REVISO_BODIES)
def test_volume_distance_not_above_per_start_scipy(n, shape, param):
    K = _reviso_body(n, shape, param)
    restarts = 4 if n == 2 else 2
    val, cert = volume_distance(K, cube_body(n), restarts=restarts)
    o_val, _, _ = volume_distance_per_start(K, cube_body(n), restarts)
    assert 0.0 <= val <= o_val + 1e-9
    assert 0 <= cert["best_start"] < restarts
    assert cert["nfev"] >= restarts * (n * n + 1)


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
        AK, bK = K.to_hrep().halfspaces
        alpha = hull_volume_area(K.to_vrep().vertices)[0] ** (-1.0 / n)
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
        batch = _intersection_volumes(A, b)
        for Ak, got in zip(A, batch):
            assert got == _intersection_volume(Ak, b)
            assert got > 0.0
            assert abs(got - intersection_volume_three_call(Ak, b)) <= 1e-12


def test_intersection_volume_matches_exact_polygon_clip(rng):
    for A, b in _intersection_batches(2, rng):
        got = _intersection_volumes(A, b)
        exact = np.array([float(polygon_clip_area_exact(Ak, b)) for Ak in A])
        assert np.max(np.abs(got - exact)) <= 1e-12


def test_polar_area_invariant_under_row_order(rng):
    # duplicate dual points go to the lower index, so reordering the rows
    # moves every arc but must not move the area
    for A, b in _intersection_batches(2, rng):
        base = _intersection_volumes(A, b)
        for _ in range(4):
            perm = rng.permutation(len(b))
            assert np.max(np.abs(_intersection_volumes(A[:, perm], b[perm])
                                 - base)) <= 1e-15


def test_polar_volume_of_boxes_under_diagonal_maps(rng):
    # [-1, 1]^3 against diag(d) [-1, 1]^3: a box of half-widths min(d_i, 1),
    # with coincident facets wherever d_i = 1 and near-coincident ones at
    # 1 +- 1e-14
    D = np.vstack([np.ones(3), [1.0, 1.0, 0.5], [1.0 + 1e-14, 1.0, 1.0],
                   [1.0 - 1e-14, 2.0, 1.0], np.exp(rng.normal(size=(8, 3)))])
    cube = np.vstack([np.eye(3), -np.eye(3)])
    A = np.array([np.vstack([cube / np.tile(d, 2)[:, None], cube]) for d in D])
    got = _intersection_volumes(A, np.ones(12))
    assert np.max(np.abs(got - 8.0 * np.prod(np.minimum(D, 1.0), axis=1))) \
        <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_intersection_volumes_non_centred_batch(n):
    # [0, 1]^n against s [0.5, 1.5]^n for s in a batch: overlaps of side
    # min(1, 1.5 s) - 0.5 s, touching at s = 2 and disjoint at s = 3, all
    # through the Chebyshev-centre shift
    cube = np.vstack([np.eye(n), -np.eye(n)])
    b = np.concatenate([np.ones(n), np.zeros(n), np.full(n, 1.5),
                        np.full(n, -0.5)])
    s = np.array([1.0, 0.5, 0.8, 1.9, 2.0, 3.0])
    A = np.array([np.vstack([cube, cube / si]) for si in s])
    got = _intersection_volumes(A, b)
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
        _intersection_volumes(A, b)
        assert len(calls) == (0 if n == 2 else len(A))
    # the n = 2 search makes no hull call (its setup's conversions do)
    searched = []
    real_volumes = metrics._intersection_volumes

    def counted_volumes(A, b):
        start = len(calls)
        out = real_volumes(A, b)
        searched.append(len(calls) - start)
        return out

    monkeypatch.setattr(metrics, "_intersection_volumes", counted_volumes)
    volume_distance(_reviso_body(2, "cut", 0.25), cube_body(2), restarts=2)
    assert searched and set(searched) == {0}
    assert not hasattr(metrics, "HalfspaceIntersection")


def test_intersection_volume_empty_and_invalid():
    A = np.vstack([np.eye(2), -np.eye(2)])
    # disjoint squares [0, 1]^2 and [2, 3]^2, and two touching ones
    disjoint = np.array([1.0, 1.0, 0.0, 0.0, 3.0, 3.0, -2.0, -2.0])
    touching = np.array([1.0, 1.0, 0.0, 0.0, 2.0, 2.0, -1.0, -1.0])
    for b in (disjoint, touching):
        assert _intersection_volume(np.vstack([A, A]), b) == 0.0
        assert polygon_clip_area_exact(np.vstack([A, A]), b) == 0
    # an off-centre overlap: the unit square at the origin and at (0.5, 0.5)
    b = np.array([1.0, 1.0, 0.0, 0.0, 1.5, 1.5, -0.5, -0.5])
    assert _intersection_volume(np.vstack([A, A]), b) == pytest.approx(0.25)
    with pytest.raises(ValueError):         # a malformed system is a bug
        _intersection_volume(np.vstack([A, A]), b[:-1])


def test_volume_distance_disjoint_non_centred_body():
    # a triangle away from the origin: its volume-normalized copy misses the
    # cube under every map the search tries, so every intersection is empty
    far = BodyRep.from_vertices(np.array([[3.0, 0.0], [4.0, 0.0], [3.0, 1.0]]))
    val, cert = volume_distance(far, cube_body(2), restarts=2)
    assert val == 2.0
    assert cert["nfev"] > 0
