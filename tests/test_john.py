import math

import numpy as np
import pytest

from isozonoid import john
from isozonoid.bodies import (BodyRep, circle_grid, cube_body, hull_volume_area,
                              icosphere, unit_ball_volume)
from isozonoid.errors import (DimensionUnsupportedError, HypothesisFailedError,
                              NoContactsError, PreconditionViolatedError)
from isozonoid.harness import (john_normalize, regular_polygon_body,
                               tilted_pair_measure, truncated_cube_body)
from isozonoid.john import (bmkzw_check, contact_measure, cube_sandwich_check,
                            isoperimetric_ratio, john_ellipsoid,
                            xi_region_certificate)
from isozonoid.measures import check_isotropy

from oracles import (max_logdet_shape_loop, polytope_support_lp,
                     xi_region_volume_mc)


def test_john_of_cube_is_ball():
    for n in (2, 3):
        ell = john_ellipsoid(cube_body(n))
        assert ell.ball_deviation() <= 1e-8
        assert ell.volume == pytest.approx(unit_ball_volume(n), rel=1e-8)


def test_john_of_scaled_box():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([2.0, 2.0, 1.0, 1.0])
    ell = john_ellipsoid(BodyRep.from_halfspaces(A, b))
    assert np.allclose(ell.shape, np.diag([0.25, 1.0]), atol=1e-9)


def test_john_of_inscribed_hexagon():
    # hexagon with vertices on S^1 has inradius sqrt(3)/2
    ang = np.arange(6) * np.pi / 3
    K = BodyRep.from_vertices(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    ell = john_ellipsoid(K)
    assert np.allclose(ell.shape, np.eye(2) / (3.0 / 4.0), atol=1e-8)


def test_john_rejects_bodies_not_symmetric_about_the_origin():
    # the certificate checks sum c_i u_i u_i^T = Id only; sum c_i u_i = 0
    # needs the symmetry, and this kite's contacts would miss it
    kite = BodyRep.from_vertices([[2.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                                  [0.0, -1.0]])
    with pytest.raises(PreconditionViolatedError, match="symmetric"):
        john_ellipsoid(kite)


def test_john_affine_equivariance(rng):
    K = truncated_cube_body(2, 0.2)
    ell = john_ellipsoid(K)
    M = np.array([[1.3, 0.2], [0.0, 0.8]])
    KV = K.vertices @ M.T
    ell2 = john_ellipsoid(BodyRep.from_vertices(KV))
    # E2 = M E  =>  A2 = M^{-T} A M^{-1}
    Minv = np.linalg.inv(M)
    expected = Minv.T @ ell.shape @ Minv
    assert np.allclose(ell2.shape, expected, atol=1e-6)


def test_max_logdet_shape_equals_the_loop_newton():
    # the stacked Newton step gives the loop's Q bit for bit: on the reviso
    # bodies and on 12 seeded random symmetric polytopes
    bodies = [cube_body(2), truncated_cube_body(2, 0.1),
              truncated_cube_body(2, 0.25), regular_polygon_body(3),
              cube_body(3), truncated_cube_body(3, 0.1),
              truncated_cube_body(3, 0.25)]
    rng = np.random.default_rng(1991)
    for n in (2, 3):
        for _ in range(6):
            P = rng.normal(size=(int(rng.integers(3, 8)), n))
            bodies.append(BodyRep.from_vertices(np.vstack([P, -P])))
    for K in bodies:
        F = john._normalized_facets(K)
        assert np.array_equal(john._max_logdet_shape(F, K.dim),
                              max_logdet_shape_loop(F, K.dim))


def test_contact_measure_of_cube_is_cross():
    for n in (2, 3):
        mu = contact_measure(cube_body(n))
        assert mu.natoms == 2 * n
        assert np.allclose(mu.weights, 0.5, atol=1e-10)
        assert check_isotropy(mu, 1e-8).is_isotropic


def test_contact_measure_hexagon_weights():
    mu = contact_measure(regular_polygon_body(3))
    assert mu.natoms == 6
    assert np.allclose(mu.weights, 1.0 / 3.0, atol=1e-10)


def test_contact_measure_requires_john_position():
    with pytest.raises(NoContactsError):
        contact_measure(cube_body(2, 2.0))      # ball strictly inside
    with pytest.raises(NoContactsError):
        contact_measure(cube_body(2, 0.5))      # too small to contain B^n


def test_inclusion_chain_exact():
    for K in (cube_body(2), truncated_cube_body(3, 0.3), regular_polygon_body(4)):
        mu = contact_measure(K)
        V = K.vertices
        assert float(np.max(V @ mu.directions.T)) <= 1.0 + 1e-9


def test_surface_area_and_ratio():
    surface = hull_volume_area(cube_body(2).vertices)[1]
    assert surface == pytest.approx(8.0, abs=1e-10)
    assert isoperimetric_ratio(cube_body(2)) == pytest.approx(16.0, abs=1e-9)
    surface = hull_volume_area(cube_body(3).vertices)[1]
    assert surface == pytest.approx(24.0, abs=1e-10)
    assert isoperimetric_ratio(cube_body(3)) == pytest.approx(216.0, abs=1e-8)
    # rotated scaled square keeps the planar ratio S^2/V = 16
    diamond = BodyRep.from_vertices(np.array([[1.0, 0.0], [0.0, 1.0],
                                              [-1.0, 0.0], [0.0, -1.0]]))
    assert isoperimetric_ratio(diamond) == pytest.approx(16.0, abs=1e-9)


def test_volume_at_least_surface_over_n():
    # V(C) >= S(C)/n whenever B^n is contained in C
    for K in (cube_body(3), truncated_cube_body(3, 0.2), regular_polygon_body(5)):
        vol, surf = hull_volume_area(K.vertices)
        assert vol >= surf / K.dim - 1e-10


def _xi_slack(u, u0, Y):
    """The least slack of the points Y (rows) in the constraints of
    Xi_{u,u0}, each scaled to a unit normal; negative outside Xi."""
    d = u - u0
    slack = np.minimum(Y @ u - 1.0 / 30.0, Y @ u0 - 1.0 / 30.0)
    slack = np.minimum(slack, 0.1 - np.linalg.norm(Y, axis=1))
    if np.linalg.norm(d) > 0:
        slack = np.minimum(slack, Y @ (d / np.linalg.norm(d)) - 1.0 / 120.0)
    return float(np.min(slack))


def _xi_check(u, u0):
    """The certificate of (u, u0), after checking that its ball lies in Xi
    (boundary points to 1e-12) and that 1.01 times its radius does not."""
    u = np.asarray(u, dtype=float) / np.linalg.norm(u)
    u0 = np.asarray(u0, dtype=float) / np.linalg.norm(u0)
    cert = xi_region_certificate(u, u0)
    W = circle_grid(4096) if len(u) == 2 else icosphere(4)
    c, rho = cert["center"], cert["radius"]
    assert _xi_slack(u, u0, c + rho * W) >= -1e-12
    assert _xi_slack(u, u0, c + 1.01 * rho * W) < 0.0
    assert cert["lower"] == unit_ball_volume(len(u)) * rho ** len(u)
    assert cert["bound"] == unit_ball_volume(len(u)) / 240.0 ** len(u)
    assert cert["passed"] and rho >= 1.0 / 240.0
    return cert


def test_xi_region_parallel_case_with_analytic_check():
    # u = u0: Xi is the circular segment of 0.1 B^2 above height 1/30
    r, h = 0.1, 1.0 / 30.0
    segment = r * r * math.acos(h / r) - h * math.sqrt(r * r - h * h)
    cert = _xi_check([1.0, 0.0], [1.0, 0.0])
    assert cert["lower"] <= segment
    estimate, _ = xi_region_volume_mc([1.0, 0.0], [1.0, 0.0], 2 * 10 ** 6)
    assert estimate == pytest.approx(segment, rel=5e-3)


def _below_the_sampled_volume(u, u0):
    cert = _xi_check(u, u0)
    estimate, stderr = xi_region_volume_mc(u, u0, 10 ** 6)
    assert cert["lower"] <= estimate + 3.0 * stderr


def test_xi_region_orthogonal_case():
    _below_the_sampled_volume([1.0, 0.0], [0.0, 1.0])


def test_xi_region_3d():
    _below_the_sampled_volume([1.0, 0.0, 0.0],
                              [1.0 / math.sqrt(2), 1.0 / math.sqrt(2), 0.0])


@pytest.mark.parametrize("n", [2, 3])
def test_xi_region_certificate_on_seeded_pairs(n):
    # 100 seeded pairs with <u, u0> >= 0, and u = u0 and u orthogonal to u0
    rng = np.random.default_rng(240 + n)
    e = np.eye(n)
    pairs = [(e[0], e[0]), (e[0], e[1])]
    for _ in range(100):
        u, u0 = rng.standard_normal((2, n))
        pairs.append((u, u0 if u @ u0 >= 0 else -u0))
    for u, u0 in pairs:
        _xi_check(u, u0)


def test_xi_region_precondition():
    with pytest.raises(PreconditionViolatedError):
        xi_region_certificate([1.0, 0.0], [-0.2, math.sqrt(1 - 0.04)])
    with pytest.raises(DimensionUnsupportedError):
        xi_region_certificate(np.eye(4)[0], np.eye(4)[0])


def test_cube_sandwich_tight_at_cross(nu2):
    rep = cube_sandwich_check(nu2, 1e-9)
    assert rep["passed"]


def test_cube_sandwich_tilted():
    mu = tilted_pair_measure(2, 0.05)
    rep = cube_sandwich_check(mu, 0.06)
    assert rep["passed"] and rep["delta_H"] == pytest.approx(0.05, abs=1e-12)


def test_cube_sandwich_sweep(rng):
    for _ in range(50):
        alpha = rng.uniform(0.005, 0.15)
        mu = tilted_pair_measure(2, alpha * 0.9)
        rep = cube_sandwich_check(mu, alpha)
        assert rep["passed"]


def test_cube_sandwich_outer_check_matches_lp(rng):
    # the measures of test_cube_sandwich_sweep: h_{Z*_inf}(+-e_i) from the
    # vertices of Z*_inf against one LP per direction, and the same verdict
    cross = np.vstack([np.eye(2), -np.eye(2)])
    for _ in range(50):
        alpha = rng.uniform(0.005, 0.15)
        mu = tilted_pair_measure(2, alpha * 0.9)
        U = mu.directions
        h_lp = polytope_support_lp(U, np.ones(len(U)), cross)
        polar = BodyRep.from_halfspaces(U, np.ones(len(U)))
        assert np.max(np.abs(polar.support(cross) - h_lp)) <= 1e-12
        outer_lp = bool(np.all(h_lp <= math.exp(4.0 * alpha) + 1e-12))
        assert cube_sandwich_check(mu, alpha)["outer_ok"] == outer_lp


def test_john_solves_no_lp():
    assert not hasattr(john, "linprog")
    assert "scipy.optimize" not in open(john.__file__).read()


def test_cube_sandwich_hypothesis(nu2, hexm):
    with pytest.raises(HypothesisFailedError):
        cube_sandwich_check(hexm, 0.16)       # hexagon support too far
    with pytest.raises(HypothesisFailedError):
        cube_sandwich_check(nu2, 0.5)         # alpha >= 1/(3n)


def test_bmkzw_cut_family():
    tau = 0.2
    K = cube_body(2, 1.0 - 2.0 * tau - 0.01)
    Z = cube_body(2, 1.0 - tau)
    rep = bmkzw_check(K, Z, tau)
    assert rep["passed"]


def test_bmkzw_corner_truncated():
    # cut depth must exceed 2 sqrt(2) tau so (1-2tau)W^2 pokes out of K
    tau = 0.1
    K = truncated_cube_body(2, 0.3)
    Z = cube_body(2)
    rep = bmkzw_check(K, Z, tau)
    assert rep["passed"]


def test_bmkzw_hypothesis_named():
    tau = 0.2
    K = cube_body(2, 0.9)                      # contains (1-2tau)W^n
    Z = cube_body(2)
    with pytest.raises(HypothesisFailedError):
        bmkzw_check(K, Z, tau)


def test_john_normalize_roundtrip():
    K, Phi = john_normalize(truncated_cube_body(2, 0.25))
    assert john_ellipsoid(K).ball_deviation() <= 1e-8
