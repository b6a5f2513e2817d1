import json
import math

import numpy as np
import pytest
import scipy.spatial

from isozonoid import bodies, metrics
from isozonoid.bodies import (EXACT_REL_ERR, BodyRep, _eval_fn, _touch_points,
                              body_from_json, circle_grid,
                              cross_polytope_body, cube_body,
                              halfspace_vertices, icosphere,
                              polar_of_vrep, sphere_grid, unit_ball_volume,
                              vertices_to_halfspaces, volume,
                              zonotope_vertices, zonotope_volume)
from isozonoid.errors import UnboundedBodyError
from isozonoid.harness import (octagon_Q_body, random_even_isotropic,
                               regular_polygon_body, truncated_cube_body)
from isozonoid.measures import cross_measure
from isozonoid.zonoids import body_Zp, zp_touch_point

from oracles import (central_difference_touch_points, gauge_mc_volume_full,
                     halfspace_vertices_hsi, tangent_body_volume_hsi,
                     vertex_enum_combinatorial)


def test_cube_volume_exact():
    res = volume(cube_body(2))
    assert res.method == "EXACT" and res.value == pytest.approx(4.0, abs=1e-12)
    res3 = volume(cube_body(3))
    assert res3.value == pytest.approx(8.0, abs=1e-12)
    assert res3.abs_error <= 1e-9 * res3.value


def test_cross_polytope_volume():
    res = volume(cross_polytope_body(3))
    assert res.value == pytest.approx(8.0 / 6.0, abs=1e-12)


def _ball_support(v):
    return np.linalg.norm(v, axis=-1)


def _ball_touch(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_support_oracle_ball_area():
    body = BodyRep.from_support(2, _ball_support, touch_fn=_ball_touch)
    res = volume(body)
    assert res.method == "QUADRATURE"
    assert abs(res.value - math.pi) <= res.abs_error + 1e-9


def test_support_oracle_ball_volume_3d():
    body = BodyRep.from_support(3, _ball_support, touch_fn=_ball_touch)
    res = volume(body, grid=icosphere(3))
    assert abs(res.value - unit_ball_volume(3)) <= res.abs_error


def test_gauge_oracle_ball():
    for n in (2, 3):
        body = BodyRep.from_gauge(n, lambda x: np.linalg.norm(np.atleast_2d(x), axis=1))
        res = volume(body, mc_samples=200000)
        assert res.value == pytest.approx(unit_ball_volume(n), rel=1e-6)


def test_hrep_to_vrep_and_back():
    K = cube_body(3)
    V = K.to_vrep()
    assert len(V.vertices) == 8
    H = V.to_hrep()
    assert len(H.halfspaces[0]) == 6
    assert volume(H).value == pytest.approx(8.0)


def test_vertex_enum_matches_combinatorial_oracle(rng):
    # random symmetric polytopes: intersections of slabs
    for _ in range(10):
        m = 5
        A = rng.standard_normal((m, 2))
        A = np.vstack([A, -A])
        b = np.concatenate([np.ones(m), np.ones(m)]) + 0.2
        K = BodyRep.from_halfspaces(A, b, check_bounded=False)
        try:
            mine = K.to_vrep().vertices
        except Exception:
            continue
        oracle = vertex_enum_combinatorial(A, b)
        assert len(mine) == len(oracle)
        for x in mine:
            assert min(np.linalg.norm(oracle - x, axis=1)) < 1e-8


def test_unbounded_hrep_raises():
    with pytest.raises(UnboundedBodyError):
        BodyRep.from_halfspaces(np.array([[1.0, 0.0], [0.0, 1.0]]),
                                np.array([1.0, 1.0]))


def test_support_homogeneity_check():
    with pytest.raises(ValueError):
        BodyRep.from_support(2, lambda v: _ball_support(v) + 1.0)


def test_gauge_and_support_evaluations():
    K = cube_body(2)
    assert K.gauge([0.5, 0.25]) == pytest.approx(0.5)
    assert K.support([1.0, 1.0]) == pytest.approx(2.0)
    assert K.contains([0.99, 0.0]) and not K.contains([1.01, 0.0])


def test_polar_of_cross_polytope_is_cube():
    C = cross_polytope_body(2)
    P = polar_of_vrep(C.vertices)
    assert volume(P).value == pytest.approx(4.0)


def test_zonotope_volume_against_hull(rng):
    for n in (2, 3):
        for _ in range(8):
            G = rng.standard_normal((5, n))
            v_minors = zonotope_volume(G)
            verts = zonotope_vertices(G)
            v_hull = volume(BodyRep.from_vertices(verts)).value
            assert v_minors == pytest.approx(v_hull, rel=1e-9)


def test_volume_orthogonal_invariance_and_scaling(rng):
    V = rng.standard_normal((12, 3))
    body = BodyRep.from_vertices(V)
    base = volume(body).value
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rot = BodyRep.from_vertices(V @ q.T)
    assert volume(rot).value == pytest.approx(base, rel=1e-10)
    lam = 1.7
    assert volume(BodyRep.from_vertices(lam * V)).value == pytest.approx(
        lam ** 3 * base, rel=1e-10)


def test_direction_grids():
    assert len(circle_grid(4096)) == 4096
    assert len(icosphere(5)) == 10242
    g = sphere_grid(3)
    assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)


def test_body_json_round_trip():
    K = cube_body(2)
    data = K.to_json_dict()
    back = body_from_json(json.dumps(data))
    assert volume(back).value == pytest.approx(4.0)
    V = cross_polytope_body(2)
    back2 = body_from_json(V.to_json_dict())
    assert volume(back2).value == pytest.approx(2.0)


def test_scalar_oracles_are_rejected():
    # an oracle that is not vectorized gives one value for a whole grid (or
    # fails on it); both surface instead of falling back to a row loop
    scalar = BodyRep.from_support(2, lambda v: float(np.linalg.norm(v)),
                                  touch_fn=_ball_touch)
    with pytest.raises(ValueError):
        volume(scalar)
    with pytest.raises(ValueError):
        volume(BodyRep.from_gauge(2, lambda x: float(np.linalg.norm(x))),
               mc_samples=1000)

    def rows_only(v):
        if np.ndim(v) == 2:
            raise TypeError("oracle bug")
        return float(np.linalg.norm(v))

    with pytest.raises(TypeError):
        _eval_fn(rows_only, circle_grid(8))
    bad_touch = BodyRep.from_support(2, _ball_support,
                                     touch_fn=lambda v: _ball_touch(v)[0])
    with pytest.raises(ValueError):
        volume(bad_touch)


def test_central_difference_touch_points_match_per_direction_loop(rng):
    # no touch oracle: the gradient of the support function, every shifted
    # grid in one oracle call, against the former loop over directions
    for n, dirs in ((2, circle_grid(64)), (3, icosphere(2))):
        G = rng.standard_normal((7, n))
        body = BodyRep.from_support(
            n, lambda v: np.sum(np.abs(np.asarray(v) @ G.T), axis=-1))
        got = _touch_points(body, dirs)
        assert got.shape == dirs.shape
        want = central_difference_touch_points(body.fn, dirs)
        # batched and single-row products may differ in the last bits of
        # support values of size ~5, which the quotient scales by 1/(2h)
        assert np.max(np.abs(got - want)) <= 1e-8


def _hrep_cases(rng):
    """Halfspace systems: the suites' polytopes, the cross-polytope, a random
    Z*_inf polytope and random polytopes away from the origin."""
    cases = {}
    for n in (2, 3):
        cases[f"cube{n}"] = cube_body(n).halfspaces
        for cut in (0.1, 0.25):
            cases[f"cut{n}-{cut}"] = truncated_cube_body(n, cut).halfspaces
        # the cross-polytope's triangulated dual facets repeat vertices
        cases[f"cross{n}"] = cross_polytope_body(n).to_hrep().halfspaces
        mu = random_even_isotropic(n, n * (n + 1) // 2 + 2, rng)
        cases[f"zstar-inf{n}"] = (mu.directions, np.ones(mu.natoms))
        # taken about their Chebyshev centres
        for k in range(3):
            cases[f"off-centre{n}-{k}"] = vertices_to_halfspaces(
                rng.normal(size=(10, n)) + 3.0)
    for m in (3, 4, 6):
        cases[f"polygon{m}"] = regular_polygon_body(m).halfspaces
    cases["octagon"] = octagon_Q_body(0.2, 0.3, 0.05, -0.1).to_hrep().halfspaces
    return cases


def test_halfspace_vertices_bit_equal_to_halfspace_intersection(rng):
    for name, (A, b) in _hrep_cases(rng).items():
        got = halfspace_vertices(A, b)
        want = halfspace_vertices_hsi(A, b)
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("n", [2, 3])
def test_halfspace_vertices_off_centre_box(n):
    # the box prod [lo_i, hi_i] away from the origin: the dual hull is taken
    # about its Chebyshev centre, and the vertices are the 2^n corners
    lo = np.array([1.0, 3.0, -2.5])[:n]
    hi = np.array([2.0, 5.0, -0.5])[:n]
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = np.concatenate([hi, -lo])
    got = halfspace_vertices(A, b)
    corners = np.array([np.where(s, hi, lo) for s in
                        np.ndindex(*[2] * n)], dtype=float)
    assert len(got) == len(corners)
    for c in corners:
        assert np.min(np.max(np.abs(got - c), axis=1)) <= 1e-12
    assert np.array_equal(got, halfspace_vertices_hsi(A, b))
    assert volume(BodyRep.from_halfspaces(A, b)).value == pytest.approx(np.prod(hi - lo), rel=1e-12)


def _outer_bound(res):
    """v_out of a support sandwich from its midpoint and bar."""
    return res.value + (res.abs_error - EXACT_REL_ERR * res.value)


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
def test_support_sandwich_outer_bound_matches_halfspace_intersection(p, rng):
    grid = sphere_grid(3)
    mus = [random_even_isotropic(3, 8, rng)]
    if p == 1.5:
        mus.append(cross_measure(3))
    for mu in mus:
        res = volume(body_Zp(mu, p))
        v_out = tangent_body_volume_hsi(grid, body_Zp(mu, p).fn(grid))
        v_in = float(scipy.spatial.ConvexHull(zp_touch_point(mu, p, grid)
                                              ).volume)
        assert abs(_outer_bound(res) - v_out) <= 1e-12 * v_out
        mid = 0.5 * (v_out + v_in)
        assert abs(res.value - mid) <= 1e-12 * mid
        # the bar is a difference of the two volumes, so it carries their
        # rounding on the volume scale
        bar = 0.5 * (v_out - v_in) + EXACT_REL_ERR * mid
        assert abs(res.abs_error - bar) <= 1e-12 * mid
        assert res.method == "QUADRATURE"


def test_support_sandwich_n3_makes_two_hull_calls(monkeypatch):
    # one hull of the dual points (outer) and one of the touch points (inner)
    sphere_grid(3)                          # the cached grid is built once
    hulls, halfspaces = [], []
    real = bodies.ConvexHull
    monkeypatch.setattr(bodies, "ConvexHull",
                        lambda *a, **k: hulls.append(1) or real(*a, **k))
    monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection",
                        lambda *a, **k: halfspaces.append(1))
    res = volume(body_Zp(cross_measure(3), 1.5))
    assert res.value > 0.0
    assert len(hulls) == 2 and halfspaces == []


def test_no_halfspace_intersection_left():
    assert not hasattr(bodies, "HalfspaceIntersection")
    assert not hasattr(metrics, "HalfspaceIntersection")


def _euclidean(X):
    X = np.atleast_2d(X)
    return np.sqrt(np.einsum("ij,ij->i", X, X))


def test_gauge_radii_contract():
    for bad in ((-0.1, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.5, math.nan)):
        with pytest.raises(ValueError):
            BodyRep.from_gauge(2, _euclidean, radii=bad)
    assert BodyRep.from_gauge(2, _euclidean).radii is None
    assert BodyRep.from_gauge(2, _euclidean, radii=(0, math.inf)).radii == (
        0.0, math.inf)
    assert BodyRep.from_gauge(2, _euclidean, radii=(1, 1)).radii == (1.0, 1.0)


class _SphereDraws:
    """Stand-in for the sampler's generator: every draw u puts the sample
    u * rmax within a few ulp of the unit sphere."""

    def __init__(self, rmax):
        self.rmax = rmax
        self.rng = np.random.Generator(np.random.PCG64(17))

    def random(self, shape):
        d = np.abs(self.rng.standard_normal(shape))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        ulps = self.rng.integers(-4, 5, size=(shape[0], 1))
        return d * (1.0 + ulps * np.finfo(float).eps) / self.rmax


@pytest.mark.parametrize("n", [2, 3])
def test_shell_margin_sends_boundary_samples_to_the_oracle(n, monkeypatch):
    # the unit ball with exact radii (1, 1): only the margin keeps samples
    # on its boundary, where the oracle's rounding decides, in the shell
    ball = BodyRep.from_gauge(n, _euclidean, radii=(1.0, 1.0))
    rmax = float(np.max(1.0 / _euclidean(sphere_grid(n, 256, 2)))) * 1.05
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _SphereDraws(rmax))
    got = bodies._gauge_mc_volume(ball, 40_000, 0)
    assert 0.0 < got[0] < rmax ** n * 2 ** n
    assert got == gauge_mc_volume_full(ball, 40_000, 0)
