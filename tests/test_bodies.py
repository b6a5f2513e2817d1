import json
import math

import numpy as np
import pytest
import scipy.spatial

from isozonoid import bodies, metrics
from isozonoid.bodies import (BodyRep, body_from_json, circle_grid,
                              cross_polytope_body, cube_body,
                              halfspace_vertices, icosphere,
                              sphere_grid, support_sandwich,
                              unit_ball_volume, vertices_to_halfspaces,
                              volume, zonotope_facets, zonotope_volume)
from isozonoid.errors import DimensionUnsupportedError, UnboundedBodyError
from isozonoid.harness import (octagon_Q_body, random_even_isotropic,
                               regular_polygon_body, truncated_cube_body)
from isozonoid.measures import cross_measure
from isozonoid.zonoids import (norm_Zp_star, support_Zp, zonoid_volumes,
                               zp_touch_point)

from oracles import (gauge_radial_volume, halfspace_vertices_hsi,
                     icosphere_loop, polytope_support_lp,
                     tangent_body_volume_hsi, vertex_enum_combinatorial,
                     zonotope_vertices)


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
    grid = circle_grid()
    res = support_sandwich(grid, _ball_support(grid), _ball_touch(grid))[0]
    assert res.method == "QUADRATURE"
    assert abs(res.value - math.pi) <= res.abs_error + 1e-9


def test_support_oracle_ball_volume_3d():
    grid = icosphere(3)
    res = support_sandwich(grid, _ball_support(grid), _ball_touch(grid))[0]
    assert abs(res.value - unit_ball_volume(3)) <= res.abs_error


def test_gauge_oracle_ball():
    # the package has no gauge bodies: the radial rule of the oracles
    # integrates a gauge oracle, here the Euclidean norm
    for n in (2, 3):
        value, gap = gauge_radial_volume(
            lambda x: np.linalg.norm(x, axis=-1), n)
        assert value == pytest.approx(unit_ball_volume(n), rel=1e-12)
        assert gap <= 1e-12


def test_hrep_to_vrep_and_back():
    K = cube_body(3)
    assert len(K.vertices) == 8
    V = BodyRep.from_vertices(K.vertices)
    assert len(V.halfspaces[0]) == 6
    H = BodyRep.from_halfspaces(*V.halfspaces)
    assert volume(H).value == pytest.approx(8.0)


def test_each_side_is_converted_once(monkeypatch):
    # the given side is never converted; the other is converted on its
    # first read and kept, read-only
    calls = []
    for name in ("halfspace_vertices", "vertices_to_halfspaces"):
        real = getattr(bodies, name)
        monkeypatch.setattr(bodies, name, lambda *a, _name=name, _real=real:
                            calls.append(_name) or _real(*a))
    H = truncated_cube_body(3, 0.1)
    A, b = H.halfspaces
    assert H.vertices is H.vertices and calls == ["halfspace_vertices"]
    assert H.halfspaces[0] is A and H.halfspaces[1] is b
    V = BodyRep.from_vertices(H.vertices)
    assert V.halfspaces is V.halfspaces
    assert np.array_equal(V.vertices, H.vertices)
    assert calls == ["halfspace_vertices", "vertices_to_halfspaces"]
    for x in (A, b, H.vertices, *V.halfspaces):
        assert not x.flags.writeable


def test_vertex_enum_matches_combinatorial_oracle(rng):
    # random symmetric polytopes: intersections of slabs
    for _ in range(10):
        m = 5
        A = rng.standard_normal((m, 2))
        A = np.vstack([A, -A])
        b = np.concatenate([np.ones(m), np.ones(m)]) + 0.2
        mine = BodyRep.from_halfspaces(A, b).vertices
        oracle = vertex_enum_combinatorial(A, b)
        assert len(mine) == len(oracle)
        for x in mine:
            assert min(np.linalg.norm(oracle - x, axis=1)) < 1e-8


def test_unbounded_hrep_raises():
    # construction checks nothing; the H -> V conversion and the JSON load
    # of outside data reject the quadrant
    A, b = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0])
    K = BodyRep.from_halfspaces(A, b)
    for convert in (lambda: K.vertices, lambda: volume(K), lambda: K.support([1.0, 0.0]),
                    lambda: body_from_json(K.to_json_dict())):
        with pytest.raises(UnboundedBodyError):
            convert()


_UNBOUNDED = {
    # dual points span a flat hull
    "strip": ([[0.0, 1.0], [0.0, -1.0]], [1.0, 1.0]),
    "quadrant": ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),
    "half-plane": ([[1.0, 1.0]], [2.0]),
    "slab-3d": ([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [1.0, 1.0]),
    # a full-dimensional dual hull with the origin outside: the pyramid
    # z <= 1 - |x|, z <= 1 - |y| cut at z <= 1/2, open below
    "open-pyramid": ([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                      [0.0, -1.0, 1.0], [0.0, 0.0, 1.0]],
                     [1.0, 1.0, 1.0, 1.0, 0.5]),
    # 2 <= x <= 3 misses the origin: taken about its Chebyshev centre
    "off-centre-strip": ([[1.0, 0.0], [-1.0, 0.0]], [3.0, -2.0]),
    # x <= 1, |y| <= 1: the origin lies on an edge of the dual triangle, so
    # a facet offset is 0
    "half-strip": ([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 1.0]),
}


@pytest.mark.parametrize("name", sorted(_UNBOUNDED))
def test_halfspace_vertices_rejects_unbounded(name):
    A, b = (np.array(x, dtype=float) for x in _UNBOUNDED[name])
    with pytest.raises(UnboundedBodyError):
        halfspace_vertices(A, b)


def _nearest(P, Q):
    """max over rows q of Q of the distance to the nearest row of P."""
    return max(np.min(np.linalg.norm(P - q, axis=1)) for q in Q)


def test_hrep_volume_in_four_dimensions():
    # closed forms for H-bodies at n = 4: the cube, an off-centre box and
    # the cross-polytope as the polar of the cube's vertices; V -> H -> V
    # keeps every vertex; n = 5 stays out of the exact path
    cube = cube_body(4)
    A, b = cube.halfspaces
    corners = np.array(list(np.ndindex(2, 2, 2, 2)), dtype=float) * 2.0 - 1.0
    box = BodyRep.from_halfspaces(A, b + A @ np.full(4, 0.25))
    cross = BodyRep.from_halfspaces(corners, np.ones(len(corners)))
    for K, want, verts in ((cube, 16.0, corners), (box, 16.0, corners + 0.25),
                           (cross, 16.0 / 24.0, A)):
        res = volume(K)
        assert res.method == "EXACT"
        assert res.value == pytest.approx(want, rel=1e-12)
        V = K.vertices
        assert len(V) == len(verts)
        assert _nearest(V, verts) <= 1e-12
        back = BodyRep.from_halfspaces(
            *BodyRep.from_vertices(V).halfspaces).vertices
        assert len(back) == len(V) and _nearest(back, V) <= 1e-12
    with pytest.raises(DimensionUnsupportedError):
        volume(cube_body(5))


def test_gauge_and_support_evaluations():
    K = cube_body(2)
    assert K.gauge([0.5, 0.25]) == pytest.approx(0.5)
    assert K.support([1.0, 1.0]) == pytest.approx(2.0)
    assert K.contains([0.99, 0.0]) and not K.contains([1.01, 0.0])


def test_polar_of_cross_polytope_is_cube():
    C = cross_polytope_body(2)
    P = BodyRep.from_halfspaces(C.vertices, np.ones(len(C.vertices)))
    assert volume(P).value == pytest.approx(4.0)


def test_zonotope_volume_against_hull(rng):
    for n in (2, 3):
        for _ in range(8):
            G = rng.standard_normal((5, n))
            v_minors = zonotope_volume(G)
            verts = zonotope_vertices(G)
            v_hull = volume(BodyRep.from_vertices(verts)).value
            assert v_minors == pytest.approx(v_hull, rel=1e-9)


def test_zonotope_facets_of_boxes_and_dependent_generators():
    # a box: the 2n facets +-e_i at the half-widths; the dependent pair
    # {e_1, 2 e_1} has no normal and is dropped, the repeated +-e_3 stays
    G = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.5, 0.0],
                  [0.0, 0.0, 0.25]])
    N, h = zonotope_facets(G)
    assert N.shape == (10, 3) and h.shape == (10,)
    assert np.allclose(np.linalg.norm(N, axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert np.allclose(h, np.abs(N @ G.T).sum(axis=1), rtol=1e-15, atol=0.0)
    want = {(1, 0, 0, 3.0), (-1, 0, 0, 3.0), (0, 1, 0, 0.5), (0, -1, 0, 0.5),
            (0, 0, 1, 0.25), (0, 0, -1, 0.25)}
    got = {tuple(np.round(np.append(a, b), 12) + 0.0) for a, b in zip(N, h)}
    assert got == want
    assert volume(BodyRep.from_vertices(halfspace_vertices(N, h))).value \
        == pytest.approx(zonotope_volume(G), rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_zonotope_facets_are_the_sign_enumeration_facets(n, rng):
    # every row supports the hull of the 2^m sign sums, and together the
    # rows cut out exactly that hull (same volume, same support)
    G = rng.normal(size=(n + 3, n))
    N, h = zonotope_facets(G)
    V = zonotope_vertices(G)
    assert np.allclose(np.max(N @ V.T, axis=1), h, rtol=1e-13, atol=0.0)
    W = halfspace_vertices(N, h)
    X = rng.normal(size=(200, n))
    assert np.allclose(np.max(X @ W.T, axis=1), np.max(X @ V.T, axis=1),
                       rtol=1e-13, atol=0.0)
    assert volume(BodyRep.from_vertices(W)).value == pytest.approx(
        zonotope_volume(G), rel=1e-12)


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


def test_icosphere_bit_equal_to_face_loop():
    # the vectorized subdivision keeps the node order and every bit of the
    # face-by-face construction
    for level in range(7):
        got = icosphere(level)
        assert len(got) == 10 * 4 ** level + 2
        assert np.array_equal(got, icosphere_loop(level))


def test_interior_point_tells_unbounded_from_empty():
    # the half-plane x >= 2 holds balls of every radius; x <= -1 and x >= 1
    # hold none; both stay UnboundedBodyError for the callers that catch it
    cases = {"unbounded": ([[-1.0, 0.0]], [-2.0]),
             "empty": ([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0])}
    for word, (A, b) in cases.items():
        with pytest.raises(UnboundedBodyError, match=f"^{word}:"):
            halfspace_vertices(np.array(A), np.array(b))
    assert metrics._intersection_moments(
        np.array(cases["empty"][0]), np.array(cases["empty"][1]))[0] == 0.0


def test_body_json_round_trip():
    K = cube_body(2)
    data = K.to_json_dict()
    back = body_from_json(json.dumps(data))
    assert volume(back).value == pytest.approx(4.0)
    V = cross_polytope_body(2)
    back2 = body_from_json(V.to_json_dict())
    assert volume(back2).value == pytest.approx(2.0)


def _hrep_cases(rng):
    """Halfspace systems: the suites' polytopes, the cross-polytope, a random
    Z*_inf polytope and random polytopes away from the origin."""
    cases = {}
    for n in (2, 3):
        cases[f"cube{n}"] = cube_body(n).halfspaces
        for cut in (0.1, 0.25):
            cases[f"cut{n}-{cut}"] = truncated_cube_body(n, cut).halfspaces
        # the cross-polytope's triangulated dual facets repeat vertices
        cases[f"cross{n}"] = cross_polytope_body(n).halfspaces
        mu = random_even_isotropic(n, n * (n + 1) // 2 + 2, rng)
        cases[f"zstar-inf{n}"] = (mu.directions, np.ones(mu.natoms))
        # taken about their Chebyshev centres
        for k in range(3):
            cases[f"off-centre{n}-{k}"] = vertices_to_halfspaces(
                rng.normal(size=(10, n)) + 3.0)
    for m in (3, 4, 6):
        cases[f"polygon{m}"] = regular_polygon_body(m).halfspaces
    cases["octagon"] = octagon_Q_body(0.2, 0.3, 0.05, -0.1).halfspaces
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


def test_halfspace_vertices_are_hull_vertices_off_centre():
    # every row is a vertex of the hull of the rows, so no row repeats
    # another or lies inside the hull of the others
    rng = np.random.default_rng(1)
    for _ in range(300):
        A, b = vertices_to_halfspaces(rng.normal(size=(10, 3)) + 3.0)
        got = halfspace_vertices(A, b)
        assert len(scipy.spatial.ConvexHull(got).vertices) == len(got)


@pytest.mark.parametrize("n, nverts", [(2, 8), (3, 24)])
def test_to_vrep_of_hbody_makes_two_hulls(n, nverts, monkeypatch):
    # one hull of the dual points, one of the dual-facet points
    hulls = []
    real = bodies.ConvexHull
    monkeypatch.setattr(bodies, "ConvexHull",
                        lambda *a, **k: hulls.append(1) or real(*a, **k))
    V = truncated_cube_body(n, 0.1).vertices
    assert len(hulls) == 2 and len(V) == nverts


def _polytope_bodies(rng):
    out = []
    for n in (2, 3):
        mu = random_even_isotropic(n, n * (n + 1) // 2 + 2, rng)
        out += [cube_body(n), truncated_cube_body(n, 0.25),
                BodyRep.from_halfspaces(mu.directions, np.ones(mu.natoms)),
                cross_polytope_body(n),
                BodyRep.from_vertices(zonotope_vertices(
                    rng.normal(size=(4, n))))]
    return out


def test_polytope_support_and_gauge_rows_match_scalar_calls_and_lp(rng):
    # h_K from the LP over K's facets; ||.||_K = h_{K polar} from the LP over
    # {y : <y, v> <= 1} for the vertices v of K
    for K in _polytope_bodies(rng):
        X = rng.normal(size=(30, K.dim))
        h, g = K.support(X), K.gauge(X)
        assert h.shape == g.shape == (len(X),)
        assert isinstance(K.support(X[0]), float)
        assert isinstance(K.gauge(X[0]), float)
        V = K.vertices
        for got, want in ((h, [K.support(x) for x in X]),
                          (g, [K.gauge(x) for x in X]),
                          (h, polytope_support_lp(*K.halfspaces, X)),
                          (g, polytope_support_lp(V, np.ones(len(V)), X))):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, got))


def test_oracle_support_and_gauge_rows(rng):
    # the Z_p oracles the sandwich is fed from map rows to values
    mu = random_even_isotropic(3, 8, rng)
    X = rng.normal(size=(20, 3))
    for f in (support_Zp, norm_Zp_star):
        rows = f(mu, 1.5, X)
        assert rows.shape == (len(X),)
        assert np.allclose(rows, [f(mu, 1.5, x) for x in X], rtol=1e-14, atol=0)


def _outer_bound(res):
    """v_out of a support sandwich from its midpoint and bar."""
    return res.value + res.abs_error


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
def test_support_sandwich_outer_bound_matches_halfspace_intersection(p, rng):
    grid = sphere_grid(3)
    mus = [random_even_isotropic(3, 8, rng)]
    if p == 1.5:
        mus.append(cross_measure(3))
    for mu in mus:
        res = zonoid_volumes(mu, p)[0]
        v_out = tangent_body_volume_hsi(grid, support_Zp(mu, p, grid))
        v_in = float(scipy.spatial.ConvexHull(zp_touch_point(mu, p, grid)
                                              ).volume)
        assert abs(_outer_bound(res) - v_out) <= 1e-12 * v_out
        mid = 0.5 * (v_out + v_in)
        assert abs(res.value - mid) <= 1e-12 * mid
        # the bar is a difference of the two volumes, so it carries their
        # rounding on the volume scale
        bar = 0.5 * (v_out - v_in)
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
    res = zonoid_volumes(cross_measure(3), 1.5)[0]
    assert res.value > 0.0
    assert len(hulls) == 2 and halfspaces == []


def test_no_halfspace_intersection_left():
    assert not hasattr(bodies, "HalfspaceIntersection")
    assert not hasattr(metrics, "HalfspaceIntersection")
