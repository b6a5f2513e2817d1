import json
import math

import numpy as np
import pytest

from isozonoid.bodies import (BodyRep, _eval_fn, _touch_points, body_from_json,
                              circle_grid,
                              cross_polytope_body, cube_body, icosphere,
                              polar_of_vrep, sphere_grid, unit_ball_volume,
                              volume, zonotope_vertices, zonotope_volume)
from isozonoid.errors import UnboundedBodyError

from oracles import central_difference_touch_points, vertex_enum_combinatorial


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
