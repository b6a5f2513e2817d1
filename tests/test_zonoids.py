import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from isozonoid import bodies, zonoids
from isozonoid.bodies import (BodyRep, circle_grid, icosphere, sphere_grid,
                              unit_ball_volume, volume, zonotope_volume)
from isozonoid.errors import DegenerateMeasureError
from isozonoid.harness import random_even_isotropic, tilted_pair_measure
from isozonoid.measures import (AtomicMeasure, check_isotropy, cross_measure,
                                equiangular_measure, unit_vector)
from isozonoid.zonoids import (_exp_integral, body_Zp, body_Zp_star, mp_body,
                               norm_Zp_star, reference_volume, support_Zp,
                               volume_Zp, volume_Zp_star,
                               volume_Zp_star_ball_integral, zonoid_volumes,
                               zp_touch_point)

from oracles import (exp_integral_full_grid, gauge_radial_volume,
                     halfspace_vertices_hsi, mp_gauge_solver,
                     norm_Zp_star_unfolded, polar_polygon_area_radial,
                     support_Zp_unfolded, zonotope_vertices,
                     zp_touch_point_unfolded)


def _non_even_isotropic(n):
    """Isotropic and not even: three directions at 120 degrees (n = 2) or
    the vertices of a regular tetrahedron (n = 3), weights n / (n + 1)."""
    if n == 2:
        ang = np.arange(3) * 2.0 * np.pi / 3.0
        U = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        U = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    return AtomicMeasure(n, U, np.full(n + 1, n / (n + 1.0)))


def _fold_cases(rng):
    cases = [cross_measure(2), cross_measure(3)]
    cases += [random_even_isotropic(n, n * (n + 1) // 2 + 3, rng) for n in (2, 3)]
    return cases + [_non_even_isotropic(2), _non_even_isotropic(3)]


def test_support_z2_is_one_for_isotropic(nu2, nu3, rng):
    for mu in (nu2, nu3):
        for _ in range(20):
            v = unit_vector(rng.standard_normal(mu.dim))
            assert support_Zp(mu, 2, v) == pytest.approx(1.0, abs=1e-12)


def test_support_examples(nu2):
    assert support_Zp(nu2, 1, [1.0, 0.0]) == pytest.approx(1.0)
    d = unit_vector([1.0, 1.0])
    assert support_Zp(nu2, math.inf, d) == pytest.approx(1.0 / math.sqrt(2.0))


def test_norm_star_examples(nu2):
    assert norm_Zp_star(nu2, 1, [1.0, 0.0]) == pytest.approx(1.0)
    assert norm_Zp_star(nu2, math.inf, [1.0, 1.0]) == pytest.approx(1.0)
    # p = 2 gauge is Euclidean for isotropic measures
    assert norm_Zp_star(nu2, 2, [0.3, -0.4]) == pytest.approx(0.5)


def test_degenerate_measure_rejected(monkeypatch):
    calls = []
    rank = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank",
                        lambda *a, **k: calls.append(1) or rank(*a, **k))
    flat2 = AtomicMeasure(2, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                          np.array([1.0, 1.0]), even=True)
    s = math.sqrt(0.5)
    flat3 = AtomicMeasure(3, np.array([[1.0, 0.0, 0.0], [0.0, s, s],
                                       [-1.0, 0.0, 0.0], [0.0, -s, -s]]),
                          np.ones(4), even=True)
    for mu in (flat2, flat3):
        assert not mu.full_dimensional
        v = np.eye(mu.dim)[0]
        for _ in range(2):               # the cached answer still raises
            for call in (lambda: support_Zp(mu, 2, v),
                         lambda: norm_Zp_star(mu, 1.5, v),
                         lambda: body_Zp(mu, math.inf),
                         lambda: body_Zp_star(mu, 1.0)):
                with pytest.raises(DegenerateMeasureError):
                    call()
    full = cross_measure(3)
    assert full.full_dimensional
    support_Zp(full, 2, np.eye(3))
    norm_Zp_star(full, 2, np.eye(3))
    assert len(calls) == 3               # one rank per measure


def test_volume_Zp_p1_even_builds_no_body(monkeypatch, rng):
    # the minor expansion needs neither the sign enumeration nor a hull
    calls = []
    monkeypatch.setattr(zonoids, "body_Zp", lambda *a: calls.append(1))
    mus = [random_even_isotropic(n, n * (n + 1) // 2 + 2, rng) for n in (2, 3)]
    for mu in mus:
        U, c = mu.folded
        v = zonotope_volume(c[:, None] * U)
        res = volume_Zp(mu, 1)
        assert (res.value, res.abs_error, res.method) == (v, 1e-12 * v, "EXACT")
    assert calls == []
    flat = AtomicMeasure(2, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                         np.array([1.0, 1.0]), even=True)
    with pytest.raises(DegenerateMeasureError):
        volume_Zp(flat, 1.0)
    with pytest.raises(ValueError):
        volume_Zp(mus[0], 0.5)


def test_bodies_p_infinity(nu2, nu3):
    zs = body_Zp_star(nu2, math.inf)
    assert zs.kind == "H"
    assert volume(zs).value == pytest.approx(4.0, abs=1e-12)
    z = body_Zp(nu2, math.inf)
    assert z.kind == "V"
    assert volume(z).value == pytest.approx(2.0, abs=1e-12)
    z3 = body_Zp(nu3, math.inf)
    assert len(z3.vertices) == 6          # octahedron
    assert volume(z3).value == pytest.approx(8.0 / 6.0, abs=1e-12)


def test_z1_of_cross_is_cube(nu2):
    z1 = body_Zp(nu2, 1)
    assert z1.kind == "V"
    assert volume(z1).value == pytest.approx(4.0, abs=1e-12)
    for v in np.random.default_rng(1).standard_normal((10, 2)):
        assert support_Zp(nu2, 1, v) == pytest.approx(abs(v[0]) + abs(v[1]))


def test_polarity_exact_p_infinity(nu2, hexm):
    # polar of Z*_inf(mu) equals Z_inf(mu) = conv supp mu: vertex/facet duality
    for mu in (nu2, hexm):
        zs = body_Zp_star(mu, math.inf)
        verts = zs.to_vrep().vertices
        # every atom direction supports Z*_inf at value exactly 1
        hull_sup = np.max(verts @ mu.directions.T, axis=0)
        assert np.allclose(hull_sup, 1.0, atol=1e-9)
        # volume product sits between the Mahler and Blaschke-Santalo bounds
        z = body_Zp(mu, math.inf)
        prod = volume(zs).value * volume(z).value
        n = mu.dim
        assert 4.0 ** n / math.factorial(n) - 1e-9 <= prod
        assert prod <= unit_ball_volume(n) ** 2 + 1e-9


def test_mp_infinity_is_zonotope(nu2):
    m = mp_body(nu2, math.inf)
    assert volume(m).value == pytest.approx(4.0, abs=1e-12)


def test_mp_infinity_of_17_pairs_is_exact():
    # 17 antipodal pairs: M_inf = Z_1 is an exact V-body whose support is
    # sum_j |<g_j, v>| and whose volume is the minor expansion
    mu = equiangular_measure(17)
    body = mp_body(mu, math.inf)
    assert body.kind == "V"
    V = circle_grid(16)
    G = mu.weights[:, None] * mu.directions
    h = np.abs(V @ G.T).sum(axis=1)
    assert np.allclose(body.support(V), h, rtol=1e-14, atol=0.0)
    res = volume(body)
    assert res.method == "EXACT"
    assert res.value == pytest.approx(zonotope_volume(G), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_zp1_of_non_even_measure_is_exact(n, rng):
    # a non-even measure has an exact Z_1 too (its volume is checked in
    # test_p1_bodies_match_sign_enumeration_and_minors); at directions with
    # no <v, u_i> = 0 the touch points sum_i c_i sign(<v, u_i>) u_i are its
    # vertices
    mu = _non_even_isotropic(n)
    body = body_Zp(mu, 1.0)
    assert body.kind == "V"
    V = rng.normal(size=(100, n))
    G = mu.weights[:, None] * mu.directions
    touch = zp_touch_point(mu, 1.0, V)
    assert np.allclose(touch, np.sign(V @ mu.directions.T) @ G,
                       rtol=0.0, atol=1e-15)
    dist = np.linalg.norm(touch[:, None, :] - body.vertices[None], axis=2)
    assert np.max(np.min(dist, axis=1)) <= 1e-14


def _p1_cases(n, rng):
    """Even and non-even measures, 17 pairs (n = 2) and tilted pairs (n = 3,
    three coplanar generators, so repeated facet normals)."""
    cases = [cross_measure(n), random_even_isotropic(n, n * (n + 1) // 2 + 2, rng),
             _random_measure(n, 2 * n + 2, rng)]
    if n == 2:
        cases += [_non_even_isotropic(2), equiangular_measure(17)]
    if n == 3:
        cases += [_non_even_isotropic(3), tilted_pair_measure(3, 0.1),
                  tilted_pair_measure(3, 0.4)]
    return cases


@pytest.mark.parametrize("n", [2, 3, 4])
def test_p1_bodies_match_sign_enumeration_and_minors(n, rng):
    X = rng.normal(size=(200, n))
    for mu in _p1_cases(n, rng):
        U, c = mu.folded
        G = c[:, None] * U
        V = zonotope_vertices(G)
        z1, z1s = body_Zp(mu, 1), body_Zp_star(mu, 1)
        assert z1.kind == z1s.kind == "V"
        # Z_1: the sign-enumeration hull and the minor expansion
        v = zonotope_volume(G)
        assert volume_Zp(mu, 1).value == v
        assert volume(z1).value == pytest.approx(v, rel=1e-12)
        np.testing.assert_allclose(z1.support(X), np.max(X @ V.T, axis=1),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(z1.support(X), support_Zp(mu, 1, X),
                                   rtol=1e-12, atol=0.0)
        # Z*_1: the polar of the sign-enumeration hull, by Qhull's
        # halfspace mode; its vertices have gauge 1
        polar = halfspace_vertices_hsi(V, np.ones(len(V)))
        res = volume_Zp_star(mu, 1)
        assert res.method == "EXACT"
        assert res.value == pytest.approx(
            volume(BodyRep.from_vertices(polar)).value, rel=1e-12)
        np.testing.assert_allclose(norm_Zp_star(mu, 1, z1s.vertices), 1.0,
                                   rtol=0.0, atol=1e-14)
        if mu.even and check_isotropy(mu, 1e-9).is_isotropic:
            # Theorem B at p = 1: the cube bounds Z_1 below and the cross
            # polytope bounds Z*_1 above
            assert v >= 2.0 ** n * (1.0 - 1e-12)
            assert res.value <= 2.0 ** n / math.factorial(n) * (1.0 + 1e-12)


def test_mp_gauge_on_rows(rng):
    # the solver maps rows to values, and the rows of mp_body's touch points
    # have gauge 1
    mu = random_even_isotropic(2, 3, rng)
    X = rng.standard_normal((5, 2))
    for p in (1.0, 2.5):
        rows = mp_gauge_solver(mu, p, X)
        assert rows.shape == (5,)
        assert np.array_equal(rows, [mp_gauge_solver(mu, p, x) for x in X])
    V = circle_grid(5)
    touch = mp_body(mu, 2.5).touch_fn(V)
    assert np.allclose(mp_gauge_solver(mu, 2.5, touch), 1.0, rtol=0.0, atol=1e-12)


def test_mp_gauge_at_basis_directions(nu2, nu3):
    # M_p of the cross is the unit ball of l_p
    for mu, n in ((nu2, 2), (nu3, 3)):
        for p in (1.5, 2.0, 3.0):
            e1 = np.zeros(n)
            e1[0] = 1.0
            assert mp_gauge_solver(mu, p, e1) == pytest.approx(1.0, abs=1e-7)
            assert mp_body(mu, p).support(e1) == pytest.approx(1.0, rel=1e-15)


def test_mp_inside_z_pstar(rng):
    # 100 random boundary-ish points of M_p lie in Z_{p*} (Hoelder), the
    # body mp_body builds
    mu = random_even_isotropic(2, 5, rng)
    for p in (1.5, 3.0):
        body = mp_body(mu, p)
        U, c = mu.directions, mu.weights
        for _ in range(50):
            th = rng.normal(size=mu.natoms)
            th /= (np.sum(c * np.abs(th) ** p)) ** (1.0 / p)
            x = (c * th) @ U
            # support comparison on a grid of directions
            for ang in np.linspace(0, 2 * np.pi, 33):
                v = np.array([math.cos(ang), math.sin(ang)])
                assert x @ v <= body.support(v) + 1e-10


def test_mp_gauge_consistent_with_representation(rng):
    mu = random_even_isotropic(2, 5, rng)
    p = 2.5
    for _ in range(10):
        th = rng.normal(size=mu.natoms)
        th /= (np.sum(mu.weights * np.abs(th) ** p)) ** (1.0 / p)
        x = (mu.weights * th) @ mu.directions
        g = mp_gauge_solver(mu, p, x)
        assert g <= 1.0 + 1e-7        # the solver can only overestimate


def _mp_cases(n, rng):
    return [random_even_isotropic(n, n * (n + 1) // 2 + 3, rng),
            _non_even_isotropic(n)]


@pytest.mark.parametrize("n", [2, 3])
def test_mp_body_touch_points_have_solver_gauge_one(n, rng):
    # M_p = Z_{p'}: the representation infimum is 1 on the boundary points
    # of the Z_{p'} body, for even and non-even measures
    V = circle_grid(8) if n == 2 else icosphere(0)
    for mu in _mp_cases(n, rng):
        for p in (1.2, 1.5, 2.0, 3.0, 6.0):
            body = mp_body(mu, p)
            assert body.kind == "support"
            touch = body.touch_fn(V)
            assert np.allclose(mp_gauge_solver(mu, p, touch), 1.0,
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_mp_endpoints_are_hull_and_zonotope(n, rng):
    # M_1 = conv{+-u_i}: every +-u_i is a vertex at solver gauge 1;
    # M_inf = Z_1: the zonotope of the segments [-c_i u_i, c_i u_i]
    for mu in _mp_cases(n, rng):
        U = np.vstack([mu.directions, -mu.directions])
        m1 = mp_body(mu, 1.0)
        assert m1.kind == "V"
        assert sorted(map(tuple, m1.vertices)) == sorted(set(map(tuple, U)))
        assert np.allclose(mp_gauge_solver(mu, 1.0, U), 1.0, rtol=0.0, atol=1e-12)
        G = mu.weights[:, None] * mu.directions
        m_inf = mp_body(mu, math.inf)
        assert m_inf.kind == "V"
        assert volume(m_inf).value == pytest.approx(zonotope_volume(G), rel=1e-12)
        V = circle_grid(16) if n == 2 else icosphere(1)
        assert np.allclose(np.max(V @ m_inf.vertices.T, axis=1),
                           np.abs(V @ G.T).sum(axis=1), rtol=1e-13, atol=0.0)


def test_touch_points_on_boundary(nu2):
    for p in (1.5, 4.0):
        for ang in np.linspace(0, 2 * np.pi, 17):
            v = np.array([math.cos(ang), math.sin(ang)])
            x = zp_touch_point(nu2, p, v)
            assert x @ v == pytest.approx(support_Zp(nu2, p, v), rel=1e-12)


def test_reference_volume_table():
    assert reference_volume("Z_STAR", 2, math.inf) == pytest.approx(4.0)
    assert reference_volume("Z_STAR", 2, 1) == pytest.approx(2.0)
    assert reference_volume("Z_STAR", 3, 2) == pytest.approx(4.0 * math.pi / 3.0)
    assert reference_volume("Z", 3, math.inf) == pytest.approx(8.0 / 6.0)
    assert reference_volume("Z", 2, 1) == pytest.approx(4.0)
    assert reference_volume("Z", 2, 2) == pytest.approx(math.pi)
    assert reference_volume("Z", 3, 2) == pytest.approx(4.0 * math.pi / 3.0)


@pytest.mark.parametrize("n", [2, 3])
def test_reference_volume_z_closed_form_inside_sandwich(n):
    # Z_p(cross) is the l_q ball and Z*_p(cross) the l_p ball; each closed
    # form lies strictly inside its certified bracket, so a sandwich with
    # inner and outer bodies swapped, [upper, lower], misses it
    for p in (1.2, 1.5, 3.0, 4.0):
        for res, kind in zip(zonoid_volumes(cross_measure(n), p), ("Z", "Z_STAR")):
            lower, upper = res.value - res.abs_error, res.value + res.abs_error
            ref = reference_volume(kind, n, p)
            assert lower < ref < upper
            assert not upper <= ref <= lower


def test_reference_volume_z_exact_anchors_unchanged():
    for n in (2, 3, 4):
        assert reference_volume("Z", n, 1) == 2.0 ** n
        assert reference_volume("Z", n, math.inf) == 2.0 ** n / math.factorial(n)


def test_icosphere_built_once_read_only():
    g = icosphere(5)
    assert icosphere(5) is g
    assert not g.flags.writeable
    with pytest.raises(ValueError):
        g[0, 0] = 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0, math.inf])
def test_folded_sums_match_unfolded(p, rng):
    for mu in _fold_cases(rng):
        V = rng.standard_normal((40, mu.dim))
        for got, ref in ((support_Zp(mu, p, V), support_Zp_unfolded(mu, p, V)),
                         (norm_Zp_star(mu, p, V), norm_Zp_star_unfolded(mu, p, V))):
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)
        if np.isfinite(p):
            got = zp_touch_point(mu, p, V)
            ref = zp_touch_point_unfolded(mu, p, V)
            scale = np.linalg.norm(ref, axis=1)
            assert np.all(np.linalg.norm(got - ref, axis=1) <= 1e-14 * scale)


def test_half_grid_ball_integral_matches_full_grid(rng):
    for mu in _fold_cases(rng):
        nodes = 48 if mu.dim == 2 else 24
        for p in (1.5, 4.0):
            got = _exp_integral(mu, p, 6.0, nodes)
            ref = exp_integral_full_grid(mu, p, 6.0, nodes)
            assert got == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
def test_decay_ball_rule_matches_full_cube(p, rng):
    # on [-R, R]^n the rule drops every node outside the ball |x| <= R; the
    # full cube of the oracle keeps them, and they carry below e^{-46}
    for mu in _fold_cases(rng):
        L = zonoids._decay_radius(mu.dim, p)
        got = _exp_integral(mu, p, L, 30)
        ref = exp_integral_full_grid(mu, p, L, 30)
        assert got == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize("case, value, abs_error", [
    ("random", 2.919687041572662, 2.3182348033468408e-05),
    ("tilted", 2.941474952951594, 1.3600404252256438e-07)])
def test_ball_integral_pinned_n3(case, value, abs_error):
    # recorded from the rule that evaluated every node of the cube; the bar
    # is a difference of two such values, so it is held to 1e-14 of the
    # volume, not of itself
    mu = (random_even_isotropic(3, 9, np.random.default_rng(17))
          if case == "random" else tilted_pair_measure(3, 0.1))
    res = volume_Zp_star_ball_integral(mu, 1.5)
    assert res.value == pytest.approx(value, rel=1e-14, abs=0)
    assert abs(res.abs_error - abs_error) <= 1e-14 * value


@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 4)])
def test_ball_integral_matches_closed_form(n, p):
    mu = cross_measure(n)
    res = volume_Zp_star_ball_integral(mu, p)
    ref = reference_volume("Z_STAR", n, p)
    assert abs(res.value - ref) <= max(res.abs_error, 1e-10)


def test_ball_integral_agrees_with_body_volume(rng):
    # two estimates that use no hull, the exponential integral and the
    # gauge radial rule, each meet the certified bracket of V(Z*_p) within
    # their own bars (and the exact Z*_1 volume)
    for n in (2, 3):
        mus = [tilted_pair_measure(n, 0.1),
               random_even_isotropic(n, n * (n + 1) // 2 + 3, rng)]
        for mu in mus:
            for p in (1.0, 1.5, 3.0):
                bi = volume_Zp_star_ball_integral(mu, p)
                bv = volume_Zp_star(mu, p)
                assert abs(bi.value - bv.value) <= bi.abs_error + bv.abs_error + 1e-9
                if p > 1.0:
                    value, gap = gauge_radial_volume(
                        lambda x: norm_Zp_star(mu, p, x), n)
                    assert abs(value - bv.value) <= gap + bv.abs_error


def test_volume_zp_star_infinity_limit(nu2):
    assert volume_Zp_star(nu2, math.inf).value == pytest.approx(4.0, abs=1e-12)


def test_theorem_b_direction_spot(rng):
    for n in (2, 3):
        for p in (1, 4, math.inf):
            ref_z = reference_volume("Z", n, p)
            ref_zs = reference_volume("Z_STAR", n, p)
            for _ in range(3):
                mu = random_even_isotropic(n, n * (n + 1) // 2 + 3, rng)
                vz = volume_Zp(mu, p)
                vzs = volume_Zp_star(mu, p)
                assert vz.value >= ref_z - vz.abs_error - 1e-9
                assert vzs.value <= ref_zs + vzs.abs_error + 1e-9


def _random_measure(n, k, rng):
    """Random atoms and weights: neither even nor isotropic."""
    U = rng.standard_normal((k, n))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    return AtomicMeasure(n, U, rng.uniform(0.2, 2.0, k))


# ---------------------------------------------------------------------------
# the polar sandwich: certified brackets of V(Z_p) and V(Z*_p)


def _sandwich_hulls(mu, p, grid):
    """[V(I), V(O)] and [V(O^o), V(I^o)] from plain Qhull volumes and the
    polar kernel, with I = conv{x_j} and O^o = conv{v_j / h_j}."""
    h = support_Zp(mu, p, grid)
    X = zp_touch_point(mu, p, grid)
    D = grid / h[:, None]
    v_out = bodies._hull_polar_volumes(D)[1]
    v_dual_out = bodies._hull_polar_volumes(X)[1]
    return ((ConvexHull(X).volume, v_out), (ConvexHull(D).volume, v_dual_out))


@pytest.mark.parametrize("n", [2, 3])
def test_zonoid_volumes_are_the_sandwich_brackets(n, rng):
    # value -+ abs_error is [V(I), V(O)] for Z_p and [V(O^o), V(I^o)] for
    # Z*_p, both ordered, and volume_Zp / volume_Zp_star read the same pair
    mus = [cross_measure(n), tilted_pair_measure(n, 0.05),
           random_even_isotropic(n, n * (n + 1) // 2 + 3, rng),
           _random_measure(n, 2 * n + 2, rng)]
    assert zonoid_volumes(mus[0], 1.2) == (volume_Zp(mus[0], 1.2),
                                          volume_Zp_star(mus[0], 1.2))
    for mu in mus:
        for p in (1.2, 3.0):
            got = zonoid_volumes(mu, p)
            for res, (lo, hi) in zip(got, _sandwich_hulls(mu, p, sphere_grid(n))):
                assert 0.0 < lo < hi
                assert res.value - res.abs_error == pytest.approx(lo, rel=1e-15)
                assert res.value + res.abs_error == pytest.approx(hi, rel=1e-15)


@pytest.mark.parametrize("p", [40.0, 200.0])
def test_planar_sandwich_near_vertices_matches_radial_integral(p):
    # at large p the touch points cluster at the vertices of Z_p; the polar
    # polygons of the kernel match a 2^20-angle radial integral of the same
    # polygons, and both brackets stay ordered
    mu = tilted_pair_measure(2, 0.05)
    grid = circle_grid(4096)
    h = support_Zp(mu, p, grid)
    X = zp_touch_point(mu, p, grid)
    for P in (grid / h[:, None], X):
        _, v_polar = bodies._hull_polar_volumes(P)
        assert v_polar == pytest.approx(polar_polygon_area_radial(P), rel=1e-10)
    z, zs = zonoid_volumes(mu, p)
    assert 0.0 < z.abs_error < 1e-4 * z.value
    assert 0.0 < zs.abs_error < 1e-4 * zs.value


def test_gauss_legendre_cache_is_bit_equal(monkeypatch, rng):
    x, w = zonoids._gauss_legendre(64)
    assert zonoids._gauss_legendre(64)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    ref = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(x, ref[0]) and np.array_equal(w, ref[1])
    mus = [random_even_isotropic(n, n * (n + 1) // 2 + 3, rng) for n in (2, 3)]

    def volumes():
        return [volume_Zp_star_ball_integral(mu, p)
                for mu in mus for p in (1.5, 3.0)]

    cached = volumes()
    fresh = np.polynomial.legendre.leggauss
    monkeypatch.setattr(zonoids, "_gauss_legendre", fresh)
    assert volumes() == cached
