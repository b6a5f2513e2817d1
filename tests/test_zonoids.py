import itertools
import math

import numpy as np
import pytest

from isozonoid import bodies, zonoids
from isozonoid.bodies import (MC_SAMPLES, _gauge_mc_volume,
                              _gauge_radial_volume, circle_grid, icosphere,
                              sphere_grid, unit_ball_volume, volume,
                              zonotope_volume)
from isozonoid.errors import DegenerateMeasureError
from isozonoid.harness import random_even_isotropic
from isozonoid.measures import (AtomicMeasure, cross_measure,
                                equiangular_measure, second_moment_matrix,
                                unit_vector)
from isozonoid.zonoids import (_exp_integral, body_Zp, body_Zp_star, mp_body,
                               norm_Zp_star, reference_volume, support_Zp,
                               volume_Zp, volume_Zp_star,
                               volume_Zp_star_ball_integral, zp_touch_point)

from oracles import (exp_integral_full_grid, gauge_mc_volume_full,
                     mp_gauge_solver, norm_Zp_star_unfolded,
                     support_Zp_unfolded, zp_touch_point_unfolded)


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


def test_mp_infinity_support_oracle_is_vectorized():
    # more than 16 antipodal pairs: a support oracle instead of sign
    # enumeration; it maps rows to values, and its sandwich volume brackets
    # the zonotope volume from minors
    mu = equiangular_measure(17)
    body = mp_body(mu, math.inf)
    assert body.kind == "support"
    V = circle_grid(16)
    G = mu.weights[:, None] * mu.directions
    h = np.abs(V @ G.T).sum(axis=1)
    assert body.fn(V).shape == (16,)
    assert np.allclose(body.fn(V), h, rtol=1e-14, atol=0.0)
    assert body.support(V[3]) == pytest.approx(h[3], rel=1e-14)
    # the touch points are zonotope vertices, so the sandwich's inner hull
    # lies inside the body and its bar covers the volume from minors
    touch = body.touch_fn(V)
    assert np.allclose(np.sum(touch * V, axis=1), h, rtol=1e-14, atol=0.0)
    res = volume(body)
    exact = zonotope_volume(G)
    assert abs(res.value - exact) <= res.abs_error


@pytest.mark.parametrize("n", [2, 3])
def test_zp1_support_oracle_touch_points_are_vertices(n):
    # a non-even measure takes the support-oracle path at p = 1; its touch
    # points are zonotope vertices sum_i c_i sign(<v, u_i>) u_i, so the
    # sandwich's inner hull lies inside the body
    mu = _non_even_isotropic(n)
    body = body_Zp(mu, 1.0)
    assert body.kind == "support"
    V = circle_grid(64) if n == 2 else icosphere(2)
    G = mu.weights[:, None] * mu.directions
    assert np.allclose(body.touch_fn(V), np.sign(V @ mu.directions.T) @ G,
                       rtol=0.0, atol=1e-15)
    res = volume(body)
    assert abs(res.value - zonotope_volume(G)) <= res.abs_error


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
    # Z_p(cross) is the l_q ball; its closed form lies in the bar of the
    # support sandwich of the cross measure's Z_p
    for p in (1.2, 1.5, 3.0, 4.0):
        res = volume_Zp(cross_measure(n), p)
        assert abs(reference_volume("Z", n, p) - res.value) <= res.abs_error


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


@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 4)])
def test_ball_integral_matches_closed_form(n, p):
    mu = cross_measure(n)
    res = volume_Zp_star_ball_integral(mu, p)
    ref = reference_volume("Z_STAR", n, p)
    assert abs(res.value - ref) <= max(res.abs_error, 1e-10)


def test_ball_integral_agrees_with_body_volume(rng):
    mu = random_even_isotropic(2, 5, rng)
    for p in (1.0, 3.0):
        bi = volume_Zp_star_ball_integral(mu, p)
        bv = volume_Zp_star(mu, p)
        assert abs(bi.value - bv.value) <= bi.abs_error + bv.abs_error + 1e-9


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


# ---------------------------------------------------------------------------
# certified radial shell of the gauge Monte-Carlo check

SHELL_PS = [1.0, 1.2, 1.5, 2.0, 3.0, 4.0]


def _random_measure(n, k, rng):
    """Random atoms and weights: neither even nor isotropic."""
    U = rng.standard_normal((k, n))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    return AtomicMeasure(n, U, rng.uniform(0.2, 2.0, k))


def _shell_cases(n, rng):
    return [cross_measure(n), random_even_isotropic(n, n * (n + 1) // 2 + 3, rng),
            _non_even_isotropic(n), _random_measure(n, 2 * n + 2, rng)]


def _ill_conditioned_measure():
    """Even measure whose moment matrix has condition number about 1.5e8:
    weights 1, 1e-4 and 1e-8 on a rotated orthonormal frame, plus one atom
    pair near the first frame vector."""
    R, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    extra = R[:, 0] + 1e-3 * R[:, 1]
    D = np.vstack([R.T, extra / np.linalg.norm(extra)])
    w = np.array([1.0, 1e-4, 1e-8, 0.5])
    return AtomicMeasure(3, np.vstack([D, -D]), np.concatenate([w, w]),
                         even=True)


def _gauge_bodies(mu, ps):
    """(p, body) for the p at which Z*_p(mu) is a gauge body."""
    out = [(p, body_Zp_star(mu, p)) for p in ps]
    return [(p, b) for p, b in out if b.kind == "gauge"]


@pytest.mark.parametrize("p", SHELL_PS)
@pytest.mark.parametrize("n", [2, 3])
def test_shell_mc_equals_full_evaluation(n, p, rng):
    for mu in _shell_cases(n, rng):
        for _, body in _gauge_bodies(mu, [p]):
            assert body.radii is not None
            got = _gauge_mc_volume(body, 400_000, 5)
            assert got == gauge_mc_volume_full(body, 400_000, 5)


def test_shell_mc_of_ill_conditioned_measure():
    mu = _ill_conditioned_measure()
    assert 1e7 < np.linalg.cond(second_moment_matrix(mu)) < 1e9
    for p, body in _gauge_bodies(mu, [1.2, 1.5, 2.0, 3.0, 4.0]):
        got = _gauge_mc_volume(body, 400_000, 5)
        assert got[0] > 0.0
        assert got == gauge_mc_volume_full(body, 400_000, 5)


@pytest.mark.parametrize("n", [2, 3])
def test_certified_radii_hold(n, rng):
    cases = _shell_cases(n, rng) + ([_ill_conditioned_measure()] if n == 3 else [])
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    for mu in cases:
        M = second_moment_matrix(mu)
        U = rng.standard_normal((20_000, n))
        # random directions, the axes, the diagonals, the atoms and the
        # eigenvectors of the moment matrix, where the bounds can be tight
        U = np.vstack([U, np.eye(n), signs, mu.directions,
                       np.linalg.eigh(M)[1].T])
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        for p, body in _gauge_bodies(mu, SHELL_PS):
            r_lo, r_hi = body.radii
            rho = 1.0 / norm_Zp_star(mu, p, U)
            assert r_lo * (1.0 - 1e-12) <= rho.min()
            assert rho.max() <= r_hi * (1.0 + 1e-12)
            if np.allclose(M, np.eye(n), atol=1e-9):
                # |x| <= g(x) <= n^(1/p - 1/2) |x| for p <= 2, reversed above
                far = n ** (0.5 - 1.0 / p)
                want = (far, 1.0) if p <= 2.0 else (1.0, far)
                np.testing.assert_allclose(body.radii, want, rtol=1e-8)


def test_shell_mc_evaluates_a_thin_shell(monkeypatch, rng):
    mu = random_even_isotropic(3, 9, rng)
    rows = []

    def counted(mu, p, x):
        rows.append(len(np.atleast_2d(x)))
        return norm(mu, p, x)

    norm = zonoids.norm_Zp_star
    monkeypatch.setattr(zonoids, "norm_Zp_star", counted)
    grid = len(sphere_grid(3, size_2d=256, subdiv_3d=2))
    body = body_Zp_star(mu, 1.5)
    got = _gauge_mc_volume(body, MC_SAMPLES, 0)
    assert grid < sum(rows) <= grid + 0.30 * MC_SAMPLES
    rows.clear()
    assert got == gauge_mc_volume_full(body, MC_SAMPLES, 0)
    assert sum(rows) == grid + MC_SAMPLES
    rows.clear()
    # at p = 2 the gauge is |x| and the shell only the 1e-9 margin
    _gauge_mc_volume(body_Zp_star(mu, 2.0), MC_SAMPLES, 0)
    assert sum(rows) == grid
    # without radii every sample goes to the oracle
    rows.clear()
    _gauge_mc_volume(bodies.BodyRep.from_gauge(3, body.fn), 80_000, 0)
    assert sum(rows) == grid + 80_000


@pytest.mark.parametrize("n", [2, 3])
def test_shell_mc_evaluates_the_full_paths_points(n, rng):
    mu = _random_measure(n, 2 * n + 2, rng)
    body = body_Zp_star(mu, 1.5)
    calls = {"shell": [], "full": []}

    def recorder(key):
        def fn(X):
            calls[key].append(np.array(X))
            return body.fn(X)
        return bodies.BodyRep.from_gauge(n, fn, radii=body.radii)

    _gauge_mc_volume(recorder("shell"), 80_000, 2)
    gauge_mc_volume_full(recorder("full"), 80_000, 2)
    assert len(calls["shell"]) == len(calls["full"]) == 1 + 2 ** n
    assert np.array_equal(calls["shell"][0], calls["full"][0])
    for S, F in zip(calls["shell"][1:], calls["full"][1:]):
        full = {row.tobytes() for row in F}
        assert 0 < len(S) < len(F)
        assert all(row.tobytes() in full for row in S)


def test_shell_mc_pinned_values():
    """(vol, err) as bit patterns, so a change of the sampling shows."""
    cases = [(_non_even_isotropic(3), 1.5,
              "0x1.76cedc29a178ap+1", "0x1.485c65a2a098bp-9"),
             (cross_measure(2), 3.0,
              "0x1.c45c3ead976e6p+1", "0x1.ef8862d3f1957p-10")]
    for mu, p, vol, err in cases:
        got = _gauge_mc_volume(body_Zp_star(mu, p), MC_SAMPLES, 0)
        assert got == (float.fromhex(vol), float.fromhex(err))


def test_gauss_legendre_cache_is_bit_equal(monkeypatch, rng):
    x, w = bodies._gauss_legendre(64)
    assert bodies._gauss_legendre(64)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    ref = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(x, ref[0]) and np.array_equal(w, ref[1])
    mus = [random_even_isotropic(n, n * (n + 1) // 2 + 3, rng) for n in (2, 3)]

    def volumes():
        return [(volume_Zp_star_ball_integral(mu, 1.5),
                 _gauge_radial_volume(body_Zp_star(mu, 1.5)))
                for mu in mus]

    cached = volumes()
    fresh = np.polynomial.legendre.leggauss
    monkeypatch.setattr(bodies, "_gauss_legendre", fresh)
    monkeypatch.setattr(zonoids, "_gauss_legendre", fresh)
    assert volumes() == cached
