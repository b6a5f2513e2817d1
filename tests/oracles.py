"""Independent oracles used to validate library results.

Everything here deliberately avoids the code paths under test: error
functions come from a Taylor series, CDFs from adaptive quadrature,
transport values from permutation enumeration, volumes from direct
combinatorial vertex enumeration or exact rational polygon clipping, orbit
minima from dense grids, the multistart searches (n = 3 orbit,
Banach-Mazur, volume distance) from one scipy Nelder-Mead run per start on
a scalar objective, zonoid sums over every atom (no antipodal folding), the
ball integral over the full tensor grid, zonotope vertices from all 2^m
sign vectors (no facet normals), halfspace intersections from
Qhull's halfspace mode (no polar-dual hull), polytope support functions
from one LP per direction (no vertex list), volumes of Z*_p and of polar
polygons from radial quadrature rules (no polar vertices), the icosphere
from a Python loop over faces, the gauge of M_p from its
representation infimum (one LP or SLSQP solve per point, not the Z_{p'}
duality), the John ellipsoid's Newton Hessian entry by entry over the basis
pairs, and the antipodal pairing and merging of atoms from one scalar
sphere_angle call per pair of atoms.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad


def erf_series(x, terms=80):
    """erf by its Maclaurin series (plenty for |x| <= 4)."""
    s = 0.0
    for n in range(terms):
        s += (-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * s


def cdf_rho_p_quad(p, t):
    """CDF of exp(-|s|^p)/(2 Gamma(1+1/p)) by adaptive quadrature."""
    norm = 2.0 * math.gamma(1.0 + 1.0 / p)
    val, _ = quad(lambda s: math.exp(-abs(s) ** p) / norm, 0.0, t,
                  epsabs=1e-15, epsrel=1e-13, limit=200)
    return 0.5 + val


def central_diff(f, t, h=1e-5):
    return (f(t + h) - f(t - h)) / (2.0 * h)


def second_diff(f, t, h=1e-4):
    return (f(t + h) - 2.0 * f(t) + f(t - h)) / (h * h)


def angle(u, w):
    return math.acos(max(-1.0, min(1.0, float(np.dot(u, w)))))


def assignment_transport(points_a, points_b):
    """Exact min-cost matching for equal-weight unit atoms (<= 8 a side)."""
    A = np.atleast_2d(points_a)
    B = np.atleast_2d(points_b)
    assert len(A) == len(B) <= 8
    idx = range(len(B))
    best = math.inf
    C = np.array([[angle(a, b) for b in B] for a in A])
    for perm in itertools.permutations(idx):
        cost = sum(C[i, j] for i, j in enumerate(perm))
        best = min(best, cost)
    return best / len(A)


def split_to_units(mu, denom):
    """Replicate atoms into equal 1/denom units; requires exact multiples."""
    pts = []
    for u, c in zip(mu.directions, mu.weights):
        m = c * denom
        k = int(round(m))
        assert abs(m - k) < 1e-9
        pts += [u] * k
    return np.array(pts)


def transport_units_oracle(mu, nu, denom):
    """Brute-force transport between measures with weights in (1/denom) Z."""
    A = split_to_units(mu, denom)
    B = split_to_units(nu, denom)
    return assignment_transport(A, B) * len(A) / denom


def vertex_enum_combinatorial(A, b, tol=1e-9):
    """All vertices of {Ax <= b} by n-subset solves (independent of Qhull)."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    m, n = A.shape
    out = []
    for S in itertools.combinations(range(m), n):
        sub = A[list(S)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b[list(S)])
        if np.all(A @ x <= b + tol):
            out.append(x)
    V = np.array(out)
    # deduplicate
    keep = []
    for x in V:
        if not any(np.linalg.norm(x - y) < 1e-8 for y in keep):
            keep.append(x)
    return np.array(keep)


def polygon_area_shoelace(V):
    hullorder = np.argsort(np.arctan2(V[:, 1], V[:, 0]))
    V = V[hullorder]
    x, y = V[:, 0], V[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def rotation_grid_orbit_min(objective, period, npts):
    """Dense-grid minimization over one rotation angle; ``objective`` maps
    the array of grid angles to their values."""
    grid = np.linspace(0.0, period, npts, endpoint=False)
    vals = objective(grid)
    i = int(np.argmin(vals))
    return float(vals[i]), float(grid[i])


def s1_hausdorff_to_cross(thetas, phis):
    """Hausdorff distance from the points at angles ``thetas`` to the cross
    with frame angle phi, for each phi in ``phis``, from wrapped angle
    differences on S^1 (no chords)."""
    cross = np.asarray(phis)[:, None] + np.arange(4) * (np.pi / 2)
    d = np.abs(np.asarray(thetas)[None, :, None] - cross[:, None, :]) % (2 * np.pi)
    d = np.minimum(d, 2 * np.pi - d)
    return np.maximum(d.min(axis=2).max(axis=1), d.min(axis=1).max(axis=1))


def multistart_nelder_mead(objective, x0, xatol, fatol, maxiter):
    """One scipy Nelder-Mead run per row of ``x0`` on a scalar objective.
    Returns per-start (fun, x, nfev) arrays."""
    from scipy.optimize import minimize

    runs = [minimize(objective, w, method="Nelder-Mead",
                     options={"xatol": xatol, "fatol": fatol,
                              "maxiter": maxiter})
            for w in np.asarray(x0, dtype=float)]
    return (np.array([r.fun for r in runs]), np.array([r.x for r in runs]),
            np.array([r.nfev for r in runs]))


def multistart_nelder_mead_orbit(objective):
    """The n = 3 orbit search run start by start: one scipy Nelder-Mead per
    start of ``metrics._orbit_start_points``, on a scalar objective of a
    rotation matrix.  Returns (value, frame, best_start, nfev)."""
    from scipy.spatial.transform import Rotation

    from isozonoid.metrics import _orbit_start_points

    def rot(w):
        return Rotation.from_rotvec(w).as_matrix()

    fun, x, nfev = multistart_nelder_mead(lambda w: objective(rot(w)),
                                          _orbit_start_points(), 1e-9, 1e-12,
                                          400)
    best = int(np.argmin(fun))
    return float(fun[best]), rot(x[best]), best, int(nfev.sum())


def _vertices_and_halfspaces(body):
    return body.to_vrep().vertices, body.to_hrep().halfspaces


def _body_starts_per_start(n, restarts, scale, seed):
    rng = np.random.default_rng(seed)
    return [np.eye(n).ravel() if r == 0
            else (np.eye(n) + scale * rng.normal(size=(n, n))).ravel()
            for r in range(restarts)]


def banach_mazur_lambda(K, M):
    """The map Phi -> lam(Phi) = max_v gauge_{Phi M}(v) * max_w
    gauge_K(Phi w) over the vertices v of K and w of M, at an invertible
    Phi as given: the least lam with K <= s Phi M <= lam K for some s > 0."""
    VK, (AK, bK) = _vertices_and_halfspaces(K)
    VM, (AM, bM) = _vertices_and_halfspaces(M)

    def lam(Phi):
        Phi_inv = np.linalg.inv(Phi)
        inner = np.max(np.max(((VK @ Phi_inv.T) @ AM.T) / bM, axis=1))
        outer = np.max(np.max(((VM @ Phi.T) @ AK.T) / bK, axis=1))
        return inner * outer

    return lam


def banach_mazur_per_start(K, M, restarts, seed=0):
    """delta_BM upper bound as a loop: lam of one matrix at a time, one scipy
    Nelder-Mead run per start (xatol 1e-10, fatol 1e-12, maxiter 2000).
    Returns (value, lambda, best_start, nfev)."""
    n = K.dim
    lam = banach_mazur_lambda(K, M)

    def lam_of(x):
        mat = x.reshape(n, n)
        det = np.linalg.det(mat)
        if abs(det) < 1e-9:
            return np.inf
        return lam(mat / abs(det) ** (1.0 / n))

    fun, _, nfev = multistart_nelder_mead(
        lam_of, _body_starts_per_start(n, restarts, 0.3, seed),
        1e-10, 1e-12, 2000)
    lam = min(lam_of(np.eye(n).ravel()), float(np.min(fun)))
    return (math.log(max(lam, 1.0)), lam, int(np.argmin(fun)),
            int(nfev.sum()))


def halfspace_vertices_hsi(A, b):
    """Vertices of {x : Ax <= b} from scipy's ``HalfspaceIntersection``
    about ``bodies._interior_point``, then Qhull's vertex set of the
    intersection points, which drops the repeats."""
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    from isozonoid.bodies import _interior_point

    A = np.asarray(A, dtype=float)
    pt = _interior_point(A, b)
    hs = np.hstack([A, -np.asarray(b, dtype=float)[:, None]])
    pts = HalfspaceIntersection(hs, pt).intersections
    return pts[ConvexHull(pts).vertices]


def zonotope_vertices(generators):
    """Vertices of sum_j [-g_j, g_j]: the sums of all 2^m sign vectors,
    then Qhull's vertex set of them (m <= 20)."""
    from scipy.spatial import ConvexHull

    G = np.atleast_2d(np.asarray(generators, dtype=float))
    assert len(G) <= 20
    pts = np.array(list(itertools.product((-1.0, 1.0), repeat=len(G)))) @ G
    return pts[ConvexHull(pts).vertices]


def polytope_support_lp(A, b, d):
    """Support function of {x : Ax <= b} at a direction d (n,) by one HiGHS
    LP, or at rows d (k, n) by one LP per row."""
    from scipy.optimize import linprog

    d = np.asarray(d, dtype=float)
    if d.ndim == 2:
        return np.array([polytope_support_lp(A, b, row) for row in d])
    res = linprog(-d, A_ub=A, b_ub=b, bounds=(None, None), method="highs")
    if not res.success:
        raise RuntimeError("support LP failed")
    return float(-res.fun)


def tangent_body_volume_hsi(dirs, hvals):
    """V({x : <u_i, x> <= h_i}) in n = 3: the halfspace intersection about
    the origin, then a hull of its intersection points."""
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    hs = np.hstack([dirs, -np.asarray(hvals, dtype=float)[:, None]])
    return float(ConvexHull(
        HalfspaceIntersection(hs, np.zeros(3)).intersections).volume)


def intersection_volume_three_call(A, b):
    """V({x : Ax <= b}) by vertex enumeration (a halfspace intersection and
    a hull that removes duplicate vertices), then a hull of the vertices;
    0 when any step fails or too few vertices are left."""
    from isozonoid.bodies import hull_volume_area

    try:
        pts = halfspace_vertices_hsi(A, b)
    except Exception:
        return 0.0
    if len(pts) <= A.shape[1]:
        return 0.0
    try:
        return hull_volume_area(pts)[0]
    except Exception:
        return 0.0


def volume_distance_per_start(K, M, restarts, seed=0):
    """delta_vol upper bound as a loop: the three-call intersection volume
    of one matrix at a time, one scipy Nelder-Mead run per start (xatol
    1e-9, fatol 1e-12, maxiter 1500).  Returns (value, best_start, nfev)."""
    from isozonoid.bodies import hull_volume_area

    n = K.dim
    VK, (AK, bK) = _vertices_and_halfspaces(K)
    VM, (AM, bM) = _vertices_and_halfspaces(M)
    bKn = bK * hull_volume_area(VK)[0] ** (-1.0 / n)
    bMn = bM * hull_volume_area(VM)[0] ** (-1.0 / n)

    def sym_diff(x):
        mat = x.reshape(n, n)
        det = np.linalg.det(mat)
        if abs(det) < 1e-9:
            return 2.0
        Phi_inv = np.linalg.inv(mat / abs(det) ** (1.0 / n))
        inter = intersection_volume_three_call(
            np.vstack([AK @ Phi_inv, AM]), np.concatenate([bKn, bMn]))
        return max(2.0 - 2.0 * inter, 0.0)

    fun, _, nfev = multistart_nelder_mead(
        sym_diff, _body_starts_per_start(n, restarts, 0.25, seed),
        1e-9, 1e-12, 1500)
    best = min(sym_diff(np.eye(n).ravel()), float(np.min(fun)))
    return best, int(np.argmin(fun)), int(nfev.sum())


def polygon_clip_area_exact(A, b, box=64):
    """Exact area of {x : Ax <= b} in the plane: the square [-box, box]^2
    clipped by each halfplane in rational arithmetic (the float data are
    converted exactly), then the shoelace formula.  Returns a Fraction."""
    poly = [(Fraction(sx * box), Fraction(sy * box))
            for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    for (a1, a2), bi in zip(np.asarray(A, dtype=float),
                            np.asarray(b, dtype=float)):
        a1, a2, bi = Fraction(a1), Fraction(a2), Fraction(bi)
        out = []
        for k, P in enumerate(poly):
            Q = poly[(k + 1) % len(poly)]
            gP = a1 * P[0] + a2 * P[1] - bi
            gQ = a1 * Q[0] + a2 * Q[1] - bi
            if gP <= 0:
                out.append(P)
            if (gP < 0 < gQ) or (gQ < 0 < gP):
                t = gP / (gP - gQ)
                out.append((P[0] + t * (Q[0] - P[0]),
                            P[1] + t * (Q[1] - P[1])))
        poly = out
        if not poly:
            return Fraction(0)
    twice = sum(P[0] * Q[1] - Q[0] * P[1]
                for P, Q in zip(poly, poly[1:] + poly[:1]))
    return abs(twice) / 2


def support_Zp_unfolded(mu, p, V):
    """h_{Z_p(mu)} on the rows of V, summed over every atom."""
    dots = np.atleast_2d(V) @ mu.directions.T
    if np.isinf(p):
        return dots.max(axis=1)
    return (np.abs(dots) ** p @ mu.weights) ** (1.0 / p)


def norm_Zp_star_unfolded(mu, p, X):
    """||x||_{Z*_p(mu)} on the rows of X, summed over every atom."""
    dots = np.abs(np.atleast_2d(X) @ mu.directions.T)
    if np.isinf(p):
        return dots.max(axis=1)
    return (dots ** p @ mu.weights) ** (1.0 / p)


def zp_touch_point_unfolded(mu, p, V):
    """grad h_{Z_p(mu)} on the rows of V, summed over every atom, atom by
    atom."""
    out = []
    for v in np.atleast_2d(V):
        h = sum(c * abs(u @ v) ** p for u, c in zip(mu.directions, mu.weights))
        g = sum(c * abs(u @ v) ** (p - 1.0) * np.sign(u @ v) * u
                for u, c in zip(mu.directions, mu.weights))
        out.append(g * h ** (1.0 / p - 1.0))
    return np.array(out)


def exp_integral_full_grid(mu, p, L, nodes):
    """int exp(-sum c_i |<x,u_i>|^p) dx over [-L, L]^n, n in {2, 3}, on the
    full tensor grid of ``zonoids._axis_nodes`` and every atom."""
    from isozonoid.zonoids import _axis_nodes

    x, w = _axis_nodes(L, nodes)
    n = mu.dim
    P = np.stack([g.ravel() for g in np.meshgrid(*[x] * n, indexing="ij")],
                 axis=1)
    W = np.prod(np.stack([g.ravel() for g in
                          np.meshgrid(*[w] * n, indexing="ij")], axis=1), axis=1)
    vals = np.exp(-(np.abs(P @ mu.directions.T) ** p) @ mu.weights)
    return float(vals @ W)


def s1_transport_to_cross(mu, phis):
    """Transport cost from an even measure on S^1 to the cross with frame
    angle phi, for each phi in ``phis``, in closed form.

    For even measures the spherical transport equals the transport between
    lines: every atom (u, c) is mass c on the line of u, the cross is mass 1
    on each of its two lines, and the cost is the angle between lines.  With
    two sinks this LP is a fractional knapsack: everything goes to the second
    line except mass 1, taken greedily from the atoms that save most by
    going to the first.
    """
    th = np.arctan2(mu.directions[:, 1], mu.directions[:, 0])
    c = mu.weights

    def line_dist(a):
        d = np.abs(a) % np.pi
        return np.minimum(d, np.pi - d)

    phis = np.asarray(phis, dtype=float)[:, None]
    a = line_dist(th[None, :] - phis)
    b = line_dist(th[None, :] - phis - np.pi / 2)
    order = np.argsort(a - b, axis=1, kind="stable")
    gain = np.take_along_axis(a - b, order, axis=1)
    cs = c[order]
    before = np.cumsum(cs, axis=1) - cs
    x = np.clip(1.0 - before, 0.0, cs)
    return b @ c + np.sum(x * gain, axis=1)


def gauge_radial_volume(gauge_fn, n):
    """V(K) = (1/n) int_{S^{n-1}} r^n with r = 1 / gauge, as (value, gap):
    4096 equal angles in n = 2, a 128 x 256 Gauss-Legendre x midpoint rule
    in n = 3; gap is the change from half that resolution, an estimate."""
    def rule(size):
        if n == 2:
            th = np.arange(size) * (2.0 * np.pi / size)
            r = 1.0 / gauge_fn(np.stack([np.cos(th), np.sin(th)], axis=1))
            return np.pi * float(np.mean(r ** 2))
        z, wz = np.polynomial.legendre.leggauss(size)
        phi = (np.arange(2 * size) + 0.5) * (np.pi / size)
        s = np.sqrt(1.0 - z ** 2)
        dirs = np.stack([np.outer(s, np.cos(phi)), np.outer(s, np.sin(phi)),
                         np.repeat(z[:, None], 2 * size, axis=1)], axis=2)
        r = 1.0 / gauge_fn(dirs.reshape(-1, 3)).reshape(size, 2 * size)
        return float(wz @ np.sum(r ** 3, axis=1)) * (np.pi / size) / 3.0
    if n not in (2, 3):
        raise ValueError("radial rule for n in {2, 3}")
    fine = rule(4096 if n == 2 else 128)
    coarse = rule(2048 if n == 2 else 64)
    return fine, abs(fine - coarse)


def polar_polygon_area_radial(P, m=2 ** 20):
    """Area of {y : <y, p_i> <= 1} by the midpoint rule (1/2) int rho^2 over
    m angles, with rho(u) = 1 / max_i <u, p_i>.

    The maximum runs over Qhull's hull vertices of P near the one whose
    normal cone holds u (found from the sorted edge-normal angles), four
    neighbours on each side, so the rule costs O(m) and not O(m |P|).
    """
    from scipy.spatial import ConvexHull
    Q = P[ConvexHull(P).vertices]                       # counterclockwise
    k = len(Q)
    d = np.roll(Q, -1, axis=0) - Q
    # the outer normal of edge j (Q_j -> Q_j+1) starts the cone of Q_j+1
    start = np.mod(np.arctan2(-d[:, 0], d[:, 1]), 2.0 * np.pi)
    order = np.argsort(start)
    th = (np.arange(m) + 0.5) * (2.0 * np.pi / m)
    j = order[(np.searchsorted(start[order], th) - 1) % k]
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
    near = (j[:, None] + 1 + np.arange(-4, 5)[None, :]) % k
    g = np.max(np.einsum("mi,mwi->mw", U, Q[near]), axis=1)
    return 0.5 * float(np.sum(g ** -2.0)) * (2.0 * np.pi / m)


def icosphere_loop(subdiv):
    """The subdivided icosahedron built face by face: one Python midpoint
    call per edge of every face, each new node appended at its edge's first
    visit."""
    from scipy.spatial import ConvexHull
    phi = (1.0 + 5.0 ** 0.5) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    V = np.array(verts)
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    faces = ConvexHull(V).simplices
    for _ in range(subdiv):
        new_v = list(map(tuple, V))
        mids = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in mids:
                m = V[i] + V[j]
                m = m / np.linalg.norm(m)
                mids[key] = len(new_v)
                new_v.append(tuple(m))
            return mids[key]

        new_f = []
        for (i, j, k) in faces:
            a, b, c = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_f += [(i, a, c), (j, b, a), (k, c, b), (a, b, c)]
        V = np.array(new_v)
        faces = np.array(new_f)
    return V


def mp_gauge_solver(mu, p, x):
    """||x||_{M_p} via the representation infimum (one solve per row of x).

    Minimizes sum c_i |theta_i|^p over representations x = sum c_i theta_i u_i
    (a linear program for p = 1, a smooth convex program for p in (1, inf)).
    The returned value can only overestimate the true gauge, so points scaled
    by it land inside M_p.
    """
    from scipy.optimize import linprog, minimize

    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError("the representation solver needs p in [1, inf)")
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        return np.array([mp_gauge_solver(mu, p, row) for row in x])
    U, c = mu.directions, mu.weights
    A = (U * c[:, None]).T                          # x = A theta
    if p == 1.0:
        cost = np.concatenate([c, c])
        Aeq = np.hstack([A, -A])
        res = linprog(cost, A_eq=Aeq, b_eq=x, bounds=(0, None), method="highs")
        if not res.success:
            raise RuntimeError("M_1 gauge LP failed")
        return float(res.fun)
    theta0, *_ = np.linalg.lstsq(A, x, rcond=None)

    def obj(th):
        return float(np.sum(c * np.abs(th) ** p))

    def grad(th):
        return p * c * np.abs(th) ** (p - 1.0) * np.sign(th)

    res = minimize(obj, theta0, jac=grad, method="SLSQP",
                   constraints=[{"type": "eq", "fun": lambda th: A @ th - x,
                                 "jac": lambda th: A}],
                   options={"maxiter": 300, "ftol": 1e-14})
    feas = float(np.linalg.norm(A @ res.x - x))
    if feas > 1e-8 * (1.0 + float(np.linalg.norm(x))):
        raise RuntimeError(f"M_p gauge solve infeasible by {feas:.2e}")
    return float(obj(res.x)) ** (1.0 / p)


def max_logdet_shape_loop(F, n, t_final=1e12):
    """john._max_logdet_shape as a loop: the central-path Newton for max
    log det Q s.t. f_j^T Q f_j <= 1, its Hessian filled entry by entry over
    the basis pairs and every f_j^T E f_j formed again at each step."""
    basis = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0
            basis.append(E)
    m = len(basis)
    r = 0.5 / np.max(np.linalg.norm(F, axis=1))
    Q = np.eye(n) * r * r
    t = 1.0
    while t < t_final:
        t *= 8.0
        for _ in range(80):
            Qi = np.linalg.inv(Q)
            s = 1.0 - np.einsum("ij,jk,ik->i", F, Q, F)
            quad = np.array([np.einsum("ij,jk,ik->i", F, E, F) for E in basis])
            g = np.array([-t * np.trace(Qi @ E) for E in basis]) + quad @ (1.0 / s)
            H = np.zeros((m, m))
            for a in range(m):
                for b in range(a, m):
                    val = t * np.trace(Qi @ basis[a] @ Qi @ basis[b])
                    val += np.sum(quad[a] * quad[b] / s ** 2)
                    H[a, b] = H[b, a] = val
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                break
            dQ = sum(cf * E for cf, E in zip(step, basis))
            alpha = 1.0
            for _ in range(60):
                Qn = Q + alpha * dQ
                sn = 1.0 - np.einsum("ij,jk,ik->i", F, Qn, F)
                if np.min(np.linalg.eigvalsh(Qn)) > 0 and np.all(sn > 0):
                    break
                alpha *= 0.5
            else:
                break
            Q = Q + alpha * dQ
            if np.linalg.norm(alpha * step) < 1e-15:
                break
    return Q


def pair_indices_loop(U, merge_angle):
    """measures._pair_indices as a loop of scalar sphere_angle calls: each
    row's partner is the first free row within merge_angle of its
    negation.  Returns the map, or None when a row has no partner."""
    from isozonoid.measures import sphere_angle

    k = len(U)
    pair = {}
    for i in range(k):
        if i in pair:
            continue
        for j in range(k):
            if j != i and j not in pair and \
                    sphere_angle(U[i], -U[j]) <= merge_angle:
                pair[i] = j
                pair[j] = i
                break
        else:
            return None
    return pair


def merge_close_atoms_loop(U, c, merge_angle):
    """measures._merge_close_atoms as a loop of scalar sphere_angle calls:
    each atom joins the first kept atom within merge_angle, else is kept."""
    from isozonoid.measures import sphere_angle

    keep_U, keep_c = [], []
    for u, w in zip(U, c):
        for i, v in enumerate(keep_U):
            if sphere_angle(u, v) <= merge_angle:
                keep_c[i] += w
                break
        else:
            keep_U.append(u.copy())
            keep_c.append(w)
    return np.array(keep_U), np.array(keep_c)
