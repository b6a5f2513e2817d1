"""Independent oracles used to validate library results.

Everything here deliberately avoids the code paths under test: error
functions come from a Taylor series, CDFs from adaptive quadrature,
transport values from permutation enumeration, volumes from direct
combinatorial vertex enumeration or exact rational polygon clipping, orbit
minima from dense grids, the multistart searches (n = 3 orbit,
Banach-Mazur, volume distance) from one scipy Nelder-Mead run per start on
a scalar objective, zonoid sums over every atom (no antipodal folding), the
ball integral over the full tensor grid, halfspace intersections from
Qhull's halfspace mode (no polar-dual hull), the gauge Monte-Carlo
check from the oracle at every sample (no certified shell), and the gauge
of M_p from its representation infimum (one LP or SLSQP solve per point,
not the Z_{p'} duality).
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


def banach_mazur_per_start(K, M, restarts, seed=0):
    """delta_BM upper bound as a loop: lam of one matrix at a time, one scipy
    Nelder-Mead run per start (xatol 1e-10, fatol 1e-12, maxiter 2000).
    Returns (value, lambda, best_start, nfev)."""
    n = K.dim
    VK, (AK, bK) = _vertices_and_halfspaces(K)
    VM, (AM, bM) = _vertices_and_halfspaces(M)

    def lam_of(x):
        mat = x.reshape(n, n)
        det = np.linalg.det(mat)
        if abs(det) < 1e-9:
            return np.inf
        Phi = mat / abs(det) ** (1.0 / n)
        Phi_inv = np.linalg.inv(Phi)
        inner = np.max(np.max(((VK @ Phi_inv.T) @ AM.T) / bM, axis=1))
        outer = np.max(np.max(((VM @ Phi.T) @ AK.T) / bK, axis=1))
        return inner * outer

    fun, _, nfev = multistart_nelder_mead(
        lam_of, _body_starts_per_start(n, restarts, 0.3, seed),
        1e-10, 1e-12, 2000)
    lam = min(lam_of(np.eye(n).ravel()), float(np.min(fun)))
    return (math.log(max(lam, 1.0)), lam, int(np.argmin(fun)),
            int(nfev.sum()))


def halfspace_vertices_hsi(A, b):
    """Vertices of {x : Ax <= b} from scipy's ``HalfspaceIntersection``
    about ``bodies._interior_point``, then a hull that removes duplicate
    intersection points (hull order in n = 2, rounded and sorted in n = 3)."""
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    from isozonoid.bodies import _interior_point

    A = np.asarray(A, dtype=float)
    pt = _interior_point(A, b)
    hs = np.hstack([A, -np.asarray(b, dtype=float)[:, None]])
    pts = HalfspaceIntersection(hs, pt).intersections
    hull = ConvexHull(pts)
    return pts[hull.vertices] if A.shape[1] == 2 else np.unique(
        np.round(pts[np.unique(hull.simplices)], 12), axis=0)


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


def central_difference_touch_points(fn, dirs, h=1e-6):
    """Gradient of a support function at each direction by central
    differences, one scalar oracle call per shifted direction."""
    pts = []
    for d in dirs:
        g = np.zeros(len(d))
        for i in range(len(d)):
            e = np.zeros(len(d))
            e[i] = h
            g[i] = (fn(d + e) - fn(d - e)) / (2.0 * h)
        pts.append(g)
    return np.array(pts)


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


def gauge_mc_volume_full(body, nsamples, seed):
    """The gauge body's stratified hit-or-miss with the oracle evaluated at
    every sample: same bounding box, seed, orthant order and draws as
    ``bodies._gauge_mc_volume``."""
    from isozonoid.bodies import sphere_grid
    n = body.dim
    dirs = sphere_grid(n, size_2d=256, subdiv_3d=2)
    rmax = float(np.max(1.0 / np.asarray(body.fn(dirs)))) * 1.05
    rng = np.random.default_rng(seed)
    orthants = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    per = max(nsamples // len(orthants), 1)
    cell = rmax ** n
    vol = 0.0
    var = 0.0
    for sgn in orthants:
        pts = rng.random((per, n)) * rmax * sgn
        frac = float(np.mean(np.asarray(body.fn(pts)) <= 1.0))
        vol += frac * cell
        var += cell ** 2 * max(frac * (1.0 - frac), 1e-12) / per
    return vol, math.sqrt(var)


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
