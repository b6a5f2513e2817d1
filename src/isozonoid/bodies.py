"""Convex body representations and volume computation (desk scale, n <= 4).

A body carries one of four representations:

    V       vertex list (convex hull implied)
    H       halfspace list  <a_j, x> <= b_j
    support callable direction -> support value h(v), positively homogeneous
    gauge   callable point -> Minkowski gauge ||x||_K (1 on the boundary)

Oracles (support, gauge and touch callables) are vectorized: a point (n,)
maps to a scalar (a touch point to a point) and rows (k, n) map to k
values (k points); an output of any other shape raises ValueError.

Exact volumes come from facet enumeration / simplicial decomposition (Qhull)
for V and H bodies.  Support oracles are sandwiched between the hull of
touching points and the intersection of tangent halfspaces over a direction
grid; gauge oracles use the polar-radial formula V = (1/n) int r^n with
r = 1/gauge, plus a seeded Monte-Carlo cross-check that calls the oracle
only in the shell between certified radial bounds (``BodyRep.radii``).
All errors are reported, never hidden.

Halfspace systems go through one polar-dual kernel.  With the origin
inside, {x : <a_i, x> <= b_i} is the polar of conv{a_i / b_i}: its area is
a closed-form arc sum (``_polar_areas``), its volume comes from one Qhull
hull of the dual points (``_polar_volumes``), and the facets of that hull
are its vertices (``halfspace_vertices``).  The n = 3 outer sandwich bound,
H -> V conversion and the delta_vol intersection volumes in ``metrics`` all
use it; no Qhull halfspace intersection is left.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from .errors import (DimensionUnsupportedError, UnboundedBodyError)

ANGLE_GRID_2D = 4096            # uniform angles for 2-D direction grids
ICOSPHERE_SUBDIV = 5            # 10242 nodes, the n = 3 direction grid
MC_SAMPLES = 2 * 10 ** 6
SHELL_MARGIN = 1e-9             # relative slack around the certified radii
EXACT_REL_ERR = 1e-12


def unit_ball_volume(n: int) -> float:
    """kappa_n = pi^{n/2} / Gamma(1 + n/2)."""
    return math.pi ** (n / 2.0) / math.gamma(1.0 + n / 2.0)


# ---------------------------------------------------------------------------
# direction grids


def circle_grid(m: int = ANGLE_GRID_2D) -> np.ndarray:
    ang = np.arange(m) * (2.0 * np.pi / m)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


@functools.lru_cache(maxsize=None)
def icosphere(subdiv: int = ICOSPHERE_SUBDIV) -> np.ndarray:
    """Subdivided icosahedron projected to S^2; subdiv=5 gives 10242 nodes.

    Built once per subdivision level and process; the array is read-only.
    """
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
    V.flags.writeable = False
    return V


@functools.lru_cache(maxsize=None)
def _gauss_legendre(k: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per k and
    process; the arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(k)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def sphere_grid(n: int, size_2d: int = ANGLE_GRID_2D,
                subdiv_3d: int = ICOSPHERE_SUBDIV) -> np.ndarray:
    if n == 2:
        return circle_grid(size_2d)
    if n == 3:
        return icosphere(subdiv_3d)
    raise DimensionUnsupportedError("direction grids available for n in {2, 3}")


# ---------------------------------------------------------------------------
# body representation


@dataclass(frozen=True)
class VolumeResult:
    value: float
    abs_error: float
    method: str                 # EXACT | QUADRATURE | MONTE_CARLO

    def to_json_dict(self):
        return {"value": self.value, "abs_error": self.abs_error,
                "method": self.method}


@dataclass(frozen=True)
class BodyRep:
    dim: int
    kind: str                   # "V" | "H" | "support" | "gauge"
    vertices: Optional[np.ndarray] = None
    halfspaces: Optional[tuple] = None          # (A, b) with <a_j, x> <= b_j
    fn: Optional[Callable] = None               # support or gauge callable
    touch_fn: Optional[Callable] = None         # direction -> boundary point
    # Certified bounds (r_lo, r_hi) on the radial function 1 / gauge of a
    # gauge body: r_lo <= rho_K(u) <= r_hi for every unit u, so |x| < r_lo
    # is inside K and |x| > r_hi outside.  None means (0, inf).
    radii: Optional[tuple] = None

    # constructors -----------------------------------------------------

    @classmethod
    def from_vertices(cls, vertices) -> "BodyRep":
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        if np.linalg.matrix_rank(V, tol=1e-12) < V.shape[1]:
            raise ValueError("vertex list does not span R^n")
        V = V.copy()
        V.flags.writeable = False
        return cls(dim=V.shape[1], kind="V", vertices=V)

    @classmethod
    def from_halfspaces(cls, A, b, check_bounded=True) -> "BodyRep":
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float)
        if check_bounded:
            _assert_bounded(A, b)
        A = A.copy(); b = b.copy()
        A.flags.writeable = False
        b.flags.writeable = False
        return cls(dim=A.shape[1], kind="H", halfspaces=(A, b))

    @classmethod
    def from_support(cls, dim, fn, touch_fn=None, rng_check=True) -> "BodyRep":
        if rng_check:
            rng = np.random.default_rng(11)
            for _ in range(4):
                v = rng.normal(size=dim)
                if abs(fn(2.0 * v) - 2.0 * fn(v)) > 1e-10 * (1.0 + abs(fn(v))):
                    raise ValueError("support oracle is not positively homogeneous")
        return cls(dim=dim, kind="support", fn=fn, touch_fn=touch_fn)

    @classmethod
    def from_gauge(cls, dim, fn, radii=None) -> "BodyRep":
        if radii is not None:
            r_lo, r_hi = map(float, radii)
            if not 0.0 <= r_lo <= r_hi:
                raise ValueError(f"radial bounds need 0 <= r_lo <= r_hi, "
                                 f"got {radii!r}")
            radii = (r_lo, r_hi)
        return cls(dim=dim, kind="gauge", fn=fn, radii=radii)

    # evaluation ---------------------------------------------------------

    def support(self, d) -> float:
        d = np.asarray(d, dtype=float)
        if self.kind == "V":
            return float(np.max(self.vertices @ d))
        if self.kind == "support":
            return float(self.fn(d))
        if self.kind == "H":
            return float(np.max(self.to_vrep().vertices @ d))
        raise ValueError("no support evaluation for gauge oracles")

    def gauge(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if self.kind == "H":
            A, b = self.halfspaces
            return float(np.max((A @ x) / b))
        if self.kind == "gauge":
            return float(self.fn(x))
        if self.kind == "V":
            A, b = self.to_hrep().halfspaces
            return float(np.max((A @ x) / b))
        raise ValueError("no gauge evaluation for support oracles")

    def contains(self, x, tol=1e-9) -> bool:
        return self.gauge(x) <= 1.0 + tol

    # conversions ---------------------------------------------------------

    def to_vrep(self) -> "BodyRep":
        if self.kind == "V":
            return self
        if self.kind == "H":
            A, b = self.halfspaces
            pts = halfspace_vertices(A, b)
            hull = ConvexHull(pts)
            return BodyRep.from_vertices(pts[hull.vertices])
        raise ValueError(f"cannot convert kind {self.kind!r} to V")

    def to_hrep(self) -> "BodyRep":
        if self.kind == "H":
            return self
        if self.kind == "V":
            A, b = vertices_to_halfspaces(self.vertices)
            return BodyRep.from_halfspaces(A, b, check_bounded=False)
        raise ValueError(f"cannot convert kind {self.kind!r} to H")

    def to_json_dict(self):
        if self.kind == "V":
            return {"dim": self.dim, "kind": "V",
                    "data": self.vertices.tolist()}
        if self.kind == "H":
            A, b = self.halfspaces
            return {"dim": self.dim, "kind": "H",
                    "data": np.hstack([A, b[:, None]]).tolist()}
        raise ValueError("only V/H bodies serialize to JSON")


def body_from_json(data) -> BodyRep:
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    kind = data["kind"]
    arr = np.asarray(data["data"], dtype=float)
    if kind == "V":
        return BodyRep.from_vertices(arr)
    if kind == "H":
        return BodyRep.from_halfspaces(arr[:, :-1], arr[:, -1])
    raise ValueError(f"unknown body kind {kind!r}")


# ---------------------------------------------------------------------------
# polytope plumbing


def _assert_bounded(A, b):
    """LP check in each +/- coordinate direction."""
    n = A.shape[1]
    for i in range(n):
        for sgn in (1.0, -1.0):
            c = np.zeros(n)
            c[i] = -sgn
            res = linprog(c, A_ub=A, b_ub=b, bounds=(None, None),
                          method="highs")
            if res.status == 3:
                raise UnboundedBodyError(f"unbounded in direction {sgn:+.0f}e_{i}")
            if not res.success:
                raise UnboundedBodyError("halfspace system infeasible or ill-posed")


def _interior_point(A, b):
    """Chebyshev center; for symmetric bodies with b > 0 the origin suffices."""
    if np.all(b > 1e-12):
        return np.zeros(A.shape[1])
    n = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.hstack([A, norms[:, None]])
    res = linprog(c, A_ub=A_ub, b_ub=b, bounds=(None, None), method="highs")
    if not res.success or res.x[-1] <= 0:
        raise UnboundedBodyError("no interior point found")
    return res.x[:-1]


def halfspace_vertices(A, b) -> np.ndarray:
    """Vertex enumeration of {x : Ax <= b} from the polar dual hull.

    Shifted to an interior point pt (``_interior_point``), the polytope is
    the polar of conv{a_j / b'_j} with b' = b - A pt, so each facet
    (nu, off) of that one hull is the vertex nu / (-off) + pt.  b' is
    summed coordinate by coordinate from -b, the order Qhull's halfspace
    mode uses, so the vertices are bit-identical to its intersections.
    Triangulated dual facets repeat vertices; one hull of the points
    removes them.
    """
    A = np.asarray(A, dtype=float)
    pt = _interior_point(A, b)
    dist = -np.asarray(b, dtype=float)
    for k in range(A.shape[1]):
        dist = dist + A[:, k] * pt[k]
    eqs = ConvexHull(A / -dist[:, None]).equations
    pts = eqs[:, :-1] / -eqs[:, -1:] + pt
    hull = ConvexHull(pts)
    return pts[hull.vertices] if A.shape[1] == 2 else np.unique(
        np.round(pts[np.unique(hull.simplices)], 12), axis=0)


def _polar_areas(P):
    """Areas of the polygons {x : <p_i, x> <= 1} for dual points P (B, m, 2)
    whose convex hulls contain the origin in their interiors.

    The area is (1/2) int rho(theta)^2 dtheta with rho = 1 / max_i <p_i, u>.
    Constraint i is active on the arc where <p_i - p_j, u> >= 0 for every j;
    with u = p_i + s J p_i (J the quarter turn, s = tan of the angle from
    p_i) each condition is linear in s, and the arc [s_lo, s_hi] adds
    (s_hi - s_lo) / (2 |p_i|^2), the triangle from the origin to edge i.
    The differences p_i - p_j are formed first, so nearly coincident dual
    points give accurate crossings; exact duplicates go to the lower index.
    """
    m = P.shape[1]
    D = P[:, :, None, :] - P[:, None, :, :]            # d_ij = p_i - p_j
    Px, Py = P[:, :, None, 0], P[:, :, None, 1]
    alpha = D[..., 0] * Px + D[..., 1] * Py              # <d_ij, p_i>
    beta = D[..., 1] * Px - D[..., 0] * Py               # <d_ij, J p_i>
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -alpha / beta                                # alpha + s beta >= 0
    lo = np.max(np.where(beta > 0, s, -np.inf), axis=2)
    hi = np.min(np.where(beta < 0, s, np.inf), axis=2)
    later = np.arange(m)[None, :] < np.arange(m)[:, None]          # j < i
    dead = (beta == 0) & ((alpha < 0) | ((alpha == 0) & later))
    hi[dead.any(axis=2)] = -np.inf
    return np.sum(np.maximum(hi - lo, 0.0) / (2.0 * np.sum(P * P, axis=2)),
                  axis=1)


def _triple(a, b, c):
    """det(a, b, c) = <a, b x c> over the last axis (3)."""
    return (a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
            + a[..., 1] * (b[..., 2] * c[..., 0] - b[..., 0] * c[..., 2])
            + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0]))


def _polar_volumes(P):
    """Volumes of the polytopes {x : <p_i, x> <= 1} for dual points P
    (B, m, 3) whose convex hulls contain the origin in their interiors.

    One Qhull hull of each point set.  A hull facet (nu, off) is the vertex
    x = nu / (-off) of the polytope, and the facet of plane i, with foot
    f_i = p_i / |p_i|^2, is fanned from f_i over its edges x_F x_G: the
    two hull facets F, G that share the dual edge i -> j.  Summing
    det(f_i, x_G, x_F) / 6 over the oriented dual edges gives the volume.
    """
    B, m, _ = P.shape
    S, N, E, owner = [], [], [], []
    nf = 0
    for k in range(B):
        hull = ConvexHull(P[k])
        S.append(hull.simplices + k * m)
        N.append(hull.neighbors + nf)
        E.append(hull.equations)
        owner.append(np.full(len(hull.simplices), k))
        nf += len(hull.simplices)
    S, N, E, owner = (np.concatenate(x) for x in (S, N, E, owner))
    Q = P.reshape(-1, 3)
    X = E[:, :3] / -E[:, 3:]
    # orient every facet counterclockwise seen from outside
    V0, V1, V2 = Q[S[:, 0]], Q[S[:, 1]], Q[S[:, 2]]
    flip = _triple(E[:, :3], V1 - V0, V2 - V0) < 0
    S[flip, 1:] = S[flip, :0:-1]
    N[flip, 1:] = N[flip, :0:-1]
    foot = Q / np.sum(Q * Q, axis=1)[:, None]
    # edge S[f, r] -> S[f, r + 1] is shared with facet N[f, r + 2]
    dets = _triple(foot[S], X[N[:, [2, 0, 1]]], X[:, None, :])
    return np.bincount(owner, weights=dets.sum(axis=1), minlength=B) / 6.0


def vertices_to_halfspaces(V):
    """Facet description of conv(V): rows a_j, offsets b_j with <a_j,x> <= b_j.

    Qhull triangulates non-simplicial facets; coplanar duplicates are merged.
    """
    hull = ConvexHull(V)
    eqs = np.unique(np.round(hull.equations, 12), axis=0)
    return eqs[:, :-1], -eqs[:, -1]


def polar_of_vrep(V) -> BodyRep:
    """Polar { x : <x, v_i> <= 1 } of conv(V) for origin-interior hulls."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    return BodyRep.from_halfspaces(V, np.ones(len(V)), check_bounded=False)


def hull_volume_area(V):
    """(volume, surface measure) of conv(V); Qhull's 2-D 'area' is perimeter."""
    hull = ConvexHull(np.atleast_2d(V))
    return float(hull.volume), float(hull.area)


def cube_body(n: int, r: float = 1.0) -> BodyRep:
    """r W^n = [-r, r]^n as halfspaces."""
    A = np.vstack([np.eye(n), -np.eye(n)])
    return BodyRep.from_halfspaces(A, np.full(2 * n, r), check_bounded=False)


def cross_polytope_body(n: int, r: float = 1.0) -> BodyRep:
    return BodyRep.from_vertices(r * np.vstack([np.eye(n), -np.eye(n)]))


def zonotope_vertices(generators) -> np.ndarray:
    """Vertices of sum_j [-g_j, g_j] by sign enumeration (m <= 20)."""
    G = np.atleast_2d(np.asarray(generators, dtype=float))
    m = len(G)
    if m > 20:
        raise DimensionUnsupportedError("too many generators for sign enumeration")
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    pts = signs @ G
    hull = ConvexHull(pts)
    return pts[hull.vertices] if G.shape[1] == 2 else pts[np.unique(hull.simplices)]


def zonotope_volume(generators) -> float:
    """V(sum [-g_j, g_j]) = 2^n sum_{|S|=n} |det G_S|  (Cauchy-Binet minors)."""
    G = np.atleast_2d(np.asarray(generators, dtype=float))
    m, n = G.shape
    acc = [abs(float(np.linalg.det(G[list(S)])))
           for S in itertools.combinations(range(m), n)]
    return 2.0 ** n * math.fsum(acc)


# ---------------------------------------------------------------------------
# volume dispatch


def volume(body: BodyRep, grid=None, mc_samples: int = MC_SAMPLES,
           seed: int = 0) -> VolumeResult:
    """Volume with an explicit error bar; method depends on representation."""
    if body.kind == "V":
        if body.dim > 4:
            raise DimensionUnsupportedError("exact V-rep volume needs n <= 4")
        v, _ = hull_volume_area(body.vertices)
        return VolumeResult(v, EXACT_REL_ERR * v, "EXACT")
    if body.kind == "H":
        if body.dim > 3:
            raise DimensionUnsupportedError("exact H-rep volume needs n <= 3")
        v, _ = hull_volume_area(body.to_vrep().vertices)
        return VolumeResult(v, EXACT_REL_ERR * v, "EXACT")
    if body.kind == "support":
        return _support_sandwich_volume(body, grid=grid)
    if body.kind == "gauge":
        return _gauge_radial_volume(body, mc_samples=mc_samples, seed=seed)
    raise ValueError(f"unknown body kind {body.kind!r}")


def _eval_fn(fn, X):
    """Evaluate a vectorized oracle on the rows of X (k, n) -> (k,)."""
    X = np.atleast_2d(X)
    out = np.asarray(fn(X), dtype=float)
    if out.shape != (len(X),):
        raise ValueError(f"oracle gave shape {out.shape} for {len(X)} rows")
    return out


def _touch_points(body, dirs):
    if body.touch_fn is not None:
        out = np.asarray(body.touch_fn(dirs), dtype=float)
        if out.shape != dirs.shape:
            raise ValueError(f"touch oracle gave shape {out.shape} for "
                             f"directions of shape {dirs.shape}")
        return out
    # central-difference gradient of the support function: one oracle call
    # on the grid shifted by +-h along every axis
    n = body.dim
    h = 1e-6
    step = h * np.eye(n)[:, None, :]
    shifted = np.concatenate([dirs + step, dirs - step])       # (2n, m, n)
    vals = _eval_fn(body.fn, shifted.reshape(-1, n)).reshape(2, n, len(dirs))
    return ((vals[0] - vals[1]) / (2.0 * h)).T


def _support_sandwich_volume(body, grid=None) -> VolumeResult:
    """Volume between the hull of the touch points (inner) and the body
    {x : <u_i, x> <= h(u_i)} of the tangent halfspaces over the grid
    (outer); the value is the midpoint and the bar half the gap.

    In n = 2 the outer polygon comes from consecutive tangent lines; in
    n = 3 the outer body is the polar of conv{u_i / h(u_i)}, whose volume
    is one hull of the dual points (``_polar_volumes``, the kernel shared
    with H -> V and delta_vol).
    """
    n = body.dim
    if grid is None:
        grid = sphere_grid(n)
    hvals = _eval_fn(body.fn, grid)
    if np.any(hvals <= 0):
        raise ValueError("support oracle not positive on the grid")
    if n == 2:
        v_out = _outer_polygon_area(grid, hvals)
    elif n == 3:
        v_out = float(_polar_volumes((grid / hvals[:, None])[None])[0])
    else:
        raise DimensionUnsupportedError("support sandwich needs n <= 3")
    v_in = float(ConvexHull(_touch_points(body, grid)).volume)
    mid = 0.5 * (v_out + v_in)
    return VolumeResult(mid, 0.5 * (v_out - v_in) + EXACT_REL_ERR * mid,
                        "QUADRATURE")


def _outer_polygon_area(dirs, hvals) -> float:
    """Area of the intersection of tangent halfplanes over a dense angle grid.

    Consecutive tangent lines <x, d_i> = h_i intersect in the outer polygon
    vertex; valid because the angular spacing is far below pi.
    """
    m = len(dirs)
    nxt = np.roll(np.arange(m), -1)
    D = np.stack([dirs, dirs[nxt]], axis=1)            # (m, 2, 2) line pairs
    rhs = np.stack([hvals, hvals[nxt]], axis=1)
    pts = np.linalg.solve(D, rhs[..., None])[..., 0]
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def _gauge_radial_volume(body, mc_samples=MC_SAMPLES, seed=0) -> VolumeResult:
    n = body.dim
    if n == 2:
        coarse = _radial_integral_2d(body.fn, ANGLE_GRID_2D // 2)
        fine = _radial_integral_2d(body.fn, ANGLE_GRID_2D)
    elif n == 3:
        coarse = _radial_integral_3d(body.fn, 64, 128)
        fine = _radial_integral_3d(body.fn, 128, 256)
    else:
        raise DimensionUnsupportedError("gauge quadrature needs n <= 3")
    quad_err = abs(fine - coarse) + EXACT_REL_ERR * abs(fine)
    mc, mc_err = _gauge_mc_volume(body, mc_samples, seed)
    # cross-check; inflate the error bar if the two estimates disagree
    gap = abs(mc - fine)
    err = gap if gap > quad_err + 4.0 * mc_err else quad_err
    return VolumeResult(fine, err, "QUADRATURE")


def _radial_integral_2d(gauge_fn, m) -> float:
    dirs = circle_grid(m)
    r = 1.0 / _eval_fn(gauge_fn, dirs)
    return 0.5 * float(np.mean(r ** 2)) * 2.0 * np.pi


def _radial_integral_3d(gauge_fn, nz, nphi) -> float:
    z, wz = _gauss_legendre(nz)
    phi = (np.arange(nphi) + 0.5) * (2.0 * np.pi / nphi)
    s = np.sqrt(1.0 - z ** 2)
    total = 0.0
    for zi, wi, si in zip(z, wz, s):
        dirs = np.stack([si * np.cos(phi), si * np.sin(phi),
                         np.full(nphi, zi)], axis=1)
        r = 1.0 / _eval_fn(gauge_fn, dirs)
        total += wi * float(np.sum(r ** 3)) * (2.0 * np.pi / nphi)
    return total / 3.0


def _gauge_mc_volume(body, nsamples, seed):
    """Hit-or-miss in the bounding box, stratified over orthants.

    Equal sample counts per orthant; unbiased for any body and lower
    variance for the roughly orthant-symmetric bodies handled here.
    Deterministic given the seed; hit counts are summed exactly.

    Each orthant draws u in [0, 1)^n and the sample x = u * rmax * sgn.
    With certified radii r_lo <= rho_K <= r_hi (``BodyRep.radii``), a
    sample with |x| < r_lo is a hit and one with |x| > r_hi a miss, so the
    oracle runs only on the shell in between.  The test is on s = |u|^2
    against (r (1 -+ SHELL_MARGIN) / rmax)^2; the margin covers the
    rounding of s, of the radii and of the oracle, so the hit counts, and
    (vol, err), are those of evaluating every sample.  Without radii every
    sample is in the shell.
    """
    n = body.dim
    dirs = sphere_grid(n, size_2d=256, subdiv_3d=2)
    rmax = float(np.max(1.0 / _eval_fn(body.fn, dirs))) * 1.05
    r_lo, r_hi = body.radii or (0.0, math.inf)
    s_in = (r_lo * (1.0 - SHELL_MARGIN) / rmax) ** 2
    s_out = (r_hi * (1.0 + SHELL_MARGIN) / rmax) ** 2
    rng = np.random.default_rng(seed)
    orthants = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    per = max(nsamples // len(orthants), 1)
    cell = rmax ** n
    vol = 0.0
    var = 0.0
    for sgn in orthants:
        u = rng.random((per, n))
        s = (u * u) @ np.ones(n)
        shell = (s >= s_in) & (s <= s_out)
        pts = u.compress(shell, axis=0) * rmax * sgn
        hits = int(np.count_nonzero(s < s_in)) + int(np.count_nonzero(
            _eval_fn(body.fn, pts) <= 1.0))
        frac = hits / per
        vol += frac * cell
        var += cell ** 2 * max(frac * (1.0 - frac), 1e-12) / per
    return vol, math.sqrt(var)
