"""Convex polytopes and volumes (desk scale, n <= 4).

A ``BodyRep`` is a polytope given by its vertices (kind "V") or by its
halfspaces <a_j, x> <= b_j (kind "H").  Both sides can be read on every
body; the one not given is converted on first read and kept.
``BodyRep.support`` and ``BodyRep.gauge`` take a point or rows.

Exact volumes (n <= 4) are the Qhull hull volume of the vertices.  A body
known by its support function h, such as an L_p zonoid, is sandwiched
over a direction grid v_j (``support_sandwich``): its touch points x_j span
an inner body I = conv{x_j} and its tangent halfspaces an outer body
O = {x : <x, v_j> <= h(v_j)}.  By polarity, I c K c O gives
O^o = conv{v_j / h(v_j)} c K^o c I^o = {y : <y, x_j> <= 1}, so one kernel
that returns (V(conv P), V(P^o)) for a point set P (``_hull_polar_volumes``),
applied to {v_j / h(v_j)} and to {x_j}, brackets both V(K) and V(K^o).
All errors are reported, never hidden.

Halfspace systems go through the same polar duality.  With the origin
inside, {x : <a_i, x> <= b_i} is the polar of conv{a_i / b_i}: its area and
edge moments are closed-form sums over the arcs where each constraint is
active (``_polar_arcs``, no Qhull call), its volume and facet moments come
from the fan over one Qhull hull of the dual points (``_polar_fan``,
``_polar_moments``), and the facets of that hull are its vertices
(``halfspace_vertices``).  The n = 3 sandwich, H -> V
conversion and the delta_vol intersection volumes in ``metrics`` all use
it; no Qhull halfspace intersection is left.

Boundedness is decided there too, by polarity: with every offset positive,
{x : <a_i, x> <= b_i} is bounded exactly when the origin lies strictly
inside conv{a_i / b_i}.  ``halfspace_vertices`` raises UnboundedBodyError
when that hull is flat or has a facet through or in front of the origin.
``from_halfspaces`` checks nothing; ``body_from_json``, the one path for
outside input, converts H data at load, so unbounded data is rejected
there.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from .errors import (DimensionUnsupportedError, UnboundedBodyError)
from .measures import _json_value

ANGLE_GRID_2D = 4096            # uniform angles for 2-D direction grids
ICOSPHERE_SUBDIV = 5            # 10242 nodes, the n = 3 direction grid
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

    Each level appends the normalized midpoints of the edges i -> j,
    j -> k, k -> i of every face, face by face, each edge at its first
    visit, and splits every face in four.  Built once per subdivision level
    and process; the array is read-only.
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
        E = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        key = np.min(E, axis=1) * len(V) + np.max(E, axis=1)
        _, first, inv = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)                   # edges by first visit
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        a, b, c = (len(V) + rank[inv.ravel()]).reshape(-1, 3).T
        i, j, k = faces.T
        faces = np.stack([i, a, c, j, b, a, k, c, b, a, b, c],
                         axis=1).reshape(-1, 3)
        edges = E[first[order]]
        M = V[edges[:, 0]] + V[edges[:, 1]]
        # |m| as a dot product per row, the rounding of np.linalg.norm(m)
        norm = np.sqrt((M[:, None, :] @ M[:, :, None])[:, 0, 0])
        V = np.vstack([V, M / norm[:, None]])
    V.flags.writeable = False
    return V


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
    method: str                 # EXACT | QUADRATURE

    def to_json_dict(self):
        return {"value": self.value, "abs_error": self.abs_error,
                "method": self.method}


def _frozen(x, ndmin=1) -> np.ndarray:
    """A read-only C-ordered float copy of x, with at least ndmin axes."""
    x = np.array(x, dtype=float, ndmin=ndmin, order="C")
    x.flags.writeable = False
    return x


class BodyRep:
    """A convex polytope in R^dim, given by its vertices (kind "V") or by
    its halfspaces (A, b) with <a_j, x> <= b_j (kind "H").

    ``vertices`` and ``halfspaces`` can be read on every body.  The side
    that was given is returned as given; the other is converted on first
    read (``halfspace_vertices`` or ``vertices_to_halfspaces``) and kept,
    so a body converts at most once.  Every array is read-only.
    """

    def __init__(self, kind, data):
        """kind "V" with data V (m, n), or kind "H" with data (A, b)."""
        self.kind = kind
        self.dim = (data if kind == "V" else data[0]).shape[1]
        setattr(self, "vertices" if kind == "V" else "halfspaces", data)

    @classmethod
    def from_vertices(cls, vertices) -> "BodyRep":
        V = _frozen(vertices, ndmin=2)
        if np.linalg.matrix_rank(V, tol=1e-12) < V.shape[1]:
            raise ValueError("vertex list does not span R^n")
        return cls("V", V)

    @classmethod
    def from_halfspaces(cls, A, b) -> "BodyRep":
        """{x : Ax <= b}, unchecked; ``halfspace_vertices`` decides whether
        it is bounded on the first read of ``vertices``."""
        return cls("H", (_frozen(A, ndmin=2), _frozen(b)))

    @functools.cached_property
    def vertices(self) -> np.ndarray:
        return _frozen(halfspace_vertices(*self.halfspaces))

    @functools.cached_property
    def halfspaces(self) -> tuple:
        return tuple(map(_frozen, vertices_to_halfspaces(self.vertices)))

    def support(self, d):
        """h_K(d): a direction (n,) gives a float, rows (k, n) give k values."""
        d = np.asarray(d, dtype=float)
        h = np.max(d @ self.vertices.T, axis=-1)
        return float(h) if d.ndim == 1 else h

    def gauge(self, x):
        """||x||_K: a point (n,) gives a float, rows (k, n) give k values."""
        x = np.asarray(x, dtype=float)
        A, b = self.halfspaces
        g = np.max((x @ A.T) / b, axis=-1)
        return float(g) if x.ndim == 1 else g

    def contains(self, x) -> bool:
        return self.gauge(x) <= 1.0 + 1e-9

    def to_json_dict(self):
        data = (self.vertices if self.kind == "V"
                else np.column_stack(self.halfspaces))
        return {"dim": self.dim, "kind": self.kind, "data": data.tolist()}


def body_from_json(data) -> BodyRep:
    """Read the body JSON format {dim, kind: "V" | "H", data}: vertex rows,
    or halfspace rows [a_j, b_j].  H data is converted at load, so
    unbounded data is rejected here."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict) or not {"kind", "data"} <= data.keys():
        raise ValueError('body JSON must be an object with keys "dim", '
                         '"kind" and "data"')
    kind = data["kind"]
    if kind not in ("V", "H"):
        raise ValueError(f"unknown body kind {kind!r}")
    arr = np.atleast_2d(_json_value(np.asarray, data["data"],
                                    'body JSON "data"',
                                    "a list of rows of numbers", dtype=float))
    dim = arr.shape[1] - (kind == "H")
    if data.get("dim") != dim:
        raise ValueError(f"body JSON needs \"dim\": {dim} for its "
                         f"{kind} rows, got {data.get('dim')!r}")
    if kind == "V":
        return BodyRep.from_vertices(arr)
    body = BodyRep.from_halfspaces(arr[:, :-1], arr[:, -1])
    body.vertices                               # raises if unbounded
    return body


# ---------------------------------------------------------------------------
# polytope plumbing


def _interior_point(A, b):
    """Chebyshev center; for symmetric bodies with b > 0 the origin suffices.

    Raises UnboundedBodyError with one message when the Chebyshev LP is
    unbounded (the system holds balls of every radius) and another when its
    largest ball has radius <= 0 (the system is empty or flat).
    """
    if np.all(b > 1e-12):
        return np.zeros(A.shape[1])
    n = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.hstack([A, norms[:, None]])
    res = linprog(c, A_ub=A_ub, b_ub=b, bounds=(None, None), method="highs")
    if res.status == 3:
        raise UnboundedBodyError("unbounded: the halfspaces hold balls of "
                                 "every radius")
    if not res.success or res.x[-1] <= 0:
        raise UnboundedBodyError("empty: the halfspaces have no interior "
                                 "point")
    return res.x[:-1]


def halfspace_vertices(A, b) -> np.ndarray:
    """Vertex enumeration of {x : Ax <= b} from the polar dual hull.

    Shifted to an interior point pt (``_interior_point``), the polytope is
    the polar of conv{a_j / b'_j} with b' = b - A pt, so each facet
    (nu, off) of that one hull is the vertex nu / (-off) + pt.  b' is
    summed coordinate by coordinate from -b, the order Qhull's halfspace
    mode uses, so the points are bit-identical to its intersections.
    Triangulated dual facets repeat vertices, exactly or to the last bits;
    Qhull's vertex set of the points drops the repeats, in every dimension.

    The shifted system is bounded exactly when the origin lies strictly
    inside the dual hull, so this raises UnboundedBodyError when the hull
    is flat or a facet offset is not negative (the origin on or outside
    it), and when there is no interior point.
    """
    A = np.asarray(A, dtype=float)
    pt = _interior_point(A, b)
    dist = -np.asarray(b, dtype=float)
    for k in range(A.shape[1]):
        dist = dist + A[:, k] * pt[k]
    try:
        eqs = ConvexHull(A / -dist[:, None]).equations
    except QhullError:
        raise UnboundedBodyError("unbounded: the dual points a_i / b_i "
                                 "span a flat hull") from None
    if not np.all(eqs[:, -1] < 0.0):
        raise UnboundedBodyError("unbounded: the dual points a_i / b_i do "
                                 "not surround the interior point")
    pts = eqs[:, :-1] / -eqs[:, -1:] + pt
    return pts[ConvexHull(pts).vertices]


def _polar_arcs(P):
    """The arcs of the polygon {x : <p_i, x> <= 1} for dual points P (m, 2)
    whose convex hull contains the origin in its interior.

    Constraint i is active on the arc where <p_i - p_j, u> >= 0 for every j;
    with u = p_i + s J p_i (J the quarter turn, s = tan of the angle from
    p_i) each condition is linear in s, and the arc is [s_lo, s_hi].  The
    differences p_i - p_j are formed first, so nearly coincident dual
    points give accurate crossings; exact duplicates go to the lower index.
    Returns s_lo and s_hi (m,), with s_hi = s_lo for a constraint that
    holds no edge.
    """
    x, y = P[:, :1], P[:, 1:]
    Dx, Dy = x - x.T, y - y.T                            # d_ij = p_i - p_j
    alpha = Dx * x + Dy * y                              # <d_ij, p_i>
    beta = Dy * x - Dx * y                               # <d_ij, J p_i>
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -alpha / beta                                # alpha + s beta >= 0
    lo = np.where(beta > 0, s, -np.inf).max(axis=1)
    hi = np.where(beta < 0, s, np.inf).min(axis=1)
    # p_j on the ray of p_i, at p_i or beyond it; past the diagonal, the
    # ones beyond it and the exact duplicates j < i leave constraint i dead
    dead = (beta == 0) & (alpha <= 0)
    if np.count_nonzero(dead) > len(P):
        dead &= (alpha < 0) | np.tri(len(P), k=-1, dtype=bool)
        hi[dead.any(axis=1)] = -np.inf
    return lo, np.maximum(hi, lo)


def _triple(a, b, c):
    """det(a, b, c) = <a, b x c> over the last axis (3)."""
    return (a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
            + a[..., 1] * (b[..., 2] * c[..., 0] - b[..., 0] * c[..., 2])
            + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0]))


def _polar_fan(P):
    """The fan of the polar {x : <p_i, x> <= 1} of one point set P (m, 3)
    whose hull contains the origin in its interior.

    One Qhull hull of P.  A hull facet (nu, off) is the vertex
    x = nu / (-off) of the polytope, and the facet of plane i, with foot
    f_i = p_i / |p_i|^2, is fanned from f_i over its edges x_F x_G: the
    two hull facets F, G that share the dual edge i -> j.  Returns
    V(conv P), V(P^o) and per oriented dual edge (F, 3) its plane i, the
    corners f_i and x_G, the corner x_F (broadcast over the edges of F) and
    det(f_i, x_G, x_F).  V(P^o) is the sum of those determinants / 6,
    summed facet by facet in facet order (``bincount``).
    """
    hull = ConvexHull(P)
    S, N, E = hull.simplices, hull.neighbors, hull.equations
    X = E[:, :3] / -E[:, 3:]
    # orient every facet counterclockwise seen from outside
    V0, V1, V2 = P[S[:, 0]], P[S[:, 1]], P[S[:, 2]]
    flip = _triple(E[:, :3], V1 - V0, V2 - V0) < 0
    S[flip, 1:] = S[flip, :0:-1]
    N[flip, 1:] = N[flip, :0:-1]
    foot = (P / np.sum(P * P, axis=1)[:, None])[S]
    # edge S[f, r] -> S[f, r + 1] is shared with facet N[f, r + 2]
    x_G, x_F = X[N[:, [2, 0, 1]]], X[:, None, :]
    dets = _triple(foot, x_G, x_F)
    polar = np.bincount(np.zeros(len(S), dtype=int),
                        weights=dets.sum(axis=1))[0] / 6.0
    return hull.volume, polar, S, foot, x_G, x_F, dets


# J^T, so that the rows of f @ _QUARTER_TURN are J f_i = (-f_i2, f_i1)
_QUARTER_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _polar_moments(P):
    """(V(P^o), a, M) for one point set P (m, n), n in {2, 3}, whose hull
    contains the origin in its interior: the volume of the polar
    P^o = {x : <p_i, x> <= 1}, and per plane i the area a_i of the facet of
    P^o on <p_i, x> = 1 and its first moment M_i = a_i c_i (c_i its
    centroid); both are 0 for a plane that holds no facet.

    n = 2: edge i runs from f_i + s_lo J f_i to f_i + s_hi J f_i, with
    f_i = p_i / |p_i|^2 and [s_lo, s_hi] its arc (``_polar_arcs``), so its
    length is (s_hi - s_lo) / |p_i|, its moment the length times its
    midpoint, and the triangle from the origin to it adds
    (s_hi - s_lo) / (2 |p_i|^2) to the area.

    n = 3: the volume of ``_polar_fan``.  Each fan triangle
    (f_i, x_G, x_F) of ``_polar_fan`` is a piece of facet i, of
    centroid (f_i + x_G + x_F) / 3 and signed area
    <(x_G - f_i) x (x_F - f_i), n_i> / 2 with n_i = p_i / |p_i|, which is
    |p_i| det(f_i, x_G, x_F) / 2: f_i = n_i / |p_i| is orthogonal to the
    other terms of the product.
    """
    if P.shape[1] == 2:
        lo, hi = _polar_arcs(P)
        sq, width = (P * P).sum(axis=1), hi - lo
        f = P / sq[:, None]
        a = width / np.sqrt(sq)
        M = (f + ((lo + hi) / 2.0)[:, None] * (f @ _QUARTER_TURN)) * a[:, None]
        return (width / sq).sum() / 2.0, a, M
    m = len(P)
    _, volume, S, foot, x_G, x_F, dets = _polar_fan(P)
    area = dets * np.sqrt(np.sum(P * P, axis=1))[S] / 2.0
    moment = area[..., None] * (foot + x_G + x_F) / 3.0
    a = np.bincount(S.ravel(), weights=area.ravel(), minlength=m)
    # bin 3 i + j sums coordinate j of plane i's moments, in fan order
    M = np.bincount((3 * S[..., None] + np.arange(3)).ravel(),
                    weights=moment.ravel(), minlength=3 * m).reshape(m, 3)
    return volume, a, M


def _hull_polar_volumes(P):
    """(V(conv P), V(P^o)) for a point set P (m, n), n in {2, 3}, whose hull
    contains the origin in its interior; P^o = {y : <y, p_i> <= 1}.

    n = 3 reads both from ``_polar_fan``.  In n = 2 the polar vertex dual
    to the hull edge x_k -> x_{k+1} (counterclockwise) is J d / cross(x_k, d)
    with d = x_{k+1} - x_k and J d = (d_2, -d_1).  Near vertices of a body
    the hull points cluster; their difference d is exact there, where
    cross(x_k, x_{k+1}) would cancel.
    """
    if P.shape[1] == 3:
        v_hull, v_polar = _polar_fan(P)[:2]
        return float(v_hull), float(v_polar)
    if P.shape[1] != 2:
        raise DimensionUnsupportedError("hull and polar volumes need n <= 3")
    hull = ConvexHull(P)
    X = P[hull.vertices]                        # counterclockwise in 2-D
    d = np.roll(X, -1, axis=0) - X
    Y = np.stack([d[:, 1], -d[:, 0]], axis=1) / (
        X[:, 0] * d[:, 1] - X[:, 1] * d[:, 0])[:, None]
    return float(hull.volume), polygon_area(Y)


def polygon_area(V) -> float:
    """Shoelace area of the polygon with vertices V (m, 2) in order."""
    x, y = V[:, 0], V[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def vertices_to_halfspaces(V):
    """Facet description of conv(V): rows a_j, offsets b_j with <a_j,x> <= b_j.

    Qhull triangulates non-simplicial facets; coplanar duplicates are merged.
    """
    hull = ConvexHull(V)
    eqs = np.unique(np.round(hull.equations, 12), axis=0)
    return eqs[:, :-1], -eqs[:, -1]


def hull_volume_area(V):
    """(volume, surface measure) of conv(V); Qhull's 2-D 'area' is perimeter."""
    hull = ConvexHull(np.atleast_2d(V))
    return float(hull.volume), float(hull.area)


def cube_body(n: int, r: float = 1.0) -> BodyRep:
    """r W^n = [-r, r]^n as halfspaces."""
    A = np.vstack([np.eye(n), -np.eye(n)])
    return BodyRep.from_halfspaces(A, np.full(2 * n, r))


def cross_polytope_body(n: int) -> BodyRep:
    return BodyRep.from_vertices(np.vstack([np.eye(n), -np.eye(n)]))


def zonotope_facets(generators):
    """Facet halfspaces (N, h) of the zonotope sum_j [-g_j, g_j]: <nu, x> <= h.

    Every facet is parallel to n - 1 generators, so its normal is the
    cofactor vector nu_S of such a subset S (<nu_S, x> = det[x; G_S]), at
    offset h(nu_S) = sum_j |<g_j, nu_S>|, the support value.  The rows are
    +-nu_S / |nu_S| over every (n - 1)-subset, with offsets h / |nu_S|; only
    rows with h = 0 (dependent subsets, nu_S = 0) are dropped.  Every other
    row is a supporting halfspace, so subsets spanning the same hyperplane
    (repeated facets) or nearly dependent ones (redundant rows) are
    harmless.  The polar of the zonotope is conv{N_i / h_i}.
    """
    G = np.atleast_2d(np.asarray(generators, dtype=float))
    m, n = G.shape
    S = np.array(list(itertools.combinations(range(m), n - 1)), dtype=int)
    GS = G[S.reshape(-1, n - 1)]
    cols = np.arange(n)
    nu = np.stack([(-1.0) ** i * np.linalg.det(GS[:, :, cols != i])
                   for i in range(n)], axis=1)
    h = np.sum(np.abs(nu @ G.T), axis=1)
    keep = h > 0.0
    scale = np.linalg.norm(nu[keep], axis=1)
    N = nu[keep] / scale[:, None]
    h = h[keep] / scale
    return np.vstack([N, -N]), np.concatenate([h, h])


def zonotope_volume(generators) -> float:
    """V(sum [-g_j, g_j]) = 2^n sum_{|S|=n} |det G_S|  (Cauchy-Binet minors)."""
    G = np.atleast_2d(np.asarray(generators, dtype=float))
    m, n = G.shape
    acc = [abs(float(np.linalg.det(G[list(S)])))
           for S in itertools.combinations(range(m), n)]
    return 2.0 ** n * math.fsum(acc)


# ---------------------------------------------------------------------------
# volumes


def volume(body: BodyRep) -> VolumeResult:
    """Exact polytope volume (n <= 4): the Qhull hull volume of the
    vertices, with a relative bar of 1e-12."""
    if body.dim > 4:
        raise DimensionUnsupportedError("exact polytope volume needs n <= 4")
    v, _ = hull_volume_area(body.vertices)
    return VolumeResult(v, EXACT_REL_ERR * v, "EXACT")


def support_sandwich(grid, h, touch):
    """Certified brackets of V(K) and V(K^o) for a body K, n <= 3, from
    its support values h (m,) and touch points (m, n) over the unit
    directions of grid (m, n).

    The touch points x_j (boundary points with <x_j, v_j> = h_j) and the
    tangent halfspaces give I = conv{x_j} c K c O = {x : <x, v_j> <= h_j},
    so O^o = conv{v_j / h_j} c K^o c I^o.  ``_hull_polar_volumes`` of
    {v_j / h_j} and of {x_j} gives all four volumes.  Each result is the
    midpoint of its bracket with half the gap as its bar: value -+ abs_error
    is [V(I), V(O)] and [V(O^o), V(I^o)].
    """
    if np.any(h <= 0):
        raise ValueError("support values not positive on the grid")
    v_dual_in, v_out = _hull_polar_volumes(grid / h[:, None])
    v_in, v_dual_out = _hull_polar_volumes(touch)
    return _bracket(v_in, v_out), _bracket(v_dual_in, v_dual_out)


def _bracket(lower, upper) -> VolumeResult:
    return VolumeResult(0.5 * (lower + upper), 0.5 * (upper - lower),
                        "QUADRATURE")
