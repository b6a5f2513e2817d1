"""L_p zonoids of even measures, their polars, and the companion body M_p.

For an even measure mu on S^{n-1} not concentrated on a great subsphere:

    h_{Z_p(mu)}(v) = ( sum_i c_i |<u_i, v>|^p )^{1/p},      p in [1, inf)
    Z_inf(mu)      = conv supp mu,
    Z*_p(mu)       = polar of Z_p(mu),

so the gauge of Z*_p is available in closed form (it equals h_{Z_p}),
while Z*_inf = { x : <x, u> <= 1 on supp mu } is an exact polytope.
For finite p > 1 neither body is a polytope, and the package needs only
their volumes: ``support_Zp`` and ``zp_touch_point`` over a direction grid
v_j feed one support sandwich (``bodies.support_sandwich``).  The touch
points x_j and the tangent halfspaces give I c Z_p c O, so by polarity
conv{v_j / h(v_j)} = O^o c Z*_p c I^o = {y : <y, x_j> <= 1}, and two hulls
certify a bracket of each volume (``zonoid_volumes``).  ``body_Zp`` and
``body_Zp_star`` build the polytopes of p in {1, inf} only.

Z_1 is a classical zonotope, Z_1(mu) = sum_j [-g_j, g_j] with g_j = c_j u_j
over the folded atoms.  Each facet is parallel to n - 1 generators, so its
normal nu_S is their cofactor vector and its offset h(nu_S) =
sum_j |<g_j, nu_S>| (``bodies.zonotope_facets``).  That one list of facets
gives Z_1 as an exact V-body (the vertices of the halfspaces) and its polar
as Z*_1(mu) = conv{ +-nu_S / h(nu_S) }; V(Z_1) is the minor expansion.  For
finite p every Z_p depends only on the even part of mu, so these exact
p = 1 bodies hold for every full-dimensional mu, even or not, with exact
volumes up to n = 4.

Evenness halves the work.  Every term c_i |<u_i, v>|^p is unchanged under
u_i -> -u_i, so the support function, the gauge, the touching points and
the ball integral sum over ``AtomicMeasure.folded``: one atom per
antipodal pair with weight 2 c_i (a non-even measure is not folded).  The
Z_1 zonotope takes its generators from the same fold.

M_p(mu) = { sum c_i theta_i u_i : sum c_i |theta_i|^p <= 1 } needs no
solver.  Its support function at v is the norm dual to theta ->
sum c_i theta_i u_i, that is ( sum_i c_i |<u_i, v>|^{p'} )^{1/p'} with
1/p + 1/p' = 1, so M_p(mu) = Z_{p'}(mu): M_1 = conv{+-u_i} and
M_inf = Z_1, the zonotope.  Every Z_{p'} with finite p' depends only on
the even part of mu, and M_1 = Z_inf(mu~) for mu~ the evenized measure, so
M_p(mu) = Z_{p'}(mu~) throughout; the test-suite checks ``support_Zp`` and
``zp_touch_point`` at p' against the representation infimum solved
directly.

The extremal volumes of Theorem B are closed forms.  For the cross measure
h_{Z_p(nu_n)}(v) = ||v||_p, so Z_p(nu_n) is the unit ball of l_q with
1/q = 1 - 1/p and Z*_p(nu_n) the unit ball of l_p:

    V(Z_p(nu_n))  = (2 Gamma(1+s))^n / Gamma(1+ns),     s = 1 - 1/p,
    V(Z*_p(nu_n)) = 2^n Gamma(1+1/p)^n / Gamma(1+n/p).

The second is reproduced both by body volumes and by the
exponential-integral route V(K) = Gamma(1+n/p)^{-1} int exp(-||x||_K^p) dx.
Its tensor Gauss-Legendre rule (160 nodes per half axis in n = 2, 100 in
n = 3) keeps only the nodes in the ball |x| <= R = (46 / d)^{1/p},
d = min(1, n^{1-p/2}): isotropy gives ||x||_{Z*_p}^p >= d |x|^p, so the
integrand it drops is below e^{-46} per unit volume.  The integrand is
even in x, so the rule evaluates only the nonnegative half of the last
axis and doubles the sum.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bodies import (BodyRep, VolumeResult, halfspace_vertices, sphere_grid,
                     support_sandwich, volume, zonotope_facets,
                     zonotope_volume)
from .errors import DegenerateMeasureError, DimensionUnsupportedError
from .measures import AtomicMeasure

AXIS_GROWTH = 6.0       # exponential node growth of the ball-integral axes


def _require_full_dimensional(mu: AtomicMeasure):
    if not mu.full_dimensional:
        raise DegenerateMeasureError("support lies in a great subsphere")


def _check_pz(p) -> float:
    p = float(p)
    if not p >= 1.0:
        raise ValueError("p must lie in [1, inf]")
    return p


def support_Zp(mu: AtomicMeasure, p, v):
    """Support function of Z_p(mu) at v (vectorized over rows of v)."""
    p = _check_pz(p)
    _require_full_dimensional(mu)
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    V = np.atleast_2d(v)
    if np.isinf(p):
        out = np.max(V @ mu.directions.T, axis=1)
    else:
        U, c = mu.folded
        out = (np.abs(V @ U.T) ** p @ c) ** (1.0 / p)
    return float(out[0]) if single else out


def norm_Zp_star(mu: AtomicMeasure, p, x):
    """Gauge ||x||_{Z*_p(mu)}; for even mu the p = inf case is max |<x, u_i>|."""
    p = _check_pz(p)
    _require_full_dimensional(mu)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    U, c = mu.folded
    dots = np.abs(X @ U.T)
    if np.isinf(p):
        out = np.max(dots, axis=1)
    else:
        out = (dots ** p @ c) ** (1.0 / p)
    return float(out[0]) if single else out


def _zonotope_generators(mu: AtomicMeasure):
    """Generators g_j = c_j u_j of Z_1(mu) = sum_j [-g_j, g_j] over the
    folded atoms: 2 c_j u_j per antipodal pair of an even measure."""
    U, c = mu.folded
    return c[:, None] * U


def zp_touch_point(mu: AtomicMeasure, p, v):
    """Boundary point of Z_p(mu) with outer normal v (gradient of h), p in [1, inf).

    At p = 1 it is sum_i c_i sign(<v, u_i>) u_i, a point of the face of the
    zonotope with outer normal v (a vertex when no <v, u_i> vanishes).
    """
    p = _check_pz(p)
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    V = np.atleast_2d(v)
    U, c = mu.folded
    dots = V @ U.T
    h = (np.abs(dots) ** p @ c) ** (1.0 / p)
    coef = c * np.abs(dots) ** (p - 1.0) * np.sign(dots)
    pts = (coef @ U) * h[:, None] ** (1.0 - p)
    return pts[0] if single else pts


def _polytope_p(mu: AtomicMeasure, p) -> float:
    """p in {1, inf}, where Z_p(mu) and Z*_p(mu) are polytopes."""
    p = _check_pz(p)
    if p != 1.0 and not np.isinf(p):
        raise ValueError(
            f"Z_p and Z*_p are polytopes only at p in {{1, inf}}, not p = {p}:"
            " use support_Zp, norm_Zp_star or zonoid_volumes")
    _require_full_dimensional(mu)
    return p


def body_Zp(mu: AtomicMeasure, p) -> BodyRep:
    """Z_p(mu) as a V-body, p in {1, inf}.

    Z_inf is conv supp mu.  Z_1 is the zonotope: its vertices come from its
    facet halfspaces (``zonotope_facets``), for every full-dimensional mu.
    """
    p = _polytope_p(mu, p)
    if np.isinf(p):
        return BodyRep.from_vertices(mu.directions)
    N, h = zonotope_facets(_zonotope_generators(mu))
    return BodyRep.from_vertices(halfspace_vertices(N, h))


def body_Zp_star(mu: AtomicMeasure, p) -> BodyRep:
    """Z*_p(mu) as a polytope, p in {1, inf}.

    Z*_inf is the H-body {x : <x, u_i> <= 1}.  Z*_1 is the V-body
    conv{N_i / h_i} over the zonotope's facet halfspaces (N, h), for every
    full-dimensional mu.
    """
    p = _polytope_p(mu, p)
    if np.isinf(p):
        return BodyRep.from_halfspaces(mu.directions, np.ones(mu.natoms))
    N, h = zonotope_facets(_zonotope_generators(mu))
    return BodyRep.from_vertices(N / h[:, None])


# ---------------------------------------------------------------------------
# volumes


def zonoid_volumes(mu: AtomicMeasure, p, grid=None):
    """(V(Z_p(mu)), V(Z*_p(mu))) as VolumeResults.

    Exact at p in {1, inf}: V(Z_1) is the minor expansion, independent of
    the hull code, and the other three are polytope volumes.  For finite
    p > 1 both come from one support sandwich of Z_p over ``grid`` (the
    default direction grid when None), fed by ``support_Zp`` and
    ``zp_touch_point``: each value is its certified bracket's midpoint and
    each bar half its gap.
    """
    p = _check_pz(p)
    _require_full_dimensional(mu)
    if p == 1.0:
        v = zonotope_volume(_zonotope_generators(mu))
        return VolumeResult(v, 1e-12 * v, "EXACT"), volume(body_Zp_star(mu, p))
    if np.isinf(p):
        return volume(body_Zp(mu, p)), volume(body_Zp_star(mu, p))
    if grid is None:
        grid = sphere_grid(mu.dim)
    return support_sandwich(grid, support_Zp(mu, p, grid),
                            zp_touch_point(mu, p, grid))


def volume_Zp_star_ball_integral(mu: AtomicMeasure, p) -> VolumeResult:
    """V(Z*_p) = Gamma(1+n/p)^{-1} int exp(-sum c_i |<x,u_i>|^p) dx.

    Tensor Gauss-Legendre with 160 (n = 2) or 100 (n = 3) nodes per half
    axis, on the half grid of the nodes with |x| <= R (``_decay_radius``),
    outside which the integrand is below e^{-46} per unit volume.  The
    error bar sums the two differences between the rules at 0.55, 0.75 and
    1 times that node count.
    """
    p = _check_pz(p)
    if np.isinf(p):
        raise ValueError("ball integral needs finite p")
    _require_full_dimensional(mu)
    n = mu.dim
    if n > 3:
        raise DimensionUnsupportedError("ball integral implemented for n <= 3")
    L = _decay_radius(n, p)
    nodes = 160 if n == 2 else 100
    coarser = _exp_integral(mu, p, L, int(nodes * 0.55))
    coarse = _exp_integral(mu, p, L, int(nodes * 0.75))
    fine = _exp_integral(mu, p, L, nodes)
    gam = math.gamma(1.0 + n / p)
    value = fine / gam
    # two successive refinement gaps guard against flukily small last steps
    err = (abs(fine - coarse) + abs(coarse - coarser)) / gam + 1e-12 * value
    return VolumeResult(value, err, "QUADRATURE")


def _decay_radius(n, p):
    """R beyond which exp(-sum c_i |<x,u_i>|^p) < e^{-46} for isotropic mu.

    Isotropy gives sum c_i |<x,u_i>|^p >= min(1, n^{1-p/2}) |x|^p: by
    Jensen over the weights c_i / n for p >= 2, and from
    |<x,u_i>|^p >= |<x,u_i>|^2 |x|^{p-2} for p < 2.
    """
    decay = min(1.0, float(n) ** (1.0 - p / 2.0))
    return (46.0 / decay) ** (1.0 / p)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(k: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per k and
    process; the arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(k)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _axis_nodes(L, half_nodes):
    """Symmetric 1-D nodes on [-L, L], split at 0 and exponentially
    concentrated near the origin (where the integrand lives): the map
    x = L (e^{g u} - 1) / (e^g - 1) of the Gauss-Legendre nodes u in
    [0, 1], with g = ``AXIS_GROWTH``."""
    u, wu = _gauss_legendre(half_nodes)
    u = (u + 1.0) / 2.0
    wu = wu / 2.0
    scale = L / (math.exp(AXIS_GROWTH) - 1.0)
    x = scale * (np.exp(AXIS_GROWTH * u) - 1.0)
    w = wu * scale * AXIS_GROWTH * np.exp(AXIS_GROWTH * u)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def _exp_integral(mu, p, L, nodes):
    """Tensor quadrature of exp(-sum c_i |<x,u_i>|^p) over the nodes of
    [-L, L]^n in the ball |x| <= R = ``_decay_radius(n, p)``.

    The dropped nodes carry an integrand below e^{-46}.  The integrand is
    even in x and the axis nodes are symmetric about 0 (none lies on it),
    so only the nonnegative half of the last axis is evaluated and the sum
    is doubled.  In n = 3 the (x, y) grid is sorted by x^2 + y^2 once, so
    each z slice evaluates a prefix of it, in one buffer of atoms by nodes.
    """
    x, w = _axis_nodes(L, nodes)
    xh, wh = x[len(x) // 2:], w[len(w) // 2:]
    U, c = mu.folded
    R2 = _decay_radius(mu.dim, p) ** 2
    if mu.dim == 2:
        X, Y = np.meshgrid(x, xh, indexing="ij")
        inside = X * X + Y * Y <= R2
        t = U @ np.stack([X[inside], Y[inside]])
        return 2.0 * _weighted_exp_sum(t, c, p, np.empty(t.shape[1]),
                                       np.outer(w, wh)[inside])
    X, Y = np.meshgrid(x, x, indexing="ij")
    r2 = (X * X + Y * Y).ravel()
    order = np.argsort(r2, kind="stable")
    r2 = r2[order]
    base = U[:, :2] @ np.stack([X.ravel()[order], Y.ravel()[order]])
    Wxy = np.outer(w, w).ravel()[order]
    uz = U[:, 2:]
    buf = np.empty_like(base)
    vals = np.empty(len(r2))
    total = 0.0
    for zi, wz in zip(xh, wh):
        m = int(np.searchsorted(r2, R2 - zi * zi, side="right"))
        t = buf[:, :m]
        np.add(base[:, :m], zi * uz, out=t)
        total += wz * _weighted_exp_sum(t, c, p, vals[:m], Wxy[:m])
    return 2.0 * total


def _weighted_exp_sum(t, c, p, v, W):
    """sum_j W_j exp(-sum_i c_i |t_ij|^p) for t of atoms by nodes, computed
    in place in t and v."""
    np.abs(t, out=t)
    np.power(t, p, out=t)
    np.matmul(c, t, out=v)
    np.negative(v, out=v)
    np.exp(v, out=v)
    return float(v @ W)


def reference_volume(kind: str, n: int, p) -> float:
    """Extremal (cross measure) volumes, both in closed form.

    Z_STAR: Z*_p(nu_n) is the unit ball of l_p, of volume
    2^n Gamma(1+1/p)^n / Gamma(1+n/p), and 2^n at p = inf.
    Z: h_{Z_p(nu_n)}(v) = ||v||_p, so Z_p(nu_n) is the unit ball of l_q with
    1/q = 1 - 1/p, of volume (2 Gamma(1+s))^n / Gamma(1+ns) with s = 1 - 1/p;
    this gives 2^n at p = 1, kappa_n at p = 2 and 2^n/n! at p = inf.
    """
    p = _check_pz(p)
    kind = kind.upper()
    if kind in ("Z_STAR", "ZSTAR", "Z*"):
        if np.isinf(p):
            return 2.0 ** n
        return 2.0 ** n * math.gamma(1.0 + 1.0 / p) ** n / math.gamma(1.0 + n / p)
    if kind != "Z":
        raise ValueError("kind must be Z or Z_STAR")
    s = 1.0 - 1.0 / p
    return (2.0 * math.gamma(1.0 + s)) ** n / math.gamma(1.0 + n * s)
