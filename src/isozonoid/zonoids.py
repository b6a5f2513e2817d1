"""L_p zonoids of even measures, their polars, and the companion body M_p.

For an even measure mu on S^{n-1} not concentrated on a great subsphere:

    h_{Z_p(mu)}(v) = ( sum_i c_i |<u_i, v>|^p )^{1/p},      p in [1, inf)
    Z_inf(mu)      = conv supp mu,
    Z*_p(mu)       = polar of Z_p(mu),

so the gauge of Z*_p is available in closed form (it equals h_{Z_p}),
while Z*_inf = { x : <x, u> <= 1 on supp mu } is an exact polytope.
Z_1 is a classical zonotope: the Minkowski sum of the weighted atom
segments, with an exact minor-expansion volume.

Evenness halves the work.  Every term c_i |<u_i, v>|^p is unchanged under
u_i -> -u_i, so the support function, the gauge, the touching points and
the ball integral sum over ``AtomicMeasure.folded``: one atom per
antipodal pair with weight 2 c_i (a non-even measure is not folded).  The
Z_1 zonotope takes its generators 2 c_j u_j from the same fold.

M_p(mu) = { sum c_i theta_i u_i : sum c_i |theta_i|^p <= 1 } needs no
solver.  Its support function at v is the norm dual to theta ->
sum c_i theta_i u_i, that is ( sum_i c_i |<u_i, v>|^{p'} )^{1/p'} with
1/p + 1/p' = 1, so M_p(mu) = Z_{p'}(mu): M_1 = conv{+-u_i} and
M_inf = Z_1, the zonotope.  ``mp_body`` builds it as the Z_{p'} body of the
evenized measure; the test-suite checks it against the representation
infimum solved directly.

The extremal volumes of Theorem B are closed forms.  For the cross measure
h_{Z_p(nu_n)}(v) = ||v||_p, so Z_p(nu_n) is the unit ball of l_q with
1/q = 1 - 1/p and Z*_p(nu_n) the unit ball of l_p:

    V(Z_p(nu_n))  = (2 Gamma(1+s))^n / Gamma(1+ns),     s = 1 - 1/p,
    V(Z*_p(nu_n)) = 2^n Gamma(1+1/p)^n / Gamma(1+n/p).

The second is reproduced both by body volumes and by the
exponential-integral route V(K) = Gamma(1+n/p)^{-1} int exp(-||x||_K^p) dx,
whose integrand is even in x: its tensor grid evaluates only the
nonnegative half of the last axis and doubles the sum.
"""

from __future__ import annotations

import math

import numpy as np

from .bodies import (BodyRep, VolumeResult, _gauss_legendre, polar_of_vrep,
                     volume, zonotope_vertices, zonotope_volume)
from .errors import DegenerateMeasureError, DimensionUnsupportedError, NonConvergedError
from .measures import AtomicMeasure


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
    # |<x, u_i>|^p in place: the Monte-Carlo check passes ~10^5 rows, where
    # every fresh temporary costs time
    dots = X @ U.T
    np.abs(dots, out=dots)
    if np.isinf(p):
        out = np.max(dots, axis=1)
    else:
        dots **= p
        out = (dots @ c) ** (1.0 / p)
    return float(out[0]) if single else out


def _antipodal_pair_generators(mu: AtomicMeasure):
    """One zonotope generator 2 c_j u_j per antipodal atom pair."""
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


def body_Zp(mu: AtomicMeasure, p) -> BodyRep:
    """Z_p(mu): exact polytope for p in {1, inf}, support oracle otherwise."""
    p = _check_pz(p)
    _require_full_dimensional(mu)
    if np.isinf(p):
        return BodyRep.from_vertices(mu.directions)
    if p == 1.0 and mu.even:
        G = _antipodal_pair_generators(mu)
        if len(G) <= 16 and mu.dim <= 4:
            return BodyRep.from_vertices(zonotope_vertices(G))
    fn = lambda v: support_Zp(mu, p, v)
    touch = lambda v: zp_touch_point(mu, p, v)
    return BodyRep.from_support(mu.dim, fn, touch_fn=touch, rng_check=False)


def body_Zp_star(mu: AtomicMeasure, p) -> BodyRep:
    """Z*_p(mu): exact polytope for p = inf (and p = 1 in n <= 3), gauge oracle otherwise.

    The gauge body carries certified radial bounds (``_gauge_radii``), so
    its Monte-Carlo cross-check calls the oracle only between them.
    """
    p = _check_pz(p)
    _require_full_dimensional(mu)
    if np.isinf(p):
        return BodyRep.from_halfspaces(mu.directions, np.ones(mu.natoms),
                                       check_bounded=False)
    if p == 1.0 and mu.even and mu.dim <= 3:
        zono = body_Zp(mu, 1.0)
        if zono.kind == "V":
            return polar_of_vrep(zono.vertices)
    return BodyRep.from_gauge(mu.dim, lambda x: norm_Zp_star(mu, p, x),
                              radii=_gauge_radii(mu, p))


def _gauge_radii(mu: AtomicMeasure, p: float):
    """Certified (r_lo, r_hi) with r_lo <= rho_{Z*_p(mu)}(u) <= r_hi, p finite.

    The gauge is g(x)^p = sum c_i |<x, u_i>|^p over the folded atoms.  Let
    M = sum c_i u_i u_i^T have extreme eigenvalues l_min, l_max and let
    m = sum c_i.  For |x| = 1 every t_i = <x, u_i> has |t_i| <= 1, so
    |t_i|^p >= t_i^2 for p <= 2 and |t_i|^p <= t_i^2 for p >= 2, while
    Jensen's inequality for (t^2)^(p/2) under the weights c_i / m gives the
    other side:

        p <= 2:  l_min <= g^p <= m^(1 - p/2) l_max^(p/2),
        p >= 2:  m^(1 - p/2) l_min^(p/2) <= g^p <= l_max.

    Then r_lo = upper^(-1/p) and r_hi = lower^(-1/p) (inf when the lower
    coefficient is not positive).  For isotropic mu and p <= 2 this is
    |x| <= g(x) <= n^(1/p - 1/2) |x|.  The eigenvalues are widened by
    4 (k + n) n eps m, above the rounding of forming M from k atoms and of
    ``eigvalsh``, so the bounds hold for ill-conditioned measures too.
    Atoms are unit only to 1e-12, which moves g by about as much relative,
    far inside the sampler's ``SHELL_MARGIN``.
    """
    U, c = mu.folded
    M = (U * c[:, None]).T @ U
    m = float(np.sum(c))
    n = mu.dim
    pad = 4.0 * (len(c) + n) * n * np.finfo(float).eps * m
    lam = np.linalg.eigvalsh(M)
    lo, hi = float(lam[0]) - pad, float(lam[-1]) + pad
    if p <= 2.0:
        lower, upper = lo, m ** (1.0 - p / 2.0) * hi ** (p / 2.0)
    else:
        lower = m ** (1.0 - p / 2.0) * max(lo, 0.0) ** (p / 2.0)
        upper = hi
    r_hi = lower ** (-1.0 / p) if lower > 0.0 else math.inf
    return upper ** (-1.0 / p), r_hi


# ---------------------------------------------------------------------------
# the auxiliary body M_p


def mp_body(mu: AtomicMeasure, p) -> BodyRep:
    """M_p(mu) = Z_{p'}(mu~) with 1/p + 1/p' = 1, for p in [1, inf].

    mu~ is mu made even (``AtomicMeasure.symmetrized``), which leaves every
    Z_{p'} with finite p' unchanged and makes M_1 = conv{+-u_i}.
    """
    p = _check_pz(p)
    if not mu.even:
        mu = AtomicMeasure.symmetrized(mu.directions, mu.weights)
    if p == 1.0:
        return body_Zp(mu, math.inf)
    return body_Zp(mu, 1.0 if np.isinf(p) else p / (p - 1.0))


# ---------------------------------------------------------------------------
# volumes


def volume_Zp(mu: AtomicMeasure, p, **kw) -> VolumeResult:
    body = body_Zp(mu, p)
    if p == 1.0 and mu.even:
        # minor-expansion oracle, independent of the hull code
        G = _antipodal_pair_generators(mu)
        v = zonotope_volume(G)
        return VolumeResult(v, 1e-12 * v, "EXACT")
    return volume(body, **kw)


def volume_Zp_star(mu: AtomicMeasure, p, **kw) -> VolumeResult:
    return volume(body_Zp_star(mu, p), **kw)


def volume_Zp_star_ball_integral(mu: AtomicMeasure, p, nodes: int = None,
                                 target: float = None) -> VolumeResult:
    """V(Z*_p) = Gamma(1+n/p)^{-1} int exp(-sum c_i |<x,u_i>|^p) dx.

    Tensor Gauss-Legendre on [-L, L]^n with L from the isotropy decay bound
    sum c_i |<x,u_i>|^p >= min(1, n^{1-p/2}) ||x||^p; the error bar is the
    difference between consecutive grid resolutions.  Raises NonConverged
    when a requested target is missed.
    """
    p = _check_pz(p)
    if np.isinf(p):
        raise ValueError("ball integral needs finite p")
    _require_full_dimensional(mu)
    n = mu.dim
    if n > 3:
        raise DimensionUnsupportedError("ball integral implemented for n <= 3")
    decay = min(1.0, float(n) ** (1.0 - p / 2.0))
    L = (46.0 / decay) ** (1.0 / p)
    if nodes is None:
        nodes = 160 if n == 2 else 100
    coarser = _exp_integral(mu, p, L, int(nodes * 0.55))
    coarse = _exp_integral(mu, p, L, int(nodes * 0.75))
    fine = _exp_integral(mu, p, L, nodes)
    gam = math.gamma(1.0 + n / p)
    value = fine / gam
    # two successive refinement gaps guard against flukily small last steps
    err = (abs(fine - coarse) + abs(coarse - coarser)) / gam + 1e-12 * value
    if target is not None and err > target:
        raise NonConvergedError(f"ball integral error {err:.2e} misses {target:.2e}")
    return VolumeResult(value, err, "QUADRATURE")


def _axis_nodes(L, half_nodes, gamma=6.0):
    """Symmetric 1-D nodes on [-L, L], split at 0 and exponentially
    concentrated near the origin (where the integrand lives)."""
    u, wu = _gauss_legendre(half_nodes)
    u = (u + 1.0) / 2.0
    wu = wu / 2.0
    scale = L / (math.exp(gamma) - 1.0)
    x = scale * (np.exp(gamma * u) - 1.0)
    w = wu * scale * gamma * np.exp(gamma * u)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def _exp_integral(mu, p, L, nodes):
    """Tensor quadrature of exp(-sum c_i |<x,u_i>|^p) over [-L, L]^n.

    The integrand is even in x and the axis nodes are symmetric about 0
    (none lies on it), so only the nonnegative half of the last axis is
    evaluated and the sum is doubled.
    """
    x, w = _axis_nodes(L, nodes)
    xh, wh = x[len(x) // 2:], w[len(w) // 2:]
    U, c = mu.folded
    if mu.dim == 2:
        X, Y = np.meshgrid(x, xh, indexing="ij")
        P = np.stack([X.ravel(), Y.ravel()], axis=1)
        vals = np.exp(-(np.abs(P @ U.T) ** p) @ c)
        return 2.0 * float(vals @ np.outer(w, wh).ravel())
    X, Y = np.meshgrid(x, x, indexing="ij")
    base = np.stack([X.ravel(), Y.ravel()], axis=1) @ U[:, :2].T
    Wxy = np.outer(w, w).ravel()
    total = 0.0
    for zi, wz in zip(xh, wh):
        vals = np.exp(-(np.abs(base + zi * U[:, 2]) ** p) @ c)
        total += wz * float(vals @ Wxy)
    return 2.0 * total


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
