"""John ellipsoid, contact measures, and isoperimetric quantities.

For an origin symmetric convex body K the John ellipsoid is the unique
maximum volume ellipsoid inside K.  Writing it as {x : x^T A x <= 1} with
A = Q^{-1}, the shape Q solves

    maximize log det Q   subject to   a_j^T Q a_j <= b_j^2

over the facets <a_j, x> <= b_j of K (containment of an ellipsoid in a
halfspace is linear in Q).  A small Newton barrier method solves this to
near machine precision for n <= 3, and optimality is certified by the
John decomposition: the touching directions u_j = a_j / ||a_j|| of the
normalized body must carry weights with sum c_j u_j (x) u_j = Id_n.

The unit ball B^n is John's ellipsoid of K exactly when B^n <= K and such
isotropic contact weights exist; contact_measure extracts that (even,
isotropic) measure.  The remaining operations are the exact polytope
surface/volume ratios, a certified lower bound for the volume of the wedge
regions Xi_{u,u_0} (an inscribed ball from one LP), and the two
cube-comparison checks used by the stability pipeline (cube sandwich for
Z*_inf, and the corner-cut volume bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import (BodyRep, _interior_point, circle_grid, hull_volume_area,
                     icosphere, unit_ball_volume)
from .errors import (DimensionUnsupportedError, HypothesisFailedError,
                     InfeasibleWeightsError, NoContactsError,
                     PreconditionViolatedError)
from .measures import (AtomicMeasure, second_moment_matrix,
                       solve_isotropic_weights, unit_vector)

CONTACT_TOL = 1e-8


@dataclass(frozen=True)
class Ellipsoid:
    """Origin-centered ellipsoid {x : x^T A x <= 1} with A positive definite."""

    shape: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.shape, dtype=float)
        A = 0.5 * (A + A.T)
        if np.min(np.linalg.eigvalsh(A)) <= 0:
            raise ValueError("shape matrix must be positive definite")
        A.flags.writeable = False
        object.__setattr__(self, "shape", A)

    @property
    def dim(self) -> int:
        return self.shape.shape[0]

    @property
    def volume(self) -> float:
        return unit_ball_volume(self.dim) / math.sqrt(np.linalg.det(self.shape))

    def ball_deviation(self) -> float:
        return float(np.max(np.abs(self.shape - np.eye(self.dim))))


def _normalized_facets(body: BodyRep):
    A, b = body.halfspaces
    if np.any(b <= 0):
        raise PreconditionViolatedError("body must contain the origin in its interior")
    return A / b[:, None]


def john_ellipsoid(body: BodyRep) -> Ellipsoid:
    """Maximum volume inscribed ellipsoid of an origin symmetric body, n <= 3.

    Newton barrier ascent on log det Q with facet constraints; certified by
    the isotropy residual of the contact decomposition (<= 1e-6).  That
    certificate omits John's condition sum c_i u_i = 0, which holds by
    symmetry, so a body whose vertex set is not closed under negation
    (within 1e-9) raises PreconditionViolatedError.
    """
    if body.dim > 3:
        raise DimensionUnsupportedError("john_ellipsoid implemented for n <= 3")
    V = body.vertices
    gap = np.linalg.norm(V[:, None, :] + V[None, :, :], axis=2).min(axis=1)
    if np.max(gap) > 1e-9:
        raise PreconditionViolatedError(
            "john_ellipsoid needs a body symmetric about the origin: the "
            f"negation of a vertex lies {np.max(gap):.2e} from every vertex")
    F = _normalized_facets(body)        # rows f_j; constraint f_j^T Q f_j <= 1
    Q = _max_logdet_shape(F, body.dim)
    A = np.linalg.inv(Q)
    ell = Ellipsoid(0.5 * (A + A.T))
    # normalize so the ellipsoid becomes B^n, then demand John contacts
    L = np.linalg.cholesky(ell.shape)
    Fn = F @ np.linalg.inv(L).T         # facets of L^T K
    resid = _john_residual(Fn)
    if resid > 1e-6:
        raise PreconditionViolatedError(
            f"John optimality certificate failed (residual {resid:.2e})")
    return ell


def _john_residual(F):
    norms = np.linalg.norm(F, axis=1)
    touch = norms >= 1.0 - CONTACT_TOL
    if not np.any(touch):
        return np.inf
    U = F[touch] / norms[touch, None]
    try:
        w = solve_isotropic_weights(U, residual_tol=1e-6)
    except InfeasibleWeightsError:
        return np.inf
    M = (U.T * w) @ U
    return float(np.max(np.abs(M - np.eye(F.shape[1]))))


def _max_logdet_shape(F, n):
    """Central-path Newton for: max log det Q s.t. f_j^T Q f_j <= 1.

    Each step builds its Hessian over the basis pairs a <= b at once: t
    tr(((Qi E_a) Qi) E_b), in the product order of Qi @ E_a @ Qi @ E_b, plus
    sum_j q_aj q_bj / s_j^2, with q_aj = f_j^T E_a f_j fixed by F and so
    formed once, with its pairwise products; the lower triangle mirrors the
    upper.  The step dQ = sum_a step_a E_a is written into both triangles.
    """
    iu = np.triu_indices(n)             # basis E_a: 1 at iu_a and its mirror
    m = len(iu[0])
    E = np.zeros((m, n, n))
    E[np.arange(m), iu[0], iu[1]] = E[np.arange(m), iu[1], iu[0]] = 1.0
    ia, ib = np.triu_indices(m)
    Eb = E[ib]
    quad = np.array([np.einsum("ij,jk,ik->i", F, Ea, F) for Ea in E])
    qq = quad[ia] * quad[ib]
    r = 0.5 / np.max(np.linalg.norm(F, axis=1))
    Q = np.eye(n) * r * r
    t = 1.0
    while t < 1e12:
        t *= 8.0
        for _ in range(80):
            Qi = np.linalg.inv(Q)
            s = 1.0 - np.einsum("ij,jk,ik->i", F, Q, F)
            QiE = Qi @ E
            g = -t * np.trace(QiE, axis1=1, axis2=2) + quad @ (1.0 / s)
            h = (t * np.trace((QiE @ Qi)[ia] @ Eb, axis1=1, axis2=2)
                 + np.sum(qq / s ** 2, axis=1))
            H = np.empty((m, m))
            H[ia, ib] = H[ib, ia] = h
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                break
            dQ = np.zeros((n, n))
            dQ[iu] = dQ[iu[::-1]] = step
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


def contact_measure(body: BodyRep) -> AtomicMeasure:
    """Isotropic contact measure of a body normalized to John ball B^n.

    Touching directions are the normalized facet normals at distance one
    from the origin; their John weights come from the nonnegative moment
    solve.  Raises NoContactsError when the body is not in John position.
    """
    F = _normalized_facets(body)
    norms = np.linalg.norm(F, axis=1)
    if np.any(norms > 1.0 + CONTACT_TOL):
        raise NoContactsError("body does not contain the unit ball")
    touch = norms >= 1.0 - CONTACT_TOL
    if not np.any(touch):
        raise NoContactsError("no facet touches the unit sphere")
    U = F[touch] / norms[touch, None]
    from .measures import isotropic_measure_from_directions

    mu = isotropic_measure_from_directions(U, even=True)
    if np.max(np.abs(second_moment_matrix(mu) - np.eye(mu.dim))) > CONTACT_TOL:
        raise ValueError("John condition residual exceeds 1e-8")
    return mu


def isoperimetric_ratio(body: BodyRep) -> float:
    """S(K)^n / V(K)^{n-1}; equals n^n V(K) for bodies tangent to B^n."""
    V = body.vertices
    vol, surf = hull_volume_area(V)
    return surf ** body.dim / vol ** (body.dim - 1)


def cube_isoperimetric_ratio(n: int) -> float:
    """S(W^n)^n / V(W^n)^{n-1} = (n 2^n)^n / (2^n)^{n-1}."""
    return (n * 2.0 ** n) ** n / (2.0 ** n) ** (n - 1)


# ---------------------------------------------------------------------------
# wedge-region volume bound


def xi_region_certificate(u, u0) -> dict:
    """A ball inside the wedge region of the stability proof, n in {2, 3}:

        Xi_{u,u0} = { y in 0.1 B^n : <y,u> >= 1/30, <y,u0> >= 1/30,
                      <y, u-u0> >= ||u-u0|| / 120 },  for <u, u0> >= 0.

    0.1 B^n lies inside the tangent planes <y, w> <= 0.1 over the
    directions w of ``circle_grid(64)`` (n = 2) or ``icosphere(2)``
    (n = 3).  The Chebyshev ball of those planes and the cuts (the LP of
    ``bodies._interior_point``; the third cut is void at u = u0) has centre
    c and radius r, the least row slack at c.  Shrunk to
    rho = min(r, 0.1 - |c|) it lies in Xi, so V(Xi) >= kappa_n rho^n.
    Returns ``center`` c, ``radius`` rho, that ``lower`` bound, the proof's
    ``bound`` kappa_n / 240^n and whether ``lower`` meets it (``passed``).
    """
    u = unit_vector(u)
    u0 = unit_vector(u0)
    n = len(u)
    if n not in (2, 3):
        raise DimensionUnsupportedError("xi region certificate implemented "
                                        "for n in {2, 3}")
    if u @ u0 < 0:
        raise PreconditionViolatedError("need <u, u0> >= 0")
    d = u - u0
    dn = np.linalg.norm(d)
    rows, offsets = [-u, -u0], [-1.0 / 30.0, -1.0 / 30.0]
    if dn > 0:
        rows.append(-d)
        offsets.append(-dn / 120.0)
    tangents = circle_grid(64) if n == 2 else icosphere(2)
    A = np.vstack(rows + [tangents])
    b = np.concatenate([offsets, np.full(len(tangents), 0.1)])
    c = _interior_point(A, b)
    r = float(np.min((b - A @ c) / np.linalg.norm(A, axis=1)))
    rho = min(r, 0.1 - float(np.linalg.norm(c)))
    lower = unit_ball_volume(n) * max(rho, 0.0) ** n
    bound = unit_ball_volume(n) / 240.0 ** n
    return {"center": c, "radius": rho, "lower": lower, "bound": bound,
            "passed": lower >= bound}


# ---------------------------------------------------------------------------
# cube comparison lemmas


def cube_sandwich_check(mu: AtomicMeasure, alpha: float) -> dict:
    """Exact inclusion check e^{-n a} W^n <= Z*_inf(mu) <= e^{2 n a} W^n.

    Hypotheses: mu even, delta_H(supp mu, supp nu_n) < alpha < 1/(3n) for
    the coordinate cross.  Inner inclusion by vertex containment, outer by
    support-function domination on the cube's facet normals.
    """
    from .metrics import hausdorff_spherical

    n = mu.dim
    if not mu.even:
        raise HypothesisFailedError("measure must be even")
    if not (0.0 < alpha < 1.0 / (3.0 * n)):
        raise HypothesisFailedError("need 0 < alpha < 1/(3n)")
    cross = np.vstack([np.eye(n), -np.eye(n)])
    dH = hausdorff_spherical(mu.directions, cross)
    if dH >= alpha:
        raise HypothesisFailedError(
            f"delta_H = {dH:.4f} is not below alpha = {alpha:.4f}")
    U = mu.directions
    # inner: vertices of e^{-n alpha} W^n satisfy <x, u> <= 1 for all atoms
    import itertools as it

    r_in = math.exp(-n * alpha)
    inner_ok = True
    for sgn in it.product((-1.0, 1.0), repeat=n):
        x = r_in * np.array(sgn)
        if np.max(U @ x) > 1.0 + 1e-12:
            inner_ok = False
            break
    # outer: h_{Z*_inf}(+-e_i) <= e^{2 n alpha}, exact polytope support
    r_out = math.exp(2.0 * n * alpha)
    polar = BodyRep.from_halfspaces(U, np.ones(len(U)))
    outer_ok = bool(np.all(polar.support(cross) <= r_out + 1e-12))
    return {"alpha": alpha, "delta_H": dH, "inner_ok": inner_ok,
            "outer_ok": outer_ok, "passed": inner_ok and outer_ok}


def bmkzw_check(K: BodyRep, Z: BodyRep, tau: float) -> dict:
    """Corner-cut volume bound V(K) <= (1 - tau^n/2^n) V(W^n).

    Hypotheses (each named on failure): tau in (0, 1/4); K <= Z;
    (1-tau) W^n <= Z; (1-2 tau) W^n not<= K; V(Z) <= V(W^n).
    """
    import itertools as it

    n = K.dim
    if not (0.0 < tau < 0.25):
        raise HypothesisFailedError("tau must lie in (0, 1/4)")
    VK = K.vertices
    if np.max(Z.gauge(VK)) > 1.0 + 1e-10:
        raise HypothesisFailedError("K is not contained in Z")
    cube_vertices = np.array(list(it.product((-1.0, 1.0), repeat=n)))
    if np.max(Z.gauge((1.0 - tau) * cube_vertices)) > 1.0 + 1e-10:
        raise HypothesisFailedError("(1 - tau) W^n is not contained in Z")
    if np.max(K.gauge((1.0 - 2.0 * tau) * cube_vertices)) <= 1.0 + 1e-10:
        raise HypothesisFailedError("(1 - 2 tau) W^n is contained in K")
    volW = 2.0 ** n
    volZ = hull_volume_area(Z.vertices)[0]
    if volZ > volW * (1.0 + 1e-10):
        raise HypothesisFailedError("V(Z) exceeds V(W^n)")
    volK = hull_volume_area(VK)[0]
    bound = (1.0 - tau ** n / 2.0 ** n) * volW
    return {"vol_K": volK, "bound": bound, "passed": volK <= bound + 1e-10}
