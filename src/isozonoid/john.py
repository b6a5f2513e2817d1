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
surface/volume ratios, the Monte-Carlo lower bound for the wedge regions
Xi_{u,u_0}, and the two cube-comparison checks used by the stability
pipeline (cube sandwich for Z*_inf, and the corner-cut volume bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .bodies import (BodyRep, VolumeResult, hull_volume_area, unit_ball_volume)
from .errors import (DimensionUnsupportedError, HypothesisFailedError,
                     InfeasibleWeightsError, NoContactsError,
                     PreconditionViolatedError)
from .measures import AtomicMeasure, solve_isotropic_weights, unit_vector

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


@dataclass(frozen=True)
class ContactSystem:
    directions: np.ndarray
    weights: np.ndarray
    residual: float

    def __post_init__(self):
        if self.residual > CONTACT_TOL:
            raise ValueError("John condition residual exceeds 1e-8")


def _normalized_facets(body: BodyRep):
    A, b = body.to_hrep().halfspaces
    if np.any(b <= 0):
        raise PreconditionViolatedError("body must contain the origin in its interior")
    return A / b[:, None]


def john_ellipsoid(body: BodyRep) -> Ellipsoid:
    """Maximum volume inscribed ellipsoid of an origin symmetric body, n <= 3.

    Newton barrier ascent on log det Q with facet constraints; certified by
    the isotropy residual of the contact decomposition (<= 1e-6).
    """
    if body.dim > 3:
        raise DimensionUnsupportedError("john_ellipsoid implemented for n <= 3")
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


def _symmetric_basis(n):
    basis = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0
            basis.append(E)
    return basis


def _max_logdet_shape(F, n, t_final=1e12):
    """Central-path Newton for: max log det Q s.t. f_j^T Q f_j <= 1."""
    basis = _symmetric_basis(n)
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


def contact_measure(body: BodyRep, tol: float = CONTACT_TOL) -> AtomicMeasure:
    """Isotropic contact measure of a body normalized to John ball B^n.

    Touching directions are the normalized facet normals at distance one
    from the origin; their John weights come from the nonnegative moment
    solve.  Raises NoContactsError when the body is not in John position.
    """
    F = _normalized_facets(body)
    norms = np.linalg.norm(F, axis=1)
    if np.any(norms > 1.0 + tol):
        raise NoContactsError("body does not contain the unit ball")
    touch = norms >= 1.0 - tol
    if not np.any(touch):
        raise NoContactsError("no facet touches the unit sphere")
    U = F[touch] / norms[touch, None]
    from .measures import isotropic_measure_from_directions

    mu = isotropic_measure_from_directions(U, even=True)
    ContactSystem(directions=mu.directions, weights=mu.weights,
                  residual=_isotropy_residual(mu))
    return mu


def _isotropy_residual(mu):
    M = (mu.directions.T * mu.weights) @ mu.directions
    return float(np.max(np.abs(M - np.eye(mu.dim))))


def surface_area(body: BodyRep) -> float:
    """Exact facet-measure sum: perimeter in n = 2, facet area in n = 3."""
    if body.dim > 3:
        raise DimensionUnsupportedError("surface_area implemented for n <= 3")
    V = body.to_vrep().vertices
    return hull_volume_area(V)[1]


def isoperimetric_ratio(body: BodyRep) -> float:
    """S(K)^n / V(K)^{n-1}; equals n^n V(K) for bodies tangent to B^n."""
    V = body.to_vrep().vertices
    vol, surf = hull_volume_area(V)
    return surf ** body.dim / vol ** (body.dim - 1)


def cube_isoperimetric_ratio(n: int) -> float:
    """S(W^n)^n / V(W^n)^{n-1} = (n 2^n)^n / (2^n)^{n-1}."""
    return (n * 2.0 ** n) ** n / (2.0 ** n) ** (n - 1)


# ---------------------------------------------------------------------------
# wedge-region volume bound


def xi_region_volume(u, u0, nsamples: int = 10 ** 7, seed: int = 0) -> VolumeResult:
    """Monte-Carlo volume of the wedge region used in the stability proof.

    Xi_{u,u0} = { y in 0.1 B^n : <y,u> >= 1/30, <y,u0> >= 1/30,
                  <y, u-u0> >= ||u-u0|| / 120 },  for <u, u0> >= 0.
    Asserts the lower bound kappa_n / 240^n (3-sigma margin) and returns
    the estimate.  Antithetic pairs keep the variance down.
    """
    u = unit_vector(u)
    u0 = unit_vector(u0)
    n = len(u)
    if n > 3:
        raise DimensionUnsupportedError("xi region sampling implemented for n <= 3")
    if u @ u0 < 0:
        raise PreconditionViolatedError("need <u, u0> >= 0")
    d = u - u0
    dn = np.linalg.norm(d)
    rng = np.random.default_rng(seed)
    half = nsamples // 2
    hits = 0
    chunk = 10 ** 6
    done = 0
    while done < half:
        m = min(chunk, half - done)
        g = rng.standard_normal((m, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = 0.1 * rng.random(m) ** (1.0 / n)
        pts = g * r[:, None]
        for sgn in (1.0, -1.0):
            P = sgn * pts
            ok = (P @ u >= 1.0 / 30.0) & (P @ u0 >= 1.0 / 30.0)
            if dn > 0:
                ok &= (P @ d >= dn / 120.0)
            hits += int(np.count_nonzero(ok))
        done += m
    total = 2 * done
    frac = hits / total
    ball_vol = unit_ball_volume(n) * 0.1 ** n
    value = frac * ball_vol
    stderr = ball_vol * math.sqrt(max(frac * (1.0 - frac), 1e-12) / total)
    bound = unit_ball_volume(n) / 240.0 ** n
    if value < bound - 3.0 * stderr:
        raise AssertionError(
            f"xi region volume {value:.3e} fell below kappa_n/240^n = {bound:.3e}")
    return VolumeResult(value, 3.0 * stderr, "MONTE_CARLO")


# ---------------------------------------------------------------------------
# cube comparison lemmas


def _polytope_support(A, b, d):
    """Exact support function of {Ax <= b} in direction d, by LP."""
    res = linprog(-np.asarray(d, dtype=float), A_ub=A, b_ub=b,
                  bounds=(None, None), method="highs")
    if not res.success:
        raise PreconditionViolatedError("support LP failed")
    return float(-res.fun)


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
    outer_ok = True
    ones = np.ones(len(U))
    for i in range(n):
        for sgn in (1.0, -1.0):
            e = np.zeros(n)
            e[i] = sgn
            if _polytope_support(U, ones, e) > r_out + 1e-12:
                outer_ok = False
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
    VK = K.to_vrep().vertices
    ZH = Z.to_hrep()
    AZ, bZ = ZH.halfspaces
    if np.max(_gauge_rows(AZ, bZ, VK)) > 1.0 + 1e-10:
        raise HypothesisFailedError("K is not contained in Z")
    cube_vertices = np.array(list(it.product((-1.0, 1.0), repeat=n)))
    if np.max(_gauge_rows(AZ, bZ, (1.0 - tau) * cube_vertices)) > 1.0 + 1e-10:
        raise HypothesisFailedError("(1 - tau) W^n is not contained in Z")
    KH = K.to_hrep()
    AK, bK = KH.halfspaces
    if np.max(_gauge_rows(AK, bK, (1.0 - 2.0 * tau) * cube_vertices)) <= 1.0 + 1e-10:
        raise HypothesisFailedError("(1 - 2 tau) W^n is contained in K")
    volW = 2.0 ** n
    volZ = hull_volume_area(Z.to_vrep().vertices)[0]
    if volZ > volW * (1.0 + 1e-10):
        raise HypothesisFailedError("V(Z) exceeds V(W^n)")
    volK = hull_volume_area(VK)[0]
    bound = (1.0 - tau ** n / 2.0 ** n) * volW
    return {"vol_K": volK, "bound": bound, "passed": volK <= bound + 1e-10}


def _gauge_rows(A, b, X):
    return np.max((np.atleast_2d(X) @ A.T) / b, axis=1)
