"""Distances between sphere measures, point sets, and convex bodies.

Transport distance: for equal-mass atomic measures the Kantorovich LP with
geodesic-angle cost is solved exactly; by duality its value equals the
Lipschitz-1 supremum form.  Orbit-minimized variants (distance to the
nearest rotated cross measure) exploit that the support of a cross measure
is invariant under sign flips of frame vectors, so the O(n) orbit equals
the SO(n) orbit: rotations suffice.

delta_WO is defined here for even measures only (the paper's setting; any
other raises ``HypothesisFailedError``).  For an even measure the transport
to a rotated cross is transport between lines, from the folded atoms
(weight 2 c_i per antipodal pair) to the n frame lines.  Its dual is a
concave piecewise-linear function of n - 1 potentials, maximised exactly
at the vertices of its tie-line arrangement, so every trial frame of the
orbit search costs one batched array evaluation, no LP.  One Kantorovich LP
at the winning frame certifies the value: it is the number reported, and
a dual/LP gap above 1e-12 raises.

Hausdorff distance on the sphere is the standard symmetric max of the two
one-sided max-min deviations.

Orbit searches.  In n = 2 both orbit distances are exact: each objective is
piecewise linear in the frame angle, so its minimum sits at a kink and all
kink candidates are evaluated in one batched call.  In
n = 3 one multistart Nelder-Mead runs from 61 quasi-uniform rotation
vectors.  n = 3 values are upper bounds (local searches), not certified
global minima.

Body distances (Banach-Mazur, volume difference) are certified upper
bounds obtained by multistart Nelder-Mead over a normalized GL(n) family;
global optimality over GL(n) is out of desk scope and never claimed.  The
volume difference needs the volume of {x : Ax <= b} for every trial map.
With the origin inside, that polytope is the polar of the hull of the dual
points a_i / b_i, so its volume is computed from them alone by the
polar-dual kernel of ``bodies``: in closed form in n = 2 (an exact sum over
the arcs where each facet is active, no Qhull call) and from one hull of the
dual points in n = 3.

Every multistart search here runs on ``_lockstep_nelder_mead``: the starts
advance in lockstep, each taking exactly the steps of scipy's Nelder-Mead,
with every pending simplex point of every running start evaluated in one
batched objective call.  Certificates record the winning start
(``best_start``) and the objective evaluations of all starts (``nfev``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .bodies import (BodyRep, _interior_point, _polar_areas, _polar_volumes,
                     hull_volume_area)
from .errors import (DimensionUnsupportedError, EmptySetError,
                     HypothesisFailedError, MassMismatchError,
                     UnboundedBodyError)
from .measures import AtomicMeasure, cross_measure, sphere_angle

MASS_TOL = 1e-9
EPS = 1e-12


def angle_matrix(U, W) -> np.ndarray:
    """Pairwise geodesic angles, chord-stable near 0 and pi."""
    U = np.atleast_2d(U)
    W = np.atleast_2d(W)
    diff = np.linalg.norm(U[:, None, :] - W[None, :, :], axis=2)
    summ = np.linalg.norm(U[:, None, :] + W[None, :, :], axis=2)
    near = 2.0 * np.arcsin(np.minimum(diff / 2.0, 1.0))
    far = np.pi - 2.0 * np.arcsin(np.minimum(summ / 2.0, 1.0))
    dots = U @ W.T
    return np.where(dots >= 0.0, near, far)


# ---------------------------------------------------------------------------
# Wasserstein


@dataclass(frozen=True)
class TransportPlan:
    source_idx: np.ndarray
    target_idx: np.ndarray
    flows: np.ndarray
    cost: float

    def check_marginals(self, c, d, tol=1e-10) -> bool:
        k, l = len(c), len(d)
        out = np.zeros(k)
        np.add.at(out, self.source_idx, self.flows)
        inn = np.zeros(l)
        np.add.at(inn, self.target_idx, self.flows)
        return bool(np.max(np.abs(out - c)) <= tol
                    and np.max(np.abs(inn - d)) <= tol)


def wasserstein(mu: AtomicMeasure, nu: AtomicMeasure):
    """Exact min-cost transport with cost(u, w) = angle(u, w).

    Requires equal total mass (within 1e-9).  Returns (value, plan).
    """
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    c, d = mu.weights, nu.weights
    if abs(c.sum() - d.sum()) > MASS_TOL:
        raise MassMismatchError(f"masses {c.sum()} vs {d.sum()}")
    C = angle_matrix(mu.directions, nu.directions)
    k, l = C.shape
    A_eq = np.zeros((k + l, k * l))
    for i in range(k):
        A_eq[i, i * l:(i + 1) * l] = 1.0
    for j in range(l):
        A_eq[k + j, j::l] = 1.0
    b_eq = np.concatenate([c, d])
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise MassMismatchError(f"transport LP failed: {res.message}")
    x = res.x.reshape(k, l)
    ii, jj = np.nonzero(x > 1e-14)
    plan = TransportPlan(source_idx=ii, target_idx=jj, flows=x[ii, jj],
                         cost=float(res.fun))
    return float(res.fun), plan


def _frames_2d(phis) -> np.ndarray:
    """Frames (B, 2, 2) whose rows lie at the angles phi and phi + pi/2."""
    c, s = np.cos(phis), np.sin(phis)
    return np.stack([np.stack([c, s], 1), np.stack([-s, c], 1)], 1)


def rotated_cross_measure(n, R) -> AtomicMeasure:
    """Cross measure on the frame given by the rows of R (R orthogonal)."""
    return cross_measure(n, frame=np.asarray(R, dtype=float))


def _cross_transport_dual(U, w, R) -> np.ndarray:
    """Transport cost from the folded atoms (U (k, n), weights w) to the
    cross measure on every frame of a stack R (B, n, n), n in {2, 3}.

    For an even measure the transport to a cross is transport between
    lines: mass w_i on the line of u_i, mass 1 on the line of each frame
    row r_j, cost C_ij = 2 arcsin(min(|u_i - r_j|, |u_i + r_j|) / 2).  Its
    dual with g_1 = 0 maximises D(g) = sum_j g_j + sum_i w_i min_j (C_ij -
    g_j), a concave piecewise-linear function whose maximum sits at a
    vertex of the arrangement of tie lines: the points g_2 = C_i2 - C_i1 in
    n = 2, and in n = 3 the 3k^2 crossings of the lines g_2 = C_i2 - C_i1,
    g_3 = C_i3 - C_i1 and g_3 - g_2 = C_i3 - C_i2.  D is evaluated at every
    vertex and the maximum, the exact cost, is returned for each frame.
    """
    k, n = U.shape
    per_frame = (k if n == 2 else 3 * k * k) * k    # candidates x atoms
    step = max(1, 2 ** 20 // per_frame)             # bounds the batch arrays
    return np.concatenate([_cross_dual_chunk(U, w, R[s:s + step])
                           for s in range(0, len(R), step)])


def _cross_dual_chunk(U, w, R):
    diff = np.linalg.norm(U[None, :, None, :] - R[:, None, :, :], axis=3)
    summ = np.linalg.norm(U[None, :, None, :] + R[:, None, :, :], axis=3)
    C = 2.0 * np.arcsin(np.minimum(diff, summ) / 2.0)        # (B, k, n)
    A = C[:, :, 1:] - C[:, :, :1]                  # ties with line 1, (B, k, n-1)
    a = A[:, :, 0]
    if C.shape[2] == 2:
        G = [a]                                    # the k candidates g_2
    else:
        b = A[:, :, 1]
        d = b - a                                  # ties of lines 2 and 3
        B, k = a.shape
        first = lambda x: np.repeat(x, k, axis=1)  # x_m of the pair (m, l)
        second = lambda x: np.broadcast_to(x[:, None, :], (B, k, k)).reshape(B, -1)
        # crossings g2 = a_m with g3 = b_l and with g3 - g2 = d_l, and
        # g3 = b_m with g3 - g2 = d_l: candidates (G[0], G[1]), (B, 3k^2)
        G = [np.concatenate([first(a), first(a), first(b) - second(d)], axis=1),
             np.concatenate([second(b), first(a) + second(d), first(b)], axis=1)]
    slack = 0.0                                    # min_j (C_ij - g_j) - C_i1
    for j, g in enumerate(G):
        slack = np.minimum(slack, A[:, None, :, j] - g[:, :, None])
    return C[:, :, 0] @ w + np.max(sum(G) + slack @ w, axis=1)


def wasserstein_to_cross(mu: AtomicMeasure):
    """delta_WO(mu, nu_n): minimum transport cost to a rotated cross measure.

    Only even measures are accepted (the paper's setting); any other raises
    ``HypothesisFailedError``.  Frames are scored by the exact folded
    transport dual of ``_cross_transport_dual``, no LP per frame.
    n = 2: every cost d(theta_i, phi + j pi/2) has its kinks at
    phi = theta_i mod pi/2, so between consecutive kinks the transport cost
    is a minimum of linear functions of the rotation angle phi, hence
    concave, and the exact minimum sits at a kink; the kinks (atom angles
    mod pi/2, and 0) are scored in one call.  n = 3: the lockstep multistart
    Nelder-Mead of ``_orbit_minimize_3d`` on the dual (an upper bound).
    At the winning frame one ``wasserstein`` LP certifies the value: it is
    the number returned, and a dual/LP gap above 1e-12 raises.  The
    certificate records ``dual_value``, ``lp_value`` and ``lp_solves``.
    Returns (value, rotation_matrix, certificate).
    """
    n = mu.dim
    if abs(mu.total_mass - n) > 1e-6:
        raise MassMismatchError("delta_WO needs total mass n")
    if not mu.even:
        raise HypothesisFailedError(
            'delta_WO needs an even measure; mark it with "even": true in '
            'the measure JSON')
    U, w = mu.folded
    if n == 2:
        thetas = np.arctan2(mu.directions[:, 1], mu.directions[:, 0])
        cands = np.unique(np.concatenate([thetas % (np.pi / 2), [0.0]]))
        frames = _frames_2d(cands)
        vals = _cross_transport_dual(U, w, frames)
        b = int(np.argmin(vals))
        dual, frame = float(vals[b]), frames[b]
        cert = {"method": "kink-enumeration", "candidates": len(cands)}
    elif n == 3:
        dual, frame, cert = _orbit_minimize_3d(
            lambda Rs: _cross_transport_dual(U, w, Rs))
    else:
        raise ValueError("orbit search implemented for n in {2, 3}")
    value, _ = wasserstein(mu, rotated_cross_measure(n, frame))
    if abs(value - dual) > 1e-12:
        raise AssertionError(f"transport dual {dual!r} and LP {value!r} "
                             f"disagree at the winning frame")
    cert.update(dual_value=dual, lp_value=value, lp_solves=1)
    return value, frame, cert


def _rotvec_matrix(w):
    from scipy.spatial.transform import Rotation

    return Rotation.from_rotvec(w).as_matrix()


def _orbit_start_points():
    """The zero vector and 60 quasi-uniform rotation vectors: 20
    Fibonacci axes x 3 angles."""
    starts = [np.zeros(3)]
    golden = np.pi * (3.0 - math.sqrt(5.0))
    for i in range(20):
        z = 1.0 - (2.0 * i + 1.0) / 20.0
        r = math.sqrt(max(1.0 - z * z, 0.0))
        th = golden * i
        axis = np.array([r * math.cos(th), r * math.sin(th), z])
        for ang in (np.pi / 4, np.pi / 2, 3 * np.pi / 4):
            starts.append(axis * ang)
    return starts


def _lockstep_nelder_mead(objective, x0, xatol, fatol, maxiter):
    """Nelder-Mead from every row of ``x0`` (S, N), all starts in lockstep.

    ``objective`` maps a stack of points (B, N) to B values.  Every start
    takes exactly the steps of scipy's ``minimize(method="Nelder-Mead")``
    with adaptive=False and the given ``xatol``, ``fatol`` and ``maxiter``:
    the same initial simplex, the same reflect/expand/contract/shrink order
    and the same stopping rule.  A start leaves the lockstep when it
    converges; each step sends the pending points of all running starts to
    ``objective`` in one call.  Returns per-start (values (S,), best
    vertices (S, N), evaluation counts (S,)), as scipy's ``fun``, ``x`` and
    ``nfev``.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    x0 = np.asarray(x0, dtype=float)
    S, N = x0.shape
    nfev = np.zeros(S, dtype=int)

    def f(W, idx, per=1):
        nfev[idx] += per
        if len(W) == 0:
            return np.empty(0)
        return np.asarray(objective(W), dtype=float)

    def order(sim, fsim):
        ind = np.argsort(fsim, axis=1)
        rows = np.arange(len(ind))[:, None]
        return sim[rows, ind], fsim[rows, ind]

    sim = np.repeat(x0[:, None, :], N + 1, axis=1)
    k = np.arange(N)
    y = sim[:, k + 1, k]
    sim[:, k + 1, k] = np.where(y != 0, (1 + nonzdelt) * y, zdelt)
    fsim = f(sim.reshape(-1, N), slice(None), N + 1).reshape(S, N + 1)
    sim, fsim = order(*order(sim, fsim))
    running = np.ones(S, dtype=bool)
    for _ in range(1, maxiter):
        running &= ~((np.max(np.abs(sim[:, 1:] - sim[:, :1]), axis=(1, 2))
                      <= xatol)
                     & (np.max(np.abs(fsim[:, :1] - fsim[:, 1:]), axis=1)
                        <= fatol))
        a = np.flatnonzero(running)
        if len(a) == 0:
            break
        s, fs = sim[a], fsim[a]
        xbar = np.add.reduce(s[:, :-1], 1) / N
        worst = s[:, -1]
        xr = (1 + rho) * xbar - rho * worst
        fxr = f(xr, a)
        expand = fxr < fs[:, 0]
        accept = ~expand & (fxr < fs[:, -2])
        contract = ~expand & ~accept
        outside = contract & (fxr < fs[:, -1])
        x2 = np.where(expand[:, None],
                      (1 + rho * chi) * xbar - rho * chi * worst,
                      np.where(outside[:, None],
                               (1 + psi * rho) * xbar - psi * rho * worst,
                               (1 - psi) * xbar + psi * worst))
        f2 = np.full(len(a), np.nan)
        f2[~accept] = f(x2[~accept], a[~accept])
        take2 = ((expand & (f2 < fxr)) | (outside & (f2 <= fxr))
                 | (contract & ~outside & (f2 < fs[:, -1])))
        shrink = contract & ~take2
        take_r = (expand | accept) & ~take2
        s[take_r, -1], fs[take_r, -1] = xr[take_r], fxr[take_r]
        s[take2, -1], fs[take2, -1] = x2[take2], f2[take2]
        shr, fshr = s[shrink], fs[shrink]
        shr[:, 1:] = shr[:, :1] + sigma * (shr[:, 1:] - shr[:, :1])
        fshr[:, 1:] = f(shr[:, 1:].reshape(-1, N), a[shrink], N).reshape(-1, N)
        s[shrink], fs[shrink] = shr, fshr
        sim[a], fsim[a] = order(s, fs)
    return fsim[:, 0], sim[:, 0], nfev


def _orbit_minimize_3d(objective):
    """Multistart Nelder-Mead over rotation vectors (xatol 1e-9, fatol
    1e-12, maxiter 400), run by ``_lockstep_nelder_mead``.

    ``objective`` maps a stack of rotation matrices (B, 3, 3) to B values.
    The best start wins, the lowest index on ties.
    """
    fun, x, nfev = _lockstep_nelder_mead(
        lambda W: objective(_rotvec_matrix(W)),
        np.array(_orbit_start_points()), 1e-9, 1e-12, 400)
    best = int(np.argmin(fun))
    cert = {"method": "multistart-nelder-mead", "starts": len(fun),
            "best_start": best, "nfev": int(nfev.sum())}
    return float(fun[best]), _rotvec_matrix(x[best]), cert


# ---------------------------------------------------------------------------
# spherical Hausdorff


def hausdorff_spherical(X, Y) -> float:
    """Hausdorff distance between finite subsets of the sphere: the larger
    of the two one-sided max-min deviations."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if len(X) == 0 or len(Y) == 0:
        raise EmptySetError("hausdorff distance of an empty set")
    D = angle_matrix(X, Y)
    one = float(np.max(np.min(D, axis=1)))
    two = float(np.max(np.min(D, axis=0)))
    return max(one, two)


def _hausdorff_to_cross_batch(X, R) -> np.ndarray:
    """delta_H(X, {+-rows of R_b}) for every frame of a stack R (B, n, n).

    ``angle_matrix``'s chord-stable formula, broadcast over the batch; the
    -R half reuses the +R chords (x - (-r) = x + r exactly), so each value
    equals ``hausdorff_spherical(X, np.vstack([R_b, -R_b]))`` bit for bit.
    """
    diff = np.linalg.norm(X[None, :, None, :] - R[:, None, :, :], axis=3)
    summ = np.linalg.norm(X[None, :, None, :] + R[:, None, :, :], axis=3)
    near = 2.0 * np.arcsin(np.minimum(diff / 2.0, 1.0))
    far = 2.0 * np.arcsin(np.minimum(summ / 2.0, 1.0))
    dots = X @ R.transpose(0, 2, 1)
    D = np.concatenate([np.where(dots >= 0.0, near, np.pi - far),
                        np.where(dots <= 0.0, far, np.pi - near)], axis=2)
    return np.maximum(D.min(axis=2).max(axis=1), D.min(axis=1).max(axis=1))


def hausdorff_to_cross(X):
    """delta_HO(X, supp nu_n): orbit-minimized Hausdorff distance.

    n = 2: exact.  With the frame at angle phi the objective is piecewise
    linear in phi with slopes +-1, every piece of the form
    +-(phi - theta_i) + j pi/2 for a point angle theta_i, and pi/2-periodic;
    so every local minimum is a crossing of a falling and a rising piece,
    at phi = (theta_i + theta_j)/2 + k pi/4 (mod pi/2).  All such kink
    candidates are evaluated in batches and the best is returned.
    n = 3: the lockstep multistart Nelder-Mead of ``_orbit_minimize_3d``
    (an upper bound).  Returns (value, frame, certificate).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if len(X) == 0:
        raise EmptySetError("empty support")
    n = X.shape[1]
    if n == 2:
        t = np.unique(np.arctan2(X[:, 1], X[:, 0]) % (np.pi / 2))
        i, j = np.triu_indices(len(t))
        mid = (t[i] + t[j]) / 2.0
        phis = np.unique(np.concatenate([mid, mid + np.pi / 4]) % (np.pi / 2))
        frames = _frames_2d(phis)
        step = max(1, 2 ** 20 // (8 * len(X)))      # bounds the batch arrays
        vals = np.concatenate([_hausdorff_to_cross_batch(X, frames[k:k + step])
                               for k in range(0, len(frames), step)])
        b = int(np.argmin(vals))
        cert = {"method": "kink-enumeration", "candidates": len(phis)}
        return float(vals[b]), frames[b], cert
    if n == 3:
        return _orbit_minimize_3d(lambda R: _hausdorff_to_cross_batch(X, R))
    raise ValueError("orbit search implemented for n in {2, 3}")


def wasserstein_hausdorff_bound(mu: AtomicMeasure, nu: AtomicMeasure,
                                omega: float = None):
    """Check delta_W(mu, nu) <= 2n delta_H(supp mu, supp nu) for a cross nu.

    With an explicit cap-complement mass ``omega`` the general bound
    2n delta + 2 pi n^2 omega is asserted instead (delta then only needs to
    cover the caps carrying mass 1 - omega).  Returns a result dict.
    """
    from .measures import require_isotropic

    require_isotropic(mu, 1e-8)
    n = mu.dim
    dH = hausdorff_spherical(mu.directions, nu.directions)
    if omega is None:
        if dH >= np.pi / 4:
            raise HypothesisFailedError("needs delta_H < pi/4")
        bound = 2.0 * n * dH
    else:
        bound = 2.0 * n * dH + 2.0 * np.pi * n * n * omega
    dW, _ = wasserstein(mu, nu)
    return {"delta_W": dW, "delta_H": dH, "bound": bound,
            "passed": dW <= bound + 1e-9}


# ---------------------------------------------------------------------------
# deep holes and cross-frame fitting


def _affine_foot(P):
    """Nearest point to the origin in the affine hull of the rows of P."""
    base = P[0]
    if len(P) == 1:
        return base.copy()
    D = P[1:] - base
    a, *_ = np.linalg.lstsq(D.T, -base, rcond=None)
    return base + D.T @ a


def deep_hole(U, t: float):
    """Point far from all +-u_i when two of them are non-orthogonal.

    Hypotheses: t in (0, 1/(2 * 4^{n-2} sqrt((n-1)!))) and some pair with
    |<u_i, u_j>| >= sin t.  The returned u satisfies
    |<u_i, u>| <= 1/sqrt(n) - t/(4 n^{3/2}) for every i (verified).
    """
    U = np.atleast_2d(np.asarray(U, dtype=float)).copy()
    n = U.shape[1]
    if U.shape[0] != n:
        raise ValueError("need exactly n unit vectors")
    tmax = 1.0 / (2.0 * 4.0 ** (n - 2) * math.sqrt(math.factorial(n - 1)))
    if not (0.0 < t < tmax):
        raise ValueError(f"t must lie in (0, {tmax})")
    G = np.abs(U @ U.T) - np.eye(n) * 10.0
    i, j = np.unravel_index(int(np.argmax(G)), G.shape)
    if abs(U[i] @ U[j]) < math.sin(t) - EPS:
        raise HypothesisFailedError("all pairs nearly orthogonal; no deep hole forced")
    order = [i, j] + [r for r in range(n) if r not in (i, j)]
    V = U[order]
    w = V[0]
    for m in range(1, n):
        if V[m] @ w > 0:
            V[m] = -V[m]
        foot = _affine_foot(V[: m + 1])
        nrm = np.linalg.norm(foot)
        if nrm < 1e-13:
            # origin inside the affine hull: the points are dependent and a
            # common orthogonal direction exists, which is even deeper
            w = np.linalg.svd(V[: m + 1])[2][-1]
        else:
            w = foot / nrm
    bound = 1.0 / math.sqrt(n) - t / (4.0 * n ** 1.5)
    if np.max(np.abs(U @ w)) > bound + 1e-9:
        raise AssertionError("deep hole bound failed after construction")
    return w


@dataclass(frozen=True)
class CrossFit:
    frame: np.ndarray               # orthonormal rows v_i
    angular_errors: np.ndarray      # angle(v_i, u_i)
    certified_bound: float          # 4^{n-2} sqrt((n-1)!) t
    hausdorff: float                # delta_H({+-v_i}, {+-u_i})


def fit_cross_frame(U, t: float) -> CrossFit:
    """Orthonormalize nearly orthogonal unit vectors with certified errors.

    Hypothesis: |<u_i, u_j>| <= sin t for all i < j.  Gram-Schmidt with the
    sign convention <v_i, u_i> >= 0 gives angle(v_i, u_i) bounded by
    4^{i-2} sqrt((i-1)!) t for i >= 2, hence a cross measure within
    Hausdorff distance 4^{n-2} sqrt((n-1)!) t of {+-u_i}.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    n = U.shape[1]
    if U.shape[0] != n:
        raise ValueError("need exactly n unit vectors")
    G = np.abs(U @ U.T) - np.eye(n)
    if np.max(G) > math.sin(t) + EPS:
        raise HypothesisFailedError("some pair exceeds the sin(t) overlap bound")
    V = np.zeros_like(U)
    for i in range(n):
        r = U[i] - V[:i].T @ (V[:i] @ U[i])
        nrm = np.linalg.norm(r)
        if nrm < 1e-13:
            raise HypothesisFailedError("degenerate input frame")
        V[i] = r / nrm
    errs = np.array([sphere_angle(V[i], U[i]) for i in range(n)])
    for i in range(1, n):
        bnd = 4.0 ** (i - 1) * math.sqrt(math.factorial(i)) * t
        if errs[i] > bnd + 1e-9:
            raise AssertionError(f"per-step angle bound failed at i={i + 1}")
    cert = 4.0 ** (n - 2) * math.sqrt(math.factorial(n - 1)) * t
    dH = hausdorff_spherical(np.vstack([V, -V]), np.vstack([U, -U]))
    if dH > cert + 1e-9:
        raise AssertionError("hausdorff certificate failed")
    return CrossFit(frame=V, angular_errors=errs, certified_bound=cert,
                    hausdorff=dH)


# ---------------------------------------------------------------------------
# body distances (certified upper bounds)


def _both_reps(body: BodyRep):
    v = body.to_vrep() if body.kind != "V" else body
    h = body.to_hrep() if body.kind != "H" else body
    return v.vertices, h.halfspaces


def _body_starts(n, restarts, scale, seed):
    """The identity, then restarts - 1 random perturbations of it, as rows."""
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    rng = np.random.default_rng(seed)
    starts = [np.eye(n)] + [np.eye(n) + scale * rng.normal(size=(n, n))
                            for _ in range(1, restarts)]
    return np.array(starts).reshape(restarts, n * n)


def _normalized_frames(X, n):
    """Rows of X as n x n matrices scaled to |det| = 1, with a mask of
    the rows kept (|det| >= 1e-9)."""
    mats = X.reshape(-1, n, n)
    det = np.linalg.det(mats)
    ok = np.abs(det) >= 1e-9
    return mats[ok] / (np.abs(det[ok]) ** (1.0 / n))[:, None, None], ok


def banach_mazur(K: BodyRep, M: BodyRep, restarts: int = 24, seed: int = 0):
    """Upper bound on delta_BM(K, M) = log min { lam : K <= Phi M <= lam K }.

    For a trial Phi the optimal lam is computed exactly from vertex gauges:
    lam(Phi) = max_w gauge_{Phi M}(w) * max_v gauge_K(Phi v) over vertices
    w of K and v of M.  Phi ranges over matrices normalized to |det| = 1;
    ``restarts`` Nelder-Mead starts (the identity, then random
    perturbations of it) run in lockstep through ``_lockstep_nelder_mead``
    (xatol 1e-10, fatol 1e-12, maxiter 2000), with lam evaluated for every
    pending Phi of every start in one batch.  Returns (value, certificate).
    """
    n = K.dim
    if n not in (2, 3):
        raise DimensionUnsupportedError("banach_mazur implemented for n in {2, 3}")
    VK, (AK, bK) = _both_reps(K)
    VM, (AM, bM) = _both_reps(M)

    def lam(X):
        Phi, ok = _normalized_frames(X, n)
        Phi_inv = np.linalg.inv(Phi)
        inner = np.max(((VK @ Phi_inv.transpose(0, 2, 1)) @ AM.T) / bM,
                       axis=(1, 2))
        outer = np.max(((VM @ Phi.transpose(0, 2, 1)) @ AK.T) / bK,
                       axis=(1, 2))
        out = np.full(len(ok), np.inf)
        out[ok] = inner * outer
        return out

    fun, _, nfev = _lockstep_nelder_mead(
        lam, _body_starts(n, restarts, 0.3, seed), 1e-10, 1e-12, 2000)
    best = int(np.argmin(fun))
    value = math.log(max(fun[best], 1.0))
    cert = {"restarts": restarts, "lambda": float(fun[best]),
            "upper_bound_only": True, "best_start": best,
            "nfev": int(nfev.sum())}
    return value, cert


def _intersection_volumes(A, b):
    """Volumes of the polytopes {x : A_k x <= b} for a stack A (B, m, n),
    n in {2, 3}, and one offset vector b (m,); 0 where one has no interior.

    With the origin inside, {x : Ax <= b} is the polar of conv{a_i / b_i},
    so each volume follows from the dual points through the polar-dual
    kernel of ``bodies`` (shared with the support sandwich and H -> V):
    ``_polar_areas`` (closed form, no Qhull) or ``_polar_volumes`` (one
    hull).  The origin is the
    centre when every b_i > 1e-12; otherwise each system is shifted to its
    Chebyshev centre (``_interior_point``), and one without an interior
    point (empty or flat) has volume 0.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    B, m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"offsets of shape {b.shape} for {m} halfspaces")
    if n not in (2, 3):
        raise DimensionUnsupportedError("intersection volume for n in {2, 3}")
    out = np.zeros(B)
    if np.all(b > 1e-12):
        keep, offsets = np.arange(B), b
    else:
        keep, offsets = [], []
        for k in range(B):
            try:
                centre = _interior_point(A[k], b)
            except UnboundedBodyError:          # empty or flat
                continue
            keep.append(k)
            offsets.append(b - A[k] @ centre)
        keep, offsets = np.array(keep, dtype=int), np.array(offsets)
    if len(keep) == 0:
        return out
    P = A[keep] / offsets[..., None]
    out[keep] = _polar_areas(P) if n == 2 else _polar_volumes(P)
    return out


def _intersection_volume(A, b):
    """Volume of the polytope {x : Ax <= b}, 0 when it has no interior."""
    return float(_intersection_volumes(np.asarray(A, dtype=float)[None], b)[0])


def volume_distance(K: BodyRep, M: BodyRep, restarts: int = 12, seed: int = 0):
    """Upper bound on delta_vol(K, M): min over SL(n) of the symmetric
    difference volume of the volume-normalized bodies.

    For polytope inputs the symmetric difference is computed exactly from
    the intersection volume (V(sym diff) = 2 - 2 V(intersection) after
    normalizing both bodies to volume 1).  That volume is the polar-dual
    volume of ``_intersection_volumes``: the intersection is the polar of
    the hull of the dual points a_i / b_i of both bodies' facets, so the
    polar-dual kernel of ``bodies`` gives it as a closed-form arc sum in
    n = 2 and one Qhull hull in n = 3, for every pending trial map of every
    start in one call.  ``restarts`` Nelder-Mead
    starts (the identity, then random perturbations of it) run in lockstep
    through ``_lockstep_nelder_mead`` (xatol 1e-9, fatol 1e-12, maxiter
    1500).  Returns (value, certificate).
    """
    n = K.dim
    VK, (AK, bK) = _both_reps(K)
    VM, (AM, bM) = _both_reps(M)
    alpha = hull_volume_area(VK)[0] ** (-1.0 / n)
    beta = hull_volume_area(VM)[0] ** (-1.0 / n)
    b = np.concatenate([bK * alpha, bM * beta])     # alpha K and beta M

    def sym_diff(X):
        Phi, ok = _normalized_frames(X, n)
        AKp = AK @ np.linalg.inv(Phi)
        A = np.concatenate(
            [AKp, np.broadcast_to(AM, (len(AKp),) + AM.shape)], axis=1)
        out = np.full(len(ok), 2.0)
        out[ok] = np.maximum(2.0 - 2.0 * _intersection_volumes(A, b), 0.0)
        return out

    fun, _, nfev = _lockstep_nelder_mead(
        sym_diff, _body_starts(n, restarts, 0.25, seed), 1e-9, 1e-12, 1500)
    best = int(np.argmin(fun))
    cert = {"restarts": restarts, "method": "polar-dual-exact",
            "upper_bound_only": True, "best_start": best,
            "nfev": int(nfev.sum())}
    return float(fun[best]), cert
