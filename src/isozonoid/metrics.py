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
one-sided max-min deviations.  The orbit searches score a stack of frames
with ``_hausdorff_to_cross_batch``: one chord and one arcsin per atom-axis
pair, to the nearer of +-r, the farther read as pi minus it, bit for bit
the value of ``hausdorff_spherical`` on the cross.  A set closed under exact
negation, the support of an even measure, is scored on one atom per
antipodal pair, with the same bits.

Orbit searches.  In n = 2 both orbit distances are exact: each objective is
piecewise linear in the frame angle, so its minimum sits at a kink and all
kink candidates are evaluated in one batched call.  In
n = 3 one multistart Nelder-Mead runs from 61 quasi-uniform rotation
vectors.  n = 3 values are upper bounds (local searches), not certified
global minima.

Body distances (Banach-Mazur, volume difference) are certified upper
bounds obtained by multistart local searches over GL(n), each value scored
exactly at a map normalized to |det| = 1; global optimality over GL(n) is
out of desk scope and never claimed.

delta_BM, a minimax, is searched in its smooth epigraph form by scipy's
SLSQP, one body at a time: minimize t subject to K <= XM <= tK, one
inequality per vertex of one body and facet of the other, one vertex per
antipodal pair when the facets are closed under exact negation.  The value
is lambda recomputed from vertex gauges at the returned map.

The volume difference needs the volume of {x : Ax <= b} for every trial map.
With the origin inside, that polytope is the polar of the hull of the dual
points a_i / b_i, so its volume is computed from them alone by the
polar-dual kernel of ``bodies``: in closed form in n = 2 (an exact sum over
the arcs where each facet is active, no Qhull call) and from one hull of the
dual points in n = 3.  The volume is smooth where the facet structure of the
intersection is fixed, and its exact gradient comes from the same arcs or
hull: each facet's area times the normal velocity of its centroid
(Lasserre).  Its search runs BFGS from each start, one body at a time, in
n = 2 and n = 3 alike: ``_bfgs`` takes scipy's BFGS steps bit for bit,
with scipy's own line search, but without ``minimize``'s per-step
wrappers.  Its certificate records the iterations (``nit``), the starts
whose gradient met gtol (``converged``) and the gradient at the returned
point (``grad_norm``).

The n = 3 orbit searches run on ``_lockstep_nelder_mead``: the starts
advance in lockstep, each taking exactly the steps of scipy's Nelder-Mead,
with every pending simplex point of every running start evaluated in one
batched objective call.  Only the running starts are tested and stepped.
Certificates record the winning start (``best_start``), the objective
evaluations of all starts (``nfev``) and the objective calls
(``batches``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.optimize._optimize import _LineSearchError, _line_search_wolfe12

from .bodies import (BodyRep, _interior_point, _polar_moments,
                     hull_volume_area)
from .errors import (DimensionUnsupportedError, EmptySetError,
                     HypothesisFailedError, MassMismatchError,
                     UnboundedBodyError)
from .measures import AtomicMeasure, cross_measure, sphere_angle

MASS_TOL = 1e-9
EPS = 1e-12
BFGS_GTOL = 1e-10           # the delta_vol search stops at max |gradient| <= this


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
    X = mu.directions
    dual, frame, cert = _orbit_search(
        n, lambda R: _cross_transport_dual(U, w, R),
        lambda: np.unique(np.concatenate(
            [np.arctan2(X[:, 1], X[:, 0]) % (np.pi / 2), [0.0]])))
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


# (c_b, c_w) of the second trial point c_b xbar + c_w x_w of a Nelder-Mead
# step: expansion, outside contraction, inside contraction
_NM_SECOND_POINT = np.array([[3.0, -2.0], [1.5, -0.5], [0.5, 0.5]])


def _lockstep_nelder_mead(objective, x0, xatol, fatol, maxiter):
    """Nelder-Mead from every row of ``x0`` (S, N), all starts in lockstep.

    ``objective(W)`` maps a stack of points W (B, N) to B values.  It
    serves the n = 3 orbit searches (``_orbit_minimize_3d``).  Every start
    takes exactly the steps of scipy's ``minimize(method="Nelder-Mead")``
    with adaptive=False and the given ``xatol``, ``fatol`` and ``maxiter``:
    the same initial simplex, the same reflect/expand/contract/shrink order
    and the same stopping rule.  A start leaves the lockstep when it
    converges; each step sends the pending points of all running starts to
    ``objective`` in one call.  Returns per-start (values (S,), best
    vertices (S, N), evaluation counts (S,)), as scipy's ``fun``, ``x`` and
    ``nfev``, and the number of ``objective`` calls.

    Only the running starts are tested and stepped: their simplices are
    held compactly and written back to the per-start results when a start
    leaves.  A step evaluates the reflection x_r = 2 xbar - x_w of every
    running start; the starts that do not accept it take one second point
    c_b xbar + c_w x_w, the expansion (3, -2), the outside contraction
    (1.5, -0.5) or the inside contraction (0.5, 0.5), which are scipy's
    (1 + rho chi, -rho chi), (1 + psi rho, -psi rho) and (1 - psi, psi) at
    rho = 1, chi = 2, psi = 1/2, bit for bit.
    """
    sigma, nonzdelt, zdelt = 0.5, 0.05, 0.00025
    x0 = np.asarray(x0, dtype=float)
    S, N = x0.shape
    batches = 0

    def f(W):
        nonlocal batches
        batches += 1
        return np.asarray(objective(W), dtype=float)

    def order(s, fs, rows):
        ind = np.argsort(fs, axis=1)
        return s[rows, ind], fs[rows, ind]

    sim = np.repeat(x0[:, None, :], N + 1, axis=1)
    k = np.arange(N)
    y = sim[:, k + 1, k]
    sim[:, k + 1, k] = np.where(y != 0, (1 + nonzdelt) * y, zdelt)
    fsim = f(sim.reshape(-1, N)).reshape(S, N + 1)
    rows = np.arange(S)[:, None]
    sim, fsim = order(*order(sim, fsim, rows), rows)
    nfev = np.full(S, N + 1)
    run, s, fs, ne = rows[:, 0], sim, fsim, nfev.copy()     # the running starts
    for _ in range(1, maxiter):
        # scipy's test max_j |f_0 - f_j| <= fatol is f_N - f_0 <= fatol on
        # the sorted values (rounding is monotone), and it fails on most steps
        done = fs[:, -1] - fs[:, 0] <= fatol
        if done.any():
            done &= np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= xatol
            if done.any():
                out, keep = run[done], ~done
                sim[out], fsim[out], nfev[out] = s[done], fs[done], ne[done]
                run, s, fs, ne = run[keep], s[keep], fs[keep], ne[keep]
                if len(run) == 0:
                    break
                rows = rows[:len(run)]
        xbar = np.add.reduce(s[:, :-1], 1) / N
        worst = s[:, -1]
        xnew = 2.0 * xbar - worst                   # the reflections x_r
        fnew = f(xnew)
        ne += 1
        expand = fnew < fs[:, 0]
        i = np.flatnonzero(~(fnew < fs[:, -2]) | expand)  # x_r not accepted
        shrink = ()
        if len(i):
            e, fr, fw = expand[i], fnew[i], fs[i, -1]
            kind = np.where(e, 0, 2 - (fr < fw))    # expand, outside, inside
            c = _NM_SECOND_POINT[kind]
            x2 = c[:, :1] * xbar[i] + c[:, 1:] * worst[i]
            f2 = f(x2)
            ne[i] += 1
            take = np.choose(kind, (f2 < fr, f2 <= fr, f2 < fw))
            xnew[i[take]], fnew[i[take]] = x2[take], f2[take]
            shrink = i[~(take | e)]                 # contraction refused
        if len(shrink):                 # shrink towards x_0, old x_w included
            v = s[shrink]
            v[:, 1:] = v[:, :1] + sigma * (v[:, 1:] - v[:, :1])
        s[:, -1], fs[:, -1] = xnew, fnew
        if len(shrink):
            s[shrink] = v
            fs[shrink, 1:] = f(v[:, 1:].reshape(-1, N)).reshape(-1, N)
            ne[shrink] += N
        s, fs = order(s, fs, rows)
    sim[run], fsim[run], nfev[run] = s, fs, ne
    return fsim[:, 0], sim[:, 0], nfev, batches


def _orbit_search(n, score, kinks):
    """(value, frame, certificate) of the least ``score``, which maps frames
    (B, n, n) to B values.  n = 2: the frames at the angles ``kinks()`` in
    one call, the first on ties; n = 3: ``_orbit_minimize_3d``."""
    if n == 2:
        phis = kinks()
        frames = _frames_2d(phis)
        vals = score(frames)
        b = int(np.argmin(vals))
        cert = {"method": "kink-enumeration", "candidates": len(phis)}
        return float(vals[b]), frames[b], cert
    if n == 3:
        return _orbit_minimize_3d(score)
    raise DimensionUnsupportedError("orbit search implemented for n in {2, 3}")


def _orbit_minimize_3d(objective):
    """Multistart Nelder-Mead over rotation vectors (xatol 1e-9, fatol
    1e-12, maxiter 400), run by ``_lockstep_nelder_mead``.

    ``objective`` maps a stack of rotation matrices (B, 3, 3) to B values.
    The best start wins, the lowest index on ties.
    """
    fun, x, nfev, batches = _lockstep_nelder_mead(
        lambda W: objective(_rotvec_matrix(W)),
        np.array(_orbit_start_points()), 1e-9, 1e-12, 400)
    best = int(np.argmin(fun))
    cert = {"method": "multistart-nelder-mead", "starts": len(fun),
            "best_start": best, "nfev": int(nfev.sum()), "batches": batches}
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


def _hausdorff_to_cross_batch(X, R, closed=False) -> np.ndarray:
    """delta_H(X, {+-rows of R_b}) for every frame of a stack R (B, n, n).

    ``angle_matrix``'s chord-stable formula with one chord per atom-axis
    pair: x - r where <x, r> >= 0 and x + r (= x - (-r) exactly) otherwise,
    the chord to the nearer of +-r.  Its squares are summed coordinate by
    coordinate in ``np.linalg.norm``'s order, so a = 2 arcsin(|chord| / 2)
    is ``angle_matrix``'s near angle bit for bit, and the far point of the
    pair is read as pi - a, as ``angle_matrix`` does.  At an exact right
    angle, <x, r> == 0, ``angle_matrix`` takes the near formula for both
    +-r, so there alone the far chord x + r is formed.  Each value equals
    ``hausdorff_spherical(X, np.vstack([R_b, -R_b]))`` bit for bit.  The
    arrays are laid out (atom, axis, frame), so the min and max over atoms
    and axes run across contiguous frames.

    ``closed=True`` scores the set X u -X from one row per antipodal pair
    (``_antipodal_half``).  The chords of -x are exact negations of those
    of x, so -x has x's distance to the cross and adds to +r_j exactly
    what x adds to -r_j: both cross points of an axis then take
    min(plus, minus) over the half, and the value is bit for bit that of
    the full set.
    """
    dots = (X @ R.transpose(0, 2, 1)).transpose(1, 2, 0)     # (k, n, B)
    pos = dots >= 0.0
    sign = np.where(pos, 1.0, -1.0)
    sq = np.zeros(dots.shape)
    t = np.empty(dots.shape)
    for m, Rm in enumerate(R.transpose(2, 1, 0)):            # Rm[j, b] = R[b, j, m]
        np.multiply(sign, Rm, out=t)
        np.subtract(X[:, m, None, None], t, out=t)
        t *= t
        sq += t
    a = np.sqrt(sq, out=sq)
    a /= 2.0
    np.arcsin(np.minimum(a, 1.0, out=a), out=a)
    a *= 2.0                                                 # angle to the nearer of +-r
    far = np.pi - a
    if not dots.all():
        i, j, b = np.nonzero(dots == 0.0)
        chord = np.linalg.norm(X[i] + R[b, j], axis=1)
        far[i, j, b] = 2.0 * np.arcsin(np.minimum(chord / 2.0, 1.0))
    atoms = np.minimum(a, far).min(axis=1).max(axis=0)
    plus = np.where(pos, a, far).min(axis=0)                 # per point +r_j
    minus = np.where(pos, far, a).min(axis=0)                # per point -r_j
    cross = np.minimum(plus, minus) if closed else np.maximum(plus, minus)
    return np.maximum(atoms, cross.max(axis=0))


def _antipodal_half(X):
    """One row per antipodal pair of X, or None when X is not closed under
    exact negation.  Values are compared, so +-0.0 match; a set that is
    even only within ``MERGE_ANGLE`` is not closed.  The row kept from
    each pair is the lexicographically larger of x and -x."""
    rows = [tuple(x) for x in X.tolist()]
    neg = [tuple(-v for v in x) for x in rows]
    if not set(neg) <= set(rows):
        return None
    return X[[x >= m for x, m in zip(rows, neg)]]


def hausdorff_to_cross(X):
    """delta_HO(X, supp nu_n): orbit-minimized Hausdorff distance.

    n = 2: exact.  With the frame at angle phi the objective is piecewise
    linear in phi with slopes +-1, every piece of the form
    +-(phi - theta_i) + j pi/2 for a point angle theta_i, and pi/2-periodic;
    so every local minimum is a crossing of a falling and a rising piece,
    at phi = (theta_i + theta_j)/2 + k pi/4 (mod pi/2).  All such kink
    candidates, taken from the full X, are evaluated in batches and the
    best is returned.  n = 3: the lockstep multistart Nelder-Mead of
    ``_orbit_minimize_3d`` (an upper bound).

    When X is closed under exact negation (the support of an even measure)
    the frames are scored on one row per antipodal pair, with
    ``_hausdorff_to_cross_batch(..., closed=True)``, bit for bit the value
    on the full X; any other X is scored as it is.  The certificate's
    ``atoms`` is the number of rows scored.  Returns (value, frame,
    certificate).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if len(X) == 0:
        raise EmptySetError("empty support")
    half = _antipodal_half(X)
    closed = half is not None
    H = half if closed else X
    step = max(1, 2 ** 20 // (8 * len(H)))          # bounds the batch arrays

    def score(R):
        return np.concatenate([_hausdorff_to_cross_batch(H, R[k:k + step],
                                                         closed)
                               for k in range(0, len(R), step)])

    def kinks():
        t = np.unique(np.arctan2(X[:, 1], X[:, 0]) % (np.pi / 2))
        i, j = np.triu_indices(len(t))
        mid = (t[i] + t[j]) / 2.0
        return np.unique(np.concatenate([mid, mid + np.pi / 4]) % (np.pi / 2))

    value, frame, cert = _orbit_search(X.shape[1], score, kinks)
    cert["atoms"] = len(H)
    return value, frame, cert


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


def _fold(V, F):
    """One row of V per antipodal pair when the rows F are closed under
    exact negation (-v then repeats the constraints <f, v> of v), else V."""
    half = None if _antipodal_half(F) is None else _antipodal_half(V)
    return V if half is None else half


def _bm_epigraph(K, M):
    """(gauges, constraint) of the delta_BM(K, M) search.

    ``gauges(X)`` = (max_v gauge_{XM}(v), max_w gauge_K(Xw)) over the
    vertices v of K and w of M.  ``constraint`` is scipy's inequality
    constraint K <= XM <= tK at z = (X row-major, t), each facet (a, b)
    read as f = a / b: 1 - <f_j, X^-1 v> >= 0 per vertex v of K and facet
    f_j of M, with gradient (X^-T f_j)(X^-1 v)^T in X, and t - <f_i, Xw>
    >= 0 per vertex w of M and facet f_i of K, linear, its Jacobian built
    once.  Vertices are folded by ``_fold``.
    """
    VK, (AK, bK) = K.to_vrep().vertices, K.to_hrep().halfspaces
    VM, (AM, bM) = M.to_vrep().vertices, M.to_hrep().halfspaces
    n = K.dim
    FK, FM = AK / bK[:, None], AM / bM[:, None]
    HK, HM = _fold(VK, FM), _fold(VM, FK)
    J_out = np.hstack([-(HM[:, None, None, :] * FK[None, :, :, None]).reshape(
        -1, n * n), np.ones((len(HM) * len(FK), 1))])
    t_col = np.zeros((len(HK) * len(FM), 1))

    def gauges(X):
        return (np.max(((VK @ np.linalg.inv(X).T) @ AM.T) / bM),
                np.max(((VM @ X.T) @ AK.T) / bK))

    def fun(z):
        X = z[:-1].reshape(n, n)
        inner = 1.0 - (HK @ np.linalg.inv(X).T) @ FM.T
        outer = z[-1] - (HM @ X.T) @ FK.T
        return np.concatenate([inner.ravel(), outer.ravel()])

    def jac(z):
        X_inv = np.linalg.inv(z[:-1].reshape(n, n))
        Y, Z = HK @ X_inv.T, FM @ X_inv           # rows X^-1 v and X^-T f_j
        J_in = (Z[None, :, :, None] * Y[:, None, None, :]).reshape(-1, n * n)
        return np.vstack([np.hstack([J_in, t_col]), J_out])

    return gauges, {"type": "ineq", "fun": fun, "jac": jac}


def banach_mazur(K: BodyRep, M: BodyRep, restarts: int = 24, seed: int = 0):
    """Upper bound on delta_BM(K, M) = log min { lam : K <= Phi M <= lam K }.

    For a map Phi the optimal lam is computed exactly from vertex gauges:
    lam(Phi) = max_v gauge_{Phi M}(v) * max_w gauge_K(Phi w) over vertices
    v of K and w of M.  The search minimizes t over (X, t) subject to
    K <= XM <= tK, the smooth epigraph form of this minimax, by scipy's
    SLSQP (Kraft 1988; ftol 1e-14, maxiter 200) with the exact constraint
    Jacobians of ``_bm_epigraph``.  It runs from each of ``restarts``
    starts of ``_body_starts`` (scale 0.3), begun feasible: the start map
    scaled to hold K, and t its lam.  Each start scores the smaller lam of
    its start map and its returned map, normalized to |det| = 1 (inf below
    |det| 1e-9), so SLSQP's tolerances never reach the value and it is
    never above lam(I); the best start wins, the lowest index on ties.

    The certificate records ``method`` ("slsqp-epigraph"), ``restarts``,
    ``lambda``, ``best_start``, the evaluations ``nfev`` and iterations
    ``nit`` of all starts, ``converged`` (the starts whose SLSQP run
    succeeded), ``map`` (the winning normalized map) and
    ``upper_bound_only``.  Returns (value, certificate).
    """
    n = K.dim
    if n not in (2, 3):
        raise DimensionUnsupportedError("banach_mazur implemented for n in {2, 3}")
    gauges, constraint = _bm_epigraph(K, M)
    e_t = np.eye(n * n + 1)[-1]

    def lam(x):
        # (lam, map) at the map x normalized to |det| = 1; inf below 1e-9
        Phi, ok = _normalized_frames(x, n)
        if not ok[0]:
            return math.inf, None
        return math.prod(gauges(Phi[0])), Phi[0]

    best, runs = [], []
    for x0 in _body_starts(n, restarts, 0.3, seed):
        inner, outer = gauges(x0.reshape(n, n))    # start with XM holding K
        run = minimize(lambda z: z[-1], np.append(inner * x0, inner * outer),
                       jac=lambda z: e_t, method="SLSQP",
                       constraints=constraint,
                       options={"ftol": 1e-14, "maxiter": 200})
        runs.append(run)
        best.append(min(lam(x0), lam(run.x[:-1]), key=lambda r: r[0]))
    s = int(np.argmin([value for value, _ in best]))
    value, Phi = best[s]
    return math.log(max(value, 1.0)), {
        "method": "slsqp-epigraph", "restarts": restarts,
        "lambda": float(value), "best_start": s,
        "nfev": sum(int(run.nfev) for run in runs),
        "nit": sum(int(run.nit) for run in runs),
        "converged": sum(bool(run.success) for run in runs),
        "map": Phi.tolist(), "upper_bound_only": True}


def _intersection_moments(A, b):
    """(V, a, M) of {x : Ax <= b} for one system A (m, n), n in {2, 3},
    b (m,): its volume, and per row i the area a_i of its facet on
    <a_i, x> = b_i and that facet's first moment M_i = a_i c_i
    (``bodies._polar_moments``); all 0 when the system has no interior
    point.  With every b_i > 1e-12 the origin is inside and the moments
    are those of the dual points a_i / b_i; any other system is scored
    about its Chebyshev centre z (``_interior_point``) and its moments are
    shifted back by a_i z."""
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"offsets of shape {b.shape} for {m} halfspaces")
    if n not in (2, 3):
        raise DimensionUnsupportedError("intersection volume for n in {2, 3}")
    if (b > 1e-12).all():
        return _polar_moments(A / b[:, None])
    try:
        z = _interior_point(A, b)
    except UnboundedBodyError:                  # empty or flat
        return 0.0, np.zeros(m), np.zeros(A.shape)
    V, a, M = _polar_moments(A / (b - A @ z)[:, None])
    return V, a, M + a[:, None] * z


def _sym_diff(AK, b, AM):
    """The delta_vol objective of one body in n in {2, 3}, with its exact
    gradient.

    At X (a row of n^2) it is 2 - 2 V with V the volume of
    P = Phi alpha K cap beta M, Phi = X / r, r = |det X|^(1/n): the rows
    ``AK`` Phi^-1 and ``AM`` with offsets ``b``.  Each call reads the value
    and the facet moments from one polar-dual kernel call
    (``_intersection_moments``: closed form in n = 2, one hull in n = 3).
    Only the facets of Phi alpha K move, a point x of them with velocity
    dPhi Phi^-1 x, so dV/dPhi = G = sum_i a_i n_i (Phi^-1 c_i)^T over K's
    rows (Lasserre, JOTA 1983), and through the normalization
    dV/dX = (G - tr(Phi^T G) Phi^-T / n) / r.  A singular X (|det| < 1e-9)
    and an empty intersection score 2 with a zero gradient.
    """
    k, n = AK.shape

    def sym_diff(x):
        X = x.reshape(n, n)
        det = abs(np.linalg.det(X))
        if det < 1e-9:
            return 2.0, np.zeros(n * n)
        r = det ** (1.0 / n)
        Phi_inv = np.linalg.inv(X / r)
        AKp = AK @ Phi_inv
        V, _, M = _intersection_moments(np.vstack([AKp, AM]), b)
        # the bits of np.linalg.norm(AKp, axis=1) without its wrapper
        normals = AKp / np.sqrt(np.add.reduce(AKp * AKp, axis=1))[:, None]
        G = normals.T @ M[:k] @ Phi_inv.T
        dV = (G - (X * G).sum() / r * Phi_inv.T / n) / r
        return max(2.0 - 2.0 * V, 0.0), -2.0 * dV.ravel()

    return sym_diff


def _bfgs(objective, x0):
    """scipy's BFGS on an objective that returns (value, gradient), step for
    step and bit for bit: ``minimize(objective, x0, jac=True,
    method="BFGS", options={"gtol": BFGS_GTOL})`` without its wrappers.

    It takes scipy's line search (``_line_search_wolfe12``), its
    inverse-Hessian update and its first ``old_old_fval``, and its stops:
    max |g| <= BFGS_GTOL, a zero step (xrtol 0), 200 N iterations, and a failed
    line search ("precision loss").  One (x, value, gradient) memo stands
    for scipy's ``ScalarFunction`` and ``MemoizeJac``: the objective runs
    once per new point, and ``nfev`` counts as scipy counts it, one per
    point whose value is asked for.  Returns (value, x, gradient, nfev,
    iterations).
    """
    xk = np.asarray(x0, dtype=float).flatten()
    N = len(xk)
    memo = None                 # [x, value, gradient, value counted]
    nfev = 0

    def point(x):
        nonlocal memo
        if memo is None or not np.array_equal(x, memo[0]):
            memo = [x.copy(), *objective(x), False]
        return memo

    def fun(x):
        nonlocal nfev
        m = point(x)
        if not m[3]:
            nfev, m[3] = nfev + 1, True
        return m[1]

    def grad(x):
        return point(x)[2]

    old_fval, gfk = fun(xk), grad(xk)
    I = np.eye(N)
    Hk = I
    old_old_fval = old_fval + np.linalg.norm(gfk) / 2    # a first step ~ 1
    k, gnorm = 0, np.amax(np.abs(gfk))
    while gnorm > BFGS_GTOL and k < 200 * N:
        pk = -np.dot(Hk, gfk)
        try:
            alpha_k, _, _, old_fval, old_old_fval, gfkp1 = _line_search_wolfe12(
                fun, grad, xk, pk, gfk, old_fval, old_old_fval, amin=1e-100,
                amax=1e100, c1=1e-4, c2=0.9)
        except _LineSearchError:
            break
        sk = alpha_k * pk
        xk = xk + sk
        if gfkp1 is None:
            gfkp1 = grad(xk)
        yk = gfkp1 - gfk
        gfk = gfkp1
        k += 1
        gnorm = np.amax(np.abs(gfk))
        if (gnorm <= BFGS_GTOL or alpha_k * np.linalg.norm(pk) <= 0.0
                or not np.isfinite(old_fval)):
            break
        rhok_inv = np.dot(yk, sk)
        rhok = 1000.0 if rhok_inv == 0.0 else 1.0 / rhok_inv
        A1 = I - sk[:, np.newaxis] * yk[np.newaxis, :] * rhok
        A2 = I - yk[:, np.newaxis] * sk[np.newaxis, :] * rhok
        Hk = np.dot(A1, np.dot(Hk, A2)) + (rhok * sk[:, np.newaxis] *
                                           sk[np.newaxis, :])
    return old_fval, xk, gfk, nfev, k


def _bfgs_volume_search(objective, n, restarts, seed):
    """``_bfgs`` from each of ``_body_starts`` (scale 0.25).
    Returns (value, certificate) of the best start, the lowest index on
    ties."""
    funs, _, jacs, nfevs, nits = zip(*(
        _bfgs(objective, x0) for x0 in _body_starts(n, restarts, 0.25, seed)))
    best = int(np.argmin(funs))
    grad_norms = [float(np.max(np.abs(jac))) for jac in jacs]
    return float(funs[best]), {
        "method": "bfgs-exact-gradient", "restarts": restarts,
        "best_start": best, "nfev": sum(nfevs), "nit": sum(nits),
        "converged": sum(g <= BFGS_GTOL for g in grad_norms),
        "grad_norm": grad_norms[best], "upper_bound_only": True}


def volume_distance(K: BodyRep, M: BodyRep, restarts: int = 12, seed: int = 0):
    """Upper bound on delta_vol(K, M): min over SL(n) of the symmetric
    difference volume of the volume-normalized bodies, n in {2, 3}.

    For polytope inputs the symmetric difference is computed exactly from
    the intersection volume (V(sym diff) = 2 - 2 V(intersection) after
    normalizing both bodies to volume 1).  That volume is the polar-dual
    volume of the dual points a_i / b_i of both bodies' facets: a
    closed-form arc sum in n = 2, one Qhull hull in n = 3.  The search,
    ``_bfgs_volume_search``, runs BFGS on the exact gradient of the
    intersection volume, read from the same arcs or hull (``_sym_diff``),
    from ``restarts`` starts (the identity, then random perturbations of
    it).  The certificate records ``method`` ("bfgs-exact-gradient"),
    ``restarts``, ``best_start``, the evaluations ``nfev`` and iterations
    ``nit`` of all starts, ``converged``, the starts whose gradient met
    gtol (1e-10), ``grad_norm``, the largest gradient entry at the returned
    point, and ``upper_bound_only``.  The returned point is not a global
    minimum, and need not be stationary: BFGS may stop on a kink, where the
    facet structure of the intersection changes (the hexagon's minimum in
    n = 2 is one); each start not counted in ``converged`` stopped on a
    failed line search there, and its ``grad_norm`` is no measure of
    stationarity.  Returns (value, certificate).
    """
    n = K.dim
    if n not in (2, 3):
        raise DimensionUnsupportedError("volume_distance implemented for n in {2, 3}")
    AK, bK = K.to_hrep().halfspaces
    AM, bM = M.to_hrep().halfspaces
    alpha = hull_volume_area(K.to_vrep().vertices)[0] ** (-1.0 / n)
    beta = hull_volume_area(M.to_vrep().vertices)[0] ** (-1.0 / n)
    objective = _sym_diff(AK, np.concatenate([bK * alpha, bM * beta]), AM)
    return _bfgs_volume_search(objective, n, restarts, seed)
