"""Cap estimates for isotropic measures and the Dvoretzky-Rogers construction.

The chain implemented here, for an isotropic measure mu on S^{n-1}:

  * cap mass bound: mu(open cap at v) + mu(open cap at -v) >= 1 - n cos^2(alpha);
  * dense subcap: inside any cap of mass M there is a beta-subcap of mass
    at least M sin^{n-1}(beta)/sqrt(2 pi n);
  * determinant robustness: perturbing the columns of [b_1..b_n] by
    ||s_i|| <= |det| / 4n keeps |det| above half its value;
  * with beta = 2^{-(n+1)} n^{-(n+1)/2}, an induction over mutually
    orthogonal pilot directions produces caps Omega(v_i, beta) of mass
    >= beta^n whose centers satisfy |det[v_1..v_n]| >= 4 n beta
    (so any atoms chosen inside the caps keep |det| >= 2 n beta);
  * each such cap either concentrates mass beta^n/(4n) in an eta-subcap or
    splits into two parts of that mass separated by eta/sqrt(n), decided by
    per-coordinate weight quantiles in a basis of v^perp.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PreconditionViolatedError
from .measures import (AtomicMeasure, cap_atom_mask, cap_mass,
                       require_isotropic, unit_vector)

EPS = 1e-12


def beta_dr(n: int) -> float:
    """Cap radius 2^{-(n+1)} n^{-(n+1)/2} of the Dvoretzky-Rogers construction."""
    return 2.0 ** (-(n + 1)) * float(n) ** (-(n + 1) / 2.0)


def verify_isotropic_cap_bound(mu: AtomicMeasure, v, alpha: float):
    """Open-cap mass bound 1 - n cos^2(alpha); returns (lhs, rhs, pass)."""
    require_isotropic(mu)
    v = unit_vector(v)
    if not (0.0 < alpha < np.pi / 2):
        raise ValueError("alpha must lie in (0, pi/2)")
    lhs = (cap_mass(mu, v, alpha, open_cap=True)
           + cap_mass(mu, -v, alpha, open_cap=True))
    rhs = 1.0 - mu.dim * math.cos(alpha) ** 2
    return lhs, rhs, lhs >= rhs - EPS


def dense_subcap_bound(mu: AtomicMeasure, p, alpha: float, beta: float) -> float:
    """Required subcap mass: mu(Omega(p, alpha)) sin^{n-1}(beta)/sqrt(2 pi n)."""
    big = cap_mass(mu, p, alpha)
    return big * math.sin(beta) ** (mu.dim - 1) / math.sqrt(2.0 * np.pi * mu.dim)


def _subcap_candidates(mu: AtomicMeasure, p, alpha, beta):
    """Centers at which the best beta-subcap of a discrete measure can sit.

    The optimal cap covers some atom set of diameter <= 2 beta; its minimal
    enclosing cap is supported by at most n atoms, so atoms, antipodal-free
    pair bisectors and (n = 3) triple circumcenters exhaust the optima.
    """
    inside = cap_atom_mask(mu, p, alpha)
    atoms = mu.directions[inside]
    cands = [np.asarray(p, dtype=float)] + [a for a in atoms]
    chord = 2.0 * math.sin(beta)
    m = len(atoms)
    for i in range(m):
        for j in range(i + 1, m):
            if np.linalg.norm(atoms[i] - atoms[j]) <= 2.0 * chord:
                mid = atoms[i] + atoms[j]
                nrm = np.linalg.norm(mid)
                if nrm > 1e-12:
                    cands.append(mid / nrm)
    if mu.dim == 3:
        for i, j, k in itertools.combinations(range(m), 3):
            a, b, c = atoms[i], atoms[j], atoms[k]
            if max(np.linalg.norm(a - b), np.linalg.norm(a - c),
                   np.linalg.norm(b - c)) > 2.0 * chord:
                continue
            q = np.cross(a - b, b - c)
            nrm = np.linalg.norm(q)
            if nrm > 1e-12:
                q = q / nrm
                if q @ a < 0:
                    q = -q
                cands.append(q)
    return np.array(cands), atoms


def _local_grid(center, spacing, radius, dim):
    """Geodesic grid of the given spacing in a small cap about center."""
    steps = np.arange(-radius, radius + spacing / 2, spacing)
    basis = _orthonormal_complement(center)
    if dim == 2:
        offs = steps[:, None] * basis[0]
    else:
        offs = np.array([a * basis[0] + b * basis[1]
                         for a in steps for b in steps])
    pts = center + offs
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _orthonormal_complement(v):
    """Rows form an orthonormal basis of v^perp."""
    n = len(v)
    M = np.eye(n) - np.outer(v, v)
    q, r = np.linalg.qr(M)
    cols = [q[:, i] for i in range(n) if abs(r[i, i]) > 1e-8]
    return np.array(cols[: n - 1])


def find_dense_subcap(mu: AtomicMeasure, p, alpha: float, beta: float):
    """Point v in Omega(p, alpha) whose beta-cap carries the guaranteed mass.

    Scores candidate centers built from the atoms inside the cap (plus a
    local geodesic grid of spacing beta/4 around the best candidate as a
    safety net) and returns the first that meets the averaging bound.  An
    empty cap returns p itself; the bound is then vacuous.
    """
    p = unit_vector(p)
    if not (0.0 < beta < alpha < np.pi / 2):
        raise ValueError("need 0 < beta < alpha < pi/2")
    bound = dense_subcap_bound(mu, p, alpha, beta)
    if cap_mass(mu, p, alpha) == 0.0:
        return p
    cands, atoms = _subcap_candidates(mu, p, alpha, beta)
    inside_big = cap_atom_mask(mu, p, alpha)
    w = mu.weights[inside_big]
    A = mu.directions[inside_big]
    cos_b = math.cos(beta)

    def score(c):
        return float(w[(A @ c) >= cos_b - EPS].sum())

    ok = cands[(cands @ p) >= math.cos(alpha) - EPS]
    scores = np.array([score(c) for c in ok])
    best = int(np.argmax(scores))
    if scores[best] >= bound - EPS:
        return unit_vector(ok[best])
    # local refinement; reachable only for adversarial near-ties
    for c in _local_grid(ok[best], beta / 4.0, 2.0 * beta, mu.dim):
        if c @ p >= math.cos(alpha) - EPS and score(c) >= bound - EPS:
            return unit_vector(c)
    raise AssertionError("dense subcap search failed; averaging bound violated")


def perturbed_determinant_bound(b, s):
    """|det[b_i + s_i]| >= |det[b_i]| / 2 when ||s_i|| <= |det| / 4n."""
    B = np.atleast_2d(np.asarray(b, dtype=float))
    S = np.atleast_2d(np.asarray(s, dtype=float))
    n = B.shape[0]
    if B.shape != (n, n) or S.shape != (n, n):
        raise ValueError("need n vectors b_i and n perturbations s_i")
    det_b = abs(float(np.linalg.det(B)))
    cap = det_b / (4.0 * n)
    norms = np.linalg.norm(S, axis=1)
    if np.any(norms > cap + EPS):
        raise PreconditionViolatedError(
            f"perturbation norm {norms.max():.3e} exceeds |det|/4n = {cap:.3e}")
    lhs = abs(float(np.linalg.det(B + S)))
    rhs = det_b / 2.0
    return lhs, rhs, lhs >= rhs - EPS


def dvoretzky_rogers_caps(mu: AtomicMeasure):
    """Cap centers v_1..v_n with mass >= beta^n each and |det[v]| >= 4 n beta.

    Follows the inductive proof: cos(alpha_n) = 1/(2 sqrt n); each pilot
    p_i is chosen orthogonal to the previous centers with the heavier of
    the two antipodal alpha_n-caps, and v_i comes from the dense-subcap
    search inside it.  Returns (V, beta) with centers as rows of V.
    """
    require_isotropic(mu)
    n = mu.dim
    beta = beta_dr(n)
    alpha_n = math.acos(1.0 / (2.0 * math.sqrt(n)))
    centers = []
    for i in range(n):
        if i == 0:
            pilot = np.zeros(n)
            pilot[0] = 1.0
        else:
            pilot = _orthonormal_complement_of_rows(np.array(centers))[0]
        m_plus = cap_mass(mu, pilot, alpha_n)
        m_minus = cap_mass(mu, -pilot, alpha_n)
        p_i = pilot if m_plus >= m_minus else -pilot
        if max(m_plus, m_minus) < 3.0 / 8.0 - 1e-9:
            raise AssertionError("cap mass bound failed for an isotropic measure")
        centers.append(find_dense_subcap(mu, p_i, alpha_n, beta))
    V = np.array(centers)
    for v in V:
        if cap_mass(mu, v, beta) < beta ** n - EPS:
            raise AssertionError("cap mass postcondition failed")
    if abs(float(np.linalg.det(V))) < 4.0 * n * beta - EPS:
        raise AssertionError("determinant postcondition failed")
    return V, beta


def _orthonormal_complement_of_rows(V):
    """Orthonormal basis (rows) of the orthogonal complement of span(rows of V)."""
    n = V.shape[1]
    _, s, vt = np.linalg.svd(V, full_matrices=True)
    rank = int(np.sum(s > 1e-10))
    return vt[rank:]


@dataclass(frozen=True)
class CapDichotomy:
    branch: str                         # "concentrated" | "split"
    q: Optional[np.ndarray] = None      # concentrated subcap center
    psi1: Optional[np.ndarray] = None   # atom indices (into mu.directions)
    psi2: Optional[np.ndarray] = None
    mass_target: float = 0.0


def cap_dichotomy(mu: AtomicMeasure, v, beta: float, eta: float) -> CapDichotomy:
    """Concentration/splitting dichotomy inside the cap Omega(v, beta).

    Either returns q in the cap with mu(cap and Omega(q, eta)) >= beta^n/4n,
    or two atom subsets of the cap with that mass separated by eta/sqrt(n).
    Coordinate thresholds follow the weight quantiles in an orthonormal
    basis of v^perp, processed in decreasing gap order (ties by index).
    """
    require_isotropic(mu)
    v = unit_vector(v)
    n = mu.dim
    if not (0.0 < eta < beta):
        raise PreconditionViolatedError("need 0 < eta < beta")
    target = beta ** n / (4.0 * n)
    inside = np.flatnonzero(cap_atom_mask(mu, v, beta))
    if mu.weights[inside].sum() < beta ** n - EPS:
        raise PreconditionViolatedError("cap carries less than beta^n mass")
    A = mu.directions[inside]
    w = mu.weights[inside]

    heavy = inside[w >= target - EPS]
    if len(heavy):
        q = mu.directions[heavy[np.argmax(mu.weights[heavy])]]
        return _verify_concentrated(mu, v, beta, eta, q, target)

    W = _orthonormal_complement(v)                 # rows span v^perp
    coords = A @ W.T                               # (k, n-1)
    s_arr, t_arr = np.zeros(n - 1), np.zeros(n - 1)
    for j in range(n - 1):
        s_arr[j], t_arr[j] = _weight_quantiles(coords[:, j], w, target)
    order = np.lexsort((np.arange(n - 1), -(t_arr - s_arr)))
    j0 = order[0]
    if t_arr[j0] - s_arr[j0] >= eta / math.sqrt(n):
        psi1 = inside[coords[:, j0] <= s_arr[j0] + EPS]
        psi2 = inside[coords[:, j0] >= t_arr[j0] - EPS]
        return _verify_split(mu, eta, psi1, psi2, target)

    mid = (s_arr + t_arr) / 2.0
    tang = mid @ W
    rad2 = float(tang @ tang)
    q = tang + math.sqrt(max(1.0 - rad2, 0.0)) * v
    q = q / np.linalg.norm(q)
    try:
        return _verify_concentrated(mu, v, beta, eta, q, target)
    except AssertionError:
        # midpoint landed badly; an atom of the central box must work
        box = np.all((coords >= s_arr - EPS) & (coords <= t_arr + EPS), axis=1)
        for idx in inside[box]:
            try:
                return _verify_concentrated(mu, v, beta, eta,
                                            mu.directions[idx], target)
            except AssertionError:
                continue
        raise


def _weight_quantiles(vals, w, m):
    """(s, t): lower/upper value thresholds capturing mass >= m each side."""
    order = np.argsort(vals)
    uvals, inv = np.unique(vals[order], return_inverse=True)
    masses = np.zeros(len(uvals))
    np.add.at(masses, inv, w[order])
    cum = np.cumsum(masses)
    s = uvals[np.searchsorted(cum, m - EPS)]
    cum_rev = np.cumsum(masses[::-1])
    t = uvals[::-1][np.searchsorted(cum_rev, m - EPS)]
    return float(s), float(t)


def _verify_concentrated(mu, v, beta, eta, q, target):
    both = (cap_atom_mask(mu, v, beta) & cap_atom_mask(mu, q, eta))
    got = float(mu.weights[both].sum())
    if got < target - EPS:
        raise AssertionError("concentrated branch mass check failed")
    return CapDichotomy(branch="concentrated", q=np.asarray(q), mass_target=target)


def _verify_split(mu, eta, psi1, psi2, target):
    n = mu.dim
    m1 = float(mu.weights[psi1].sum())
    m2 = float(mu.weights[psi2].sum())
    if min(m1, m2) < target - EPS:
        raise AssertionError("split branch mass check failed")
    A1, A2 = mu.directions[psi1], mu.directions[psi2]
    dmin = np.min(np.linalg.norm(A1[:, None, :] - A2[None, :, :], axis=2))
    if dmin < eta / math.sqrt(n) - EPS:
        raise AssertionError("split branch separation check failed")
    return CapDichotomy(branch="split", psi1=psi1, psi2=psi2, mass_target=target)
