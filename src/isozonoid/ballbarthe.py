"""Determinant estimates for decompositions of the identity.

A decomposition system is a list of vectors v_1, ..., v_k in R^n with
sum_i v_i (x) v_i = Id_n (e.g. v_i = sqrt(c_i) u_i for an isotropic
measure).  For positive t_i the basic inequality is

    det( sum_i t_i v_i (x) v_i ) >= prod_i t_i^{<v_i, v_i>},

and for k >= n+1 it self-improves by the factor

    theta* = 1 + (1/2) sum_{i_1<...<i_n} det[v_{i_1},..,v_{i_n}]^2
                 (sqrt(t_{i_1}...t_{i_n})/t_0 - 1)^2,
    t_0    = sqrt( sum t_{i_1}...t_{i_n} det[...]^2 ),

where t_0^2 equals the left-hand determinant by the Cauchy-Binet identity.
All C(k, n) minors come from one stacked determinant and every subset sum
is an array reduction; this is a desk-scale tool (C(k, n) capped at 1e6).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CombinatorialBudgetError, KTooSmallError

IDENTITY_TOL = 1e-10
SUBSET_BUDGET = 10 ** 6
REL_TOL = 1e-9


@dataclass(frozen=True)
class DecompositionSystem:
    """Vectors v_1..v_k (rows) with sum v_i (x) v_i = Id_n within 1e-10."""

    vectors: np.ndarray

    def __post_init__(self):
        V = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        M = V.T @ V
        dev = np.max(np.abs(M - np.eye(V.shape[1])))
        if dev > IDENTITY_TOL:
            raise ValueError(f"sum v_i v_i^T deviates from Id by {dev:.3e}")
        V.flags.writeable = False
        object.__setattr__(self, "vectors", V)

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @classmethod
    def from_isotropic(cls, directions, weights) -> "DecompositionSystem":
        U = np.atleast_2d(np.asarray(directions, dtype=float))
        c = np.asarray(weights, dtype=float)
        return cls(np.sqrt(c)[:, None] * U)


def _check_t(sys: DecompositionSystem, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.shape != (sys.k,) or np.any(t <= 0):
        raise ValueError("t must be a length-k vector of positive reals")
    if math.comb(sys.k, sys.dim) > SUBSET_BUDGET:
        raise CombinatorialBudgetError(
            f"C({sys.k},{sys.dim}) exceeds the desk-scale budget")
    return t


def subset_expansion(sys: DecompositionSystem, t):
    """Explicit Cauchy-Binet expansion of det(sum t_i v_i v_i^T).

    Returns (det_value, t_0, subset_terms) where subset_terms maps each
    increasing index n-tuple to t_{i_1}..t_{i_n} det[v_{i_1},..,v_{i_n}]^2
    and t_0 = sqrt(sum of terms).  det_value comes from direct elimination;
    the identity det_value = sum(terms) is verified to 1e-9 relative.
    """
    return _cauchy_binet(sys, _check_t(sys, t))[:3]


def _cauchy_binet(sys: DecompositionSystem, t):
    """``subset_expansion`` for a checked t, plus, over the kept subsets S,
    the products t_S and the squared minors as arrays."""
    V = sys.vectors
    M = (V.T * t) @ V
    det_value = float(np.linalg.det(M))
    dets2 = _subset_det_squares(V)
    S = np.array(list(dets2), dtype=np.intp).reshape(-1, sys.dim)
    d2 = np.fromiter(dets2.values(), float, len(dets2))
    tS = np.prod(t[S], axis=1)
    vals = tS * d2
    total = math.fsum(vals)
    if abs(det_value - total) > REL_TOL * max(abs(det_value), abs(total), 1e-300):
        raise AssertionError(
            f"Cauchy-Binet identity violated: {det_value} vs {total}")
    return (det_value, math.sqrt(total), dict(zip(dets2, vals.tolist())),
            tS, d2)


def _subset_det_squares(V):
    """det^2 of every n-row subset, in ``itertools.combinations`` order, from
    one stacked determinant; numerically zero minors are skipped."""
    k, n = V.shape
    scale = np.max(np.abs(V)) + 1e-300
    subsets = list(itertools.combinations(range(k), n))
    d = np.linalg.det(V[np.array(subsets)])
    keep = np.abs(d) > 1e-14 * scale
    return dict(zip(itertools.compress(subsets, keep), (d * d)[keep].tolist()))


def ball_inequality(sys: DecompositionSystem, t):
    """det(sum t_i v_i v_i^T) >= prod t_i^{<v_i,v_i>}; returns (lhs, rhs, pass)."""
    t = _check_t(sys, t)
    V = sys.vectors
    M = (V.T * t) @ V
    lhs = float(np.linalg.det(M))
    norms2 = np.sum(V * V, axis=1)
    rhs = float(np.exp(np.sum(norms2 * np.log(t))))
    return lhs, rhs, lhs >= rhs * (1.0 - REL_TOL)


def theta_star(sys: DecompositionSystem, t):
    """Stability factor theta* >= 1 and the strengthened inequality flag.

    Requires k >= n+1.  Returns (theta*, strengthened_pass) where the pass
    flag asserts det >= theta* prod t_i^{<v_i,v_i>} up to 1e-9 relative.
    """
    t = _check_t(sys, t)
    if sys.k <= sys.dim:
        raise KTooSmallError("theta* needs k >= n+1 vectors")
    det_value, t0, _, tS, d2 = _cauchy_binet(sys, t)
    V = sys.vectors
    theta = 1.0 + 0.5 * math.fsum(d2 * (np.sqrt(tS) / t0 - 1.0) ** 2)
    norms2 = np.sum(V * V, axis=1)
    rhs = float(np.exp(np.sum(norms2 * np.log(t))))
    return theta, det_value >= theta * rhs * (1.0 - REL_TOL)


def xab_gap(a, b, x):
    """(xa-1)^2 + (xb-1)^2 >= (a^2-b^2)^2 / (2 (a^2+b^2)^2) for a, b, x > 0."""
    a, b, x = float(a), float(b), float(x)
    if min(a, b, x) <= 0:
        raise ValueError("a, b, x must be positive")
    lhs = (x * a - 1.0) ** 2 + (x * b - 1.0) ** 2
    rhs = (a * a - b * b) ** 2 / (2.0 * (a * a + b * b) ** 2)
    return lhs, rhs, lhs >= rhs - 1e-15


def vector_estimate(directions, weights, thetas):
    """For z = sum c_i theta_i u_i under isotropy: ||z||^2 <= sum c_i theta_i^2."""
    from .errors import NotIsotropicError

    U = np.atleast_2d(np.asarray(directions, dtype=float))
    c = np.asarray(weights, dtype=float)
    th = np.asarray(thetas, dtype=float)
    M = (U.T * c) @ U
    if np.max(np.abs(M - np.eye(U.shape[1]))) > IDENTITY_TOL:
        raise NotIsotropicError("weights do not decompose the identity")
    z = (c * th) @ U
    lhs = float(z @ z)
    rhs = float(np.sum(c * th * th))
    return lhs, rhs, lhs <= rhs + 1e-12


def random_decomposition_system(n: int, nframes: int, rng) -> DecompositionSystem:
    """Random exact decomposition with k = n * nframes vectors.

    Convex mixture of Haar-random orthonormal frames: each frame scaled by
    the square root of a Dirichlet coefficient sums to a multiple of the
    identity, and the mixture restores Id_n exactly.  A frame is the Q of a
    Gaussian matrix with the signs of R's diagonal moved into it, the draw
    of scipy's ``ortho_group.rvs``.
    """
    if nframes < 2:
        raise ValueError("need at least two frames for k >= n+1")
    coeffs = rng.dirichlet(np.ones(nframes))
    rows = []
    for f in range(nframes):
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        rows.append(math.sqrt(coeffs[f]) * (q * np.sign(np.diag(r))))
    return DecompositionSystem(np.vstack(rows))
