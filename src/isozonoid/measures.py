"""Discrete measures on the unit sphere and the isotropy condition.

A measure is a finite list of atoms (u_i, c_i) with unit directions u_i
and positive weights c_i.  The central notion is isotropy,

    sum_i c_i u_i (x) u_i = Id_n,

which forces total mass n by taking traces.  A cross measure puts weight
1/2 on each of +/-u_1, ..., +/-u_n for an orthonormal basis; it is the
extremal configuration in every inequality verified by this package.

Unit vectors are plain numpy arrays; ``unit_vector`` is the validating
constructor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import nnls

from .errors import DegenerateMeasureError, InfeasibleWeightsError

UNIT_NORM_TOL = 1e-12
MERGE_ANGLE = 1e-9          # atoms closer than this angle are merged
EVEN_WEIGHT_TOL = 1e-12
ISOTROPY_TOL = 1e-9         # default operator-norm tolerance


def unit_vector(x) -> np.ndarray:
    """Return ``x`` normalized to unit length, rejecting near-zero input."""
    v = np.asarray(x, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm < 1e-14:
        raise ValueError("cannot normalize a (near) zero vector")
    v = v / nrm
    v.flags.writeable = False
    return v


def sphere_angle(u, w) -> float:
    """Geodesic angle between unit vectors.

    Chord-based evaluation (2 arcsin of the half-chord) keeps full relative
    precision near 0 and pi, where arccos of the dot product loses ~8 digits.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.dot(u, w) >= 0.0:
        half = 0.5 * np.linalg.norm(u - w)
        return float(2.0 * np.arcsin(min(half, 1.0)))
    half = 0.5 * np.linalg.norm(u + w)
    return float(np.pi - 2.0 * np.arcsin(min(half, 1.0)))


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported Borel measure on S^{n-1}.

    ``directions`` is a (k, n) array of unit vectors, ``weights`` a length-k
    positive array.  When ``even`` is set, every atom (u, c) must be matched
    by (-u, c).  Directions are canonicalized on construction: atoms within
    ``MERGE_ANGLE`` are merged with weights summed.
    """

    dim: int
    directions: np.ndarray
    weights: np.ndarray
    even: bool = False

    def __post_init__(self):
        U = np.atleast_2d(np.asarray(self.directions, dtype=float))
        c = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if U.shape[0] != c.shape[0]:
            raise ValueError("directions/weights length mismatch")
        if self.dim < 2 or U.shape[1] != self.dim:
            raise ValueError(f"directions must be vectors in R^{self.dim}")
        if np.any(c <= 0):
            raise ValueError("weights must be strictly positive")
        nrm = np.linalg.norm(U, axis=1)
        if np.any(np.abs(nrm - 1.0) > UNIT_NORM_TOL):
            raise ValueError("directions must be unit vectors (within 1e-12)")
        U, c = _merge_close_atoms(U, c)
        if self.even:
            _check_evenness(U, c)
        U.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "directions", U)
        object.__setattr__(self, "weights", c)

    @property
    def natoms(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def folded(self):
        """(directions, weights) with antipodal pairs folded, computed once.

        For an even measure: one atom u_j per pair (the lower index) with
        weight 2 c_j, so a sum of terms unchanged under u -> -u is the same
        over the folded atoms as over all of them.  A non-even measure is
        returned as it is.
        """
        if not self.even:
            return self.directions, self.weights
        pair_of = _pair_indices(self.directions)
        reps = sorted(i for i, j in pair_of.items() if i < j)
        U = self.directions[reps]
        c = 2.0 * self.weights[reps]
        U.flags.writeable = False
        c.flags.writeable = False
        return U, c

    @cached_property
    def full_dimensional(self) -> bool:
        """Whether the atoms span R^n (rank tolerance 1e-10), computed once."""
        return bool(np.linalg.matrix_rank(self.directions, tol=1e-10)
                    == self.dim)

    @classmethod
    def symmetrized(cls, directions, weights) -> "AtomicMeasure":
        """Build an even measure from one representative atom per pair.

        Each input atom (u, c) becomes the pair (u, c/2), (-u, c/2), so the
        total mass is preserved.
        """
        U = np.atleast_2d(np.asarray(directions, dtype=float))
        c = np.atleast_1d(np.asarray(weights, dtype=float))
        U2 = np.vstack([U, -U])
        c2 = np.concatenate([c, c]) / 2.0
        return cls(dim=U.shape[1], directions=U2, weights=c2, even=True)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "even": bool(self.even),
            "atoms": [
                {"u": [float(x) for x in u], "c": float(w)}
                for u, w in zip(self.directions, self.weights)
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _merge_close_atoms(U, c):
    keep_U, keep_c = [], []
    for u, w in zip(U, c):
        for i, v in enumerate(keep_U):
            if sphere_angle(u, v) <= MERGE_ANGLE:
                keep_c[i] += w
                break
        else:
            keep_U.append(u.copy())
            keep_c.append(w)
    return np.array(keep_U), np.array(keep_c)


def _check_evenness(U, c):
    try:
        pair_of = _pair_indices(U)
    except InfeasibleWeightsError:
        raise ValueError("even measure misses an antipodal atom") from None
    if any(abs(c[i] - c[j]) > EVEN_WEIGHT_TOL for i, j in pair_of.items()):
        raise ValueError("even measure has unequal antipodal weights")


def measure_from_json(data) -> AtomicMeasure:
    """Read the measure JSON format {dim, even, atoms:[{u, c}, ...]}.

    Directions are normalized before validation.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    atoms = data["atoms"]
    U = np.array([unit_vector(a["u"]) for a in atoms])
    c = np.array([float(a["c"]) for a in atoms])
    return AtomicMeasure(dim=int(data["dim"]), directions=U, weights=c,
                         even=bool(data.get("even", False)))


# ---------------------------------------------------------------------------
# canonical measures


def cross_measure(n: int, frame=None) -> AtomicMeasure:
    """Cross measure: weight 1/2 at +/- each vector of an orthonormal frame."""
    if frame is None:
        frame = np.eye(n)
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (n, n) or np.max(np.abs(frame @ frame.T - np.eye(n))) > 1e-10:
        raise ValueError("frame must be orthonormal")
    return AtomicMeasure.symmetrized(frame, np.ones(n))


def equiangular_measure(m: int) -> AtomicMeasure:
    """2m atoms equally spaced on S^1 with weights 1/m (isotropic, even)."""
    if m < 2:
        raise ValueError("need m >= 2")
    ang = np.arange(2 * m) * np.pi / m
    U = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return AtomicMeasure(dim=2, directions=U, weights=np.full(2 * m, 1.0 / m),
                         even=True)


def hexagonal_measure() -> AtomicMeasure:
    """Six atoms at 60-degree spacing with weights 1/3 (the m=3 case)."""
    return equiangular_measure(3)


# ---------------------------------------------------------------------------
# isotropy


def second_moment_matrix(mu: AtomicMeasure) -> np.ndarray:
    """sum_i c_i u_i (x) u_i  as an (n, n) symmetric matrix."""
    U, c = mu.directions, mu.weights
    return (U.T * c) @ U


@dataclass(frozen=True)
class IsotropyReport:
    deviation: float        # operator norm of (second moment - Id)
    total_mass: float
    is_isotropic: bool
    tolerance: float


def check_isotropy(mu: AtomicMeasure, tol: float = ISOTROPY_TOL) -> IsotropyReport:
    """Measure the operator-norm distance of the second moment from Id_n."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    M = second_moment_matrix(mu)
    dev = float(np.max(np.abs(np.linalg.eigvalsh(M - np.eye(mu.dim)))))
    return IsotropyReport(deviation=dev, total_mass=mu.total_mass,
                          is_isotropic=dev <= tol, tolerance=tol)


def require_isotropic(mu: AtomicMeasure, tol: float = ISOTROPY_TOL):
    from .errors import NotIsotropicError

    rep = check_isotropy(mu, tol)
    if not rep.is_isotropic:
        raise NotIsotropicError(
            f"measure deviates from isotropy by {rep.deviation:.3e} (tol {tol:.1e})")


def _moment_rows(U):
    """Rows of the linear map c -> vech(sum c_i u_i u_i^T)."""
    n = U.shape[1]
    rows, target = [], []
    for a in range(n):
        for b in range(a, n):
            rows.append(U[:, a] * U[:, b])
            target.append(1.0 if a == b else 0.0)
    return np.array(rows), np.array(target)


def solve_isotropic_weights(directions, even: bool = False,
                            residual_tol: float = 1e-10) -> np.ndarray:
    """Nonnegative weights c with sum c_i u_i (x) u_i = Id, or raise.

    Solved as nonnegative least squares over the n(n+1)/2 moment equations.
    With ``even`` set, the direction list must be closed under negation and
    the solution automatically satisfies c(u) = c(-u): antipodal pairs share
    one variable.  Raises InfeasibleWeightsError when the residual exceeds
    ``residual_tol`` (the direction set cannot carry an isotropic measure).
    Weights may come back zero; drop those atoms when building a measure.
    """
    U = np.atleast_2d(np.asarray(directions, dtype=float))
    k, n = U.shape
    if np.linalg.matrix_rank(U, tol=1e-10) < n:
        raise InfeasibleWeightsError("directions do not span R^n")

    if even:
        pair_of = _pair_indices(U)
        reps = sorted(set(min(i, j) for i, j in pair_of.items()))
        Urep = U[reps]
        M, target = _moment_rows(Urep)
        w_pair, res = nnls(M, target)
        w_pair = _polish_nonneg(M, target, w_pair)
        resid = np.linalg.norm(M @ w_pair - target)
        if resid > residual_tol:
            raise InfeasibleWeightsError(f"moment residual {resid:.3e}")
        w = np.zeros(k)
        for idx, rep in enumerate(reps):
            w[rep] = w_pair[idx] / 2.0
            w[pair_of[rep]] = w_pair[idx] / 2.0
        return w

    M, target = _moment_rows(U)
    w, res = nnls(M, target)
    w = _polish_nonneg(M, target, w)
    resid = np.linalg.norm(M @ w - target)
    if resid > residual_tol:
        raise InfeasibleWeightsError(f"moment residual {resid:.3e}")
    return w


def _pair_indices(U):
    """Map each row index to its antipodal partner; raise if unpaired."""
    k = len(U)
    pair = {}
    for i in range(k):
        if i in pair:
            continue
        for j in range(k):
            if j != i and j not in pair and sphere_angle(U[i], -U[j]) <= MERGE_ANGLE:
                pair[i] = j
                pair[j] = i
                break
        else:
            raise InfeasibleWeightsError("even flag set but directions not closed under negation")
    return pair


def _polish_nonneg(M, target, w):
    """Re-solve on the active support by plain least squares for full precision."""
    act = w > 1e-12
    if not np.any(act):
        return w
    sol, *_ = np.linalg.lstsq(M[:, act], target, rcond=None)
    if np.all(sol >= 0):
        out = np.zeros_like(w)
        out[act] = sol
        return out
    return w


def isotropic_measure_from_directions(directions, even: bool = False) -> AtomicMeasure:
    """Solve for weights and build the measure, dropping zero-weight atoms."""
    U = np.atleast_2d(np.asarray(directions, dtype=float))
    w = solve_isotropic_weights(U, even=even)
    keep = w > 1e-12
    if even:
        # keep pairs together so evenness survives the pruning
        pair_of = _pair_indices(U)
        for i in range(len(w)):
            if keep[i] and not keep[pair_of[i]]:
                keep[i] = False
    if np.linalg.matrix_rank(U[keep], tol=1e-10) < U.shape[1]:
        raise DegenerateMeasureError("positive-weight support does not span")
    return AtomicMeasure(dim=U.shape[1], directions=U[keep], weights=w[keep],
                         even=even)


# ---------------------------------------------------------------------------
# spherical caps


@dataclass(frozen=True)
class CapQuery:
    """Spherical cap of angular radius in (0, pi/2] about a unit center."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", unit_vector(self.center))
        if not (0.0 < self.radius <= np.pi / 2 + 1e-15):
            raise ValueError("cap radius must lie in (0, pi/2]")


CAP_BOUNDARY_TOL = 1e-12    # snap tolerance for closed/open membership


def cap_atom_mask(mu: AtomicMeasure, center, radius: float,
                  open_cap: bool = False) -> np.ndarray:
    """Boolean mask of atoms in the (closed or open) cap Omega(center, radius)."""
    center = unit_vector(center)
    dots = mu.directions @ center
    thr = np.cos(radius)
    if open_cap:
        return dots > thr + CAP_BOUNDARY_TOL
    return dots >= thr - CAP_BOUNDARY_TOL


def cap_mass(mu: AtomicMeasure, q: CapQuery, open_cap: bool = False) -> float:
    """Total weight of atoms with <u, center> >= cos(radius) (or > when open)."""
    mask = cap_atom_mask(mu, q.center, q.radius, open_cap=open_cap)
    return float(mu.weights[mask].sum())
