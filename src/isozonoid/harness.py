"""End-to-end verification suites tying measures, bodies, and metrics together.

Each suite runs one family of inputs through a volume or distance
inequality and emits one StabilityReport per input.  The asymptotic
constants of the underlying stability theorems (factors of the shape
n^{-c n^3} with unspecified absolute c) are not falsifiable numerically,
so the suites check inequality directions, strict monotonicity along
one-parameter families, and the explicit two-dimensional constants
(0.25 eps and 0.1 eps for the circle, the /54 and /18 planar chain),
which are fully quantitative.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import (ANGLE_GRID_2D, ICOSPHERE_SUBDIV, BodyRep, cube_body,
                     polygon_area, sphere_grid)
from .errors import HypothesisFailedError, InfeasibleWeightsError
from .john import (contact_measure, cube_isoperimetric_ratio, cube_sandwich_check,
                   isoperimetric_ratio, john_ellipsoid)
from .measures import (AtomicMeasure, check_isotropy, equiangular_measure,
                       isotropic_measure_from_directions)
from .metrics import (banach_mazur, hausdorff_spherical, hausdorff_to_cross,
                      volume_distance, wasserstein_to_cross)
from .zonoids import reference_volume, zonoid_volumes

DEFAULT_SEED = 0x5EED
EQUALITY_TOL = 1e-6     # delta_WO below which Theorem B equality is legitimate
EPS_TOL = 1e-6          # delta_WO above which zpstab asks a positive deficit


@dataclass(frozen=True)
class StabilityReport:
    suite: str
    label: str
    n: int
    p: object                  # float, inf, or None for body suites
    epsilon: float             # distance used by the suite
    deficit: float             # volume (or ratio) gap
    bound: float               # the quantitative bound that was checked
    passed: bool
    tolerances: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))

    def to_dict(self) -> dict:
        d = {"suite": self.suite, "label": self.label, "n": self.n,
             "p": self.p, "epsilon": self.epsilon, "deficit": self.deficit,
             "bound": self.bound, "passed": self.passed,
             "tolerances": self.tolerances}
        d.update(self.extra)
        return {k: _json_safe(v) for k, v in d.items()}


def _json_safe(v):
    """Strict-JSON values: dicts and sequences are converted item by item,
    numpy scalars and arrays become Python ones and non-finite floats
    become strings."""
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, (np.bool_, np.integer, np.floating)):
        v = v.item()
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
    return v


REPORT_CSV_FIELDS = ["suite", "label", "n", "p", "epsilon", "deficit",
                     "bound", "passed"]


# ---------------------------------------------------------------------------
# measure families


def tilted_pair_measure(n: int, alpha: float) -> AtomicMeasure:
    """Cross with the first pair split into two pairs tilted by +-alpha.

    Isotropy is restored by re-solving the weights; alpha = 0 collapses
    back to the cross measure.  Needs alpha < pi/4.
    """
    if not (0.0 <= alpha < np.pi / 4):
        raise ValueError("tilt must lie in [0, pi/4)")
    e = np.eye(n)
    u_plus = math.cos(alpha) * e[0] + math.sin(alpha) * e[1]
    u_minus = math.cos(alpha) * e[0] - math.sin(alpha) * e[1]
    dirs = [u_plus, -u_plus, u_minus, -u_minus]
    for i in range(1, n):
        dirs += [e[i], -e[i]]
    return isotropic_measure_from_directions(np.array(dirs), even=True)


def random_even_isotropic(n: int, npairs: int, rng) -> AtomicMeasure:
    """Random even isotropic measure: sampled directions, solved weights,
    in at most 200 draws."""
    for _ in range(200):
        U = rng.standard_normal((npairs, n))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        dirs = np.vstack([U, -U])
        try:
            mu = isotropic_measure_from_directions(dirs, even=True)
        except InfeasibleWeightsError:
            continue
        if check_isotropy(mu, 1e-9).is_isotropic:
            return mu
    raise InfeasibleWeightsError(
        f"no isotropic weights found in 200 tries (n={n}, k={npairs})")


def split_cluster_measure(n: int = 2, ntilts: int = 6) -> AtomicMeasure:
    """Even isotropic measure whose e_1-cap splits into two light clusters.

    Mixes a rotated hexagonal measure (atoms far from +-e_1) with ``ntilts``
    slightly tilted cross variants carrying total weight lam = 4.8e-3.
    Inside the Dvoretzky-Rogers cap at e_1 this leaves 2*ntilts atoms, each
    of mass lam/(4 ntilts) -- individually below the concentration threshold
    beta^2/8 -- grouped in two clusters separated by about 0.45 beta.
    Exercises the splitting branch of the cap dichotomy (n = 2 only).
    """
    if n != 2:
        raise ValueError("split-cluster construction implemented on S^1")
    from .caps import beta_dr

    beta = beta_dr(2)
    lam = 4.8e-3
    rot = np.array([[math.cos(np.pi / 6), -math.sin(np.pi / 6)],
                    [math.sin(np.pi / 6), math.cos(np.pi / 6)]])
    hex_dirs = equiangular_measure(3).directions @ rot.T
    dirs = [hex_dirs]
    weights = [np.full(6, (1.0 - lam) / 3.0)]
    for j in range(ntilts):
        delta = beta * (0.225 + 0.55 * j / max(ntilts - 1, 1))
        tilt = tilted_pair_measure(2, delta)
        dirs.append(tilt.directions)
        weights.append(tilt.weights * lam / ntilts)
    mu = AtomicMeasure(2, np.vstack(dirs), np.concatenate(weights), even=True)
    rep = check_isotropy(mu, 1e-9)
    if not rep.is_isotropic:
        raise AssertionError(f"split-cluster mixture not isotropic "
                             f"({rep.deviation:.2e})")
    return mu


def perturbation_family(kind: str, n: int, params, seed: int = DEFAULT_SEED):
    """Sequences of even isotropic test measures.

    kinds: TILTED_PAIR (params: tilt angles), EQUIANGULAR (params: m values,
    n = 2 only), RANDOM_ISOTROPIC (params: (count, npairs)), SPLIT_CLUSTER
    (params: deltas).  Every emitted measure passes isotropy at 1e-9.
    """
    kind = kind.upper()
    out = []
    if kind == "TILTED_PAIR":
        out = [tilted_pair_measure(n, a) for a in params]
    elif kind == "EQUIANGULAR":
        if n != 2:
            raise ValueError("equiangular family lives on S^1")
        out = [equiangular_measure(int(m)) for m in params]
    elif kind == "RANDOM_ISOTROPIC":
        count, npairs = params
        rng = np.random.default_rng(seed)
        out = [random_even_isotropic(n, npairs, rng) for _ in range(count)]
    elif kind == "SPLIT_CLUSTER":
        out = [split_cluster_measure(n, ntilts=int(m)) for m in params]
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    for mu in out:
        rep = check_isotropy(mu, 1e-9)
        if not rep.is_isotropic:
            raise AssertionError(f"family emitted non-isotropic measure "
                                 f"(deviation {rep.deviation:.2e})")
    return out


def _epsilon_provenance(cert) -> dict:
    """Report extras saying how delta_WO was obtained: the certificate's
    ``method`` and, for the n = 3 search, its objective evaluations."""
    out = {"epsilon_method": cert["method"]}
    if "nfev" in cert:
        out["epsilon_nfev"] = cert["nfev"]
    return out


# ---------------------------------------------------------------------------
# Theorem B direction


def theorem_B_suite(n: int, p, family):
    """V(Z_p(mu)) >= V(Z_p(nu_n)) and V(Z*_p(mu)) <= V(Z*_p(nu_n)) over a family.

    Both volumes of a measure come from one ``zonoid_volumes`` call.
    Equality (within volume error) is flagged as legitimate only when the
    orbit distance delta_WO(mu, nu_n) is below ``EQUALITY_TOL``.  Such a
    report says how its epsilon was obtained, as ``zpmustab_consistency``
    does (``epsilon_method``, and ``epsilon_nfev`` in n = 3).
    """
    ref_z = reference_volume("Z", n, p)
    ref_zs = reference_volume("Z_STAR", n, p)
    reports = []
    for idx, mu in enumerate(family):
        vz, vzs = zonoid_volumes(mu, p)
        err = vz.abs_error + vzs.abs_error
        ok_z = vz.value >= ref_z - vz.abs_error - 1e-9
        ok_zs = vzs.value <= ref_zs + vzs.abs_error + 1e-9
        near_equal = (abs(vz.value - ref_z) <= vz.abs_error + 1e-6
                      or abs(vzs.value - ref_zs) <= vzs.abs_error + 1e-6)
        extra = {"V_Zp": vz.value, "V_Zp_star": vzs.value,
                 "ref_Zp": ref_z, "ref_Zp_star": ref_zs}
        eps = float("nan")
        if near_equal:
            eps, _, cert = wasserstein_to_cross(mu)
            extra["equality_flagged"] = eps <= EQUALITY_TOL
            extra.update(_epsilon_provenance(cert))
        deficit = min(vz.value - ref_z, ref_zs - vzs.value)
        reports.append(StabilityReport(
            suite="theoremB", label=f"{idx}", n=n, p=p, epsilon=eps,
            deficit=deficit, bound=0.0, passed=ok_z and ok_zs,
            tolerances={"volume_err": err, "equality_tol": EQUALITY_TOL},
            extra=extra))
    return reports


# ---------------------------------------------------------------------------
# sharp constants on the circle


def s1_support_angles(mu: AtomicMeasure) -> np.ndarray:
    th = np.arctan2(mu.directions[:, 1], mu.directions[:, 0])
    return np.sort(np.mod(th, 2.0 * np.pi))


def s1_gaps(mu: AtomicMeasure) -> np.ndarray:
    th = s1_support_angles(mu)
    return np.diff(np.concatenate([th, [th[0] + 2.0 * np.pi]]))


def is_proper_support(mu: AtomicMeasure) -> bool:
    """Every gap between consecutive support points is at most pi/2."""
    return bool(np.max(s1_gaps(mu)) <= np.pi / 2 + 1e-12)


def area_conv_support(mu: AtomicMeasure) -> float:
    """Exact area of conv(supp mu) on S^1: half the sum of gap sines."""
    return 0.5 * float(np.sum(np.sin(s1_gaps(mu))))


def area_polar_support(mu: AtomicMeasure) -> float:
    """Exact area of {x : <x,u> <= 1 on supp mu}: sum of half-gap tangents."""
    return float(np.sum(np.tan(s1_gaps(mu) / 2.0)))


def tangent_sum_increasing(alpha, beta) -> bool:
    """tan((a+t)/2) + tan((b-t)/2) strictly increases on [0, min(b, pi/2-a)]."""
    tmax = min(beta, np.pi / 2 - alpha)
    if tmax <= 0:
        return True
    t = np.linspace(0.0, tmax, 64)
    vals = np.tan((alpha + t) / 2.0) + np.tan((beta - t) / 2.0)
    return bool(np.all(np.diff(vals) > -1e-14))


def sine_sum_decreasing(alpha, beta) -> bool:
    """sin(a+t) + sin(b-t) strictly decreases on [0, min(b, pi/2-a)]."""
    tmax = min(beta, np.pi / 2 - alpha)
    if tmax <= 0:
        return True
    t = np.linspace(0.0, tmax, 64)
    vals = np.sin(alpha + t) + np.sin(beta - t)
    return bool(np.all(np.diff(vals) < 1e-14))


def angle_sum_lower_bound(eps) -> bool:
    """sin(a) + cos(a) >= 1 + eps/2 on [eps, pi/2 - eps] for eps in (0, pi/4)."""
    a = np.linspace(eps, np.pi / 2 - eps, 256)
    return bool(np.all(np.sin(a) + np.cos(a) >= 1.0 + 0.5 * eps - 1e-12))


@functools.cache
def _s1_ingredients():
    """The measure-free S^1 proof ingredients, checked once per process on a
    9 x 9 grid of angles b <= a in [0, 0.999 pi/2]: (tangent-sum
    monotonicity, sine-sum decrease)."""
    grid = np.linspace(0.0, np.pi / 2 * 0.999, 9)
    pairs = [(a, b) for a in grid for b in grid if b <= a]
    return (all(tangent_sum_increasing(a, b) for a, b in pairs),
            all(sine_sum_decreasing(a, b) for a, b in pairs))


def find_separated_pair(mu: AtomicMeasure, eta: float):
    """Support pair with eta <= angle <= pi/2 - eta (exists for proper
    supports with orbit distance >= eta); None when the search fails."""
    U = mu.directions
    for i in range(len(U)):
        for j in range(i + 1, len(U)):
            ang = math.acos(max(-1.0, min(1.0, float(U[i] @ U[j]))))
            if eta - 1e-12 <= ang <= np.pi / 2 - eta + 1e-12:
                return i, j
    return None


def s1_sharp_suite(family):
    """Sharp S^1 stability: V(Z_inf) >= (1+eps/4) 2 and V(Z*_inf) <= (1-eps/10) 4.

    eps is the orbit-minimized Hausdorff distance of the support from the
    cross; areas are exact polygon areas.  Each report also carries the
    proof ingredients: tangent-sum monotonicity and sine-sum decrease, which
    read no measure and are checked once per process (``_s1_ingredients``),
    and, per measure, the angle-sum inequality and the existence of an
    eta-separated support pair.
    """
    from .errors import NotIsotropicError

    reports = []
    for idx, mu in enumerate(family):
        if mu.dim != 2:
            raise ValueError("s1 suite needs measures on S^1")
        if not is_proper_support(mu):
            raise NotIsotropicError("support misses an open quarter-circle")
        eps, _, cert = hausdorff_to_cross(mu.directions)
        v_inf = area_conv_support(mu)
        v_star = area_polar_support(mu)
        b_inf = (1.0 + 0.25 * eps) * 2.0
        b_star = (1.0 - 0.1 * eps) * 4.0
        ok = v_inf >= b_inf - 1e-9 and v_star <= b_star + 1e-9
        extra = {"V_Zinf": v_inf, "V_Zinf_star": v_star,
                 "bound_inf": b_inf, "bound_star": b_star}
        extra["tangent_monotone"], extra["sine_decreasing"] = _s1_ingredients()
        if 0.0 < eps < np.pi / 4:
            extra["angle_sum_ok"] = angle_sum_lower_bound(eps)
            extra["separated_pair"] = find_separated_pair(mu, eps) is not None
            ok = ok and extra["angle_sum_ok"] and extra["separated_pair"]
        reports.append(StabilityReport(
            suite="s1", label=f"{idx}", n=2, p=math.inf, epsilon=eps,
            deficit=min(v_inf - 2.0, 4.0 - v_star), bound=min(b_inf, b_star),
            passed=ok, tolerances={"area": 1e-12, "eps": 1e-9},
            extra=extra))
    return reports


# ---------------------------------------------------------------------------
# direction-only consistency for the Wasserstein stability theorem


def zpmustab_consistency(n: int, p, family):
    """Records (delta_WO, volume deficits) and checks the contrapositive:
    positive orbit distance forces positive deficit.  A deficit
    is shown positive when both dZ - barZ and dZs - barZs are, each deficit
    against its own volume's bar; their minimum is ``deficit_lower``.

    Monotonicity along the family is not checked here: ``cli._run_zpstab``
    marks the last report ``monotone: false`` when ``deficits_monotone``
    fails, and no verdict depends on it.

    At finite p the bars are the certified brackets of ``zonoid_volumes``.
    When epsilon > ``EPS_TOL`` and the default grid leaves deficit_lower <= 0,
    the measure's volumes are recomputed once on the next finer grid
    (4 times the directions: ``icosphere(ICOSPHERE_SUBDIV + 1)`` in n = 3),
    and ``volume_grid_nodes`` gives its size.

    Each report says how its epsilon was obtained: the delta_WO
    certificate's ``method`` as ``epsilon_method`` and, for the n = 3
    search, its objective evaluations as ``epsilon_nfev``.
    """
    ref_z = reference_volume("Z", n, p)
    ref_zs = reference_volume("Z_STAR", n, p)
    reports = []
    for idx, mu in enumerate(family):
        eps, _, cert = wasserstein_to_cross(mu)
        grid = None
        while True:
            vz, vzs = zonoid_volumes(mu, p, grid)
            dz = vz.value / ref_z - 1.0
            dzs = 1.0 - vzs.value / ref_zs
            err_z, err_zs = vz.abs_error / ref_z, vzs.abs_error / ref_zs
            # each deficit clears its own bar: a certified lower bound of
            # min(dZ, dZs)
            lower = min(dz - err_z, dzs - err_zs)
            if (grid is not None or eps <= EPS_TOL or lower > 0.0
                    or vz.method == "EXACT"):
                break
            grid = sphere_grid(n, 4 * ANGLE_GRID_2D, ICOSPHERE_SUBDIV + 1)
        deficit = min(dz, dzs)
        err = err_z + err_zs
        if eps > EPS_TOL:
            ok = lower > 0.0
        else:
            ok = deficit >= -err - 1e-9
        extra = {"deficit_Z": dz, "deficit_Zstar": dzs, "deficit_lower": lower,
                 "gamma_note": "direction-only; n^{-cn^3} not falsifiable",
                 **_epsilon_provenance(cert)}
        if grid is not None:
            extra["volume_grid_nodes"] = len(grid)
        reports.append(StabilityReport(
            suite="zpstab", label=f"{idx}", n=n, p=p, epsilon=eps,
            deficit=deficit, bound=0.0, passed=ok,
            tolerances={"eps_tol": EPS_TOL, "vol_err": err,
                        "vol_err_Z": err_z, "vol_err_Zstar": err_zs},
            extra=extra))
    return reports


def deficits_monotone(reports) -> bool:
    d = [r.deficit for r in reports]
    return all(b >= a - 1e-9 for a, b in zip(d, d[1:]))


# ---------------------------------------------------------------------------
# reverse isoperimetric suite


def john_normalize(body: BodyRep) -> tuple:
    """Map the body so its John ellipsoid becomes B^n; returns (body', map)."""
    ell = john_ellipsoid(body)
    L = np.linalg.cholesky(ell.shape)
    V = body.vertices @ L             # x -> L^T x
    return BodyRep.from_vertices(V), L.T


def truncated_cube_body(n: int, cut: float) -> BodyRep:
    """W^n with a corner simplex of height ``cut`` removed at every vertex."""
    if not (0.0 <= cut < 0.5):
        raise ValueError("cut must lie in [0, 1/2)")
    A = [np.vstack([np.eye(n), -np.eye(n)])]
    b = [np.ones(2 * n)]
    if cut > 0:
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        A.append(corners / math.sqrt(n))
        b.append(np.full(len(corners), math.sqrt(n) - cut))
    return BodyRep.from_halfspaces(np.vstack(A), np.concatenate(b))


def regular_polygon_body(m: int) -> BodyRep:
    """Regular 2m-gon circumscribed about the unit circle."""
    ang = np.arange(2 * m) * np.pi / m
    A = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return BodyRep.from_halfspaces(A, np.ones(2 * m))


def reverse_isoperimetric_suite(bodies, labels=None, distances: bool = True,
                                restarts: int = 8):
    """Isoperimetric deficit vs distance from the cube, plus the inclusion
    chain K <= Z*_inf(contact measure) and the cube sandwich when applicable.

    Bodies are John-normalized first (the normalizing map is recorded),
    then each is searched on its own: one ``volume_distance`` and one
    ``banach_mazur`` call against the cube, built once per dimension.  The
    reports follow the input order.
    """
    labels = labels or [str(i) for i in range(len(bodies))]
    if len(labels) != len(bodies):
        raise ValueError(f"{len(bodies)} bodies need {len(bodies)} labels, "
                         f"got {len(labels)}")
    cubes = {n: cube_body(n) for n in {body.dim for body in bodies}}
    reports = []
    for body, label in zip(bodies, labels):
        K = john_normalize(body)[0]
        n = K.dim
        ratio = isoperimetric_ratio(K)
        deficit = 1.0 - ratio / cube_isoperimetric_ratio(n)
        mu = contact_measure(K)
        # exact inclusion: every vertex obeys <x, u_i> <= 1
        incl = float(np.max(K.vertices @ mu.directions.T)) <= 1.0 + 1e-9
        cross = np.vstack([np.eye(n), -np.eye(n)])
        dH = hausdorff_spherical(mu.directions, cross)
        sandwich = None
        if dH < 1.0 / (3.0 * n) - 1e-9:
            alpha = min(dH * 1.5 + 1e-6, 1.0 / (3.0 * n) - 1e-9)
            sandwich = cube_sandwich_check(mu, alpha)["passed"]
        extra = {"ratio": ratio, "delta_H_contacts": dH,
                 "inclusion_chain": incl}
        eps = float("nan")
        ok = incl and (sandwich is not False)
        if distances:
            W = cubes[n]
            dvol, _ = volume_distance(K, W, restarts=max(restarts // 2, 2))
            dbm, _ = banach_mazur(K, W, restarts=restarts)
            extra.update({"delta_vol": dvol, "delta_BM": dbm})
            eps = dvol
            # direction-only consistency at a desk tolerance
            tol = 5e-3
            if deficit > tol:
                ok = ok and (dvol > 1e-4 or dbm > 1e-4)
            if dvol < 1e-6 and dbm < 1e-6:
                ok = ok and deficit <= tol
        reports.append(StabilityReport(
            suite="reviso", label=label, n=n, p=None, epsilon=eps,
            deficit=deficit, bound=0.0, passed=ok,
            tolerances={"inclusion": 1e-9},
            extra=extra))
    return reports


# ---------------------------------------------------------------------------
# planar chain


def max_area_inscribed_parallelogram(K: BodyRep):
    """Vertex pair (q1, q2) maximizing the inscribed parallelogram area
    2 |det[q1, q2]|; for polygons the maximum sits at vertex pairs."""
    V = K.vertices
    best = (-1.0, None, None)
    for i in range(len(V)):
        for j in range(i + 1, len(V)):
            a = abs(V[i, 0] * V[j, 1] - V[i, 1] * V[j, 0])
            if a > best[0]:
                best = (a, V[i], V[j])
    return 2.0 * best[0], best[1], best[2]


def octagon_Q_body(t1: float, t2: float, s1: float = 0.0,
                   s2: float = 0.0) -> BodyRep:
    """The inner polygon Q = conv{+-p_i, +-q_i} of the planar construction."""
    pts = np.array([[1.0, 1.0], [-1.0, 1.0],
                    [1.0 + t1, s1], [s2, 1.0 + t2]])
    return BodyRep.from_vertices(np.vstack([pts, -pts]))


def sandwich_M_vertices(t1: float, t2: float) -> np.ndarray:
    """Vertices of M = {|x| <= 1+t1, |y| <= 1+t2, |x+y| <= 2, |x-y| <= 2}."""
    pts = [(1.0 + t1, 1.0 - t1), (1.0 - t2, 1.0 + t2),
           (-(1.0 - t2), 1.0 + t2), (-(1.0 + t1), 1.0 - t1)]
    pts = np.array(pts)
    return np.vstack([pts, -pts])


def polygon_perimeter(V) -> float:
    diffs = np.roll(V, -1, axis=0) - V
    return float(np.sum(np.linalg.norm(diffs, axis=1)))


def planar_suite(K: BodyRep) -> StabilityReport:
    """Planar stability chain for a symmetric polygon.

    Normalizes a maximum-area inscribed parallelogram to the square W^2,
    reads off the support excesses t_1, t_2, builds the sandwich bodies
    M (outer octagon from supporting lines) and Q (inner octagon), checks
    the exact identities S(M) = (1 + (sqrt2 - 1) t) S(W^2) and
    V(Q) = (1 + t) V(W^2), and the chain t <= 18 eps, 3t <= 54 eps
    against the body's own isoperimetric deficit eps.
    """
    if K.dim != 2:
        raise ValueError("planar suite needs 2-D bodies")
    area_p, q1, q2 = max_area_inscribed_parallelogram(K)
    T = np.array([[1.0, -1.0], [1.0, 1.0]]) @ np.linalg.inv(
        np.column_stack([q1, q2]))
    V = K.vertices @ T.T
    Kn = BodyRep.from_vertices(V)
    # certificate that the normalized parallelogram is the square and maximal
    h_p1 = float(np.max(V @ np.array([1.0, 1.0])))
    h_p2 = float(np.max(V @ np.array([-1.0, 1.0])))
    if h_p1 > 2.0 + 1e-9 or h_p2 > 2.0 + 1e-9:
        raise HypothesisFailedError(
            "no square normalization: chosen parallelogram is not maximal")
    t1 = float(np.max(V[:, 0])) - 1.0
    t2 = float(np.max(V[:, 1])) - 1.0
    t = 0.5 * (t1 + t2)
    VM = sandwich_M_vertices(t1, t2)
    s_m = polygon_perimeter(VM)
    s_m_expected = (1.0 + (math.sqrt(2.0) - 1.0) * t) * 8.0
    # inner polygon from the actual support points at e_1, e_2
    q1n = V[int(np.argmax(V[:, 0]))]
    q2n = V[int(np.argmax(V[:, 1]))]
    VQ = np.vstack([[1.0, 1.0], [-1.0, 1.0], q1n, q2n,
                    [-1.0, -1.0], [1.0, -1.0], -q1n, -q2n])
    from scipy.spatial import ConvexHull

    VQ = VQ[ConvexHull(VQ).vertices]
    v_q = polygon_area(VQ)
    v_q_expected = (1.0 + t) * 4.0
    ratio = isoperimetric_ratio(Kn)
    eps = 1.0 - ratio / 16.0
    identities_ok = (abs(s_m - s_m_expected) <= 1e-12 * max(1.0, s_m)
                     and abs(v_q - v_q_expected) <= 1e-12 * max(1.0, v_q))
    chain_ok = (t <= 18.0 * eps + 1e-12
                and (1.0 + t) ** 2 - 1.0 <= 3.0 * t + 1e-12
                and 3.0 * t <= 54.0 * eps + 1e-12)
    return StabilityReport(
        suite="planar", label="chain", n=2, p=None, epsilon=eps,
        deficit=eps, bound=18.0 * eps, passed=identities_ok and chain_ok,
        tolerances={"identity": 1e-12},
        extra={"t": t, "t1": t1, "t2": t2, "S_M": s_m, "V_Q": v_q,
               "S_M_expected": s_m_expected, "V_Q_expected": v_q_expected,
               "parallelogram_area": area_p})
