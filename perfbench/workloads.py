"""The four workloads: seeded inputs, operations and output checks.

A workload is a closed loop of rounds.  Each round is a fixed list of
operations whose inputs come from ``numpy.random.default_rng([seed, round])``;
an operation is one call into isozonoid that yields one StabilityReport, one
distance value or, on ``cli-sweep``, one ``isozonoid verify`` run.  The
library objects are reached through their module at call time, so that a
traced run sees the wrappers installed by ``perfbench.trace``.

The checks compare outputs with values the benchmark derives on its own:
closed forms for exact volumes and isoperimetric ratios, pinned or feasible
upper bounds for orbit distances, the independent ball-integral volume, and
strict JSON the way the CLI writes it.  Numpy scalars are never coerced, so
a report the CLI could not write fails here too.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from isozonoid import cli, harness, metrics, zonoids
from isozonoid.bodies import cube_body
from isozonoid.measures import AtomicMeasure

WORKLOADS = ("quad-volume", "orbit", "reviso", "cli-sweep")

P_QUAD = 1.5
QUAD_COUNTS = ((2, 3), (3, 1))          # (n, measures per round)
S1_EQUIANGULAR = (2, 3, 4, 6)           # the CLI's s1 family ...
S1_TILTS = tuple(np.linspace(0.0, 0.35, 8))
ZPSTAB_TILTS = tuple(np.linspace(0.0, 0.4, 9))  # ... and its zpstab family
WASS3_ROTATIONS = 8
REVISO_RESTARTS = {2: 8, 3: 4}          # the CLI uses 8; n = 3 sized to fit a round
CLI_SUITES = ("theoremB", "s1", "zpstab", "reviso", "planar", "transport",
              "ballbarthe", "caps")

EXACT_REL = 1e-9                        # exact paths against closed forms
ORBIT_SLACK = 1e-9                      # a minimum may go lower, never higher
ORBIT_FLOOR = -1e-12


@dataclass(frozen=True)
class Problem:
    kind: str       # raised | not-passed | not-strict-json | wrong-value
    detail: str


@dataclass(frozen=True)
class Raised:
    """Result of an operation that raised."""
    error: str


@dataclass(frozen=True)
class Op:
    kind: str                           # operation family, e.g. "theoremB.n3"
    call: Callable[[], object]
    check: Callable[[object], list]     # result -> [Problem]
    digest: str                         # fingerprint of the generated inputs
    rel_err_bars: Callable[[object], list] = lambda result: []


def build_round(workload: str, seed: int, index: int, outdir) -> list:
    """The operations of round ``index``; the same arguments give the same inputs."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, index])
    return BUILDERS[workload](rng, Path(outdir))


def check_op(op, result) -> list:
    if isinstance(result, Raised):
        return [Problem("raised", result.error)]
    try:
        return op.check(result)
    except Exception as exc:            # malformed output is a wrong value
        return [Problem("wrong-value", f"{op.kind}: check failed on "
                        f"{type(exc).__name__}: {exc}")]


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _subseed(rng) -> int:
    return int(rng.integers(2 ** 31))


def _close(a, b, rel) -> bool:
    return abs(float(a) - float(b)) <= rel * max(1.0, abs(float(b)))


def _report_problems(rep) -> list:
    """Failures every StabilityReport is checked for."""
    out = []
    if not rep.passed:
        out.append(Problem("not-passed", f"{rep.suite} {rep.label}"))
    try:
        json.dumps([rep.to_dict()], sort_keys=True, indent=2, allow_nan=False)
    except (TypeError, ValueError) as exc:
        out.append(Problem("not-strict-json", f"{rep.suite}: {exc}"))
    return out


def _wrong(detail) -> list:
    return [Problem("wrong-value", detail)]


# ---------------------------------------------------------------------------
# independent geometry used by the checks


def _angles(U, W) -> np.ndarray:
    """Pairwise geodesic angles via atan2(|u x w|, <u, w>)."""
    U, W = np.atleast_2d(U), np.atleast_2d(W)
    dots = U @ W.T
    sq = (np.sum(U * U, axis=1)[:, None] * np.sum(W * W, axis=1)[None, :]
          - dots ** 2)
    return np.arctan2(np.sqrt(np.maximum(sq, 0.0)), dots)


def _hausdorff(X, Y) -> float:
    D = _angles(X, Y)
    return float(max(np.max(np.min(D, axis=1)), np.max(np.min(D, axis=0))))


def _cross(R) -> np.ndarray:
    R = np.asarray(R, dtype=float)
    return np.vstack([R, -R])


def _rotation_2d(theta) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rotated(mu, theta):
    return AtomicMeasure(2, mu.directions @ _rotation_2d(theta).T, mu.weights,
                         even=True)


def _gaps(U) -> np.ndarray:
    th = np.sort(np.mod(np.arctan2(U[:, 1], U[:, 0]), 2.0 * np.pi))
    return np.diff(np.concatenate([th, [th[0] + 2.0 * np.pi]]))


def tilted_areas(alpha):
    """Exact (V(Z_inf), V(Z*_inf)) of the planar tilted pair."""
    return (math.sin(2.0 * alpha) + 2.0 * math.cos(alpha),
            2.0 * math.tan(alpha) + 4.0 * math.tan(math.pi / 4 - alpha / 2))


def equiangular_areas(m):
    """Exact (V(Z_inf), V(Z*_inf)) of 2m equally spaced atoms."""
    return m * math.sin(math.pi / m), 2.0 * m * math.tan(math.pi / (2 * m))


# delta_HO of 2m equally spaced atoms, pinned; a tilted pair has delta_HO = alpha
EQUIANGULAR_DELTA_HO = {2: 0.0, 3: math.pi / 6, 4: math.pi / 8, 6: math.pi / 6}


def tilted_delta_wo_bound(alpha) -> float:
    """Transport cost to the unrotated cross: mass 1/2 per side moves alpha,
    the excess tan^2(alpha)/2 per side moves pi/2 - alpha."""
    return alpha + math.tan(alpha) ** 2 * (math.pi / 2 - alpha)


def truncated_cube_ratio(n, cut) -> float:
    """S^n / V^(n-1) of the cube [-1,1]^n with every corner cut at height cut."""
    leg = cut * math.sqrt(n)
    if n == 2:
        area = 4.0 - 2.0 * leg ** 2
        per = 8.0 - 8.0 * leg + 4.0 * math.sqrt(2.0) * leg
        return per ** 2 / area
    vol = 8.0 - 8.0 * leg ** 3 / 6.0
    surf = 24.0 - 12.0 * leg ** 2 + 4.0 * math.sqrt(3.0) * leg ** 2
    return surf ** 3 / vol ** 2


def polygon_ratio(m) -> float:
    """Perimeter^2 / area of the regular 2m-gon (its John ellipsoid is a disk)."""
    return 8.0 * m * math.tan(math.pi / (2 * m))


def _cube_ratio(n) -> float:
    return truncated_cube_ratio(n, 0.0)


# ---------------------------------------------------------------------------
# value checks shared by the direct calls and the CLI's JSON reports


def check_s1(d, kind, param) -> list:
    if kind == "equiangular":
        delta, (v, vs) = EQUIANGULAR_DELTA_HO[param], equiangular_areas(param)
    else:
        delta, (v, vs) = param, tilted_areas(param)
    out = []
    if not ORBIT_FLOOR <= d["epsilon"] <= delta + ORBIT_SLACK:
        out += _wrong(f"s1 {kind} {param}: delta_HO {d['epsilon']!r} > {delta!r}")
    if not (_close(d["V_Zinf"], v, EXACT_REL)
            and _close(d["V_Zinf_star"], vs, EXACT_REL)):
        out += _wrong(f"s1 {kind} {param}: areas differ from the closed form")
    return out


def check_zpstab(d, alpha) -> list:
    v, vs = tilted_areas(alpha)
    out = []
    if not ORBIT_FLOOR <= d["epsilon"] <= tilted_delta_wo_bound(alpha) + ORBIT_SLACK:
        out += _wrong(f"zpstab {alpha}: delta_WO {d['epsilon']!r} above bound")
    if not (_close(2.0 * (1.0 + d["deficit_Z"]), v, EXACT_REL)
            and _close(4.0 * (1.0 - d["deficit_Zstar"]), vs, EXACT_REL)):
        out += _wrong(f"zpstab {alpha}: volumes differ from the closed form")
    return out


def check_reviso(d, n, shape, param) -> list:
    if shape == "cube":
        ratio = _cube_ratio(n)
    elif shape == "cut":
        ratio = truncated_cube_ratio(n, param)
    else:
        ratio = polygon_ratio(param)
    out = []
    if not _close(d["ratio"], ratio, EXACT_REL):
        out += _wrong(f"reviso {shape} {param}: ratio {d['ratio']!r} != {ratio!r}")
    if not _close(d["deficit"], 1.0 - ratio / _cube_ratio(n), EXACT_REL):
        out += _wrong(f"reviso {shape} {param}: deficit off the closed form")
    dvol, dbm = d.get("delta_vol", 0.0), d.get("delta_BM", 0.0)
    if min(dvol, dbm) < ORBIT_FLOOR:
        out += _wrong(f"reviso {shape} {param}: negative distance")
    if shape == "cube" and max(dvol, dbm) > ORBIT_SLACK:
        out += _wrong(f"reviso cube: distance {max(dvol, dbm)!r} to itself")
    if shape == "cut":
        # the identity map gives K <= W <= lam K with lam = sqrt n / (sqrt n - cut)
        bound = math.log(math.sqrt(n) / (math.sqrt(n) - param))
        if dbm > bound + ORBIT_SLACK:
            out += _wrong(f"reviso cut {param}: delta_BM {dbm!r} > {bound!r}")
    return out


# ---------------------------------------------------------------------------
# quad-volume


def _theorem_b(mu, shared):
    rep, = harness.theorem_B_suite(mu.dim, P_QUAD, [mu])
    shared["report"] = rep
    return rep


def _ball_integral(mu):
    return zonoids.volume_Zp_star_ball_integral(mu, P_QUAD)


def _check_theorem_b(mu, rep) -> list:
    n = mu.dim
    out = _report_problems(rep)
    ref = 2.0 ** n * math.gamma(1 + 1 / P_QUAD) ** n / math.gamma(1 + n / P_QUAD)
    if not _close(rep.extra["ref_Zp_star"], ref, EXACT_REL):
        out += _wrong("closed-form V(Z*_p(cross)) mismatch")
    return out


def _check_ball_integral(shared, ball) -> list:
    rep = shared.get("report")          # the same measure's theorem-B report
    if rep is None:
        return []                       # that operation failed and says so
    # volume_err bounds the Z*_p bar: it is the sum of the Z_p and Z*_p bars
    gap = abs(rep.extra["V_Zp_star"] - ball.value)
    if gap > rep.tolerances["volume_err"] + ball.abs_error:
        return _wrong(f"V(Z*_p) and the ball integral differ by {gap:.3e}")
    return []


def _theorem_b_bars(rep) -> list:
    return [rep.tolerances["volume_err"]
            / min(rep.extra["V_Zp"], rep.extra["V_Zp_star"])]


def _ball_integral_bars(ball) -> list:
    return [ball.abs_error / ball.value]


def _quad_volume(rng, outdir) -> list:
    ops = []
    for n, count in QUAD_COUNTS:
        npairs = n * (n + 1) // 2 + 4
        fam = harness.perturbation_family("RANDOM_ISOTROPIC", n, (count, npairs),
                                          seed=_subseed(rng))
        for mu in fam:
            shared = {}
            digest = _digest(mu.directions, mu.weights)
            ops += [Op(f"theoremB.n{n}", functools.partial(_theorem_b, mu, shared),
                       functools.partial(_check_theorem_b, mu), digest,
                       _theorem_b_bars),
                    Op(f"ball_integral.n{n}", functools.partial(_ball_integral, mu),
                       functools.partial(_check_ball_integral, shared), digest,
                       _ball_integral_bars)]
    return ops


# ---------------------------------------------------------------------------
# orbit


def _one_report(suite, *args):
    rep, = getattr(harness, suite)(*args)
    return rep


def _check_s1_op(kind, param, rep) -> list:
    return _report_problems(rep) + check_s1(rep.to_dict(), kind, param)


def _check_zpstab_op(alpha, rep) -> list:
    return _report_problems(rep) + check_zpstab(rep.to_dict(), alpha)


def _check_haus3(X, result) -> list:
    value, R, _ = result
    at_identity = _hausdorff(X, _cross(np.eye(3)))
    out = []
    if not ORBIT_FLOOR <= value <= at_identity + ORBIT_SLACK:
        out += _wrong(f"delta_HO {value!r} outside [0, {at_identity!r}]")
    if abs(_hausdorff(X, _cross(R)) - value) > ORBIT_SLACK:
        out += _wrong("delta_HO is not attained at the returned frame")
    return out


def _check_wass3(mu, nu, result) -> list:
    value, plan = result
    c, d = mu.weights, nu.weights
    C = _angles(mu.directions, nu.directions)
    lower = float(c @ np.min(C, axis=1))
    upper = _northwest_corner_cost(c, d, C)
    out = []
    if not max(lower - ORBIT_SLACK, ORBIT_FLOOR) <= value <= upper + ORBIT_SLACK:
        out += _wrong(f"transport cost {value!r} outside [{lower!r}, {upper!r}]")
    flows = np.zeros_like(C)
    np.add.at(flows, (plan.source_idx, plan.target_idx), plan.flows)
    if (abs(float(np.sum(flows * C)) - value) > ORBIT_SLACK
            or np.max(np.abs(flows.sum(axis=1) - c)) > 1e-8
            or np.max(np.abs(flows.sum(axis=0) - d)) > 1e-8):
        out += _wrong("transport plan does not match its cost or marginals")
    return out


def _northwest_corner_cost(c, d, C) -> float:
    """Cost of the north-west corner plan, a feasible transport."""
    c, d = list(c), list(d)
    i = j = 0
    cost = 0.0
    while i < len(c) and j < len(d):
        m = min(c[i], d[j])
        cost += m * C[i, j]
        c[i] -= m
        d[j] -= m
        if c[i] <= d[j]:
            i += 1
        else:
            j += 1
    return cost


def _orbit(rng, outdir) -> list:
    from scipy.spatial.transform import Rotation

    ops = []
    s1 = ([("equiangular", m, harness.equiangular_measure(m))
           for m in S1_EQUIANGULAR]
          + [("tilted", a, harness.tilted_pair_measure(2, a)) for a in S1_TILTS])
    for kind, param, mu in s1:
        mu = _rotated(mu, rng.uniform(0.0, 2.0 * np.pi))
        ops.append(Op("s1", functools.partial(
            _one_report, "s1_sharp_suite", [mu]),
            functools.partial(_check_s1_op, kind, param),
            _digest(mu.directions)))
    for a in ZPSTAB_TILTS:
        mu = _rotated(harness.tilted_pair_measure(2, a), rng.uniform(0.0, 2.0 * np.pi))
        ops.append(Op("zpstab", functools.partial(
            _one_report, "zpmustab_consistency", 2, math.inf, [mu]),
            functools.partial(_check_zpstab_op, a), _digest(mu.directions)))
    X = harness.random_even_isotropic(3, 10, rng).directions
    ops.append(Op("hausdorff_to_cross.n3",
                  functools.partial(_call_metric, "hausdorff_to_cross", X),
                  functools.partial(_check_haus3, X), _digest(X)))
    mu = harness.tilted_pair_measure(3, rng.uniform(0.05, 0.35))
    for R in Rotation.random(WASS3_ROTATIONS, random_state=rng).as_matrix():
        nu = metrics.rotated_cross_measure(3, R)
        ops.append(Op("wasserstein.n3",
                      functools.partial(_call_metric, "wasserstein", mu, nu),
                      functools.partial(_check_wass3, mu, nu),
                      _digest(mu.directions, R)))
    return ops


def _call_metric(name, *args):
    return getattr(metrics, name)(*args)


# ---------------------------------------------------------------------------
# reviso


def _check_reviso_op(n, shape, param, rep) -> list:
    return _report_problems(rep) + check_reviso(rep.to_dict(), n, shape, param)


def _reviso_op(body, n, shape, param):
    call = functools.partial(_one_report, "reverse_isoperimetric_suite",
                             [body], [shape], True, REVISO_RESTARTS[n])
    return Op(f"reviso.n{n}.{shape}", call,
              functools.partial(_check_reviso_op, n, shape, param),
              _digest(body.halfspaces[0], body.halfspaces[1]))


def _reviso(rng, outdir) -> list:
    # Fixed bodies, in an order drawn from the seed: the Nelder-Mead searches
    # are chaotic under rounding, so even a rescaled body changes their work
    # by up to 2x; fixed bodies keep every round's work the same.
    bodies = [(2, "cube", 0, cube_body(2)),
              (2, "cut", 0.25, harness.truncated_cube_body(2, 0.25)),
              (2, "polygon", 3, harness.regular_polygon_body(3)),
              (3, "cut", 0.1, harness.truncated_cube_body(3, 0.1))]
    return [_reviso_op(body, n, shape, param)
            for n, shape, param, body in (bodies[i] for i in
                                          rng.permutation(len(bodies)))]


# ---------------------------------------------------------------------------
# cli-sweep


def _verify(argv, out_json):
    out_csv = out_json.with_suffix(".csv")
    out_json.unlink(missing_ok=True)
    out_csv.unlink(missing_ok=True)
    code = cli.main(argv)
    text = out_json.read_text() if out_json.exists() else None
    table = out_csv.read_text() if out_csv.exists() else None
    return code, text, table


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _check_verify(suite, seed, result) -> list:
    code, text, table = result
    if code == 1:
        return [Problem("not-passed", f"verify {suite} exited 1")]
    if code != 0 or text is None:
        return [Problem("raised", f"verify {suite} exited {code}")]
    try:
        reports = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return [Problem("not-strict-json", f"verify {suite}: {exc}")]
    out = []
    header = next(csv.reader(io.StringIO(table or "")), None)
    if header != harness.REPORT_CSV_FIELDS:
        out.append(Problem("not-strict-json", f"verify {suite}: CSV header {header}"))
    if not all(r["passed"] is True for r in reports):
        out.append(Problem("not-passed", f"verify {suite}: a report failed"))
    for i, d in enumerate(reports):
        out += _check_cli_report(suite, seed, i, d)
    return out


# the inputs the CLI builds for each suite at its default config
CLI_S1 = ([("equiangular", m) for m in S1_EQUIANGULAR]
          + [("tilted", a) for a in S1_TILTS])
CLI_REVISO = {"cube": ("cube", 0), "cut-0.1": ("cut", 0.1),
              "cut-0.25": ("cut", 0.25), "hexagon": ("polygon", 3)}


def _cli_theorem_b_family(seed):
    fam = harness.perturbation_family("RANDOM_ISOTROPIC", 2, (20, 7), seed=seed)
    return [(0.5 * float(np.sum(np.sin(g))), float(np.sum(np.tan(g / 2.0))))
            for g in (_gaps(mu.directions) for mu in fam)]


def _check_cli_report(suite, seed, i, d) -> list:
    if suite == "s1":
        return check_s1(d, *CLI_S1[i])
    if suite == "zpstab":
        return check_zpstab(d, ZPSTAB_TILTS[i])
    if suite == "reviso":
        return check_reviso(d, 2, *CLI_REVISO[d["label"]])
    if suite == "theoremB":
        v, vs = _cli_theorem_b_family(seed)[i]
        if not (_close(d["V_Zp"], v, EXACT_REL)
                and _close(d["V_Zp_star"], vs, EXACT_REL)
                and d["ref_Zp"] == 2.0 and d["ref_Zp_star"] == 4.0):
            return _wrong(f"theoremB {i}: exact polygon areas differ")
    return []


def _cli_sweep(rng, outdir) -> list:
    seed = _subseed(rng)
    ops = []
    for suite in CLI_SUITES:
        out_json = outdir / f"{suite}.json"
        argv = ["verify", "--suite", suite, "--jobs", "1", "--seed", str(seed),
                "--out", str(out_json)]
        ops.append(Op(f"verify.{suite}", functools.partial(_verify, argv, out_json),
                      functools.partial(_check_verify, suite, seed),
                      _digest([seed])))
    return ops


BUILDERS = {"quad-volume": _quad_volume, "orbit": _orbit, "reviso": _reviso,
            "cli-sweep": _cli_sweep}


# ---------------------------------------------------------------------------
# comparison of traced and untraced results


def canonical(obj):
    """Exact, comparable form of a result with every ``runtime`` dropped."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in sorted(obj.items()) if k != "runtime"}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [list(obj.shape)] + [canonical(v) for v in obj.ravel().tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    return obj


def canonical_verify(result):
    """CLI output with the runtime field and column removed."""
    code, text, table = result
    reports = json.loads(text) if text is not None else None
    return [code, canonical(reports), _drop_runtime_column(table)]


def _drop_runtime_column(table):
    rows = list(csv.reader(io.StringIO(table or "")))
    if not rows or "runtime" not in rows[0]:
        return rows
    k = rows[0].index("runtime")
    return [r[:k] + r[k + 1:] for r in rows]


def same_result(kind, a, b) -> bool:
    if isinstance(a, Raised) or isinstance(b, Raised):
        return a == b
    if kind.startswith("verify."):
        return canonical_verify(a) == canonical_verify(b)
    return canonical(a) == canonical(b)
