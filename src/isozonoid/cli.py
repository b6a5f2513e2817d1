"""Command line interface: verification suites and one-shot operations.

Subcommands
    verify    run a named suite, write a JSON report (and CSV summary)
    volume    volume of a body JSON file
    distance  measure/body distances (wass, wassO, haus, hausO, bm, vol)
    john      John ellipsoid, contact measure, isoperimetric ratio
    transport transport-map bound checks as CSV rows (t, value, bound, margin)

Exit codes: 0 all checks passed, 1 a verification failed (report still
written), 2 usage or input error.  JSON floats round-trip double precision;
identical (config, seed) pairs produce byte-identical output.  The
environment variable ISOZONOID_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import harness
from .bodies import body_from_json, cube_body, volume
from .errors import IsozonoidError
from .john import contact_measure, isoperimetric_ratio, john_ellipsoid
from .measures import measure_from_json
from .metrics import (banach_mazur, hausdorff_spherical, hausdorff_to_cross,
                      volume_distance, wasserstein, wasserstein_to_cross)
from .transport import (phi_p_derivatives, psi_p_derivatives, rho_p,
                        second_derivative_bound_phi, verify_derivative_box,
                        verify_second_derivative_bounds)

DEFAULT_SEED = harness.DEFAULT_SEED
TRANSPORT_P_LIST = [1, 1.2, 1.5, 1.9, 2.1, 2.3, 2.7, 3, 5, 10, math.inf]


def _dump_json(obj) -> str:
    # allow_nan off: non-finite values must be sanitized upstream
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_output(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _seed_from(args) -> int:
    env = os.environ.get("ISOZONOID_SEED")
    if env is not None:
        return int(env, 0)
    return args.seed


# ---------------------------------------------------------------------------
# suite runners


def _parallel_over_inputs(fn, inputs, jobs):
    """Map a one-input suite over inputs; report order and labels follow
    the input index regardless of completion order."""
    import dataclasses

    if jobs <= 1 or len(inputs) <= 1:
        chunks = [fn([x]) for x in inputs]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as ex:
            chunks = list(ex.map(lambda x: fn([x]), inputs))
    out = []
    for idx, chunk in enumerate(chunks):
        out.extend(dataclasses.replace(r, label=str(idx)) for r in chunk)
    return out


def _run_theoremB(args, seed):
    n, p = args.n, args.p
    npairs = n * (n + 1) // 2 + 4       # enough pairs for feasible moment solves
    fam = harness.perturbation_family("RANDOM_ISOTROPIC", n,
                                      (args.count, npairs), seed=seed)
    return _parallel_over_inputs(
        lambda sub: harness.theorem_B_suite(n, p, sub), fam, args.jobs)


def _run_s1(args, seed):
    fam = harness.perturbation_family("EQUIANGULAR", 2, [2, 3, 4, 6])
    fam += harness.perturbation_family(
        "TILTED_PAIR", 2, np.linspace(0.0, 0.35, 8))
    return _parallel_over_inputs(harness.s1_sharp_suite, fam, args.jobs)


def _run_zpstab(args, seed):
    fam = harness.perturbation_family(
        "TILTED_PAIR", args.n, np.linspace(0.0, 0.4, 9))
    reps = harness.zpmustab_consistency(args.n, args.p, fam)
    if not harness.deficits_monotone(reps):
        reps[-1].extra["monotone"] = False
    return reps


def _run_reviso(args, seed):
    n = args.n
    bodies = [cube_body(n), harness.truncated_cube_body(n, 0.1),
              harness.truncated_cube_body(n, 0.25)]
    labels = ["cube", "cut-0.1", "cut-0.25"]
    if n == 2:
        bodies.append(harness.regular_polygon_body(3))
        labels.append("hexagon")
    return harness.reverse_isoperimetric_suite(bodies, labels)


def _run_planar(args, seed):
    reps = []
    for t in np.arange(0.0, 0.5001, 0.05):
        reps.append(harness.planar_suite(harness.octagon_Q_body(t, t)))
    return reps


def _run_transport(args, seed):
    reps = []
    grid_box = np.linspace(0.0, 1.0 / 3.1, args.grid)
    grid_2nd = np.linspace(1e-4, 1.0 / 8 - 1e-9, args.grid)
    for p in TRANSPORT_P_LIST:
        ok = True
        try:
            verify_derivative_box(p, grid_box)
            if p != 2:
                verify_second_derivative_bounds(p, grid_2nd)
        except IsozonoidError:
            ok = False
        reps.append(harness.StabilityReport(
            suite="transport", label=f"p={p}", n=1, p=p, epsilon=0.0,
            deficit=0.0, bound=0.0, passed=ok, tolerances={}))
    return reps


def _run_ballbarthe(args, seed):
    from .ballbarthe import random_decomposition_system, theta_star

    rng = np.random.default_rng(seed)
    reps = []
    for i in range(args.count):
        n = int(rng.integers(2, 4))
        sys_ = random_decomposition_system(n, int(rng.integers(2, 4)), rng)
        t = np.exp(rng.normal(size=sys_.k))
        theta, ok = theta_star(sys_, t)
        reps.append(harness.StabilityReport(
            suite="ballbarthe", label=f"{i}", n=n, p=None, epsilon=0.0,
            deficit=theta - 1.0, bound=1.0, passed=ok and theta >= 1.0,
            tolerances={"rel": 1e-9}))
    return reps


def _run_caps(args, seed):
    from .caps import dvoretzky_rogers_caps, verify_isotropic_cap_bound

    rng = np.random.default_rng(seed)
    reps = []
    for i in range(args.count):
        n = args.n
        mu = harness.random_even_isotropic(n, n * (n + 1) // 2 + 4, rng)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        alpha = rng.uniform(0.1, np.pi / 2 - 0.1)
        lhs, rhs, ok1 = verify_isotropic_cap_bound(mu, v, alpha)
        V, beta = dvoretzky_rogers_caps(mu)
        reps.append(harness.StabilityReport(
            suite="caps", label=f"{i}", n=n, p=None, epsilon=alpha,
            deficit=lhs - rhs, bound=rhs, passed=ok1,
            tolerances={"cap": 1e-12},
            extra={"dr_det": abs(float(np.linalg.det(V))),
                   "dr_bound": 4.0 * n * beta}))
    return reps


SUITES = {"theoremB": _run_theoremB, "s1": _run_s1, "zpstab": _run_zpstab,
          "reviso": _run_reviso, "planar": _run_planar,
          "transport": _run_transport, "ballbarthe": _run_ballbarthe,
          "caps": _run_caps}


def _reports_csv(reports) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=harness.REPORT_CSV_FIELDS,
                       extrasaction="ignore")
    w.writeheader()
    for r in reports:
        w.writerow({k: r.to_dict().get(k) for k in harness.REPORT_CSV_FIELDS})
    return buf.getvalue()


def _cmd_verify(args) -> int:
    seed = _seed_from(args)
    reports = SUITES[args.suite](args, seed)
    text = _dump_json([r.to_dict() for r in reports])
    _write_output(args.out, text)
    if args.out not in (None, "-"):
        csv_path = os.path.splitext(args.out)[0] + ".csv"
        with open(csv_path, "w") as fh:
            fh.write(_reports_csv(reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_volume(args) -> int:
    body = body_from_json(_load_json(args.body))
    res = volume(body, seed=_seed_from(args))
    _write_output(args.out, _dump_json(res.to_json_dict()))
    return 0


def _cmd_distance(args) -> int:
    kind = args.kind
    seed = _seed_from(args)
    if kind in ("wass", "haus"):
        mu = measure_from_json(_load_json(args.measure))
        nu = measure_from_json(_load_json(args.measure2))
        if kind == "wass":
            value, plan = wasserstein(mu, nu)
            cert = {"plan_size": int(len(plan.flows))}
        else:
            value = hausdorff_spherical(mu.directions, nu.directions)
            cert = {"form": "max"}
    elif kind in ("wassO", "hausO"):
        mu = measure_from_json(_load_json(args.measure))
        if kind == "wassO":
            value, _, cert = wasserstein_to_cross(mu)
        else:
            value, _, cert = hausdorff_to_cross(mu.directions)
    elif kind in ("bm", "vol"):
        K = body_from_json(_load_json(args.body))
        M = body_from_json(_load_json(args.body2))
        fn = banach_mazur if kind == "bm" else volume_distance
        value, cert = fn(K, M, seed=seed)
    else:
        raise ValueError(f"unknown distance kind {kind!r}")
    _write_output(args.out, _dump_json({"value": value, "certificate": cert}))
    return 0


def _cmd_john(args) -> int:
    body = body_from_json(_load_json(args.body))
    ell = john_ellipsoid(body)
    out = {"ellipsoid_shape": ell.shape.tolist(),
           "ellipsoid_volume": ell.volume,
           "isoperimetric_ratio": isoperimetric_ratio(body)}
    if ell.ball_deviation() <= 1e-6:
        out["contact_measure"] = contact_measure(body).to_json_dict()
    _write_output(args.out, _dump_json(out))
    return 0


def _cmd_transport(args) -> int:
    p = args.p
    rows = []
    ok = True
    if args.check == "box":
        grid = np.linspace(0.0, 1.0 / 3.1, args.grid)
        for deriv in (phi_p_derivatives, psi_p_derivatives):
            for t in grid:
                val = deriv(p, t)[1]
                margin = min(val - 1.0 / 3.1, 3.1 - val)
                ok &= margin > 0
                rows.append((t, val, 3.1, margin))
    elif args.check == "second":
        grid = np.linspace(1e-4, 1.0 / 8 - 1e-9, args.grid)
        for t in grid:
            side, bnd = second_derivative_bound_phi(p, t)
            val = phi_p_derivatives(p, t)[2]
            margin = (bnd - val) if side == "upper" else (val - bnd)
            ok &= margin > 0
            rows.append((t, val, bnd, margin))
    elif args.check == "mass":
        lim = 0.999 if math.isinf(p) else 2.0
        grid = np.linspace(-lim, lim, args.grid)
        for t in grid:
            v, d1, _ = phi_p_derivatives(p, t)
            lhs = rho_p(p, t)
            rhs = rho_p(2, v) * d1
            margin = 1e-9 - abs(lhs - rhs)
            ok &= margin > 0
            rows.append((t, lhs, rhs, margin))
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "value", "bound", "margin"])
    w.writerows(rows)
    _write_output(args.out, buf.getvalue())
    return 0 if ok else 1


def _parse_p(text):
    if text in ("inf", "infty", "oo"):
        return math.inf
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="isozonoid",
        description="Desk-scale verification of zonoid volume inequalities "
                    "and reverse isoperimetric stability.")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=sorted(SUITES))
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--p", type=_parse_p, default=math.inf)
    v.add_argument("--count", type=int, default=20)
    v.add_argument("--grid", type=int, default=64)
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify)

    vol = sub.add_parser("volume", help="volume of a body JSON file")
    vol.add_argument("--body", required=True)
    vol.add_argument("--seed", type=int, default=DEFAULT_SEED)
    vol.add_argument("--out", default=None)
    vol.set_defaults(func=_cmd_volume)

    d = sub.add_parser("distance", help="measure/body distances")
    d.add_argument("--kind", required=True,
                   choices=["wass", "wassO", "haus", "hausO", "bm", "vol"])
    d.add_argument("--measure")
    d.add_argument("--measure2")
    d.add_argument("--body")
    d.add_argument("--body2")
    d.add_argument("--seed", type=int, default=DEFAULT_SEED)
    d.add_argument("--out", default=None)
    d.set_defaults(func=_cmd_distance)

    j = sub.add_parser("john", help="John ellipsoid and contact measure")
    j.add_argument("--body", required=True)
    j.add_argument("--seed", type=int, default=DEFAULT_SEED)
    j.add_argument("--out", default=None)
    j.set_defaults(func=_cmd_john)

    t = sub.add_parser("transport", help="transport map bound checks (CSV)")
    t.add_argument("--p", type=_parse_p, required=True)
    t.add_argument("--grid", type=int, default=256)
    t.add_argument("--check", required=True, choices=["box", "second", "mass"])
    t.add_argument("--seed", type=int, default=DEFAULT_SEED)
    t.add_argument("--out", default=None)
    t.set_defaults(func=_cmd_transport)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (IsozonoidError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"isozonoid: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
