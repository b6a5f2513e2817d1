"""Spans around the public functions of the isozonoid modules.

For a traced run the benchmark replaces, from outside the package, every
public function of every isozonoid module by a wrapper that records a span,
in each isozonoid namespace that holds the function.  The scipy entry points
the modules bind (``linprog``, ``minimize``, ``ConvexHull``,
``HalfspaceIntersection``) are wrapped the same way, and the two Qhull
classes also in ``scipy.spatial`` itself, so that function-local imports are
counted.  Spans stay in memory; ``remove`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

import numpy as np

LAYERS = ("measures", "caps", "bodies", "zonoids", "transport", "ballbarthe",
          "metrics", "john", "harness", "cli")
SCIPY_ENTRY_POINTS = (("scipy.optimize", "linprog"),
                      ("scipy.optimize", "minimize"),
                      ("scipy.spatial", "ConvexHull"),
                      ("scipy.spatial", "HalfspaceIntersection"))
QHULL = ("ConvexHull", "HalfspaceIntersection")
CLI_SUITES = ("theoremB", "s1", "zpstab", "reviso", "planar", "transport",
              "ballbarthe", "caps")
HARNESS_SUITES = ("theorem_B_suite", "s1_sharp_suite", "zpmustab_consistency",
                  "reverse_isoperimetric_suite", "planar_suite")
USEFUL_START_TOL = 1e-9

# Per-layer metrics of a traced run.  Unless the name says otherwise a value
# is a total per traced round: ``.calls`` counts spans, ``.s`` sums span
# durations, ``.self_s`` sums durations minus the time covered by child spans.
PER_LAYER = {
    "metrics.wasserstein.calls": "count",
    "metrics.wasserstein.s": "s",
    "metrics.linprog.calls": "count",
    "metrics.wasserstein_to_cross.calls": "count",
    "metrics.wasserstein_to_cross.n2.s": "s",
    "metrics.wasserstein_to_cross.n3.s": "s",
    "metrics.hausdorff_to_cross.n2.s": "s",
    "metrics.hausdorff_to_cross.n3.s": "s",
    "metrics.hausdorff_spherical.calls": "count",
    "metrics.minimize.calls": "count",
    "metrics.minimize.nit": "count",
    "metrics.minimize.nfev": "count",
    "metrics.orbit.useful_starts_ratio": "ratio",
    "metrics.banach_mazur.s": "s",
    "metrics.volume_distance.s": "s",
    **{f"bodies.volume.{kind}.{what}": unit
       for kind in ("V", "H", "support", "gauge")
       for what, unit in (("calls", "count"), ("s", "s"))},
    "bodies.icosphere.calls": "count",
    "bodies.icosphere.s": "s",
    "bodies.qhull.calls": "count",
    "zonoids.volume_Zp.s": "s",
    "zonoids.volume_Zp_star.s": "s",
    "zonoids.volume_Zp_star_ball_integral.s": "s",
    "zonoids.reference_volume.calls": "count",
    "zonoids.reference_volume.s": "s",
    "zonoids.support_Zp.rows": "count",
    "zonoids.norm_Zp_star.rows": "count",
    "zonoids.max_rel_err_bar": "ratio",
    "john.john_ellipsoid.calls": "count",
    "john.john_ellipsoid.s": "s",
    "john.contact_measure.s": "s",
    "john.isoperimetric_ratio.s": "s",
    "john.cube_sandwich_check.s": "s",
    "measures.isotropic_measure_from_directions.calls": "count",
    "measures.isotropic_measure_from_directions.s": "s",
    "measures.check_isotropy.calls": "count",
    "transport.verify_derivative_box.s": "s",
    "transport.verify_second_derivative_bounds.s": "s",
    "ballbarthe.theta_star.calls": "count",
    "ballbarthe.theta_star.s": "s",
    "caps.verify_isotropic_cap_bound.s": "s",
    "caps.dvoretzky_rogers_caps.s": "s",
    **{f"harness.{suite}.self_s": "s" for suite in HARNESS_SUITES},
    **{f"cli.verify.{suite}.s": "s" for suite in CLI_SUITES},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS + ("scipy",)},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "info")

    def __init__(self, name, layer, start, parent, op):
        self.name, self.layer, self.start = name, layer, start
        self.end, self.parent, self.op, self.info = start, parent, op, None

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.op,
                self.info]


def _rows(args, kwargs):
    x = args[2] if len(args) > 2 else next(iter(kwargs.values()))
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _info_volume(args, kwargs, out):
    return {"kind": args[0].kind}


def _info_rows(args, kwargs, out):
    return {"rows": _rows(args, kwargs)}


def _info_measure_dim(args, kwargs, out):
    return {"n": args[0].dim}


def _info_points_dim(args, kwargs, out):
    return {"n": int(np.shape(args[0])[-1])}


def _info_minimize(args, kwargs, out):
    return {"fun": float(out.fun), "nit": int(getattr(out, "nit", 0)),
            "nfev": int(getattr(out, "nfev", 0))}


def _info_cli_main(args, kwargs, out):
    argv = list(args[0]) if args else list(kwargs.get("argv") or [])
    if argv[:1] == ["verify"] and "--suite" in argv:
        return {"suite": argv[argv.index("--suite") + 1]}
    return None


INFO = {"bodies.volume": _info_volume,
        "zonoids.support_Zp": _info_rows,
        "zonoids.norm_Zp_star": _info_rows,
        "metrics.wasserstein_to_cross": _info_measure_dim,
        "metrics.hausdorff_to_cross": _info_points_dim,
        "metrics.minimize": _info_minimize,
        "cli.main": _info_cli_main}


def _modules():
    pkg = importlib.import_module("isozonoid")
    return pkg, [importlib.import_module(f"isozonoid.{m}") for m in LAYERS]


def namespace_snapshot():
    """Every attribute of every namespace the tracer may patch."""
    pkg, mods = _modules()
    spaces = [pkg] + mods + [importlib.import_module("scipy.spatial")]
    return {(ns.__name__, name): obj for ns in spaces
            for name, obj in vars(ns).items()}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []
        self._escaped = []          # (exception, layer) pairs already counted
        self.errors = dict.fromkeys(LAYERS, 0)

    # installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg, mods = _modules()
        wrappers = {}               # id(original) -> wrapper
        for mod, layer in zip(mods, LAYERS):
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
        for ns in [pkg] + mods:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrappers and obj is wrappers[id(obj)].__wrapped__:
                    self._patch(ns, name, wrappers[id(obj)])
        for mod, layer in zip(mods, LAYERS):
            for modname, attr in SCIPY_ENTRY_POINTS:
                orig = getattr(importlib.import_module(modname), attr)
                for name, obj in list(vars(mod).items()):
                    if obj is orig:
                        self._patch(mod, name,
                                    self._wrap(orig, f"{layer}.{attr}", "scipy"))
        spatial = importlib.import_module("scipy.spatial")
        for attr in QHULL:
            self._patch(spatial, attr,
                        self._wrap(getattr(spatial, attr), f"scipy.{attr}",
                                   "scipy"))

    def remove(self):
        for ns, name, obj in reversed(self._patches):
            setattr(ns, name, obj)
        self._patches = []

    def _patch(self, ns, name, wrapper):
        self._patches.append((ns, name, getattr(ns, name)))
        setattr(ns, name, wrapper)

    def _wrap(self, fn, name, layer):
        info_fn = INFO.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, layer, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.info = {"error": type(exc).__name__}
                self._count_escape(exc, layer)
                raise
            finally:
                stack.pop()
            span.end = time.perf_counter()
            if info_fn is not None:
                span.info = info_fn(args, kwargs, out)
            return out

        # no __dict__ copy: the Qhull wrappers stand in for classes
        return functools.update_wrapper(traced, fn, updated=())

    def _count_escape(self, exc, layer):
        if layer not in self.errors:
            return
        if any(e is exc and lay == layer for e, lay in self._escaped):
            return
        self._escaped.append((exc, layer))
        self.errors[layer] += 1


# ---------------------------------------------------------------------------
# aggregation


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _outermost_in_layer(spans):
    """Spans with no ancestor in their own layer (their time is not counted twice)."""
    out = []
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].layer != s.layer:
            p = spans[p].parent
        out.append(p < 0)
    return out


def layer_table(spans):
    """{layer: (calls, s, self_s)} over all spans."""
    self_t = _self_times(spans)
    outer = _outermost_in_layer(spans)
    table = {}
    for s, st, top in zip(spans, self_t, outer):
        calls, tot, slf = table.get(s.layer, (0, 0.0, 0.0))
        table[s.layer] = (calls + 1, tot + (s.end - s.start if top else 0.0),
                          slf + st)
    return table


def per_layer_metrics(tracer, rounds, overheads, max_rel_err_bar):
    """Every PER_LAYER metric; totals are divided by the traced rounds."""
    spans = tracer.spans
    self_t = _self_times(spans)
    tot = dict.fromkeys(PER_LAYER, 0.0)

    def add(key, value):
        tot[key] += value

    funs = {}                   # orbit search span -> its minimize results
    for s in spans:
        if s.name == "metrics.minimize" and s.info and "fun" in s.info:
            funs.setdefault(s.parent, []).append(s.info["fun"])
    starts = useful = 0
    for i, (s, st) in enumerate(zip(spans, self_t)):
        dur = s.end - s.start
        info = s.info or {}
        for suffix, value in ((".calls", 1), (".s", dur), (".self_s", st)):
            if s.name + suffix in tot:
                add(s.name + suffix, value)
        add(f"{s.layer}.self_s", st)
        if s.name.endswith(QHULL):
            add("bodies.qhull.calls", 1)
        if s.name == "bodies.volume" and "kind" in info:
            add(f"bodies.volume.{info['kind']}.calls", 1)
            add(f"bodies.volume.{info['kind']}.s", dur)
        elif s.name in ("zonoids.support_Zp", "zonoids.norm_Zp_star"):
            add(s.name + ".rows", info.get("rows", 0))
        elif s.name == "metrics.minimize" and "nit" in info:
            add("metrics.minimize.nit", info["nit"])
            add("metrics.minimize.nfev", info["nfev"])
        elif s.name in ("metrics.wasserstein_to_cross",
                        "metrics.hausdorff_to_cross"):
            key = f"{s.name}.n{info.get('n')}.s"
            if key in tot:
                add(key, dur)
            if i in funs:
                best = min(funs[i])
                starts += len(funs[i])
                useful += sum(f <= best + USEFUL_START_TOL for f in funs[i])
        elif s.name == "cli.main" and info.get("suite") in CLI_SUITES:
            add(f"cli.verify.{info['suite']}.s", dur)
    rounds = max(rounds, 1)
    out = {k: v / rounds for k, v in tot.items()}
    for layer, count in tracer.errors.items():
        out[f"{layer}.errors"] = count / rounds
    out["trace.spans"] = len(spans) / rounds
    out["metrics.orbit.useful_starts_ratio"] = useful / starts if starts else 0.0
    out["zonoids.max_rel_err_bar"] = max_rel_err_bar
    out["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    return out
