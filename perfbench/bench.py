"""Timed rounds, set-up timing, the traced run and the result line."""

from __future__ import annotations

import collections
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import isozonoid
import numpy as np

from perfbench import trace, workloads
from perfbench.workloads import Raised

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
SETUP_CODE = ("import time; from perfbench import workloads; "
              "workloads.build_round({workload!r}, {seed}, 0, {outdir!r}); "
              "print(time.time())")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The benchmark machine is shared: other tenants slow a core by up to about
# 2x for seconds at a time, which moves raw times by 20-30% between runs.
# A fixed reference kernel (small numpy array operations and a Python loop,
# the mix the workloads run) is timed before and after every timed piece of
# work, and the piece's time is scaled by KERNEL_REF_S over the mean of the
# two kernel times: times are reported at the speed the kernel runs at on a
# quiet 2-core Xeon, where it takes KERNEL_REF_S.  The core's state lasts
# seconds, so after operations shorter than KERNEL_EVERY_S the last kernel
# time is reused.
KERNEL_REF_S = 0.004
KERNEL_EVERY_S = 0.1
_KA = np.linspace(-1.0, 1.0, 72).reshape(24, 3)
_KB = np.vstack([np.eye(3), -np.eye(3)])


def machine_facts() -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def measure_setup(workload, seed, root: Path, outdir: Path):
    """Median time from starting a fresh interpreter to the end of importing
    isozonoid and building the first round's inputs.  The child reports its
    end on the wall clock, so interpreter exit and the parent's polling are
    not counted.  One untimed start first: on a fresh checkout it also
    writes the bytecode caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    code = SETUP_CODE.format(workload=workload, seed=seed, outdir=str(outdir))
    cmd = [sys.executable, "-c", code]
    times, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        before = kernel_time()
        t0 = time.time()
        proc = subprocess.run(cmd, env=env, cwd=root, check=True, text=True,
                              timeout=SETUP_TIMEOUT_S, stdout=subprocess.PIPE)
        elapsed = float(proc.stdout.split()[-1]) - t0
        if i:
            raw.append(elapsed)
            times.append(calibrated(elapsed, before, kernel_time()))
    return statistics.median(times), raw


def _kernel():
    s = 0.0
    for _ in range(80):
        cross = np.cross(_KA[:, None, :], _KB[None, :, :])
        angles = np.arctan2(np.linalg.norm(cross, axis=2), _KA @ _KB.T)
        s += float(angles.min(axis=1).max())
    for i in range(10000):
        s += (i % 7) * 0.5
    return s


def kernel_time() -> float:
    """Fastest of three reference-kernel runs (the state of the core now)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrated(seconds, kernel_before, kernel_after) -> float:
    return seconds * KERNEL_REF_S * 2.0 / (kernel_before + kernel_after)


def run_ops(ops, tracer=None, first_id=0):
    """Run the operations back to back, timing the reference kernel between
    them (outside the operations' times).

    Returns (results, op times, calibrated op times).
    """
    results, times, cal = [], [], []
    kernel, kernel_at = kernel_time(), time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_id + i
        before = kernel
        t0 = time.perf_counter()
        try:
            res = op.call()
        except Exception as exc:        # the loop goes on; the op counts as failed
            res = Raised(f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        if t1 - kernel_at >= KERNEL_EVERY_S:
            kernel, kernel_at = kernel_time(), time.perf_counter()
        times.append(t1 - t0)
        cal.append(calibrated(t1 - t0, before, kernel))
        results.append(res)
    return results, times, cal


def run(workload, seed, seconds, traced, root: Path, outdir: Path) -> int:
    outdir.mkdir(exist_ok=True)
    workdir = outdir / workload
    workdir.mkdir(exist_ok=True)
    facts = machine_facts()
    print("machine:", json.dumps(facts, sort_keys=True))
    src = (root / "src").resolve()
    if src not in Path(isozonoid.__file__).resolve().parents:
        print(f"perfbench: isozonoid imported from {isozonoid.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    setup_s = setup_times = None
    if not traced:
        setup_s, setup_times = measure_setup(workload, seed, root, workdir)

    tracer = trace.Tracer() if traced else None
    snapshot = trace.namespace_snapshot() if traced else None
    rounds, overheads, bars = [], [], []
    op_times = collections.defaultdict(list)
    cal_times = collections.defaultdict(list)
    problems = collections.Counter()
    details = []
    attempted = failed = 0
    correct = True
    t_start = time.perf_counter()
    index = 0
    # a round starts only when one more of the mean length so far ends in time
    while index == 0 or (time.perf_counter() - t_start) * (index + 1) / index <= seconds:
        ops = workloads.build_round(workload, seed, index, workdir)
        results, times, cal = run_ops(ops)
        rounds.append(sum(times))
        mismatched = set()
        if traced:
            tracer.install()
            try:
                tresults, ttimes, _ = run_ops(ops, tracer, attempted)
            finally:
                tracer.remove()
            overheads.append(sum(ttimes) - rounds[-1])
            mismatched = {i for i, (op, a, b) in enumerate(zip(ops, results, tresults))
                          if not workloads.same_result(op.kind, a, b)}
        for i, (op, res, dt, dc) in enumerate(zip(ops, results, times, cal)):
            op_times[op.kind].append(dt)
            cal_times[op.kind].append(dc)
            found = workloads.check_op(op, res)
            if i in mismatched:
                found.append(workloads.Problem(
                    "wrong-value", f"{op.kind}: traced result differs"))
            if not isinstance(res, Raised):
                bars += op.rel_err_bars(res)
            attempted += 1
            if found:
                failed += 1
                for p in found:
                    problems[(op.kind, p.kind)] += 1
                    correct = correct and p.kind != "wrong-value"
                    if len(details) < 5:
                        details.append(f"{op.kind}: {p.kind}: {p.detail}")
        index += 1

    # one round at the median calibrated time of each of its operation kinds
    per_round = collections.Counter(op.kind for op in ops)
    wall_s = sum(count * statistics.median(cal_times[kind])
                 for kind, count in per_round.items())
    max_bar = max(bars, default=0.0)
    print(f"rounds: {len(rounds)}; round time median "
          f"{statistics.median(rounds):.4f} s (min {min(rounds):.4f}, "
          f"max {max(rounds):.4f}); calibrated {wall_s:.4f} s")
    for kind, ts in sorted(op_times.items()):
        print(f"op {kind}: n={len(ts)} median {1e3 * statistics.median(ts):.2f} ms"
              f", max {1e3 * max(ts):.2f} ms, calibrated median "
              f"{1e3 * statistics.median(cal_times[kind]):.2f} ms")
    print(f"fail_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    for (kind, pkind), count in sorted(problems.items()):
        print(f"failed {kind}: {pkind} x{count}")
    for line in details:
        print("  e.g.", line)
    print(f"max_rel_err_bar: {max_bar:.6e}")

    if traced:
        restored = trace.namespace_snapshot()
        if any(restored.get(k) is not v for k, v in snapshot.items()):
            print("perfbench: wrappers left behind after the traced run")
            correct = False
        values = trace.per_layer_metrics(tracer, len(rounds), overheads, max_bar)
        _print_layer_table(trace.layer_table(tracer.spans), len(rounds))
        _write_spans(tracer.spans, outdir / f"spans-{workload}.jsonl")
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in trace.PER_LAYER.items()}
    else:
        print("setup samples, uncalibrated:",
              " ".join(f"{t:.4f}" for t in setup_times))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": wall_s, "setup_s": setup_s,
                  "peak_rss_mb": peak}
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_layer_table(table, rounds):
    print(f"per-layer, per traced round ({rounds} rounds):")
    print(f"  {'layer':<11}{'calls':>12}{'s':>11}{'self_s':>11}")
    for layer, (calls, tot, slf) in sorted(table.items()):
        print(f"  {layer:<11}{calls / rounds:>12.1f}{tot / rounds:>11.4f}"
              f"{slf / rounds:>11.4f}")


def _write_spans(spans, path: Path):
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s.as_list()) + "\n")
