"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; isozonoid is imported from ``src/`` there.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` it carries the per-layer metrics of a separate traced run.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTDIR = ROOT / ".perfbench-out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 9173            # for confirming a claimed gain only
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["quad-volume", "orbit", "reviso", "cli-sweep"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isozonoid" / "__init__.py").is_file():
        print(f"perfbench: no isozonoid sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS threads are fixed before numpy loads, here and in set-up children
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    # one core for the run and its children, so that the reference kernel
    # timed here sees the core the timed work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                     ROOT, OUTDIR)


if __name__ == "__main__":
    sys.exit(main())
