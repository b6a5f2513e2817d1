"""Run workloads over several seeds and summarise each end-to-end metric.

    python3 perfbench/prove.py --seeds 1-10 --out .perfbench-out/prove.json

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, and
reports for every metric the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, the interquartile distance as a share of the
median, next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    machine = next((json.loads(line.split(":", 1)[1])
                    for line in proc.stdout.splitlines()
                    if line.startswith("machine:")), None)
    return json.loads(proc.stdout.strip().splitlines()[-1]), machine


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result, machine = run_once(workload, seed, args.seconds)
            report["machine"] = machine
            runs.append(result)
            print(workload, seed, json.dumps(result), flush=True)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        report["workloads"][workload] = {
            "seeds": args.seeds, "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": metrics}
        for name, s in metrics.items():
            print(f"{workload} {name}: median {s['median']:.4f} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.4f} "
                  f"(bound {bounds[name]})", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
