"""Self-tests of the benchmark: names, seeding, wrappers and a smoke run."""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

from perfbench import bench, run, trace, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# theorem_B_suite stores numpy.bool_ in ``passed`` for n = 3 at finite p, so
# those reports cannot be written as strict JSON; the benchmark shows it.
KNOWN_FAILURES = {("theoremB.n3", "not-strict-json")}


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert tuple(names) == workloads.WORKLOADS
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == bench.END_TO_END
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == trace.PER_LAYER
    every = names + list(e2e) + [m["name"] for m in SPEC["per_layer"]]
    assert all(NAME.match(n) for n in every)
    assert len(set(every)) == len(every)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")


def test_cli_choices_are_the_workloads():
    for name in workloads.WORKLOADS:
        assert run.parse_args(["--workload", name]).workload == name
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "nope"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_operation_count(workload, tmp_path):
    a = workloads.build_round(workload, 1, 0, tmp_path)
    b = workloads.build_round(workload, 2, 0, tmp_path)
    again = workloads.build_round(workload, 1, 0, tmp_path)
    assert sorted(op.kind for op in a) == sorted(op.kind for op in b)
    assert [op.digest for op in a] == [op.digest for op in again]
    assert [op.digest for op in a] != [op.digest for op in b]


def test_wrappers_are_removed_and_results_unchanged(tmp_path):
    import isozonoid.harness
    import isozonoid.metrics
    import scipy.spatial

    before = trace.namespace_snapshot()
    op = next(op for op in workloads.build_round("orbit", 1, 0, tmp_path)
              if op.kind == "zpstab")
    plain = op.call()
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert isozonoid.metrics.wasserstein is not before[
            ("isozonoid.metrics", "wasserstein")]
        assert isozonoid.harness.john_ellipsoid is not before[
            ("isozonoid.harness", "john_ellipsoid")]
        assert scipy.spatial.ConvexHull is not before[
            ("scipy.spatial", "ConvexHull")]
        traced = op.call()
    finally:
        tracer.remove()
    after = trace.namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    names = {s.name for s in tracer.spans}
    assert {"harness.zpmustab_consistency", "metrics.wasserstein_to_cross",
            "metrics.linprog", "bodies.volume"} <= names
    assert workloads.same_result(op.kind, plain, traced)
    values = trace.per_layer_metrics(tracer, 1, [0.0], 0.0)
    assert set(values) == set(trace.PER_LAYER)
    assert values["metrics.wasserstein_to_cross.calls"] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_output_checks(workload, tmp_path):
    ops = workloads.build_round(workload, run.DEFAULT_SEED, 0, tmp_path)
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    results, _, _ = bench.run_ops(list(first.values()))
    for op, res in zip(first.values(), results):
        found = workloads.check_op(op, res)
        assert {(op.kind, p.kind) for p in found} <= KNOWN_FAILURES, found
