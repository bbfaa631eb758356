"""Tiny-size smoke: every workload emits every metric with its unit.

Runs ``perfbench/run.py --tiny`` for each workload, untraced and traced,
and checks the last line against ``BENCHMARK.json``.  Run from the
repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: Per workload, layer metrics that must be nonzero (the layer is on
#: the workload's path) and ones that must be zero (it bypasses it).
APPLIES = {
    "hall_chaos": (
        ["sim.events", "failures.health.calls", "failures.dust.s",
         "failures.aging.s", "telemetry.poll.calls", "chaos.safety.calls"],
        ["traffic.window.calls", "twin.rank.calls", "service.slices"]),
    "traffic": (
        ["traffic.offer.calls", "traffic.window.calls", "traffic.flows",
         "traffic.route_changes", "core.impact.calls",
         "robots.submit.calls"],
        ["chaos.safety.calls", "twin.rank.calls", "service.slices"]),
    "twin": (
        ["twin.rank.calls", "twin.evaluate.calls", "twin.fork.s",
         "twin.windows", "traffic.window.calls", "topology.smi.calls"],
        ["core.impact.calls", "chaos.safety.calls", "service.slices"]),
    "served": (
        ["sim.events", "chaos.safety.calls", "topology.smi.calls",
         "shard.build.s", "shard.federation.s", "service.slices",
         "service.busy_frac", "service.refresh.calls",
         "service.query.calls", "service.ingest.offered"],
        ["traffic.window.calls", "twin.rank.calls", "service.stalls"]),
}

_RUNS = {}


def run(workload, trace, record):
    key = (workload, trace)
    if key not in _RUNS:
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", str(trace),
             "--tiny", "--record", str(record)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert completed.returncode == 0, completed.stderr
        _RUNS[key] = json.loads(completed.stdout.strip().splitlines()[-1])
    return _RUNS[key]


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench") / "record.jsonl"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace, record):
    result = run(workload, trace, record)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in table}
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_on_and_off_the_workload_path(workload, record):
    metrics = run(workload, 1, record)["metrics"]
    nonzero, zero = APPLIES[workload]
    assert [name for name in nonzero if metrics[name]["value"] <= 0] == []
    assert [name for name in zero if metrics[name]["value"] != 0] == []


def test_compare_accepts_a_record_against_itself(record):
    for workload in WORKLOADS:
        for trace in (0, 1):
            run(workload, trace, record)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--compare", str(record),
         str(record)], cwd=ROOT, capture_output=True, text=True,
        timeout=60)
    assert completed.returncode == 0, completed.stdout
    assert "count mismatch" not in completed.stdout
    for workload in WORKLOADS:
        assert f"{workload:10s} sim_days_per_s" in completed.stdout
