"""Compare the ``--record`` files of two commits.

Each workload x end-to-end metric is one row: both sides' median and
quartiles, the change in the median as a share of the base median, and
a verdict against the metric's bound from ``BENCHMARK.json``:

* ``regressed`` - the head median is worse by more than the bound;
* ``unresolved`` - either side's quartile spread exceeds the bound, so
  the runs cannot tell a change within the bound from noise (unless
  every head run beats every base run);
* ``better`` - the head median is better by more than the base spread;
* ``same`` - otherwise.

Per-layer counts of the batch workloads are deterministic: for every
(workload, seed) traced on both sides, each ``count`` metric must match
exactly.

Only runs of the same length and size compare: every record on both
sides must carry one ``seconds`` and one ``tiny`` value.  A run on
either side that failed its correctness checks, or a head workload that
failed a larger share of its operations than the base, is a failure
whatever the timings.  The exit code is 1 on a mismatched setting, a failed check,
more failed operations, a regression or a count mismatch.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

BATCH = ("hall_chaos", "traffic", "twin")


def load(path: Path) -> List[dict]:
    with path.open() as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: List[float], head: List[float], better: str,
            bound: float):
    b1, b_med, b3 = quartiles(base)
    h1, h_med, h3 = quartiles(head)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (h_med - b_med) / b_med
    spread = max((b3 - b1) / b_med, (h3 - h1) / h_med)
    if better == "lower":
        head_always_better = max(head) < min(base)
    else:
        head_always_better = min(head) > max(base)
    if head_always_better and worse < 0:
        label = "better"
    elif spread > bound:
        label = "unresolved"
    elif worse > bound:
        label = "regressed"
    elif -worse > (b3 - b1) / b_med:
        label = "better"
    else:
        label = "same"
    return (b1, b_med, b3), (h1, h_med, h3), worse, label


def count_mismatches(base: List[dict], head: List[dict],
                     units: Dict[str, str]) -> List[str]:
    def counts(records):
        seen = defaultdict(dict)
        for record in records:
            if record["trace"] != 1 or record["workload"] not in BATCH:
                continue
            key = (record["workload"], record["seed"], record["tiny"])
            for name, metric in record["result"]["metrics"].items():
                if units.get(name) == "count":
                    seen[key].setdefault(name, set()).add(
                        metric["value"])
        return seen

    base_counts, head_counts = counts(base), counts(head)
    problems = []
    for key in sorted(set(base_counts) & set(head_counts)):
        for name, values in sorted(base_counts[key].items()):
            others = head_counts[key].get(name, set())
            if len(values | others) != 1:
                problems.append(f"{key[0]} seed {key[1]}: {name} base "
                                f"{sorted(values)} head {sorted(others)}")
    return problems


def setting_problems(base: List[dict], head: List[dict]) -> List[str]:
    """Both sides must have run at one ``--seconds`` and ``--tiny``."""
    settings = {(record["seconds"], record["tiny"])
                for record in base + head}
    if len(settings) == 1:
        return []
    return [f"runs differ in (seconds, tiny): {sorted(settings)}"]


def failure_problems(base: List[dict], head: List[dict],
                     workloads: List[str]) -> List[str]:
    """Runs on either side that failed a check, and head workloads
    that failed a larger share of their operations than the base did."""
    problems = [f"{side} {record['workload']} seed {record['seed']} "
                f"trace {record['trace']}: correctness checks failed"
                for side, records in (("base", base), ("head", head))
                for record in records if not record["result"]["correct"]]

    def failed_share(records, workload):
        mine = [record["result"] for record in records
                if record["workload"] == workload]
        attempted = sum(result["attempted"] for result in mine)
        failed = sum(result["failed"] for result in mine)
        return failed, attempted

    for workload in workloads:
        base_failed, base_attempted = failed_share(base, workload)
        head_failed, head_attempted = failed_share(head, workload)
        if not head_attempted:
            continue
        if (head_failed * max(base_attempted, 1)
                > base_failed * head_attempted):
            problems.append(
                f"head {workload}: {head_failed} of {head_attempted} "
                f"operations failed, base {base_failed} of "
                f"{base_attempted}")
    return problems


def compare(base_path: Path, head_path: Path, spec: dict) -> int:
    base, head = load(base_path), load(head_path)
    workloads = [w["name"] for w in spec["workloads"]]
    settings = setting_problems(base, head)
    for line in settings:
        print(f"not comparable: {line}")
    if settings:
        return 1
    failures = failure_problems(base, head, workloads)
    for line in failures:
        print(f"failure: {line}")
    regressions = 0
    print(f"{'workload':10s} {'metric':15s} {'base q1/med/q3':>30s} "
          f"{'head q1/med/q3':>30s} {'worse':>8s} verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            sides = [[r["result"]["metrics"][metric["name"]]["value"]
                      for r in records
                      if r["workload"] == workload and r["trace"] == 0]
                     for records in (base, head)]
            if not all(sides):
                continue
            b, h, worse, label = verdict(*sides, metric["better"],
                                         metric["bound"])
            regressions += label == "regressed"
            print(f"{workload:10s} {metric['name']:15s} "
                  f"{'/'.join(f'{v:.4g}' for v in b):>30s} "
                  f"{'/'.join(f'{v:.4g}' for v in h):>30s} "
                  f"{100 * worse:+7.1f}% {label} "
                  f"(n={len(sides[0])}/{len(sides[1])}, "
                  f"bound {metric['bound']:.0%})")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    mismatches = count_mismatches(base, head, units)
    for line in mismatches:
        print(f"count mismatch: {line}")
    return 1 if failures or regressions or mismatches else 0
