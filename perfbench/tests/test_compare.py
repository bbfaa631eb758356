"""Compare mode on hand-made records: settings, failures and verdicts."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.compare import compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def record(value, seed, *, correct=True, failed=0, seconds=25.0,
           tiny=False, workload="traffic"):
    metrics = {metric["name"]: {"value": value, "unit": metric["unit"]}
               for metric in SPEC["end_to_end"]}
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": 0, "tiny": tiny,
            "result": {"correct": correct, "attempted": 3,
                       "failed": failed, "metrics": metrics}}


def write(path, records):
    path.write_text("".join(json.dumps(item) + "\n" for item in records))
    return path


def run_compare(tmp_path, base, head):
    return compare(write(tmp_path / "base.jsonl", base),
                   write(tmp_path / "head.jsonl", head), SPEC)


def test_identical_records_compare_clean(tmp_path, capsys):
    runs = [record(1.0 + seed / 100, seed) for seed in range(1, 6)]
    assert run_compare(tmp_path, runs, runs) == 0
    assert "same" in capsys.readouterr().out


def test_a_failed_check_on_either_side_fails(tmp_path, capsys):
    good = [record(1.0, seed) for seed in range(1, 4)]
    bad = good[:2] + [record(1.0, 3, correct=False, failed=1)]
    assert run_compare(tmp_path, good, bad) == 1
    assert "head traffic seed 3" in capsys.readouterr().out
    assert run_compare(tmp_path, bad, good) == 1
    assert "base traffic seed 3" in capsys.readouterr().out


def test_more_failed_operations_on_head_fails(tmp_path, capsys):
    base = [record(1.0, seed) for seed in range(1, 4)]
    head = [record(1.0, seed, failed=int(seed == 2))
            for seed in range(1, 4)]
    assert run_compare(tmp_path, base, head) == 1
    assert "1 of 9 operations failed" in capsys.readouterr().out


def test_runs_of_another_length_or_size_do_not_compare(tmp_path, capsys):
    base = [record(1.0, seed) for seed in range(1, 4)]
    for changed in ({"seconds": 10.0}, {"tiny": True}):
        head = [record(1.0, seed, **changed) for seed in range(1, 4)]
        assert run_compare(tmp_path, base, head) == 1
        assert "not comparable" in capsys.readouterr().out


def test_a_regression_beyond_the_bound_fails(tmp_path, capsys):
    base = [record(1.0 + seed / 1000, seed) for seed in range(1, 6)]
    # Every end-to-end value doubles: latencies and setup regress.
    head = [record(2.0 + seed / 1000, seed) for seed in range(1, 6)]
    assert run_compare(tmp_path, base, head) == 1
    assert "regressed" in capsys.readouterr().out
