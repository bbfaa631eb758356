"""Run one workload of the dcrobot benchmark, or compare two records.

    python3 perfbench/run.py --workload hall_chaos --seed 1 --seconds 25 \\
        --trace 0
    python3 perfbench/run.py --workload served --seed 1 --seconds 25 \\
        --trace 1 --record head.jsonl
    python3 perfbench/run.py --compare base.jsonl head.jsonl

A run prints each metric by name and unit, then, as its last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.
The exit code is 1 when a correctness check failed (the result line is
still printed, with ``correct`` false).
Run it from the root of a source checkout: it imports ``src/dcrobot``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("hall_chaos", "traffic", "twin", "served")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="wall seconds of measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every world (smoke tests only)")
    parser.add_argument("--record", type=Path,
                        help="append this run's result to a JSON-lines "
                             "file for --compare")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "HEAD"),
                        help="compare two --record files")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dcrobot").is_dir():
        print(f"error: no src/dcrobot under {ROOT}; run the benchmark "
              f"from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.compare is not None:
        from perfbench.compare import compare
        return compare(*args.compare, spec)

    if args.workload == "served":
        from perfbench import served
        outcome = served.run(args.seed, args.seconds, bool(args.trace),
                             args.tiny)
    else:
        from perfbench import batch
        outcome = batch.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.tiny)

    table = spec["per_layer" if args.trace else "end_to_end"]
    mismatch = {m["name"] for m in table} ^ set(outcome.metrics)
    if mismatch:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                           f"{sorted(mismatch)}")
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for metric in table:
        print(f"{args.workload:10s} {metric['name']:28s} "
              f"{outcome.metrics[metric['name']]:>14.6g} {metric['unit']}")
    if outcome.layer_split:
        total = sum(outcome.layer_split.values())
        split = ", ".join(f"{layer} {100 * seconds / total:.1f}%"
                          for layer, seconds in sorted(
                              outcome.layer_split.items(),
                              key=lambda item: -item[1]))
        print(f"{args.workload:10s} self-time split of the traced run: "
              f"{split}")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": outcome.metrics[m["name"]],
                                "unit": m["unit"]} for m in table},
    }
    if args.record is not None:
        with args.record.open("a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "tiny": args.tiny, "result": result}) + "\n")
    print(json.dumps(result))
    return 1 if outcome.problems else 0


if __name__ == "__main__":
    sys.exit(main())
