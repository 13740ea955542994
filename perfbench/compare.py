"""Diff two points of the benchmark's run history, by workload and metric.

Usage (from the repository root):

    python3 perfbench/compare.py BASE HEAD [--trace 0|1] [--history FILE ...]

``BASE`` and ``HEAD`` are commit hashes (any unique prefix) as recorded
in ``perfbench/history/runs.jsonl``. For every workload and metric both
points measured, it prints the median of each point's runs, the run
counts and the change. End-to-end metrics are judged against their
bound in ``BENCHMARK.json``: the exit status is 1 when one got worse by
more than its bound, else 0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from fedbench import history  # noqa: E402


def bounds() -> dict[str, dict]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--history", nargs="+", default=[str(history.HISTORY)])
    args = parser.parse_args(argv)

    records = history.load(args.history)
    base = history.medians(records, args.base, args.trace)
    head = history.medians(records, args.head, args.trace)
    if not base or not head:
        missing = args.base if not base else args.head
        print(f"compare: no trace={args.trace} runs at {missing!r}", file=sys.stderr)
        return 2
    limits = bounds() if args.trace == 0 else {}
    regressed = False
    print(f"{'workload':14s} {'metric':38s} {'base':>14s} {'head':>14s} {'change':>8s}  verdict")
    for key in sorted(set(base) & set(head)):
        workload, name = key
        b, unit, nb = base[key]
        h, _, nh = head[key]
        change = (h - b) / abs(b) if b else float("inf") if h else 0.0
        verdict = ""
        spec = limits.get(name)
        if spec is not None:
            worse = -change if spec["better"] == "higher" else change
            if worse > spec["bound"]:
                verdict = f"WORSE than bound {spec['bound']}"
                regressed = True
            else:
                verdict = "ok"
        print(f"{workload:14s} {name:38s} {b:>14.6g} {h:>14.6g} {change:>+8.2%}  "
              f"{verdict} ({unit}; runs {nb}/{nh})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
