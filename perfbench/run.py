"""Federation benchmark: run one workload and print its result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the
separate traced run and prints per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Every run is also appended
to ``perfbench/history/runs.jsonl``; ``perfbench/compare.py`` diffs two
commits' runs. Workloads and metrics are described in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from fedbench import harness, history
    from fedbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            metrics, extras, loop, problems = harness.traced(workload, args.seconds, spans)
        else:
            metrics, extras, loop, problems = harness.end_to_end(workload, args.seconds)
    finally:
        workload.close()

    result = {
        "correct": loop.failed == 0 and not problems,
        "attempted": loop.ops,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    history.append({
        "sha": history.git_sha(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result,
        "extras": extras,
        "errors": loop.errors[:20],
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
