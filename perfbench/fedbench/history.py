"""Append-only run history, keyed by git commit.

Every run appends one JSON line to ``history/runs.jsonl`` beside the
benchmark; nothing is ever rewritten. The commit is read from ``.git``
without starting a process; outside a git checkout it is ``unknown``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

HISTORY = pathlib.Path(__file__).resolve().parent.parent / "history" / "runs.jsonl"


def git_sha(root: pathlib.Path) -> str:
    """The commit checked out at ``root``, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def append(record: dict, path: pathlib.Path = HISTORY) -> None:
    record = {"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **record}
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")


def load(paths) -> list[dict]:
    records = []
    for path in paths:
        with open(path) as f:
            records.extend(json.loads(line) for line in f if line.strip())
    return records


def medians(records: list[dict], sha: str, trace: int) -> dict[tuple[str, str], tuple[float, str, int]]:
    """Per (workload, metric): (median value, unit, runs) at commits
    starting with ``sha``."""
    values: dict[tuple[str, str], list[float]] = {}
    units: dict[tuple[str, str], str] = {}
    for rec in records:
        if not rec["sha"].startswith(sha) or rec["trace"] != trace:
            continue
        for name, metric in rec["metrics"].items():
            key = (rec["workload"], name)
            values.setdefault(key, []).append(metric["value"])
            units[key] = metric["unit"]
    return {
        key: (statistics.median(v), units[key], len(v)) for key, v in values.items()
    }
