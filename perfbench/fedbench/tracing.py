"""Span tracing from outside the program, and self-time analysis.

The traced run wraps the public entry point of each layer (module
functions at the call sites that import them by name, class methods on
their class) and records a span per call: name, start, end, parent and
operation id. Spans stay in memory until the run ends.

Layers called once per row (byte estimation, storage inserts, the wire
codec) would need millions of span records, so they are *leaf* layers:
each call adds its count and duration to the enclosing span instead.
A leaf has no traced layer below it (calls made while a leaf runs are
not traced), so its time is simply part of the enclosing span's child
time.

A span's self time is its duration minus the part of it covered by its
child spans (the union of their intervals, clipped to the span) and by
leaf calls made directly under it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time

#: (module, attribute, layer, leaf?) — every wrapped boundary
PATCH_SITES = (
    ("repro.core.service", "parse_select", "sql.parse", False),
    ("repro.core.service", "decompose", "unity.decompose", False),
    ("repro.core.service", "execute_plan", "unity.execute_plan", False),
    ("repro.unity.merge", "Integrator.integrate", "unity.merge", False),
    ("repro.engine.executor", "SelectExecutor.execute", "engine.executor", False),
    ("repro.core.router", "SubQueryRouter.__call__", "core.router", False),
    ("repro.core.router", "connect", "driver.connect", False),
    ("repro.poolral.ral", "PoolRAL.execute_sql", "poolral.execute", False),
    ("repro.clarens.server", "ClarensServer.dispatch", "clarens.dispatch", False),
    ("repro.rls.client", "RLSClient.lookup", "rls.lookup", False),
    ("repro.warehouse.warehouse", "Warehouse.load", "warehouse.etl", False),
    ("repro.marts.materialize", "MartSet.replicate", "marts.replicate", False),
    ("repro.obs.profiler", "QueryProfiler.record", "obs.profiler", False),
    ("repro.obs.archive", "MetricsArchiver.maybe_snapshot", "obs.archive", False),
    ("repro.clarens.client", "payload_bytes", "clarens.codec", True),
    ("repro.core.router", "estimate_row_bytes", "engine.row_bytes", True),
    ("repro.warehouse.etl", "estimate_row_bytes", "engine.row_bytes", True),
    ("repro.engine.storage", "TableStorage.insert", "engine.storage.insert", True),
    ("repro.engine.storage", "TableStorage.append_rows", "engine.storage.append", True),
    ("repro.cache.manager", "CacheManager.get_plan", "cache.lookup", True),
    ("repro.cache.manager", "CacheManager.lookup_sub", "cache.lookup", True),
    ("repro.cache.remote", "RemoteAnswerCache.get", "cache.lookup", True),
    ("repro.cache.manager", "CacheManager.put_plan", "cache.store", True),
    ("repro.cache.manager", "CacheManager.store_sub", "cache.store", True),
    ("repro.cache.remote", "RemoteAnswerCache.put", "cache.store", True),
)

#: every layer name, in report order; ``bench.op`` is the operation's
#: root span (client-side code no layer wraps, e.g. the Clarens client)
LAYERS = ("bench.op",) + tuple(dict.fromkeys(site[2] for site in PATCH_SITES))

# span record fields (a list per span keeps recording cheap)
NAME, START, END, PARENT, OP, LEAVES = range(6)


class Recorder:
    """Collects spans and per-call counts while an operation is open."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._leaf_depth = 0
        self._op = -1
        #: extra counts taken at the boundaries (rows, routes, bytes)
        self.counts: dict[str, float] = {}

    # -- operations ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._open("bench.op", -1)

    def end_op(self) -> None:
        self._close()
        self._op = -1

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, parent: int) -> int:
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._op, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter_ns()

    def span(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack or self._leaf_depth:
                return fn(*args, **kwargs)
            self._open(name, self._stack[-1])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def leaf(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack or self._leaf_depth:
                return fn(*args, **kwargs)
            self._leaf_depth += 1
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                self._leaf_depth -= 1
                record = self.spans[self._stack[-1]]
                leaves = record[LEAVES]
                if leaves is None:
                    leaves = record[LEAVES] = {}
                acc = leaves.get(name)
                if acc is None:
                    leaves[name] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")


# -- counts taken at boundaries ------------------------------------------------


def _after_merge(rec: Recorder, args, result) -> None:
    sub_results = args[2]
    rec.count("unity.merge.rows_in", sum(len(r[2]) for r in sub_results.values()))


def _after_executor(rec: Recorder, args, result) -> None:
    rec.count("engine.rows_examined", result.stats.rows_examined)
    rec.count("engine.rows_returned", len(result.rows))


def _after_router(rec: Recorder, args, result) -> None:
    rec.count(f"core.router.subqueries_{result[3]}")


def _after_codec(rec: Recorder, args, result) -> None:
    rec.count("clarens.wire_bytes", result)


def _after_etl(rec: Recorder, args, result) -> None:
    rec.count("warehouse.rows", result.rows)
    rec.count("warehouse.staged_bytes", result.staged_bytes)


AFTER = {
    "unity.merge": _after_merge,
    "engine.executor": _after_executor,
    "core.router": _after_router,
    "clarens.codec": _after_codec,
    "warehouse.etl": _after_etl,
}


class installed:
    """Context manager: wrap every patch site, restore on exit."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        for module_name, attr, layer, leaf in PATCH_SITES:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            make = self.recorder.leaf if leaf else self.recorder.span
            setattr(owner, name, make(original, layer, AFTER.get(layer)))
            self._saved.append((owner, name, original))
        return self.recorder

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


# -- analysis -------------------------------------------------------------------


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list[list]) -> list[tuple[int, dict]]:
    """Per span: ``(self_ns, {leaf layer: [calls, ns]})``."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        leaves = s[LEAVES] or {}
        covered = covered_ns(s[START], s[END], children.get(i, ()))
        covered += sum(acc[1] for acc in leaves.values())
        out.append((s[END] - s[START] - covered, leaves))
    return out


def layer_totals(spans: list[list], factor=lambda op: 1.0, ops=lambda op: True) -> dict[str, list]:
    """Per layer: ``[calls, self ns]`` over spans of the operations
    ``ops`` selects, each operation's time scaled by ``factor(op)``."""
    totals = {layer: [0, 0.0] for layer in LAYERS}
    for s, (self_ns, leaves) in zip(spans, self_times(spans)):
        op = s[OP]
        if not ops(op):
            continue
        f = factor(op)
        acc = totals.setdefault(s[NAME], [0, 0.0])
        acc[0] += 1
        acc[1] += self_ns * f
        for name, (calls, ns) in leaves.items():
            acc = totals.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += ns * f
    return totals


def check_op_sums(spans: list[list]) -> list[str]:
    """Per operation, every self time must be non-negative and the self
    times (leaves included) must sum to no more than the root span."""
    problems = []
    roots: dict[int, int] = {}
    sums: dict[int, int] = {}
    for s, (self_ns, leaves) in zip(spans, self_times(spans)):
        op = s[OP]
        if self_ns < 0:
            problems.append(f"op {op}: span {s[NAME]} has negative self time {self_ns} ns")
        if s[PARENT] < 0:
            roots[op] = s[END] - s[START]
        sums[op] = sums.get(op, 0) + max(self_ns, 0) + sum(acc[1] for acc in leaves.values())
    problems += [
        f"op {op}: self times sum to {sums[op]} ns, root span is {root} ns"
        for op, root in roots.items()
        if sums[op] > root
    ]
    return problems
