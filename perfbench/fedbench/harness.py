"""Runs a workload: set-up, the closed-loop operation stream, metrics.

One client, no threads: each operation starts when the previous one
and its answer check have finished (a closed loop). Only the call into
the program is timed; answer checks, kernel timings and bookkeeping
happen between operations. The loop runs whole passes, so every
operation kind keeps its share of the samples.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import sys
import time
from dataclasses import dataclass, field

from fedbench import measure, tracing

#: a run completes at least this many passes
MIN_PASSES = 3
#: samples a tail percentile should leave beyond it
TAIL_BEYOND = 10
#: how many failure messages go to stderr
MAX_REPORTED = 5


@dataclass
class LoopResult:
    meter: measure.Meter
    ops: int = 0
    passes: int = 0
    failed: int = 0
    rows: int = 0
    sim_ms: list[float] = field(default_factory=list)
    first_pass: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: per operation: its pass, and whether it ran traced
    pass_of: list[int] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    #: rows delivered by traced operations, and the workload's counters'
    #: growth over the traced passes
    traced_rows: int = 0
    traced_counts: dict[str, float] = field(default_factory=dict)
    #: peak resident memory once the fixed first passes are done
    rss_mb: float = 0.0


def _note(errors: list[str], message: str) -> None:
    if len(errors) < MAX_REPORTED:
        print(f"perfbench: {message}", file=sys.stderr)
    errors.append(message)


def build_world(workload):
    """Run the workload's set-up ``workload.setups`` times; keep the last
    world. Returns ``(world, raw seconds per set-up, kernel timings)``."""
    raw, kernels = [], []
    world = None
    for _ in range(workload.setups):
        world = None
        gc.collect()
        kernels.append(measure.kernel_ns())
        t0 = time.perf_counter_ns()
        world = workload.setup()
        raw.append((time.perf_counter_ns() - t0) / 1e9)
    kernels.append(measure.kernel_ns())
    return world, raw, kernels


def run_loop(workload, world, seconds: float,
             recorder: tracing.Recorder | None = None) -> LoopResult:
    """Run whole passes until ``seconds`` have elapsed.

    At least ``MIN_PASSES`` run, and at least the workload's
    ``sim_passes``, whose simulated times make ``sim_ms_mean``. With a
    ``recorder``, even passes run traced and odd ones untraced, so both
    see the same mix of CPU regimes.
    """
    meter = measure.Meter(workload.elasticity)
    result = LoopResult(meter)
    gc.collect()
    meter.start()
    deadline = time.perf_counter() + seconds
    for ops in workload.passes():
        traced = recorder is not None and result.passes % 2 == 0
        with contextlib.ExitStack() as stack:
            if traced:
                before = workload.counters(world)
                stack.enter_context(tracing.installed(recorder))
            for op in ops:
                _run_op(workload, world, op, result, recorder if traced else None)
            if traced:
                for key, value in workload.counters(world).items():
                    growth = value - before.get(key, 0)
                    result.traced_counts[key] = result.traced_counts.get(key, 0) + growth
        result.passes += 1
        fixed = max(MIN_PASSES, workload.sim_passes)
        if result.passes == fixed:
            result.rss_mb = measure.peak_rss_mb()
        if result.passes >= fixed and time.perf_counter() >= deadline:
            break
    meter.finish()
    return result


def _run_op(workload, world, op, result: LoopResult, recorder) -> None:
    """Time one operation, then check it (untimed)."""
    error = None
    outcome = None
    if recorder is not None:
        recorder.begin_op(result.ops)
    t0 = time.perf_counter_ns()
    try:
        outcome = workload.execute(world, op)
    except Exception as exc:  # noqa: BLE001 - a failed operation is a result
        error = f"{op!r} raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter_ns() - t0
        if recorder is not None:
            recorder.end_op()
    result.meter.add(elapsed)
    result.ops += 1
    result.pass_of.append(result.passes)
    result.traced.append(recorder is not None)
    if error is None:
        error = workload.check(world, op, outcome)
    if error is not None:
        result.failed += 1
        _note(result.errors, f"{workload.name}: {error}")
    else:
        result.rows += outcome.row_count
        if recorder is not None:
            result.traced_rows += outcome.row_count
    if result.passes < workload.sim_passes:
        result.sim_ms.append(outcome.sim_ms if outcome is not None else float("nan"))
    if result.passes == 0:
        result.first_pass.append((op, outcome))
    result.meter.tick()


def end_to_end(workload, seconds: float) -> tuple[dict, dict, LoopResult, list[str]]:
    """The untraced run: ``(metrics, raw extras, loop result, fidelity problems)``."""
    world, setup_raw, setup_kernels = build_world(workload)
    loop = run_loop(workload, world, seconds=seconds)
    # one set-up spans many regime switches: scale it by the run's
    # typical kernel time, not the two timings around it
    setup_factor = measure.speed_factor(
        statistics.median(setup_kernels + loop.meter.kernels), measure.SETUP_ELASTICITY
    )
    fidelity = workload.fidelity(loop.first_pass)
    for problem in fidelity:
        _note(loop.errors, f"fidelity: {problem}")
    ref = loop.meter.ref_ns()
    raw = loop.meter.raw_ns()
    busy_s = sum(ref) / 1e9
    tail, beyond, n = measure.percentile([ns / 1e6 for ns in ref], workload.tail_pct)
    raw_tail, _, _ = measure.percentile([ns / 1e6 for ns in raw], workload.tail_pct)
    if beyond < TAIL_BEYOND:
        print(f"perfbench: only {beyond} samples beyond p{workload.tail_pct} "
              f"(run longer for a steady tail)", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setup_raw) * setup_factor, "s"),
        "ops_per_s": ((loop.ops - loop.failed) / busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(ref) / 1e6, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "rows_per_s": (loop.rows / busy_s, "rows/s"),
        "sim_ms_mean": (sum(loop.sim_ms) / len(loop.sim_ms), "ms"),
        # read after a fixed number of passes: the program keeps per-query
        # telemetry, so a faster commit would otherwise pay for running
        # more queries in the same seconds
        "peak_rss_mb": (loop.rss_mb, "MiB"),
    }
    extras = {
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "setup_s_all": setup_raw,
            "ops_per_s": (loop.ops - loop.failed) / (sum(raw) / 1e9),
            "latency_p50_ms": statistics.median(raw) / 1e6,
            "latency_tail_ms": raw_tail,
            "peak_rss_mb_at_end": measure.peak_rss_mb(),
        },
        "tail_percentile": workload.tail_pct,
        "tail_samples_beyond": beyond,
        "samples": n,
        "ops": loop.ops,
        "passes": loop.passes,
        "kernel_ms_median": statistics.median(loop.meter.kernels) / 1e6,
        "error_frac": loop.failed / loop.ops,
        "fidelity_ok": not fidelity,
    }
    return metrics, extras, loop, fidelity


def traced(workload, seconds: float, spans_path=None) -> tuple[dict, dict, LoopResult, list[str]]:
    """The traced run: per-layer self times, trace self-check, overhead.

    The world's set-up is traced (operation id -1). Passes then
    alternate traced and untraced on that world; the difference in time
    per operation between them, leaving out the cold first pass, is the
    tracing overhead.
    """
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        recorder.begin_op(-1)
        world = workload.setup()
        recorder.end_op()
    loop = run_loop(workload, world, seconds, recorder)
    setup_factor = measure.speed_factor(
        statistics.median(loop.meter.kernels), measure.SETUP_ELASTICITY
    )
    if spans_path is not None:
        recorder.write(spans_path)

    op_factors = loop.meter.op_factors()

    def factor(op: int) -> float:
        return setup_factor if op < 0 else op_factors[op]

    totals = tracing.layer_totals(recorder.spans, factor, lambda op: op >= 0)
    setup_totals = tracing.layer_totals(recorder.spans, factor, lambda op: op < 0)
    n = sum(loop.traced)
    problems = list(tracing.check_op_sums(recorder.spans))
    for layer in sorted(workload.expect_active):
        if totals[layer][0] == 0:
            problems.append(f"layer {layer} recorded no calls on {workload.name}")
    for layer in sorted(workload.expect_zero):
        if totals[layer][0] != 0:
            problems.append(
                f"layer {layer} recorded {totals[layer][0]} calls on {workload.name}, expected none"
            )
    for problem in problems:
        _note(loop.errors, f"trace self-check: {problem}")

    ref = loop.meter.ref_ns()
    warm = [(t, ns) for t, p, ns in zip(loop.traced, loop.pass_of, ref) if p > 0]
    traced_ms = statistics.fmean(ns for t, ns in warm if t) / 1e6
    untraced_ms = statistics.fmean(ns for t, ns in warm if not t) / 1e6
    counts = recorder.counts
    delta = loop.traced_counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def hit_rate(level: str) -> float:
        hits = delta.get(f"cache.{level}.hits", 0)
        return ratio(hits, hits + delta.get(f"cache.{level}.misses", 0))

    metrics = {
        "trace.ops": (n, "count"),
        "trace.untraced_ms": (untraced_ms, "ms"),
        "trace.overhead_ms": (traced_ms - untraced_ms, "ms"),
        "trace.overhead_ratio": (ratio(traced_ms, untraced_ms), "ratio"),
        "trace.self_check_failures": (len(problems), "count"),
    }
    for layer in tracing.LAYERS:
        calls, self_ns = totals[layer]
        metrics[f"{layer}.self_ms"] = (self_ns / n / 1e6, "ms")
        metrics[f"{layer}.calls"] = (calls, "count")
    metrics.update({
        "unity.merge.rows_in": (counts.get("unity.merge.rows_in", 0) / n, "rows"),
        "engine.rows_examined_per_returned": (
            ratio(counts.get("engine.rows_examined", 0), counts.get("engine.rows_returned", 0)),
            "ratio",
        ),
        "engine.row_bytes.calls_per_row_out": (
            ratio(totals["engine.row_bytes"][0], loop.traced_rows), "ratio",
        ),
        "core.router.subqueries_pool": (counts.get("core.router.subqueries_pool", 0) / n, "count"),
        "core.router.subqueries_jdbc": (counts.get("core.router.subqueries_jdbc", 0) / n, "count"),
        "core.router.subqueries_remote": (
            counts.get("core.router.subqueries_remote", 0) / n, "count",
        ),
        "net.bytes": (delta.get("net.bytes", 0) / n, "B"),
        "clarens.wire_bytes": (counts.get("clarens.wire_bytes", 0) / n, "B"),
        "cache.plan.hit_rate": (hit_rate("plan"), "ratio"),
        "cache.sub.hit_rate": (hit_rate("sub"), "ratio"),
        "cache.remote.hit_rate": (hit_rate("remote"), "ratio"),
        "cache.evictions": (delta.get("cache.evictions", 0) / n, "count"),
        "obs.spans": (delta.get("obs.spans", 0) / n, "count"),
        "warehouse.staged_bytes_per_row": (
            ratio(counts.get("warehouse.staged_bytes", 0), counts.get("warehouse.rows", 0)),
            "B",
        ),
        "setup.storage.self_ms": (
            sum(setup_totals[layer][1]
                for layer in ("engine.storage.insert", "engine.storage.append")) / 1e6,
            "ms",
        ),
    })
    extras = {
        "ops": loop.ops,
        "traced_ops": n,
        "passes": loop.passes,
        "spans": len(recorder.spans),
        "error_frac": loop.failed / loop.ops,
    }
    return metrics, extras, loop, problems
