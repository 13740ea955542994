"""Unit tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from fedbench import measure, tracing  # noqa: E402
from fedbench.datagen import Query  # noqa: E402
from fedbench.oracle import Oracle, compare, unmatched  # noqa: E402
from fedbench.tracing import END, LEAVES, NAME, OP, PARENT, START  # noqa: E402

# -- the tie-aware comparator -----------------------------------------------------


def test_multiset_equal_ignores_order_and_float_noise():
    got = [(2, "b", 0.30000000000000004), (1, "a", 1.0)]
    want = [(1, "a", 1.0), (2, "b", 0.3)]
    assert compare(got, want) is None


def test_multiset_counts_duplicates():
    assert compare([(1,), (1,)], [(1,), (2,)]) is not None
    assert unmatched([(1,), (1,)], [(1,)]) == [(1,)]


def test_float_difference_beyond_tolerance_is_rejected():
    assert compare([(1.0,)], [(1.0 + 1e-6,)]) is not None


def test_float_on_rounding_edge_still_matches():
    # 0.00005 rounds to 4 places differently from 0.0000499999999999 —
    # the neighbour-bucket fallback must still pair them
    assert compare([(0.00005,)], [(0.0000499999999999,)]) is None


def test_null_only_equals_null():
    assert compare([(None,)], [(None,)]) is None
    assert compare([(None,)], [(0,)]) is not None


def test_tie_at_limit_boundary_is_accepted():
    # ORDER BY n DESC LIMIT 2 over runs with n = 5, 4, 4: either tied
    # run may fill the last slot
    full = [(1, 5, 0.5), (2, 4, 0.25), (3, 4, 0.75)]
    want = [(1, 5, 0.5), (2, 4, 0.25)]
    got = [(1, 5, 0.5), (3, 4, 0.75)]
    assert compare(got, want, full, key=1) is None


def test_tie_aware_still_checks_keys_and_membership():
    full = [(1, 5, 0.5), (2, 4, 0.25), (3, 3, 0.75)]
    want = [(1, 5, 0.5), (2, 4, 0.25)]
    # wrong key order
    assert compare([(2, 4, 0.25), (1, 5, 0.5)], want, full, key=1) is not None
    # right keys but a row the full answer does not hold
    assert compare([(1, 5, 0.5), (9, 4, 0.25)], want, full, key=1) is not None
    # a row below the boundary
    assert compare([(1, 5, 0.5), (3, 3, 0.75)], want, full, key=1) is not None


def test_oracle_answers_limited_query_with_unlimited_answer():
    oracle = Oracle({"t": (["run_id", "e"], [[1, 1.0], [1, 2.0], [2, 3.0], [3, 4.0]])})
    try:
        query = Query(
            "aggregate",
            "SELECT run_id, COUNT(*) AS n FROM t GROUP BY run_id HAVING n > 0 "
            "ORDER BY n DESC LIMIT 2",
            order="n",
            limit=2,
        )
        rows, full, key = oracle.answer(query)
        assert key == 1 and len(rows) == 2 and len(full) == 3
        # the engine picked the other run tied at n = 1
        assert oracle.check(query, [(1, 2), (3, 1)]) is None
    finally:
        oracle.close()


# -- self time ---------------------------------------------------------------------


def span(name, start, end, parent=-1, op=0, leaves=None):
    record = [None] * 6
    record[NAME], record[START], record[END] = name, start, end
    record[PARENT], record[OP], record[LEAVES] = parent, op, leaves
    return record


def test_covered_merges_overlapping_and_clips():
    assert tracing.covered_ns(0, 100, [(10, 30), (20, 40), (90, 150)]) == 40
    assert tracing.covered_ns(0, 100, [(10, 20), (10, 20)]) == 10
    assert tracing.covered_ns(50, 100, [(0, 60)]) == 10
    assert tracing.covered_ns(0, 100, []) == 0


def test_self_time_nested_spans():
    spans = [
        span("root", 0, 100),
        span("a", 10, 60, parent=0),
        span("b", 20, 30, parent=1),
    ]
    selfs = [s for s, _ in tracing.self_times(spans)]
    assert selfs == [50, 40, 10]
    assert sum(selfs) == 100


def test_self_time_overlapping_children_not_double_counted():
    spans = [
        span("root", 0, 100),
        span("a", 10, 50, parent=0),
        span("b", 30, 70, parent=0),
    ]
    assert tracing.self_times(spans)[0][0] == 40


def test_leaf_time_counts_as_child_time():
    spans = [span("root", 0, 100, leaves={"leaf": [3, 30]})]
    (self_ns, leaves), = tracing.self_times(spans)
    assert self_ns == 70 and leaves == {"leaf": [3, 30]}
    totals = tracing.layer_totals(spans)
    assert totals["leaf"] == [3, 30] and totals["root"] == [1, 70]


def test_op_sum_check_flags_impossible_trace():
    good = [span("root", 0, 100), span("a", 10, 20, parent=0)]
    assert tracing.check_op_sums(good) == []
    # leaf time larger than the span it sits in
    bad = [span("root", 0, 100, leaves={"leaf": [1, 150]})]
    assert tracing.check_op_sums(bad)


def test_recorder_wraps_and_restores():
    recorder = tracing.Recorder()

    def inner():
        return 7

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = recorder.span(inner, "inner")
    wrapped_outer = recorder.span(outer, "outer")
    assert wrapped_outer() == 8  # no operation open: nothing recorded
    assert recorder.spans == []
    recorder.begin_op(0)
    wrapped_outer()
    recorder.end_op()
    names = [s[NAME] for s in recorder.spans]
    assert names == ["bench.op", "outer", "inner"]
    assert [s[PARENT] for s in recorder.spans] == [-1, 0, 1]


# -- percentile with sample count -------------------------------------------------


def test_percentile_counts_samples_beyond():
    values = list(range(100, 0, -1))  # 100..1, unsorted input
    assert measure.percentile(values, 90.0) == (90, 10, 100)
    assert measure.percentile(values, 99.0) == (99, 1, 100)
    assert measure.percentile(values, 50.0) == (50, 50, 100)


def test_percentile_nearest_rank_on_small_samples():
    assert measure.percentile([3.0, 1.0, 2.0], 75.0) == (3.0, 0, 3)
    assert measure.percentile([5.0], 99.0) == (5.0, 0, 1)
    assert measure.percentile(list(range(1000)), 99.0) == (989, 10, 1000)
    with pytest.raises(ValueError):
        measure.percentile([], 50.0)


def test_meter_scales_by_windowed_kernel_and_elasticity():
    ref = measure.REF_KERNEL_NS
    meter = measure.Meter(elasticity=1.0)
    meter.kernels = [ref, 2 * ref, ref]
    meter.segments = [[300, 600], [900]]
    # both segments see the mean of all three kernel timings: 4/3 ref
    assert meter.ref_ns() == pytest.approx([225, 450, 675])
    assert meter.op_factors() == pytest.approx([0.75, 0.75, 0.75])
    meter.elasticity = 0.5
    assert meter.op_factors()[0] == pytest.approx(0.75 ** 0.5)
    meter.elasticity = 0.0
    assert meter.ref_ns() == [300, 600, 900]


def test_meter_window_is_local():
    ref = measure.REF_KERNEL_NS
    meter = measure.Meter(elasticity=1.0)
    n = 2 * measure.WINDOW + 4
    meter.kernels = [ref] * (measure.WINDOW + 2) + [2 * ref] * (n + 1 - measure.WINDOW - 2)
    meter.segments = [[100]] * n
    factors = meter.factors()
    assert factors[0] == pytest.approx(1.0)  # the slow kernels are out of reach
    assert factors[-1] == pytest.approx(0.5)
