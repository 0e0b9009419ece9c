"""Percentile and span self-time arithmetic."""

import numpy as np
import pytest

from perfbench.analysis import (
    percentile,
    rank_breakdown,
    relative_spread,
    samples_beyond,
    schedule_idle_share,
    self_ms,
    step_breakdown,
    union_ms,
)


def _span(name, cat, ts, dur):
    return {"name": name, "cat": cat, "ts_ms": ts, "dur_ms": dur}


def test_percentile_known_values():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4], 90) == pytest.approx(3.7)
    assert percentile([7.0], 90) == 7.0
    assert percentile([1, 2, 3], 0) == 1 and percentile([1, 2, 3], 100) == 3


def test_percentile_matches_numpy_linear():
    xs = np.random.default_rng(0).lognormal(size=137)
    for q in (0, 10, 50, 75, 90, 99, 100):
        assert percentile(xs, q) == pytest.approx(np.percentile(xs, q), rel=1e-12)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_p90():
    # 110 steps leave 11 beyond the p90 rank; 100 leave exactly 10.
    assert samples_beyond(110, 90) == 11
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(91, 90) == 9


def test_union_counts_overlap_once():
    assert union_ms([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4
    assert union_ms([]) == 0.0


def test_self_time_subtracts_clipped_children():
    parent = _span("F0", "mp.phase", 10.0, 10.0)  # [10, 20]
    children = [_span("w", "mp.wait", 8.0, 4.0),    # covers [10, 12]
                _span("w", "mp.wait", 14.0, 2.0),   # [14, 16]
                _span("w", "mp.wait", 15.0, 2.0),   # overlaps -> [14, 17]
                _span("w", "mp.wait", 19.0, 5.0)]   # [19, 20]
    assert self_ms(parent, children) == pytest.approx(10.0 - 2 - 3 - 1)


def test_rank_breakdown_separates_wait_from_compute():
    spans = [_span("barrier", "mp.wait", 0.0, 1.0),
             _span("F0", "mp.phase", 1.0, 4.0),
             _span("recv", "mp.wait", 2.0, 1.0),
             _span("send", "mp.async", 3.0, 4.0),   # in flight, not blocked
             _span("B0", "mp.phase", 5.0, 5.0)]
    b = rank_breakdown(spans)
    assert b["extent_ms"] == 10.0
    assert b["wait_ms"] == 2.0
    assert b["compute_ms"] == pytest.approx(3.0 + 5.0)


def test_step_breakdown_across_ranks_and_stages():
    timelines = {
        0: [_span("F", "mp.phase", 0.0, 8.0), _span("w", "mp.wait", 2.0, 2.0)],
        1: [_span("F", "mp.phase", 0.0, 10.0), _span("w", "mp.wait", 0.0, 5.0)],
    }
    out = step_breakdown(timelines, {0: 0, 1: 1})
    assert out["extent_ms"] == 10.0
    assert out["wait_ms"] == 5.0
    assert out["compute_ms"] == 6.0
    assert out["exposed_share"] == 0.5
    assert out["idle_share"] == pytest.approx(0.5)  # stage 1: 1 - 5/10


def test_step_breakdown_idle_uses_busiest_rank_of_a_stage():
    timelines = {
        0: [_span("F", "mp.phase", 0.0, 10.0), _span("w", "mp.wait", 0.0, 4.0)],
        1: [_span("F", "mp.phase", 0.0, 10.0), _span("w", "mp.wait", 0.0, 1.0)],
    }
    out = step_breakdown(timelines, {0: 0, 1: 0})
    assert out["idle_share"] == pytest.approx(0.1)


def _ops(schedule, pp, m):
    from repro.parallel.pipeline import schedule_ops

    return {s: [(op.kind, op.microbatch) for op in schedule_ops(schedule, pp, s, m)]
            for s in range(pp)}


@pytest.mark.parametrize("schedule", ["gpipe", "1f1b"])
@pytest.mark.parametrize("pp,m", [(2, 8), (2, 1), (4, 4)])
def test_schedule_idle_share_is_the_pipeline_bubble(schedule, pp, m):
    # Uniform costs: every stage idles (p-1) of (m+p-1) slots.
    assert schedule_idle_share(_ops(schedule, pp, m)) == pytest.approx(
        (pp - 1) / (m + pp - 1))


def test_schedule_idle_share_single_stage_and_deadlock():
    assert schedule_idle_share(_ops("1f1b", 1, 4)) == 0.0
    with pytest.raises(ValueError):
        schedule_idle_share({0: [("B", 0), ("F", 0)]})


def test_relative_spread():
    assert relative_spread([1.0] * 10) == 0.0
    xs = [90, 95, 100, 105, 110]
    q1, q3 = 92.5, 107.5  # statistics.quantiles exclusive method
    assert relative_spread(xs) == pytest.approx((q3 - q1) / 100)
