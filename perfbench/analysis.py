"""Pure arithmetic of the benchmark: percentiles and span self time.

Everything here works on plain numbers and span dicts (``name``/``cat``/
``ts_ms``/``dur_ms``, the shape of ``StepResult.timelines`` entries and
of the benchmark's own spans), so it is tested without running a model.
"""

from __future__ import annotations

import math

#: Span categories on a worker timeline that mark the rank as blocked
#: (waiting on a peer, a barrier or an injected fault) rather than
#: computing.  ``mp.async`` windows are in-flight transfers that overlap
#: compute, so they are not subtracted.
BLOCKED_CATS = ("mp.wait", "mp.fault")

#: Worker span category of one F/B schedule op.
PHASE_CAT = "mp.phase"


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches NumPy's default (``method="linear"``): rank ``q/100·(n-1)``
    interpolated between its two neighbours of the sorted values.
    """
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = q / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile
    rank; a percentile is reported only when this is at least 10."""
    return n - 1 - math.floor(q / 100.0 * (n - 1))


def union_ms(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals (overlaps once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_ms(span: dict, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    start = span["ts_ms"]
    end = start + span["dur_ms"]
    clipped = [(max(start, c["ts_ms"]), min(end, c["ts_ms"] + c["dur_ms"]))
               for c in children]
    return span["dur_ms"] - union_ms(clipped)


def extent_ms(spans) -> float:
    """Wall interval from the first span's start to the last span's end."""
    if not spans:
        return 0.0
    return (max(s["ts_ms"] + s["dur_ms"] for s in spans)
            - min(s["ts_ms"] for s in spans))


def rank_breakdown(spans) -> dict:
    """One rank's step timeline reduced to extent, blocked and compute ms.

    ``compute_ms`` is the F/B phase spans' self time after removing the
    blocked spans nested in them; ``wait_ms`` is the union of every
    blocked span, inside a phase or not (the step-start barrier is not).
    """
    blocked = [s for s in spans if s["cat"] in BLOCKED_CATS]
    phases = [s for s in spans if s["cat"] == PHASE_CAT]
    return {
        "extent_ms": extent_ms(spans),
        "wait_ms": union_ms((s["ts_ms"], s["ts_ms"] + s["dur_ms"])
                            for s in blocked),
        "compute_ms": sum(self_ms(p, blocked) for p in phases),
    }


def step_breakdown(timelines: dict, stage_of: dict) -> dict:
    """Cross-rank reduction of one step's worker timelines.

    ``timelines`` maps rank to its span list; ``stage_of`` maps rank to
    its pipeline stage.  Returns the slowest rank's extent, the largest
    per-rank wait and compute time, the wait share of the rank that
    waited most, and the pipeline idle share (per stage ``1 - compute /
    extent`` of its busiest rank, maximum over stages).
    """
    per_rank = {r: rank_breakdown(spans) for r, spans in timelines.items()}
    waiter = max(per_rank, key=lambda r: per_rank[r]["wait_ms"])
    w = per_rank[waiter]
    stage_idle: dict[int, float] = {}
    for r, b in per_rank.items():
        if b["extent_ms"] <= 0:
            continue
        idle = 1.0 - b["compute_ms"] / b["extent_ms"]
        s = stage_of[r]
        stage_idle[s] = min(stage_idle.get(s, idle), idle)
    return {
        "extent_ms": max(b["extent_ms"] for b in per_rank.values()),
        "wait_ms": w["wait_ms"],
        "compute_ms": max(b["compute_ms"] for b in per_rank.values()),
        "exposed_share": (w["wait_ms"] / w["extent_ms"]
                          if w["extent_ms"] > 0 else 0.0),
        "idle_share": max(stage_idle.values()) if stage_idle else 0.0,
    }


def schedule_idle_share(ops_by_stage: dict, f_cost: float = 1.0,
                        b_cost: float = 2.0) -> float:
    """Ideal pipeline idle share of a per-stage F/B op list.

    Replays each stage's op order with fixed op costs and the pipeline's
    dependencies (``F(s, i)`` after ``F(s-1, i)``; ``B(s, i)`` after
    ``B(s+1, i)`` and ``F(s, i)``) with free transfers; returns the
    largest per-stage ``1 - busy / makespan``.  A single stage never
    idles.
    """
    stages = sorted(ops_by_stage)
    last = stages[-1]
    done: dict[tuple[str, int, int], float] = {}
    clock = {s: 0.0 for s in stages}
    cursor = {s: 0 for s in stages}
    busy = {s: 0.0 for s in stages}
    remaining = sum(len(ops) for ops in ops_by_stage.values())
    while remaining:
        progressed = False
        for s in stages:
            ops = ops_by_stage[s]
            if cursor[s] == len(ops):
                continue
            kind, mb = ops[cursor[s]]
            deps = [("F", s - 1, mb)] if kind == "F" and s > stages[0] else []
            if kind == "B":
                deps.append(("F", s, mb))
                if s < last:
                    deps.append(("B", s + 1, mb))
            if any(d not in done for d in deps):
                continue
            cost = f_cost if kind == "F" else b_cost
            start = max([clock[s]] + [done[d] for d in deps])
            done[(kind, s, mb)] = clock[s] = start + cost
            busy[s] += cost
            cursor[s] += 1
            remaining -= 1
            progressed = True
        if not progressed:
            raise ValueError("schedule deadlocks under pipeline dependencies")
    makespan = max(clock.values())
    return max(1.0 - busy[s] / makespan for s in stages)


def relative_spread(values) -> float:
    """Interquartile range as a share of the median (the bound check)."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
