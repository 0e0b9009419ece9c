"""Execute the pinned suite and write a schema-valid ``BENCH_<sha>.json``.

Timing and profiling are separate passes per case: wall-time rounds run
with no hooks installed (so the medians measure the real hot path), then
one extra profiled pass collects the deterministic rollups — FLOPs, op
and allocation counts from :class:`~repro.obs.profile.OpProfiler`, wire
bytes from ``CommTracker.summary()``.  The deterministic half is what
``compare`` pins exactly; wall times are gated with a machine-normalized
tolerance.
"""

from __future__ import annotations

import json
import os
import subprocess
import time

import numpy as np

from repro.bench.schema import SCHEMA_VERSION, validate_bench
from repro.bench.suite import BenchCase, default_suite
from repro.bench.timing import machine_calibration_ms, timed

__all__ = ["run_suite", "git_sha", "bench_filename"]

#: (warmup, rounds) per case kind, keyed by quick mode. Even quick mode
#: keeps 3 rounds: the gate compares medians, and a median of 3 absorbs
#: one scheduler hiccup where a median of 2 (= the mean) cannot.
_REPEATS = {
    True: {"mp_step": (1, 3), "finetune": (0, 3), "sim": (1, 3),
           "backend_step": (1, 3), "degraded": (0, 3)},
    False: {"mp_step": (2, 5), "finetune": (1, 5), "sim": (2, 5),
            "backend_step": (1, 5), "degraded": (0, 5)},
}


def git_sha(short: bool = True) -> str:
    """Current commit sha, or ``"unknown"`` outside a git checkout."""
    cmd = ["git", "rev-parse"] + (["--short"] if short else []) + ["HEAD"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def bench_filename(sha: str) -> str:
    return f"BENCH_{sha}.json"


# ----------------------------------------------------------------------
# Case runners
# ----------------------------------------------------------------------
def _mp_step_workload(case: BenchCase):
    """Build (step_fn, model, optimizer) for one mp_step case."""
    from repro.optim import Adam
    from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
    from repro.training.finetune import default_accuracy_model

    cfg = ModelParallelConfig(
        default_accuracy_model(num_classes=2, seed=0),
        tp=case.tp, pp=case.pp, scheme=case.scheme, seed=0,
    )
    model = ModelParallelBertClassifier(cfg)
    optimizer = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    input_ids = rng.integers(0, cfg.model.vocab_size, size=(16, 16))
    labels = rng.integers(0, 2, size=16)
    mask = np.ones((16, 16), dtype=np.int64)

    def step():
        model.tracker.reset()
        optimizer.zero_grad()
        loss = model.loss(input_ids, labels, mask)
        loss.backward()
        optimizer.step()
        return loss.item()

    return step, model, optimizer, (input_ids, labels, mask)


def _profile_mp_step(case: BenchCase, record_events: bool = False):
    """One profiled step: returns (profiler summary, tracker summary, profiler)."""
    from repro.obs.profile import OpProfiler

    step, model, optimizer, (input_ids, labels, mask) = _mp_step_workload(case)
    prof = OpProfiler(record_events=record_events)
    prof.watch(model.tracker)
    model.tracker.reset()
    with prof:
        with prof.span(f"step {case.id}", cat="step", rank=0):
            optimizer.zero_grad()
            with prof.span("forward", cat="phase"):
                loss = model.loss(input_ids, labels, mask)
            with prof.span("backward", cat="phase"):
                loss.backward()
            with prof.span("optimizer", cat="phase"):
                optimizer.step()
    comm = {"/".join(key): value for key, value in model.tracker.summary().items()}
    return prof.summary(), comm, prof


def _run_mp_step(case: BenchCase, warmup: int, rounds: int) -> dict:
    step, *_ = _mp_step_workload(case)
    timing = timed(step, warmup=warmup, rounds=rounds)
    summary, comm, _ = _profile_mp_step(case)
    deterministic = {
        "flops": summary["flops"],
        "op_calls": summary["op_calls"],
        "alloc_bytes": summary["alloc_bytes"],
        "peak_alloc_bytes": summary["peak_alloc_bytes"],
        "comm_events": summary["comm_events"],
        "comm_bytes": comm,
    }
    return {"wall_ms": timing.as_dict(), "deterministic": deterministic}


def _run_backend_step(case: BenchCase, warmup: int, rounds: int) -> dict:
    """One optimizer step through an execution backend.

    Backend construction (spawning workers, allocating shared memory for
    the mp case) happens once, outside the timed region — the suite tracks
    steady-state step cost, not cold start.  Deterministic metrics stay
    machine-independent: comm event counts and wire bytes only (step losses
    depend on BLAS accumulation order and may differ across machines).
    """
    from repro.optim import Adam
    from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
    from repro.parallel.backend import create_backend
    from repro.training.finetune import default_accuracy_model

    cfg = ModelParallelConfig(
        default_accuracy_model(num_classes=2, seed=0),
        tp=case.tp, pp=case.pp, dp=case.dp, sp=case.sp,
        scheme=case.scheme, seed=0,
        backend=case.backend, pipeline_schedule=case.schedule,
        num_microbatches=case.microbatches,
    )
    model = ModelParallelBertClassifier(cfg)
    optimizer = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    input_ids = rng.integers(0, cfg.model.vocab_size, size=(16, 16))
    labels = rng.integers(0, 2, size=16)
    mask = np.ones((16, 16), dtype=np.int64)

    backend = create_backend(case.backend, model)
    collector = None
    try:
        def step():
            optimizer.zero_grad()
            result = backend.train_step(input_ids, labels, mask)
            backend.apply_grads(model, result)
            optimizer.step()
            backend.sync_weights(model)
            return result

        timing = timed(step, warmup=warmup, rounds=rounds)
        result = timing.result
        deterministic = {
            "comm_events": len(result.events),
            "comm_bytes": {"/".join(key): value
                           for key, value in model.tracker.summary().items()},
        }
        from repro.obs.telemetry.agent import enabled as _telemetry_enabled

        if _telemetry_enabled():
            from repro.obs.telemetry import Collector

            collector = Collector()
            collector.drain(backend, grace_s=0.2)
    finally:
        backend.close()
    out = {"wall_ms": timing.as_dict(), "deterministic": deterministic}
    if collector is not None:
        # close() parks late queue batches in the backlog; fold them in
        # before freezing the per-case snapshot.
        collector.drain(backend)
        out["telemetry"] = collector.snapshot()
    return out


def _run_finetune(case: BenchCase, warmup: int, rounds: int) -> dict:
    from repro.training.finetune import finetune_on_task
    from repro.training.trainer import TrainConfig

    def run():
        return finetune_on_task(
            "RTE", scheme=case.scheme, tp=case.tp, pp=case.pp,
            train_config=TrainConfig(epochs=1, lr=1e-3, seed=0, batch_size=64),
            seed=0,
        )

    timing = timed(run, warmup=warmup, rounds=rounds)
    return {"wall_ms": timing.as_dict(), "deterministic": {}}


def _sim_setting(case: BenchCase):
    from repro.parallel.topology import ClusterTopology, LinkType
    from repro.simulator.iteration import SimSetting

    world = case.tp * case.pp
    topo = ClusterTopology(1, world, LinkType.PCIE)
    return SimSetting(topo, case.tp, case.pp, 32, 512,
                      num_microbatches=4, scheme=case.scheme,
                      schedule=case.schedule)


def _run_sim(case: BenchCase, warmup: int, rounds: int) -> dict:
    from repro.simulator.iteration import IterationSimulator

    sim = IterationSimulator(_sim_setting(case))
    timing = timed(sim.breakdown, warmup=warmup, rounds=rounds)
    breakdown = timing.result
    deterministic = {
        "total_ms": breakdown.total_ms,
        "forward_ms": breakdown.forward_ms,
        "backward_ms": breakdown.backward_ms,
        "optimizer_ms": breakdown.optimizer_ms,
        "pipeline_ms": breakdown.pipeline_ms,
        "encode_ms": breakdown.encode_ms,
        "decode_ms": breakdown.decode_ms,
        "tensor_comm_ms": breakdown.tensor_comm_ms,
    }
    return {"wall_ms": timing.as_dict(), "deterministic": deterministic}


def _run_degraded(case: BenchCase, warmup: int, rounds: int) -> dict:
    """A backend step with the case's fault plan armed in every worker.

    ``REPRO_FAULT_PLAN`` must be set *before* backend construction — the
    workers read it once at spawn — and is restored afterwards so the
    rest of the suite stays healthy.  Zero warmup is deliberate: the
    planned faults fire on the earliest steps, which are exactly the
    ones a degraded median should include.  The deterministic metrics
    (comm events/bytes in the parent) are unaffected by worker-side
    retries, so they still pin the workload's identity.
    """
    from repro.parallel.backend import faults
    from repro.parallel.backend.env import scoped_env

    with scoped_env({faults.ENV_VAR: case.fault_plan}):
        return _run_backend_step(case, warmup, rounds)


_RUNNERS = {"mp_step": _run_mp_step, "finetune": _run_finetune,
            "sim": _run_sim, "backend_step": _run_backend_step,
            "degraded": _run_degraded}

#: Case whose profiled timeline is exported as the merged trace artifact.
_TRACE_CASE_ID = "mp_step/tp2pp2/A2"


def _worker_timeline_trace(case: BenchCase) -> dict:
    """One real 1F1B mp-backend step with per-rank timelines.

    The worker timelines carry the ``mp.async`` spans — issued collectives
    and staged ring sends still in flight — which render as Chrome async
    ``b``/``e`` pairs; CI's bench smoke asserts the artifact contains at
    least one, pinning the overlap machinery into the exported trace.
    """
    from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
    from repro.parallel.backend import create_backend
    from repro.obs.trace import worker_timelines_trace
    from repro.training.finetune import default_accuracy_model

    cfg = ModelParallelConfig(
        default_accuracy_model(num_classes=2, seed=0),
        tp=case.tp, pp=case.pp, scheme=case.scheme, seed=0, backend="mp",
        pipeline_schedule="1f1b", num_microbatches=4,
    )
    model = ModelParallelBertClassifier(cfg)
    rng = np.random.default_rng(0)
    input_ids = rng.integers(0, cfg.model.vocab_size, size=(16, 16))
    labels = rng.integers(0, 2, size=16)
    backend = create_backend("mp", model, collect_timelines=True)
    try:
        result = backend.train_step(input_ids, labels, None)
    finally:
        backend.close()
    # tp/pp let the trace exporter label tracks "rank N · tpX/ppY" via
    # Chrome process_name/thread_name metadata.
    return worker_timelines_trace(
        result.timelines,
        {"run_id": f"{case.id} (mp 1f1b m=4)", "schedule": "1f1b",
         "tp": case.tp, "pp": case.pp},
    )


def _trace_artifact(suite: list[BenchCase]) -> dict | None:
    """Merged (profiled real step | simulated iteration | mp worker
    timelines) Chrome trace."""
    from repro.obs.trace import merge_traces, profiler_trace, simulated_iteration_trace

    matches = [c for c in suite if c.id == _TRACE_CASE_ID]
    if not matches:
        return None
    case = matches[0]
    _, _, prof = _profile_mp_step(case, record_events=True)
    profiled = profiler_trace(prof, {"run_id": case.id})
    simulated = simulated_iteration_trace(_sim_setting(case))
    workers = _worker_timeline_trace(case)
    return merge_traces(profiled, simulated, workers,
                        meta={"bench_case": case.id})


# ----------------------------------------------------------------------
def run_suite(
    quick: bool = False,
    suite: list[BenchCase] | None = None,
    out_dir: str = ".",
    write_trace_artifact: bool = True,
    progress=None,
    suite_name: str = "default",
    only: str | None = None,
) -> tuple[dict, str, str | None]:
    """Run the suite; returns ``(doc, bench_path, trace_path_or_None)``.

    ``suite_name`` is recorded in the document; the compare gate refuses
    to gate documents from different suites against each other, which is
    what keeps degraded (faulted) runs away from the healthy baseline.

    ``only`` restricts the run to cases whose id matches the glob (e.g.
    ``backend_step/mp/*`` for the telemetry-overhead CI check); an empty
    match is an error rather than a silently empty document.
    """
    suite = default_suite() if suite is None else suite
    if only is not None:
        import fnmatch

        suite = [c for c in suite if fnmatch.fnmatch(c.id, only)]
        if not suite:
            raise ValueError(f"--only {only!r} matches no case in the suite")
    repeats = _REPEATS[bool(quick)]
    cases = []
    for case in suite:
        warmup, rounds = repeats[case.kind]
        result = _RUNNERS[case.kind](case, warmup, rounds)
        cases.append({"id": case.id, "kind": case.kind, "params": case.params(),
                      **result})
        if progress is not None:
            progress(case, cases[-1])

    sha = git_sha()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "git_sha": sha,
        "created_unix": time.time(),
        "quick": bool(quick),
        "suite": suite_name,
        "machine_calibration_ms": machine_calibration_ms(),
        "cases": cases,
    }
    validate_bench(doc)

    os.makedirs(out_dir, exist_ok=True)
    bench_path = os.path.join(out_dir, bench_filename(sha))
    with open(bench_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    trace_path = None
    if write_trace_artifact:
        trace = _trace_artifact(suite)
        if trace is not None:
            trace_path = os.path.join(out_dir, f"BENCH_{sha}.trace.json")
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(trace, fh)
    return doc, bench_path, trace_path
