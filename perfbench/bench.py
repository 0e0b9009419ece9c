"""One workload run: set-up, training, output checks, metrics.

``run(..., trace=False)`` measures the end-to-end metrics with no
tracing: set-up several times (median ``setup_s``), then one training
pass of the full step budget.  ``run(..., trace=True)`` gives the
per-layer numbers: an untraced pass and a traced pass of half the budget
each on fresh gangs (their throughput difference is the tracing
overhead), then the per-layer probes.  Both run the output checks.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import time

from perfbench import checks, layers
from perfbench.analysis import (
    median,
    percentile,
    samples_beyond,
    schedule_idle_share,
    step_breakdown,
)
from perfbench.envinfo import environment
from perfbench.harness import PassResult, Tracer, train_pass
from perfbench.workloads import (
    Workload,
    eval_loss,
    held_out,
    oracle_step,
    setup,
)
from repro.parallel.collectives import dense_bytes
from repro.parallel.pipeline import schedule_ops
from repro.training.checkpoint import save_trainer_state


class RunFailed(RuntimeError):
    """A traced run lost its traced pass and cannot report per-layer data."""


#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

GROUPS = ("tp", "pp", "dp")


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process and any reaped worker (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _setups(w: Workload, seed: int, steps: int,
            repeats: int) -> tuple[list, object]:
    """``repeats`` cold set-ups; all but the last gang are closed again."""
    samples, last = [], None
    for i in range(repeats):
        last = setup(w, seed, steps)
        samples.append(last)
        if i < repeats - 1:
            last.backend.close()
    return samples, last


def _check(w: Workload, seed: int, config, p: PassResult, evl: float) -> dict:
    """Run every output check on a pass; raises CheckFailed."""
    b = p.backend
    problems = checks.eval_problems(evl)
    info = {"oracle_loss": None, "dp_grad_numel": None}
    if b.first_inputs is not None and b.losses:
        oracle_loss, numel = oracle_step(w, seed, b.first_inputs)
        info.update(oracle_loss=oracle_loss, dp_grad_numel=numel)
        problems += checks.loss_problems(b.losses[0], oracle_loss)
        problems += checks.event_problems(
            config, b.events, w.batch, w.seq,
            dp_grad_numel=numel)
    checks.require(problems)
    return info


def _e2e(p: PassResult, setup_s: list[float], evl: float) -> dict:
    b = p.backend
    steps = p.completed
    wire = sum(e.wire_bytes for events in b.events[:steps] for e in events)
    samples = sum(b.samples)
    # A pass whose first step already failed has no step to time.
    step_ms = b.step_ms or [0.0]
    return {
        "train_samples_per_s": p.samples_per_s,
        "step_ms_p50": percentile(step_ms, 50),
        "step_ms_p90": percentile(step_ms, 90),
        "setup_s": median(setup_s),
        "wire_bytes_per_sample": wire / samples if samples else 0.0,
        "eval_loss": evl,
        "peak_rss_mb": _peak_rss_mb(),
        "step_success_rate": steps / b.attempted,
    }


def _per_step_comm(events: list) -> dict:
    out = {}
    for g in GROUPS:
        mine = [e for e in events if e.group == g]
        out[f"comm.calls_per_step.{g}"] = len(mine)
        out[f"comm.wire_bytes_per_step.{g}"] = sum(e.wire_bytes for e in mine)
    dense = sum(dense_bytes(tuple(e.shape)) for e in events)
    out["compression.calls_per_step"] = sum(e.scheme != "none" for e in events)
    out["compression.wire_ratio"] = (
        sum(e.wire_bytes for e in events) / dense if dense else 1.0)
    return out


def _per_layer(w: Workload, seed: int, p: PassResult, tracer: Tracer,
               setups: list, untraced: PassResult, grad_numel: int) -> dict:
    b = p.backend
    steps = p.completed
    # Global rank = ((dp_rank * pp + stage) * sp + sp_rank) * tp + tp_rank.
    per_step = [step_breakdown(tl, {r: (r // w.tp) % w.pp for r in tl})
                for tl in b.timelines[:steps]]
    train_ms = tracer.durations("backend.train_step")[:steps]
    control = [t - s["extent_ms"] for t, s in zip(train_ms, per_step)]
    ops = {s: [(op.kind, op.microbatch)
               for op in schedule_ops(w.schedule, w.pp, s, w.microbatches)]
           for s in range(w.pp)}
    saves = [s for s in tracer.spans if s["name"] == "checkpoint.save"]
    in_run = [s for s in saves if s["step"] != "final"]
    covered = sum(s["dur_ms"] for s in tracer.spans if s["step"] != "final")
    out = {
        "data.setup_ms": median(s.data_ms for s in setups),
        "backend.spawn_ms": median(s.spawn_ms for s in setups),
        "backend.train_step_ms": median(train_ms),
        "backend.control_ms": median(control),
        "backend.apply_grads_ms": median(tracer.durations("backend.apply_grads")),
        "backend.sync_weights_ms": median(
            tracer.durations("backend.sync_weights")),
        "backend.sync_weights_bytes": layers.weights_push_bytes(setups[-1].model),
        "comm.wait_ms": median(s["wait_ms"] for s in per_step),
        "comm.exposed_share": median(s["exposed_share"] for s in per_step),
        "pipeline.idle_share": median(s["idle_share"] for s in per_step),
        "pipeline.idle_share_schedule": schedule_idle_share(ops),
        "tensor.compute_ms": median(s["compute_ms"] for s in per_step),
        "optim.clip_ms": median(tracer.durations("optim.clip")),
        "optim.step_ms": median(tracer.durations("optim.step")),
        "checkpoint.save_ms": median(s["dur_ms"] for s in saves),
        "checkpoint.saves": len(in_run),
        "checkpoint.bytes": os.path.getsize(p.snapshot),
        "checkpoint.load_ms": layers.checkpoint_load_ms(p.snapshot),
        "trainer.other_ms": (p.wall_s * 1e3 - covered) / steps,
        "trace.overhead_samples_per_s": (p.samples_per_s
                                         - untraced.samples_per_s),
    }
    out.update(_per_step_comm(b.events[0]))
    model = setups[-1].model
    if w.kind == "pretrain":
        out["data.batch_ms"] = median(tracer.durations("data.batch"))
    else:
        out["data.batch_ms"] = layers.finetune_batch_ms(
            w, setups[-1].data, seed)
    out["compression.codec_ms"] = layers.codec_ms(w, model, grad_numel, seed)
    out["grad_sync.dp_reduce_ms"] = layers.dp_reduce_ms(w, model, seed)
    out.update(layers.tensor_profile(w, seed, b.first_inputs))
    return out


def _final_snapshot(w: Workload, p: PassResult, s, path: str,
                    tracer: Tracer) -> None:
    """Write the end-of-run trainer snapshot while the gang is still up.

    Its span is tagged ``step="final"`` to keep it out of the in-training
    save count and of the training wall time it covers.
    """
    tracer.step = "final"
    if p.trainer is not None:
        p.trainer.save_state(path)
    else:
        with tracer.span("checkpoint.save"):
            save_trainer_state(
                path, model_state=s.model.state_dict(),
                optimizer_state=p.optimizer.state_dict(),
                schedule_state=p.schedule.state_dict(),
                data_rng_state=s.data.rng.bit_generator.state,
                runtime_state=p.backend.runtime_state(),
                global_step=p.completed)
    p.snapshot = path


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: str,
        steps: int | None = None) -> dict:
    """One full workload run; returns the result document.

    ``steps`` overrides the budget derived from ``seconds`` (tests).
    """
    steps = w.steps_for(seconds) if steps is None else steps
    workdir = os.path.join(out_dir, f"work-{w.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    t_start = time.perf_counter()
    try:
        doc = _run(w, seed, steps, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc.update(workload=w.name, seed=seed, seconds=seconds, trace=trace,
               steps_planned=steps, environment=environment(),
               run_wall_s=time.perf_counter() - t_start)
    return doc


def _run(w: Workload, seed: int, steps: int, trace: bool, workdir: str) -> dict:
    setups, s = _setups(w, seed, steps, SETUP_REPEATS)
    if not trace:
        p = train_pass(w, seed, s, steps, workdir)
        passes = [p]
    else:
        half = max(1, steps // 2)
        untraced = train_pass(w, seed, s, half, workdir)
        tracer = Tracer()
        s = setup(w, seed, steps, collect_timelines=True)
        setups.append(s)
        p = train_pass(w, seed, s, half, workdir, tracer=tracer,
                       before_close=lambda pr: _final_snapshot(
                           w, pr, s, os.path.join(workdir, "final.npz"),
                           tracer))
        passes = [untraced, p]
        if p.error is not None:
            raise RunFailed(f"traced pass failed, no per-layer numbers: "
                            f"{p.error}")
    evl = eval_loss(w, s.model, held_out(w))
    attempted = sum(x.backend.attempted for x in passes)
    failed = sum(x.backend.attempted - x.completed for x in passes)
    doc = {"attempted": attempted, "failed": failed,
           "errors": [x.error for x in passes if x.error],
           "losses": p.backend.losses, "step_ms": p.backend.step_ms,
           "p90_tail_steps": samples_beyond(p.completed, 90),
           "eval_loss": evl}
    doc["check"] = _check(w, seed, s.model.config, p, evl)
    if trace:
        metrics = _per_layer(w, seed, p, tracer, setups, untraced,
                             doc["check"]["dp_grad_numel"])
        doc["spans"] = tracer.spans
        doc["worker_timelines"] = p.backend.timelines
    else:
        metrics = _e2e(p, [x.total_s for x in setups], evl)
    doc["metrics"] = metrics
    return doc


def result_line(doc: dict, units: dict) -> str:
    """The final stdout line: correct/attempted/failed/metrics."""
    metrics = {k: {"value": doc["metrics"][k], "unit": u}
               for k, u in units.items()}
    # A run reaching this point passed every output check (they raise).
    return json.dumps({"correct": True,
                       "attempted": doc["attempted"],
                       "failed": doc["failed"], "metrics": metrics})

