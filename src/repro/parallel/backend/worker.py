"""Entry point of one mp-backend worker process (one logical rank).

A worker owns a single (stage, tp_rank) coordinate.  It rebuilds the full
model replica from the parent's config — same seed, therefore identical
initial weights — then activates a :class:`RankContext` so shard loops and
collectives collapse to its own rank.  Per step it executes exactly the
slice of the oracle's computation its rank would own:

- stage 0 embeds the batch; later stages receive the boundary activation
  over shared memory and turn it into a gradient leaf;
- the stage's transformer layers run with the worker's tp shard;
- the last stage computes the loss and starts backward; earlier stages
  receive the relayed boundary gradient and resume their local graph;
- stages > 0 relay their input-leaf gradient back to the previous stage.

Control plane (weights, batches, results) is an ordinary
``multiprocessing.Pipe`` — pickle is fine there; the data plane (activations,
gradients, barrier) is exclusively the shared-memory transport.
"""

from __future__ import annotations

import os
import time
import traceback

import numpy as np

from repro.parallel.backend import conclog, faults
from repro.parallel.backend.context import RankContext, set_rank_context
from repro.parallel.backend.transport import RankTransport
from repro.parallel.tensor_parallel import shard_rank
from repro.tensor import Tensor


def _parent_reads(name: str, tp_rank: int, sp_rank: int = 0) -> bool:
    """Whether the parent's gradient merge reads ``name`` from this rank.

    After the SP grad sync every sp rank holds identical gradients, so the
    merge only consults the ``sp_rank == 0`` plane of each gang.
    """
    if sp_rank != 0:
        return False
    return (shard_rank(name) or 0) == tp_rank


def _disable_shm_tracking() -> None:
    """Stop this process's resource tracker from adopting shm segments.

    The parent owns (and unlinks) every segment.  Python 3.10–3.12 have no
    ``track=False`` on ``SharedMemory``, and a spawned child's resource
    tracker would otherwise unlink the parent's segment at child exit,
    breaking every sibling still attached.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name, rtype):
        if rtype == "shared_memory":
            return
        original(name, rtype)

    resource_tracker.register = register


def _span(timeline: list[dict] | None, origin: float, name: str,
          start: float) -> None:
    if timeline is not None:
        now = time.monotonic()
        timeline.append({
            "name": name, "cat": "mp.phase",
            "ts_ms": (start - origin) * 1e3,
            "dur_ms": (now - start) * 1e3,
        })


def _spmd_step(model, ctx: RankContext, input_ids, labels, attention_mask,
               collect_timeline: bool):
    """One training step of this rank's slice; returns (loss, grads, events,
    timeline).

    The step executes the pipeline schedule's op list verbatim
    (:func:`repro.parallel.pipeline.schedule_ops`): each ``F`` op carries
    one microbatch from boundary to boundary, each ``B`` op runs its
    backward and relays the input-leaf gradient upstream.  Under 1F1B the
    interleaving lets a stage's backward compute overlap the in-flight
    boundary sends of neighbouring microbatches; gradient accumulation
    stays in ascending microbatch order under both schedules, keeping the
    result bitwise-identical to the serial oracle.
    """
    from repro.parallel.backend.microbatch import (
        loss_grad_seed,
        mean_loss,
        split_microbatches,
    )
    from repro.parallel.collectives import pipeline_transfer
    from repro.parallel.grad_sync import sp_sync_grads
    from repro.parallel.pipeline import schedule_ops

    transport = ctx.transport
    backbone = model.backbone
    partition = backbone.partition
    pp = ctx.pp
    stage = ctx.stage
    cfg = model.config
    m = getattr(cfg, "num_microbatches", 1)
    schedule = getattr(cfg, "pipeline_schedule", "gpipe")

    timeline: list[dict] | None = [] if collect_timeline else None
    origin = time.monotonic()
    transport.timeline = timeline
    transport.timeline_origin = origin

    model.zero_grad()
    model.tracker.reset()
    transport.barrier_wait(timeout=ctx.timeout)

    if ctx.dp > 1:
        # Each dp gang trains on its contiguous batch shard; the parent
        # ships the full batch and every rank slices its own view.
        shard = input_ids.shape[0] // ctx.dp
        sl = slice(ctx.dp_rank * shard, (ctx.dp_rank + 1) * shard)
        input_ids = input_ids[sl]
        labels = labels[sl]
        if attention_mask is not None:
            attention_mask = attention_mask[sl]

    microbatches = split_microbatches(input_ids, labels, attention_mask, m)
    seed = None if m == 1 else loss_grad_seed(m)

    x_in: dict[int, Tensor] = {}  # stages > 0: per-microbatch input leaves
    outs: dict[int, Tensor] = {}  # stages < pp-1: per-microbatch boundary outs
    losses: dict[int, Tensor] = {}  # last stage: per-microbatch losses
    loss_vals: list[float] = []

    for op in schedule_ops(schedule, pp, stage, m):
        i = op.microbatch
        mb_ids, mb_labels, mb_mask = microbatches[i]
        t0 = time.monotonic()
        if op.kind == "F":
            if stage == 0:
                x, mask4d = backbone.embed(mb_ids, mb_mask)
            else:
                x_data = transport.recv(ctx.peer(stage - 1),
                                        timeout=ctx.timeout)
                leaf = Tensor(x_data, requires_grad=True)
                x_in[i] = leaf
                x = leaf
                mask4d = backbone.attention_bias(mb_mask)
            h = backbone.stage_forward(x, stage, mask4d)
            if stage < pp - 1:
                comp = backbone.site_compressor(f"boundary{stage}")
                outs[i] = pipeline_transfer(
                    h, comp, model.tracker, boundary=stage,
                    layer=partition.boundaries()[stage],
                )
            else:
                losses[i] = model.loss_from_hidden(h, mb_labels)
            _span(timeline, origin, "forward" if m == 1 else f"F{i}", t0)
        else:
            if stage < pp - 1:
                g = transport.recv(ctx.peer(stage + 1), timeout=ctx.timeout)
                outs.pop(i).backward(g)
            else:
                loss_t = losses.pop(i)
                loss_vals.append(float(loss_t.item()))
                if seed is None:
                    loss_t.backward()
                else:
                    loss_t.backward(seed)
            if stage > 0:
                leaf = x_in.pop(i)
                if leaf.grad is None:
                    raise RuntimeError(
                        f"stage {stage} produced no input gradient to relay "
                        f"(microbatch {i})"
                    )
                # The relay is staged in the upstream ring and stays in
                # flight while this stage continues with its next op.
                t_send = time.monotonic()
                transport.send(ctx.peer(stage - 1),
                               np.ascontiguousarray(leaf.grad),
                               timeout=ctx.timeout)
                transport.record_span(f"pp grad send mb{i}", t_send,
                                      cat="mp.async")
            _span(timeline, origin, "backward" if m == 1 else f"B{i}", t0)

    # Ring SP leaves each rank's QKV gradients partial over its sequence
    # block; reconcile around the ring before replying to the parent.
    if ctx.sp > 1:
        sp_sync_grads(model, ctx)

    # Reply with exactly the gradients the parent's merge will read: tp
    # rank 0 owns every replicated parameter's copy (plus its own shards);
    # a tp rank > 0 worker is only consulted for its ``_rank{r}`` shards.
    # Everything else would be pickled, shipped and dropped.
    grads = {
        name: p.grad for name, p in model.named_parameters()
        if p.grad is not None and _parent_reads(name, ctx.tp_rank,
                                                ctx.sp_rank)
    }
    events = list(model.tracker.events)
    transport.timeline = None
    loss_val = mean_loss(loss_vals) if loss_vals else None
    return loss_val, grads, events, timeline or []


def _worker_main(conn, spec: dict, rank_info: dict, model_spec: dict,
                 timeout: float, telemetry_q=None) -> None:
    """Process target: attach transport, build the replica, serve commands.

    ``rank_info`` carries tp/pp/tp_rank/stage; ``model_spec`` carries the
    model class, its config and extra constructor kwargs.  Every command is
    answered (``("result", ...)`` or ``("error", rank, tb)``) so the parent
    never waits on a silent failure.
    """
    _disable_shm_tracking()
    from repro.parallel.backend.context import global_rank

    dp = rank_info.get("dp", 1)
    sp = rank_info.get("sp", 1)
    rank = global_rank(rank_info["stage"], rank_info["tp_rank"],
                       rank_info["tp"], pp=rank_info["pp"], sp=sp,
                       sp_rank=rank_info.get("sp_rank", 0),
                       dp_rank=rank_info.get("dp_rank", 0))
    world = dp * rank_info["pp"] * sp * rank_info["tp"]
    transport = None
    # Concurrency event log (DYN003): purely env-gated, off in production.
    conc = conclog.maybe_install_from_env(rank, world=world)
    # Fault plan (chaos injection): also purely env-gated; the env var is
    # inherited from the parent through the spawn context.
    fault_plan = faults.maybe_install_from_env()
    # Live telemetry (REPRO_TELEMETRY): the parent only passes a queue
    # when the env var is set, and the agent import stays off the healthy
    # startup path otherwise.
    telem = None
    if telemetry_q is not None:
        from repro.obs.telemetry.agent import maybe_agent_from_env

        telem = maybe_agent_from_env(rank, world=world, sink=telemetry_q)
    steps_done = 0
    try:
        transport = RankTransport(spec, rank)
        model = model_spec["cls"](model_spec["config"], **model_spec["kwargs"])
        ctx = RankContext(
            tp=rank_info["tp"], pp=rank_info["pp"],
            tp_rank=rank_info["tp_rank"], stage=rank_info["stage"],
            transport=transport,
            rng=np.random.default_rng((model_spec["config"].seed, rank)),
            timeout=timeout,
            dp=dp, sp=sp,
            dp_rank=rank_info.get("dp_rank", 0),
            sp_rank=rank_info.get("sp_rank", 0),
        )
        set_rank_context(ctx)
        if telem is not None:
            telem.watch(model.tracker)
        conn.send(("ready", rank))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "shutdown":
                break
            if cmd == "weights":
                model.load_state_dict(msg[1])
            elif cmd == "runtime_state":
                state = {}
                backbone = getattr(model, "backbone", None)
                if backbone is not None:
                    state = backbone.runtime_state_dict()
                conn.send(("result", rank, state))
            elif cmd == "load_runtime_state":
                backbone = getattr(model, "backbone", None)
                if backbone is not None:
                    state = msg[1]
                    # dp runs namespace per-replica compressor state; each
                    # gang restores its own slice of the broadcast dict.
                    if f"dp{ctx.dp_rank}" in state:
                        state = state[f"dp{ctx.dp_rank}"]
                    backbone.load_runtime_state_dict(state)
            elif cmd == "step":
                _, input_ids, labels, attention_mask, collect = msg
                # Stamped before fault injection so a planned straggler
                # delay lands in this rank's wall (and busy) time instead
                # of disappearing between commands.
                t_step_start = time.monotonic()
                if telem is not None:
                    telem.begin_step(steps_done)
                if fault_plan is not None:
                    fault_plan.set_step(steps_done)
                    spec = fault_plan.take_step_fault(rank, steps_done)
                    if spec is not None and spec.kind == "kill":
                        # Planned death: flush the event log so the run
                        # stays replayable, then exit hard — the parent
                        # sees EOF on the pipe and raises a typed
                        # BackendError naming this rank.
                        if conc is not None:
                            conc.emit("fault", fault="kill", step=steps_done)
                            conc.flush()
                        if telem is not None:
                            telem.emit("fault", kind="kill", step=steps_done)
                            telem.publish()
                        conn.close()
                        os._exit(faults.KILL_EXIT_CODE)
                    if spec is not None and spec.kind == "delay":
                        if conc is not None:
                            conc.emit("fault", fault="delay", step=steps_done,
                                      seconds=spec.seconds)
                        time.sleep(spec.seconds)
                # Telemetry needs the span timeline (comm-wait decomposes
                # the step) even when the parent didn't ask for traces.
                loss_val, grads, events, timeline = _spmd_step(
                    model, ctx, input_ids, labels, attention_mask,
                    collect or telem is not None)
                if conc is not None:
                    # Flush after every step so a crashed run still leaves
                    # a replayable event-log prefix on disk.
                    conc.emit("step_end", step=steps_done)
                    conc.flush()
                if telem is not None:
                    # Emit-before-publish: the step's telemetry is on the
                    # side channel before the result that makes the step
                    # observable goes over the control pipe.
                    telem.record_step(steps_done, t_step_start, loss=loss_val,
                                      timeline=timeline, transport=transport,
                                      plan=fault_plan)
                    telem.publish()
                steps_done += 1
                # The timeline only travels the control pipe when the
                # parent asked for traces; a telemetry-forced one was
                # summarized above and is stripped here.
                conn.send(("result", rank, loss_val, grads, events,
                           timeline if collect else []))
            else:
                raise RuntimeError(f"unknown command {cmd!r}")
    except EOFError:
        pass  # parent went away; nothing to report to
    except BaseException:
        try:
            conn.send(("error", rank, traceback.format_exc()))
        except OSError:
            pass
    finally:
        set_rank_context(None)
        if conc is not None:
            conc.flush()
            conclog.uninstall()
        if transport is not None:
            transport.close()
        conn.close()
