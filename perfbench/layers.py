"""Per-layer probes of the traced run: calls into each layer's public
functions, timed from outside, on the workload's own shapes."""

from __future__ import annotations

import pickle
import time

import numpy as np

from perfbench.analysis import median
from perfbench.workloads import Workload, build_model


def timed_ms(fn, min_reps: int = 5, budget_s: float = 0.5) -> float:
    """Median wall ms of ``fn()`` over at least ``min_reps`` calls, more
    while the budget lasts (one untimed warm-up call first)."""
    fn()
    samples: list[float] = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_reps or (time.perf_counter() < deadline
                                      and len(samples) < 200):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return median(samples)


def codec_ms(w: Workload, model, grad_numel: int, seed: int) -> float:
    """``Compressor.apply`` on the workload's busiest compression site.

    dp: the gradient codec on the flat gradient vector; tp: the first
    compressed layer's all-reduce site on a (B, S, h) partial; otherwise
    the pipeline boundary on a (B/m, S, h) microbatch activation (the
    identity codec under scheme w/o).
    """
    from repro.parallel.grad_sync import build_dp_grad_compressor
    from repro.tensor import Tensor

    rng = np.random.default_rng(seed)
    hidden = model.config.model.hidden
    if w.dp > 1:
        comp = build_dp_grad_compressor(model.config)
        x = rng.standard_normal(grad_numel).astype(np.float32)
        site = "dp.rank0"
    elif w.tp > 1:
        layer = min(model.config.policy.layers, default=0)
        comp = model.backbone.site_compressor(f"layer{layer}.attn")
        x = rng.standard_normal((w.batch, w.seq, hidden)).astype(np.float32)
        site = f"layer{layer}.attn.rank0"
    else:
        comp = model.backbone.site_compressor("boundary0")
        x = rng.standard_normal((w.batch // w.microbatches, w.seq, hidden)
                                ).astype(np.float32)
        site = "boundary0"
    return timed_ms(lambda: comp.apply(Tensor(x), site=site))


def dp_reduce_ms(w: Workload, model, seed: int) -> float:
    """``dp_all_reduce`` over ``dp`` model-shaped gradient sets with the
    workload's gradient codec (a single replica returns immediately)."""
    from repro.parallel.collectives import CommTracker, dp_all_reduce
    from repro.parallel.grad_sync import build_dp_grad_compressor

    rng = np.random.default_rng(seed)
    replicas = [{name: rng.standard_normal(p.data.shape).astype(np.float32)
                 for name, p in model.named_parameters()}
                for _ in range(w.dp)]
    comp = build_dp_grad_compressor(model.config) if w.dp > 1 else None
    return timed_ms(lambda: dp_all_reduce(replicas, comp, CommTracker()))


def tensor_profile(w: Workload, seed: int, inputs) -> dict:
    """One :class:`OpProfiler` inproc oracle step, plus the untraced
    single-process step time."""
    from repro.obs.profile import OpProfiler
    from repro.parallel.backend import create_backend

    model = build_model(w, seed, backend="inproc")
    backend = create_backend("inproc", model)
    prof = OpProfiler(record_events=False)
    with prof:
        with prof.span("step", cat="step", rank=0):
            backend.train_step(*inputs)
    summary = prof.summary()
    step_ms = timed_ms(lambda: backend.train_step(*inputs), min_reps=3,
                       budget_s=1.0)
    return {
        "tensor.op_calls_per_step": summary["op_calls"],
        "tensor.alloc_bytes_per_step": summary["alloc_bytes"],
        "tensor.peak_alloc_bytes": summary["peak_alloc_bytes"],
        "tensor.flops_per_step": summary["flops"],
        "tensor.inproc_step_ms": step_ms,
    }


def finetune_batch_ms(w: Workload, dataset, seed: int) -> float:
    """Per-batch ms of one shuffled ``batch_iter`` epoch."""
    from repro.data.loaders import batch_iter

    def epoch():
        for _ in batch_iter(dataset, w.batch,
                            rng=np.random.default_rng(seed)):
            pass

    n = -(-len(dataset) // w.batch)
    return timed_ms(epoch, min_reps=3, budget_s=0.3) / n


def checkpoint_load_ms(path: str) -> float:
    from repro.training.checkpoint import load_trainer_state

    return timed_ms(lambda: load_trainer_state(path), min_reps=3,
                    budget_s=0.3)


def weights_push_bytes(model) -> int:
    """Size of the pickled weight-push message the mp parent broadcasts."""
    return len(pickle.dumps(("weights", model.state_dict()),
                            protocol=pickle.HIGHEST_PROTOCOL))
