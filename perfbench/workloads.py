"""The benchmark's three closed-loop training workloads and their set-up.

Each workload is one parent process training one model on the mp
backend, one step at a time (each step waits for the last).  The seed
passed on the command line generates the task or corpus and initializes
the model; the program only ever sees the generated arrays.

The number of optimizer steps is fixed by ``--seconds`` through a
per-workload nominal step rate, never by the clock, so the loss
trajectory, ``eval_loss`` and the wire bytes are exact for a given seed
and the run lasts about ``--seconds`` of training on a 2-core host.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass


#: At least 10 steps beyond the p90 step time.
MIN_STEPS = 110
LR = 1e-3


@dataclass(frozen=True)
class Workload:
    """One workload's configuration; why each exists is in BENCHMARK.json."""

    name: str
    kind: str  # "finetune" (FineTuneTrainer) | "pretrain" (backend loop)
    task: str | None  # synthetic GLUE task of a fine-tune
    tp: int
    pp: int
    dp: int
    scheme: str
    batch: int
    seq: int
    schedule: str = "gpipe"
    microbatches: int = 1
    checkpoint_every: int | None = None
    #: Nominal optimizer steps per second of training on a 2-core host;
    #: sizes a run from ``--seconds``.
    steps_per_s: float = 10.0

    def steps_for(self, seconds: float) -> int:
        return max(MIN_STEPS, int(round(seconds * self.steps_per_s)))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="finetune-tp2-q2",
        kind="finetune", task="MNLI", tp=2, pp=1, dp=1, scheme="Q2",
        batch=32, seq=16, checkpoint_every=50,
        # About 180 steps per run: in one pass the MNLI relation is learnt
        # after 200-300 steps, at a step that depends on the seed, so a
        # longer run's held-out loss splits seeds into two groups.
        steps_per_s=7.5,
    ),
    Workload(
        name="pretrain-pp2-1f1b",
        kind="pretrain", task=None, tp=1, pp=2, dp=1, scheme="w/o",
        batch=16, seq=32, schedule="1f1b", microbatches=8,
        # Sized to the benchmark's time budget.  Single-threaded BLAS runs
        # about 12 steps/s on a 2-core host; with the default thread pools
        # the workers oversubscribe the cores and run about 3.5.
        steps_per_s=5.0,
    ),
    Workload(
        name="finetune-dp2-t2",
        kind="finetune", task="SST-2", tp=1, pp=1, dp=2, scheme="T2",
        batch=8, seq=16, steps_per_s=36.0,
    ),
)}

#: Seed of the held-out set.  It is fixed, not the run seed, so that
#: ``eval_loss`` compares trained models on one test set; the run seed
#: still generates every training example.
HELD_OUT_SEED = 999_983
#: Held-out size: examples (fine-tune) or batches of ``Workload.batch``
#: documents (pre-train).
HELD_OUT_EXAMPLES = 2048
HELD_OUT_BATCHES = 32


def build_data(w: Workload, seed: int, steps: int):
    """The training inputs: a task split of one pass (fine-tune) or a
    batch stream (pre-train).

    The fine-tune split holds exactly ``steps × batch`` examples, so no
    example is seen twice: the tasks are small enough that repeated
    epochs overfit, and held-out loss would then measure how a seed
    memorized its split instead of the training run.
    """
    from repro.data.pretraining import MLMCorpus
    from repro.data.tasks import make_task

    if w.kind == "pretrain":
        return MLMCorpus(seq_len=w.seq, seed=seed)
    train, _ = make_task(w.task, seq_len=w.seq, seed=seed,
                         train_size=steps * w.batch)
    return train


def held_out(w: Workload) -> list:
    """The fixed held-out inputs: one task split or a list of batches."""
    from repro.data.pretraining import MLMCorpus
    from repro.data.tasks import make_task

    if w.kind == "pretrain":
        corpus = MLMCorpus(seq_len=w.seq, seed=HELD_OUT_SEED)
        return [corpus.batch(w.batch) for _ in range(HELD_OUT_BATCHES)]
    split, _ = make_task(w.task, seq_len=w.seq, seed=HELD_OUT_SEED,
                         train_size=HELD_OUT_EXAMPLES)
    return [split]


def model_config(w: Workload, seed: int, backend: str = "mp"):
    from repro.data.tasks import GLUE_TASKS
    from repro.parallel import ModelParallelConfig
    from repro.training.finetune import default_accuracy_model

    classes = 2 if w.task is None else max(GLUE_TASKS[w.task].num_classes, 2)
    # Every axis is passed explicitly so REPRO_BACKEND/REPRO_DP/... in
    # the caller's environment cannot change what the workload runs.
    return ModelParallelConfig(
        default_accuracy_model(num_classes=classes, seed=seed),
        tp=w.tp, pp=w.pp, dp=w.dp, sp=1, scheme=w.scheme, seed=seed,
        backend=backend, pipeline_schedule=w.schedule,
        num_microbatches=w.microbatches,
    )


def build_model(w: Workload, seed: int, backend: str = "mp"):
    from repro.parallel import ModelParallelBertClassifier
    from repro.parallel.runtime import ModelParallelBertPreTraining

    cfg = model_config(w, seed, backend)
    if w.kind == "pretrain":
        return ModelParallelBertPreTraining(cfg)
    return ModelParallelBertClassifier(cfg)


@dataclass
class Setup:
    """One workload set-up: inputs, parent model and a ready mp gang."""

    data: object  # GlueDataset (fine-tune) | MLMCorpus (pre-train)
    model: object
    backend: object
    data_ms: float
    model_ms: float
    spawn_ms: float

    @property
    def total_s(self) -> float:
        return (self.data_ms + self.model_ms + self.spawn_ms) / 1e3


def setup(w: Workload, seed: int, steps: int,
          collect_timelines: bool = False) -> Setup:
    """Workload start to first step ready: data, model, worker gang.

    ``create_backend`` returns once every worker has built its replica,
    reported ready and received the first weight push.
    """
    from repro.parallel.backend import create_backend

    t0 = time.perf_counter()
    data = build_data(w, seed, steps)
    t1 = time.perf_counter()
    model = build_model(w, seed)
    t2 = time.perf_counter()
    backend = create_backend("mp", model, collect_timelines=collect_timelines)
    t3 = time.perf_counter()
    return Setup(data, model, backend, (t1 - t0) * 1e3, (t2 - t1) * 1e3,
                 (t3 - t2) * 1e3)


def train_config(w: Workload, seed: int, steps: int, train_size: int):
    """The fine-tune's TrainConfig: enough epochs to cover ``steps``."""
    from repro.training.trainer import TrainConfig

    per_epoch = math.ceil(train_size / w.batch)
    return TrainConfig(lr=LR, epochs=math.ceil(steps / per_epoch),
                       batch_size=w.batch, seed=seed)


def eval_loss(w: Workload, model, evals: list) -> float:
    """Held-out loss of the parent model under ``no_grad``.

    Example-weighted mean over the held-out split (fine-tune) or the mean
    over the held-out batches (pre-train, each the same size).
    """
    from repro.data.loaders import batch_iter
    from repro.tensor import no_grad

    total = weight = 0.0
    model.eval()
    try:
        with no_grad():
            if w.kind == "pretrain":
                for b in evals:
                    total += model.loss(b.input_ids, b.labels,
                                        b.attention_mask).item()
                    weight += 1
            else:
                for split in evals:
                    for b in batch_iter(split, 256):
                        n = len(b.labels)
                        total += n * model.loss(b.input_ids, b.labels,
                                                b.attention_mask).item()
                        weight += n
    finally:
        model.train()
    return total / weight


def oracle_step(w: Workload, seed: int, inputs) -> tuple[float, int]:
    """The inproc oracle's first step on the run's first step inputs.

    Returns its loss and the size of the flat gradient vector the DP
    reduce ships (every parameter that received a gradient, as the SPMD
    event oracle counts it).
    """
    from repro.parallel.backend import create_backend

    model = build_model(w, seed, backend="inproc")
    with create_backend("inproc", model) as oracle:
        result = oracle.train_step(*inputs)
    # dp > 1 returns the reduced gradients; dp == 1 leaves them on the model.
    grads = result.grads or {n: p.grad for n, p in model.named_parameters()
                             if p.grad is not None}
    return result.loss, int(sum(g.size for g in grads.values()))
