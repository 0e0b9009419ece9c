"""Drive one training pass through the public API and time it from outside.

The program is never edited: a delegating :class:`MeasuredBackend` sits
between the trainer and the real mp backend and stamps each step, and in
the traced pass a :class:`Tracer` wraps single public methods of the
optimizer and trainer objects the pass created.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass

from perfbench.workloads import LR, Setup, Workload, train_config

# Imported at module level so the benchmark's import of the program fails
# fast (before any run) when the source tree is missing.
from repro.parallel.backend import BackendError, ExecutionBackend, create_backend

#: Gangs one pre-train pass is spread over.  An oversubscribed gang's speed
#: is settled when it spawns and differs by about 13% (s.d.) from gang to
#: gang on a 2-core host; successive fresh gangs sample that lottery
#: instead of letting one draw set a whole run.  Scheme w/o keeps no
#: worker-side state, so the pass is bitwise the same training run.
PRETRAIN_GANGS = 8


class Tracer:
    """In-memory span sink of the traced pass; written out at the end."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        #: Step index stamped on new spans; ``"final"`` after the last step.
        self.step: int | str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append({"name": name, "cat": "call", "step": self.step,
                               "ts_ms": (start - self.origin) * 1e3,
                               "dur_ms": (end - start) * 1e3})

    def wrap(self, obj, method: str, name: str) -> None:
        """Time every call of ``obj.method`` (instance attribute shadow)."""
        inner = getattr(obj, method)

        def timed(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, method, timed)

    def durations(self, name: str) -> list[float]:
        return [s["dur_ms"] for s in self.spans if s["name"] == name]


_NO_SPAN = contextlib.nullcontext()


class MeasuredBackend(ExecutionBackend):
    """Delegates the step protocol to ``inner`` and records each step.

    A step runs from the optimizer's ``zero_grad`` (see
    :meth:`time_from`) to the end of ``sync_weights``; only steps that
    reach ``sync_weights`` count as completed.
    """

    name = "measured"

    def __init__(self, inner: ExecutionBackend, tracer: Tracer | None = None):
        self.inner = inner
        self.tracer = tracer
        self.attempted = 0
        self.step_ms: list[float] = []
        self.samples: list[int] = []
        self.losses: list[float] = []
        self.events: list[list] = []
        self.timelines: list[dict] = []
        self.first_inputs = None
        self._start = None
        self._batch = 0

    def _span(self, name: str):
        return _NO_SPAN if self.tracer is None else self.tracer.span(name)

    def time_from(self, optimizer) -> None:
        """Start each step's clock at ``optimizer.zero_grad``."""
        inner = optimizer.zero_grad

        def zero_grad():
            self._start = time.perf_counter()
            if self.tracer is not None:
                self.tracer.step = len(self.step_ms)
            inner()

        optimizer.zero_grad = zero_grad

    def train_step(self, input_ids, labels, attention_mask=None):
        self.attempted += 1
        if self.first_inputs is None:
            self.first_inputs = (input_ids, labels, attention_mask)
        with self._span("backend.train_step"):
            result = self.inner.train_step(input_ids, labels, attention_mask)
        self._batch = len(input_ids)
        self.losses.append(result.loss)
        self.events.append(result.events)
        if result.timelines:
            self.timelines.append(result.timelines)
        return result

    def apply_grads(self, model, result) -> None:
        with self._span("backend.apply_grads"):
            self.inner.apply_grads(model, result)

    def sync_weights(self, model) -> None:
        with self._span("backend.sync_weights"):
            self.inner.sync_weights(model)
        self.step_ms.append((time.perf_counter() - self._start) * 1e3)
        self.samples.append(self._batch)

    def respawn(self, model) -> float:
        """Replace the gang with a freshly spawned one that receives the
        parent's current weights; returns the seconds it took."""
        t0 = time.perf_counter()
        collect = self.inner.collect_timelines
        self.inner.close()
        self.inner = create_backend("mp", model, collect_timelines=collect)
        return time.perf_counter() - t0

    def runtime_state(self) -> dict:
        return self.inner.runtime_state()

    def load_runtime_state(self, state: dict) -> None:
        self.inner.load_runtime_state(state)

    def poll_telemetry(self) -> list[dict]:
        return self.inner.poll_telemetry()

    def close(self) -> None:
        self.inner.close()


@dataclass
class PassResult:
    """One training pass: its measured backend plus what ran around it."""

    backend: MeasuredBackend
    wall_s: float  # training wall time, without re-spawns
    error: str | None
    respawn_s: float = 0.0
    optimizer: object = None
    trainer: object = None
    schedule: object = None  # the pre-train loop's LR schedule
    snapshot: str | None = None  # end-of-run snapshot of a traced pass

    @property
    def completed(self) -> int:
        return len(self.backend.step_ms)

    @property
    def samples_per_s(self) -> float:
        return sum(self.backend.samples) / self.wall_s


def _finetune(w: Workload, seed: int, s: Setup, steps: int,
              backend: MeasuredBackend, out: PassResult, workdir: str) -> None:
    from repro.training.trainer import FineTuneTrainer

    trainer = FineTuneTrainer(s.model,
                              train_config(w, seed, steps, len(s.data)),
                              backend=backend)
    out.trainer, out.optimizer = trainer, trainer.optimizer
    backend.time_from(trainer.optimizer)
    tracer = backend.tracer
    if tracer is not None:
        tracer.wrap(trainer.optimizer, "clip_grad_norm", "optim.clip")
        tracer.wrap(trainer.optimizer, "step", "optim.step")
        tracer.wrap(trainer, "save_state", "checkpoint.save")
    ckpt = os.path.join(workdir, "train-ckpt.npz") if w.checkpoint_every else None
    trainer.train(s.data, checkpoint_path=ckpt,
                  checkpoint_every=w.checkpoint_every, max_steps=steps)


def _pretrain(w: Workload, seed: int, s: Setup, steps: int,
              backend: MeasuredBackend, out: PassResult, workdir: str) -> None:
    """MLM pre-training through the backend step protocol (§4.4 loop)."""
    from repro.optim import Adam, WarmupLinearLR

    optimizer = Adam(s.model.parameters(), lr=LR)
    schedule = WarmupLinearLR(optimizer, warmup_steps=max(1, steps // 10),
                              total_steps=steps)
    out.optimizer, out.schedule = optimizer, schedule
    backend.time_from(optimizer)
    tracer = backend.tracer
    if tracer is not None:
        tracer.wrap(optimizer, "clip_grad_norm", "optim.clip")
        tracer.wrap(optimizer, "step", "optim.step")
        tracer.wrap(s.data, "batch", "data.batch")
    corpus = s.data
    model = s.model
    model.train()
    per_gang = -(-steps // PRETRAIN_GANGS)
    for step in range(steps):
        if step and step % per_gang == 0:
            out.respawn_s += backend.respawn(model)
        batch = corpus.batch(w.batch)
        optimizer.zero_grad()
        result = backend.train_step(batch.input_ids, batch.labels,
                                    batch.attention_mask)
        backend.apply_grads(model, result)
        optimizer.clip_grad_norm(1.0)
        optimizer.step()
        backend.sync_weights(model)
        schedule.step()


def train_pass(w: Workload, seed: int, s: Setup, steps: int, workdir: str,
               tracer: Tracer | None = None,
               before_close=None) -> PassResult:
    """Train ``steps`` closed-loop steps on a set-up gang, then close it.

    ``before_close(result)`` runs after the last step while the gang is
    still up (the traced run's final snapshot pulls compressor state).

    A :class:`BackendError` (worker crash, deadline) ends the pass: the
    mp backend has already torn the gang down, the failed step is
    counted, and the caller carries on with what completed.
    """
    backend = MeasuredBackend(s.backend, tracer)
    out = PassResult(backend, 0.0, None)
    run = _pretrain if w.kind == "pretrain" else _finetune
    t0 = time.perf_counter()
    try:
        run(w, seed, s, steps, backend, out, workdir)
        out.wall_s = time.perf_counter() - t0 - out.respawn_s
        if before_close is not None:
            before_close(out)
    except BackendError as exc:
        out.error = f"{type(exc).__name__}: {exc}"
    finally:
        if not out.wall_s:
            out.wall_s = time.perf_counter() - t0 - out.respawn_s
        backend.close()
    return out
