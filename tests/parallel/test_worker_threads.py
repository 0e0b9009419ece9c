"""Per-rank CPU budget of the mp gang's BLAS thread pools.

Each spawned worker's BLAS pool is sized at library load, from the
thread variables it inherits.  The mp backend puts ``max(1, cpus //
world)`` into every such variable the user has not set, for the spawn
only: the parent's environment must be exactly as it was, and a user
setting must reach the workers unmodified.
"""

import os
import sys

import numpy as np
import pytest

from repro.data.pretraining import MLMCorpus
from repro.nn.transformer import TransformerConfig
from repro.optim import Adam
from repro.parallel.backend import create_backend
from repro.parallel.backend import mp as mp_backend
from repro.parallel.backend.env import (
    THREAD_ENV_VARS,
    available_cpus,
    scoped_env,
    thread_budget_env,
    worker_thread_share,
)
from repro.parallel.runtime import (
    ModelParallelBertClassifier,
    ModelParallelBertPreTraining,
    ModelParallelConfig,
)
from repro.training.finetune import default_accuracy_model

MP_TIMEOUT = 30.0
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads /proc/<pid>/environ")


def make_model(tp=2, pp=1):
    mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=2, num_heads=4,
                           max_seq_len=16, dropout=0.0, num_classes=2, seed=0)
    cfg = ModelParallelConfig(model=mc, tp=tp, pp=pp, scheme="w/o", seed=0,
                              backend="mp")
    return ModelParallelBertClassifier(cfg)


def worker_environ(pid: int) -> dict[str, str]:
    with open(f"/proc/{pid}/environ", "rb") as fh:
        entries = fh.read().split(b"\0")
    return dict(e.decode().split("=", 1) for e in entries if b"=" in e)


@pytest.fixture
def unset_thread_vars(monkeypatch):
    for name in THREAD_ENV_VARS:
        monkeypatch.delenv(name, raising=False)


class TestShare:
    @pytest.mark.parametrize("cpus,world,share",
                             [(2, 2, 1), (2, 4, 1), (8, 2, 4), (1, 1, 1)])
    def test_share_arithmetic(self, cpus, world, share):
        assert worker_thread_share(cpus, world) == share

    def test_available_cpus_follows_affinity(self):
        expected = (len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else os.cpu_count())
        assert available_cpus() == expected

    def test_budget_fills_only_unset_variables(self, unset_thread_vars,
                                               monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.setenv("MKL_NUM_THREADS", "")  # empty counts as unset
        assert thread_budget_env(2) == {"OMP_NUM_THREADS": "2",
                                        "MKL_NUM_THREADS": "2"}


class TestScopedEnv:
    def test_restores_set_and_unset_variables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SET", "old")
        monkeypatch.delenv("REPRO_TEST_UNSET", raising=False)
        before = dict(os.environ)
        with scoped_env({"REPRO_TEST_SET": "new", "REPRO_TEST_UNSET": "x"}):
            assert os.environ["REPRO_TEST_SET"] == "new"
            assert os.environ["REPRO_TEST_UNSET"] == "x"
        assert dict(os.environ) == before

    def test_restores_when_the_body_raises(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_UNSET", raising=False)
        before = dict(os.environ)
        with pytest.raises(RuntimeError):
            with scoped_env({"REPRO_TEST_UNSET": "x"}):
                raise RuntimeError("boom")
        assert dict(os.environ) == before


class TestSpawnBudget:
    @linux_only
    def test_workers_inherit_share_and_parent_env_is_untouched(
            self, unset_thread_vars):
        before = dict(os.environ)
        backend = create_backend("mp", make_model(), timeout=MP_TIMEOUT)
        try:
            assert dict(os.environ) == before
            share = worker_thread_share(available_cpus(), backend.world)
            assert backend.worker_threads == share
            for proc in backend._procs:
                env = worker_environ(proc.pid)
                for name in THREAD_ENV_VARS:
                    assert env[name] == str(share), (proc.name, name)
        finally:
            backend.close()

    @linux_only
    def test_user_setting_reaches_workers_unmodified(self, unset_thread_vars,
                                                     monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        before = dict(os.environ)
        backend = create_backend("mp", make_model(), timeout=MP_TIMEOUT)
        try:
            assert dict(os.environ) == before
            assert backend.worker_threads == 3
            share = worker_thread_share(available_cpus(), backend.world)
            for proc in backend._procs:
                env = worker_environ(proc.pid)
                assert env["OPENBLAS_NUM_THREADS"] == "3"
                assert env["OMP_NUM_THREADS"] == str(share)
        finally:
            backend.close()

    def test_env_restored_after_failed_spawn(self, unset_thread_vars,
                                             monkeypatch):
        # A spawn target that cannot be pickled makes Process.start raise
        # inside the budget's scope.
        monkeypatch.setattr(mp_backend, "_worker_main", lambda *a: None)
        before = dict(os.environ)
        with pytest.raises(Exception):
            create_backend("mp", make_model(), timeout=MP_TIMEOUT)
        assert dict(os.environ) == before


def _pretrain_two_steps(monkeypatch, threads: str | None):
    """Two 1F1B MLM steps on a fresh pp=2 gang; losses and merged grads."""
    for name in THREAD_ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    if threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    cfg = ModelParallelConfig(
        default_accuracy_model(seed=0), tp=1, pp=2, dp=1, sp=1, scheme="w/o",
        seed=0, backend="mp", pipeline_schedule="1f1b", num_microbatches=8)
    model = ModelParallelBertPreTraining(cfg)
    corpus = MLMCorpus(seq_len=32, seed=0)
    optimizer = Adam(model.parameters(), lr=1e-3)
    backend = create_backend("mp", model, timeout=MP_TIMEOUT)
    losses, grads = [], []
    try:
        pool = backend.worker_threads
        for _ in range(2):
            batch = corpus.batch(16)
            optimizer.zero_grad()
            result = backend.train_step(batch.input_ids, batch.labels,
                                        batch.attention_mask)
            backend.apply_grads(model, result)
            optimizer.step()
            backend.sync_weights(model)
            losses.append(result.loss)
            grads.append(result.grads)
    finally:
        backend.close()
    return pool, losses, grads


class TestThreadCountInvariance:
    def test_pretrain_bitwise_across_pool_sizes(self, monkeypatch):
        """BLAS thread count must never change arithmetic: the budget and
        every mp-vs-oracle bitwise check rely on it.  The gang's vocab and
        FFN GEMMs (64 tokens × 64 × 128/256) are above OpenBLAS's
        multithreading threshold, so a 2-thread pool really splits them."""
        default_pool, losses_a, grads_a = _pretrain_two_steps(monkeypatch, None)
        other = "1" if default_pool == 2 else "2"
        pool, losses_b, grads_b = _pretrain_two_steps(monkeypatch, other)
        assert pool == int(other) != default_pool
        assert losses_a == losses_b
        for step_a, step_b in zip(grads_a, grads_b):
            assert step_a.keys() == step_b.keys()
            for name in step_a:
                np.testing.assert_array_equal(step_a[name], step_b[name],
                                              err_msg=name)
