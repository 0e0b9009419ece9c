"""Each output check passes the real result and rejects a doctored one."""

import dataclasses
import math

import numpy as np
import pytest

from perfbench import checks


def _tiny_step(tp=2, pp=1, dp=1, scheme="Q2", batch=4, seq=8):
    """One inproc oracle step of a tiny model: (config, events, loss)."""
    from repro.nn.transformer import TransformerConfig
    from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
    from repro.parallel.backend import create_backend

    cfg = ModelParallelConfig(
        TransformerConfig(vocab_size=60, max_seq_len=16, hidden=32,
                          num_layers=4, num_heads=4, dropout=0.0),
        tp=tp, pp=pp, dp=dp, sp=1, scheme=scheme, seed=0, backend="inproc",
        pipeline_schedule="gpipe", num_microbatches=1)
    model = ModelParallelBertClassifier(cfg)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 60, size=(batch, seq))
    labels = rng.integers(0, 2, size=batch)
    result = create_backend("inproc", model).train_step(ids, labels, None)
    numel = sum(g.size for g in result.grads.values()) if result.grads else None
    return cfg, list(result.events), result.loss, numel


def test_events_accept_the_oracle_stream():
    cfg, events, _, _ = _tiny_step()
    assert checks.event_problems(cfg, [events, events], 4, 8) == []


def test_events_reject_a_dropped_event():
    cfg, events, _, _ = _tiny_step()
    problems = checks.event_problems(cfg, [events, events[1:]], 4, 8)
    assert problems and problems[0].startswith("step 1:")


def test_events_reject_doctored_wire_bytes():
    cfg, events, _, _ = _tiny_step()
    doctored = [dataclasses.replace(events[0],
                                    wire_bytes=events[0].wire_bytes + 1)]
    problems = checks.event_problems(cfg, [doctored + events[1:]], 4, 8)
    assert len(problems) == 2  # one key missing, one unexpected


def test_events_check_the_dp_gradient_wire():
    cfg, events, _, numel = _tiny_step(tp=1, dp=2, scheme="T2")
    assert checks.event_problems(cfg, [events], 4, 8, dp_grad_numel=numel) == []
    assert checks.event_problems(cfg, [events], 4, 8,
                                 dp_grad_numel=numel - 100)


def test_loss_must_match_the_oracle_bitwise():
    _, _, loss, _ = _tiny_step()
    assert checks.loss_problems(loss, loss) == []
    assert checks.loss_problems(np.nextafter(loss, math.inf), loss)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_eval_loss_must_be_finite(value):
    assert checks.eval_problems(1.25) == []
    assert checks.eval_problems(value)


def test_require_fails_loudly():
    checks.require([])
    with pytest.raises(checks.CheckFailed, match="step 3: mismatch"):
        checks.require(["step 3: mismatch"])
