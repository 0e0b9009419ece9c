"""Comm/compute overlap vs the serial inproc oracle, full matrix.

The mp gang overlaps communication with compute in two places: the
transport's staged ring sends (1F1B keeps boundary sends in flight) and the
own-partial AE encode that runs while a TP exchange is in flight.  The
inproc oracle runs every collective serially in one process.  The contract
(DESIGN.md decision 9): overlap moves *when* transfers complete, never
*what* they compute — losses, every gradient array and the comm-event
multiset must stay bitwise-identical to the oracle across the whole
TP×PP × scheme matrix, including the stateful compressors (Random-K RNG
streams, error-feedback residuals) whose site order must not be perturbed
by in-flight transfers.
"""

from collections import Counter

import numpy as np
import pytest

from repro.nn.transformer import TransformerConfig
from repro.parallel.backend import create_backend
from repro.parallel.runtime import ModelParallelBertClassifier, ModelParallelConfig

MP_TIMEOUT = 30.0

LAYOUTS = ((2, 1), (1, 2), (2, 2))
SCHEMES = ("w/o", "T2", "R2", "Q2", "A2")


def make_model(scheme, tp, pp, m, schedule):
    mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=4, num_heads=4,
                           max_seq_len=16, dropout=0.0, num_classes=3)
    cfg = ModelParallelConfig(model=mc, tp=tp, pp=pp, scheme=scheme, seed=0,
                              pipeline_schedule=schedule, num_microbatches=m)
    return ModelParallelBertClassifier(cfg)


def make_batch():
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 64, size=(4, 12))
    labels = rng.integers(0, 3, size=(4,))
    mask = np.ones((4, 12), dtype=np.int64)
    return ids, labels, mask


def event_key(e):
    return (e.op, e.group, e.phase, e.scheme, e.wire_bytes, e.world, e.shape,
            e.layer, e.site)


@pytest.mark.parametrize("tp,pp", LAYOUTS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_overlap_is_bitwise_invisible(scheme, tp, pp):
    # Pipelined layouts run 1F1B with real microbatching so the stress
    # covers in-flight boundary sends, not just TP collectives.
    m = 2 if pp > 1 else 1
    ids, labels, mask = make_batch()
    oracle_model = make_model(scheme, tp, pp, m, "gpipe")
    mp_model = make_model(scheme, tp, pp, m, "1f1b" if pp > 1 else "gpipe")

    serial = create_backend("inproc", oracle_model).train_step(ids, labels, mask)
    backend = create_backend("mp", mp_model, timeout=MP_TIMEOUT)
    try:
        overlapped = backend.train_step(ids, labels, mask)
    finally:
        backend.close()

    assert overlapped.loss == serial.loss  # bitwise, not allclose
    ref_grads = {n: p.grad for n, p in oracle_model.named_parameters()
                 if p.grad is not None}
    assert set(overlapped.grads) == set(ref_grads)
    for name in sorted(ref_grads):
        assert np.array_equal(overlapped.grads[name], ref_grads[name]), name
    assert Counter(map(event_key, overlapped.events)) == \
        Counter(map(event_key, serial.events))
