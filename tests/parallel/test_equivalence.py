"""Serial ↔ tensor-parallel numerical equivalence.

Model parallelism must compute the same function as the serial model when no
compression is applied — this is what makes the compression-accuracy
experiments attributable to compression alone.
"""

import numpy as np
import pytest

from repro import nn
from repro.compression import NoCompressor
from repro.nn.transformer import TransformerConfig
from repro.parallel import (
    ColumnParallelLinear,
    CommTracker,
    ModelParallelBertClassifier,
    ModelParallelConfig,
    ParallelAttention,
    ParallelMLP,
    ParallelTransformerLayer,
    RowParallelLinear,
)
from repro.parallel.tensor_parallel import shard_rank
from repro.tensor import Tensor
from repro.tensor.tensor import concatenate

RNG = np.random.default_rng(0)
IDENTITY = NoCompressor()


def small_config(**kw):
    defaults = dict(vocab_size=60, max_seq_len=16, hidden=32, num_layers=4,
                    num_heads=4, dropout=0.0)
    defaults.update(kw)
    return TransformerConfig(**defaults)


class TestColumnParallel:
    @pytest.mark.parametrize("tp", [1, 2, 4])
    def test_concat_of_shards_matches_serial(self, tp):
        serial = nn.Linear(8, 12, np.random.default_rng(1))
        par = ColumnParallelLinear.from_serial(serial, tp)
        x = Tensor(RNG.normal(size=(3, 5, 8)).astype(np.float32))
        shards = par(x)
        assert len(shards) == tp
        merged = concatenate(shards, axis=-1)
        np.testing.assert_allclose(merged.data, serial(x).data, rtol=1e-5, atol=1e-6)

    def test_indivisible_rejected(self):
        serial = nn.Linear(8, 10, np.random.default_rng(1))
        with pytest.raises(ValueError):
            ColumnParallelLinear.from_serial(serial, 4)

    def test_random_init_constructor(self):
        par = ColumnParallelLinear(8, 12, 3, np.random.default_rng(0))
        assert len(par.weight_shards) == 3
        assert par.weight_shards[0].shape == (8, 4)
        assert len(par.parameters()) == 6  # 3 weights + 3 biases


class TestRowParallel:
    @pytest.mark.parametrize("tp", [1, 2, 4])
    def test_sum_of_partials_matches_serial(self, tp):
        serial = nn.Linear(12, 8, np.random.default_rng(2))
        par = RowParallelLinear.from_serial(serial, tp)
        x = RNG.normal(size=(3, 12)).astype(np.float32)
        x_shards = [Tensor(s) for s in np.split(x, tp, axis=-1)]
        partials = par(x_shards)
        total = partials[0]
        for p in partials[1:]:
            total = total + p
        total = total + par.bias
        np.testing.assert_allclose(total.data, serial(Tensor(x)).data, rtol=1e-4, atol=1e-5)

    def test_wrong_shard_count(self):
        par = RowParallelLinear(12, 8, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            par([Tensor(np.zeros((2, 3)))])


class TestParallelMLP:
    @pytest.mark.parametrize("tp", [1, 2, 4])
    def test_matches_serial(self, tp):
        rng = np.random.default_rng(3)
        fc1 = nn.Linear(16, 64, rng)
        fc2 = nn.Linear(64, 16, rng)
        par = ParallelMLP.from_serial(fc1, fc2, tp)
        x = Tensor(RNG.normal(size=(2, 6, 16)).astype(np.float32))
        from repro.tensor import functional as F

        expected = fc2(F.gelu(fc1(x)))
        got = par(x, IDENTITY, CommTracker())
        np.testing.assert_allclose(got.data, expected.data, rtol=1e-4, atol=1e-5)


class TestParallelAttention:
    @pytest.mark.parametrize("tp", [1, 2, 4])
    def test_matches_serial(self, tp):
        serial = nn.MultiHeadAttention(32, 4, np.random.default_rng(4))
        par = ParallelAttention.from_serial(serial, tp)
        x = Tensor(RNG.normal(size=(2, 5, 32)).astype(np.float32))
        np.testing.assert_allclose(
            par(x, IDENTITY, CommTracker()).data, serial(x).data, rtol=1e-4, atol=1e-5
        )

    def test_matches_serial_with_mask(self):
        serial = nn.MultiHeadAttention(16, 4, np.random.default_rng(5))
        par = ParallelAttention.from_serial(serial, 2)
        x = Tensor(RNG.normal(size=(2, 6, 16)).astype(np.float32))
        mask = np.zeros((2, 1, 1, 6), dtype=bool)
        mask[..., 4:] = True
        np.testing.assert_allclose(
            par(x, IDENTITY, CommTracker(), mask).data, serial(x, mask).data,
            rtol=1e-4, atol=1e-5,
        )

    def test_heads_divisibility(self):
        serial = nn.MultiHeadAttention(30, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ParallelAttention.from_serial(serial, 2)


class TestParallelTransformerLayer:
    @pytest.mark.parametrize("tp", [1, 2, 4])
    def test_matches_serial(self, tp):
        cfg = small_config()
        serial = nn.TransformerLayer(cfg, np.random.default_rng(6))
        par = ParallelTransformerLayer.from_serial(serial, tp)
        x = Tensor(RNG.normal(size=(2, 8, 32)).astype(np.float32))
        np.testing.assert_allclose(
            par(x, CommTracker()).data, serial(x).data, rtol=1e-4, atol=1e-5
        )

    def test_gradients_match_serial(self, ):
        cfg = small_config()
        serial = nn.TransformerLayer(cfg, np.random.default_rng(7))
        par = ParallelTransformerLayer.from_serial(serial, 2)
        x_data = RNG.normal(size=(2, 8, 32)).astype(np.float32)

        xs = Tensor(x_data.copy(), requires_grad=True)
        serial(xs).sum().backward()
        xp = Tensor(x_data.copy(), requires_grad=True)
        par(xp, CommTracker()).sum().backward()
        np.testing.assert_allclose(xp.grad, xs.grad, rtol=1e-3, atol=1e-4)
        # Parameter gradients: compare the shared LayerNorm (same object).
        assert serial.ln1 is par.ln1


class TestFullModelEquivalence:
    @pytest.mark.parametrize("tp,pp", [(1, 1), (2, 1), (1, 2), (2, 2), (4, 1), (1, 4)])
    def test_same_seed_same_logits(self, tp, pp):
        """With identical seeds, serial and every parallel layout agree."""
        cfg = small_config(num_classes=3, seed=11)
        serial = nn.BertForSequenceClassification(cfg)
        mp = ModelParallelBertClassifier(ModelParallelConfig(cfg, tp=tp, pp=pp, seed=11))
        ids = RNG.integers(0, 60, size=(3, 10))
        np.testing.assert_allclose(mp(ids).data, serial(ids).data, rtol=1e-3, atol=1e-4)

    def test_gradients_match_serial(self):
        cfg = small_config(num_classes=2, seed=13)
        serial = nn.BertForSequenceClassification(cfg)
        mp = ModelParallelBertClassifier(ModelParallelConfig(cfg, tp=2, pp=2, seed=13))
        ids = RNG.integers(0, 60, size=(4, 8))
        labels = np.array([0, 1, 1, 0])
        serial.loss(ids, labels).backward()
        mp.loss(ids, labels).backward()
        g_serial = serial.bert.token_embedding.weight.grad
        g_mp = mp.backbone.token_embedding.weight.grad
        np.testing.assert_allclose(g_mp, g_serial, rtol=1e-3, atol=1e-5)

    def test_loss_and_predict_api(self):
        cfg = small_config(num_classes=2, seed=1)
        mp = ModelParallelBertClassifier(ModelParallelConfig(cfg, tp=2, pp=2))
        ids = RNG.integers(0, 60, size=(4, 8))
        preds = mp.predict(ids)
        assert preds.shape == (4,)
        assert np.isfinite(mp.loss(ids, np.zeros(4, dtype=np.int64)).data)

    def test_config_validation(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            ModelParallelConfig(cfg, tp=3)  # heads=4 not divisible
        with pytest.raises(ValueError):
            ModelParallelConfig(cfg, pp=5)  # more stages than layers


class TestShardRank:
    def test_names_every_parameter_of_a_tp2_model(self):
        """``shard_rank`` reads back exactly the shards the layers wrote:
        each tp shard's owning rank, and None for every replicated
        parameter (embeddings, norms, heads, row-parallel biases, codecs)."""
        cfg = small_config(num_classes=3, seed=0)
        model = ModelParallelBertClassifier(
            ModelParallelConfig(cfg, tp=2, pp=2, scheme="A2", seed=0))
        owner = {}
        for module in model.modules():
            if isinstance(module, (ColumnParallelLinear, RowParallelLinear)):
                shards = [module.weight_shards]
                if isinstance(module, ColumnParallelLinear):
                    shards.append(module.bias_shards)
            elif isinstance(module, ParallelAttention):
                shards = [module._qkv_weights, module._qkv_biases]
            else:
                continue
            for per_rank in shards:
                for r, p in enumerate(per_rank):
                    owner[id(p)] = r
        names = dict(model.named_parameters())
        assert {shard_rank(n) for n in names} == {None, 0, 1}
        for name, p in names.items():
            assert shard_rank(name) == owner.get(id(p)), name
