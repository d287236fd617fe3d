import functools
import inspect
import json
import os
import struct
import tempfile
import time
import tracemalloc
import weakref
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccan import autograd as ag
from ccan import data as data_module
from ccan.autograd import Tensor
from ccan.bench import count_macs, make_bench_bag
from ccan.cli import parse_config
from ccan.data import generate_synthetic, patient_grouped_kfold, write_bag, write_manifest
from ccan.errors import CCANError, ConfigError, DataError, FormatError, ShapeError, UsageError
from ccan.model import (
    MODEL_KINDS,
    CCANConfig,
    CCANModel,
    MaxPoolModel,
    MeanPoolModel,
    PoolConfig,
    SelfAttentionConfig,
    SelfAttentionModel,
    load_checkpoint,
    make_model,
    save_checkpoint,
    token_dropout,
)
from ccan.netpbm import write_ppm

BASELINE_KINDS = ("mean-pool", "max-pool", "full-self-attention")


def toy_config(**kwargs):
    base = dict(
        n_stages=2, n_latents=8, compression=2, d_latent=16, d_feature=12,
        self_layers=1, p_dropout=0.0, num_classes=2, n_frequencies=2, f_max=10.0, seed=0,
    )
    base.update(kwargs)
    return CCANConfig(**base)


def baseline(kind, d_feature, d_latent=4, seed=0):
    """A ``kind`` baseline of width ``d_feature``; only full self-attention's config has a ``d_latent``."""
    return make_model(kind, toy_config(d_feature=d_feature, d_latent=d_latent), seed)


def toy_dataset(n_bags=6, d_feature=12, seed=0, **kwargs):
    return generate_synthetic(
        n_bags, n_per_bag_range=(15, 25), d_feature=d_feature, witness_shift=4.0,
        witness_count_range=(2, 4), grid=(8, 8), seed=seed, **kwargs
    )


class TestConfig:
    def test_table_defaults_latent_counts(self):
        assert list(CCANConfig().latent_counts()) == [512, 256, 128, 64, 32, 16]

    def test_single_stage(self):
        assert list(CCANConfig(n_stages=1).latent_counts()) == [512]

    def test_no_compression(self):
        assert list(toy_config(compression=1, n_stages=3).latent_counts()) == [8, 8, 8]

    def test_indivisible_latents_rejected(self):
        with pytest.raises(ConfigError):
            toy_config(n_latents=10, compression=2, n_stages=3).validate()

    def test_deep_cascade_is_checked_stage_by_stage(self):
        # 512 halves to 1 by stage 10; no power of the compression is formed, so 10^9 stages cost 11 steps
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="down to stage 11: stage 10 holds 1"):
            toy_config(n_stages=10**9, n_latents=512, compression=2).validate()
        assert time.perf_counter() - start < 1.0
        toy_config(n_stages=10**9, compression=1).validate()

    @pytest.mark.parametrize("d_feature", [0, -40])
    def test_feature_width_below_one_rejected(self, d_feature):
        with pytest.raises(ConfigError, match=f"d_feature must be >= 1, got {d_feature}"):
            CCANModel(toy_config(d_feature=d_feature))
        for kind in BASELINE_KINDS:
            with pytest.raises(ConfigError, match=f"d_feature must be >= 1, got {d_feature}"):
                baseline(kind, d_feature)

    def test_out_units(self):
        assert toy_config().out_units == 1
        assert toy_config(num_classes=3).out_units == 3

    @pytest.mark.parametrize("f_max", [float("nan"), float("inf"), 0.5])
    @pytest.mark.parametrize("n_frequencies", [1, 2])
    def test_f_max_must_be_finite_and_at_least_one(self, n_frequencies, f_max):
        # with one frequency f_max reaches no output, so a NaN used to pass silently into the checkpoint
        with pytest.raises(ConfigError, match="a finite f_max >= 1"):
            CCANModel(toy_config(n_frequencies=n_frequencies, f_max=f_max))


class TestInitModel:
    def test_stage_latent_shapes(self):
        model = CCANModel(toy_config(n_stages=3, n_latents=8, d_latent=16, compression=2))
        assert [s.latents.shape for s in model.stages] == [(8, 16), (4, 16), (2, 16)]

    def test_deterministic_given_seed(self):
        a = CCANModel(toy_config(seed=5))
        b = CCANModel(toy_config(seed=5))
        for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_weights_are_drawn_from_the_configs_seed(self, tmp_path):
        # the saved config is enough to draw the same weights again
        for cls in MODEL_KINDS.values():
            assert "seed" not in inspect.signature(cls).parameters
        path = tmp_path / "m.ckpt"
        for model in (CCANModel(toy_config(seed=5)), baseline("full-self-attention", 6, d_latent=8, seed=5)):
            save_checkpoint(model, path)
            config = load_checkpoint(path).config
            assert config == model.config and config.seed == 5
            for (_, a), (_, b) in zip(model.parameters(), type(model)(config).parameters()):
                np.testing.assert_array_equal(a.data, b.data)

    def test_drawing_holds_the_values_once(self):
        # each tensor is drawn in float64 straight into its view of ``values``; no parameter is held twice
        tracemalloc.start()
        try:
            model = CCANModel(toy_config(d_feature=256, d_latent=64, n_stages=2, n_latents=16, seed=6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = max(t.data.size for _, t in model.parameters()) * 8
        assert model.values.nbytes > 10 * largest
        assert peak <= model.values.nbytes + 2 * largest

    @pytest.mark.parametrize("kind", list(MODEL_KINDS))
    def test_negative_seed_is_a_config_error(self, kind):
        # the seed starts the draws' generator, and numpy's own error for a negative one is a ValueError
        with pytest.raises(ConfigError, match=r"seed must be >= 0, got -1"):
            make_model(kind, toy_config(), seed=-1)
        with pytest.raises(ConfigError, match=r"seed must be >= 0, got -3"):
            MODEL_KINDS[kind](replace(make_model(kind, toy_config(), seed=0).config, seed=-3))

    def test_different_seeds_differ(self):
        a = CCANModel(toy_config(seed=1))
        b = CCANModel(toy_config(seed=2))
        assert any(
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.parameters(), b.parameters())
        )


TOY = dict(n_stages=2, n_latents=16, compression=2, d_latent=32, d_feature=64, self_layers=1, n_frequencies=2)


def assert_packed(model):
    """``model.values`` is one flat array, and each parameter a view of it at the running offset."""
    values = model.values
    assert values.ndim == 1 and values.flags.c_contiguous and values.dtype == model.dtype
    start, offset = values.__array_interface__["data"][0], 0
    for name, t in model.parameters():
        assert t.data.base is values, name
        assert t.data.flags.c_contiguous and t.data.dtype == values.dtype, name
        assert t.data.__array_interface__["data"][0] == start + offset * values.itemsize, name
        offset += t.data.size
    assert offset == values.size


def walked_names(model):
    """The names of the hand-written walk that ``parameters()`` once was, in its order: the oracle."""
    if isinstance(model, SelfAttentionModel):
        return ["input_proj.w", "input_proj.b", *(f"block.{n}" for n, _ in model.block.named_tensors()),
                "head.w", "head.b"]
    if not isinstance(model, CCANModel):
        return ["head.w", "head.b"]
    out = ["input_proj.w", "input_proj.b"]
    for j, stage in enumerate(model.stages, start=1):
        out += [f"stage{j}.latents", f"stage{j}.class_token"]
        for z, blk in enumerate(stage.cross_blocks):
            out += [f"stage{j}.cross{z}.{n}" for n, _ in blk.named_tensors()]
        for i, blk in enumerate(stage.self_blocks):
            out += [f"stage{j}.self{i}.{n}" for n, _ in blk.named_tensors()]
        out += [f"stage{j}.final_cross.{n}" for n, _ in stage.final_cross.named_tensors()]
        out += [f"stage{j}.final_self.{n}" for n, _ in stage.final_self.named_tensors()]
    return out + ["head.w1", "head.b1", "head.w2", "head.b2"]


def reachable_tensors(model):
    """Every ``Tensor`` in the model's attributes, its stages and their blocks, once per path."""
    found, todo = [], [v for k, v in vars(model).items() if k != "_parameters"]
    while todo:
        x = todo.pop()
        if isinstance(x, Tensor):
            found.append(x)
        elif isinstance(x, list):
            todo += x
        elif is_dataclass(x):
            todo += [getattr(x, f.name) for f in fields(x)]
    return found


def assert_named_once(model):
    """Every reachable tensor is in ``parameters()`` exactly once, under the oracle's name and position."""
    params = model.parameters()
    reachable = reachable_tensors(model)
    assert sorted(map(id, reachable)) == sorted(id(t) for _, t in params)
    assert len({id(t) for t in reachable}) == len(reachable) == len(params)
    assert [n for n, _ in params] == walked_names(model)
    # the walk's tensors, not only its names: stage j's z-th cross block is the one named cross{z}
    named = dict(params)
    for j, stage in enumerate(getattr(model, "stages", []), start=1):
        for z, blk in enumerate(stage.cross_blocks):
            assert named[f"stage{j}.cross{z}.w_q"] is blk.w_q
        for i, blk in enumerate(stage.self_blocks):
            assert named[f"stage{j}.self{i}.w_m2"] is blk.w_m2
        assert named[f"stage{j}.final_self.b_o"] is stage.final_self.b_o


LAYOUTS = [
    lambda: CCANModel(toy_config(n_stages=3, n_latents=8, d_latent=4, d_feature=6, block_repeats=2,
                                 self_layers=2, seed=7)),
    *[lambda kind=kind: baseline(kind, 6, seed=7) for kind in BASELINE_KINDS],
]
LAYOUT_IDS = ["ccan-J3-Z2-S2", *BASELINE_KINDS]


class TestParameterLayout:
    @pytest.mark.parametrize("make", LAYOUTS, ids=LAYOUT_IDS)
    def test_every_tensor_named_once_in_making_order(self, make):
        model = make()
        assert_named_once(model)
        # the list order is the draw order: replaying the seed's draws over it gives every weight
        rng = np.random.default_rng(7)
        for name, t in model.parameters():
            leaf = name.rsplit(".", 1)[-1]
            if leaf.startswith("w") or leaf in ("latents", "class_token"):
                np.testing.assert_array_equal(t.data, rng.normal(0.0, 0.02, t.shape).astype(t.data.dtype), name)

    @pytest.mark.parametrize("make", LAYOUTS, ids=LAYOUT_IDS)
    def test_loaded_model_names_every_tensor_once(self, tmp_path, make):
        model = make()
        save_checkpoint(model, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        assert_named_once(loaded)
        assert_packed(loaded)
        assert [n for n, _ in loaded.parameters()] == [n for n, _ in model.parameters()]
        np.testing.assert_array_equal(loaded.values, model.values)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ccan(self, dtype):
        model = CCANModel(CCANConfig(**TOY, seed=3), dtype=dtype)
        assert_packed(model)
        # the pack moved the drawn values: they are the ones a fresh draw gives
        drawn = np.random.default_rng(3).normal(0.0, 0.02, size=model.input_proj_w.shape).astype(dtype)
        np.testing.assert_array_equal(model.input_proj_w.data, drawn)
        np.testing.assert_array_equal(model.stages[0].final_self.ln1_gamma.data, 1.0)

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_baselines(self, kind):
        assert_packed(baseline(kind, 12, d_latent=8, seed=3))

    @pytest.mark.parametrize("make", [
        lambda: CCANModel(CCANConfig(**TOY, seed=3)),
        lambda: baseline("full-self-attention", 12, d_latent=8, seed=3),
    ], ids=["ccan", "full-self-attention"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_load_checkpoint(self, tmp_path, make, dtype):
        model = make()
        save_checkpoint(model, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt", dtype=dtype)
        assert_packed(loaded)
        np.testing.assert_array_equal(loaded.values, model.values.astype(dtype))


class TestModelKinds:
    @pytest.mark.parametrize("kind", list(MODEL_KINDS))
    def test_sized_and_scaled_like_the_ccan_config(self, kind):
        cfg = toy_config(num_classes=3, seed=1)
        model = make_model(kind, cfg, seed=9)
        assert type(model) is MODEL_KINDS[kind] and model.kind == kind
        assert type(model.config) is model.config_class and model.config.seed == 9
        for f in fields(model.config_class):
            if f.name != "seed":
                assert getattr(model.config, f.name) == getattr(cfg, f.name), f.name

    def test_each_config_holds_only_what_its_kind_reads(self):
        # the fields of each kind: a pooling baseline has no width to set
        names = {kind: [f.name for f in fields(cls.config_class)] for kind, cls in MODEL_KINDS.items()}
        assert names["mean-pool"] == names["max-pool"] == ["d_feature", "num_classes", "seed"]
        assert sorted(names["full-self-attention"]) == ["d_feature", "d_latent", "num_classes", "seed"]
        assert len(names["ccan"]) == 12

    def test_same_draws_as_each_class_from_the_seed(self):
        cfg = toy_config(seed=1)
        np.testing.assert_array_equal(make_model("ccan", cfg, 4).values, CCANModel(replace(cfg, seed=4)).values)
        wants = {"mean-pool": MeanPoolModel(PoolConfig(d_feature=12, seed=4)),
                 "max-pool": MaxPoolModel(PoolConfig(d_feature=12, seed=4)),
                 "full-self-attention": SelfAttentionModel(SelfAttentionConfig(d_feature=12, d_latent=16, seed=4))}
        for kind, want in wants.items():
            np.testing.assert_array_equal(make_model(kind, cfg, 4).values, want.values)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="model kind must be one of"):
            make_model("median-pool", toy_config(), 0)
        assert list(MODEL_KINDS) == ["ccan", *BASELINE_KINDS]


class TestTokenDropout:
    def test_keep_count(self):
        tokens = np.zeros((100, 4), dtype=np.float32)
        kept, idx = token_dropout(tokens, 0.9, np.random.default_rng(0), train_mode=True)
        assert kept.shape == (10, 4) and len(idx) == 10

    def test_floor_guard(self):
        tokens = np.zeros((5, 4), dtype=np.float32)
        kept, idx = token_dropout(tokens, 0.9, np.random.default_rng(1), train_mode=True)
        assert kept.shape[0] == 1

    def test_eval_identity(self):
        tokens = np.arange(12, dtype=np.float32).reshape(4, 3)
        kept, idx = token_dropout(tokens, 0.9, None, train_mode=False)
        np.testing.assert_array_equal(kept, tokens)
        np.testing.assert_array_equal(idx, np.arange(4))

    def test_no_rescaling_and_order_preserved(self):
        rng = np.random.default_rng(2)
        tokens = rng.normal(size=(50, 3)).astype(np.float32)
        kept, idx = token_dropout(tokens, 0.5, rng, train_mode=True)
        assert (np.diff(idx) > 0).all()
        np.testing.assert_array_equal(kept, tokens[idx])


class TestPooledSkip:
    def test_identity_when_c1(self):
        x = Tensor(np.arange(8, dtype=np.float32).reshape(4, 2))
        np.testing.assert_array_equal(ag.avg_pool_rows(x, 1).data, x.data)

    def test_hand_values(self):
        x = Tensor(np.array([[2.0], [4.0], [10.0], [0.0]], dtype=np.float32))
        np.testing.assert_allclose(ag.avg_pool_rows(x, 2).data, [[3.0], [5.0]])

    def test_index_oracle(self):
        rng = np.random.default_rng(3)
        x_val = rng.normal(size=(16, 8)).astype(np.float32)
        out = ag.avg_pool_rows(Tensor(x_val), 2)
        for k in range(8):
            np.testing.assert_allclose(out.data[k], x_val[2 * k : 2 * k + 2].mean(axis=0), atol=1e-6)

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            ag.avg_pool_rows(Tensor(np.zeros((5, 2), dtype=np.float32)), 2)


class TestStageForward:
    def test_shapes_and_records(self, monkeypatch):
        from composed import record_every_block

        seen = record_every_block(monkeypatch)
        bag = toy_dataset(seed=4).bags[0]
        n = bag.n_tokens
        for repeats, self_layers in [(1, 1), (2, 0), (2, 2)]:
            cfg = toy_config(block_repeats=repeats, self_layers=self_layers)
            seen.clear()
            out = CCANModel(replace(cfg, seed=1)).forward(bag)
            assert out.stages[0].latents_out.shape == (8, 16)
            assert out.stages[1].latents_out.shape == (4, 16)
            # each stage keeps its final cross record, class token appended, then its final self record
            assert [r.matrix.shape for r in out.stages[0].records] == [(9, n), (9, 9)]
            assert [r.matrix.shape for r in out.stages[1].records] == [(5, n), (5, 5)]
            # per stage: Z repeats of one cross and S selves, then the final cross and self
            kinds = (["cross"] + ["self"] * self_layers) * repeats + ["cross", "self"]
            assert [kind for kind, _ in seen] == kinds * 2
            assert seen[0][1].shape == (8, n)
            assert seen[len(kinds)][1].shape == (4, 8)  # stage 2's context is stage 1's latents
            for j, so in enumerate(out.stages, start=1):
                last_two = seen[j * len(kinds) - 2 : j * len(kinds)]
                assert [r.matrix.tobytes() for r in so.records] == [m.tobytes() for _, m in last_two]

    def test_skip_ablation_oracle(self):
        # zero every stage-2 block's output paths: the stage reduces to
        # its initial latents plus the pooled stage-1 output
        model = CCANModel(toy_config(seed=2))
        bag = toy_dataset(seed=5).bags[1]
        stage2 = model.stages[1]
        for blk in [*stage2.cross_blocks, *stage2.self_blocks, stage2.final_cross, stage2.final_self]:
            blk.w_o.data[...] = 0.0
            blk.b_o.data[...] = 0.0
            blk.w_m2.data[...] = 0.0
            blk.b_m2.data[...] = 0.0
        out = model.forward(bag)
        expected = stage2.latents.data + ag.avg_pool_rows(out.stages[0].latents_out, 2).data
        np.testing.assert_allclose(out.stages[1].latents_out.data, expected, atol=1e-6)

    def test_probs_in_unit_interval(self):
        model = CCANModel(toy_config(num_classes=3, seed=3))
        for bag in toy_dataset(seed=6, n_classes=3).bags:
            out = model.forward(bag)
            for so in out.stages:
                assert so.probs.shape == (3,)
                assert (so.probs >= 0).all() and (so.probs <= 1).all()

    def test_bad_stage_index(self):
        model = CCANModel(toy_config(seed=4))
        with pytest.raises(ConfigError):
            model.stage_forward(3, None, Tensor(np.zeros((4, 16), dtype=np.float32)))


class TestForward:
    def test_graph_nodes_per_toy_training_bag(self):
        # operation nodes reachable from one training loss of the TOY benchmark
        # config: 216 composed, 163 with the fused linear, 131 with the fused
        # attention, once one node for every head, 113 with the loss as one
        # node over both stages, 29 with each attention block one node (a cross
        # block's context keys and values one more). A rise here is a graph-size
        # regression.
        from ccan.training import bag_loss

        bag = generate_synthetic(1, (40, 40), d_feature=64, seed=0).bags[0]
        cfg = CCANConfig(n_stages=2, n_latents=16, compression=2, d_latent=32, d_feature=64,
                         self_layers=1, n_frequencies=2)
        out = CCANModel(cfg).forward(bag, rng=np.random.default_rng(0), train_mode=True)
        seen, stack, ops = set(), [bag_loss(out, bag.label, 2)], 0
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                ops += node._backward is not None
                stack.extend(node._parents)
        assert ops == 29

    def test_eval_deterministic(self):
        model = CCANModel(toy_config(seed=5))
        bag = toy_dataset(seed=7).bags[0]
        a = model.forward(bag)
        b = model.forward(bag)
        np.testing.assert_array_equal(a.averaged_probs, b.averaged_probs)
        for sa, sb in zip(a.stages, b.stages):
            np.testing.assert_array_equal(sa.latents_out.data, sb.latents_out.data)

    def test_toy_training_bitwise_equal_to_composed_blocks(self, monkeypatch):
        # across blocks too: the projected input tokens, which three cross blocks read here,
        # take their key and value gradients in the composed graph's order
        from ccan import attention
        from ccan.training import bag_loss
        from composed import composed_block

        bag = generate_synthetic(1, (40, 40), d_feature=64, seed=0).bags[0]
        cfg = CCANConfig(n_stages=2, n_latents=16, compression=2, d_latent=32, d_feature=64, self_layers=1,
                         n_frequencies=2, p_dropout=0.5)

        def run():
            model = CCANModel(cfg)
            out = model.forward(bag, rng=np.random.default_rng(0), train_mode=True)
            loss = bag_loss(out, bag.label, 2)
            ag.backward(loss)
            records = [rec.matrix for so in out.stages for rec in so.records]
            return [loss.data, out.averaged_probs] + records + [t.grad for _, t in model.parameters()]

        fused = run()
        monkeypatch.setattr(attention, "_block", composed_block)
        for got, want in zip(fused, run(), strict=True):
            assert got.tobytes() == want.tobytes()

    def test_training_graph_keeps_only_what_its_backward_reads(self):
        # per attention block: the first layer norm's row means and inv, the second's xhat and
        # inv, Q, K, V, the softmax, the attention output, the MLP pre-activation and the block
        # output.
        # Outside the blocks: the encoded tokens, the context, each stage's class-token join,
        # its two slices and the pooled skip and its sum; the head's few rows sit in the slack.
        from ccan.training import bag_loss

        cfg = CCANConfig(n_stages=2, n_latents=32, compression=2, d_latent=64, d_feature=64,
                         self_layers=1, n_frequencies=2, p_dropout=0.5)
        model = CCANModel(cfg)
        bag = make_bench_bag(400, 64, seed=2)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = model.forward(bag, rng=np.random.default_rng(0), train_mode=True)
            loss = bag_loss(out, bag.label, 2)
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        n, d = len(out.kept_indices), cfg.d_latent
        bound = 4 * n * (cfg.d_encoded + d)
        context = n
        for j, m in enumerate(cfg.latent_counts()):
            for rows, keys in [(m, context)] + [(m, m)] * cfg.self_layers + [(m + 1, n), (m + 1, m + 1)]:
                bound += 4 * (rows * (d + 3) + 3 * rows * d + 2 * keys * d + rows * keys + 4 * rows * d)
            bound += 4 * (2 * (m + 1) * d + 2 * m * d * (j > 0))
            context = m
        assert loss.requires_grad and retained < bound + (64 << 10), (retained, bound)

    def test_backward_frees_what_the_graph_saved_and_runs_once(self, monkeypatch):
        # the caller still holds the loss and the output, as the graph's root and its stage outputs
        from ccan.training import bag_loss

        saved, gelu = [], ag._gelu

        def spy(d, derivative):
            if not derivative:  # a forward: ``d`` is the pre-activation its node keeps
                saved.append(weakref.ref(d))
            return gelu(d, derivative)

        monkeypatch.setattr(ag, "_gelu", spy)
        model, bag = CCANModel(CCANConfig(**TOY, p_dropout=0.5)), make_bench_bag(300, TOY["d_feature"], seed=3)
        out = model.forward(bag, rng=np.random.default_rng(0), train_mode=True)
        loss = bag_loss(out, bag.label, 2)
        assert saved[0]() is not None  # stage 1's first cross block
        ag.backward(loss)
        assert saved[0]() is None and all(ref() is None for ref in saved)
        grads = [t.grad.copy() for _, t in model.parameters()]
        with pytest.raises(UsageError, match="already backpropagated"):
            ag.backward(loss)
        assert all(np.array_equal(t.grad, g) for (_, t), g in zip(model.parameters(), grads))

    def test_eval_forward_frees_the_encoded_input(self):
        # N x d_encoded dwarfs everything the stages hold, so once the input projection has
        # run the peak stays at its input and output, not those plus the stages' working set
        model = CCANModel(toy_config(d_feature=128, seed=9))
        bag = make_bench_bag(20000, 128, seed=1)
        tracemalloc.start()
        try:
            with ag.no_grad():
                model.forward(bag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        encoded, projected = (bag.n_tokens * d * 4 for d in (model.config.d_encoded, model.config.d_latent))
        assert peak < encoded + 2 * projected

    def test_permutation_invariance(self):
        model = CCANModel(toy_config(seed=6))
        rng = np.random.default_rng(8)
        for bag in toy_dataset(n_bags=5, seed=9).bags:
            base = model.forward(bag).averaged_probs
            perm = rng.permutation(bag.n_tokens)
            shuffled = type(bag)(
                bag_id=bag.bag_id, patient_id=bag.patient_id, label=bag.label,
                tokens=bag.tokens[perm], rows=bag.rows[perm], cols=bag.cols[perm],
                rows_total=bag.rows_total, cols_total=bag.cols_total,
            )
            permuted = model.forward(shuffled).averaged_probs
            assert np.abs(base - permuted).max() < 1e-4

    def test_averaging_is_arithmetic_mean(self):
        model = CCANModel(toy_config(seed=7))
        out = model.forward(toy_dataset(seed=10).bags[0])
        np.testing.assert_allclose(
            out.averaged_probs, np.mean([so.probs for so in out.stages], axis=0), atol=1e-7
        )
        # [0.8] and [0.6] average to [0.7]
        np.testing.assert_allclose(np.mean([[0.8], [0.6]], axis=0), [0.7])

    def test_train_mode_uses_dropout_mask_everywhere(self, monkeypatch):
        from composed import record_every_block

        seen = record_every_block(monkeypatch)
        model = CCANModel(toy_config(p_dropout=0.6, seed=8))
        bag = toy_dataset(seed=11).bags[0]
        n_keep = max(1, round(bag.n_tokens * 0.4))
        out = model.forward(bag, rng=np.random.default_rng(0), train_mode=True)
        assert len(out.kept_indices) == n_keep
        for so in out.stages:
            assert so.records[0].matrix.shape[1] == n_keep  # final cross context
        assert seen[0][1].shape[1] == n_keep  # stage-1 context

    def test_feature_dim_mismatch(self):
        model = CCANModel(toy_config(seed=9))
        bag = toy_dataset(d_feature=11, seed=12).bags[0]
        with pytest.raises(ShapeError):
            model.forward(bag)


TOY = dict(n_stages=2, n_latents=16, compression=2, d_latent=32, d_feature=64, self_layers=1, n_frequencies=2)


class TestInputRows:
    """A forward holds the raw tokens only until its kept rows are projected, and a forward that does not
    record projects them in row blocks with the recording forward's bits."""

    class Entry:
        """A dataset entry whose every ``load`` makes a new bag and keeps a weak reference to its tokens."""

        def __init__(self, n_tokens, seed, label=0, tokens=None):
            self.n_tokens, self.seed, self.label, self.tokens = n_tokens, seed, label, [] if tokens is None else tokens

        def load(self):
            bag = make_bench_bag(self.n_tokens, TOY["d_feature"], seed=self.seed)
            self.tokens.append(weakref.ref(bag.tokens))
            return bag

    @staticmethod
    def tokens_alive_at_stage1(monkeypatch, entry):
        """Whether the last loaded bag's tokens are alive when each stage 1 starts, one per forward."""
        seen, stage_forward = [], CCANModel.stage_forward

        def spy(self, j, prev_latents, input_ctx):
            if j == 1:
                seen.append(entry.tokens[-1]() is not None)
            return stage_forward(self, j, prev_latents, input_ctx)

        monkeypatch.setattr(CCANModel, "stage_forward", spy)
        return seen

    def test_training_step_frees_the_raw_tokens_before_stage_1(self, monkeypatch):
        from ccan.training import _bag_step

        entry, model = self.Entry(300, seed=1), CCANModel(CCANConfig(**TOY, p_dropout=0.5))
        seen = self.tokens_alive_at_stage1(monkeypatch, entry)
        _bag_step(model, entry, np.random.default_rng(0), 2)
        assert seen == [False]

    def test_eval_forward_of_an_inline_load_frees_the_raw_tokens_before_stage_1(self, monkeypatch):
        entry, model = self.Entry(300, seed=2), CCANModel(CCANConfig(**TOY))
        seen = self.tokens_alive_at_stage1(monkeypatch, entry)
        with ag.no_grad():
            model.forward(entry)
        assert seen == [False]

    @pytest.mark.parametrize("caller", ["_bag_step", "evaluate_auc"])
    def test_a_wrapper_that_holds_the_arguments_still_frees_the_raw_tokens(self, monkeypatch, caller):
        # as a tracer's wrapper does: its frame holds the call's arguments until the forward returns
        from ccan import training

        entry, model = self.Entry(300, seed=4), CCANModel(CCANConfig(**TOY, p_dropout=0.5))
        forward = CCANModel.forward
        monkeypatch.setattr(CCANModel, "forward", lambda self, *args, **kwargs: forward(self, *args, **kwargs))
        seen = self.tokens_alive_at_stage1(monkeypatch, entry)
        if caller == "_bag_step":
            training._bag_step(model, entry, np.random.default_rng(0), 2)
        else:
            training.evaluate_auc(model, [entry, self.Entry(300, seed=5, label=1, tokens=entry.tokens)])
        assert seen == [False] * (1 if caller == "_bag_step" else 2)

    @pytest.mark.parametrize("train_mode", [False, True])
    def test_a_bag_the_caller_holds_stays_alive(self, monkeypatch, train_mode):
        entry, model = self.Entry(300, seed=3), CCANModel(CCANConfig(**TOY, p_dropout=0.5))
        seen = self.tokens_alive_at_stage1(monkeypatch, entry)
        bag = entry.load()
        with ag.no_grad():
            model.forward(bag, rng=np.random.default_rng(0), train_mode=train_mode)
        assert seen == [True]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 3, 1025, 2049])
    def test_blocked_projection_equals_the_recording_forward(self, monkeypatch, n, dtype):
        # 1,025 and 2,049 rows run in two and three blocks; the recording forward projects them whole
        model, bag = CCANModel(CCANConfig(**TOY), dtype=dtype), make_bench_bag(n, TOY["d_feature"], seed=n)
        projected, matmul = [], ag._matmul

        def spy(a, b, out):
            if b is model.input_proj_w.data:
                projected.append(a.shape[0])
            return matmul(a, b, out)

        monkeypatch.setattr(ag, "_matmul", spy)
        with ag.no_grad(), ag.op_probe() as probe:
            blocked = model.forward(bag)
        assert projected == {1: [1], 3: [3], 1025: [512, 513], 2049: [683] * 3}[n]
        whole = model.forward(bag)
        assert whole.stages[0].probs_tensor.requires_grad and not blocked.stages[0].probs_tensor.requires_grad
        assert probe.macs == count_macs(model.config, n)
        assert blocked.averaged_probs.tobytes() == whole.averaged_probs.tobytes()
        for a, b in zip(blocked.stages, whole.stages, strict=True):
            assert a.probs.tobytes() == b.probs.tobytes()
            for ra, rb in zip(a.records, b.records, strict=True):
                assert ra.matrix.dtype == dtype and ra.matrix.tobytes() == rb.matrix.tobytes()


class TestBaselines:
    def test_mean_pool_identical_tokens(self):
        model = MeanPoolModel(PoolConfig(d_feature=6, num_classes=2, seed=0))
        token = np.random.default_rng(0).normal(size=6).astype(np.float32)
        bag_many = _const_bag(np.tile(token, (7, 1)))
        bag_one = _const_bag(token[None, :])
        np.testing.assert_allclose(
            model.forward(bag_many).averaged_probs, model.forward(bag_one).averaged_probs, atol=1e-6
        )

    def test_max_pool_dominant_token(self):
        model = MaxPoolModel(PoolConfig(d_feature=4, num_classes=2, seed=1))
        rng = np.random.default_rng(1)
        tokens = rng.normal(size=(10, 4)).astype(np.float32)
        huge = np.full((1, 4), 1e6, dtype=np.float32)
        out_with = model.forward(_const_bag(np.vstack([tokens, huge]))).averaged_probs
        out_only = model.forward(_const_bag(huge)).averaged_probs
        np.testing.assert_allclose(out_with, out_only, atol=1e-6)

    def test_a_float32_mean_pool_reads_the_tokens_in_place(self):
        # float32 tokens into a float32 model are not copied; a float64 model converts them
        model, bag = baseline("mean-pool", 64), make_bench_bag(5000, 64, seed=6)
        tracemalloc.start()
        try:
            probs = model.forward(bag).averaged_probs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bag.tokens.nbytes
        wide = MeanPoolModel(model.config, dtype=np.float64).forward(bag).averaged_probs
        assert wide.dtype == np.float64 and np.abs(wide - probs).max() < 1e-6

    def test_a_float32_max_pool_reads_the_tokens_in_place(self):
        # each column's first maximum is found a block of rows at a time, so the bag is never copied whole
        model, bag = baseline("max-pool", 64), make_bench_bag(5000, 64, seed=6)
        tracemalloc.start()
        try:
            probs = model.forward(bag).averaged_probs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bag.tokens.nbytes
        pooled = bag.tokens.max(axis=0, keepdims=True)
        want = ag.sigmoid(ag.linear(Tensor(pooled), model.head_w, model.head_b)).data.reshape(-1)
        np.testing.assert_array_equal(probs, want)

    def test_full_self_attention_quadratic_macs(self):
        model = SelfAttentionModel(SelfAttentionConfig(d_feature=8, d_latent=8, num_classes=2, seed=2))
        rng = np.random.default_rng(2)

        def attn_macs(n):
            bag = _const_bag(rng.normal(size=(n, 8)).astype(np.float32))
            with ag.op_probe() as probe:
                model.forward(bag)
            # subtract the n-linear parts: input + q/k/v/o projections, MLP, head
            linear = n * 8 * 8 * (1 + 4 + 8) + 8 * 1
            return probe.macs - linear

        assert attn_macs(100) == 2 * 100 * 100 * 8
        assert abs(attn_macs(200) / attn_macs(100) - 4.0) < 1e-9

    def test_unknown_kind(self):
        # each kind is a class that names itself, so a name no class carries builds nothing
        with pytest.raises(ConfigError, match="model kind must be one of"):
            make_model("median-pool", toy_config(), 0)
        assert [cls.kind for cls in (MeanPoolModel, MaxPoolModel, SelfAttentionModel)] == list(BASELINE_KINDS)

    @pytest.mark.parametrize("change,message", [
        ({"d_latent": 0}, "d_latent must be >= 1, got 0"),
        ({"d_latent": -4}, "d_latent must be >= 1, got -4"),
    ])
    def test_width_checks_match_ccan(self, tmp_path, change, message):
        cfg = SelfAttentionConfig(d_feature=6, d_latent=4, seed=3)
        with pytest.raises(ConfigError, match=message):
            SelfAttentionModel(replace(cfg, **change))
        with pytest.raises(ConfigError, match=message):
            CCANModel(replace(toy_config(), **change))
        # a checkpoint that carries the setting fails at load, not at the first forward
        model = SelfAttentionModel(cfg)
        model.config = replace(cfg, **change)
        save_checkpoint(model, tmp_path / "bad.ckpt")
        with pytest.raises(ConfigError, match=message):
            load_checkpoint(tmp_path / "bad.ckpt")

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_wrong_feature_width_is_a_shape_error(self, kind):
        # a pooling head used to report it only as a linear layer whose shapes do not chain
        model = baseline(kind, 6)
        with pytest.raises(ShapeError, match="bag feature dim 5 != configured 6"):
            model.forward(_const_bag(np.zeros((3, 5), np.float32)))

        class EmptyBag:
            n_tokens, d_feature = 0, 6

            def load(self):
                return self

        with pytest.raises(DataError, match="empty bag"):
            model.forward(EmptyBag())


# a v3 pooling config: its kind a second time, and three fields no pooling output reads
V3_POOL_CONFIG = {"kind": "mean-pool", "d_feature": 3, "d_latent": 512, "num_classes": 2, "scale_mode": "per-paper",
                  "heads": 1, "seed": 0}


def _const_bag(tokens):
    from ccan.data import FeatureBag

    n = tokens.shape[0]
    side = int(np.ceil(np.sqrt(n)))
    cells = np.arange(n)
    return FeatureBag(
        bag_id="t", patient_id="t", label=0, tokens=tokens,
        rows=cells // side, cols=cells % side, rows_total=side, cols_total=side,
    )


class TestCheckpoint:
    def test_no_key_bias_parameters(self):
        names = [n for n, _ in CCANModel(toy_config()).parameters()]
        # per stage: latents, class token and 4 blocks of 15 tensors; input projection and head
        assert len(names) == 2 * (2 + 4 * 15) + 2 + 4
        assert not any(n.endswith(".b_k") for n in names)

    def test_round_trip_bitwise(self, tmp_path):
        model = CCANModel(toy_config(seed=10))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for (na, pa), (nb, pb) in zip(model.parameters(), loaded.parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_forward_identical_after_reload(self, tmp_path):
        bag = toy_dataset(seed=13).bags[0]
        for config in (toy_config(), toy_config(num_classes=3)):
            model = CCANModel(replace(config, seed=11))
            before = model.forward(bag).averaged_probs
            path = tmp_path / "model.ckpt"
            save_checkpoint(model, path)
            after = load_checkpoint(path).forward(bag).averaged_probs
            assert before.shape == (config.out_units,)
            np.testing.assert_array_equal(before, after)

    def test_save_is_deterministic(self, tmp_path):
        model = CCANModel(toy_config(seed=12))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_layout(self, tmp_path):
        model = MeanPoolModel(PoolConfig(d_feature=3, seed=4))
        path = tmp_path / "pool.ckpt"
        save_checkpoint(model, path)
        # the kind is recorded once, and the config holds only what a pooling baseline reads
        payload = json.dumps({"model_kind": "mean-pool", "config": {"d_feature": 3, "num_classes": 2, "seed": 4},
                              "layout": [["head.w", [3, 1]], ["head.b", [1]]]}, sort_keys=True).encode()
        want = b"CCAN" + struct.pack("<HI", 6, len(payload)) + payload
        want += np.concatenate([model.head_w.data.ravel(), model.head_b.data]).astype("<f4").tobytes()
        assert path.read_bytes() == want
        assert [p.name for p in tmp_path.iterdir()] == ["pool.ckpt"]

    def test_save_streams_each_parameter(self, tmp_path):
        model = CCANModel(toy_config(d_feature=64, d_latent=32, n_stages=3, n_latents=16, seed=6))
        total = sum(p.data.nbytes for _, p in model.parameters())
        assert max(p.data.nbytes for _, p in model.parameters()) < total / 10
        tracemalloc.start()
        try:
            save_checkpoint(model, tmp_path / "model.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no whole-file buffer: ``values`` goes to the file as it is
        assert peak < total / 2

    def test_load_holds_the_parameters_not_the_file(self, tmp_path):
        model = CCANModel(toy_config(d_feature=256, d_latent=64, n_stages=2, n_latents=16, seed=6))
        total = sum(p.data.nbytes for _, p in model.parameters())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the values are read straight into ``values``; no buffer holds the whole file
        assert peak < 1.2 * total
        for (_, pa), (_, pb) in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"")
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == "truncated file while reading magic (at byte offset 0)"

    @pytest.mark.parametrize("save, make", [
        (save_checkpoint, lambda seed: CCANModel(toy_config(seed=seed))),
        (write_bag, lambda seed: toy_dataset(n_bags=1, d_feature=64, seed=seed).bags[0]),
        (write_ppm, lambda seed: np.random.default_rng(seed).integers(0, 256, (30, 40, 3)).astype(np.uint8)),
        (lambda plan, path: plan.write_csv(path),
         lambda seed: patient_grouped_kfold(toy_dataset(n_bags=12, seed=seed).bags, k=3, seed=seed)),
        (lambda dataset, path: write_manifest(dataset, {b.bag_id: f"{b.bag_id}.ccfb" for b in dataset.bags}, path),
         lambda seed: toy_dataset(n_bags=12, seed=seed)),
        (lambda cfg, path: cfg.echo(path), lambda seed: parse_config(None, [("seed", str(seed))])),
    ], ids=["save_checkpoint", "write_bag", "write_ppm", "SplitPlan.write_csv", "write_manifest", "RunConfig.echo"])
    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch, save, make):
        path = tmp_path / "best.ckpt"
        save(make(7), path)
        old = path.read_bytes()

        class DiskFull:
            # the disk fills halfway through the new file
            def __init__(self, fh):
                self.fh, self.left = fh, len(old) // 2

            def write(self, data):
                self.left -= len(data.encode()) if isinstance(data, str) else memoryview(data).nbytes
                if self.left < 0:
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(data_module, "open", lambda *a, **k: DiskFull(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="No space left"):
            save(make(8), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    def test_baseline_round_trip(self, tmp_path):
        model = SelfAttentionModel(SelfAttentionConfig(d_feature=6, d_latent=8, seed=4))
        path = tmp_path / "baseline.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert isinstance(loaded, SelfAttentionModel)
        assert loaded.config == model.config

    def _with_config(self, tmp_path, edit, name=None):
        """A saved TOY checkpoint, or the one at ``tmp_path / name``, with its config bytes replaced by ``edit``."""
        path = tmp_path / (name or "model.ckpt")
        if name is None:
            save_checkpoint(CCANModel(toy_config(seed=14)), path)
        blob = path.read_bytes()
        (length,) = struct.unpack("<I", blob[6:10])
        payload = edit(blob[10 : 10 + length])
        path.write_bytes(blob[:6] + struct.pack("<I", len(payload)) + payload + blob[10 + length :])
        return path

    def _config_json(self, tmp_path, change):
        def edit(raw):
            payload = json.loads(raw)
            change(payload)
            return json.dumps(payload).encode("utf-8")

        return self._with_config(tmp_path, edit)

    def test_version_1_rejected(self, tmp_path):
        # v1 carried a key bias per block, which no output depended on; later versions have none
        path = tmp_path / "model.ckpt"
        save_checkpoint(CCANModel(toy_config(seed=15)), path)
        blob = path.read_bytes()
        assert struct.unpack("<H", blob[4:6]) == (6,)
        path.write_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:])
        with pytest.raises(FormatError, match="unsupported checkpoint version 1") as err:
            load_checkpoint(path)
        assert err.value.offset == 4

    def test_version_2_rejected(self, tmp_path):
        # v2 framed each parameter as its own record; v3 lists the layout in the config and stores ``values`` whole
        path = tmp_path / "model.ckpt"
        payload = json.dumps({"model_kind": "mean-pool", "config": V3_POOL_CONFIG}).encode()
        record = struct.pack("<H", 6) + b"head.b" + struct.pack("<BI", 1, 1) + struct.pack("<f", 0.0)
        path.write_bytes(b"CCAN" + struct.pack("<HI", 2, len(payload)) + payload + struct.pack("<I", 1) + record)
        with pytest.raises(FormatError, match="unsupported checkpoint version 2") as err:
            load_checkpoint(path)
        assert err.value.offset == 4

    def test_version_3_rejected(self, tmp_path):
        # v3 saved a pooling baseline's kind twice and the width, scale and heads it never read; v4 has neither
        path = tmp_path / "model.ckpt"
        payload = json.dumps({"model_kind": "mean-pool", "config": V3_POOL_CONFIG,
                              "layout": [["head.w", [3, 1]], ["head.b", [1]]]}, sort_keys=True).encode()
        path.write_bytes(b"CCAN" + struct.pack("<HI", 3, len(payload)) + payload + np.zeros(4, "<f4").tobytes())
        with pytest.raises(FormatError, match="unsupported checkpoint version 3") as err:
            load_checkpoint(path)
        assert err.value.offset == 4

    def test_version_4_rejected(self, tmp_path):
        # v4 saved a scale mode, which v5 derives from the head count, and an unused raw-coordinate switch
        path = tmp_path / "model.ckpt"
        save_checkpoint(CCANModel(toy_config(seed=16)), path)
        blob = path.read_bytes()
        (length,) = struct.unpack("<I", blob[6:10])
        payload = json.loads(blob[10 : 10 + length])
        payload["config"].update(scale_mode="per-paper", append_raw_coords=False, heads=1)
        payload = json.dumps(payload, sort_keys=True).encode()
        path.write_bytes(b"CCAN" + struct.pack("<HI", 4, len(payload)) + payload + blob[10 + length :])
        with pytest.raises(FormatError, match="unsupported checkpoint version 4") as err:
            load_checkpoint(path)
        assert err.value.offset == 4

    def test_version_5_rejected(self, tmp_path):
        # v5 saved a head count, which v6 fixes at one
        path = tmp_path / "model.ckpt"
        save_checkpoint(CCANModel(toy_config(seed=16)), path)
        blob = path.read_bytes()
        (length,) = struct.unpack("<I", blob[6:10])
        payload = json.loads(blob[10 : 10 + length])
        payload["config"].update(heads=1)
        payload = json.dumps(payload, sort_keys=True).encode()
        path.write_bytes(b"CCAN" + struct.pack("<HI", 5, len(payload)) + payload + blob[10 + length :])
        with pytest.raises(FormatError, match="unsupported checkpoint version 5") as err:
            load_checkpoint(path)
        assert err.value.offset == 4

    def test_float64_load_equals_saved_values_after_cast(self, tmp_path):
        model = CCANModel(toy_config(seed=17))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        twin = load_checkpoint(path, dtype=np.float64)
        for (na, pa), (nb, pb) in zip(model.parameters(), twin.parameters()):
            assert na == nb and pb.data.dtype == np.float64 and pb.requires_grad
            np.testing.assert_array_equal(pb.data, pa.data.astype(np.float64))

    @pytest.mark.parametrize("kind", ["ccan", "full-self-attention"])
    def test_load_draws_no_random_values(self, tmp_path, monkeypatch, kind):
        if kind == "ccan":
            model = CCANModel(toy_config(seed=18))
        else:
            model = baseline(kind, 6, d_latent=8, seed=18)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded = load_checkpoint(path)
        for (_, pa), (_, pb) in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_repeated_parameter_name_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(CCANModel(toy_config(seed=19)), path)
        blob = path.read_bytes()
        at = blob.index(b'"stage1.cross0.w_k"')
        path.write_bytes(blob[:at] + b'"stage1.cross0.w_q"' + blob[at + 19 :])
        with pytest.raises(FormatError, match=r"layout has \['stage1.cross0.w_q', \[16, 16\]\] at entry 6, "
                                              r"where \['stage1.cross0.w_k', \[16, 16\]\] belongs") as err:
            load_checkpoint(path)
        assert err.value.offset == 10

    def _pool_with_layout(self, tmp_path, old, new):
        """A saved mean-pool checkpoint whose layout JSON has ``old`` replaced by ``new``."""
        save_checkpoint(MeanPoolModel(PoolConfig(d_feature=3, seed=4)), tmp_path / "pool.ckpt")
        return self._with_config(tmp_path, lambda raw: raw.replace(old, new), name="pool.ckpt")

    def test_records_must_come_in_parameters_order(self, tmp_path):
        # the layout lists parameters() in order, so a reordered layout is an error
        path = self._pool_with_layout(tmp_path, b'["head.w", [3, 1]], ["head.b", [1]]',
                                      b'["head.b", [1]], ["head.w", [3, 1]]')
        with pytest.raises(FormatError, match=r"layout has \['head.b', \[1\]\] at entry 0, "
                                              r"where \['head.w', \[3, 1\]\] belongs") as err:
            load_checkpoint(path)
        assert err.value.offset == 10

    def test_record_extents_must_match(self, tmp_path):
        # the same number of values, laid out 1 x 3 instead of 3 x 1
        path = self._pool_with_layout(tmp_path, b'["head.w", [3, 1]]', b'["head.w", [1, 3]]')
        with pytest.raises(FormatError, match=r"layout has \['head.w', \[1, 3\]\] at entry 0, "
                                              r"where \['head.w', \[3, 1\]\] belongs") as err:
            load_checkpoint(path)
        assert err.value.offset == 10

    @pytest.mark.parametrize("old, new, message", [
        (b', ["head.b", [1]]', b"", r"layout has nothing at entry 1, where \['head.b', \[1\]\] belongs"),
        (b'["head.b", [1]]', b'["head.b", [1]], ["head.c", [1]]',
         r"layout has \['head.c', \[1\]\] at entry 2, where nothing belongs"),
        (b'[["head.w", [3, 1]], ["head.b", [1]]]', b'{"head.w": [3, 1]}',
         r"layout has \{'head.w': \[3, 1\]\} at entry 0, where \['head.w', \[3, 1\]\] belongs"),
    ], ids=["missing", "extra", "not-a-list"])
    def test_layout_entries_missing_or_extra(self, tmp_path, old, new, message):
        # the values that follow are the model's own, so only the layout is at fault
        with pytest.raises(FormatError, match=message) as err:
            load_checkpoint(self._pool_with_layout(tmp_path, old, new))
        assert err.value.offset == 10

    @pytest.mark.parametrize("change", [
        {"d_latent": 2**22},
        {"d_latent": 2**62},  # more values than numpy can even shape
        {"n_frequencies": 2**40},
        {"n_stages": 2**31, "compression": 1},
        {"block_repeats": 2**31},
        {"num_classes": 2**40},
    ], ids=["d_latent", "d_latent-2^62", "n_frequencies", "n_stages", "block_repeats", "num_classes"])
    def test_config_its_file_cannot_back_rejected_before_allocation(self, tmp_path, change):
        path = self._config_json(tmp_path, lambda p: p["config"].update(change))
        blob = path.read_bytes()
        after_config = 10 + struct.unpack("<I", blob[6:10])[0]
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"but {len(blob) - after_config} bytes follow it") as err:
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1e6 and err.value.offset == after_config

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw.replace(b'"seed": 14', b'"seed": 1' + b"0" * 5000), "digits"),
        (lambda raw: b"[" * 100_000 + b"]" * 100_000, "recursion"),
    ], ids=["integer-digits", "nesting"])
    def test_config_json_beyond_the_parsers_limits(self, tmp_path, edit, message):
        path = self._with_config(tmp_path, edit)
        with pytest.raises(FormatError, match=f"not valid JSON: .*{message}") as err:
            load_checkpoint(path)
        assert err.value.offset == 10

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(CCANModel(toy_config(seed=20)), path)
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == "bad checkpoint magic (at byte offset 0)" and err.value.offset == 0

    def test_truncated_values(self, tmp_path):
        model = CCANModel(toy_config(seed=21))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        values = model.values.nbytes
        path.write_bytes(blob[:-2])  # half of the last parameter's value
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"checkpoint config needs {values} bytes of float32 values up to parameter "
                                  f"'head.b2', but {values - 2} bytes follow it (at byte offset {len(blob) - values})")

    def test_non_utf8_parameter_name(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(CCANModel(toy_config(seed=16)), path)
        blob = bytearray(path.read_bytes())
        at = blob.index(b'"input_proj.w"') + 4  # fourth byte of the first parameter name
        blob[at] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="checkpoint config is not UTF-8") as err:
            load_checkpoint(path)
        assert err.value.offset == at

    def test_non_utf8_config_byte(self, tmp_path):
        path = self._with_config(tmp_path, lambda raw: raw[:5] + b"\xff" + raw[6:])
        with pytest.raises(FormatError, match="not UTF-8") as err:
            load_checkpoint(path)
        assert err.value.offset == 10 + 5

    def test_invalid_json_config(self, tmp_path):
        path = self._with_config(tmp_path, lambda raw: raw[:-1])  # drop the closing brace
        with pytest.raises(FormatError, match="not valid JSON") as err:
            load_checkpoint(path)
        assert err.value.offset is not None and err.value.offset >= 10

    def test_renamed_config_key(self, tmp_path):
        path = self._config_json(tmp_path, lambda p: p["config"].update(n_stage=p["config"].pop("n_stages")))
        with pytest.raises(FormatError, match=r"unknown keys \['n_stage'\] and missing keys \['n_stages'\]"):
            load_checkpoint(path)

    def test_missing_config_key(self, tmp_path):
        path = self._config_json(tmp_path, lambda p: p["config"].pop("seed"))
        with pytest.raises(FormatError, match=r"missing keys \['seed'\]"):
            load_checkpoint(path)

    def test_mistyped_config_value(self, tmp_path):
        path = self._config_json(tmp_path, lambda p: p["config"].update(n_stages="2"))
        with pytest.raises(FormatError, match="'n_stages' is '2', expected int"):
            load_checkpoint(path)

    def test_negative_seed_rejected(self, tmp_path):
        # such a config loads but cannot draw its initial weights again: type(model)(model.config) would raise
        path = tmp_path / "pool.ckpt"
        save_checkpoint(MeanPoolModel(PoolConfig(d_feature=3, seed=4)), path)
        self._with_config(tmp_path, lambda raw: raw.replace(b'"seed": 4', b'"seed": -4'), name="pool.ckpt")
        with pytest.raises(FormatError, match=r"checkpoint config 'seed' is -4, expected >= 0") as err:
            load_checkpoint(path)
        assert err.value.offset == 10

    def test_unknown_model_kind(self, tmp_path):
        path = self._config_json(tmp_path, lambda p: p.update(model_kind="median-pool"))
        with pytest.raises(FormatError, match="unknown model_kind 'median-pool'"):
            load_checkpoint(path)

    def test_model_kind_must_match_the_config(self, tmp_path):
        # the kind, recorded once, picks the model class and so the config class its config must fill
        path = tmp_path / "pool.ckpt"
        save_checkpoint(MaxPoolModel(PoolConfig(d_feature=3, seed=4)), path)
        blob = path.read_bytes()
        (length,) = struct.unpack("<I", blob[6:10])
        payload = blob[10 : 10 + length].replace(b'"model_kind": "max-pool"', b'"model_kind": "full-self-attention"')
        path.write_bytes(blob[:6] + struct.pack("<I", len(payload)) + payload + blob[10 + length :])
        with pytest.raises(FormatError, match=r"missing keys \['d_latent'\]") as err:
            load_checkpoint(path)
        assert err.value.offset == 10

    def test_missing_model_kind(self, tmp_path):
        path = self._config_json(tmp_path, lambda p: p.pop("model_kind"))
        with pytest.raises(FormatError, match="exactly 'model_kind', 'config' and 'layout'"):
            load_checkpoint(path)

    def test_empty_bag_forward_rejected(self):
        model = CCANModel(toy_config(seed=13))

        class FakeBag:
            n_tokens = 0
            d_feature = 12

            def load(self):
                return self

        with pytest.raises(DataError):
            model.forward(FakeBag())


@functools.cache
def toy_checkpoint(kind):
    """The bytes of a saved ``kind`` checkpoint at TOY widths, and the offset its values start at."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        save_checkpoint(make_model(kind, CCANConfig(**TOY), seed=24), path)
        with open(path, "rb") as fh:
            blob = fh.read()
    return blob, 10 + struct.unpack("<I", blob[6:10])[0]


def load_bytes(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        with open(path, "wb") as fh:
            fh.write(blob)
        return load_checkpoint(path)


class TestCheckpointProperties:
    """Damaged TOY checkpoints: each fault is a typed error, never another exception or other values.

    Every example damages a checkpoint of each model kind, so each kind sees every example.
    """

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_truncation_at_any_offset(self, data):
        for kind in MODEL_KINDS:
            blob, _ = toy_checkpoint(kind)
            cut = data.draw(st.integers(0, len(blob) - 1), label=f"{kind} cut")
            with pytest.raises(FormatError):
                load_bytes(blob[:cut])

    @settings(max_examples=100, deadline=None)
    @given(length=st.integers(0, 2**32 - 1))
    def test_corrupted_config_length(self, length):
        for kind in MODEL_KINDS:
            blob, start = toy_checkpoint(kind)
            wrong = length + 1 if length == start - 10 else length
            with pytest.raises(FormatError):
                load_bytes(blob[:6] + struct.pack("<I", wrong) + blob[10:])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_byte_changed_before_the_values(self, data):
        for kind in MODEL_KINDS:
            blob, start = toy_checkpoint(kind)
            at = data.draw(st.integers(0, start - 1), label=f"{kind} at")
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]), label=f"{kind} byte")
            try:
                model = load_bytes(blob[:at] + bytes([byte]) + blob[at + 1:])
            except CCANError:
                continue
            np.testing.assert_array_equal(model.values, np.frombuffer(blob, "<f4", offset=start))
