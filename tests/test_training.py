import dataclasses
import hashlib
import math
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccan import autograd as ag
from ccan import training
from ccan.autograd import Tensor
from ccan.data import (
    Dataset,
    FeatureBag,
    FoldSplit,
    generate_synthetic,
    load_manifest,
    patient_grouped_kfold,
    write_bag,
    write_manifest,
)
from ccan.errors import ConfigError, DataError, MetricError, UsageError
from ccan.model import (
    CCANConfig,
    CCANModel,
    MeanPoolModel,
    PoolConfig,
    SelfAttentionConfig,
    SelfAttentionModel,
    load_checkpoint,
)
from ccan.training import (
    ADAMW_CHUNK,
    BETA1,
    BETA2,
    EPS,
    WEIGHT_DECAY,
    AdamWState,
    TrainConfig,
    adamw_step,
    auc_binary,
    auc_macro_ovr,
    bag_loss,
    cosine_lr,
    data_efficiency_sweep,
    derive_seed,
    evaluate_auc,
    train,
    write_sweep_csv,
)
from composed import composed_bce, grad_check


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestBceLoss:
    def test_half_prob(self):
        loss = ag.bce([t64([0.5])], [1.0])
        np.testing.assert_allclose(loss.item(), math.log(2.0), atol=1e-12)

    def test_confident_correct_is_near_zero(self):
        loss = ag.bce([t64([1.0, 0.0])], [1.0, 0.0])  # clamp keeps logs finite
        assert 0 <= loss.item() < 1e-5

    def test_closed_form_pair(self):
        loss = ag.bce([t64([0.9, 0.2])], [1.0, 0.0])
        expected = (-math.log(0.9) - math.log(0.8)) / 2.0
        np.testing.assert_allclose(loss.item(), expected, atol=1e-12)
        assert abs(expected - 0.1643) < 1e-4

    def test_gradient(self):
        p = t64([0.3, 0.8, 0.6], requires_grad=True)
        report = grad_check(lambda: ag.bce([p], [1.0, 0.0, 1.0]), [("p", p)], eps=1e-5)
        assert report.max_rel_err < 1e-6


class TestTotalLoss:
    """The stage terms of ``ag.bce`` are summed, not averaged."""

    def test_sum(self):
        a, b = t64([0.9, 0.2]), t64([0.4, 0.7])
        np.testing.assert_allclose(ag.bce([a, b], [1.0, 0.0]).item(),
                                   ag.bce([a], [1.0, 0.0]).item() + ag.bce([b], [1.0, 0.0]).item(), atol=1e-12)

    def test_single_term_identity(self):
        p = t64([0.3, 0.8])
        assert ag.bce([p], [1.0, 0.0]).item() == composed_bce([p], [1.0, 0.0]).item()

    def test_six_stages_of_ln2(self):
        loss = ag.bce([t64([0.5])] * 6, [0.0])
        np.testing.assert_allclose(loss.item(), 6 * math.log(2.0), atol=1e-12)

    def test_sum_not_mean(self):
        xs = [t64([0.3]), t64([0.7])]
        doubled = ag.bce(xs + xs, [1.0]).item()
        np.testing.assert_allclose(doubled, 2.0 * ag.bce(xs, [1.0]).item(), atol=1e-12)


def adamw_reference_step(p, g, m, v, t, lr):
    """The whole-array expression adamw_step walks chunk by chunk."""
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    p -= (lr * WEIGHT_DECAY) * p
    p -= lr * m_hat / (np.sqrt(v_hat) + EPS)


def bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


class TestAdamW:
    def test_the_stock_hyperparameters(self):
        assert (BETA1, BETA2, EPS, WEIGHT_DECAY) == (0.9, 0.999, 1e-8, 0.01)

    def test_one_step_closed_form(self):
        # from theta = 0 decay adds nothing, and the bias-corrected moments of the first step are g and g*g
        theta = np.array([0.0])
        state = AdamWState.for_params([theta])
        adamw_step(theta, np.array([1.0]), state, lr=0.1)
        np.testing.assert_allclose(theta, [-0.1 / (1.0 + EPS)], rtol=1e-15)

    def test_decay_only_path(self):
        # a zero gradient leaves both moments zero, so the step is the decay alone
        theta = np.array([2.0])
        state = AdamWState.for_params([theta])
        adamw_step(theta, np.array([0.0]), state, lr=0.1)
        np.testing.assert_array_equal(theta, [2.0 - 2.0 * (0.1 * WEIGHT_DECAY)])

    def test_zero_lr_is_identity(self):
        theta = np.array([1.0, -2.0])
        state = AdamWState.for_params([theta])
        for _ in range(2):
            adamw_step(theta, np.array([3.0, -1.0]), state, lr=0.0)
        np.testing.assert_array_equal(theta, [1.0, -2.0])

    def test_chunked_step_matches_whole_array_reference_bitwise(self):
        rng = np.random.default_rng(12)
        n = 3 * ADAMW_CHUNK + 7
        theta = rng.normal(size=n).astype(np.float32)
        ref, ref_m, ref_v = theta.copy(), np.zeros_like(theta), np.zeros_like(theta)
        state = AdamWState.for_params([theta])
        for t in range(1, 4):
            g = (rng.normal(size=n) * 10.0 ** rng.uniform(-9, 0, size=n)).astype(np.float32)
            lr = 1e-3 / t
            adamw_step(theta, g, state, lr)
            adamw_reference_step(ref, g, ref_m, ref_v, t, lr)
        assert theta.dtype == state.m.dtype == state.v.dtype == np.float32
        np.testing.assert_array_equal(bits(theta), bits(ref))
        np.testing.assert_array_equal(bits(state.m), bits(ref_m))
        np.testing.assert_array_equal(bits(state.v), bits(ref_v))

    def test_packed_tensors_step_like_each_alone(self):
        # the boundary between the two tensors falls inside a chunk, and the second spans two chunks
        rng = np.random.default_rng(13)
        sizes = (ADAMW_CHUNK // 2 + 3, ADAMW_CHUNK + 11)
        alone = [rng.normal(size=k).astype(np.float32) for k in sizes]
        packed = np.concatenate(alone)
        states = [AdamWState.for_params([a]) for a in alone]
        state = AdamWState.for_params(alone)
        assert state.m.shape == state.v.shape == packed.shape
        for t in range(1, 4):
            gs = [(rng.normal(size=k) * 10.0 ** rng.uniform(-9, 0, size=k)).astype(np.float32) for k in sizes]
            for a, g, st_ in zip(alone, gs, states):
                adamw_step(a, g, st_, 1e-3 / t)
            adamw_step(packed, np.concatenate(gs), state, 1e-3 / t)
        np.testing.assert_array_equal(bits(packed), bits(np.concatenate(alone)))
        np.testing.assert_array_equal(bits(state.m), bits(np.concatenate([st_.m for st_ in states])))
        np.testing.assert_array_equal(bits(state.v), bits(np.concatenate([st_.v for st_ in states])))

    def test_mismatched_gradient_rejected(self):
        theta = np.zeros(3, dtype=np.float32)
        state = AdamWState.for_params([theta])
        for grads in (np.zeros(3), np.zeros(4, np.float32)):
            with pytest.raises(UsageError, match=r"one shape and dtype, got parameters float32\(3,\), gradient"):
                adamw_step(theta, grads, state, lr=0.1)
        assert state.t == 0

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_mismatched_moment_rejected(self, moment):
        theta = np.zeros(3, dtype=np.float32)
        for wrong in (np.zeros(3), np.zeros(2, np.float32)):
            state = AdamWState.for_params([theta])
            setattr(state, moment, wrong)
            with pytest.raises(UsageError, match=f"one shape and dtype, got .* {moment} {wrong.dtype}"):
                adamw_step(theta, np.zeros_like(theta), state, lr=0.1)

    def test_parameters_must_be_one_flat_array(self):
        theta = np.zeros((2, 3), dtype=np.float32)
        state = AdamWState(m=np.zeros_like(theta), v=np.zeros_like(theta))
        with pytest.raises(UsageError, match=r"needs 1-D arrays .* parameters float32\(2, 3\)"):
            adamw_step(theta, np.zeros_like(theta), state, lr=0.1)


class TestTrainConfig:
    @pytest.mark.parametrize("change, message", [
        ({"lr_max": float("inf")}, "lr_max must be finite and >= 0, got inf"),
        ({"lr_max": -1e-3}, "lr_max must be finite and >= 0, got -0.001"),
        ({"lr_max": float("nan")}, "lr_max must be finite and >= 0, got nan"),
    ])
    def test_optimizer_settings_outside_their_range_rejected(self, change, message):
        assert TrainConfig(lr_max=0.0).validate()
        with pytest.raises(ConfigError) as err:
            TrainConfig(**change).validate()
        assert str(err.value) == message

    def test_rejected_before_the_first_step(self):
        ds, plan = small_task(seed=1, n_bags=24)
        model = small_model(seed=2)
        before = [p.data.copy() for _, p in model.parameters()]
        with pytest.raises(ConfigError, match="lr_max"):
            train(model, ds, plan.folds[0], TrainConfig(epochs=1, batch_size=2, lr_max=-1.0))
        assert all(np.array_equal(a, p.data) for a, (_, p) in zip(before, model.parameters()))

    def test_negative_seed_rejected_before_the_first_step(self):
        # the seed starts train's generator; numpy's own error for a negative one is a ValueError
        ds, plan = small_task(seed=1, n_bags=24)
        model = small_model(seed=2)
        before = model.values.copy()
        with pytest.raises(ConfigError, match=r"seed must be >= 0, got -1"):
            train(model, ds, plan.folds[0], TrainConfig(epochs=1, batch_size=2, seed=-1))
        np.testing.assert_array_equal(model.values, before)


class TestCosineLR:
    def test_start_is_max(self):
        assert cosine_lr(0, 100, 1e-3) == 1e-3

    def test_end_is_min(self):
        assert cosine_lr(100, 100, 1e-3) == 0.0

    def test_midpoint(self):
        np.testing.assert_allclose(cosine_lr(50, 100, 1e-3), 1e-3 / 2)

    def test_non_increasing(self):
        values = [cosine_lr(t, 200, 1.0) for t in range(201)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_bad_step(self):
        with pytest.raises(ConfigError):
            cosine_lr(5, 4, 1.0)


def pairwise_auc(scores, labels):
    """O(n^2) oracle: fraction of correctly ordered positive/negative pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


class TestAucBinary:
    def test_worked_example(self):
        assert auc_binary([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_perfect_separation(self):
        assert auc_binary([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_give_half(self):
        assert auc_binary([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_labels_outside_zero_one_rejected(self):
        # a label of neither class would push the rank statistic outside [0, 1] (here to 3.0)
        with pytest.raises(MetricError, match=r"must be 0 or 1, got \[7\]"):
            auc_binary([0.9, 0.5, 0.1, 0.05], [1, 0, 7, 7])

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auc_binary([0.1, 0.2], [1, 1])

    def test_tied_runs_take_their_midranks(self):
        # ranks 1.5, 1.5, 4, 4, 4, 6: positives sum to 1.5 + 4 + 6, so AUC = (11.5 - 6) / 9
        scores, labels = [0.2, 0.7, 0.2, 0.7, 0.9, 0.7], [1, 1, 0, 0, 1, 0]
        assert auc_binary(scores, labels) == 5.5 / 9 == pairwise_auc(scores, labels)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected(self, bad):
        # a NaN used to sort above every score and count as the top rank (AUC 1.0 here)
        with pytest.raises(MetricError, match=f"scores must be finite, got {bad}"):
            auc_binary([0.1, bad, 0.3, 0.9], [0, 1, 0, 1])

    def test_matches_pairwise_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(4, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.normal(size=n), 1)
            assert abs(auc_binary(scores, labels) - pairwise_auc(scores, labels)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(-5, 5)), min_size=4, max_size=40))
    def test_pairwise_oracle_property(self, pairs):
        labels = np.array([p[0] for p in pairs])
        scores = np.array([p[1] for p in pairs], dtype=np.float64)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert abs(auc_binary(scores, labels) - pairwise_auc(scores, labels)) < 1e-12


class TestAucMacroOvr:
    def test_two_class_complementary_equals_binary(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=30)
        s1 = rng.uniform(size=30)
        matrix = np.stack([1.0 - s1, s1], axis=1)
        np.testing.assert_allclose(auc_macro_ovr(matrix, labels), auc_binary(s1, labels), atol=1e-12)

    def test_one_hot_perfect(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        matrix = np.eye(3)[labels]
        assert auc_macro_ovr(matrix, labels) == 1.0

    def test_matches_per_class_oracle(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, size=40)
        for k in range(3):
            if (labels == k).sum() == 0:
                labels[k] = k
        matrix = rng.uniform(size=(40, 3))
        expected = np.mean([pairwise_auc(matrix[:, k], (labels == k).astype(int)) for k in range(3)])
        np.testing.assert_allclose(auc_macro_ovr(matrix, labels), expected, atol=1e-12)

    def test_label_outside_classes_rejected(self):
        scores = np.full((4, 3), 1.0 / 3)
        with pytest.raises(MetricError, match=r"outside 0\.\.2"):
            auc_macro_ovr(scores, [0, 1, 2, 3])

    def test_missing_class_rejected(self):
        with pytest.raises(MetricError):
            auc_macro_ovr(np.zeros((4, 3)), [0, 1, 0, 1])


def small_task(seed=0, n_bags=60, d_feature=32, **kwargs):
    params = dict(n_per_bag_range=(15, 30), witness_shift=4.0, witness_count_range=(2, 4),
                  grid=(10, 10))
    params.update(kwargs)
    ds = generate_synthetic(n_bags, d_feature=d_feature, seed=seed, **params)
    plan = patient_grouped_kfold(ds.bags, k=4, val_fraction=0.2, seed=seed + 1)
    return ds, plan


def small_model(seed=0, d_feature=32, **kwargs):
    base = dict(n_stages=2, n_latents=16, compression=2, d_latent=32, d_feature=d_feature,
                self_layers=1, p_dropout=0.5, n_frequencies=2, seed=seed)
    base.update(kwargs)
    return CCANModel(CCANConfig(**base))


class TestTrain:
    def test_learns_witness_task(self):
        ds, plan = small_task(seed=3)
        model = small_model(seed=4)
        cfg = TrainConfig(epochs=8, batch_size=8, lr_max=1e-3, seed=5)
        _, history = train(model, ds, plan.folds[0], cfg)
        assert history.best_val_auc >= 0.9
        assert history.best_val_auc == max(history.val_auc)

    def test_three_class_trains_and_reloads_bit_identically(self, tmp_path):
        # the one-vs-rest loss end to end: a TOY model with three sigmoid outputs
        ds, plan = small_task(seed=40, n_bags=48, d_feature=64, n_classes=3)
        model = small_model(seed=42, d_feature=64, p_dropout=0.0, num_classes=3)
        fold = plan.folds[0]
        for ids in (fold.val_ids, fold.test_ids):  # the macro AUC needs every class
            assert {ds.by_id(i).label for i in ids} == {0, 1, 2}
        ckpt = str(tmp_path / "best.ckpt")
        _, history = train(model, ds, fold, TrainConfig(epochs=3, batch_size=8, lr_max=1e-3, seed=43),
                           checkpoint_path=ckpt)
        assert len(history.train_loss) == len(history.val_auc) == 3
        assert np.isfinite(history.train_loss + history.val_auc + [history.test_auc_at_best]).all()
        reloaded = load_checkpoint(ckpt)
        assert reloaded.config.num_classes == 3
        for bag in ds.bags[:8]:
            a, b = model.forward(bag), reloaded.forward(bag)
            assert a.averaged_probs.shape == (3,)
            for got, want in zip([b.averaged_probs] + [s.probs for s in b.stages],
                                 [a.averaged_probs] + [s.probs for s in a.stages], strict=True):
                assert got.tobytes() == want.tobytes()

    def test_zero_lr_changes_nothing(self):
        ds, plan = small_task(seed=6, n_bags=20)
        model = small_model(seed=7)
        before = {name: p.data.copy() for name, p in model.parameters()}
        cfg = TrainConfig(epochs=2, batch_size=4, lr_max=0.0, seed=8)
        _, history = train(model, ds, plan.folds[0], cfg)
        for name, p in model.parameters():
            np.testing.assert_array_equal(p.data, before[name])
        assert len(set(history.val_auc)) == 1

    def test_deterministic_given_seed(self):
        ds, plan = small_task(seed=9, n_bags=24)
        cfg = TrainConfig(epochs=3, batch_size=4, lr_max=5e-4, seed=10)
        histories = []
        for _ in range(2):
            model = small_model(seed=11)
            _, history = train(model, ds, plan.folds[1], cfg)
            histories.append(history)
        assert histories[0].train_loss == histories[1].train_loss
        assert histories[0].val_auc == histories[1].val_auc
        assert histories[0].best_epoch == histories[1].best_epoch

    def test_model_ends_at_best_params(self, tmp_path):
        ds, plan = small_task(seed=12, n_bags=24)
        model = small_model(seed=13)
        cfg = TrainConfig(epochs=3, batch_size=4, lr_max=5e-4, seed=14)
        best, history = train(model, ds, plan.folds[0], cfg, checkpoint_path=tmp_path / "best.ckpt")
        assert best.shape == model.values.shape and not np.shares_memory(best, model.values)
        np.testing.assert_array_equal(model.values, best)
        test_bags = [ds.by_id(i) for i in plan.folds[0].test_ids]
        np.testing.assert_allclose(evaluate_auc(model, test_bags), history.test_auc_at_best)
        assert (tmp_path / "best.ckpt").exists()

    @pytest.mark.parametrize("aucs,best_epoch", [((0.9, 0.5, 0.7), 0), ((0.5, 0.9, 0.7), 1)])
    def test_ends_at_a_best_epoch_before_the_last(self, monkeypatch, aucs, best_epoch):
        ds, plan = small_task(seed=18, n_bags=20)
        model = small_model(seed=19)
        scores = iter(aucs + (0.6,))  # three epochs, then the test set
        monkeypatch.setattr(training, "evaluate_auc", lambda model, bags: next(scores))
        seen = []  # the parameters at the end of each epoch

        def log(line):
            seen.append(model.values.copy())

        cfg = TrainConfig(epochs=3, batch_size=4, lr_max=1e-3, seed=20)
        best, history = train(model, ds, plan.folds[0], cfg, log=log)
        assert history.best_epoch == best_epoch
        assert history.test_auc_at_best == 0.6
        assert not np.array_equal(seen[best_epoch], seen[-1])
        np.testing.assert_array_equal(model.values, seen[best_epoch])
        np.testing.assert_array_equal(best, seen[best_epoch])
        assert not np.shares_memory(best, model.values)

    def test_memory_of_a_step_is_moments_grads_and_one_bag(self):
        # parameters dominate this model's activations; live during training are the two
        # AdamW moments, one set of gradients (or the best snapshot) and one bag's graph
        ds = generate_synthetic(24, n_per_bag_range=(4, 6), d_feature=512, witness_shift=4.0,
                                witness_count_range=(1, 2), grid=(4, 4), seed=1)
        fold = patient_grouped_kfold(ds.bags, k=4, val_fraction=0.2, seed=2).folds[0]
        model = SelfAttentionModel(SelfAttentionConfig(d_feature=512, d_latent=256, seed=3))
        param_bytes = sum(p.data.nbytes for _, p in model.parameters())
        bag = max((ds.by_id(i) for i in fold.train_ids), key=lambda b: b.n_tokens)
        tracemalloc.start()
        try:
            graph = bag_loss(model.forward(bag, train_mode=True), bag.label, 2)
            one_bag = tracemalloc.get_traced_memory()[1]
            del graph
            tracemalloc.reset_peak()
            train(model, ds, fold, TrainConfig(epochs=1, batch_size=2, lr_max=1e-4, seed=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fold.train_ids) > 2 * 2
        assert peak < 3.5 * param_bytes + one_bag

    def test_no_gradient_array_outlives_its_window(self, monkeypatch):
        # a window's gradient array is as large as the parameters; alive during evaluation,
        # next to the snapshot, it would raise the peak by one parameter set
        ds, plan = small_task(seed=50, n_bags=20)
        model = small_model(seed=51)
        params = [p for _, p in model.parameters()]
        windows, evaluated = [], []
        step, evaluate = training.adamw_step, training.evaluate_auc

        def recording_step(values, grads, *args):
            assert values is model.values and all(p.grad.base is grads for p in params)
            windows.append(weakref.ref(grads))
            return step(values, grads, *args)

        def checking_evaluate(m, bags):
            assert all(p.grad is None for p in params)
            assert windows and all(w() is None for w in windows)
            evaluated.append(len(windows))
            return evaluate(m, bags)

        monkeypatch.setattr(training, "adamw_step", recording_step)
        monkeypatch.setattr(training, "evaluate_auc", checking_evaluate)
        train(model, ds, plan.folds[0], TrainConfig(epochs=2, batch_size=4, lr_max=1e-3, seed=52))
        per_epoch = math.ceil(len(plan.folds[0].train_ids) / 4)
        assert evaluated == [per_epoch, 2 * per_epoch, 2 * per_epoch]  # two epochs, then the test bags

    def test_parameter_without_gradient_steps_with_zeros(self, monkeypatch):
        ds, plan = small_task(seed=53, n_bags=20)
        model = small_model(seed=54)
        frozen = model.head_w2
        frozen.requires_grad = False  # the backward never writes its gradient
        start = frozen.data.__array_interface__["data"][0] - model.values.__array_interface__["data"][0]
        block = slice(start // frozen.data.itemsize, start // frozen.data.itemsize + frozen.data.size)
        initial, alone = frozen.data.copy(), AdamWState.for_params([frozen.data])
        step, steps = training.adamw_step, []

        def checking_step(values, grads, state, lr):
            want = values[block].copy()
            step(want, np.zeros_like(want), alone, lr)  # the block alone, with a zero gradient
            assert not grads[block].any()
            step(values, grads, state, lr)
            np.testing.assert_array_equal(values[block], want)
            steps.append(lr)

        monkeypatch.setattr(training, "adamw_step", checking_step)
        train(model, ds, plan.folds[0], TrainConfig(epochs=1, batch_size=4, lr_max=1e-3, seed=55))
        assert len(steps) > 1 and not np.array_equal(frozen.data, initial)  # weight decay moved it

    def test_previous_bag_graph_released_before_the_next_forward(self):
        # activations dominate this model's parameters; a step over two bags must not hold
        # the first bag's graph while the second one runs
        ds = generate_synthetic(16, n_per_bag_range=(400, 400), d_feature=16, witness_shift=4.0,
                                witness_count_range=(1, 2), grid=(20, 20), seed=1)
        fold = patient_grouped_kfold(ds.bags, k=4, val_fraction=0.2, seed=2).folds[0]
        model = small_model(seed=3, d_feature=16, d_latent=16, p_dropout=0.0)
        param_bytes = sum(p.data.nbytes for _, p in model.parameters())
        bag = ds.by_id(fold.train_ids[0])
        tracemalloc.start()
        try:
            loss = bag_loss(model.forward(bag, train_mode=True), bag.label, 2)
            forward = tracemalloc.get_traced_memory()[1]
            ag.backward(loss)
            del loss
            one_bag = tracemalloc.get_traced_memory()[1]
            ag.zero_grad([p for _, p in model.parameters()])
            tracemalloc.reset_peak()
            train(model, ds, fold, TrainConfig(epochs=1, batch_size=2, lr_max=1e-4, seed=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the moments and the best snapshot are a few parameter sets; a kept graph is a forward more
        assert peak < one_bag + 4 * param_bytes + forward / 4

    def test_history_csv(self, tmp_path):
        ds, plan = small_task(seed=15, n_bags=20)
        model = small_model(seed=16)
        cfg = TrainConfig(epochs=2, batch_size=4, lr_max=1e-4, seed=17)
        _, history = train(model, ds, plan.folds[0], cfg)
        path = tmp_path / "history.csv"
        history.write_csv(path)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_auc"
        assert len(lines) == 1 + 2 + 2  # header + epochs + summary rows


def written_manifest(dataset, directory):
    for bag in dataset.bags:
        write_bag(bag, directory / f"{bag.bag_id}.ccfb")
    manifest = directory / "manifest.csv"
    write_manifest(dataset, {b.bag_id: f"{b.bag_id}.ccfb" for b in dataset.bags}, manifest)
    return manifest


class TestTrainFromManifest:
    def test_same_bytes_as_in_memory(self, tmp_path):
        ds, plan = small_task(seed=40, n_bags=24)
        manifest = written_manifest(ds, tmp_path)
        digests = []
        for name, dataset in (("memory", ds), ("manifest", load_manifest(manifest))):
            run = tmp_path / name
            run.mkdir()
            cfg = TrainConfig(epochs=3, batch_size=4, lr_max=5e-4, seed=41)
            _, history = train(small_model(seed=42), dataset, plan.folds[0], cfg,
                               checkpoint_path=run / "best.ckpt")
            history.write_csv(run / "history.csv")
            digests.append([hashlib.sha256((run / f).read_bytes()).hexdigest() for f in ("history.csv", "best.ckpt")])
        assert digests[0] == digests[1]

    def test_holds_one_bag_at_a_time(self, tmp_path):
        # 8 bags of 2 MB whose tokens outweigh the model's graph; the traced peak of loading the
        # manifest and training stays within the in-memory run's peak plus two bags, not eight
        rng = np.random.default_rng(43)
        bags = []
        for i in range(8):
            cells = rng.permutation(64 * 64)[:4000]
            tokens = rng.standard_normal((4000, 128)).astype(np.float32)
            bags.append(FeatureBag(f"b{i}", f"p{i}", i % 2, tokens, cells // 64, cells % 64, 64, 64))
        ds = Dataset(bags)
        manifest = written_manifest(ds, tmp_path)
        fold = FoldSplit([f"b{i}" for i in range(4)], ["b4", "b5"], ["b6", "b7"])
        cfg = TrainConfig(epochs=2, batch_size=2, lr_max=1e-3, seed=44)

        def traced_peak(make_dataset):
            model = small_model(seed=45, d_feature=128, n_latents=8, d_latent=16)
            tracemalloc.start()
            try:
                train(model, make_dataset(), fold, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        graph = traced_peak(lambda: ds)  # the bags are allocated before tracing starts
        peak = traced_peak(lambda: load_manifest(manifest))
        assert peak < graph + 2 * bags[0].tokens.nbytes


class TestLabelRange:
    def _relabelled(self, seed, n_bags):
        ds, plan = small_task(seed=seed, n_bags=n_bags)
        bag = ds.by_id(plan.folds[0].test_ids[0])
        bag.label = 7
        return ds, plan, bag

    def test_bag_loss_rejects_label_outside_task(self):
        with pytest.raises(DataError, match=r"label 7 is outside 0\.\.1"):
            bag_loss(None, 7, 2)  # checked before the output is read

    def test_evaluate_auc_names_the_bag(self):
        ds, plan, bag = self._relabelled(seed=32, n_bags=16)
        with pytest.raises(DataError, match=f"bag '{bag.bag_id}' has label 7, outside 0\\.\\.1"):
            evaluate_auc(small_model(seed=33), ds.bags)

    def test_train_names_the_bag_before_the_first_step(self, monkeypatch):
        ds, plan, bag = self._relabelled(seed=34, n_bags=16)
        monkeypatch.setattr("ccan.training.adamw_step", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(DataError, match=f"bag '{bag.bag_id}' has label 7"):
            train(small_model(seed=35), ds, plan.folds[0], TrainConfig(epochs=1, batch_size=4))

    @pytest.mark.parametrize("subset, ids", [("validation", "val_ids"), ("test", "test_ids")])
    def test_train_rejects_a_subset_without_a_class_before_the_first_step(self, monkeypatch, subset, ids):
        # evaluate_auc would raise MetricError only once the epochs had run
        ds, plan = small_task(seed=36, n_bags=24)
        fold = plan.folds[0]
        positives = [i for i in getattr(fold, ids) if ds.by_id(i).label == 1]
        assert positives and len(positives) < len(getattr(fold, ids))
        monkeypatch.setattr("ccan.training._bag_step", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(DataError, match=f"the fold's {subset} bags lack classes \\[0\\]"):
            train(small_model(seed=37), ds, dataclasses.replace(fold, **{ids: positives}), TrainConfig(epochs=1))

    def test_train_without_test_bags_runs(self):
        ds, plan = small_task(seed=36, n_bags=24)
        fold = dataclasses.replace(plan.folds[0], test_ids=[])
        _, history = train(small_model(seed=37), ds, fold, TrainConfig(epochs=1, batch_size=8))
        assert history.best_epoch == 0 and math.isnan(history.test_auc_at_best)


class TestSweep:
    def test_single_cell_rows(self, tmp_path):
        ds, plan = small_task(seed=18, n_bags=24)
        one_fold = type(plan)(folds=[plan.folds[0]])
        cfg = TrainConfig(epochs=1, batch_size=8, lr_max=1e-4, seed=19)
        ccan_cfg = small_model(seed=20).config
        rows = data_efficiency_sweep(ds, one_fold, [1.0], cfg, ccan_cfg,
                                     models=("ccan", "mean-pool"))
        assert [(r.model, r.fraction) for r in rows] == [("ccan", 1.0), ("mean-pool", 1.0)]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        assert open(path).readline().strip() == "fold,fraction,model,best_epoch,val_auc,test_auc"

    def test_empty_fractions_rejected(self):
        ds, plan = small_task(seed=21, n_bags=16)
        with pytest.raises(ConfigError):
            data_efficiency_sweep(ds, plan, [], TrainConfig(), small_model().config)

    @pytest.mark.parametrize("bad", [0.0, 1.5])
    def test_fraction_outside_unit_interval_rejected_before_training(self, monkeypatch, bad):
        ds, plan = small_task(seed=21, n_bags=16)
        monkeypatch.setattr("ccan.training._sweep_cell", lambda cell: pytest.fail("a cell trained"))
        with pytest.raises(ConfigError, match=r"fractions must lie in \(0, 1\]"):
            data_efficiency_sweep(ds, plan, [1.0, bad], TrainConfig(), small_model().config)

    @pytest.mark.parametrize("models", [("ccan", "mean-poo1"), ()])
    def test_unknown_or_no_models_rejected_before_training(self, monkeypatch, models):
        ds, plan = small_task(seed=21, n_bags=16)
        monkeypatch.setattr("ccan.training._sweep_cell", lambda *args: pytest.fail("a cell trained"))
        with pytest.raises(ConfigError, match="sweep models must be among"):
            data_efficiency_sweep(ds, plan, [1.0], TrainConfig(), small_model().config, models=models)

    def test_train_config_has_no_fractions(self):
        assert "fractions" not in {f.name for f in dataclasses.fields(TrainConfig)}

    def test_logs_each_row_with_two_jobs(self):
        ds, plan = small_task(seed=26, n_bags=24, d_feature=8)
        two_folds = type(plan)(folds=plan.folds[:2])
        cfg = TrainConfig(epochs=1, batch_size=8, lr_max=1e-4, seed=27)
        lines = []
        rows = data_efficiency_sweep(ds, two_folds, [0.5, 1.0], cfg, small_model(d_feature=8).config,
                                     models=("mean-pool",), jobs=2, log=lines.append)
        assert len(rows) == len(lines) == 4
        assert lines[0].startswith("fold 0 fraction 0.5 mean-pool: test_auc=")
        assert lines[-1].startswith("fold 1 fraction 1.0 mean-pool: test_auc=")

    def test_two_jobs_write_the_same_rows_as_one(self, tmp_path):
        # at the acceptance tests' TOY model (small_model at D_f 64) over two epochs, a worker's rows equal
        # the calling process's, every float included
        ds, plan = small_task(seed=28, n_bags=24, d_feature=64)
        one_fold = type(plan)(folds=[plan.folds[0]])
        cfg = TrainConfig(epochs=2, batch_size=8, lr_max=1e-3, seed=29)
        args = (ds, one_fold, [0.5, 1.0], cfg, small_model(d_feature=64).config)
        rows = {}
        for jobs in (1, 2):
            rows[jobs] = data_efficiency_sweep(*args, models=("ccan", "mean-pool"), jobs=jobs)
            write_sweep_csv(rows[jobs], tmp_path / f"jobs{jobs}.csv")
        assert len(rows[1]) == 4 and all(math.isfinite(r.test_auc) for r in rows[1])
        assert rows[2] == rows[1]
        assert (tmp_path / "jobs1.csv").read_bytes() == (tmp_path / "jobs2.csv").read_bytes()

    def test_pool_is_sent_the_dataset_once(self, monkeypatch):
        sent = []

        class RecordingPool:
            """Runs in process, pickling what a process pool would send to its workers."""

            def __init__(self, max_workers, initializer, initargs):
                sent.append(("init", len(pickle.dumps(initargs))))
                initializer(*pickle.loads(pickle.dumps(initargs)))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                for cell in cells:
                    blob = pickle.dumps(cell)
                    sent.append(("cell", len(blob)))
                    yield fn(pickle.loads(blob))

        monkeypatch.setattr("ccan.training.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr("ccan.training._worker_shared", None)
        ds, plan = small_task(seed=30, n_bags=24, d_feature=8)
        two_folds = type(plan)(folds=plan.folds[:2])
        cfg = TrainConfig(epochs=1, batch_size=8, lr_max=1e-4, seed=31)
        rows = data_efficiency_sweep(ds, two_folds, [0.5, 1.0], cfg, small_model(d_feature=8).config,
                                     models=("mean-pool",), jobs=2)
        assert len(rows) == 4
        dataset_bytes = len(pickle.dumps(ds))
        assert [kind for kind, _ in sent] == ["init"] + ["cell"] * 4
        assert sent[0][1] > dataset_bytes
        assert all(size < dataset_bytes / 10 for kind, size in sent[1:])

    @pytest.mark.parametrize("jobs, n_folds, fractions, pools", [
        (500, 2, [0.5, 1.0], [4]),
        (3, 2, [0.5, 1.0], [3]),
        (8, 1, [1.0], []),  # one cell runs in this process
    ], ids=["capped", "below", "one-cell"])
    def test_pool_has_no_more_workers_than_cells(self, monkeypatch, jobs, n_folds, fractions, pools):
        # a fork pool starts every worker at the first submit, so --jobs 500 must not mean 500 processes
        made = []

        class FakePool:
            def __init__(self, max_workers, initializer, initargs):
                made.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        def fake_cell(shared, cell):
            return training.SweepRow(cell[1], cell[2], cell[3], 0, 0.5, 0.5)

        monkeypatch.setattr("ccan.training.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr("ccan.training._sweep_cell", fake_cell)
        monkeypatch.setattr("ccan.training._worker_shared", None)
        ds, plan = small_task(seed=30, n_bags=24, d_feature=8)
        folds = type(plan)(folds=plan.folds[:n_folds])
        rows = data_efficiency_sweep(ds, folds, fractions, TrainConfig(), small_model(d_feature=8).config,
                                     models=("mean-pool",), jobs=jobs)
        assert made == pools
        assert len(rows) == n_folds * len(fractions)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected_before_training(self, monkeypatch, jobs):
        ds, plan = small_task(seed=21, n_bags=16)
        monkeypatch.setattr("ccan.training._sweep_cell", lambda *args: pytest.fail("a cell trained"))
        with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
            data_efficiency_sweep(ds, plan, [1.0], TrainConfig(), small_model().config, jobs=jobs)

    def test_baseline_trains_on_null_task_to_chance(self):
        # no witness signal: a trained pooling model cannot beat chance
        ds = generate_synthetic(80, (10, 20), d_feature=16, witness_shift=0.0,
                                witness_count_range=(1, 2), grid=(8, 8), seed=22)
        plan = patient_grouped_kfold(ds.bags, k=4, val_fraction=0.2, seed=23)
        model = MeanPoolModel(PoolConfig(d_feature=16, seed=24))
        cfg = TrainConfig(epochs=10, batch_size=8, lr_max=1e-3, seed=25)
        _, history = train(model, ds, plan.folds[0], cfg)
        assert abs(history.test_auc_at_best - 0.5) <= 0.35  # wide: tiny test split


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(7, "x") == derive_seed(7, "x")

    def test_distinct_purposes_differ(self):
        assert derive_seed(7, "x") != derive_seed(7, "y")

    def test_in_numpy_range(self):
        for purpose in ("a", "b", "c"):
            assert 0 <= derive_seed(123, purpose) < 2**31
