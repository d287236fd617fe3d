from dataclasses import replace

import numpy as np
import pytest

from ccan import autograd as ag
from ccan.attention import AttentionRecord
from ccan.data import generate_synthetic
from ccan.errors import UsageError
from ccan.explain import (
    AttentionMap,
    aggregate_rollout,
    explain_bag,
    export_class_embeddings,
    export_heatmap,
    rollout_stage,
    top_k_patches,
)
from ccan.model import CCANConfig, CCANModel, MeanPoolModel, ModelOutput, PoolConfig, StageOutput


def fake_stage(records):
    return StageOutput(latents_out=None, class_embedding=None, probs=np.zeros(1),
                       probs_tensor=None, records=records)


def cross(matrix):
    return AttentionRecord(matrix=np.asarray(matrix, dtype=np.float64))


self_rec = cross  # a record carries no kind: its place in a stage's list says which block made it


class TestRolloutStage:
    def test_uniform_attention_gives_uniform_scores(self):
        m, n = 2, 4  # latents + class = 3 rows
        stage = fake_stage([
            cross(np.full((m + 1, n), 1.0 / n)),
            self_rec(np.full((m + 1, m + 1), 1.0 / (m + 1))),
        ])
        scores = rollout_stage(stage)
        np.testing.assert_allclose(scores, np.full(n, 1.0 / n), atol=1e-12)

    def test_one_hot_cross_concentrates_mass(self):
        onehot = np.zeros((3, 5))
        onehot[:, 2] = 1.0  # every query row attends token 2
        stage = fake_stage([cross(onehot), self_rec(np.full((3, 3), 1.0 / 3))])
        scores = rollout_stage(stage)
        np.testing.assert_allclose(scores[2], 1.0, atol=1e-12)
        np.testing.assert_allclose(np.delete(scores, 2), 0.0, atol=1e-12)

    def test_hand_built_matches_explicit_product(self):
        # 2 latents + class, 3 tokens; verify against the literal matrix algebra
        a = np.array([
            [0.6, 0.3, 0.1],
            [0.2, 0.5, 0.3],
            [0.1, 0.1, 0.8],
        ])
        c = np.array([
            [0.5, 0.25, 0.25],
            [0.1, 0.8, 0.1],
            [0.3, 0.3, 0.4],
        ])
        stage = fake_stage([cross(c), self_rec(a)])
        mixed = 0.5 * a + 0.5 * np.eye(3)
        mixed /= mixed.sum(axis=1, keepdims=True)
        expected = mixed[-1] @ c
        np.testing.assert_allclose(rollout_stage(stage), expected, atol=1e-12)

    def test_longer_record_list_rejected(self):
        # a stage keeps only its final cross and self records, so a longer chain is not a stage's
        a1 = np.array([[0.9, 0.1], [0.4, 0.6]])
        a2 = np.array([[0.2, 0.8], [0.7, 0.3]])
        c = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
        with pytest.raises(UsageError, match=r"this stage has \[\(2, 3\), \(2, 2\), \(2, 2\)\]"):
            rollout_stage(fake_stage([cross(c), self_rec(a1), self_rec(a2)]))

    @pytest.mark.parametrize("self_layers", [0, 2])
    def test_bitwise_equal_to_chain_oracle(self, monkeypatch, self_layers):
        # the chain over every block's record, as forwards kept them, against the stage's last two
        from composed import chain_rollout, record_every_block

        seen = record_every_block(monkeypatch)
        cfg = CCANConfig(n_stages=2, n_latents=16, compression=2, d_latent=32, d_feature=64, block_repeats=2,
                         self_layers=self_layers, n_frequencies=2)
        per_stage = 2 * (1 + self_layers) + 2
        for seed in range(3):
            bag = generate_synthetic(1, (30, 40), d_feature=64, seed=seed).bags[0]
            seen.clear()
            with ag.no_grad():
                out = CCANModel(replace(cfg, seed=seed)).forward(bag)
            assert len(seen) == per_stage * cfg.n_stages
            for j, stage in enumerate(out.stages):
                want = chain_rollout(seen[j * per_stage : (j + 1) * per_stage])
                assert rollout_stage(stage).tobytes() == want.tobytes()

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 30))
            a = rng.dirichlet(np.ones(m + 1), size=m + 1)
            c = rng.dirichlet(np.ones(n), size=m + 1)
            scores = rollout_stage(fake_stage([cross(c), self_rec(a)]))
            assert scores.min() >= 0
            assert abs(scores.sum() - 1.0) < 1e-4

    def test_missing_cross_record_rejected(self):
        with pytest.raises(UsageError):
            rollout_stage(fake_stage([self_rec(np.eye(2))]))
        with pytest.raises(UsageError):
            rollout_stage(fake_stage([]))
        with pytest.raises(UsageError, match=r"this stage has \[\(2, 2\), \(2, 3\)\]"):
            rollout_stage(fake_stage([self_rec(np.eye(2)), cross(np.full((2, 3), 1 / 3))]))


def _bag(n=6, seed=0, d=8):
    return generate_synthetic(1, (n, n), d_feature=d, witness_count_range=(1, 2),
                              grid=(4, 4), seed=seed).bags[0]


def _model_output_for(bag, stage_score_rows):
    stages = []
    for row in stage_score_rows:
        c = np.tile(np.asarray(row, dtype=np.float64), (2, 1))
        stages.append(fake_stage([cross(c), self_rec(np.eye(2))]))
    return ModelOutput(stages=stages, averaged_probs=np.zeros(1),
                       kept_indices=np.arange(bag.n_tokens))


class TestAggregateRollout:
    def test_single_stage_equals_normalized_scores(self):
        bag = _bag(n=4, seed=1)
        raw = np.array([0.4, 0.1, 0.3, 0.2])
        out = _model_output_for(bag, [raw])
        amap = aggregate_rollout(out, bag)
        expected = (raw - raw.min()) / (raw.max() - raw.min())
        np.testing.assert_allclose(amap.scores, expected, atol=1e-12)
        assert amap.normalization == "minmax"

    def test_two_stage_mean(self):
        bag = _bag(n=2, seed=2)
        out = _model_output_for(bag, [[1.0, 0.0], [0.0, 1.0]])
        amap = aggregate_rollout(out, bag)
        # raw means are [0.5, 0.5]: constant, so normalization stays raw
        np.testing.assert_allclose(amap.scores, [0.5, 0.5])
        assert amap.normalization == "raw"

    def test_stage_order_invariant(self):
        bag = _bag(n=5, seed=3)
        rows = [np.random.default_rng(i).dirichlet(np.ones(5)) for i in range(3)]
        a = aggregate_rollout(_model_output_for(bag, rows), bag)
        b = aggregate_rollout(_model_output_for(bag, rows[::-1]), bag)
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)

    def test_full_model_range(self):
        cfg = CCANConfig(n_stages=6, n_latents=32, compression=2, d_latent=8, d_feature=8,
                         self_layers=1, p_dropout=0.0, n_frequencies=2, seed=0)
        model = CCANModel(replace(cfg, seed=1))
        bag = _bag(n=10, seed=4, d=8)
        amap = explain_bag(model, bag)
        assert amap.scores.shape == (bag.n_tokens,)
        assert amap.scores.min() == 0.0 and amap.scores.max() == 1.0

    def test_dropped_tokens_zero_and_flagged(self):
        bag = _bag(n=6, seed=5)
        kept = np.array([0, 2, 5])
        c = np.tile(np.full(3, 1 / 3), (2, 1))
        so = fake_stage([cross(c), self_rec(np.eye(2))])
        out = ModelOutput(stages=[so], averaged_probs=np.zeros(1), kept_indices=kept)
        amap = aggregate_rollout(out, bag)
        np.testing.assert_allclose(amap.scores[[1, 3, 4]], 0.0)


class TestTopK:
    def test_basic(self):
        amap = _map_with_scores([0.1, 0.9, 0.5])
        lowest, highest = top_k_patches(amap, 1)
        assert lowest == [0] and highest == [1]

    def test_tie_break_by_index(self):
        amap = _map_with_scores([0.5, 0.5, 0.5])
        lowest, highest = top_k_patches(amap, 2)
        assert lowest == [0, 1] and highest == [0, 1]

    def test_k_equals_n(self):
        amap = _map_with_scores([0.3, 0.1, 0.2])
        lowest, highest = top_k_patches(amap, 3)
        assert sorted(lowest) == [0, 1, 2] and sorted(highest) == [0, 1, 2]
        assert lowest == [1, 2, 0] and highest == [0, 2, 1]

    def test_k_too_large(self):
        with pytest.raises(UsageError):
            top_k_patches(_map_with_scores([0.1]), 2)

    @pytest.mark.parametrize("k", [-1, -4])
    def test_negative_k(self, k):
        # a negative slice bound would silently return n - |k| indices
        with pytest.raises(UsageError, match=f"k={k} is outside 0..4"):
            top_k_patches(_map_with_scores([0.1, 0.9, 0.5, 0.3]), k)

    def test_k_zero_is_empty(self):
        assert top_k_patches(_map_with_scores([0.1, 0.9]), 0) == ([], [])


def _map_with_scores(scores, rows=None, cols=None, shape=(2, 2)):
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if rows is None:
        rows = np.arange(n) // shape[1]
        cols = np.arange(n) % shape[1]
    return AttentionMap(scores=scores, rows=np.asarray(rows), cols=np.asarray(cols),
                        rows_total=shape[0], cols_total=shape[1],
                        normalization="minmax")


class TestExports:
    def test_heatmap_pixel_rounding(self, tmp_path):
        amap = _map_with_scores([0.0, 1.0, 0.5, 0.25])
        _, pgm_path = export_heatmap(amap, str(tmp_path / "map"))
        blob = open(pgm_path, "rb").read()
        assert blob.startswith(b"P5\n2 2\n255\n")
        assert list(blob[-4:]) == [0, 255, 128, 64]

    def test_empty_cell_renders_zero(self, tmp_path):
        amap = _map_with_scores([1.0, 1.0, 1.0], rows=[0, 0, 1], cols=[0, 1, 0], shape=(2, 2))
        _, pgm_path = export_heatmap(amap, str(tmp_path / "map"))
        assert list(open(pgm_path, "rb").read()[-4:]) == [255, 255, 255, 0]

    def test_csv_row_count_is_n(self, tmp_path):
        amap = _map_with_scores([0.1, 0.2, 0.3, 0.4])
        csv_path, _ = export_heatmap(amap, str(tmp_path / "map"))
        lines = open(csv_path).read().strip().splitlines()
        assert len(lines) == 4

    def test_class_embedding_export(self, tmp_path):
        cfg = CCANConfig(n_stages=2, n_latents=4, compression=2, d_latent=8, d_feature=8,
                         self_layers=1, p_dropout=0.0, n_frequencies=2, seed=0)
        model = CCANModel(replace(cfg, seed=2))
        bags = generate_synthetic(3, (5, 8), d_feature=8, witness_count_range=(1, 2),
                                  grid=(4, 4), seed=6).bags
        path = tmp_path / "emb.csv"
        export_class_embeddings(model, bags, path)
        lines = open(path).read().strip().splitlines()
        assert len(lines) == 1 + 3 * 2  # header + bags * stages
        header = lines[0].split(",")
        assert header[:2] == ["bag_id", "stage"]
        assert len(header) == 2 + 8

        path2 = tmp_path / "emb2.csv"
        export_class_embeddings(model, bags, path2)
        assert open(path).read() == open(path2).read()

    def test_pooling_baseline_embedding_is_d_feature_wide(self, tmp_path):
        model = MeanPoolModel(PoolConfig(d_feature=64))
        bags = generate_synthetic(2, (5, 8), d_feature=64, seed=6).bags
        path = tmp_path / "emb.csv"
        export_class_embeddings(model, bags, path)
        rows = [line.split(",") for line in open(path).read().strip().splitlines()]
        assert [len(r) for r in rows] == [2 + 64] * 3  # header + one stage per bag
        assert rows[0][-1] == "e63"

    def test_no_bags_writes_the_bare_header(self, tmp_path):
        model = CCANModel(CCANConfig(n_stages=1, n_latents=2, d_latent=8, d_feature=8, n_frequencies=2))
        path = tmp_path / "emb.csv"
        export_class_embeddings(model, [], path)
        assert open(path).read().splitlines() == ["bag_id,stage"]
