"""Acceptance suite: one test per criterion, one printed verdict line each.

Statistical criteria run fixed-seed protocols at desk scale; every
threshold below is asserted exactly as stated, nothing is recalibrated
at run time. Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import ccan
from ccan import autograd as ag
from ccan.bench import bench_scaling, count_baseline_macs, count_macs, linear_fit, make_bench_bag
from ccan.cli import main as cli_main
from ccan.data import generate_synthetic, patient_grouped_kfold, read_bag
from ccan.explain import explain_bag, rollout_stage
from ccan.model import CCANConfig, CCANModel, MeanPoolModel, PoolConfig
from ccan.preprocess import RasterImage, is_blurry, is_white, run_pipeline
from ccan.training import (
    TrainConfig,
    auc_binary,
    auc_macro_ovr,
    bag_loss,
    data_efficiency_sweep,
    derive_seed,
    train,
)
from composed import grad_check


def verdict(number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared witness-task training (criteria 5 and 7)


TOY = dict(n_stages=2, n_latents=16, compression=2, d_latent=32, d_feature=64,
           self_layers=1, n_frequencies=2)


def _train_witness_models(shift, witness_range, p_dropout, epochs, tag):
    dataset = generate_synthetic(200, (20, 50), d_feature=64, witness_shift=shift,
                                 witness_count_range=witness_range, grid=(16, 16), seed=42)
    plan = patient_grouped_kfold(dataset.bags, k=4, val_fraction=0.2, seed=43)
    fold_models = []
    test_aucs = []
    for i, fold in enumerate(plan.folds):
        cfg = CCANConfig(**TOY, p_dropout=p_dropout, seed=derive_seed(100, f"{tag}-ccan-fold{i}"))
        model = CCANModel(cfg)
        tc = TrainConfig(epochs=epochs, batch_size=8, lr_max=1e-3,
                         seed=derive_seed(101, f"{tag}-ccan-fold{i}"))
        _, history = train(model, dataset, fold, tc)
        fold_models.append((model, fold))
        test_aucs.append(history.test_auc_at_best)
    return dataset, plan, fold_models, test_aucs


@pytest.fixture(scope="module")
def witness_task():
    return _train_witness_models(4.0, (2, 5), p_dropout=0.5, epochs=30, tag="main")


class TestCriterion1GradientCorrectness:
    def test_toy_model_gradients_match_finite_differences(self):
        t0 = time.time()
        bag = generate_synthetic(1, (20, 20), d_feature=12, witness_count_range=(2, 4),
                                 grid=(6, 6), seed=7).bags[0]
        worst = 0.0
        for seed in range(5):
            cfg = CCANConfig(n_stages=2, n_latents=8, compression=2, d_latent=16,
                             d_feature=12, self_layers=1, p_dropout=0.0,
                             n_frequencies=2, seed=seed)
            model = CCANModel(cfg, dtype=np.float64)
            # check at a generic parameter point, not the near-flat tiny init
            prng = np.random.default_rng(1000 + seed)
            for _, p in model.parameters():
                p.data += prng.normal(0.0, 0.2, size=p.data.shape)

            def f():
                return bag_loss(model.forward(bag), bag.label, num_classes=2)

            report = grad_check(f, model.parameters(), eps=1e-3,
                                   max_coords_per_param=4, rng=np.random.default_rng(seed))
            worst = max(worst, report.max_rel_err)
        elapsed = time.time() - t0
        verdict(1, worst < 1e-3 and elapsed < 60,
                f"max rel err {worst:.2e} < 1e-3 over 5 seeds ({elapsed:.1f}s < 60s)")


class TestCriterion2AttentionInvariants:
    def test_records_row_stochastic_and_rollout_normalized(self):
        t0 = time.time()
        rng = np.random.default_rng(2024)
        worst_row = 0.0
        worst_rollout = 0.0
        for _ in range(50):
            compression = int(rng.integers(1, 3))
            n_stages = int(rng.integers(1, 4))
            n_latents = int(rng.integers(1, 5)) * compression ** (n_stages - 1)
            cfg = CCANConfig(
                n_stages=n_stages, n_latents=n_latents, compression=compression,
                d_latent=int(rng.choice([8, 16])), d_feature=int(rng.choice([6, 12])),
                block_repeats=int(rng.integers(1, 3)), self_layers=int(rng.integers(0, 3)),
                p_dropout=float(rng.uniform(0, 0.8)), num_classes=int(rng.choice([2, 3])),
                n_frequencies=int(rng.integers(1, 4)), seed=int(rng.integers(0, 10000)),
            )
            model = CCANModel(cfg)
            bag = generate_synthetic(
                1, (5, 30), d_feature=cfg.d_feature, witness_count_range=(1, 2),
                grid=(8, 8), n_classes=cfg.num_classes, seed=int(rng.integers(0, 10000)),
            ).bags[0]
            train_mode = bool(rng.integers(0, 2))
            out = model.forward(bag, rng=rng, train_mode=train_mode)
            for stage in out.stages:
                for rec in stage.records:
                    rows = rec.matrix.sum(axis=1)
                    worst_row = max(worst_row, np.abs(rows - 1.0).max())
                    assert rec.matrix.min() >= 0.0 and rec.matrix.max() <= 1.0 + 1e-6
                scores = rollout_stage(stage)
                assert scores.min() >= -1e-9
                worst_rollout = max(worst_rollout, abs(scores.sum() - 1.0))
        elapsed = time.time() - t0
        verdict(2, worst_row < 1e-5 and worst_rollout < 1e-4 and elapsed < 60,
                f"row-sum dev {worst_row:.2e} < 1e-5, rollout-sum dev {worst_rollout:.2e} < 1e-4 "
                f"over 50 configs ({elapsed:.1f}s < 60s)")


class TestCriterion3PermutationInvariance:
    def test_eval_probs_invariant_under_joint_permutation(self):
        t0 = time.time()
        cfg = CCANConfig(**TOY, p_dropout=0.0, seed=3)
        model = CCANModel(cfg)
        bags = generate_synthetic(20, (10, 60), d_feature=64, witness_count_range=(2, 4),
                                  grid=(16, 16), seed=31).bags
        rng = np.random.default_rng(32)
        worst = 0.0
        for bag in bags:
            base = model.forward(bag).averaged_probs
            perm = rng.permutation(bag.n_tokens)
            shuffled = type(bag)(
                bag_id=bag.bag_id, patient_id=bag.patient_id, label=bag.label,
                tokens=bag.tokens[perm], rows=bag.rows[perm], cols=bag.cols[perm],
                rows_total=bag.rows_total, cols_total=bag.cols_total,
            )
            worst = max(worst, np.abs(model.forward(shuffled).averaged_probs - base).max())
        elapsed = time.time() - t0
        verdict(3, worst < 1e-4 and elapsed < 10,
                f"max averaged-prob shift {worst:.2e} < 1e-4 over 20 bags ({elapsed:.1f}s < 10s)")


class TestCriterion4LinearScaling:
    def test_macs_affine_probe_agrees_and_walltime_subquadratic(self):
        t0 = time.time()
        cfg = CCANConfig(n_stages=3, n_latents=64, compression=2, d_latent=64,
                         d_feature=256, self_layers=1, p_dropout=0.0, n_frequencies=6, seed=4)
        ns = [250, 500, 1000, 2000, 4000]
        fit = linear_fit(ns, [count_macs(cfg, n) for n in ns])

        model = CCANModel(cfg)
        probe_err = 0.0
        for n in (250, 1000):
            bag = make_bench_bag(n, cfg.d_feature, seed=5)
            with ag.no_grad(), ag.op_probe() as probe:
                model.forward(bag)
            probe_err = max(probe_err, abs(probe.macs - count_macs(cfg, n)) / count_macs(cfg, n))

        quad = count_baseline_macs(cfg, 2000)["attention"] / count_baseline_macs(cfg, 1000)["attention"]

        report = bench_scaling(cfg, ns, repeats=7, warmup=2, seed=6, include_baseline=False)
        times = {r.n_tokens: r.wall_ms for r in report.rows if r.model == "ccan"}
        ratio = times[4000] / times[500]
        elapsed = time.time() - t0
        verdict(4, fit.r2 > 0.999 and probe_err < 0.01 and quad == 4.0 and ratio < 16 and elapsed < 300,
                f"MACs-vs-N R^2 {fit.r2:.6f} > 0.999, probe err {probe_err:.2e} < 1%, "
                f"baseline MACs(2N)/MACs(N) = {quad}, time(4000)/time(500) = {ratio:.2f} < 16 "
                f"({elapsed:.1f}s < 300s)")


class TestCriterion5Learnability:
    def test_witness_task_auc_and_pooling_gap(self, witness_task):
        t0 = time.time()
        _, _, _, main_aucs = witness_task
        main_mean = float(np.mean(main_aucs))

        # hard variant: one shift-2 witness per bag; dropout off, longer budget
        dataset = generate_synthetic(200, (20, 50), d_feature=64, witness_shift=2.0,
                                     witness_count_range=(1, 1), grid=(16, 16), seed=42)
        plan = patient_grouped_kfold(dataset.bags, k=4, val_fraction=0.2, seed=43)
        hard = {"ccan": [], "mean-pool": []}
        best_epochs = []
        for kind in hard:
            for i, fold in enumerate(plan.folds):
                seed = derive_seed(100, f"hard-{kind}-fold{i}")
                if kind == "ccan":
                    model = CCANModel(CCANConfig(**TOY, p_dropout=0.0, seed=seed))
                else:
                    model = MeanPoolModel(PoolConfig(d_feature=64, seed=seed))
                tc = TrainConfig(epochs=60, batch_size=8, lr_max=1e-3,
                                 seed=derive_seed(101, f"hard-{kind}-fold{i}"))
                _, history = train(model, dataset, fold, tc)
                hard[kind].append(history.test_auc_at_best)
                if kind == "ccan":
                    best_epochs.append(history.best_epoch)
        gap = float(np.mean(hard["ccan"]) - np.mean(hard["mean-pool"]))
        elapsed = time.time() - t0

        def per_fold(aucs):
            return "/".join(f"{a:.3f}" for a in aucs)

        # per-fold detail: each hard test set holds ~50 bags, so fold AUCs are noisy
        verdict(5, main_mean >= 0.90 and gap >= 0.05 and elapsed < 900,
                f"mean test AUC {main_mean:.4f} >= 0.90 over 4 folds; hard-variant gap "
                f"ccan-meanpool {gap:+.4f} >= 0.05 ({elapsed:.1f}s < 900s); hard per-fold test AUC "
                f"ccan {per_fold(hard['ccan'])}, mean-pool {per_fold(hard['mean-pool'])}, "
                f"ccan best epochs {'/'.join(map(str, best_epochs))}")


class TestCriterion6DataEfficiency:
    def test_sweep_completes_with_monotone_endpoints(self):
        t0 = time.time()
        fractions = [0.02, 0.05, 0.10, 0.25, 0.50, 0.75, 1.00]
        dataset = generate_synthetic(200, (20, 50), d_feature=64, witness_shift=4.0,
                                     witness_count_range=(2, 5), grid=(16, 16), seed=42)
        plan = patient_grouped_kfold(dataset.bags, k=4, val_fraction=0.2, seed=43)
        ccan_cfg = CCANConfig(**TOY, p_dropout=0.5, seed=0)
        tc = TrainConfig(epochs=6, batch_size=8, lr_max=1e-3, seed=602)
        rows = data_efficiency_sweep(dataset, plan, fractions, tc, ccan_cfg,
                                     models=("ccan", "mean-pool"))
        assert len(rows) == 4 * len(fractions) * 2
        ccan_by_fraction = {
            f: np.mean([r.test_auc for r in rows if r.model == "ccan" and r.fraction == f])
            for f in fractions
        }
        full, tiny = ccan_by_fraction[1.00], ccan_by_fraction[0.02]
        elapsed = time.time() - t0
        verdict(6, full >= tiny and elapsed < 1800,
                f"sweep complete ({len(rows)} rows); mean test AUC at 100% {full:.4f} >= "
                f"at 2% {tiny:.4f} ({elapsed:.1f}s < 1800s)")


class TestCriterion7Explainability:
    def test_witness_tokens_draw_more_attention(self, witness_task):
        t0 = time.time()
        dataset, _, fold_models, _ = witness_task
        hits = 0
        total = 0
        for model, fold in fold_models:
            for bag_id in fold.test_ids:
                bag = dataset.by_id(bag_id)
                if bag.label != 1:
                    continue
                amap = explain_bag(model, bag)
                witnesses = dataset.witness_indices[bag_id]
                background = np.setdiff1d(np.arange(bag.n_tokens), witnesses)
                total += 1
                if amap.scores[witnesses].mean() > amap.scores[background].mean():
                    hits += 1
        share = hits / total
        elapsed = time.time() - t0
        verdict(7, share >= 0.80 and elapsed < 120,
                f"witness attention exceeds background in {hits}/{total} = {share:.2%} "
                f">= 80% of positive test bags ({elapsed:.1f}s < 120s)")


class TestCriterion8MetricOracle:
    def test_auc_matches_brute_force(self):
        t0 = time.time()

        def pairwise(scores, labels):
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum(1.0 if p > n else (0.5 if p == n else 0.0) for p in pos for n in neg)
            return wins / (len(pos) * len(neg))

        rng = np.random.default_rng(8)
        worst = 0.0
        for case in range(200):
            n = int(rng.integers(4, 80))
            if case % 2 == 0:
                labels = rng.integers(0, 2, size=n)
                if labels.min() == labels.max():
                    labels[0] = 1 - labels[0]
                scores = np.round(rng.normal(size=n), 1)
                worst = max(worst, abs(auc_binary(scores, labels) - pairwise(scores, labels)))
            else:
                k = int(rng.integers(2, 5))
                labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n)])
                matrix = np.round(rng.uniform(size=(len(labels), k)), 1)
                expected = np.mean(
                    [pairwise(matrix[:, c], (labels == c).astype(int)) for c in range(k)]
                )
                worst = max(worst, abs(auc_macro_ovr(matrix, labels) - expected))
        worked = auc_binary([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        elapsed = time.time() - t0
        verdict(8, worst < 1e-12 and worked == 0.75,
                f"max |auc - brute force| {worst:.2e} < 1e-12 on 200 instances; "
                f"worked example = {worked} ({elapsed:.1f}s)")


GOLDEN_CCFB_SHA256 = "70b4472acf529a9dc3f923d6193f6de4c69e5c158d6b4f65b84bc561e762b505"


def _fixture_image():
    rng = np.random.default_rng(99)
    blocks = rng.integers(30, 220, size=(65, 65, 3))
    pixels = np.repeat(np.repeat(blocks, 8, axis=0), 8, axis=1)[:512, :512].astype(np.uint8)
    pixels[:256, :256] = 255  # one white patch
    pixels[256:, :256] = 90  # one constant (blurry) patch
    return RasterImage(pixels=pixels, microns_per_pixel=1.0)


class TestCriterion9PreprocessingPinning:
    def test_filters_and_golden_bytes(self, tmp_path):
        t0 = time.time()
        white = is_white(np.full((256, 256, 3), 255, np.uint8))
        blurry = is_blurry(np.full((256, 256, 3), 130, np.uint8))

        paths = [tmp_path / "a.ccfb", tmp_path / "b.ccfb"]
        for path in paths:
            bag, qc = run_pipeline(_fixture_image(), path, 1, "fixture", "p0", seed=9, d_feature=32)
        assert qc.total == 4 and qc.white_rejected == 1 and qc.blur_rejected == 1 and qc.kept == 2
        blobs = [p.read_bytes() for p in paths]
        digest = hashlib.sha256(blobs[0]).hexdigest()

        loaded = read_bag(paths[0])
        np.testing.assert_array_equal(loaded.tokens, bag.tokens)
        assert (loaded.bag_id, loaded.patient_id, loaded.label) == ("fixture", "p0", 1)

        elapsed = time.time() - t0
        verdict(9, white and blurry and blobs[0] == blobs[1] and digest == GOLDEN_CCFB_SHA256,
                f"all-255 white-rejected, constant blur-rejected, CCFB bytes reproduce "
                f"(sha256 {digest[:12]}... matches golden), round trip exact ({elapsed:.1f}s)")


def _criterion10_recipe(root):
    """The synth, split and train argument lists of criterion 10, writing under ``root``."""
    data, plan, run_dir = str(root / "data"), str(root / "plan.csv"), str(root / "run")
    common = ["--seed", "77"]
    return [
        ["synth", "--paths.out", data, "--data.n_bags", "30",
         "--model.D_f", "32", "--data.n_min", "8", "--data.n_max", "16",
         "--data.grid_rows", "6", "--data.grid_cols", "6",
         "--data.witness_min", "1", "--data.witness_max", "3", *common],
        ["split", "--paths.data", data, "--paths.out", plan, "--data.k", "3", *common],
        ["train", "--paths.data", data, "--paths.plan", plan,
         "--fold", "0", "--paths.run_dir", run_dir,
         "--model.J", "2", "--model.M", "8", "--model.D_l", "16",
         "--model.D_f", "32", "--model.S", "1", "--model.I", "2",
         "--model.p_do", "0.3", "--train.epochs", "3",
         "--train.batch_size", "8", "--train.lr_max", "1e-3", *common],
    ]


def _criterion10_outputs(root):
    run_dir = root / "run"
    return (run_dir / "history.csv").read_bytes(), (run_dir / "best.ckpt").read_bytes()


class TestCriterion10Reproducibility:
    def test_synth_split_train_twice_byte_identical(self, tmp_path):
        t0 = time.time()

        def run(root):
            for args in _criterion10_recipe(root):
                assert cli_main(args) == 0
            return _criterion10_outputs(root)

        a = run(tmp_path / "first")
        b = run(tmp_path / "second")
        elapsed = time.time() - t0
        verdict(10, a[0] == b[0] and a[1] == b[1],
                f"history CSV and checkpoint byte-identical across two seeded runs ({elapsed:.1f}s)")

    def test_same_bytes_at_one_and_two_blas_threads(self, tmp_path):
        # byte identity holds per BLAS thread count; at this size the counts agree too.
        # OpenBLAS reads the count when numpy loads, so each count runs in its own process.
        script = "import json, sys\nfrom ccan.cli import main\nfor args in json.loads(sys.argv[1]):\n    if main(args):\n        sys.exit(1)\n"
        src = os.path.dirname(os.path.dirname(ccan.__file__))
        outputs = []
        for threads in ("1", "2"):
            root = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-c", script, json.dumps(_criterion10_recipe(root))],
                           env=env, check=True, capture_output=True, timeout=120)
            outputs.append(_criterion10_outputs(root))
        assert outputs[0] == outputs[1]
