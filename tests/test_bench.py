import numpy as np
import pytest

from ccan import autograd as ag
from ccan.bench import (
    bench_scaling,
    count_baseline_macs,
    count_macs,
    linear_fit,
    make_bench_bag,
)
from ccan.errors import ConfigError
from ccan.model import CCANConfig, CCANModel


def bench_config(**kwargs):
    base = dict(n_stages=3, n_latents=32, compression=2, d_latent=32, d_feature=64,
                self_layers=1, p_dropout=0.0, n_frequencies=2, seed=0)
    base.update(kwargs)
    return CCANConfig(**base)


class TestCountMacs:
    def test_affine_in_n(self):
        cfg = bench_config()
        a, b, c = count_macs(cfg, 250), count_macs(cfg, 500), count_macs(cfg, 750)
        assert b - a == c - b
        assert b > a

    def test_matches_instrumented_probe(self):
        cfg = bench_config()
        model = CCANModel(cfg)
        for n in (40, 130):
            bag = make_bench_bag(n, cfg.d_feature, seed=1)
            with ag.no_grad(), ag.op_probe() as probe:
                model.forward(bag)
            assert probe.macs == count_macs(cfg, n)

    def test_probe_matches_with_repeats(self):
        cfg = bench_config(block_repeats=2, self_layers=2)
        model = CCANModel(cfg)
        bag = make_bench_bag(60, cfg.d_feature, seed=2)
        with ag.no_grad(), ag.op_probe() as probe:
            model.forward(bag)
        assert probe.macs == count_macs(cfg, 60)

    def test_first_cross_score_term(self):
        # the raw attention-score product inside one cross block is m*n*d
        from ccan.bench import _cross_block_macs

        m, n, d = 32, 1000, 64
        score_and_av = _cross_block_macs(m, n, d) - 10 * m * d * d - 2 * n * d * d
        assert score_and_av == 2 * m * n * d

    def test_reference_config_golden(self):
        # frozen from the first computation at the dataset's mean bag size
        assert count_macs(CCANConfig(), 3091) == 36061330432


class TestBaselineMacs:
    def test_attention_term_quadruples(self):
        cfg = bench_config()
        for n in (100, 317, 2048):
            ratio = count_baseline_macs(cfg, 2 * n)["attention"] / count_baseline_macs(cfg, n)["attention"]
            assert ratio == 4.0

    def test_total_matches_probe(self):
        from ccan.model import SelfAttentionConfig, SelfAttentionModel

        cfg = bench_config()
        model = SelfAttentionModel(SelfAttentionConfig(d_feature=cfg.d_feature, d_latent=cfg.d_latent, num_classes=2,
                                                       seed=0))
        bag = make_bench_bag(90, cfg.d_feature, seed=3)
        with ag.no_grad(), ag.op_probe() as probe:
            model.forward(bag)
        assert probe.macs == count_baseline_macs(cfg, 90)["total"]


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([1, 2, 3, 4], [3, 5, 7, 9])
        assert fit.r2 == pytest.approx(1.0)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)

    def test_noisy_quadratic_is_not_linear(self):
        xs = np.array([1.0, 2, 3, 4, 5, 6])
        fit = linear_fit(xs, xs**2)
        assert fit.r2 < 0.999


class TestBenchScaling:
    def test_report_structure(self, tmp_path):
        cfg = bench_config()
        report = bench_scaling(cfg, [50, 100, 200], repeats=5, warmup=1, seed=0)
        models = {r.model for r in report.rows}
        assert models == {"ccan", "full-self-attention"}
        assert all(r.ok for r in report.rows)
        assert all(r.peak_bytes > 0 for r in report.rows)
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "model,n_tokens,wall_ms,macs,peak_bytes,ok"
        assert len(lines) == 1 + 6
        assert all(line.endswith(",1") for line in lines[1:])
        summary = report.summary()
        assert "MACs" in summary and "peak MB" in summary and "allocated" not in summary
        assert "aggregator time vs N" in summary and "FAILED" not in summary

    def test_closed_form_off_by_one_fails_the_row(self, monkeypatch):
        from ccan import bench

        monkeypatch.setattr(bench, "count_macs", lambda config, n: count_macs(config, n) + (n == 80))
        report = bench_scaling(bench_config(), [40, 80], repeats=5, warmup=0, include_baseline=False)
        assert [r.ok for r in report.rows] == [True, False]
        assert [line.endswith("FAILED") for line in report.summary().splitlines()[1:3]] == [False, True]

    def test_rejects_unordered_ns(self):
        with pytest.raises(ConfigError):
            bench_scaling(bench_config(), [100, 50], repeats=5)

    @pytest.mark.parametrize("ns", [[-5, 10], [0, 10]])
    def test_rejects_token_counts_below_one(self, ns, monkeypatch):
        from ccan import bench

        # checked before either model is built
        monkeypatch.setattr(bench, "make_model", None)
        with pytest.raises(ConfigError, match=r"token counts must be >= 1, got \[" + str(ns[0])):
            bench_scaling(bench_config(), ns, repeats=5)

    def test_rejects_too_few_repeats(self):
        with pytest.raises(ConfigError):
            bench_scaling(bench_config(), [50], repeats=2)

    def test_without_baseline(self):
        report = bench_scaling(bench_config(), [40, 80], repeats=5, warmup=0, include_baseline=False)
        assert {r.model for r in report.rows} == {"ccan"}


def test_bench_bag_negative_seed_is_a_config_error():
    # numpy's own error for it is a ValueError, which a library caller could not tell from a bug
    with pytest.raises(ConfigError, match=r"seed must be >= 0, got -1"):
        make_bench_bag(5, 3, seed=-1)
