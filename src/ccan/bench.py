"""Scaling verification: counted MACs and wall time versus token count.

The aggregator's cost is affine in the number of input tokens N at
fixed config (every N-dependent term is a cross-attention projection or
score product), while a plain self-attention aggregator pays an N^2
attention term. ``count_macs`` enumerates exactly the matrix products
the forward pass executes, so an instrumented run must agree with it:
a row is ok only when every timed forward's probe counted exactly the
closed-form MACs. Wall times are advisory medians. Each row also reports
the traced peak of one more forward, run after the timed ones and not
timed itself.
"""

from __future__ import annotations

import csv
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .data import FeatureBag, atomic_write, seeded_rng
from .errors import ConfigError
from .model import make_model


def _cross_block_macs(m, n, d):
    # q/k/v/out projections + attention products + 4x MLP
    return 10 * m * d * d + 2 * n * d * d + 2 * m * n * d


def _self_block_macs(m, d):
    return 12 * m * d * d + 2 * m * m * d


def count_macs(config, n_tokens):
    """Closed-form multiply-accumulate count of one eval-mode forward."""
    config.validate()
    d = config.d_latent
    macs = n_tokens * config.d_encoded * d  # input projection
    ctx = n_tokens
    for m in config.latent_counts():
        for _ in range(config.block_repeats):
            macs += _cross_block_macs(m, ctx, d)
            macs += config.self_layers * _self_block_macs(m, d)
        macs += _cross_block_macs(m + 1, n_tokens, d)  # final cross over inputs
        macs += _self_block_macs(m + 1, d)
        macs += d * d + d * config.out_units  # head MLP on the class row
        ctx = m
    return macs


def count_baseline_macs(config, n_tokens):
    """MACs of the full-self-attention reference, with the N^2 term split out."""
    d = config.d_latent
    attention = 2 * n_tokens * n_tokens * d
    total = (
        n_tokens * config.d_feature * d  # input projection
        + 12 * n_tokens * d * d
        + attention
        + d * config.out_units
    )
    return {"total": total, "attention": attention}


def make_bench_bag(n_tokens, d_feature, seed=0):
    side = int(np.ceil(np.sqrt(n_tokens)))
    rng = seeded_rng(seed)
    cells = np.arange(n_tokens)
    return FeatureBag(
        bag_id=f"bench{n_tokens}",
        patient_id="bench",
        label=0,
        tokens=rng.standard_normal((n_tokens, d_feature)).astype(np.float32),
        rows=cells // side,
        cols=cells % side,
        rows_total=side,
        cols_total=side,
    )


@dataclass
class BenchRow:
    model: str
    n_tokens: int
    wall_ms: float
    macs: int  # closed form
    peak_bytes: int  # traced peak of one untimed forward, above what was allocated before it
    ok: bool  # every timed forward's probe counted ``macs``; False too after a MemoryError


@dataclass
class LinearFit:
    slope: float
    intercept: float
    r2: float


def linear_fit(xs, ys):
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=float(slope), intercept=float(intercept), r2=r2)


@dataclass
class ScalingReport:
    rows: list  # of BenchRow
    time_fit: LinearFit  # aggregator wall time vs N

    def write_csv(self, path):
        with atomic_write(path, text=True) as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "n_tokens", "wall_ms", "macs", "peak_bytes", "ok"])
            for r in self.rows:
                writer.writerow([r.model, r.n_tokens, repr(r.wall_ms), r.macs, r.peak_bytes, int(r.ok)])

    def summary(self):
        lines = [
            f"{'model':<22}{'N':>7}{'median ms':>12}{'MACs':>16}{'peak MB':>10}",
        ]
        for r in self.rows:
            status = "" if r.ok else "  FAILED"
            lines.append(
                f"{r.model:<22}{r.n_tokens:>7}{r.wall_ms:>12.2f}{r.macs:>16}{r.peak_bytes / 1e6:>10.1f}{status}"
            )
        lines.append(
            f"aggregator time vs N: slope={self.time_fit.slope:.4g} ms/token, R^2={self.time_fit.r2:.5f}"
        )
        return "\n".join(lines)


def _timed_forwards(model, bag, repeats, warmup):
    """Median wall ms of ``repeats`` eval forwards, and the MACs each one's probe counted."""
    times, macs = [], []
    with ag.no_grad():
        for _ in range(warmup):
            model.forward(bag, train_mode=False)
        for _ in range(repeats):
            with ag.op_probe() as probe:
                t0 = time.perf_counter()
                model.forward(bag, train_mode=False)
                times.append((time.perf_counter() - t0) * 1000.0)
            macs.append(probe.macs)
    return float(np.median(times)), macs


def _traced_peak(model, bag):
    """Peak traced bytes of one eval forward; what was allocated before it is not traced."""
    tracemalloc.start()
    try:
        with ag.no_grad():
            model.forward(bag, train_mode=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_scaling(config, ns, repeats=7, warmup=2, seed=0, include_baseline=True, log=None):
    """Time eval forwards across token counts and fit the scaling curves."""
    ns = list(ns)
    if repeats < 5:
        raise ConfigError(f"need at least 5 repeats, got {repeats}")
    if not ns or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ConfigError(f"token counts must be strictly increasing, got {ns}")
    if ns[0] < 1:
        raise ConfigError(f"token counts must be >= 1, got {ns}")
    # (name, model, MACs of one forward at N tokens)
    models = [("ccan", make_model("ccan", config, config.seed), lambda n: count_macs(config, n))]
    if include_baseline:
        baseline = make_model("full-self-attention", config, config.seed)
        models.append(("full-self-attention", baseline, lambda n: count_baseline_macs(config, n)["total"]))
    rows = []
    for n in ns:
        bag = make_bench_bag(n, config.d_feature, seed=seed)
        for name, model, macs in models:
            try:
                wall, probed = _timed_forwards(model, bag, repeats, warmup)
                rows.append(BenchRow(name, n, wall, macs(n), _traced_peak(model, bag), set(probed) == {macs(n)}))
            except MemoryError:
                rows.append(BenchRow(name, n, float("nan"), macs(n), 0, False))
        if log is not None:
            log(f"N={n}: " + ", ".join(f"{r.model}={r.wall_ms:.1f}ms" for r in rows[-len(models) :]))
    ran = [r for r in rows if r.model == "ccan" and np.isfinite(r.wall_ms)]  # no MemoryError
    time_fit = linear_fit([r.n_tokens for r in ran], [r.wall_ms for r in ran])
    return ScalingReport(rows=rows, time_fit=time_fit)
