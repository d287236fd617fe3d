"""Per-layer metrics and the self-time table, from a traced pass.

"Per bag" divides by every model forward of the pass, train- or
eval-mode; the train-only figures divide by training forwards.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spec import LAYERS, PER_LAYER, PHASES
from tracing import NOT_OPS

FORWARD = "model.CCANModel.forward"


def _is_op(name):
    return name.startswith("autograd.") and name not in NOT_OPS and not name.startswith("autograd.Tensor.")


class Profile:
    """Calls, total and self nanoseconds per span name."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.own = tracer.self_times()
        self.calls = defaultdict(int)
        self.total = defaultdict(int)
        self.self_ns = defaultdict(int)
        for name, start, end, own in zip(tracer.names, tracer.starts, tracer.ends, self.own):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_ns[name] += own

    def total_ms(self, name):
        return self.total[name] / 1e6

    def self_ms(self, name):
        return self.self_ns[name] / 1e6

    def mean_ms(self, name):
        return _div(self.total_ms(name), self.calls[name])

    def tag_sum(self, name, pick=lambda tag: tag):
        return sum(pick(tag) for n, tag in zip(self.tracer.names, self.tracer.tags) if n == name)

    def train_op_calls(self):
        """Outermost autograd operations under training forwards and losses."""
        t = self.tracer
        context = [None] * len(t)
        count = 0
        for i, (name, parent) in enumerate(zip(t.names, t.parents)):
            if name == FORWARD:
                context[i] = "train" if t.tags[i][0] else "eval"
            elif name == "training.bag_loss":
                context[i] = "train"
            elif parent >= 0:
                context[i] = context[parent]
            if context[i] == "train" and _is_op(name) and not (parent >= 0 and _is_op(t.names[parent])):
                count += 1
        return count

    def phase_rows(self, phases):
        """(phase, wall ms, ms covered by top-level spans, {layer: self ms}) per phase."""
        t = self.tracer
        rows = []
        for phase, intervals in phases.items():
            covered = 0
            by_layer = defaultdict(float)
            for p0, p1 in intervals:
                for name, start, end, parent, own in zip(t.names, t.starts, t.ends, t.parents, self.own):
                    if p0 <= start and end <= p1:
                        by_layer[name.split(".")[0]] += own / 1e6
                        if parent < 0:
                            covered += (end - start) / 1e6
            rows.append((phase, sum(p1 - p0 for p0, p1 in intervals) / 1e6, covered, by_layer))
        return rows


def _div(a, b):
    return a / b if b else 0.0


def per_layer_metrics(traced, plain, memory):
    """Every per-layer metric; 0 where the workload never runs the layer."""
    prof = Profile(traced.tracer)
    forwards = traced.tracer.spans(FORWARD)
    n_fwd = len(forwards)
    n_train = sum(1 for _, _, tag in forwards if tag[0])
    n_steps = prof.calls["training.adamw_step"]
    # (N, ms, output, MACs, allocated bytes) of every eval forward run under op_probe
    probes = [r for key in ("infer", "explain") if key in traced.rounds[0] for r in traced.gather(key)]
    rows = prof.phase_rows(traced.phases)
    wall = sum(r[1] for r in rows)

    m = {}
    m["autograd.op_calls_per_bag"] = _div(prof.train_op_calls(), n_train)
    m["autograd.backward.self_ms_per_bag"] = _div(prof.self_ms("autograd.backward"), n_train)
    for op in ("matmul", "gelu", "softmax", "layer_norm", "transpose", "add"):
        m[f"autograd.{op}.self_ms_per_bag"] = _div(prof.self_ms(f"autograd.{op}"), n_fwd)
    m["autograd.matmul.gflops"] = _div(2 * prof.tag_sum("autograd.matmul"), prof.self_ns["autograd.matmul"])
    m["autograd.allocated_mb_per_bag"] = _div(sum(p[4] for p in probes) / 1e6, len(probes))
    m["autograd.macs_per_bag"] = _div(sum(p[3] for p in probes), len(probes))
    for block in ("cross_attention_block", "self_attention_block", "scaled_attention"):
        m[f"attention.{block}.self_ms_per_bag"] = _div(prof.self_ms(f"attention.{block}"), n_fwd)
    m["attention.record_mb_per_bag"] = _div(prof.tag_sum(FORWARD, lambda tag: tag[2]) / 1e6, n_fwd)
    m["posenc.attach_encodings.self_ms_per_bag"] = _div(prof.self_ms("posenc.attach_encodings"), n_fwd)
    m["data.FeatureBag.coords.ms_per_bag"] = _div(prof.total_ms("data.FeatureBag.coords"), n_fwd)
    own = prof.own
    for mode, n in (("train", n_train), ("eval", n_fwd - n_train)):
        ns = sum(own[i] for i, (name, tag) in enumerate(zip(traced.tracer.names, traced.tracer.tags))
                 if name == FORWARD and tag[0] == (mode == "train"))
        m[f"model.CCANModel.forward.self_ms_per_bag.{mode}"] = _div(ns / 1e6, n)
    for j in range(1, 7):
        ns = sum(own[i] for i, (name, tag) in enumerate(zip(traced.tracer.names, traced.tracer.tags))
                 if name == "model.CCANModel.stage_forward" and tag == j)
        m[f"model.stage_forward.self_ms.stage{j}"] = _div(ns / 1e6, n_fwd)
    slope, intercept = affine_fit(plain)
    m["model.infer_ms_per_ktoken"] = slope * 1e3
    m["model.infer_ms_fixed"] = intercept
    m["model.load_checkpoint.ms"] = prof.mean_ms("model.load_checkpoint")
    m["model.CCANModel.__init__.ms"] = prof.mean_ms("model.CCANModel.__init__")
    m["data.read_bag.ms_per_bag"] = prof.mean_ms("data.read_bag")
    m["data.read_bag.mb_per_s"] = _div(prof.tag_sum("data.read_bag") / 1e6, prof.total_ms("data.read_bag") / 1e3)
    m["data.load_manifest.ms"] = prof.mean_ms("data.load_manifest")
    m["training.adamw_step.ms_per_step"] = prof.mean_ms("training.adamw_step")
    m["training.train.self_ms_per_step"] = _div(prof.self_ms("training.train"), n_steps)
    m["training.bag_loss.self_ms_per_bag"] = _div(prof.self_ms("training.bag_loss"), n_train)
    m["training.evaluate_auc.ms_per_bag"] = _div(prof.total_ms("training.evaluate_auc"),
                                                 prof.tag_sum("training.evaluate_auc"))
    m["training.tokens_kept_per_bag"] = _div(sum(tag[1] for _, _, tag in forwards if tag[0]), n_train)
    n_explained = prof.calls["explain.aggregate_rollout"]
    m["explain.rollout_stage.ms_per_bag"] = _div(prof.total_ms("explain.rollout_stage"), n_explained)
    m["explain.aggregate_rollout.self_ms_per_bag"] = _div(prof.self_ms("explain.aggregate_rollout"), n_explained)
    m["netpbm.read_pnm.ms_per_image"] = prof.mean_ms("netpbm.read_pnm")
    m["preprocess.tessellate.self_ms_per_patch"] = _div(prof.self_ms("preprocess.tessellate"),
                                                        prof.tag_sum("preprocess.tessellate"))
    for fn in ("bilinear_resize", "is_white", "canny_edges", "stub_features"):
        m[f"preprocess.{fn}.ms_per_patch"] = prof.mean_ms(f"preprocess.{fn}")
    m["data.write_bag.ms_per_image"] = prof.mean_ms("data.write_bag")
    qcs = [r[3] for r in traced.gather("images")] if "images" in traced.rounds[0] else []
    m["preprocess.kept_ratio"] = _div(sum(q.kept for q in qcs), sum(q.total for q in qcs))
    m["preprocess.white_rejected"] = sum(q.white_rejected for q in qcs)
    m["preprocess.blur_rejected"] = sum(q.blur_rejected for q in qcs)
    for layer in LAYERS:
        m[f"{layer}.self_pct"] = _div(100.0 * sum(r[3][layer] for r in rows), wall)
    for phase in PHASES:
        m[f"tracemalloc.{phase}.peak_mb"] = memory.memory_peaks[phase] / 1e6
    # phases under 10 ms are mostly the benchmark's own bookkeeping
    m["trace.coverage"] = min(r[2] / r[1] for r in rows if r[1] >= 10.0)
    m["trace.overhead_ratio"] = wall / sum(plain.wall_ms(name) for name in traced.phases)
    missing = {name for name, _ in PER_LAYER} ^ set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with the spec: {sorted(missing)}")
    return m, prof, rows


def affine_fit(p):
    """Slope (ms per token) and intercept (ms) of eval-forward time against N."""
    if "infer" not in p.rounds[0]:
        return 0.0, 0.0
    infer = p.gather("infer")
    slope, intercept = np.polyfit([r[0] for r in infer], [r[1] for r in infer], 1)
    return float(slope), float(intercept)


def self_time_table(prof, rows, top=25):
    """Text table: per phase the self ms of each layer, then the heaviest functions."""
    lines = [f"{'phase':<11}{'wall ms':>11}{'covered':>9}  " + "".join(f"{layer:>11}" for layer in LAYERS)]
    for phase, wall, covered, by_layer in rows:
        lines.append(f"{phase:<11}{wall:>11.1f}{covered / wall:>9.3f}  "
                     + "".join(f"{by_layer[layer]:>11.1f}" for layer in LAYERS))
    lines.append("")
    lines.append(f"{'function':<52}{'calls':>9}{'self ms':>12}{'total ms':>12}")
    for name in sorted(prof.self_ns, key=prof.self_ns.get, reverse=True)[:top]:
        lines.append(f"{name:<52}{prof.calls[name]:>9}{prof.self_ms(name):>12.1f}{prof.total_ms(name):>12.1f}")
    return "\n".join(lines)
