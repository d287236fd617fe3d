"""The three workloads: set-up, timed phases, output checks.

Each workload class takes the description of its inputs, which
``inputs.py`` wrote in a child process. A pass runs it in
rounds: ``setup`` (timed as set-up) builds the state, ``measure`` runs the
timed phases and returns the round's records, and ``check`` validates
them outside every timed region. Rounds spread each kind of operation
over the whole run, so a slow stretch of a shared machine does not land
on one kind only. ``slots`` turns a pass into the end-to-end metric slots.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from inputs import sub_seed
from tracing import BOUNDARY, Tracer

# layer functions are called through their modules, so the tracer's patches apply
from ccan import autograd as ag
from ccan import data, explain, model, netpbm, preprocess, training
from ccan.bench import count_macs
from ccan.model import CCANConfig

TOY = dict(n_stages=2, n_latents=16, compression=2, d_latent=32, d_feature=64,
           self_layers=1, n_frequencies=2)
REF_MACS_AT_3091 = 36061330432


class Outcome:
    """Operations attempted and failed checks, summed over a run's passes."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)


class Pass:
    """One run of a workload: extra set-ups, then rounds of set-up and timed phases.

    ``mode`` is "plain" (boundary timestamps around training only),
    "traced" (every layer wrapped during set-up and phases) or "memory"
    (tracemalloc peak per phase).
    """

    def __init__(self, mode):
        self.mode = mode
        self.tracer = Tracer(only=None if mode == "traced" else BOUNDARY)
        self.phases = defaultdict(list)  # name -> [(start_ns, end_ns)]
        self.memory_peaks = defaultdict(int)  # name -> bytes
        self.setup_s = []
        self.rounds = []  # what each round's measure returned

    @contextlib.contextmanager
    def phase(self, name):
        if self.mode == "memory":
            tracemalloc.reset_peak()
        start = time.perf_counter_ns()
        yield
        self.phases[name].append((start, time.perf_counter_ns()))
        if self.mode == "memory":
            self.memory_peaks[name] = max(self.memory_peaks[name], tracemalloc.get_traced_memory()[1])

    @contextlib.contextmanager
    def instrumented(self):
        """The traced pass's wrappers, or tracemalloc for the memory pass."""
        if self.mode == "traced":
            with self.tracer:
                yield
        elif self.mode == "memory":
            tracemalloc.start()
            try:
                yield
            finally:
                tracemalloc.stop()
        else:
            yield

    def boundary(self):
        """Boundary timestamps for step timing; the traced pass already has them."""
        return contextlib.nullcontext() if self.mode == "traced" else self.tracer

    def wall_ms(self, name):
        return sum(end - start for start, end in self.phases[name]) / 1e6

    def gather(self, key):
        return [item for r in self.rounds for item in r[key]]


def run_pass(workload, mode, size, outcome, setup_samples=1):
    """``size["rounds"]`` rounds, with extra timed set-ups spread over them up to ``setup_samples``."""
    p = Pass(mode)
    rounds = size["rounds"]
    extra = max(0, setup_samples - rounds)
    for i in range(rounds):
        for _ in range(extra // rounds + (i < extra % rounds)):
            start = time.perf_counter()
            state = workload.setup()
            p.setup_s.append(time.perf_counter() - start)
            del state
        with p.instrumented():
            with p.phase("setup"):
                state = workload.setup()
            start, end = p.phases["setup"][-1]
            p.setup_s.append((end - start) / 1e9)
            p.rounds.append(workload.measure(p, state, size))
        workload.check(p.rounds[-1], state, outcome)
        del state
    return p


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def fastest(samples, period):
    """Per distinct operation, the fastest of its repeats.

    ``samples`` holds repeats of the same ``period`` operations one after
    another. On a shared host an operation runs either at full speed or
    slowed by other guests, so per-run medians of raw times jump with the
    share of slow stretches; the fastest repeat does not.
    """
    return [min(samples[i::period]) for i in range(period)]


def _probed(bag, run):
    """(N, ms, output, MACs, allocated bytes) of ``run()``, an eval-mode forward of ``bag``."""
    with ag.op_probe() as probe:
        start = time.perf_counter()
        out = run()
        ms = (time.perf_counter() - start) * 1e3
    return bag.n_tokens, ms, out, probe.macs, probe.tensor_bytes


def _train_phase(p, net, dataset, fold, cfg):
    """``training.train`` as one phase; optimizer steps and evaluate_auc calls from boundary spans.

    A step runs from the first training forward after the previous AdamW
    step to the end of its own AdamW step, so per-epoch evaluation and
    snapshots fall outside every step.
    """
    with p.phase("train"), p.boundary():
        _, history = training.train(net, dataset, fold, cfg)
    t0, t1 = p.phases["train"][-1]
    forwards = p.tracer.spans("model.CCANModel.forward", t0, t1)
    train_starts = sorted(s for s, _, tag in forwards if tag[0])
    steps, step_bags = [], []
    prev_end = t0
    for _, end, _ in p.tracer.spans("training.adamw_step", t0, t1):
        first = bisect.bisect_left(train_starts, prev_end)
        steps.append((end - train_starts[first]) / 1e6)
        step_bags.append(bisect.bisect_left(train_starts, end) - first)
        prev_end = end
    return {
        "history": history,
        "step_ms": steps,
        "step_bags": step_bags,
        "eval_bag_ms": [(e - s) / 1e6 for s, e, tag in forwards if not tag[0]],
        "eval_probs": [tag[3] for _, _, tag in forwards if not tag[0]],
        "eval_calls": [(tag, (e - s) / 1e6) for s, e, tag in p.tracer.spans("training.evaluate_auc", t0, t1)],
    }


def _explain_phase(p, net, bags):
    with p.phase("explain"):
        return [_probed(bag, lambda: explain.explain_bag(net, bag)) for bag in bags]


def _check_training(r, outcome):
    outcome.attempted += len(r["step_ms"]) + len(r["eval_bag_ms"])
    for epoch, loss in enumerate(r["history"].train_loss):
        outcome.check(math.isfinite(loss), f"epoch {epoch}: training loss {loss} is not finite")
    for probs in r["eval_probs"]:
        outcome.check(_is_probability(probs), f"eval probabilities {probs} outside [0, 1]")


def _is_probability(probs):
    return bool(np.all(np.isfinite(probs)) and np.all((probs >= 0) & (probs <= 1)))


def _check_explain(records, outcome):
    outcome.attempted += len(records)
    for n, _, amap, _, _ in records:
        ok = amap.normalization == "minmax" and amap.scores.min() >= 0 and amap.scores.max() <= 1
        outcome.check(ok, f"explain N={n}: {amap.normalization} scores in "
                          f"[{amap.scores.min()}, {amap.scores.max()}]")


def _check_macs(records, config, outcome):
    """Every probed eval forward counts exactly the MACs count_macs predicts."""
    for n, _, _, macs, _ in records:
        want = count_macs(config, n)
        outcome.check(macs == want, f"N={n}: op_probe counted {macs} MACs, count_macs says {want}")


def _check_rollout(net, bags, outcome):
    outcome.attempted += len(bags)
    for bag in bags:
        with ag.no_grad():
            out = net.forward(bag, train_mode=False)
        for j, stage in enumerate(out.stages, start=1):
            total = float(explain.rollout_stage(stage).sum())
            outcome.check(abs(total - 1.0) <= 1e-4, f"bag {bag.bag_id} stage {j}: rollout sums to {total}")


def _train_slots(p, steps_per_repeat):
    """Training bags per second and step time, from the fastest repeat of each step."""
    best = fastest(p.gather("step_ms"), steps_per_repeat)
    bags = p.gather("step_bags")[:steps_per_repeat]
    return {
        "op1_per_s": sum(bags) / (sum(best) / 1e3),
        "op1_ms": statistics.median(best),
        "op1_ms_p90": p90(best),
    }


def _ms(records):
    return [r[1] for r in records]


class ToyTrain:
    name = "toy_train"
    setup_samples = 32

    def __init__(self, work, seed, made):
        self.work = work
        self.seed = seed
        self.manifest = made["manifest"]
        self.config = CCANConfig(**TOY, p_dropout=0.5, seed=sub_seed(seed, "toy-model"))

    @staticmethod
    def size(seconds, traced):
        # an epoch is about 15 steps and takes 0.85-1.4 s. Ten short rounds
        # give each step ten repeats spread over the run, so its fastest
        # repeat misses the host's slow stretches and the collector's full passes
        if traced:
            return {"rounds": 1, "epochs": 3}
        return {"rounds": 10, "epochs": max(1, round(seconds / 12.5))}

    def setup(self):
        dataset = data.load_manifest(self.manifest)
        plan = data.patient_grouped_kfold(dataset.bags, k=4, val_fraction=0.2,
                                          seed=sub_seed(self.seed, "toy-plan"))
        net = model.CCANModel(self.config)
        training.AdamWState.for_params([t.data for _, t in net.parameters()])
        return dataset, plan.folds[0], net

    def measure(self, p, state, size):
        dataset, fold, net = state
        cfg = training.TrainConfig(epochs=size["epochs"], batch_size=8, lr_max=1e-3,
                                   seed=sub_seed(self.seed, "toy-train"))
        r = _train_phase(p, net, dataset, fold, cfg)
        # explain is cheap here, so it gets a pass per epoch
        r["explain"] = _explain_phase(p, net, [dataset.by_id(i) for i in fold.test_ids] * size["epochs"])
        r["n_test"] = len(fold.test_ids)
        return r

    def check(self, r, state, outcome):
        dataset, fold, net = state
        _check_training(r, outcome)
        _check_explain(r["explain"], outcome)
        _check_macs(r["explain"], self.config, outcome)
        test_bags = [dataset.by_id(i) for i in fold.test_ids]
        _check_rollout(net, test_bags[:5], outcome)
        # a float64 twin from the same checkpoint agrees with the float32 model
        path = os.path.join(self.work, "toy.ckpt")
        model.save_checkpoint(net, path)
        twin = model.load_checkpoint(path, dtype=np.float64)
        outcome.attempted += 1
        with ag.no_grad():
            worst = max(
                float(np.max(np.abs(net.forward(b).averaged_probs - twin.forward(b).averaged_probs)))
                for b in test_bags
            )
        outcome.check(worst <= 1e-4, f"float64 twin differs from float32 by {worst}")

    def slots(self, p):
        # every round trains the same model on the same data, so rounds repeat
        # each step; evaluating or explaining a bag is the same work in every
        # epoch and pass, so those repeat within a round as well
        first = p.rounds[0]
        n_val, n_test = first["eval_calls"][0][0], first["n_test"]
        # train() evaluates the validation bags after each epoch, then the test bags once
        best_val = fastest([ms for r in p.rounds for ms in r["eval_bag_ms"][:-n_test]], n_val)
        return {
            **_train_slots(p, len(first["step_ms"])),
            "op2_per_s": n_val / (sum(best_val) / 1e3),
            "op2_ms": statistics.median(best_val),
            "op3_ms": statistics.median(fastest(_ms(p.gather("explain")), n_test)),
        }


class RefSlide:
    name = "ref_slide"
    setup_samples = 3

    def __init__(self, work, seed, made):
        self.seed = seed
        self.manifest, self.checkpoint, self.roles = made["manifest"], made["checkpoint"], made["roles"]
        self.config = CCANConfig()

    @staticmethod
    def size(seconds, traced):
        # a round (one epoch of two steps, evaluate_auc on the two validation
        # bags, one pass over the infer and explain bags) takes about 16 s.
        # The host's slow stretches last seconds, so repeats go in separate
        # rounds, and two rounds are the fewest that repeat every operation
        return {"rounds": 1 if traced else max(2, round(seconds / 15))}

    def setup(self):
        dataset = data.load_manifest(self.manifest)
        net = model.load_checkpoint(self.checkpoint)
        training.AdamWState.for_params([t.data for _, t in net.parameters()])
        return dataset, net

    def measure(self, p, state, size):
        dataset, net = state
        fold = data.FoldSplit(train_ids=self.roles["train"], val_ids=self.roles["val"], test_ids=[])
        cfg = training.TrainConfig(epochs=1, batch_size=2, seed=sub_seed(self.seed, "ref-train"))
        r = _train_phase(p, net, dataset, fold, cfg)
        infer = []
        with p.phase("infer"), ag.no_grad():
            for bag in [dataset.by_id(i) for i in self.roles["infer"]]:
                n, ms, out, macs, allocated = _probed(bag, lambda: net.forward(bag, train_mode=False))
                infer.append((n, ms, out.averaged_probs, macs, allocated))
                del out  # its attention records are large
        r["infer"] = infer
        r["explain"] = _explain_phase(p, net, [dataset.by_id(i) for i in self.roles["explain"]])
        return r

    def check(self, r, state, outcome):
        dataset, net = state
        _check_training(r, outcome)
        outcome.attempted += len(r["infer"]) + 1
        for n, _, probs, _, _ in r["infer"]:
            outcome.check(_is_probability(probs), f"infer N={n}: probabilities {probs} outside [0, 1]")
        _check_explain(r["explain"], outcome)
        _check_macs(r["infer"] + r["explain"], self.config, outcome)
        macs = count_macs(self.config, 3091)
        outcome.check(macs == REF_MACS_AT_3091, f"count_macs(CCANConfig(), 3091) = {macs}")
        _check_rollout(net, [dataset.by_id(self.roles["infer"][0])], outcome)

    def slots(self, p):
        # every round trains the same model on the same bags and runs the same eval bags
        n_infer = len(self.roles["infer"])
        best_infer = fastest(_ms(p.gather("infer")), n_infer)
        tokens = sum(r[0] for r in p.gather("infer")[:n_infer])
        return {
            **_train_slots(p, len(p.rounds[0]["step_ms"])),
            "op2_per_s": tokens / (sum(best_infer) / 1e3),
            "op2_ms": statistics.median(best_infer),
            "op3_ms": statistics.median(fastest(_ms(p.gather("explain")), len(self.roles["explain"]))),
        }


class RasterPreprocess:
    name = "raster_preprocess"
    setup_samples = 64

    def __init__(self, work, seed, made):
        self.seed = seed
        self.rasters = made["rasters"]
        self.out_dir = os.path.join(work, "bags")
        os.makedirs(self.out_dir, exist_ok=True)

    @staticmethod
    def size(seconds, traced):
        # a round over the four rasters takes about 2.2 s
        return {"rounds": 1 if traced else max(2, round(seconds / 2.2))}

    def setup(self):
        return [preprocess.read_sidecar(r["sidecar"]) for r in self.rasters]

    def measure(self, p, metas, size):
        images = []
        projection_seed = sub_seed(self.seed, "projection")
        with p.phase("preprocess"):
            for raster, meta in zip(self.rasters, metas):
                path = os.path.join(self.out_dir, f"{meta['bag_id']}.ccfb")
                start = time.perf_counter()
                pixels, _ = netpbm.read_pnm(raster["image"])
                image = preprocess.RasterImage(pixels, meta["microns_per_pixel"])
                bag, qc = preprocess.run_pipeline(image, path, meta["label"], meta["bag_id"],
                                                  meta["patient_id"], seed=projection_seed)
                ms = (time.perf_counter() - start) * 1e3
                images.append((raster, ms, bag, qc, path))
                del pixels, image  # or the next read overlaps this raster in memory
        return {"images": images}

    def check(self, r, metas, outcome):
        outcome.attempted += len(r["images"])
        for raster, _, bag, qc, path in r["images"]:
            name = os.path.basename(path)
            n_rows, n_cols = raster["grid"]
            want = raster["expected"]
            outcome.check(qc.total == n_rows * n_cols, f"{name}: qc.total {qc.total} != {n_rows}x{n_cols} grid")
            outcome.check(qc.kept == bag.n_tokens, f"{name}: qc.kept {qc.kept} != {bag.n_tokens} tokens")
            got = (qc.white_rejected, qc.blur_rejected, qc.kept)
            outcome.check(got == (want["white"], want["blur"], want["tissue"]),
                          f"{name}: white/blurry/kept {got}, raster has {want}")
            outcome.check(_same_bag(data.read_bag(path), bag), f"{name}: CCFB does not read back equal")

    def slots(self, p):
        # every round reads and preprocesses the same rasters
        images = p.gather("images")
        best = fastest(_ms(images), len(self.rasters))
        patches = [r[3].total for r in images[: len(self.rasters)]]
        resize = [i for i, raster in enumerate(self.rasters) if raster["mpp"] == 0.5]
        copy = [i for i, raster in enumerate(self.rasters) if raster["mpp"] == 1.0]
        return {
            "op1_per_s": sum(patches) / (sum(best) / 1e3),
            "op1_ms": statistics.median(best),
            "op1_ms_p90": p90(best),
            "op2_per_s": sum(patches[i] for i in resize) / (sum(best[i] for i in resize) / 1e3),
            "op2_ms": statistics.median(best[i] for i in resize),
            "op3_ms": statistics.median(best[i] for i in copy),
        }


def _same_bag(a, b):
    return (
        (a.bag_id, a.patient_id, a.label, a.rows_total, a.cols_total)
        == (b.bag_id, b.patient_id, b.label, b.rows_total, b.cols_total)
        and np.array_equal(a.tokens, b.tokens)
        and np.array_equal(a.rows, b.rows)
        and np.array_equal(a.cols, b.cols)
    )


WORKLOADS = {w.name: w for w in (ToyTrain, RefSlide, RasterPreprocess)}
