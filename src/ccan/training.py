"""Losses, optimizer, AUC metrics, the training loop, and the data sweep.

One optimizer step covers ``batch_size`` bags via gradient accumulation
(the accumulated gradient is divided by the window size, so the step
behaves like a mean over the window). The learning rate follows cosine
annealing over the total number of optimizer steps, computed up front.
Model selection keeps the epoch with the highest validation AUC.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import autograd as ag
from .data import atomic_write, seeded_rng, subsample_fraction
from .errors import ConfigError, DataError, MetricError, UsageError
from .model import MODEL_KINDS, make_model, save_checkpoint


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 30  # gradient-accumulation window
    lr_max: float = 5e-6
    seed: int = 0

    def validate(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not 0 <= self.lr_max < math.inf:  # NaN fails every comparison
            raise ConfigError(f"lr_max must be finite and >= 0, got {self.lr_max}")
        return self


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)  # per epoch
    val_auc: list = field(default_factory=list)  # per epoch
    best_epoch: int = -1
    best_val_auc: float = float("-inf")
    test_auc_at_best: float = float("nan")

    def write_csv(self, path):
        with atomic_write(path, text=True) as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_auc"])
            for i, (loss, auc) in enumerate(zip(self.train_loss, self.val_auc)):
                writer.writerow([i, repr(float(loss)), repr(float(auc))])
            writer.writerow(["best_epoch", self.best_epoch, repr(float(self.best_val_auc))])
            writer.writerow(["test_auc_at_best", repr(float(self.test_auc_at_best)), ""])


# ---------------------------------------------------------------------------
# losses


def check_labels(bags, num_classes):
    """Raise DataError naming the first bag whose label is outside 0..num_classes-1."""
    for bag in bags:
        if not 0 <= bag.label < num_classes:
            raise DataError(f"bag {bag.bag_id!r} has label {bag.label}, outside 0..{num_classes - 1}")


def check_fold(dataset, fold, num_classes):
    """The fold's (training, validation, test) dataset entries; DataError if it has no training or validation
    bags, a label outside the task, or validation or test bags without a class (no AUC after the epochs)."""
    # dataset entries: a bag's tokens are read right before its use and dropped after it
    subsets = [[dataset.entry(i) for i in ids] for ids in (fold.train_ids, fold.val_ids, fold.test_ids)]
    for name, bags in zip(("training", "validation"), subsets):
        if not bags:
            raise DataError(f"the fold has no {name} bags")
    check_labels([bag for bags in subsets for bag in bags], num_classes)
    for name, bags in zip(("validation", "test"), subsets[1:]):
        missing = sorted(set(range(num_classes)) - {bag.label for bag in bags})
        if bags and missing:
            raise DataError(f"the fold's {name} bags lack classes {missing}; AUC needs every class present")
    return subsets


def bag_loss(model_output, label, num_classes):
    """Summed per-stage BCE against the bag label (one-vs-rest when num_classes > 2)."""
    if not 0 <= label < num_classes:
        raise DataError(f"label {label} is outside 0..{num_classes - 1}")
    if num_classes == 2:
        target = np.array([1.0 if label == 1 else 0.0])
    else:
        target = np.zeros(num_classes)
        target[label] = 1.0
    return ag.bce([so.probs_tensor for so in model_output.stages], target)


# ---------------------------------------------------------------------------
# optimizer and schedule


@dataclass
class AdamWState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params):
        """Zero moments for the arrays ``params`` packed end to end."""
        size, dtype = sum(p.size for p in params), np.result_type(*params)
        # written here: calloc's pages would be faulted in, and zeroed, inside the first step
        return cls(m=np.full(size, 0, dtype), v=np.full(size, 0, dtype))


ADAMW_CHUNK = 32 * 1024  # elements per pass of adamw_step
# AdamW's fixed hyperparameters: the stock moment decays, epsilon and weight decay
BETA1, BETA2, EPS, WEIGHT_DECAY = 0.9, 0.999, 1e-8, 0.01


def adamw_step(params, grads, state, lr):
    """One decoupled-weight-decay Adam step on the 1-D array ``params``, in place.

    Per element this is exactly
    ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; p -= (lr*wd)*p;
    p -= (lr*m_hat) / (sqrt(v_hat) + eps)``, with b1, b2, eps and wd the
    module's BETA1, BETA2, EPS and WEIGHT_DECAY and the bias-corrected
    ``m_hat = m/bc1`` and ``v_hat = v/bc2``, in the parameters' dtype and
    in this order, so the bits do not depend on how values are packed.
    The arrays are walked in ADAMW_CHUNK-element chunks through two scratch
    buffers, so the step allocates no full-size temporaries.
    """
    arrays = {"parameters": params, "gradient": grads, "m": state.m, "v": state.v}
    if params.ndim != 1 or any(a.shape != params.shape or a.dtype != params.dtype for a in arrays.values()):
        got = ", ".join(f"{k} {a.dtype}{a.shape}" for k, a in arrays.items())
        raise UsageError(f"adamw_step: needs 1-D arrays of one shape and dtype, got {got}")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    buf1, buf2 = np.empty(ADAMW_CHUNK, params.dtype), np.empty(ADAMW_CHUNK, params.dtype)
    for lo in range(0, params.size, ADAMW_CHUNK):
        hi = min(lo + ADAMW_CHUNK, params.size)
        pc, gc, mc, vc = params[lo:hi], grads[lo:hi], state.m[lo:hi], state.v[lo:hi]
        t1, t2 = buf1[: hi - lo], buf2[: hi - lo]
        mc *= BETA1
        np.multiply(gc, 1.0 - BETA1, out=t1)
        mc += t1
        vc *= BETA2
        np.multiply(gc, 1.0 - BETA2, out=t1)
        t1 *= gc
        vc += t1
        np.multiply(pc, lr * WEIGHT_DECAY, out=t1)
        pc -= t1
        np.divide(mc, bc1, out=t1)
        t1 *= lr
        np.divide(vc, bc2, out=t2)
        np.sqrt(t2, out=t2)
        t2 += EPS
        t1 /= t2
        pc -= t1
    return state


def cosine_lr(step, total, lr_max):
    """Cosine annealing from lr_max at step 0 to 0 at step ``total``."""
    if total < 1 or not 0 <= step <= total:
        raise ConfigError(f"need 0 <= step <= total with total >= 1, got {step}/{total}")
    return 0.5 * lr_max * (1.0 + math.cos(math.pi * step / total))


# ---------------------------------------------------------------------------
# metrics


def auc_binary(scores, labels):
    """P(random positive outranks random negative); ties count one half.

    Computed from midranks, which is equivalent to trapezoidal ROC
    integration.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != labels.size:
        raise MetricError(f"auc_binary labels must be 0 or 1, got {sorted(set(labels.tolist()) - {0, 1})}")
    if n_pos == 0 or n_neg == 0:
        raise MetricError("auc_binary needs both classes present")
    if not np.isfinite(scores).all():
        raise MetricError(f"auc_binary scores must be finite, got {scores[~np.isfinite(scores)][0]}")
    # a run of equal scores holds the 1-based ranks ends - counts + 1 .. ends; each gets their mean
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - 0.5 * (counts - 1))[inverse]
    rank_sum = ranks[labels == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_macro_ovr(score_matrix, labels):
    """Unweighted mean of one-vs-rest binary AUCs over all classes."""
    score_matrix = np.asarray(score_matrix, dtype=np.float64)
    labels = np.asarray(labels)
    n_classes = score_matrix.shape[1]
    present = np.unique(labels)
    if present.size and not (0 <= present[0] and present[-1] < n_classes):
        raise MetricError(f"labels {present.tolist()} outside 0..{n_classes - 1}")
    if len(present) < n_classes:
        raise MetricError(f"classes {sorted(set(range(n_classes)) - set(present.tolist()))} absent from labels")
    return float(np.mean([auc_binary(score_matrix[:, k], (labels == k).astype(int)) for k in range(n_classes)]))


def evaluate_auc(model, bags):
    """Eval-mode AUC of a model over a list of bags or dataset entries (binary or macro one-vs-rest).

    Each forward loads its bag and drops it.
    """
    if not bags:
        raise DataError("cannot evaluate AUC on an empty bag list")
    num_classes = model.config.num_classes
    check_labels(bags, num_classes)
    labels = np.array([b.label for b in bags])
    with ag.no_grad():
        scores = np.stack([model.forward(b, train_mode=False).averaged_probs for b in bags])
    if num_classes == 2:
        return auc_binary(scores[:, 0], labels)
    return auc_macro_ovr(scores, labels)


# ---------------------------------------------------------------------------
# training loop


def _bag_step(model, entry, rng, num_classes):
    """Forward, loss and backward of one training bag or dataset entry; returns the loss value.

    The forward loads the bag and frees its raw tokens once the kept rows are projected; the backward frees
    each node's saved arrays once they are read, and the rest of the graph is dropped on return.
    """
    out = model.forward(entry, rng=rng, train_mode=True)
    loss = bag_loss(out, entry.label, num_classes)
    ag.backward(loss)
    return loss.item()


def train(model, dataset, fold, cfg, checkpoint_path=None, log=None):
    """Train one model on one fold; returns (best, history), ``best`` laid out like ``model.values``.

    The model is left holding the best values, and the test AUC at that point
    is recorded in the history. Fully deterministic given (seed, config, dataset, fold).
    """
    cfg.validate()
    rng = seeded_rng(cfg.seed)
    num_classes = model.config.num_classes
    train_bags, val_bags, test_bags = check_fold(dataset, fold, num_classes)  # before the first step

    state = AdamWState.for_params([model.values])
    total_steps = cfg.epochs * math.ceil(len(train_bags) / cfg.batch_size)

    history = TrainHistory()
    # AUC is finite (midranks of any scores), so epoch 0 always beats -inf and fills best
    best = None
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_bags))
        epoch_losses = []
        grads = model.zeroed_grads()  # one array per epoch: its pages are mapped once, not per window
        for lo in range(0, len(order), cfg.batch_size):
            if lo:
                grads.fill(0)
            window = order[lo:lo + cfg.batch_size]
            for idx in window:
                epoch_losses.append(_bag_step(model, train_bags[idx], rng, num_classes))
            lr = cosine_lr(state.t, total_steps, cfg.lr_max)  # t: the steps taken so far
            grads /= len(window)
            adamw_step(model.values, grads, state, lr)
        ag.zero_grad(t for _, t in model.parameters())
        del grads  # with the views gone, the epoch's array is freed here, before evaluation
        val_auc = evaluate_auc(model, val_bags)
        history.train_loss.append(float(np.mean(epoch_losses)))
        history.val_auc.append(float(val_auc))
        if val_auc > history.best_val_auc:
            history.best_val_auc = float(val_auc)
            history.best_epoch = epoch
            if best is None:
                best = np.empty_like(model.values)
            np.copyto(best, model.values)
            if checkpoint_path is not None:
                save_checkpoint(model, checkpoint_path)
        if log is not None:
            log(f"epoch {epoch}: train_loss={history.train_loss[-1]:.4f} val_auc={val_auc:.4f}")
    np.copyto(model.values, best)
    if test_bags:
        history.test_auc_at_best = float(evaluate_auc(model, test_bags))
    return best, history


# ---------------------------------------------------------------------------
# data-efficiency sweep


@dataclass
class SweepRow:
    fold: int
    fraction: float
    model: str
    best_epoch: int
    val_auc: float
    test_auc: float


def write_sweep_csv(rows, path):
    with atomic_write(path, text=True) as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "fraction", "model", "best_epoch", "val_auc", "test_auc"])
        for r in rows:
            writer.writerow(
                [r.fold, repr(float(r.fraction)), r.model, r.best_epoch,
                 repr(float(r.val_auc)), repr(float(r.test_auc))]
            )


def _sweep_cell(shared, cell):
    dataset, ccan_config, cfg = shared
    plan_fold, fold_idx, fraction, kind = cell
    sub_seed = derive_seed(cfg.seed, f"subsample-fold{fold_idx}")
    train_ids = subsample_fraction(plan_fold.train_ids, fraction, sub_seed)
    fold = replace(plan_fold, train_ids=train_ids)
    model_seed = derive_seed(cfg.seed, f"model-{kind}-fold{fold_idx}-frac{fraction}")
    model = make_model(kind, ccan_config, model_seed)
    run_cfg = replace(cfg, seed=derive_seed(cfg.seed, f"train-{kind}-fold{fold_idx}-frac{fraction}"))
    _, history = train(model, dataset, fold, run_cfg)
    return SweepRow(
        fold=fold_idx,
        fraction=fraction,
        model=kind,
        best_epoch=history.best_epoch,
        val_auc=history.best_val_auc,
        test_auc=history.test_auc_at_best,
    )


_worker_shared = None  # (dataset, ccan_config, cfg), sent once per pool worker; a manifest dataset is its index


def _init_worker(shared):
    global _worker_shared
    _worker_shared = shared


def _worker_cell(cell):
    return _sweep_cell(_worker_shared, cell)


def check_sweep(fractions, models, jobs):
    """Raise ``ConfigError`` for arguments ``data_efficiency_sweep`` rejects, before any cell trains."""
    if not fractions:
        raise ConfigError("fractions must be nonempty")
    if any(not 0 < f <= 1 for f in fractions):
        raise ConfigError(f"fractions must lie in (0, 1], got {tuple(fractions)}")
    if not models or any(m not in MODEL_KINDS for m in models):
        raise ConfigError(f"sweep models must be among {tuple(MODEL_KINDS)}, got {tuple(models)}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")


def data_efficiency_sweep(dataset, split_plan, fractions, cfg, ccan_config,
                          models=("ccan", "mean-pool", "max-pool"), jobs=1, log=None):
    """Train every model at every (fold, fraction) cell; returns SweepRows.

    Fraction subsets within a fold share one subsample seed, so smaller
    fractions are prefixes of larger ones.
    """
    check_sweep(fractions, models, jobs)
    shared = (dataset, ccan_config, cfg)
    cells = [
        (split_plan.folds[i], i, float(fr), kind)
        for i in range(split_plan.k)
        for fr in fractions
        for kind in models
    ]
    rows = []
    # pool.map, like map, yields rows in cell order, each once it and the cells before it are done;
    # the workers get the dataset from the initializer, so a cell pickles only its own fields.
    # A pool may start all its workers at the first submit, so it has no more workers than cells.
    workers = min(jobs, len(cells))
    parallel = workers > 1
    with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(shared,)) if parallel else nullcontext() as pool:
        for row in pool.map(_worker_cell, cells) if parallel else map(partial(_sweep_cell, shared), cells):
            rows.append(row)
            if log is not None:
                log(f"fold {row.fold} fraction {row.fraction} {row.model}: test_auc={row.test_auc:.4f}")
    rows.sort(key=lambda r: (r.fold, r.fraction, r.model))
    return rows


def derive_seed(root, purpose):
    """Stable sub-seed from a root seed and a purpose string."""
    import hashlib

    digest = hashlib.sha256(f"{root}:{purpose}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % (2**31)
