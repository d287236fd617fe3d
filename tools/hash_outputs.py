"""Print sha256 digests of a model's outputs, records and gradients.

The first line after the config is the model's layout: the digest of
every parameter's name and shape in ``parameters()`` order and of the
freshly drawn ``values``. Two checkouts that print the same lines make
the same parameters in the same order from the same draws, and compute
the same float bits for one seeded bag: the eval-mode probabilities, the last two
``AttentionRecord``s of each stage (its final cross and final self
attention, the records rollout reads) in the eval and the training
forward, the ``explain_bag`` scores, the training loss, and every
parameter gradient of one training bag. Only the last two are hashed, so checkouts that keep more records
per stage still compare. The BLAS thread count is printed too, because
bit identity holds per thread count (see README), and beside it the
usable CPU count, the number of threads preprocessing resizes and
filters patches on, which its lines do not depend on.

Every run also hashes preprocessing, which no model setting reaches: for
a seeded raster of white, blurred and sharp tissue cells at 0.5 and 1.0
microns per pixel, then at 0.25 and 1/3 (the other whole resize factors,
4 and 3) and at 0.3 (853 px patches, a fractional factor), the QC counts
and CCFB bytes of ``run_pipeline`` (at 0.5 also with 300 features, which
end in a partial 128-column projection slab), the Canny mask of each patch, and the
``is_blurry`` verdict of each non-white patch under the default config and
three the pipeline's defaults never reach (``canny_low`` above
``canny_high``, ``canny_low`` 0 and ``canny_high`` 0). And
it hashes a short seeded TOY ``training.train`` (3 epochs in windows of
8 bags on synthetic witness bags), which runs AdamW, the window mean and
the best-epoch snapshot and restore: its history, the returned best
values and the final parameters.
Its ``kinds`` line covers every model kind, CCAN at TOY and each baseline
at TOY widths: per kind, the layout, the eval-mode probabilities and
every gradient of one seeded bag, and the ``values`` that
``load_checkpoint`` reads back from its ``save_checkpoint`` file. The
checkpoint files' bytes have lines of their own, ``train_ckpt`` and
``kinds_ckpt``, so checkouts that write another checkpoint format still
compare on every other line. These runs use only names every checkout
has, so the tool can hash an older checkout for comparison.

    PYTHONPATH=src python tools/hash_outputs.py --config ref --n 3091 --heads 4
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/hash_outputs.py --config toy

``--config toy`` is the acceptance tests' TOY model; ``ref`` is
``CCANConfig()`` (96.4M parameters, about 1.2 GB while its gradients are
held). More than one head runs with per-dim scaling. ``--each`` prints a
digest per record and per gradient as well.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import math
import os
import sys
import tempfile

import numpy as np
from scipy import ndimage

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from ccan import autograd as ag  # noqa: E402
from ccan.data import FeatureBag, generate_synthetic, patient_grouped_kfold  # noqa: E402
from ccan.explain import explain_bag  # noqa: E402
from ccan.model import MODEL_KINDS, CCANConfig, CCANModel, load_checkpoint, make_model, save_checkpoint  # noqa: E402
from ccan.preprocess import (  # noqa: E402
    PreprocessConfig, RasterImage, canny_edges, is_blurry, is_white, run_pipeline, tessellate)
from ccan.training import TrainConfig, bag_loss, train  # noqa: E402

# the blur verdict under the default thresholds and at each edge: low above high, every pixel weak, every pixel strong
BLUR_CONFIGS = (PreprocessConfig(), PreprocessConfig(canny_low=120.0, canny_high=60.0),
                PreprocessConfig(canny_low=0.0), PreprocessConfig(canny_high=0.0))
TOY = dict(n_stages=2, n_latents=16, compression=2, d_latent=32, d_feature=64, self_layers=1, n_frequencies=2)


def blas_threads():
    """The thread count of numpy's bundled OpenBLAS, or None when it cannot be read."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.data)
    return h.hexdigest()


def make_bag(n, d_feature, seed):
    rng = np.random.default_rng(seed)
    cols = math.ceil(math.sqrt(n))
    idx = np.arange(n)
    return FeatureBag("bag", "patient", 1, rng.normal(size=(n, d_feature)).astype(np.float32),
                      idx // cols, idx % cols, math.ceil(n / cols), cols)


def stained_raster(mpp, seed):
    """One row of patch cells, each near-white, blurred tissue or sharp tissue."""
    rng = np.random.default_rng(seed)
    side = round(256 / mpp)
    cells = []
    for kind in ("white", "sharp", "blur", "sharp", "white", "blur", "sharp", "blur"):
        if kind == "white":
            cell = rng.normal(246.0, 3.0, (side, side, 3))
        else:
            grain = round((2.0 if kind == "sharp" else 32.0) / mpp)
            texture = np.kron(rng.normal(0.0, 1.0, (side // grain + 1, side // grain + 1, 1)),
                              np.ones((grain, grain, 1)))[:side, :side]
            if kind == "blur":
                texture = ndimage.gaussian_filter(texture, (8.0 / mpp, 8.0 / mpp, 0), mode="nearest")
            cell = np.array([196.0, 118.0, 168.0]) + 36.0 * texture * np.array([1.0, 1.2, 0.8])
        cells.append(np.rint(np.clip(cell, 0, 255)).astype(np.uint8))  # 8-bit cells keep 0.25 um/px small
    return RasterImage(pixels=np.concatenate(cells, axis=1), microns_per_pixel=mpp)


def report_preprocess(seed):
    with tempfile.TemporaryDirectory() as tmp:
        for mpp, name in ((0.5, "0.5"), (1.0, "1.0"), (0.25, "0.25"), (1 / 3, "0.333"), (0.3, "0.3")):
            image = stained_raster(mpp, seed)
            path = os.path.join(tmp, "bag.ccfb")
            _, qc = run_pipeline(image, path, 1, "bag", "patient", seed=seed)
            print(f"{f'qc_{name}um':14s} {qc.total:4d} total, {qc.white_rejected} white, {qc.blur_rejected} blurry, "
                  f"{qc.kept} kept")
            with open(path, "rb") as fh:
                report(f"ccfb_{name}um", [np.frombuffer(fh.read(), np.uint8)])
            if name == "0.5":
                run_pipeline(image, path, 1, "bag", "patient", seed=seed, config=PreprocessConfig(d_feature=300))
                with open(path, "rb") as fh:
                    report("ccfb_0.5um_300", [np.frombuffer(fh.read(), np.uint8)])
            patches = tessellate(image)
            report(f"canny_{name}um", [canny_edges(p.pixels) for p in patches])
            tissue = [p.pixels for p in patches if not is_white(p.pixels)]
            report(f"blur_{name}um", [np.array([is_blurry(p, c) for p in tissue]) for c in BLUR_CONFIGS])


def report_train(seed):
    dataset = generate_synthetic(40, n_per_bag_range=(20, 40), d_feature=TOY["d_feature"], seed=seed)
    fold = patient_grouped_kfold(dataset.bags, k=4, seed=seed).folds[0]
    model = CCANModel(CCANConfig(**TOY, seed=seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "best.ckpt")
        best, history = train(model, dataset, fold, TrainConfig(epochs=3, batch_size=8, lr_max=1e-3, seed=seed),
                              checkpoint_path=path)
        with open(path, "rb") as fh:
            checkpoint = np.frombuffer(fh.read(), np.uint8)
    summary = [history.best_epoch, history.best_val_auc, history.test_auc_at_best]
    report("train", [np.array(history.train_loss), np.array(history.val_auc), np.array(summary), best,
                     *(t.data for _, t in model.parameters())])
    report("train_ckpt", [checkpoint])


def layout(model):
    """The digest input of a model's layout: each parameter's name and shape in order, then ``values``."""
    names = "".join(f"{name} {t.data.shape}\n" for name, t in model.parameters()).encode()
    return [np.frombuffer(names, np.uint8), model.values]


def report_kinds(seed, each):
    bag = make_bag(40, TOY["d_feature"], seed + 1)
    models = {kind: make_model(kind, CCANConfig(**TOY), seed) for kind in MODEL_KINDS}
    arrays, labels, checkpoints = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        for kind, model in models.items():
            with ag.no_grad():
                probs = model.forward(bag).averaged_probs
            out = model.forward(bag, rng=np.random.default_rng(seed + 2), train_mode=True)
            ag.backward(bag_loss(out, bag.label, model.config.num_classes))
            grads = [t.grad for _, t in model.parameters()]
            save_checkpoint(model, path)
            with open(path, "rb") as fh:
                checkpoints.append(np.frombuffer(fh.read(), np.uint8))
            parts = {"layout": layout(model), "eval_probs": [probs], "grads": grads,
                     "reloaded": [load_checkpoint(path).values]}
            for part, items in parts.items():
                arrays += items
                labels += [f"{kind} {part}"] * len(items)
    report("kinds", arrays)
    if each:
        for label in dict.fromkeys(labels):
            print(f"  {label:40s} {digest([a for a, at in zip(arrays, labels) if at == label])}")
    report("kinds_ckpt", checkpoints, list(models) if each else None)


def report(name, arrays, each_names=None):
    print(f"{name:14s} {len(arrays):4d} {digest(arrays)}")
    for label, a in zip(each_names or [], arrays):
        print(f"  {label:40s} {digest([a])}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", choices=("toy", "ref"), default="toy")
    ap.add_argument("--n", type=int, default=40, help="tokens in the bag")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--heads", type=int, default=1)
    ap.add_argument("--each", action="store_true", help="a digest per record and per gradient too")
    args = ap.parse_args(argv)

    kwargs = TOY if args.config == "toy" else {}
    cfg = CCANConfig(**kwargs, heads=args.heads, scale_mode="per-paper" if args.heads == 1 else "per-dim",
                     seed=args.seed)
    model = CCANModel(cfg)
    bag = make_bag(args.n, cfg.d_feature, args.seed + 1)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"blas_threads   {blas_threads()}  usable_cpus {cpus}")
    print(f"config         {args.config} n={args.n} seed={args.seed} heads={args.heads}")
    params = model.parameters()
    print(f"{'layout':14s} {len(params):4d} {digest(layout(model))}")
    report_preprocess(args.seed)
    report_train(args.seed)
    report_kinds(args.seed, args.each)

    with ag.no_grad():
        out = model.forward(bag)
    report("eval_probs", [out.averaged_probs] + [so.probs for so in out.stages])
    records = [rec.matrix for so in out.stages for rec in so.records[-2:]]
    report("eval_records", records, [f"record{i}" for i in range(len(records))] if args.each else None)
    del out, records
    report("explain_scores", [explain_bag(model, bag).scores])

    out = model.forward(bag, rng=np.random.default_rng(args.seed + 2), train_mode=True)
    print(f"train_kept     {len(out.kept_indices)}")
    loss = bag_loss(out, bag.label, cfg.num_classes)
    ag.backward(loss)
    report("train_loss", [loss.data])
    records = [rec.matrix for so in out.stages for rec in so.records[-2:]]
    report("train_records", records)
    del out, records
    report("grads", [t.grad for _, t in params], [n for n, _ in params] if args.each else None)


if __name__ == "__main__":
    main()
