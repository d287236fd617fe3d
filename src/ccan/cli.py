"""Command-line entry point: ``ccan <command> [--config FILE] [--key value ...]``.

Configuration is a flat dotted-key namespace resolved as
defaults < config file < command-line flags. Files are line-based UTF-8
``key = value`` text with ``#`` comments. Unknown keys are errors, so
typos never pass silently. A key that sets a field of ``CCANConfig`` or
``TrainConfig`` takes its type and default from that field, and one that
sets an argument of ``generate_synthetic``, ``patient_grouped_kfold``,
``bench_scaling`` or ``data_efficiency_sweep`` from that argument's
default. Every command echoes its fully resolved configuration into the
run directory (or next to its output), and that echo is itself a valid
config file that reproduces the run.

The root seed comes from ``seed``; each concern derives its own sub-seed
by hashing the root with a purpose string.
"""

from __future__ import annotations

import inspect
import os
import sys
from dataclasses import dataclass

from . import bench as bench_mod
from . import explain as explain_mod
from .data import (
    atomic_write,
    generate_synthetic,
    load_manifest,
    patient_grouped_kfold,
    read_bag,
    read_key_values,
    SplitPlan,
    write_bag,
    write_manifest,
)
from .errors import CCANError, ConfigError, UsageError
from .model import CCANConfig, CCANModel, load_checkpoint
from .netpbm import read_pnm
from .preprocess import RasterImage, read_sidecar, run_pipeline
from .training import (
    TrainConfig,
    check_fold,
    check_sweep,
    data_efficiency_sweep,
    derive_seed,
    evaluate_auc,
    train,
    write_sweep_csv,
)

# CLI key -> (config dataclass, field); the key's default is the field's, its tag the default's type name
_FIELDS = {
    "model.J": (CCANConfig, "n_stages"),
    "model.M": (CCANConfig, "n_latents"),
    "model.C": (CCANConfig, "compression"),
    "model.D_l": (CCANConfig, "d_latent"),
    "model.D_f": (CCANConfig, "d_feature"),
    "model.Z": (CCANConfig, "block_repeats"),
    "model.S": (CCANConfig, "self_layers"),
    "model.p_do": (CCANConfig, "p_dropout"),
    "model.num_classes": (CCANConfig, "num_classes"),
    "model.I": (CCANConfig, "n_frequencies"),
    "model.f_max": (CCANConfig, "f_max"),
    "train.epochs": (TrainConfig, "epochs"),
    "train.batch_size": (TrainConfig, "batch_size"),
    "train.lr_max": (TrainConfig, "lr_max"),
}


def _library_default(fn, name, index=None):
    """(type tag, default) of parameter ``name`` of ``fn``; ``index`` picks an item of a tuple default."""
    default = inspect.signature(fn).parameters[name].default
    if index is not None:
        default = default[index]
    return type(default).__name__, default


# key -> (type tag, default); tags: int, float, str, bool, floats, ints, strs
SCHEMA = {
    **{key: (type(getattr(cls, name)).__name__, getattr(cls, name)) for key, (cls, name) in _FIELDS.items()},
    "train.fractions": ("floats", (0.02, 0.05, 0.10, 0.25, 0.50, 0.75, 1.00)),
    "data.n_bags": ("int", 200),
    "data.n_min": _library_default(generate_synthetic, "n_per_bag_range", 0),
    "data.n_max": _library_default(generate_synthetic, "n_per_bag_range", 1),
    "data.witness_shift": _library_default(generate_synthetic, "witness_shift"),
    "data.witness_min": _library_default(generate_synthetic, "witness_count_range", 0),
    "data.witness_max": _library_default(generate_synthetic, "witness_count_range", 1),
    "data.grid_rows": _library_default(generate_synthetic, "grid", 0),
    "data.grid_cols": _library_default(generate_synthetic, "grid", 1),
    "data.k": ("int", 4),
    "data.val_fraction": _library_default(patient_grouped_kfold, "val_fraction"),
    "bench.ns": ("ints", (250, 500, 1000, 2000, 4000)),
    "bench.repeats": _library_default(bench_mod.bench_scaling, "repeats"),
    "bench.baseline": _library_default(bench_mod.bench_scaling, "include_baseline"),
    "sweep.models": ("strs", _library_default(data_efficiency_sweep, "models")[1]),
    "paths.image": ("str", ""),
    "paths.meta": ("str", ""),
    "paths.data": ("str", ""),
    "paths.plan": ("str", ""),
    "paths.run_dir": ("str", ""),
    "paths.out": ("str", ""),
    "paths.checkpoint": ("str", ""),
    "paths.bag": ("str", ""),
    "seed": ("int", 0),
    "fold": ("int", 0),
    "subset": ("str", "test"),
    "jobs": _library_default(data_efficiency_sweep, "jobs"),
    "top_k": ("int", 5),
}


@dataclass
class RunConfig:
    """Fully resolved flat key/value view of one command invocation."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def _build(self, cls, **extra):
        """A validated ``cls`` from its CLI keys, with ``extra`` for the fields no key of its own sets."""
        own = {name: self.values[key] for key, (owner, name) in _FIELDS.items() if owner is cls}
        return cls(**own, **extra).validate()

    def model_config(self, seed=None):
        return self._build(CCANConfig, seed=self["seed"] if seed is None else seed)

    def train_config(self, seed=None):
        return self._build(TrainConfig, seed=self["seed"] if seed is None else seed)

    def echo(self, path):
        with atomic_write(path, text=True) as fh:
            for key in sorted(self.values):
                fh.write(f"{key} = {_format_value(*SCHEMA[key], self.values[key])}\n")


def _format_value(tag, _default, value):
    if tag in ("floats", "ints", "strs"):
        return ",".join(repr(v) if tag == "floats" else str(v) for v in value)
    if tag == "bool":
        return "true" if value else "false"
    if tag == "float":
        return repr(float(value))
    return str(value)


def _parse_value(key, tag, raw):
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if tag == "floats":
            return tuple(float(p) for p in raw.split(",") if p.strip())
        if tag == "ints":
            return tuple(int(p) for p in raw.split(",") if p.strip())
        if tag == "strs":
            return tuple(p.strip() for p in raw.split(",") if p.strip())
        return raw
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {tag}") from None


def parse_config(file_path=None, flag_overrides=None):
    """Resolve defaults < config file < flags."""
    values = {key: default for key, (_, default) in SCHEMA.items()}
    layers = []
    if file_path:
        layers.append(read_key_values(file_path))
    if flag_overrides:
        layers.append(dict(flag_overrides))
    for layer in layers:
        for key, raw in layer.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown configuration key {key!r}")
            values[key] = _parse_value(key, SCHEMA[key][0], raw)
    return RunConfig(values=values)


def _parse_argv(argv):
    if not argv:
        raise UsageError(f"usage: ccan <command> [--config FILE] [--key value ...]; commands: {', '.join(COMMANDS)}")
    command = argv[0]
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}; commands: {', '.join(COMMANDS)}")
    config_file = None
    overrides = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--"):
            raise UsageError(f"expected --key value, got {arg!r}")
        if i + 1 >= len(argv):
            raise UsageError(f"flag {arg!r} is missing a value")
        key, value = arg[2:], argv[i + 1]
        if key == "config":
            config_file = value
        else:
            overrides.append((key, value))
        i += 2
    return command, config_file, overrides


def _require(cfg, key, command):
    value = cfg[key]
    if value in ("", None):
        raise UsageError(f"command {command!r} requires --{key}")
    return value


def _load_dataset(cfg, command):
    data = _require(cfg, "paths.data", command)
    manifest = data if data.endswith(".csv") else os.path.join(data, "manifest.csv")
    return load_manifest(manifest)


def _load_plan(cfg, command):
    return SplitPlan.read_csv(_require(cfg, "paths.plan", command))


def _fold_index(cfg, plan):
    fold_idx = cfg["fold"]
    if not 0 <= fold_idx < plan.k:
        raise UsageError(f"fold {fold_idx} outside 0..{plan.k - 1}")
    return fold_idx


# ---------------------------------------------------------------------------
# commands


def _cmd_preprocess(cfg):
    image_path = _require(cfg, "paths.image", "preprocess")
    meta = read_sidecar(_require(cfg, "paths.meta", "preprocess"))
    out = _require(cfg, "paths.out", "preprocess")
    pixels, _ = read_pnm(image_path)
    image = RasterImage(pixels=pixels, microns_per_pixel=meta["microns_per_pixel"])
    bag, qc = run_pipeline(
        image,
        out,
        label=meta["label"],
        bag_id=meta["bag_id"],
        patient_id=meta["patient_id"],
        seed=cfg["seed"],
        d_feature=cfg["model.D_f"],
    )
    qc.write_csv(out + ".qc.csv")
    cfg.echo(out + ".config.txt")
    print(f"wrote {out}: N={bag.n_tokens} (total {qc.total}, white {qc.white_rejected}, blur {qc.blur_rejected})")
    return 0


def _cmd_synth(cfg):
    out_dir = _require(cfg, "paths.out", "synth")
    dataset = generate_synthetic(
        n_bags=cfg["data.n_bags"],
        n_per_bag_range=(cfg["data.n_min"], cfg["data.n_max"]),
        d_feature=cfg["model.D_f"],
        witness_shift=cfg["data.witness_shift"],
        witness_count_range=(cfg["data.witness_min"], cfg["data.witness_max"]),
        grid=(cfg["data.grid_rows"], cfg["data.grid_cols"]),
        n_classes=cfg["model.num_classes"],
        seed=derive_seed(cfg["seed"], "synth"),
    )
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for bag in dataset.bags:
        write_bag(bag, os.path.join(out_dir, f"{bag.bag_id}.ccfb"))
        paths[bag.bag_id] = f"{bag.bag_id}.ccfb"  # relative: keeps the dir relocatable
    write_manifest(dataset, paths, os.path.join(out_dir, "manifest.csv"))
    with atomic_write(os.path.join(out_dir, "witnesses.csv"), text=True) as fh:
        fh.write("bag_id,token_index\n")
        for bag in dataset.bags:
            for idx in dataset.witness_indices[bag.bag_id]:
                fh.write(f"{bag.bag_id},{idx}\n")
    cfg.echo(os.path.join(out_dir, "config.txt"))
    print(f"wrote {len(dataset.bags)} bags to {out_dir}")
    return 0


def _cmd_split(cfg):
    dataset = _load_dataset(cfg, "split")
    out = _require(cfg, "paths.out", "split")
    plan = patient_grouped_kfold(
        dataset.bags,
        k=cfg["data.k"],
        val_fraction=cfg["data.val_fraction"],
        seed=derive_seed(cfg["seed"], "split"),
    )
    plan.write_csv(out)
    cfg.echo(out + ".config.txt")
    print(f"wrote {plan.k}-fold plan to {out}")
    return 0


def _cmd_train(cfg):
    dataset = _load_dataset(cfg, "train")
    plan = _load_plan(cfg, "train")
    fold_idx = _fold_index(cfg, plan)
    run_dir = _require(cfg, "paths.run_dir", "train")
    model_cfg = cfg.model_config(seed=derive_seed(cfg["seed"], f"model-fold{fold_idx}"))
    train_cfg = cfg.train_config(seed=derive_seed(cfg["seed"], f"train-fold{fold_idx}"))
    check_fold(dataset, plan.folds[fold_idx], model_cfg.num_classes)
    model = CCANModel(model_cfg)
    os.makedirs(run_dir, exist_ok=True)  # a rejected config or fold, or a model too big to allocate, leaves none
    cfg.echo(os.path.join(run_dir, "config.txt"))
    checkpoint = os.path.join(run_dir, "best.ckpt")
    _, history = train(
        model, dataset, plan.folds[fold_idx], train_cfg,
        checkpoint_path=checkpoint, log=lambda msg: print(msg, flush=True),
    )
    history.write_csv(os.path.join(run_dir, "history.csv"))
    print(
        f"best epoch {history.best_epoch}: val_auc={history.best_val_auc:.4f} "
        f"test_auc={history.test_auc_at_best:.4f}"
    )
    return 0


def _cmd_eval(cfg):
    subset = cfg["subset"]
    if subset not in ("train", "val", "test"):  # before the checkpoint is read and every bag indexed
        raise UsageError(f"subset must be train/val/test, got {subset!r}")
    model = load_checkpoint(_require(cfg, "paths.checkpoint", "eval"))
    dataset = _load_dataset(cfg, "eval")
    plan = _load_plan(cfg, "eval")
    fold = plan.folds[_fold_index(cfg, plan)]
    ids = {"train": fold.train_ids, "val": fold.val_ids, "test": fold.test_ids}[subset]
    auc = evaluate_auc(model, [dataset.entry(i) for i in ids])
    print(f"{subset} auc: {auc:.6f}")
    return 0


def _cmd_sweep(cfg):
    dataset = _load_dataset(cfg, "sweep")
    plan = _load_plan(cfg, "sweep")
    run_dir = _require(cfg, "paths.run_dir", "sweep")
    fractions, models = list(cfg["train.fractions"]), tuple(cfg["sweep.models"])
    train_cfg, model_cfg = cfg.train_config(), cfg.model_config()
    check_sweep(fractions, models, cfg["jobs"])  # a rejected sweep leaves no run directory
    os.makedirs(run_dir, exist_ok=True)
    cfg.echo(os.path.join(run_dir, "config.txt"))
    rows = data_efficiency_sweep(
        dataset,
        plan,
        fractions,
        train_cfg,
        model_cfg,
        models=models,
        jobs=cfg["jobs"],
        log=lambda msg: print(msg, flush=True),
    )
    out = os.path.join(run_dir, "sweep.csv")
    write_sweep_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_explain(cfg):
    if cfg["top_k"] < 0:  # before the checkpoint is read and the bag run
        raise UsageError(f"top_k must be >= 0, got {cfg['top_k']}")
    model = load_checkpoint(_require(cfg, "paths.checkpoint", "explain"))
    bag = read_bag(_require(cfg, "paths.bag", "explain"))
    out = _require(cfg, "paths.out", "explain")
    attention_map = explain_mod.explain_bag(model, bag)
    k = min(cfg["top_k"], bag.n_tokens)
    lowest, highest = explain_mod.top_k_patches(attention_map, k)
    csv_path, pgm_path = explain_mod.export_heatmap(attention_map, out)
    cfg.echo(out + ".config.txt")
    print(f"wrote {csv_path} and {pgm_path}")
    print(f"lowest-{k} tokens: {lowest}")
    print(f"highest-{k} tokens: {highest}")
    return 0


def _cmd_bench(cfg):
    report = bench_mod.bench_scaling(
        cfg.model_config(),
        list(cfg["bench.ns"]),
        repeats=cfg["bench.repeats"],
        seed=derive_seed(cfg["seed"], "bench"),
        include_baseline=cfg["bench.baseline"],
        log=lambda msg: print(msg, flush=True),
    )
    out = cfg["paths.out"]
    if out:
        report.write_csv(out)
        cfg.echo(out + ".config.txt")
    print(report.summary())
    return 0


def _cmd_embed(cfg):
    model = load_checkpoint(_require(cfg, "paths.checkpoint", "embed"))
    dataset = _load_dataset(cfg, "embed")
    out = _require(cfg, "paths.out", "embed")
    explain_mod.export_class_embeddings(model, dataset.bags, out)
    cfg.echo(out + ".config.txt")
    print(f"wrote embeddings for {len(dataset.bags)} bags to {out}")
    return 0


_DISPATCH = {
    "preprocess": _cmd_preprocess,
    "synth": _cmd_synth,
    "split": _cmd_split,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "explain": _cmd_explain,
    "bench": _cmd_bench,
    "embed": _cmd_embed,
}
COMMANDS = tuple(_DISPATCH)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command, config_file, overrides = _parse_argv(argv)
        run_config = parse_config(config_file, overrides)
        return _DISPATCH[command](run_config)
    except (CCANError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
