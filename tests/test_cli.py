import csv
import hashlib
import inspect
import json
import os
import re
import resource
import struct
import time
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from ccan.bench import bench_scaling
from ccan import cli
from ccan.cli import _FIELDS, SCHEMA, main, parse_config
from ccan.data import generate_synthetic, patient_grouped_kfold
from ccan.errors import ConfigError, UsageError
from ccan.model import (
    CHECKPOINT_VERSION,
    CCANConfig,
    SelfAttentionConfig,
    SelfAttentionModel,
    make_model,
    save_checkpoint,
)
from ccan.training import TrainConfig, data_efficiency_sweep


class TestParseConfig:
    def test_defaults_match_reference_table(self, tmp_path):
        empty = tmp_path / "empty.cfg"
        empty.write_text("# nothing here\n")
        cfg = parse_config(str(empty), [])
        assert cfg["model.J"] == 6
        assert cfg["model.M"] == 512
        assert cfg["model.C"] == 2
        assert cfg["model.D_l"] == 512
        assert cfg["model.D_f"] == 2048
        assert cfg["model.p_do"] == 0.9
        assert cfg["model.f_max"] == 10.0
        assert cfg["model.I"] == 6
        assert cfg["model.S"] == 2
        assert cfg["train.lr_max"] == 5e-6
        assert cfg["train.batch_size"] == 30
        assert cfg["train.epochs"] == 100
        assert cfg["train.fractions"] == (0.02, 0.05, 0.10, 0.25, 0.50, 0.75, 1.00)
        assert cfg.model_config() == CCANConfig()
        assert cfg.train_config() == TrainConfig()
        assert cfg["seed"] == CCANConfig().seed == TrainConfig().seed

    def test_default_echo_is_pinned(self, tmp_path):
        echo = tmp_path / "echo.cfg"
        parse_config(None, []).echo(str(echo))
        digest = hashlib.sha256(echo.read_bytes()).hexdigest()
        assert digest == "a9836ee90c3c4ae4ee93dcf5089e2547b0820722d3c69d4b9e1c7a1894d2c1a6"

    def test_data_and_bench_defaults_are_the_library_defaults(self):
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        sizes = default(generate_synthetic, "n_per_bag_range")
        witnesses = default(generate_synthetic, "witness_count_range")
        grid = default(generate_synthetic, "grid")
        expected = {
            "data.n_min": sizes[0], "data.n_max": sizes[1],
            "data.witness_shift": default(generate_synthetic, "witness_shift"),
            "data.witness_min": witnesses[0], "data.witness_max": witnesses[1],
            "data.grid_rows": grid[0], "data.grid_cols": grid[1],
            "data.val_fraction": default(patient_grouped_kfold, "val_fraction"),
            "bench.repeats": default(bench_scaling, "repeats"),
            "bench.baseline": default(bench_scaling, "include_baseline"),
        }
        for key, value in expected.items():
            assert SCHEMA[key] == (type(value).__name__, value), key

    def test_sweep_defaults_are_the_library_defaults(self):
        params = inspect.signature(data_efficiency_sweep).parameters
        assert SCHEMA["sweep.models"] == ("strs", params["models"].default)
        assert SCHEMA["jobs"] == ("int", params["jobs"].default)

    def test_every_config_field_is_set_by_a_key(self):
        # a field no key sets cannot change any run; the rest are RunConfig._build's extras
        extras = {CCANConfig: {"seed"}, TrainConfig: {"seed"}}
        for cls, extra in extras.items():
            keyed = {name for owner, name in _FIELDS.values() if owner is cls}
            assert keyed.isdisjoint(extra) and keyed | extra == {f.name for f in fields(cls)}, cls.__name__
        cfg = parse_config(None, [("seed", "7")])
        assert cfg.model_config().seed == cfg.train_config().seed == 7

    def test_flag_overrides_file(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("model.J = 4\nmodel.M = 64\n")
        cfg = parse_config(str(f), [("model.J", "2")])
        assert cfg["model.J"] == 2
        assert cfg["model.M"] == 64

    def test_type_error_cites_key(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("model.M = abc\n")
        with pytest.raises(ConfigError, match="model.M"):
            parse_config(str(f), [])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="model.Q"):
            parse_config(None, [("model.Q", "1")])

    def test_echo_round_trips(self, tmp_path):
        cfg = parse_config(None, [("model.J", "3"), ("train.lr_max", "0.001"),
                                  ("sweep.models", "ccan,mean-pool")])
        echo = tmp_path / "echo.cfg"
        cfg.echo(str(echo))
        again = parse_config(str(echo), [])
        assert again.values == cfg.values

    def test_model_config_builder(self):
        cfg = parse_config(None, [("model.J", "2"), ("model.M", "8"), ("model.D_l", "16"),
                                  ("model.D_f", "12"), ("model.I", "2")])
        mc = cfg.model_config()
        assert mc.n_stages == 2 and mc.n_latents == 8 and mc.d_encoded == 12 + 8


class TestArgv:
    @pytest.mark.parametrize("source", ["--model.scale_mode per-dim", "--model.append_raw_coords true",
                                        "train.lr_min = 1e-5", "--model.heads 2", "model.heads = 2",
                                        "--train.beta1 0.8", "train.beta1 = 0.8", "--train.beta2 0.99",
                                        "train.beta2 = 0.99", "--train.eps 1e-6", "train.eps = 1e-6",
                                        "--train.weight_decay 0", "train.weight_decay = 0",
                                        "--preprocess.patch_microns 128", "preprocess.patch_microns = 128",
                                        "--preprocess.white_threshold 200", "preprocess.white_threshold = 200",
                                        "--preprocess.blur_fraction 0.05", "preprocess.blur_fraction = 0.05",
                                        "--preprocess.canny_sigma 1.0", "preprocess.canny_sigma = 1.0",
                                        "--preprocess.canny_low 40", "preprocess.canny_low = 40",
                                        "--preprocess.canny_high 90", "preprocess.canny_high = 90"])
    def test_removed_key_is_one_error_line(self, tmp_path, capsys, source):
        # attention has one head, whose logit scale is sqrt(#query rows), and AdamW's betas, epsilon and decay
        # are constants, as are preprocessing's patch size, cutoffs and Canny settings; raw coordinates and a
        # nonzero final rate had no caller
        if source.startswith("--"):
            args = source.split()
        else:
            (tmp_path / "run.cfg").write_text(source + "\n")
            args = ["--config", str(tmp_path / "run.cfg")]
        assert main(["split", *args]) == 1
        key = source.lstrip("-").split()[0]
        assert capsys.readouterr().err == f"error: unknown configuration key {key!r}\n"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "commands:" in capsys.readouterr().err

    def test_no_args(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_value(self, capsys):
        assert main(["train", "--model.J"]) == 1

    def test_missing_required_path(self, capsys):
        assert main(["explain"]) == 1
        assert "paths.checkpoint" in capsys.readouterr().err


def unread(*args):
    raise AssertionError("a file was read before the flags were checked")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """synth -> split -> train once; shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    plan = str(root / "plan.csv")
    run_dir = str(root / "run")
    model_flags = [
        "--model.J", "2", "--model.M", "8", "--model.D_l", "16", "--model.D_f", "24",
        "--model.S", "1", "--model.I", "2", "--model.p_do", "0.3",
    ]
    assert main(["synth", "--paths.out", data, "--data.n_bags", "24", "--model.D_f", "24",
                 "--data.n_min", "8", "--data.n_max", "16", "--data.grid_rows", "6",
                 "--data.grid_cols", "6", "--data.witness_min", "1", "--data.witness_max", "3",
                 "--seed", "5"]) == 0
    assert main(["split", "--paths.data", data, "--paths.out", plan, "--data.k", "3",
                 "--seed", "5"]) == 0
    assert main(["train", "--paths.data", data, "--paths.plan", plan, "--fold", "0",
                 "--paths.run_dir", run_dir, *model_flags,
                 "--train.epochs", "2", "--train.batch_size", "6", "--train.lr_max", "1e-3",
                 "--seed", "5"]) == 0
    return {"data": data, "plan": plan, "run_dir": run_dir, "model_flags": model_flags}


class TestCommands:
    def test_train_outputs_exist(self, tiny_run):
        assert os.path.exists(os.path.join(tiny_run["run_dir"], "best.ckpt"))
        assert os.path.exists(os.path.join(tiny_run["run_dir"], "history.csv"))
        assert os.path.exists(os.path.join(tiny_run["run_dir"], "config.txt"))

    def test_eval(self, tiny_run, capsys):
        rc = main(["eval", "--paths.checkpoint", os.path.join(tiny_run["run_dir"], "best.ckpt"),
                   "--paths.data", tiny_run["data"], "--paths.plan", tiny_run["plan"],
                   "--fold", "0", "--subset", "val"])
        assert rc == 0
        assert "val auc:" in capsys.readouterr().out

    @pytest.mark.parametrize("fold", ["-1", "3"])
    def test_eval_rejects_fold_outside_plan(self, tiny_run, capsys, fold):
        rc = main(["eval", "--paths.checkpoint", os.path.join(tiny_run["run_dir"], "best.ckpt"),
                   "--paths.data", tiny_run["data"], "--paths.plan", tiny_run["plan"],
                   "--fold", fold, "--subset", "val"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: fold {fold} outside 0..2\n"
        assert "auc" not in captured.out

    def test_missing_checkpoint_is_one_error_line(self, tiny_run, tmp_path, capsys):
        missing = str(tmp_path / "absent.ckpt")
        rc = main(["eval", "--paths.checkpoint", missing, "--paths.data", tiny_run["data"],
                   "--paths.plan", tiny_run["plan"]])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and missing in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_plan_is_one_error_line(self, tiny_run, tmp_path, capsys, command):
        plan = tmp_path / "plan.csv"
        lines = open(tiny_run["plan"]).read().splitlines()
        lines[2] = lines[2].replace(",train,", ",tset,").replace(",val,", ",tset,").replace(",test,", ",tset,")
        plan.write_text("\n".join(lines) + "\n")
        args = ["--paths.data", tiny_run["data"], "--paths.plan", str(plan), "--fold", "0"]
        if command == "train":
            args += ["--paths.run_dir", str(tmp_path / "run"), *tiny_run["model_flags"], "--train.epochs", "1"]
        else:
            args += ["--paths.checkpoint", os.path.join(tiny_run["run_dir"], "best.ckpt")]
        rc = main([command, *args])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {plan}:3: unknown subset 'tset'; expected train, val or test\n"

    def test_nan_bag_is_one_error_line(self, tiny_run, tmp_path, capsys):
        src = os.path.join(tiny_run["data"], "bag0000.ccfb")
        blob = bytearray(open(src, "rb").read())
        blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # last token, last feature
        bag_path = tmp_path / "nan.ccfb"
        bag_path.write_bytes(bytes(blob))
        rc = main(["explain", "--paths.checkpoint", os.path.join(tiny_run["run_dir"], "best.ckpt"),
                   "--paths.bag", str(bag_path), "--paths.out", str(tmp_path / "heat")])
        err = capsys.readouterr().err
        assert rc == 1
        n_tokens = int.from_bytes(blob[6:10], "little")
        assert err == f"error: bag 'bag0000': token row {n_tokens - 1} has a NaN or infinite value\n"

    @pytest.mark.parametrize("seed", ["0", "1" + "0" * 5000])
    def test_config_its_file_cannot_back_is_one_error_line(self, tiny_run, tmp_path, capsys, seed):
        # a TOY-sized config but for its latent width, and no values after it
        config = asdict(CCANConfig(n_stages=2, n_latents=8, d_latent=2**22, d_feature=24, self_layers=1,
                                   n_frequencies=2))
        payload = json.dumps({"model_kind": "ccan", "config": config, "layout": []})
        payload = payload.replace('"seed": 0', f'"seed": {seed}').encode()
        ckpt = tmp_path / "huge.ckpt"
        ckpt.write_bytes(b"CCAN" + struct.pack("<HI", CHECKPOINT_VERSION, len(payload)) + payload)
        rc = main(["eval", "--paths.checkpoint", str(ckpt), "--paths.data", tiny_run["data"],
                   "--paths.plan", tiny_run["plan"], "--fold", "0", "--subset", "val"])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: checkpoint config ") and err.count("\n") == 1
        assert err.endswith(f"(at byte offset {10 + len(payload) if seed == '0' else 10})\n")

    def test_bag_listed_twice_in_a_plan_is_one_error_line(self, tiny_run, tmp_path, capsys):
        # a training bag listed for testing too would be trained on and then scored
        plan = tmp_path / "plan.csv"
        lines = open(tiny_run["plan"]).read().splitlines()
        train_row = next(line for line in lines if line.startswith("0,train,"))
        plan.write_text("\n".join(lines + [train_row.replace(",train,", ",test,")]) + "\n")
        rc = main(["train", "--paths.data", tiny_run["data"], "--paths.plan", str(plan), "--fold", "0",
                   "--paths.run_dir", str(tmp_path / "run"), *tiny_run["model_flags"], "--train.epochs", "1"])
        bag_id = train_row.split(",")[2]
        assert rc == 1
        assert capsys.readouterr().err == f"error: {plan}:{len(lines) + 1}: bag {bag_id!r} is listed twice in fold 0\n"

    def test_bad_baseline_width_is_one_error_line(self, tiny_run, tmp_path, capsys):
        cfg = SelfAttentionConfig(d_feature=24, d_latent=4)
        model = SelfAttentionModel(cfg)
        model.config = replace(cfg, d_latent=0)
        ckpt = tmp_path / "width0.ckpt"
        save_checkpoint(model, ckpt)
        rc = main(["eval", "--paths.checkpoint", str(ckpt), "--paths.data", tiny_run["data"],
                   "--paths.plan", tiny_run["plan"], "--fold", "0", "--subset", "val"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: d_latent must be >= 1, got 0\n"
        assert "auc" not in captured.out

    @pytest.mark.parametrize("kind", ["mean-pool", "full-self-attention"])
    def test_explain_on_a_baseline_is_one_error_line(self, tiny_run, tmp_path, capsys, kind):
        ckpt = tmp_path / "baseline.ckpt"
        save_checkpoint(make_model(kind, CCANConfig(d_feature=24, d_latent=4), seed=0), ckpt)
        rc = main(["explain", "--paths.checkpoint", str(ckpt),
                   "--paths.bag", os.path.join(tiny_run["data"], "bag0000.ccfb"),
                   "--paths.out", str(tmp_path / "heat")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error: rollout reads a CCAN stage's final cross (M x N) and self (M x M) "
                                "attention records; this stage has []\n")
        assert not os.path.exists(tmp_path / "heat.csv")

    def test_non_utf8_parameter_name_is_one_error_line(self, tiny_run, tmp_path, capsys):
        blob = bytearray(open(os.path.join(tiny_run["run_dir"], "best.ckpt"), "rb").read())
        at = blob.index(b'"input_proj.w"') + 1  # first byte of the first name in the layout
        blob[at] = 0xFF
        ckpt = tmp_path / "flipped.ckpt"
        ckpt.write_bytes(bytes(blob))
        rc = main(["explain", "--paths.checkpoint", str(ckpt),
                   "--paths.bag", os.path.join(tiny_run["data"], "bag0000.ccfb"),
                   "--paths.out", str(tmp_path / "heat")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: checkpoint config is not UTF-8 (at byte offset {at})\n"

    def test_version_2_checkpoint_is_one_error_line(self, tiny_run, tmp_path, capsys):
        blob = open(os.path.join(tiny_run["run_dir"], "best.ckpt"), "rb").read()
        ckpt = tmp_path / "v2.ckpt"
        ckpt.write_bytes(blob[:4] + struct.pack("<H", 2) + blob[6:])
        rc = main(["eval", "--paths.checkpoint", str(ckpt), "--paths.data", tiny_run["data"],
                   "--paths.plan", tiny_run["plan"], "--fold", "0", "--subset", "val"])
        assert rc == 1
        assert capsys.readouterr().err == "error: unsupported checkpoint version 2 (at byte offset 4)\n"

    def test_manifest_without_path_is_one_error_line(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("bag_id,patient_id,label\nb0,p0,1\n")
        rc = main(["split", "--paths.data", str(manifest), "--paths.out", str(tmp_path / "plan.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {manifest}:1: manifest has no column path\n"

    def test_manifest_label_that_disagrees_with_its_file_is_one_error_line(self, tiny_run, tmp_path, capsys):
        # the copied manifest keeps the bag paths resolvable by making them absolute
        with open(os.path.join(tiny_run["data"], "manifest.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[3] = os.path.join(tiny_run["data"], row[3])
        rows[2][2] = str(1 - int(rows[2][2]))
        manifest = tmp_path / "manifest.csv"
        with open(manifest, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        rc = main(["split", "--paths.data", str(manifest), "--paths.out", str(tmp_path / "plan.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == (f"error: {manifest}:3: column label is {rows[2][2]!r}, "
                       f"but {rows[2][3]} has {1 - int(rows[2][2])}\n")
        assert not os.path.exists(tmp_path / "plan.csv")

    @pytest.mark.parametrize("reader", ["config", "sidecar", "manifest", "plan"])
    def test_non_utf8_text_is_one_error_line(self, tiny_run, tmp_path, capsys, reader):
        bad = tmp_path / (f"{reader}.csv" if reader in ("manifest", "plan") else f"{reader}.txt")
        if reader == "config":
            bad.write_bytes(b"seed = 1\nsubset = t\xffst\n")
            args = ["split", "--config", str(bad)]
        elif reader == "sidecar":
            bad.write_bytes(b"microns_per_pixel = 1.0\nbag_id = s\xff\nlabel = 1\npatient_id = p0\n")
            args = ["preprocess", "--paths.image", str(tmp_path / "slide.ppm"), "--paths.meta", str(bad),
                    "--paths.out", str(tmp_path / "slide.ccfb")]
        elif reader == "manifest":
            with open(os.path.join(tiny_run["data"], "manifest.csv"), "rb") as fh:
                bad.write_bytes(fh.read().replace(b"bag0001", b"bag\xff001"))
            args = ["split", "--paths.data", str(bad), "--paths.out", str(tmp_path / "plan.csv")]
        else:
            with open(tiny_run["plan"], "rb") as fh:
                bad.write_bytes(fh.read().replace(b"bag0001", b"bag\xff001"))
            args = ["eval", "--paths.checkpoint", os.path.join(tiny_run["run_dir"], "best.ckpt"),
                    "--paths.data", tiny_run["data"], "--paths.plan", str(bad), "--fold", "0"]
        rc = main(args)
        where = f"{bad}:2: line" if reader in ("config", "sidecar") else f"{bad}: text"
        assert rc == 1
        assert capsys.readouterr().err == f"error: {where} is not UTF-8\n"

    @pytest.mark.parametrize("flags, message", [
        (["--data.k", "0"], "k must be at least 2 folds, got 0"),
        (["--data.k", "1"], "k must be at least 2 folds, got 1"),
        (["--data.val_fraction", "1.5"], "val_fraction must be in (0, 1), got 1.5"),
    ], ids=["k0", "k1", "val_fraction"])
    def test_split_that_cannot_train_is_one_error_line(self, tiny_run, tmp_path, capsys, flags, message):
        out = tmp_path / "plan.csv"
        rc = main(["split", "--paths.data", tiny_run["data"], "--paths.out", str(out), *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @staticmethod
    def _plan_without(tiny_run, tmp_path, subset):
        """The shared plan with every row of one subset of fold 0 removed."""
        plan = tmp_path / "plan.csv"
        lines = open(tiny_run["plan"]).read().splitlines()
        plan.write_text("".join(line + "\n" for line in lines if not line.startswith(f"0,{subset},")))
        return str(plan)

    @pytest.mark.parametrize("subset, message", [
        ("train", "the fold has no training bags"),
        ("val", "the fold has no validation bags"),
    ], ids=["train", "val"])
    def test_train_on_a_fold_missing_a_subset_is_one_error_line(self, tiny_run, tmp_path, capsys, subset, message):
        run_dir = tmp_path / "run"
        rc = main(["train", "--paths.data", tiny_run["data"], "--fold", "0",
                   "--paths.plan", self._plan_without(tiny_run, tmp_path, subset),
                   "--paths.run_dir", str(run_dir), *tiny_run["model_flags"], "--train.epochs", "1"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not run_dir.exists()  # the fold is checked before the run directory is made

    @pytest.mark.parametrize("flag, value, message", [
        ("--model.D_l", "0", "error: d_latent must be >= 1, got 0\n"),
        ("--train.epochs", "0", "error: epochs and batch_size must be >= 1\n"),
        ("--train.lr_max", "nan", "error: lr_max must be finite and >= 0, got nan\n"),
    ], ids=["d_latent", "epochs", "lr_max"])
    def test_rejected_train_config_is_one_error_line_and_no_run_dir(self, tiny_run, tmp_path, capsys,
                                                                    flag, value, message):
        run_dir = tmp_path / "run"
        rc = main(["train", "--paths.data", tiny_run["data"], "--paths.plan", tiny_run["plan"], "--fold", "0",
                   "--paths.run_dir", str(run_dir), *tiny_run["model_flags"], "--train.epochs", "1", flag, value])
        assert rc == 1
        assert capsys.readouterr().err == message
        assert not run_dir.exists()

    # 2^40 frequencies: an input projection of 16 * 2^40 * 16 bytes (256 TiB)
    HUGE_MODEL = ["--model.I", "1099511627776", "--model.J", "2", "--model.M", "8", "--model.D_l", "16",
                  "--model.D_f", "24", "--model.S", "1"]

    @pytest.mark.parametrize("command", ["bench", "train"])
    def test_model_that_cannot_be_allocated_is_one_error_line(self, tiny_run, tmp_path, capsys, command):
        run_dir = tmp_path / "run"
        paths = {"bench": ["--bench.ns", "20,40", "--bench.repeats", "5"],
                 "train": ["--paths.data", tiny_run["data"], "--paths.plan", tiny_run["plan"],
                           "--paths.run_dir", str(run_dir)]}[command]
        start = time.perf_counter()
        # capped at 64 TiB of address space, so that no kernel that overcommits can grant it and then fault it in
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (2**46 if hard == resource.RLIM_INFINITY else min(2**46, hard), hard))
        try:
            rc = main([command, *self.HUGE_MODEL, *paths])
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert rc == 1 and time.perf_counter() - start < 5.0
        err = re.fullmatch(r"error: the model's (\d+) parameter values need (\d+) bytes, more than can be allocated\n",
                           capsys.readouterr().err)
        assert err and int(err[2]) == 4 * int(err[1]) > 16 * 2**40 * 16
        assert not run_dir.exists()

    def test_eval_of_an_unknown_subset_is_one_error_line_before_any_file_is_read(self, tiny_run, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_checkpoint", unread)
        monkeypatch.setattr(cli, "load_manifest", unread)
        rc = main(["eval", "--paths.checkpoint", os.path.join(tiny_run["run_dir"], "best.ckpt"),
                   "--paths.data", tiny_run["data"], "--paths.plan", tiny_run["plan"], "--fold", "0",
                   "--subset", "tset"])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: subset must be train/val/test, got 'tset'\n")

    def test_eval_of_an_empty_subset_is_one_error_line(self, tiny_run, tmp_path, capsys):
        rc = main(["eval", "--paths.checkpoint", os.path.join(tiny_run["run_dir"], "best.ckpt"),
                   "--paths.data", tiny_run["data"], "--paths.plan", self._plan_without(tiny_run, tmp_path, "val"),
                   "--fold", "0", "--subset", "val"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: cannot evaluate AUC on an empty bag list\n"
        assert "auc" not in captured.out

    def test_explain(self, tiny_run, tmp_path, capsys):
        bag_path = os.path.join(tiny_run["data"], "bag0000.ccfb")
        out = str(tmp_path / "heat")
        rc = main(["explain", "--paths.checkpoint", os.path.join(tiny_run["run_dir"], "best.ckpt"),
                   "--paths.bag", bag_path, "--paths.out", out, "--top_k", "3"])
        assert rc == 0
        assert os.path.exists(out + ".csv") and os.path.exists(out + ".pgm")
        assert "highest-3" in capsys.readouterr().out

    def test_explain_with_negative_top_k_is_one_error_line(self, tiny_run, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_checkpoint", unread)  # rejected before the checkpoint is read
        out = str(tmp_path / "heat")
        rc = main(["explain", "--paths.checkpoint", os.path.join(tiny_run["run_dir"], "best.ckpt"),
                   "--paths.bag", os.path.join(tiny_run["data"], "bag0000.ccfb"), "--paths.out", out,
                   "--top_k", "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: top_k must be >= 0, got -1\n"
        assert captured.out == "" and not os.path.exists(out + ".csv") and not os.path.exists(out + ".pgm")

    @pytest.mark.parametrize("side", [3_000_000_000, 2**32 - 1])  # a MemoryError, then more bytes than numpy addresses
    def test_explain_of_a_grid_too_large_to_raster_is_one_error_line(self, tiny_run, tmp_path, capsys, side):
        from ccan.data import FeatureBag, write_bag

        bag = FeatureBag(bag_id="big", patient_id="p", label=1, tokens=np.ones((1, 24), np.float32),
                         rows=np.array([side - 1]), cols=np.array([0]), rows_total=side, cols_total=side)
        write_bag(bag, tmp_path / "big.ccfb")
        out = str(tmp_path / "heat")
        rc = main(["explain", "--paths.checkpoint", os.path.join(tiny_run["run_dir"], "best.ckpt"),
                   "--paths.bag", str(tmp_path / "big.ccfb"), "--paths.out", out, "--top_k", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == (f"error: the {side} x {side} grid's heatmap needs {side * side} bytes, "
                                "more than can be allocated\n")
        assert captured.out == "" and not os.path.exists(out + ".csv") and not os.path.exists(out + ".pgm")

    def test_embed(self, tiny_run, tmp_path):
        out = str(tmp_path / "emb.csv")
        rc = main(["embed", "--paths.checkpoint", os.path.join(tiny_run["run_dir"], "best.ckpt"),
                   "--paths.data", tiny_run["data"], "--paths.out", out])
        assert rc == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 1 + 24 * 2  # header + bags * stages

    def test_sweep(self, tiny_run, tmp_path, capsys):
        run_dir = str(tmp_path / "sweep_run")
        rc = main(["sweep", "--paths.data", tiny_run["data"], "--paths.plan", tiny_run["plan"],
                   "--paths.run_dir", run_dir, *tiny_run["model_flags"],
                   "--train.epochs", "1", "--train.batch_size", "8", "--train.lr_max", "1e-3",
                   "--train.fractions", "1.0", "--sweep.models", "mean-pool", "--seed", "5"])
        assert rc == 0
        lines = open(os.path.join(run_dir, "sweep.csv")).read().strip().splitlines()
        assert lines[0] == "fold,fraction,model,best_epoch,val_auc,test_auc"
        assert len(lines) == 1 + 3  # one model x one fraction x three folds

    @pytest.mark.parametrize("flag, value, message", [
        ("--jobs", "0", "error: jobs must be >= 1, got 0\n"),
        ("--train.fractions", "1.5", "error: fractions must lie in (0, 1], got (1.5,)\n"),
        ("--sweep.models", "ccan,mean-poo1", "error: sweep models must be among ('ccan', 'mean-pool', "
                                              "'max-pool', 'full-self-attention'), got ('ccan', 'mean-poo1')\n"),
    ], ids=["jobs", "fractions", "models"])
    def test_rejected_sweep_is_one_error_line_and_no_run_dir(self, tiny_run, tmp_path, capsys, flag, value, message):
        run_dir = tmp_path / "sweep_run"
        rc = main(["sweep", "--paths.data", tiny_run["data"], "--paths.plan", tiny_run["plan"],
                   "--paths.run_dir", str(run_dir), *tiny_run["model_flags"], "--train.epochs", "1",
                   "--sweep.models", "mean-pool", flag, value])  # a repeated flag: the last one counts
        assert rc == 1
        assert capsys.readouterr().err == message
        assert not run_dir.exists()

    def test_bench(self, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        rc = main(["bench", "--model.J", "2", "--model.M", "8", "--model.D_l", "16",
                   "--model.D_f", "24", "--model.S", "1", "--model.I", "2", "--model.p_do", "0",
                   "--bench.ns", "20,40", "--bench.repeats", "5", "--paths.out", out])
        assert rc == 0
        assert os.path.exists(out)
        assert "aggregator time vs N" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["preprocess", "bench"])
    def test_negative_seed_is_one_error_line(self, tmp_path, capsys, command):
        # both start a generator from the root seed itself: preprocess for its stub projection, bench for its models
        from ccan.netpbm import write_ppm

        write_ppm(np.random.default_rng(1).integers(0, 256, (256, 256, 3)).astype(np.uint8), tmp_path / "slide.ppm")
        (tmp_path / "slide.txt").write_text("microns_per_pixel = 1.0\nlabel = 1\nbag_id = s0\npatient_id = p0\n")
        out = tmp_path / "out"
        flags = {"preprocess": ["--paths.image", str(tmp_path / "slide.ppm"), "--paths.meta", str(tmp_path / "slide.txt"),
                                "--model.D_f", "8"],
                 "bench": ["--model.J", "2", "--model.M", "8", "--model.D_l", "16", "--model.D_f", "24",
                           "--model.S", "1", "--model.I", "2", "--bench.ns", "20,40", "--bench.repeats", "5"]}[command]
        rc = main([command, *flags, "--paths.out", str(out), "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["slide.ppm", "slide.txt"]

    @pytest.mark.parametrize("ns", ["-5,10", "0,10"])
    def test_bench_token_counts_below_one_are_one_error_line(self, capsys, ns):
        rc = main(["bench", "--model.J", "2", "--model.M", "8", "--model.D_l", "16", "--model.D_f", "24",
                   "--model.S", "1", "--model.I", "2", "--bench.ns", ns, "--bench.repeats", "5"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: token counts must be >= 1, got [{ns.replace(',', ', ')}]\n"

    def test_preprocess(self, tmp_path, capsys):
        from ccan.netpbm import write_ppm

        rng = np.random.default_rng(0)
        blocks = rng.integers(30, 220, size=(65, 65, 3))
        pixels = np.repeat(np.repeat(blocks, 8, axis=0), 8, axis=1)[:512, :512].astype(np.uint8)
        img_path = str(tmp_path / "slide.ppm")
        write_ppm(pixels, img_path)
        meta_path = str(tmp_path / "slide.txt")
        with open(meta_path, "w") as fh:
            fh.write("microns_per_pixel = 1.0\nlabel = 1\nbag_id = s0\npatient_id = p0\n")
        out = str(tmp_path / "slide.ccfb")
        rc = main(["preprocess", "--paths.image", img_path, "--paths.meta", meta_path,
                   "--paths.out", out, "--model.D_f", "32", "--seed", "2"])
        assert rc == 0
        assert os.path.exists(out) and os.path.exists(out + ".qc.csv")

        from ccan.data import read_bag

        bag = read_bag(out)
        assert bag.n_tokens == 4 and bag.d_feature == 32


    @pytest.mark.parametrize("line, message", [
        ("microns_per_pixel = nan", "microns_per_pixel = nan must be positive and finite"),
        ("microns_per_pixel = abc", "microns_per_pixel = 'abc' cannot be read as float"),
        ("label = one", "label = 'one' cannot be read as int"),
    ])
    def test_bad_sidecar_is_one_error_line(self, tmp_path, capsys, line, message):
        from ccan.netpbm import write_ppm

        img_path = str(tmp_path / "slide.ppm")
        write_ppm(np.full((256, 256, 3), 100, np.uint8), img_path)
        meta = {"microns_per_pixel": "1.0", "label": "1", "bag_id": "s0", "patient_id": "p0"}
        key, value = (part.strip() for part in line.split("="))
        meta[key] = value
        meta_path = str(tmp_path / "slide.txt")
        with open(meta_path, "w") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in meta.items()))
        rc = main(["preprocess", "--paths.image", img_path, "--paths.meta", meta_path,
                   "--paths.out", str(tmp_path / "slide.ccfb")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {meta_path}: sidecar {message}\n"

    @pytest.mark.parametrize("mpp", ["1e-308", "1e-307"], ids=["sidecar", "sidecar-normal"])  # subnormal, normal
    def test_patch_side_that_overflows_is_one_error_line(self, tmp_path, capsys, mpp):
        from ccan.netpbm import write_ppm

        img_path = str(tmp_path / "slide.ppm")
        write_ppm(np.full((256, 256, 3), 100, np.uint8), img_path)
        meta_path = tmp_path / "slide.txt"
        meta_path.write_text(f"microns_per_pixel = {mpp}\nlabel = 1\nbag_id = s0\npatient_id = p0\n")
        rc = main(["preprocess", "--paths.image", img_path, "--paths.meta", str(meta_path),
                   "--paths.out", str(tmp_path / "slide.ccfb")])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: patch side inf px (256.0 microns at {float(mpp)} microns/px) "
                                           "must be finite and round to at least 1 px\n")
        assert not (tmp_path / "slide.ccfb").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("model.D_f", "-5", "d_feature must be >= 1, got -5"),
        ("model.D_f", "0", "d_feature must be >= 1, got 0"),
    ])
    def test_bad_preprocess_setting_is_one_error_line(self, tmp_path, capsys, key, value, message):
        from ccan.netpbm import write_ppm

        img_path = str(tmp_path / "slide.ppm")
        write_ppm(np.random.default_rng(1).integers(0, 256, (256, 256, 3)).astype(np.uint8), img_path)
        meta_path = str(tmp_path / "slide.txt")
        with open(meta_path, "w") as fh:
            fh.write("microns_per_pixel = 1.0\nlabel = 1\nbag_id = s0\npatient_id = p0\n")
        out = str(tmp_path / "slide.ccfb")
        rc = main(["preprocess", "--paths.image", img_path, "--paths.meta", meta_path,
                   "--paths.out", out, f"--{key}", value])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(os.path.exists(out + suffix) for suffix in ("", ".qc.csv", ".config.txt"))


def test_negative_root_seed_runs_where_only_sub_seeds_are_drawn_from(tmp_path, capsys):
    # synth, split and train derive every generator's seed from the root, so any integer root works
    data, plan = str(tmp_path / "data"), str(tmp_path / "plan.csv")
    assert main(["synth", "--paths.out", data, "--data.n_bags", "24", "--model.D_f", "8", "--data.n_min", "4",
                 "--data.n_max", "6", "--data.grid_rows", "4", "--data.grid_cols", "4", "--data.witness_min", "1",
                 "--data.witness_max", "2", "--seed", "-1"]) == 0
    assert main(["split", "--paths.data", data, "--paths.out", plan, "--data.k", "3", "--seed", "-1"]) == 0
    assert main(["train", "--paths.data", data, "--paths.plan", plan, "--fold", "0",
                 "--paths.run_dir", str(tmp_path / "run"), "--model.J", "1", "--model.M", "4", "--model.D_l", "8",
                 "--model.D_f", "8", "--model.S", "0", "--model.I", "1", "--train.epochs", "1",
                 "--train.batch_size", "8", "--seed", "-1"]) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("n_bags", ["0", "-3"])
def test_synth_without_bags_is_one_error_line(tmp_path, capsys, n_bags):
    out = tmp_path / "data"
    rc = main(["synth", "--paths.out", str(out), "--data.n_bags", n_bags])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: n_bags must be >= 1, got {n_bags}\n" and captured.out == ""
    assert not out.exists()


class TestReproducibility:
    def test_synth_byte_identical(self, tmp_path):
        args = ["--data.n_bags", "6", "--model.D_f", "8", "--data.n_min", "4",
                "--data.n_max", "6", "--data.grid_rows", "4", "--data.grid_cols", "4",
                "--data.witness_min", "1", "--data.witness_max", "2", "--seed", "11"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["synth", "--paths.out", a, *args]) == 0
        assert main(["synth", "--paths.out", b, *args]) == 0
        for name in sorted(os.listdir(a)):
            if name.endswith(".ccfb") or name.endswith(".csv"):
                with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
                    assert fa.read() == fb.read(), name
