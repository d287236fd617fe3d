import ast
import pathlib
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccan
from ccan.data import (
    FeatureBag,
    Dataset,
    generate_synthetic,
    load_manifest,
    patient_grouped_kfold,
    read_bag,
    read_key_values,
    SplitPlan,
    subsample_fraction,
    write_bag,
    write_manifest,
)
from ccan.errors import CCANError, ConfigError, DataError, FormatError
from ccan.model import CCANConfig, load_checkpoint, make_model, save_checkpoint
from ccan.netpbm import read_pnm, write_pgm, write_ppm
from ccan.training import auc_binary


def make_bag(bag_id="b0", patient_id="p0", label=1, n=4, d=3, seed=0, grid=(4, 5)):
    rng = np.random.default_rng(seed)
    cells = rng.choice(grid[0] * grid[1], size=n, replace=False)
    return FeatureBag(
        bag_id=bag_id,
        patient_id=patient_id,
        label=label,
        tokens=rng.normal(size=(n, d)).astype(np.float32),
        rows=cells // grid[1],
        cols=cells % grid[1],
        rows_total=grid[0],
        cols_total=grid[1],
    )


class TestBagValidation:
    def test_empty_rejected(self):
        with pytest.raises(DataError):
            FeatureBag("b", "p", 0, np.zeros((0, 2), dtype=np.float32), [], [], 1, 1)

    def test_duplicate_coords_rejected(self):
        with pytest.raises(DataError):
            FeatureBag("b", "p", 0, np.zeros((2, 2), dtype=np.float32), [0, 0], [0, 0], 2, 2)

    def test_out_of_grid_rejected(self):
        with pytest.raises(DataError):
            FeatureBag("b", "p", 0, np.zeros((1, 2), dtype=np.float32), [5], [0], 4, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_token_rejected_with_row(self, bad):
        tokens = np.zeros((4, 3), dtype=np.float32)
        tokens[2, 1] = bad
        with pytest.raises(DataError, match=r"bag 'b'.*token row 2\b"):
            FeatureBag("b", "p", 0, tokens, [0, 0, 1, 1], [0, 1, 0, 1], 2, 2)

    def test_first_bad_row_is_named(self):
        tokens = np.zeros((5, 2), dtype=np.float32)
        tokens[4, 0] = np.inf
        tokens[1, 1] = np.nan
        with pytest.raises(DataError, match=r"token row 1\b"):
            FeatureBag("b", "p", 0, tokens, np.arange(5), np.zeros(5), 5, 1)


class TestCCFBFormat:
    def test_round_trip_exact(self, tmp_path):
        bag = make_bag(n=7, d=5, seed=1)
        path = tmp_path / "bag.ccfb"
        write_bag(bag, path)
        loaded = read_bag(path)
        assert loaded.bag_id == bag.bag_id
        assert loaded.patient_id == bag.patient_id
        assert loaded.label == bag.label
        assert loaded.rows_total == bag.rows_total and loaded.cols_total == bag.cols_total
        np.testing.assert_array_equal(loaded.tokens, bag.tokens)
        np.testing.assert_array_equal(loaded.rows, bag.rows)
        np.testing.assert_array_equal(loaded.cols, bag.cols)

    def test_byte_count_matches_layout(self, tmp_path):
        bag = FeatureBag(
            "ab", "cde", 1, np.ones((1, 2), dtype=np.float32), [0], [0], 1, 1
        )
        path = tmp_path / "bag.ccfb"
        write_bag(bag, path)
        # 4 magic + 2 version + 4*4 extents + 1 label + (2 + 5 id bytes) + 8 coord + 8 floats
        assert path.stat().st_size == 4 + 2 + 16 + 1 + (2 + 5) + 8 + 8

    def test_truncated_file_reports_offset(self, tmp_path):
        bag = make_bag()
        path = tmp_path / "bag.ccfb"
        write_bag(bag, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(FormatError) as err:
            read_bag(path)
        assert err.value.offset is not None

    def test_nan_token_rejected_at_read(self, tmp_path):
        bag = make_bag(bag_id="slide7", n=4, d=3)
        path = tmp_path / "bag.ccfb"
        write_bag(bag, path)
        blob = bytearray(path.read_bytes())
        at = len(blob) - 4 * 4 * 3 + 4 * (2 * 3 + 1)  # token row 2, column 1
        blob[at : at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=r"bag 'slide7': token row 2 has a NaN"):
            read_bag(path)

    def test_non_utf8_bag_id_reports_offset(self, tmp_path):
        path = tmp_path / "bag.ccfb"
        write_bag(make_bag(bag_id="ab"), path)
        blob = bytearray(path.read_bytes())
        at = 4 + 2 + 16 + 1 + 1 + 1  # second byte of the bag id
        blob[at] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="bag_id is not UTF-8") as err:
            read_bag(path)
        assert err.value.offset == at

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bag.ccfb"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError) as err:
            read_bag(path)
        assert str(err.value) == "bad magic b'NOPE' (at byte offset 0)" and err.value.offset == 0

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bag.ccfb"
        write_bag(make_bag(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + b"\x09\x00" + blob[6:])
        with pytest.raises(FormatError) as err:
            read_bag(path)
        assert str(err.value) == "unsupported version 9 (at byte offset 4)" and err.value.offset == 4

    def test_truncated_tokens_report_their_start(self, tmp_path):
        bag = make_bag(n=4, d=3)
        path = tmp_path / "bag.ccfb"
        write_bag(bag, path)
        blob = path.read_bytes()
        start = len(blob) - bag.tokens.nbytes
        path.write_bytes(blob[: start + 5])
        with pytest.raises(FormatError) as err:
            read_bag(path)
        assert str(err.value) == f"truncated file while reading tokens (at byte offset {start})"

    def test_tokens_are_writable_and_own_their_memory(self, tmp_path):
        bag = make_bag(n=4, d=3)
        path = tmp_path / "bag.ccfb"
        write_bag(bag, path)
        back = read_bag(path)
        assert back.tokens.flags.writeable and back.tokens.flags.owndata
        back.tokens[0, 0] += 1.0
        np.testing.assert_array_equal(read_bag(path).tokens, bag.tokens)

    def test_trailing_garbage(self, tmp_path):
        bag = make_bag()
        path = tmp_path / "bag.ccfb"
        write_bag(bag, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_bag(path)

    @settings(max_examples=25, deadline=None)
    @given(
        bag_id=st.text(min_size=1, max_size=40).filter(lambda s: len(s.encode()) <= 255),
        patient_id=st.text(min_size=1, max_size=40).filter(lambda s: len(s.encode()) <= 255),
        label=st.integers(min_value=0, max_value=255),
    )
    def test_round_trip_ids_property(self, tmp_path_factory, bag_id, patient_id, label):
        bag = make_bag(bag_id=bag_id, patient_id=patient_id, label=label)
        path = tmp_path_factory.mktemp("ccfb") / "bag.ccfb"
        write_bag(bag, path)
        loaded = read_bag(path)
        assert loaded.bag_id == bag_id and loaded.patient_id == patient_id and loaded.label == label


def _ccfb(tmp_path):
    path = tmp_path / "bag.ccfb"
    write_bag(make_bag(n=3, d=2), path)
    return path, read_bag


def _checkpoint(dtype, kind="mean-pool"):
    # every kind at its smallest widths: v4 configs differ by kind
    tiny = CCANConfig(n_stages=1, n_latents=2, d_latent=2, d_feature=3, self_layers=0, n_frequencies=1)

    def build(tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(make_model(kind, tiny, seed=4), path)
        return path, lambda p: load_checkpoint(p, dtype=dtype)

    return build


def _pnm(write, shape):
    def build(tmp_path):
        path = tmp_path / "image.pnm"
        write(np.random.default_rng(0).integers(0, 256, shape).astype(np.uint8), path)
        return path, read_pnm

    return build


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBinaryFiles:
    """Bags, checkpoints and images go through one reader and one writer."""

    @pytest.mark.parametrize("build", [
        _ccfb, _checkpoint(np.float32), _checkpoint(np.float64), _pnm(write_ppm, (3, 4, 3)), _pnm(write_pgm, (3, 4, 1)),
        *(_checkpoint(np.float32, kind) for kind in ("max-pool", "full-self-attention", "ccan")),
    ], ids=["ccfb", "checkpoint", "checkpoint-float64", "ppm", "pgm",
            "checkpoint-max-pool", "checkpoint-full-self-attention", "checkpoint-ccan"])
    def test_every_cut_is_a_ccan_error(self, tmp_path, build):
        path, read = build(tmp_path)
        blob = path.read_bytes()
        cut = tmp_path / "cut"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(CCANError):
                read(cut)
        cut.write_bytes(blob)
        read(cut)

    def test_header_claiming_more_than_the_file_allocates_nothing(self, tmp_path):
        path = tmp_path / "huge.ccfb"
        header = b"CCFB" + struct.pack("<HIIIIB", 1, 2**32 - 1, 2**32 - 1, 1, 1, 0) + b"\x01b\x01p"
        path.write_bytes(header)
        errors = []

        def read():
            with pytest.raises(FormatError) as err:
                read_bag(path)
            errors.append(str(err.value))

        assert _traced_peak(read) < 1 << 20
        assert errors == [f"truncated file while reading coordinates (at byte offset {len(header)})"]

    def test_read_bag_holds_the_tokens_once(self, tmp_path):
        bag = make_bag(n=256, d=512, grid=(16, 16))
        path = tmp_path / "bag.ccfb"
        write_bag(bag, path)
        loaded = []
        assert _traced_peak(lambda: loaded.append(read_bag(path))) < 1.2 * bag.tokens.nbytes
        np.testing.assert_array_equal(loaded[0].tokens, bag.tokens)

    def test_write_bag_copies_no_array(self, tmp_path):
        bag = make_bag(n=256, d=512, grid=(16, 16))
        path = tmp_path / "bag.ccfb"
        assert _traced_peak(lambda: write_bag(bag, path)) < 0.2 * bag.tokens.nbytes
        np.testing.assert_array_equal(read_bag(path).tokens, bag.tokens)


def _in_place_writes(source):
    """Lines of ``open()`` calls outside ``atomic_write`` whose mode may write or append."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "atomic_write"
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
            continue
        modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
        reads = all(isinstance(m, ast.Constant) and isinstance(m.value, str) and not set(m.value) & set("wax+")
                    for m in modes)
        if id(node) not in inside and not reads:
            found.append(node.lineno)
    return found


def test_every_file_is_written_through_atomic_write():
    # a file opened for writing in place is truncated before its new bytes exist
    sources = sorted(pathlib.Path(ccan.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = {path.name: lines for path in sources if (lines := _in_place_writes(path.read_text()))}
    assert found == {}
    assert _in_place_writes('def f(p):\n    with open(p, mode="a") as fh:\n        pass\n') == [2]
    assert _in_place_writes("def f(p, m):\n    return open(p, m), open(p), open(p, 'rb')\n") == [2]


class TestSyntheticGeneration:
    def test_deterministic(self):
        a = generate_synthetic(10, (5, 10), d_feature=8, grid=(6, 6), seed=3)
        b = generate_synthetic(10, (5, 10), d_feature=8, grid=(6, 6), seed=3)
        for ba, bb in zip(a.bags, b.bags):
            np.testing.assert_array_equal(ba.tokens, bb.tokens)
            np.testing.assert_array_equal(ba.rows, bb.rows)
            assert ba.patient_id == bb.patient_id and ba.label == bb.label

    def test_witness_projection_oracle(self):
        # nearest-centroid on per-class bag-max projections separates shift-4 bags
        ds = generate_synthetic(100, (20, 50), d_feature=64, witness_shift=4.0,
                                witness_count_range=(2, 5), grid=(16, 16), seed=4)
        labels = np.array([b.label for b in ds.bags])
        scores = np.array([b.tokens[:, 1].max() - b.tokens[:, 0].max() for b in ds.bags])
        assert auc_binary(scores, labels) > 0.95

    def test_null_task_has_no_projection_signal(self):
        ds = generate_synthetic(200, (20, 50), d_feature=64, witness_shift=0.0,
                                witness_count_range=(2, 5), grid=(16, 16), seed=5)
        labels = np.array([b.label for b in ds.bags])
        scores = np.array([b.tokens[:, 1].max() - b.tokens[:, 0].max() for b in ds.bags])
        assert abs(auc_binary(scores, labels) - 0.5) < 0.1

    def test_witness_indices_recorded(self):
        ds = generate_synthetic(10, (10, 20), d_feature=8, witness_shift=6.0, grid=(6, 6),
                                witness_count_range=(2, 3), seed=6)
        for bag in ds.bags:
            wit = ds.witness_indices[bag.bag_id]
            assert 2 <= len(wit) <= 3
            # witness tokens sit far along the class direction
            assert bag.tokens[wit, bag.label].min() > 2.0

    def test_grid_too_small(self):
        with pytest.raises(ConfigError):
            generate_synthetic(5, (10, 20), d_feature=4, grid=(3, 3), seed=0)

    @pytest.mark.parametrize("n_bags", [0, -3])
    def test_no_bags_rejected(self, n_bags):
        with pytest.raises(ConfigError, match=f"n_bags must be >= 1, got {n_bags}"):
            generate_synthetic(n_bags, (5, 8), d_feature=4, grid=(4, 4), seed=0)

    def test_negative_seed_is_a_config_error(self):
        # numpy's own error for it is a ValueError, which a library caller could not tell from a bug
        with pytest.raises(ConfigError, match=r"seed must be >= 0, got -1"):
            generate_synthetic(4, (5, 8), d_feature=4, grid=(4, 4), seed=-1)

    def test_patients_own_one_to_three_bags(self):
        ds = generate_synthetic(50, (5, 8), d_feature=4, grid=(4, 4), seed=7)
        counts = {}
        for bag in ds.bags:
            counts[bag.patient_id] = counts.get(bag.patient_id, 0) + 1
        assert set(counts.values()) <= {1, 2, 3}


class TestManifest:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(6, (5, 8), d_feature=4, grid=(4, 4), seed=8)
        paths = {}
        for bag in ds.bags:
            p = tmp_path / f"{bag.bag_id}.ccfb"
            write_bag(bag, p)
            paths[bag.bag_id] = str(p)
        manifest = tmp_path / "manifest.csv"
        write_manifest(ds, paths, manifest)
        loaded = load_manifest(manifest)
        assert [b.bag_id for b in loaded.bags] == [b.bag_id for b in ds.bags]

    def test_missing_path_column(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("bag_id,patient_id,label,file\nb0,p0,1,b0.ccfb\n")
        with pytest.raises(FormatError, match=re.escape(f"{manifest}:1: manifest has no column path")):
            load_manifest(manifest)

    def test_short_row(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("bag_id,patient_id,label,path\nb0,p0\n")
        with pytest.raises(FormatError, match=re.escape(f"{manifest}:2: manifest row has no path field")):
            load_manifest(manifest)

    @staticmethod
    def written(tmp_path, n_bags=4):
        ds = generate_synthetic(n_bags, (5, 8), d_feature=4, grid=(4, 4), seed=8)
        for bag in ds.bags:
            write_bag(bag, tmp_path / f"{bag.bag_id}.ccfb")
        manifest = tmp_path / "manifest.csv"
        write_manifest(ds, {b.bag_id: f"{b.bag_id}.ccfb" for b in ds.bags}, manifest)
        return ds, manifest

    def test_loaded_dataset_is_an_index(self, tmp_path):
        ds, manifest = self.written(tmp_path)
        loaded = load_manifest(manifest)
        for bag, entry in zip(ds.bags, loaded.bags):
            assert not hasattr(entry, "tokens")
            assert (entry.bag_id, entry.patient_id, entry.label, entry.n_tokens) == (
                bag.bag_id, bag.patient_id, bag.label, bag.n_tokens)
            read = loaded.by_id(bag.bag_id)
            assert isinstance(read, FeatureBag)
            np.testing.assert_array_equal(read.tokens, bag.tokens)
            np.testing.assert_array_equal(read.cols, bag.cols)
        assert ds.by_id("bag0001") is ds.bags[1]  # an in-memory dataset returns its own bags

    @pytest.mark.parametrize("column, old, new", [
        ("bag_id", "bag0001,", "bagXXXX,"),
        ("patient_id", ",patient0001,1,", ",patient0009,1,"),
        ("label", ",patient0001,1,", ",patient0001,0,"),
    ])
    def test_column_that_disagrees_with_its_file(self, tmp_path, column, old, new):
        _, manifest = self.written(tmp_path)
        lines = manifest.read_text().splitlines(keepends=True)
        assert old in lines[2]
        lines[2] = lines[2].replace(old, new)
        manifest.write_text("".join(lines))
        with pytest.raises(FormatError, match=re.escape(f"{manifest}:3: column {column} is ")):
            load_manifest(manifest)

    def test_file_fault_is_raised_at_load(self, tmp_path):
        _, manifest = self.written(tmp_path)
        path = tmp_path / "bag0002.ccfb"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match="truncated file while reading tokens"):
            load_manifest(manifest)

    def test_header_changed_after_load(self, tmp_path):
        ds, manifest = self.written(tmp_path)
        loaded = load_manifest(manifest)
        bag = ds.bags[1]
        write_bag(FeatureBag(bag.bag_id, bag.patient_id, 1 - bag.label, bag.tokens, bag.rows, bag.cols,
                             bag.rows_total, bag.cols_total), tmp_path / "bag0001.ccfb")
        loaded.by_id("bag0000")
        with pytest.raises(FormatError, match=re.escape(f"{tmp_path / 'bag0001.ccfb'}: label is {1 - bag.label}, "
                                                        f"but was {bag.label} when the manifest was loaded")):
            loaded.by_id("bag0001")


class TestKeyValues:
    def test_comments_line_ends_and_repeats(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_bytes("# head\r\na = 1 # note\rb=x y\n\n a = 2\nname = é\n".encode("utf-8"))
        assert read_key_values(path) == {"a": "2", "b": "x y", "name": "é"}

    def test_line_without_equals_names_path_and_line(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("a = 1\n# comment\nb 2\n")
        with pytest.raises(ConfigError) as err:
            read_key_values(path)
        assert str(err.value) == f"{path}:3: expected 'key = value', got 'b 2'"


class TestPatientGroupedKFold:
    def test_one_bag_per_patient_even_split(self):
        bags = [make_bag(bag_id=f"b{i}", patient_id=f"p{i}", seed=i) for i in range(8)]
        plan = patient_grouped_kfold(bags, k=4, val_fraction=0.25, seed=0)
        for fold in plan.folds:
            assert len(fold.test_ids) == 2

    def test_patient_atomicity(self):
        rng = np.random.default_rng(9)
        bags = []
        i = 0
        for p in range(12):
            for _ in range(int(rng.integers(1, 4))):
                bags.append(make_bag(bag_id=f"b{i}", patient_id=f"p{p}", seed=i))
                i += 1
        plan = patient_grouped_kfold(bags, k=4, val_fraction=0.2, seed=1)
        patient_of = {b.bag_id: b.patient_id for b in bags}
        for fold in plan.folds:
            sets = {"train": fold.train_ids, "val": fold.val_ids, "test": fold.test_ids}
            seen = {}
            for name, ids in sets.items():
                for bid in ids:
                    patient = patient_of[bid]
                    assert seen.setdefault(patient, name) == name, f"{patient} straddles sets"
            all_ids = fold.train_ids + fold.val_ids + fold.test_ids
            assert sorted(all_ids) == sorted(b.bag_id for b in bags)

    def test_test_sets_partition_dataset(self):
        bags = [make_bag(bag_id=f"b{i}", patient_id=f"p{i // 2}", seed=i) for i in range(20)]
        plan = patient_grouped_kfold(bags, k=4, val_fraction=0.2, seed=2)
        test_union = [bid for fold in plan.folds for bid in fold.test_ids]
        assert sorted(test_union) == sorted(b.bag_id for b in bags)

    def test_proportions_near_60_15_25(self):
        bags = [make_bag(bag_id=f"b{i}", patient_id=f"p{i}", seed=i) for i in range(100)]
        plan = patient_grouped_kfold(bags, k=4, val_fraction=0.2, seed=3)
        fold = plan.folds[0]
        assert len(fold.test_ids) == 25
        assert abs(len(fold.val_ids) - 15) <= 2
        assert abs(len(fold.train_ids) - 60) <= 2

    def test_too_few_patients(self):
        bags = [make_bag(bag_id=f"b{i}", patient_id="p0", seed=i) for i in range(5)]
        with pytest.raises(ConfigError):
            patient_grouped_kfold(bags, k=2, seed=0)

    def test_negative_seed_is_a_config_error(self):
        bags = [make_bag(bag_id=f"b{i}", patient_id=f"p{i}", seed=i) for i in range(4)]
        with pytest.raises(ConfigError, match=r"seed must be >= 0, got -1"):
            patient_grouped_kfold(bags, k=2, seed=-1)

    def test_plan_csv_round_trip(self, tmp_path):
        bags = [make_bag(bag_id=f"b{i}", patient_id=f"p{i}", seed=i) for i in range(8)]
        plan = patient_grouped_kfold(bags, k=2, val_fraction=0.25, seed=4)
        path = tmp_path / "plan.csv"
        plan.write_csv(path)
        loaded = SplitPlan.read_csv(path)
        assert loaded.k == plan.k
        for a, b in zip(loaded.folds, plan.folds):
            assert a.train_ids == b.train_ids and a.val_ids == b.val_ids and a.test_ids == b.test_ids


class TestPlanCsvErrors:
    def _plan(self, tmp_path, text):
        path = tmp_path / "plan.csv"
        path.write_text(text)
        return str(path)

    def test_unknown_subset(self, tmp_path):
        path = self._plan(tmp_path, "fold,subset,bag_id\n0,train,b0\n0,tset,b1\n")
        with pytest.raises(FormatError, match=rf"{re.escape(path)}:3: unknown subset 'tset'"):
            SplitPlan.read_csv(path)

    def test_non_integer_fold(self, tmp_path):
        path = self._plan(tmp_path, "fold,subset,bag_id\nzero,train,b0\n")
        with pytest.raises(FormatError, match=rf"{re.escape(path)}:2: fold 'zero' is not an integer"):
            SplitPlan.read_csv(path)

    def test_missing_column(self, tmp_path):
        path = self._plan(tmp_path, "fold,bag_id\n0,b0\n")
        with pytest.raises(FormatError, match=rf"{re.escape(path)}:1: plan has no column subset"):
            SplitPlan.read_csv(path)

    def test_short_row(self, tmp_path):
        path = self._plan(tmp_path, "fold,subset,bag_id\n0,train\n")
        with pytest.raises(FormatError, match=rf"{re.escape(path)}:2: plan row has fewer than 3 fields"):
            SplitPlan.read_csv(path)

    @pytest.mark.parametrize("second", ["0,test,a", "0,train,a"])
    def test_bag_listed_twice_in_a_fold(self, tmp_path, second):
        # a training bag also listed for testing would be scored on, and one listed twice trained twice
        path = self._plan(tmp_path, f"fold,subset,bag_id\n0,train,a\n0,val,b\n{second}\n")
        with pytest.raises(FormatError, match=rf"{re.escape(path)}:4: bag 'a' is listed twice in fold 0"):
            SplitPlan.read_csv(path)

    def test_bag_listed_once_in_each_fold(self, tmp_path):
        path = self._plan(tmp_path, "fold,subset,bag_id\n0,train,a\n0,test,b\n1,test,a\n1,train,b\n")
        assert [f.test_ids for f in SplitPlan.read_csv(path).folds] == [["b"], ["a"]]

    def test_fold_numbers_must_start_at_zero_without_gaps(self, tmp_path):
        path = self._plan(tmp_path, "fold,subset,bag_id\n0,train,b0\n2,train,b1\n")
        with pytest.raises(FormatError, match=r"not numbered 0..k-1"):
            SplitPlan.read_csv(path)


class TestSubsampleFraction:
    def test_full_fraction_is_identity(self):
        ids = [f"b{i}" for i in range(10)]
        assert subsample_fraction(ids, 1.0, seed=0) == ids

    def test_ceil_count(self):
        ids = [f"b{i}" for i in range(561)]
        assert len(subsample_fraction(ids, 0.02, seed=1)) == 12  # ceil(11.22)

    def test_nested_prefixes(self):
        ids = [f"b{i}" for i in range(50)]
        small = set(subsample_fraction(ids, 0.02, seed=2))
        mid = set(subsample_fraction(ids, 0.05, seed=2))
        big = set(subsample_fraction(ids, 0.5, seed=2))
        assert small <= mid <= big

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            subsample_fraction(["a"], 0.0, seed=0)

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"seed must be >= 0, got -1"):
            subsample_fraction(["a", "b"], 0.5, seed=-1)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 80), seed=st.integers(0, 1000))
    def test_nesting_property(self, n, seed):
        ids = [f"b{i}" for i in range(n)]
        subsets = [set(subsample_fraction(ids, f, seed)) for f in (0.1, 0.3, 0.7, 1.0)]
        for small, big in zip(subsets, subsets[1:]):
            assert small <= big


def test_dataset_unknown_id_is_data_error():
    with pytest.raises(DataError, match="no bag 'b9' in the dataset"):
        Dataset([make_bag(bag_id="b0")]).by_id("b9")


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(DataError):
        Dataset(bags=[make_bag(bag_id="x"), make_bag(bag_id="x", seed=1)])
