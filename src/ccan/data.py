"""Feature-bag persistence, synthetic dataset generation, and splitting.

The on-disk bag format (CCFB) is a little-endian binary container:

    magic "CCFB" | u16 version=1 | u32 N | u32 D_f | u32 rows_total |
    u32 cols_total | u8 label | u8-length-prefixed bag_id (UTF-8) |
    u8-length-prefixed patient_id | N x (u32 row, u32 col) |
    N*D_f float32 row-major

A dataset loaded from a manifest is an index: ``load_manifest`` reads and
validates every listed file once, then keeps only each bag's ids, label,
token count and path, and ``Dataset.by_id`` reads the tokens again when
a bag is used. So memory holds the bags in use, not the whole cohort.

Every binary file of the package (bags, checkpoints, PNM images) is read
through ``BinaryReader``, which never holds the whole file and reads each
array once, into its own buffer. Every file the package writes, binary
or text, goes through ``atomic_write``: a temporary file that replaces
the target only once it is complete. Text files are UTF-8 both ways;
``key = value`` files (config files, sidecars) are read by
``read_key_values``.

Synthetic bags carry the supervision signal in a handful of "witness"
tokens drawn around a class-specific mean; everything else is standard
normal noise. This gives a desk-scale task whose solvability can be
certified independently of any trained model.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, FormatError

CCFB_MAGIC = b"CCFB"
CCFB_VERSION = 1


@dataclass
class FeatureBag:
    """All feature tokens of one slide, with grid coordinates and label."""

    bag_id: str
    patient_id: str
    label: int
    tokens: np.ndarray  # N x D_f float32
    rows: np.ndarray  # N, grid row per token
    cols: np.ndarray  # N, grid col per token
    rows_total: int
    cols_total: int

    def __post_init__(self):
        self.tokens = np.ascontiguousarray(self.tokens, dtype=np.float32)
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.validate()

    @property
    def n_tokens(self):
        return self.tokens.shape[0]

    @property
    def d_feature(self):
        return self.tokens.shape[1]

    def load(self):
        """The bag itself: its tokens are in memory already."""
        return self

    def validate(self):
        n = self.tokens.shape[0]
        if n < 1:
            raise DataError(f"bag {self.bag_id!r} is empty")
        # NaN and +-inf propagate through max and min, so no full-size mask is built
        if self.tokens.size and not (np.isfinite(self.tokens.max()) and np.isfinite(self.tokens.min())):
            row = int(np.flatnonzero(~np.isfinite(self.tokens).all(axis=1))[0])
            raise DataError(f"bag {self.bag_id!r}: token row {row} has a NaN or infinite value")
        if self.rows.shape != (n,) or self.cols.shape != (n,):
            raise DataError(f"bag {self.bag_id!r}: coordinate count does not match token count")
        if (self.rows < 0).any() or (self.rows >= self.rows_total).any():
            raise DataError(f"bag {self.bag_id!r}: row index outside grid")
        if (self.cols < 0).any() or (self.cols >= self.cols_total).any():
            raise DataError(f"bag {self.bag_id!r}: col index outside grid")
        flat = self.rows * self.cols_total + self.cols
        if np.unique(flat).size != n:
            raise DataError(f"bag {self.bag_id!r}: duplicate coordinates")


def _encode_id(s):
    raw = s.encode("utf-8")
    if len(raw) > 255:
        raise DataError(f"identifier longer than 255 UTF-8 bytes: {s[:32]!r}...")
    return struct.pack("<B", len(raw)) + raw


def _encode_identity(label, bag_id, patient_id):
    """The two length-prefixed ids ``write_bag`` writes, after its check that they and the label fit."""
    if not 0 <= label <= 255:
        raise DataError(f"label {label} does not fit in one byte")
    return _encode_id(bag_id), _encode_id(patient_id)


def write_bag(bag, path):
    bag_id, patient_id = _encode_identity(bag.label, bag.bag_id, bag.patient_id)
    coords = np.empty((bag.n_tokens, 2), dtype="<u4")
    coords[:, 0] = bag.rows
    coords[:, 1] = bag.cols
    with atomic_write(path) as fh:
        fh.write(CCFB_MAGIC)
        fh.write(struct.pack("<HIIIIB", CCFB_VERSION, bag.n_tokens, bag.d_feature,
                             bag.rows_total, bag.cols_total, bag.label))
        fh.write(bag_id)
        fh.write(patient_id)
        fh.write(coords.data)
        fh.write(np.ascontiguousarray(bag.tokens, dtype="<f4").data)


@contextmanager
def atomic_write(path, text=False):
    """A file opened next to ``path`` that replaces it only once the block completes.

    The file is binary, or with ``text`` UTF-8 text written with no
    newline translation. On any exception the temporary file is removed
    and whatever ``path`` held before stays as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") if text else open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_key_values(path):
    """The ``key = value`` lines of a UTF-8 text file as {key: raw value}; ``#`` starts a comment.

    A later line for the same key wins. Every fault is a ConfigError that names ``path:line``.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # at \n, \r\n or \r, as text mode splits
    pairs = {}
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = str(raw, "utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError:
            raise ConfigError(f"{path}:{lineno}: line is not UTF-8") from None
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        pairs[key] = value
    return pairs


class BinaryReader:
    """Sequential little-endian reads from an open binary file; every fault is a FormatError with its offset.

    The file is never held whole: fields are read piece by piece and each
    array straight into its own buffer.
    """

    def __init__(self, fh):
        self.fh = fh
        self.offset = 0
        self.size = os.fstat(fh.fileno()).st_size

    def _need(self, n, what):
        if self.offset + n > self.size:
            raise FormatError(f"truncated file while reading {what}", offset=self.offset)

    def take(self, n, what):
        self._need(n, what)
        self.offset += n
        return self.fh.read(n)

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, n, what):
        start = self.offset
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} is not UTF-8", offset=start + exc.start) from None

    def readinto(self, array, what):
        """Fill a C-contiguous array from the file."""
        if self.fh.readinto(array) < array.nbytes:
            raise FormatError(f"truncated file while reading {what}", offset=self.offset)
        self.offset += array.nbytes

    def array(self, shape, dtype, what):
        """A new array read from the file; its size is checked against the file before it is allocated."""
        self._need(math.prod(shape) * np.dtype(dtype).itemsize, what)
        out = np.empty(shape, dtype)
        self.readinto(out, what)
        return out


def read_bag(path):
    with open(path, "rb") as fh:
        r = BinaryReader(fh)
        magic = r.take(4, "magic")
        if magic != CCFB_MAGIC:
            raise FormatError(f"bad magic {magic!r}", offset=0)
        (version,) = r.unpack("<H", "version")
        if version != CCFB_VERSION:
            raise FormatError(f"unsupported version {version}", offset=4)
        n, d_f, rows_total, cols_total = r.unpack("<IIII", "header extents")
        (label,) = r.unpack("<B", "label")
        bag_id = r.text(r.unpack("<B", "bag_id length")[0], "bag_id")
        patient_id = r.text(r.unpack("<B", "patient_id length")[0], "patient_id")
        coords = r.array((n, 2), "<u4", "coordinates")
        tokens = r.array((n, d_f), "<f4", "tokens")
        if r.offset != r.size:
            raise FormatError("trailing bytes after token payload", offset=r.offset)
    return FeatureBag(bag_id, patient_id, label, tokens, coords[:, 0], coords[:, 1], rows_total, cols_total)


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class BagEntry:
    """One bag file of a manifest, as its header read at load time; the tokens stay on disk."""

    bag_id: str
    patient_id: str
    label: int
    n_tokens: int
    path: str

    def load(self):
        """The bag, read from its file; a header that no longer matches this entry is a FormatError."""
        bag = read_bag(self.path)
        for name in ("bag_id", "patient_id", "label", "n_tokens"):
            if getattr(bag, name) != getattr(self, name):
                raise FormatError(f"{self.path}: {name} is {getattr(bag, name)!r}, "
                                  f"but was {getattr(self, name)!r} when the manifest was loaded")
        return bag


@dataclass
class Dataset:
    """A bag collection, optionally with witness bookkeeping.

    Each item of ``bags`` is a FeatureBag, or a BagEntry for a bag that
    stays on disk; both carry ``bag_id``, ``patient_id``, ``label`` and
    ``n_tokens``, and their ``load()`` gives the FeatureBag.
    """

    bags: list
    witness_indices: dict = field(default_factory=dict)

    def __post_init__(self):
        self._by_id = {b.bag_id: b for b in self.bags}
        if len(self._by_id) != len(self.bags):
            raise DataError("duplicate bag ids in dataset")

    def __len__(self):
        return len(self.bags)

    def entry(self, bag_id):
        """The item of ``bags`` with this id, without reading any tokens."""
        if bag_id not in self._by_id:
            raise DataError(f"no bag {bag_id!r} in the dataset")
        return self._by_id[bag_id]

    def by_id(self, bag_id):
        return self.entry(bag_id).load()


def seeded_rng(seed):
    """numpy's generator for ``seed``, which must be >= 0 (numpy's own error for a negative one is a ValueError)."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def generate_synthetic(
    n_bags,
    n_per_bag_range=(20, 50),
    d_feature=64,
    witness_shift=4.0,
    witness_count_range=(2, 5),
    grid=(16, 16),
    n_classes=2,
    seed=0,
):
    """Deterministic synthetic MIL dataset.

    Every class-c bag carries witness tokens drawn from N(mu_c, I) where
    mu_c = witness_shift * e_c (the c-th standard basis direction);
    background tokens are standard normal. Coordinates are sampled
    without replacement from the grid; patients own 1-3 consecutive bags.
    """
    rows_total, cols_total = grid
    n_min, n_max = n_per_bag_range
    if n_bags < 1:
        raise ConfigError(f"n_bags must be >= 1, got {n_bags}")
    if n_min < 1 or n_max < n_min:
        raise ConfigError(f"bad bag-size range {n_per_bag_range}")
    if rows_total * cols_total < n_max:
        raise ConfigError(f"grid {grid} has fewer cells than the largest bag ({n_max})")
    if n_classes < 2 or n_classes > d_feature:
        raise ConfigError(f"n_classes must be in [2, d_feature], got {n_classes}")
    w_min, w_max = witness_count_range
    if w_min < 1 or w_max < w_min or w_max > n_min:
        raise ConfigError(f"bad witness count range {witness_count_range} for bag sizes {n_per_bag_range}")

    rng = seeded_rng(seed)
    bags = []
    witness_indices = {}
    patient_idx = 0
    bags_left_for_patient = 0
    for i in range(n_bags):
        if bags_left_for_patient == 0:
            patient_idx += 1
            bags_left_for_patient = int(rng.integers(1, 4))
        bags_left_for_patient -= 1
        label = i % n_classes
        n = int(rng.integers(n_min, n_max + 1))
        tokens = rng.standard_normal((n, d_feature))
        n_wit = int(rng.integers(w_min, w_max + 1))
        wit_idx = rng.choice(n, size=n_wit, replace=False)
        tokens[wit_idx, label] += witness_shift
        cells = rng.choice(rows_total * cols_total, size=n, replace=False)
        bag = FeatureBag(
            bag_id=f"bag{i:04d}",
            patient_id=f"patient{patient_idx:04d}",
            label=label,
            tokens=tokens.astype(np.float32),
            rows=cells // cols_total,
            cols=cells % cols_total,
            rows_total=rows_total,
            cols_total=cols_total,
        )
        bags.append(bag)
        witness_indices[bag.bag_id] = np.sort(wit_idx)
    return Dataset(bags=bags, witness_indices=witness_indices)


@contextmanager
def _read_csv(path):
    """A ``csv.DictReader`` over a UTF-8 file; text that is not UTF-8 is a FormatError naming ``path``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield csv.DictReader(fh)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: text is not UTF-8") from None


def write_manifest(dataset, paths, manifest_path):
    """CSV of (bag_id, patient_id, label, path); paths maps bag_id -> file."""
    with atomic_write(manifest_path, text=True) as fh:
        writer = csv.writer(fh)
        writer.writerow(["bag_id", "patient_id", "label", "path"])
        for bag in dataset.bags:
            writer.writerow([bag.bag_id, bag.patient_id, bag.label, paths[bag.bag_id]])


def load_manifest(manifest_path):
    """Index the bags listed in a manifest CSV as a Dataset of BagEntry items.

    Every file is read and validated once, in full, and its tokens are
    dropped. The ``bag_id``, ``patient_id`` and ``label`` columns, where
    the manifest has them, must match the file's header. Relative paths
    resolve against the manifest's own directory, so a dataset directory
    can be moved wholesale.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    entries = []
    with _read_csv(manifest_path) as reader:
        if "path" not in (reader.fieldnames or ()):
            raise FormatError(f"{manifest_path}:1: manifest has no column path")
        checked = [c for c in ("bag_id", "patient_id", "label") if c in reader.fieldnames]
        for row in reader:
            path = row["path"]
            if path is None:
                raise FormatError(f"{manifest_path}:{reader.line_num}: manifest row has no path field")
            if not os.path.isabs(path):
                path = os.path.join(base, path)
            bag = read_bag(path)
            for column in checked:
                if row[column] != str(getattr(bag, column)):
                    raise FormatError(f"{manifest_path}:{reader.line_num}: column {column} is {row[column]!r}, "
                                      f"but {path} has {getattr(bag, column)!r}")
            entries.append(BagEntry(bag.bag_id, bag.patient_id, bag.label, bag.n_tokens, path))
            del bag  # before the next file is read
    return Dataset(bags=entries)


# ---------------------------------------------------------------------------
# splitting


@dataclass
class FoldSplit:
    train_ids: list
    val_ids: list
    test_ids: list


@dataclass
class SplitPlan:
    folds: list  # of FoldSplit

    @property
    def k(self):
        return len(self.folds)

    def write_csv(self, path):
        with atomic_write(path, text=True) as fh:
            writer = csv.writer(fh)
            writer.writerow(["fold", "subset", "bag_id"])
            for i, fold in enumerate(self.folds):
                for subset, ids in (("train", fold.train_ids), ("val", fold.val_ids), ("test", fold.test_ids)):
                    for bag_id in ids:
                        writer.writerow([i, subset, bag_id])

    @classmethod
    def read_csv(cls, path):
        """Read a plan written by ``write_csv``; folds must be numbered 0..k-1 and list each bag at most once."""
        folds, listed = {}, set()
        with _read_csv(path) as reader:
            missing = [c for c in ("fold", "subset", "bag_id") if c not in (reader.fieldnames or ())]
            if missing:
                raise FormatError(f"{path}:1: plan has no column {', '.join(missing)}")
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if None in (row["fold"], row["subset"], row["bag_id"]):
                    raise FormatError(f"{where}: plan row has fewer than 3 fields")
                try:
                    index = int(row["fold"])
                except ValueError:
                    raise FormatError(f"{where}: fold {row['fold']!r} is not an integer") from None
                fold = folds.setdefault(index, {"train": [], "val": [], "test": []})
                if row["subset"] not in fold:
                    raise FormatError(f"{where}: unknown subset {row['subset']!r}; expected train, val or test")
                if (index, row["bag_id"]) in listed:
                    raise FormatError(f"{where}: bag {row['bag_id']!r} is listed twice in fold {index}")
                listed.add((index, row["bag_id"]))
                fold[row["subset"]].append(row["bag_id"])
        if sorted(folds) != list(range(len(folds))):
            raise FormatError(f"{path}: plan folds {sorted(folds)} are not numbered 0..k-1")
        ordered = [folds[i] for i in sorted(folds)]
        return cls(folds=[FoldSplit(f["train"], f["val"], f["test"]) for f in ordered])


def patient_grouped_kfold(bags, k, val_fraction=0.2, seed=0):
    """Deal patients into k test groups; split the rest into train/val.

    All bags of one patient land in exactly one subset of one fold. With
    k=4 and val_fraction=0.2 the proportions target 60/15/25.
    """
    if k < 2:
        raise ConfigError(f"k must be at least 2 folds, got {k}")
    if not 0 < val_fraction < 1:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    by_patient = {}
    for bag in bags:
        by_patient.setdefault(bag.patient_id, []).append(bag.bag_id)
    patients = sorted(by_patient)
    if k > len(patients):
        raise ConfigError(f"cannot make {k} folds from {len(patients)} patients")
    rng = seeded_rng(seed)
    order = [patients[i] for i in rng.permutation(len(patients))]
    test_groups = [order[i::k] for i in range(k)]

    folds = []
    for i in range(k):
        test_patients = set(test_groups[i])
        test_ids = [bid for p in test_groups[i] for bid in by_patient[p]]
        rest = [p for p in order if p not in test_patients]
        rest_bag_count = sum(len(by_patient[p]) for p in rest)
        val_target = round(val_fraction * rest_bag_count)
        fold_rng = seeded_rng(seed + 7919 * (i + 1))
        rest_shuffled = [rest[j] for j in fold_rng.permutation(len(rest))]
        val_ids = []
        train_ids = []
        for p in rest_shuffled:
            if len(val_ids) < val_target:
                val_ids.extend(by_patient[p])
            else:
                train_ids.extend(by_patient[p])
        folds.append(FoldSplit(train_ids=train_ids, val_ids=val_ids, test_ids=test_ids))
    return SplitPlan(folds=folds)


def subsample_fraction(train_ids, fraction, seed):
    """Seeded shuffle + prefix take, so subsets nest across fractions."""
    if not 0 < fraction <= 1:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    train_ids = list(train_ids)
    if fraction == 1:
        return train_ids
    rng = seeded_rng(seed)
    order = [train_ids[i] for i in rng.permutation(len(train_ids))]
    keep = math.ceil(fraction * len(train_ids))
    return order[:keep]
