"""Seeded inputs for each workload, written as the files the program reads.

    python3 perfbench/inputs.py WORKLOAD SEED WORK_DIR

writes the inputs of one workload under WORK_DIR and describes them in
WORK_DIR/inputs.json. ``run.py`` runs this as a child process before the
workload starts, so the generator's arrays never count towards the
workload's peak RSS.

Bags, manifests, rasters and sidecars are written by this module's own
writers, so the inputs do not change when the program's writers do. The
reference checkpoint is the exception: its layout belongs to the model,
so it is made with ``CCANModel`` and ``save_checkpoint``.

Sizes (bag token counts, raster sizes, patch classes) are fixed; the seed
chooses token values, coordinates, labels and pixel content, so every
seed asks for the same amount of work.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import struct
import sys

import numpy as np
from scipy import ndimage


def sub_seed(seed, purpose):
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**31)


def write_ccfb(path, bag_id, patient_id, label, tokens, rows, cols, rows_total, cols_total):
    """CCFB version 1, as documented in ``ccan.data``."""
    n, d = tokens.shape
    with open(path, "wb") as fh:
        fh.write(b"CCFB" + struct.pack("<HIIIIB", 1, n, d, rows_total, cols_total, label))
        for ident in (bag_id, patient_id):
            raw = ident.encode()
            fh.write(struct.pack("<B", len(raw)) + raw)
        fh.write(np.stack([rows, cols], axis=1).astype("<u4").tobytes())
        fh.write(np.ascontiguousarray(tokens, dtype="<f4").tobytes())


def write_manifest(path, rows):
    """rows: (bag_id, patient_id, label, relative path)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bag_id", "patient_id", "label", "path"])
        writer.writerows(rows)


def _bag_on_grid(rng, n, d, grid):
    cells = rng.choice(grid[0] * grid[1], size=n, replace=False)
    tokens = rng.standard_normal((n, d)).astype(np.float32)
    return tokens, cells // grid[1], cells % grid[1]


def toy_bags(work, seed, n_bags=200, d_feature=64, grid=(16, 16)):
    """Witness bags: 2-5 tokens of a class-c bag are shifted by 4 along axis c.

    Patients own 1-3 consecutive bags. Returns the manifest path.
    """
    rng = np.random.default_rng(sub_seed(seed, "toy-bags"))
    os.makedirs(os.path.join(work, "bags"), exist_ok=True)
    rows = []
    patient, left = 0, 0
    for i in range(n_bags):
        if left == 0:
            patient += 1
            left = int(rng.integers(1, 4))
        left -= 1
        label = i % 2
        tokens, r, c = _bag_on_grid(rng, int(rng.integers(20, 51)), d_feature, grid)
        witnesses = rng.choice(len(tokens), size=int(rng.integers(2, 6)), replace=False)
        tokens[witnesses, label] += 4.0
        bag_id, patient_id = f"bag{i:04d}", f"patient{patient:04d}"
        rel = os.path.join("bags", f"{bag_id}.ccfb")
        write_ccfb(os.path.join(work, rel), bag_id, patient_id, label, tokens, r, c, *grid)
        rows.append((bag_id, patient_id, label, rel))
    manifest = os.path.join(work, "manifest.csv")
    write_manifest(manifest, rows)
    return {"manifest": manifest}


# token counts of the reference bags, by role; the eval spread is centred on
# the dataset's mean bag size, N=3091
REF_TRAIN_N = (3091, 3091, 3091, 3091)
REF_VAL_N = (1000, 1000)
REF_INFER_N = (1000, 3091, 6000)
REF_EXPLAIN_N = (2000, 4500)


def ref_inputs(work, seed, d_feature=2048):
    """Reference bags plus a checkpoint of a freshly initialised reference model.

    Returns {"manifest": path, "checkpoint": path, "roles": {role: [bag ids]}}.
    """
    from ccan.model import CCANConfig, CCANModel, save_checkpoint

    rng = np.random.default_rng(sub_seed(seed, "ref-bags"))
    os.makedirs(os.path.join(work, "bags"), exist_ok=True)
    rows = []
    roles = {}
    sizes = [("train", REF_TRAIN_N), ("val", REF_VAL_N), ("infer", REF_INFER_N), ("explain", REF_EXPLAIN_N)]
    for role, ns in sizes:
        for k, n in enumerate(ns):
            side = int(np.ceil(np.sqrt(1.3 * n)))
            tokens, r, c = _bag_on_grid(rng, n, d_feature, (side, side))
            bag_id = f"{role}{k}_n{n}"
            rel = os.path.join("bags", f"{bag_id}.ccfb")
            label = k % 2
            write_ccfb(os.path.join(work, rel), bag_id, f"p_{bag_id}", label, tokens, r, c, side, side)
            rows.append((bag_id, f"p_{bag_id}", label, rel))
            roles.setdefault(role, []).append(bag_id)
    manifest = os.path.join(work, "manifest.csv")
    write_manifest(manifest, rows)
    checkpoint = os.path.join(work, "ref.ckpt")
    save_checkpoint(CCANModel(CCANConfig(seed=sub_seed(seed, "ref-model"))), checkpoint)
    return {"manifest": manifest, "checkpoint": checkpoint, "roles": roles}


# (microns per pixel, height, width); the edges past the last full patch are discarded
RASTERS = ((0.5, 2150, 2100), (1.0, 2150, 2100), (0.5, 2100, 2150), (1.0, 2100, 2150))
# share of full patch cells per class; the rest of each raster is background
CELL_SHARES = {"white": 3 / 8, "blur": 2 / 8, "tissue": 3 / 8}


def _cell(rng, kind, side, mpp):
    """One patch cell: near-white, or stained tissue with a sharp 2 um grain or a 32 um grain blurred by 8 um."""
    if kind == "white":
        return np.clip(rng.normal(246.0, 3.0, (side, side, 3)), 0, 255)
    grain = round((2.0 if kind == "tissue" else 32.0) / mpp)
    coarse = rng.normal(0.0, 1.0, (side // grain, side // grain, 1))
    texture = np.kron(coarse, np.ones((grain, grain, 1)))
    if kind == "blur":
        texture = ndimage.gaussian_filter(texture, (8.0 / mpp, 8.0 / mpp, 0), mode="nearest")
    stain = np.array([196.0, 118.0, 168.0])
    return np.clip(stain + 36.0 * texture * np.array([1.0, 1.2, 0.8]), 0, 255)


def write_ppm(path, pixels):
    height, width = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def rasters(work, seed, patch_microns=256.0):
    """Synthetic stained rasters: white, blurred and sharp tissue cells on the patch grid.

    Returns {"rasters": [...]}, one dict per raster: image and sidecar
    paths, microns per pixel, patch grid shape and the expected count of
    each cell class.
    """
    work = os.path.join(work, "rasters")
    rng = np.random.default_rng(sub_seed(seed, "rasters"))
    os.makedirs(work, exist_ok=True)
    out = []
    for i, (mpp, height, width) in enumerate(RASTERS):
        side = round(patch_microns / mpp)
        n_rows, n_cols = height // side, width // side
        n_cells = n_rows * n_cols
        counts = {k: round(share * n_cells) for k, share in CELL_SHARES.items()}
        counts["tissue"] = n_cells - counts["white"] - counts["blur"]
        kinds = np.array([k for k, c in counts.items() for _ in range(c)])[rng.permutation(n_cells)]
        pixels = np.full((height, width, 3), 250.0)
        for cell, kind in enumerate(kinds):
            y, x = (cell // n_cols) * side, (cell % n_cols) * side
            pixels[y : y + side, x : x + side] = _cell(rng, kind, side, mpp)
        name = f"raster{i}"
        image = os.path.join(work, f"{name}.ppm")
        write_ppm(image, np.rint(pixels))
        sidecar = os.path.join(work, f"{name}.txt")
        with open(sidecar, "w") as fh:
            fh.write(f"microns_per_pixel = {mpp}\nlabel = {i % 2}\nbag_id = {name}\npatient_id = p{i}\n")
        out.append({"image": image, "sidecar": sidecar, "mpp": mpp, "grid": (n_rows, n_cols), "expected": counts})
    return {"rasters": out}


MAKERS = {"toy_train": toy_bags, "ref_slide": ref_inputs, "raster_preprocess": rasters}


def main(argv):
    workload, seed, work = argv[0], int(argv[1]), argv[2]
    # the reference checkpoint is made with the program from this checkout's src/
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    made = MAKERS[workload](work, seed)
    with open(os.path.join(work, "inputs.json"), "w") as fh:
        json.dump(made, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
