"""Attention rollout from recorded matrices, plus export helpers.

Per stage, only the final cross-attention over the input tokens and the
one self-attention block after it are rolled out (Abnar & Zuidema,
arXiv 2005.00928): the self matrix A is mixed with the identity
(0.5*A + 0.5*I, rows renormalized) to account for the residual path, and
the class-token row of that mix is pushed through the cross matrix. Only
the class row is formed. The per-stage score vectors are averaged over
stages and min-max normalized into a per-patch attention map.

Explanations are defined for eval-mode forwards of a CCAN model, whose
stages carry exactly those two records; a baseline records nothing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .data import atomic_write
from .errors import DataError, UsageError
from .netpbm import write_pgm


@dataclass
class AttentionMap:
    """Per-token relevance scores aligned to the bag's coordinate grid."""

    scores: np.ndarray  # one score per original input token
    rows: np.ndarray
    cols: np.ndarray
    rows_total: int
    cols_total: int
    normalization: str  # "raw" | "minmax"


def rollout_stage(stage):
    """Class-token relevance over the kept input tokens (length N_kept), as one row product."""
    shapes = [rec.matrix.shape for rec in stage.records]
    if len(shapes) != 2 or shapes[1] != (shapes[0][0],) * 2:
        raise UsageError(f"rollout reads a CCAN stage's final cross (M x N) and self (M x M) attention "
                         f"records; this stage has {shapes}")
    cross, final_self = (rec.matrix for rec in stage.records)
    m = len(final_self)
    class_row = 0.5 * final_self[-1] + 0.5 * np.eye(1, m, m - 1)[0]  # the residual mix's class row
    return (class_row / class_row.sum()) @ cross


def aggregate_rollout(model_output, bag):
    """Mean stage rollout, min-max normalized, placed on the bag's grid."""
    n = bag.n_tokens
    kept = model_output.kept_indices
    stage_scores = np.stack([rollout_stage(so) for so in model_output.stages])
    mean_scores = stage_scores.mean(axis=0)
    scores = np.zeros(n, dtype=np.float64)
    scores[kept] = mean_scores
    span = scores.max() - scores.min()
    if n >= 2 and span > 0:
        scores = (scores - scores.min()) / span
        normalization = "minmax"
    else:
        normalization = "raw"
    return AttentionMap(
        scores=scores,
        rows=bag.rows.copy(),
        cols=bag.cols.copy(),
        rows_total=bag.rows_total,
        cols_total=bag.cols_total,
        normalization=normalization,
    )


def explain_bag(model, bag):
    """Eval-mode forward plus rollout aggregation in one call."""
    with ag.no_grad():
        out = model.forward(bag, train_mode=False)
    return aggregate_rollout(out, bag)


def top_k_patches(attention_map, k):
    """(lowest-k, highest-k) token indices; ties break toward lower index."""
    n = len(attention_map.scores)
    if not 0 <= k <= n:
        raise UsageError(f"k={k} is outside 0..{n}, the token count")
    idx = np.arange(n)
    lowest = idx[np.lexsort((idx, attention_map.scores))][:k]
    highest = idx[np.lexsort((idx, -attention_map.scores))][:k]
    return lowest.tolist(), highest.tolist()


def export_heatmap(attention_map, path_base):
    """Write <base>.csv ((row, col, score) per token) and <base>.pgm.

    The raster covers the full grid at one pixel per cell; cells without
    a token render as 0, scores map to round(score * 255).
    """
    csv_path = f"{path_base}.csv"
    pgm_path = f"{path_base}.pgm"
    grid = (attention_map.rows_total, attention_map.cols_total)
    try:  # before either file is written, so a grid too large for one raster leaves neither
        raster = np.zeros(grid, dtype=np.uint8)
    except (MemoryError, ValueError):  # ValueError: more bytes than numpy can address
        raise DataError(f"the {grid[0]} x {grid[1]} grid's heatmap needs {grid[0] * grid[1]} bytes, "
                        "more than can be allocated") from None
    with atomic_write(csv_path, text=True) as fh:
        writer = csv.writer(fh)
        for r, c, s in zip(attention_map.rows, attention_map.cols, attention_map.scores):
            writer.writerow([int(r), int(c), repr(float(s))])
    raster[attention_map.rows, attention_map.cols] = np.rint(np.clip(attention_map.scores, 0.0, 1.0) * 255.0)
    write_pgm(raster, pgm_path)
    return csv_path, pgm_path


def export_class_embeddings(model, bags, path):
    """CSV of per-stage class-token embeddings: (bag_id, stage, e0..e{D-1}).

    ``bags`` holds bags or dataset entries; each is loaded for its forward only.
    D is the width of the embedding itself (a pooling baseline's is
    D_f); with no bags the header names no embedding columns.
    """
    header = ["bag_id", "stage"]
    with atomic_write(path, text=True) as fh:
        writer = csv.writer(fh)
        for bag in bags:
            with ag.no_grad():
                out = model.forward(bag, train_mode=False)
            for j, so in enumerate(out.stages, start=1):
                emb = so.class_embedding.data.reshape(-1)
                if header:
                    writer.writerow(header + [f"e{i}" for i in range(emb.size)])
                    header = None
                writer.writerow([bag.bag_id, j] + [repr(float(v)) for v in emb])
        if header:
            writer.writerow(header)
    return path
