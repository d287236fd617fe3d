"""What the benchmark measures: ``BENCHMARK.json`` plus what only the code needs.

``BENCHMARK.json`` at the repository root is the one list of workloads,
metrics, units and bounds; this module reads it.

Every workload reports every end-to-end metric, so the gated metrics are
slots that each workload fills with its own three timed operations
(``op1``..``op3``). ``ALIASES`` gives the name each slot carries on each
workload; the run prints both. ``toy_train`` has aliases and runs when
named, but is not in ``BENCHMARK.json``: its step times swung past the
bounds with the shared host's speed.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)

RUN_SECONDS = _SPEC["run_seconds"]
WORKLOADS = [w["name"] for w in _SPEC["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]

# slot -> the metric's name on each workload
ALIASES = {
    "toy_train": {
        "op1_per_s": "train_bags_per_s",
        "op1_ms": "train_step_ms",
        "op1_ms_p90": "train_step_ms_p90",
        "op2_per_s": "eval_bags_per_s",
        "op2_ms": "eval_bag_ms",
        "op3_ms": "explain_bag_ms",
    },
    "ref_slide": {
        "op1_per_s": "train_bags_per_s",
        "op1_ms": "train_step_ms",
        "op1_ms_p90": "train_step_ms_p90",
        "op2_per_s": "infer_tokens_per_s",
        "op2_ms": "infer_bag_ms",
        "op3_ms": "explain_bag_ms",
    },
    "raster_preprocess": {
        "op1_per_s": "preprocess_patches_per_s",
        "op1_ms": "image_ms",
        "op1_ms_p90": "image_ms_p90",
        "op2_per_s": "resize_patches_per_s",
        "op2_ms": "resize_image_ms",
        "op3_ms": "copy_image_ms",
    },
}

PHASES = ("setup", "train", "infer", "explain", "preprocess")
LAYERS = ("autograd", "attention", "posenc", "model", "training", "explain", "data", "netpbm", "preprocess")
