"""Record a BENCH_<tag>.json: perfbench's own result files, ``ccan bench``'s scaling rows and the tier-1 time.

    python tools/bench_record.py --tag v1 --tier1-s 240
    python tools/bench_record.py --check BENCH_a.json BENCH_b.json

Each workload of ``BENCHMARK.json``, and ``toy_train``, runs ``perfbench/run.py --workload W --seed S`` in a
process of its own, and the file that run writes, ``perfbench/out/<W>-seed<S>-trace0.json``, is stored unchanged
under ``workloads``. ``scaling`` holds the rows and time fit of
``bench_scaling(CCANConfig(), [3091, 20000, 50000], include_baseline=False)``, run in this process after the
workloads; a row's ``peak_bytes`` is the traced peak of one eval forward. ``tier1_s`` is the tier-1 wall time in
seconds, measured by hand and entered with ``--tier1-s`` (null without it). ``toy_nodes_per_loss`` counts the
graph nodes reachable from one seeded TOY training loss. ``ref_bag_mib`` is the traced memory of one seeded
``CCANConfig()`` training bag (N=3,091, 309 tokens kept, the gradient array preset as ``train`` presets it), in MiB
above what was allocated before its forward: ``graph`` when the forward ends and ``backward_peak`` the peak of the
backward pass. ``blas_core`` names the kernels OpenBLAS selected at run
time (its ``DYNAMIC_ARCH`` build picks them for the CPU), which ``numpy.show_config()`` does not show. Neither
``src/`` nor ``perfbench/`` is changed; the result files are made by perfbench itself.

``--check A B`` compares the two files' fields that are not measurements: everything except the tag, a
metric's ``value`` (a time, a rate or the resident peak), the raw ``samples``, ``measured_s``, a scaling row's
``wall_ms``, the time fit and ``tier1_s``. It prints each field that differs and exits 1 if any does. Two
records of one tree on one machine agree on all of them.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
TOY = dict(n_stages=2, n_latents=16, compression=2, d_latent=32, d_feature=64, self_layers=1, n_frequencies=2)
SCALING_NS = [3091, 20000, 50000]
UNCOMPARED = {"tag", "samples", "measured_s", "wall_ms", "time_fit", "tier1_s"}  # see the docstring


def workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    return names + ["toy_train"]


def run_workload(name, seed):
    """perfbench's result object for one run of ``name``, read from the file that run wrote."""
    subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", name, "--seed", str(seed)],
                   cwd=ROOT, check=True)
    with open(os.path.join(ROOT, "perfbench", "out", f"{name}-seed{seed}-trace0.json")) as fh:
        return json.load(fh)


def scaling():
    from ccan.bench import bench_scaling
    from ccan.model import CCANConfig

    report = bench_scaling(CCANConfig(), SCALING_NS, include_baseline=False, log=print)
    print(report.summary(), flush=True)
    return {"rows": [dataclasses.asdict(r) for r in report.rows], "time_fit": dataclasses.asdict(report.time_fit)}


def toy_nodes_per_loss():
    """Operation nodes reachable from the loss of one TOY training forward, as ``tests/test_model.py`` counts them."""
    from ccan.data import generate_synthetic
    from ccan.model import CCANConfig, CCANModel
    from ccan.training import bag_loss

    bag = generate_synthetic(1, (40, 40), d_feature=64, seed=0).bags[0]
    out = CCANModel(CCANConfig(**TOY)).forward(bag, rng=np.random.default_rng(0), train_mode=True)
    ops, stack = {}, [bag_loss(out, bag.label, 2)]
    while stack:
        node = stack.pop()
        if id(node) not in ops:
            ops[id(node)] = node._backward is not None
            stack.extend(node._parents)
    return sum(ops.values())


def ref_bag_mib():
    """The traced graph at the forward's end and the backward's peak of one reference training bag, in MiB."""
    import tracemalloc

    from ccan import autograd as ag
    from ccan.bench import make_bench_bag
    from ccan.model import CCANConfig, CCANModel
    from ccan.training import bag_loss

    cfg = CCANConfig()
    model, bag = CCANModel(cfg), make_bench_bag(3091, cfg.d_feature, seed=0)
    model.zeroed_grads()  # each parameter's grad a view of one zeroed array, as in ``train``
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss = bag_loss(model.forward(bag, rng=np.random.default_rng(0), train_mode=True), bag.label, 2)
        graph = tracemalloc.get_traced_memory()[0] - start
        tracemalloc.reset_peak()
        ag.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return {"graph": round(graph / 2**20, 1), "backward_peak": round(peak / 2**20, 1)}


def blas_core():
    """The OpenBLAS core name, read from numpy's bundled library as perfbench reads its thread count; None if absent."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(handle, symbol):
                corename = getattr(handle, symbol)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def record(tag, seed, tier1_s):
    out = {"tag": tag, "seed": seed, "tier1_s": tier1_s,
           "workloads": {name: run_workload(name, seed) for name in workload_names()},
           "scaling": scaling(), "toy_nodes_per_loss": toy_nodes_per_loss(), "ref_bag_mib": ref_bag_mib(),
           "blas_core": blas_core()}
    path = os.path.join(ROOT, f"BENCH_{tag}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def fixed_fields(node, path=""):
    """(path, value) of every leaf that ``--check`` compares, and each list's length."""
    if isinstance(node, dict):
        for key, value in node.items():
            metric_value = key == "value" and "unit" in node
            if key not in UNCOMPARED and not metric_value:
                yield from fixed_fields(value, f"{path}.{key}")
    elif isinstance(node, list):
        yield f"{path}.len", len(node)
        for i, value in enumerate(node):
            yield from fixed_fields(value, f"{path}[{i}]")
    else:
        yield path, node


def check(a_path, b_path):
    with open(a_path) as fa, open(b_path) as fb:
        a, b = (dict(fixed_fields(json.load(fh))) for fh in (fa, fb))
    differ = [key for key in sorted(a.keys() | b.keys()) if a.get(key, "<missing>") != b.get(key, "<missing>")]
    for key in differ:
        print(f"{key}: {a.get(key, '<missing>')!r} != {b.get(key, '<missing>')!r}")
    print(f"{len(a)} fixed fields, {len(differ)} differ")
    return 1 if differ else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tier1-s", type=float, default=None)
    ap.add_argument("--check", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.check:
        return check(*args.check)
    if not args.tag:
        ap.error("--tag or --check is required")
    record(args.tag, args.seed, args.tier1_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
