"""Benchmark entry point.

    python3 perfbench/run.py --workload toy_train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, each in its own process

One workload runs in this process. Its inputs are generated from the seed
under ``perfbench/work/`` by a child process (``inputs.py``), so the
generator's memory stays out of this process's peak RSS, and are removed
at exit. Outputs (result JSON, and for a traced run the span file and
self-time table) go to ``perfbench/out/``. The last line of standard
output is the result object.

With ``--trace 0`` the end-to-end metrics come from one untraced pass
(set-up repeated, median reported). With ``--trace 1`` the workload runs
three passes: under tracemalloc, untraced and traced, and the result
holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

import numpy
import scipy

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# workloads and report import ccan, so functions import them after import_program()


def import_program():
    """Import ccan from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    import ccan

    if os.path.dirname(os.path.abspath(ccan.__file__)) != os.path.join(SRC, "ccan"):
        raise ImportError(f"ccan imported from {ccan.__file__}, not from {SRC}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(seed):
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        "seed": seed,
        "src_lines": _src_lines(),
    }


def _blas():
    """BLAS name, version and thread count, as far as numpy's bundled OpenBLAS tells."""
    info = dict(numpy.__config__.CONFIG["Build Dependencies"]["blas"])
    out = {"name": info.get("name"), "version": info.get("version")}
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                out["threads"] = int(getattr(handle, symbol)())
                return out
    out["threads"] = None
    return out


def _git_rev():
    """HEAD's commit; None outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_lines():
    """Line counts of src/ccan/*.py, as ``wc -l`` gives them."""
    pkg = os.path.join(SRC, "ccan")
    counts = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                counts[name] = fh.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def end_to_end(cls, workload, seconds, outcome):
    """One untraced pass; returns (metrics, extra fields for the result file)."""
    from workloads import p90, run_pass

    p = run_pass(workload, "plain", cls.size(seconds, traced=False), outcome, cls.setup_samples)
    values = workload.slots(p)
    measured = sum(p.wall_ms(name) for name in p.phases if name != "setup") / 1e3
    print(f"{'timed phases, wall':<44} {measured:.1f} s")
    values["setup_s"] = statistics.median(p.setup_s)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    aliases = spec.ALIASES[cls.name]
    metrics, named = {}, {}
    for name, unit in spec.END_TO_END:
        metrics[name] = named[aliases.get(name, name)] = {"value": values[name], "unit": unit}
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"{label:<44} {values[name]:.6g} {unit}")
    # reported, not gated: over ten runs on a shared host its spread passed the bound
    name = aliases["op1_ms_p90"]
    named[name] = {"value": values["op1_ms_p90"], "unit": "ms"}
    print(f"{'op1_ms_p90 (' + name + ', not gated)':<44} {values['op1_ms_p90']:.6g} ms")
    if "infer" in p.rounds[0]:
        from report import affine_fit

        slope, intercept = affine_fit(p)
        named["infer_ms_per_ktoken"] = {"value": slope * 1e3, "unit": "ms/ktoken"}
        named["infer_ms_fixed"] = {"value": intercept, "unit": "ms"}
        print(f"{'eval forward ms = a + b*N':<44} a = {intercept:.1f} ms, b = {slope * 1e3:.1f} ms/ktoken")
    samples = {"setup_s": p.setup_s}
    for key in ("step_ms", "eval_bag_ms", "infer", "explain", "images"):
        if key in p.rounds[0]:
            samples[key] = [r if isinstance(r, float) else r[1] for r in p.gather(key)]
    for key, values in samples.items():
        print(f"{'samples: ' + key:<44} {len(values)}, raw median {statistics.median(values):.6g}, "
              f"raw p90 {p90(values):.6g}")
    return metrics, {"named": named, "samples": samples, "measured_s": measured}


def per_layer(cls, workload, seconds, outcome, stem):
    """Memory, untraced and traced passes; returns (metrics, extra fields for the result file)."""
    from report import per_layer_metrics, self_time_table
    from workloads import run_pass

    size = cls.size(seconds, traced=True)
    # the memory pass goes first: it also pays first-touch costs, which
    # would otherwise land on one side of the overhead ratio
    memory = run_pass(workload, "memory", size, outcome)
    plain = run_pass(workload, "plain", size, outcome)
    traced = run_pass(workload, "traced", size, outcome)
    values, prof, rows = per_layer_metrics(traced, plain, memory)
    outcome.check(values["trace.coverage"] >= 0.9,
                  f"wrapped layers cover only {values['trace.coverage']:.3f} of a traced phase")
    table = self_time_table(prof, rows)
    print(table)
    with open(stem + "-layers.txt", "w") as fh:
        fh.write(table + "\n")
    traced.tracer.write(stem + "-spans.tsv")
    metrics = {}
    for name, unit in spec.PER_LAYER:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<52} {values[name]:.6g} {unit}")
    print("trace.overhead_ratio is traced wall / untraced wall over the same phases")
    return metrics, {}


def run_workload(args):
    from workloads import WORKLOADS, Outcome

    cls = WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    work = os.path.join(HERE, "work", f"{args.workload}-seed{args.seed}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    outcome = Outcome()
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"), args.workload, str(args.seed), work],
                       check=True)
        with open(os.path.join(work, "inputs.json")) as fh:
            workload = cls(work, args.seed, json.load(fh))
        gc.collect()
        if args.trace:
            metrics, extra = per_layer(cls, workload, seconds, outcome, stem)
        else:
            metrics, extra = end_to_end(cls, workload, seconds, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in outcome.failures:
        print(f"FAILED CHECK: {failure}")
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }
    with open(stem + ".json", "w") as fh:
        json.dump({**result, **extra, "workload": args.workload, "seconds": seconds,
                   "failures": outcome.failures, "environment": environment(args.seed)}, fh, indent=2)
    print(json.dumps(result))


def run_all(args):
    """Each workload of BENCHMARK.json in its own process, one after another."""
    status = 0
    for name in spec.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        print(f"== {name}", flush=True)
        status = status or subprocess.run(cmd, cwd=ROOT, check=False).returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.workload not in spec.ALIASES:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(spec.ALIASES)}", file=sys.stderr)
        return 2
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 1
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
