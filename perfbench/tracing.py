"""Spans around the public functions of the ccan layers, kept in memory.

A ``Tracer`` replaces every public function and method of the layer
modules with a wrapper that records a span (name, start, end, parent,
tag), at every place the name is looked up: the defining module, any
ccan module that imported it by name, or the class. Leaving the ``with``
block puts every original back.

With ``only`` set, just those names are wrapped; the untraced run uses
that for the few boundary timestamps step timing needs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

from spec import LAYERS

BOUNDARY = ("model.CCANModel.forward", "training.adamw_step", "training.evaluate_auc")

# autograd calls that are not graph operations
NOT_OPS = {"autograd.backward", "autograd.zero_grad", "autograd.grad_check"}


def _forward_tag(args, kwargs, out):
    train_mode = kwargs.get("train_mode", args[3] if len(args) > 3 else False)
    record_bytes = sum(rec.matrix.nbytes for so in out.stages for rec in so.records)
    return (bool(train_mode), len(out.kept_indices), record_bytes, out.averaged_probs)


def _matmul_tag(args, kwargs, out):
    a, b = (getattr(x, "data", x) for x in args[:2])
    return a.shape[0] * a.shape[1] * b.shape[1]


# what each span keeps beyond its times, computed after the span has ended
TAGS = {
    "model.CCANModel.forward": _forward_tag,
    "model.CCANModel.stage_forward": lambda args, kwargs, out: args[1],
    "training.evaluate_auc": lambda args, kwargs, out: len(args[1]),
    "autograd.matmul": _matmul_tag,
    "preprocess.tessellate": lambda args, kwargs, out: len(out),
    "data.read_bag": lambda args, kwargs, out: os.path.getsize(args[0]),
}


def _own(fn, module):
    return inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__


def targets():
    """(span name, owner, attribute, original) for every public callable of the layers.

    Methods count when the class body defines them; ``__init__`` counts
    too, except in autograd, where ``Tensor.__init__`` runs once per graph
    node and the operations that call it are already spans.
    """
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"ccan.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if _own(obj, module):
                found.append((f"{layer}.{attr}", module, attr, obj))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for mattr, member in vars(obj).items():
                    if mattr.startswith("_") and not (mattr == "__init__" and layer != "autograd"):
                        continue
                    raw = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                    if _own(raw, module):
                        found.append((f"{layer}.{attr}.{mattr}", obj, mattr, member))
    return found


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, only=None):
        self.only = None if only is None else set(only)
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.tags = []
        self._stack = [-1]
        self._saved = []

    def _wrap(self, name, fn):
        names, starts, ends, parents, tags, stack = (
            self.names, self.starts, self.ends, self.parents, self.tags, self._stack)
        tag_fn = TAGS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            tags.append(None)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tag_fn is not None:
                tags[idx] = tag_fn(args, kwargs, out)
            return out

        return wrapper

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("ccan.")]
        try:
            for name, owner, attr, original in targets():
                if self.only is not None and name not in self.only:
                    continue
                if inspect.isclass(owner):
                    if isinstance(original, (classmethod, staticmethod)):
                        patched = type(original)(self._wrap(name, original.__func__))
                    else:
                        patched = self._wrap(name, original)
                    self._patch(owner, attr, patched)
                    continue
                patched = self._wrap(name, original)
                for module in modules:
                    if vars(module).get(attr) is original:
                        self._patch(module, attr, patched)
        except BaseException:
            self.__exit__()
            raise
        return self

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def __len__(self):
        return len(self.names)

    def spans(self, name, t0=None, t1=None):
        """(start, end, tag) of every span called ``name``, optionally within [t0, t1]."""
        return [
            (s, e, tag)
            for n, s, e, tag in zip(self.names, self.starts, self.ends, self.tags)
            if n == name and (t0 is None or (t0 <= s and e <= t1))
        ]

    def self_times(self):
        """Per-span duration minus the durations of its direct children, in ns."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def write(self, path):
        """Tab-separated spans: id, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i}\t{p}\t{n}\t{s}\t{e}\n")
