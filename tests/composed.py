"""Elementwise graph ops that the program no longer runs, kept as test oracles.

``sub``, ``mul``, ``scale``, ``sum_all``, ``log`` and ``clip`` are the
nodes the training loss was built from before ``ag.bce`` fused it; the
composed loss ``bce_loss`` / ``total_loss`` below is the oracle that node
is compared with bit for bit. Tests also use ``sum_all(mul(out, g))`` to
inject an upstream gradient ``g`` into any node.
"""

import numpy as np

from ccan import autograd as ag
from ccan.autograd import Tensor
from ccan.errors import ShapeError


def _check_same_shape(a, b, op):
    ag._check_same_dtype(a, b, op)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} do not match")


def sub(a, b):
    _check_same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)

    def backward(g):
        if a.requires_grad:
            ag._accum(a, g)
        if b.requires_grad:
            ag._accum(b, -g, owned=True)

    return ag._make_node(out, (a, b), backward)


def mul(a, b):
    """Elementwise product; shapes must match exactly."""
    _check_same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)

    def backward(g):
        if a.requires_grad:
            ag._accum(a, g * b.data, owned=True)
        if b.requires_grad:
            ag._accum(b, g * a.data, owned=True)

    return ag._make_node(out, (a, b), backward)


def scale(a, s):
    """a * s for a python scalar s."""
    s = float(s)
    out = Tensor(a.data * np.asarray(s, dtype=a.data.dtype))

    def backward(g):
        if a.requires_grad:
            ag._accum(a, g * s, owned=True)

    return ag._make_node(out, (a,), backward)


def sum_all(a):
    """Sum of every entry, as a scalar tensor."""
    out = Tensor(a.data.sum(dtype=a.data.dtype))

    def backward(g):
        if a.requires_grad:
            ag._accum(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype), owned=True)

    return ag._make_node(out, (a,), backward)


def log(x):
    out = Tensor(np.log(x.data))

    def backward(g):
        if x.requires_grad:
            ag._accum(x, g / x.data, owned=True)

    return ag._make_node(out, (x,), backward)


def clip(x, lo, hi):
    """Clamp to [lo, hi]; gradient passes through wherever lo <= x <= hi."""
    out = Tensor(np.clip(x.data, lo, hi))
    mask = (x.data >= lo) & (x.data <= hi)

    def backward(g):
        if x.requires_grad:
            ag._accum(x, g * mask, owned=True)

    return ag._make_node(out, (x,), backward)


def bce_loss(probs, targets):
    """Mean binary cross entropy of one stage, composed from the ops above (9 nodes)."""
    t = np.asarray(targets, dtype=probs.data.dtype).reshape(probs.data.shape)
    p = clip(probs, 1e-7, 1.0 - 1e-7)
    ones = Tensor(np.ones_like(p.data))
    pos = mul(Tensor(t), log(p))
    neg = mul(Tensor(1.0 - t), log(sub(ones, p)))
    return scale(sum_all(pos + neg), -1.0 / p.data.size)


def total_loss(per_stage_losses):
    """Sum (not mean) of the per-stage loss terms, one ``add`` node per further stage."""
    total = per_stage_losses[0]
    for term in per_stage_losses[1:]:
        total = total + term
    return total


def composed_bce(probs, target):
    """The graph ``ag.bce(probs, target)`` replaces."""
    return total_loss([bce_loss(p, target) for p in probs])
