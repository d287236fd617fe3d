"""Dense tensors with reverse-mode automatic differentiation.

A deliberately small kernel surface, holding only what the model and
its loss run. The graph ops are the fused affine map ``linear(x, W, b) =
x @ W + b`` (one graph node; ``b=None`` gives a bias-free ``x @ W``),
GELU and sigmoid, the residual ``add``, row pooling, row slicing and
stacking, and the training loss ``bce`` (one node for every stage's
clipped binary cross entropy). No shape is broadcast implicitly:
``linear`` adds every bias, and any other shape mismatch is an error.

Each attention block of the model is one graph node too, built in
``attention.py`` from the numpy kernels here: ``_linear``, ``_gelu``,
``_layer_norm`` and ``_attention``, each with its backward. The graph ops
``linear`` and ``gelu`` call the same kernels, so each piece of
arithmetic exists once. ``_attention`` runs ``softmax(q @ k.T / scale)
@ v`` as plain 2-D products, scaling and normalizing in place a block of
rows at a time; the GELU kernels run a block of elements at a time and
keep the float64 derivative instead of the input. The graph ops the
blocks were built from before, ``layer_norm`` and ``attention``, live in
``tests/`` as the oracles the kernels and the block nodes are compared
with bit for bit.

Gradient buffers are owned, not zero-filled: a backward closure that
computes a fresh array (``g @ W.T``, ``X.T @ g``, ``g.sum(0)``, an
elementwise product) hands it to ``_accum`` with ``owned=True``, and the
first write into a tensor adopts it as ``grad`` when it is laid out like
``data``. Any other first write copies once; later writes add in place.
So no gradient is shared between two tensors, and the sums equal those of
zero-fill-then-add. Inside ``training.train`` each parameter's ``grad`` is
preset to a zeroed view of the window's gradient array, so every write
into it adds. A graph is backpropagated once: ``backward`` frees what each
node saved as soon as the node's closure has run.

Tensors are float32 by default. Entire graphs may instead run in float64
(pass float64 arrays in), which is how the finite-difference oracle
``grad_check`` in ``tests/composed.py`` reaches full precision.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from .errors import NumericError, ShapeError, UsageError

_ALLOWED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class OpProbe:
    """Accumulates multiply-accumulate counts and tensor allocation bytes."""

    __slots__ = ("macs", "tensor_bytes")

    def __init__(self):
        self.macs = 0
        self.tensor_bytes = 0


_probe: OpProbe | None = None
_grad_enabled: bool = True


@contextmanager
def op_probe():
    """Count matrix-product MACs and allocated tensor bytes inside the block."""
    global _probe
    prev, _probe = _probe, OpProbe()
    try:
        yield _probe
    finally:
        _probe = prev


@contextmanager
def no_grad():
    """Skip graph construction inside the block (pure inference)."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A real-valued array, optionally a node in a differentiation graph.

    Immutable after construction except for the ``grad`` accumulator and
    the graph links that ``backward`` releases; ``grad``, when present,
    always matches ``data`` in shape. A model parameter's ``data`` is
    rebound once, by the pack into ``values``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        # float64 is opt-in: only explicit float64 arrays/scalars keep it
        if isinstance(data, (np.ndarray, np.generic)) and data.dtype in _ALLOWED_DTYPES:
            arr = np.asarray(data)
        else:
            arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        if _probe is not None:
            _probe.tensor_bytes += arr.nbytes

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)


def _check_same_dtype(a, b, op):
    if a.data.dtype != b.data.dtype:
        raise UsageError(f"{op}: mixed dtypes {a.data.dtype} and {b.data.dtype}")


def _accum(t, g, owned=False):
    """Add ``g`` into ``t.grad``; ``owned`` means nothing else holds ``g``."""
    if t.grad is not None:
        t.grad += g
    elif owned and g.dtype == t.data.dtype and g.shape == t.data.shape and g.strides == t.data.strides:
        t.grad = g
    else:
        t.grad = np.empty_like(t.data)
        t.grad[...] = g


def _recording(parents):
    """Whether a node over ``parents`` joins the graph: grad mode is on and one of them needs a grad."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make_node(out, parents, backward):
    if _recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# kernels: the arithmetic of the ops below and of the attention block nodes
# (``attention.py``), on plain arrays. Only forward products count MACs.


# Rows (or elements) that a kernel scales, normalizes or differentiates
# together: a 256 KiB block stays in a core's L2.
_BLOCK_BYTES = 1 << 18


def _matmul(a, b, out):
    """A forward product ``a @ b`` into ``out``; an active ``op_probe`` counts its MACs."""
    if _probe is not None:
        _probe.macs += a.size * b.shape[-1]
    return np.matmul(a, b, out=out)


def _linear(x, w, b):
    """x @ w + b (just x @ w when ``b`` is None) into a fresh C-ordered array."""
    y = _matmul(x, w, np.empty((x.shape[0], w.shape[1]), dtype=x.dtype))
    if b is not None:
        y += b
    return y


def _linear_backward(g, x, w, b, dx=True):
    """Add the gradients of y = x @ w + b into the tensors ``w`` and ``b``; return dL/dx if ``dx``."""
    if b is not None and b.requires_grad:
        _accum(b, g.sum(axis=0), owned=True)
    if w.requires_grad:
        _accum(w, x.T @ g, owned=True)
    return g @ w.data.T if dx else None


def _row_mean(a):
    """``a.mean(axis=-1, keepdims=True)``: numpy's two ufunc calls without its Python wrapper."""
    s = np.add.reduce(a, axis=-1, keepdims=True)
    return np.true_divide(s, np.intp(a.shape[-1]), out=s, casting="unsafe")


def _layer_norm(x, gamma, beta, eps=1e-5):
    """Each row of ``x`` to zero mean and unit variance, then affine; returns (y, xhat, inv, row means)."""
    mu = _row_mean(x)
    xhat = x - mu  # centred once; scaled in place below
    y = np.square(xhat)
    var = _row_mean(y)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    return _layer_norm_affine(xhat, gamma, beta, out=y), xhat, inv, mu


def _layer_norm_affine(xhat, gamma, beta, out=None):
    """xhat * gamma + beta, with the ufuncs of the forward: a backward recomputes y from xhat."""
    y = np.multiply(xhat, gamma, out=out)
    y += beta
    return y


def _layer_norm_backward(g, xhat, inv, gamma, beta):
    """Add the gradients of the tensors ``gamma`` and ``beta`` into them; return dL/dx."""
    if beta.requires_grad:
        _accum(beta, g.sum(axis=0), owned=True)
    if gamma.requires_grad:
        _accum(gamma, (g * xhat).sum(axis=0), owned=True)
    gx = g * gamma.data
    term1 = _row_mean(gx)
    term2 = _row_mean(gx * xhat)
    # inv * (gx - term1 - xhat * term2), one operation at a time, in place
    gx -= term1
    gx -= xhat * term2
    gx *= inv
    return gx


def _gelu(d, derivative):
    """Exact (erf-based) GELU of ``d``, and its derivative if asked; returns (y, dydx or None).

    Phi(x) and x * Phi(x) are evaluated in float64 whatever the input
    dtype, and rounded once into a ``y`` of the input's dtype. The
    derivative Phi(x) + x * phi(x) is float64, with exp(-x^2 / 2) taken in
    the input dtype. Both run a block of elements at a time.
    """
    y = np.empty(d.shape, dtype=d.dtype)
    dydx = np.empty(d.shape, dtype=np.float64) if derivative else None
    flat, flat_y = d.reshape(-1), y.reshape(-1)
    step = _BLOCK_BYTES // 8
    for lo in range(0, flat.size, step):
        x = flat[lo : lo + step]
        cdf = np.multiply(x, _INV_SQRT2, dtype=np.float64)
        erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        np.multiply(x, cdf, out=flat_y[lo : lo + step], dtype=np.float64, casting="same_kind")
        if dydx is not None:
            e = np.multiply(x, -0.5, dtype=x.dtype)
            e *= x
            np.exp(e, out=e)
            blk = np.multiply(e, _INV_SQRT_2PI, out=dydx.reshape(-1)[lo : lo + step], dtype=np.float64)
            blk *= x
            blk += cdf
    return y, dydx


def _gelu_backward(g, dydx):
    """dL/dx = dydx * g, in float64 and rounded once into g's dtype, a block at a time."""
    gx = np.empty(dydx.shape, dtype=g.dtype)
    flat_g, flat_d, flat_gx = g.reshape(-1), dydx.reshape(-1), gx.reshape(-1)
    step = _BLOCK_BYTES // 8
    for lo in range(0, flat_gx.size, step):
        np.multiply(flat_d[lo : lo + step], flat_g[lo : lo + step], out=flat_gx[lo : lo + step],
                    dtype=np.float64, casting="same_kind")
    return gx


def _attention(q, kt, v, scale):
    """softmax(q @ k.T / scale) @ v; returns (output, softmax).

    ``q`` is M x d, ``kt`` is K^T as a C-ordered d x N array, ``v`` is
    N x d_v and ``scale`` > 0. Scaling, the finiteness check, the row-max
    shift, exp and the row normalization run in place on the M x N logits,
    a block of rows at a time, with the same ufuncs as the composed form
    ``softmax(q @ k.T * (1 / scale)) @ v`` evaluated one operation at a
    time, so the output, the softmax and every gradient carry its bits.
    The M x N softmax serves both the backward pass and the caller's
    attention record.
    """
    m, n = q.shape[0], kt.shape[1]
    p = _matmul(q, kt, np.empty((m, n), dtype=q.dtype))
    s = np.asarray(1.0 / scale, dtype=p.dtype)
    rows = max(1, _BLOCK_BYTES // (n * p.itemsize))
    for lo in range(0, m, rows):
        blk = p[lo : lo + rows]
        blk *= s
        top = blk.max(axis=1, keepdims=True)
        # NaN and +-inf propagate through max and min
        if not (np.isfinite(top).all() and np.isfinite(blk.min())):
            raise NumericError("attention: logits contain NaN or infinite entries")
        blk -= top
        np.exp(blk, out=blk)
        blk /= blk.sum(axis=1, keepdims=True)
    return _matmul(p, v, np.empty((m, v.shape[1]), dtype=p.dtype)), p


def _attention_backward(g, q, kt, v, p, scale, gkt, gv):
    """Write dL/dK^T into ``gkt`` and dL/dv into ``gv``, laid out like ``kt`` and ``v``; return dL/dq."""
    m, n = p.shape
    np.matmul(p.T, g, out=gv)
    # softmax then scale backward, in place on the fresh dL/dP
    gp = np.matmul(g, v.T, out=np.empty_like(p))
    s = np.asarray(1.0 / scale, dtype=p.dtype)
    rows = max(1, _BLOCK_BYTES // (n * p.itemsize))
    prod = np.empty((min(rows, m), n), dtype=p.dtype)
    for lo in range(0, m, rows):
        gb, yb = gp[lo : lo + rows], p[lo : lo + rows]
        inner = np.multiply(gb, yb, out=prod[: len(gb)]).sum(axis=1, keepdims=True)
        gb -= inner
        gb *= yb
        gb *= s
    gq = np.matmul(gp, kt.T, out=np.empty(q.shape, dtype=p.dtype))
    np.matmul(q.T, gp, out=gkt)
    return gq


# ---------------------------------------------------------------------------
# graph ops


def add(a, b):
    """a + b for identical shapes."""
    _check_same_dtype(a, b, "add")
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not match")
    out = Tensor(a.data + b.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g)

    return _make_node(out, (a, b), backward)


def linear(x, w, b):
    """x @ w + b as one node: the product's backward plus the bias row sum.

    ``b=None`` is x @ w alone: no bias add, no bias parent, no bias
    gradient.
    """
    _check_same_dtype(x, w, "linear")
    if b is not None:
        _check_same_dtype(x, b, "linear")
    b_shape = w.data.shape[1:] if b is None else b.data.shape
    if x.data.ndim != 2 or w.data.ndim != 2 or len(b_shape) != 1:
        raise ShapeError(f"linear: expected 2-D x and w and 1-D b, got {x.data.shape}, {w.data.shape}, {b_shape}")
    if x.data.shape[1] != w.data.shape[0] or w.data.shape[1:] != b_shape:
        raise ShapeError(f"linear: shapes {x.data.shape}, {w.data.shape} and {b_shape} do not chain")
    out = Tensor(_linear(x.data, w.data, None if b is None else b.data))

    def backward(g):
        gx = _linear_backward(g, x.data, w, b, dx=x.requires_grad)
        if gx is not None:
            _accum(x, gx, owned=True)

    return _make_node(out, (x, w) if b is None else (x, w, b), backward)


def gelu(x):
    """Exact (erf-based) Gaussian error linear unit; ``_gelu`` gives its precision."""
    y, dydx = _gelu(x.data, _recording((x,)))
    out = Tensor(y)

    def backward(g):
        _accum(x, _gelu_backward(g, dydx), owned=True)

    return _make_node(out, (x,), backward)


def sigmoid(x):
    d = x.data
    e = np.exp(-np.abs(d))
    y = np.where(d >= 0, 1.0, e) / (1.0 + e)
    out = Tensor(y.astype(d.dtype))

    def backward(g):
        if x.requires_grad:
            _accum(x, (g * y * (1.0 - y)).astype(d.dtype), owned=True)

    return _make_node(out, (x,), backward)


# ---------------------------------------------------------------------------
# row structure


def concat_rows(parts):
    parts = list(parts)
    width = parts[0].data.shape[1]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[1] != width:
            raise ShapeError(f"concat_rows: inconsistent widths {[q.data.shape for q in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accum(p, g[lo:hi])

    return _make_node(out, tuple(parts), backward)


def slice_rows(x, start, stop):
    out = Tensor(x.data[start:stop].copy())

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[start:stop] = g
            _accum(x, gx, owned=True)

    return _make_node(out, (x,), backward)


def avg_pool_rows(x, group):
    """Mean over each group of ``group`` consecutive rows."""
    m = x.data.shape[0]
    if x.data.ndim != 2 or group < 1 or m % group != 0:
        raise ShapeError(f"avg_pool_rows: {m} rows not divisible into groups of {group}")
    y = x.data.reshape(m // group, group, x.data.shape[1]).mean(axis=1)
    out = Tensor(y.astype(x.data.dtype))

    def backward(g):
        if x.requires_grad:
            _accum(x, np.repeat(g, group, axis=0) / group, owned=True)

    return _make_node(out, (x,), backward)


def mean_rows(x):
    """Column-wise mean over all rows, kept 2-D with a single row."""
    return avg_pool_rows(x, x.data.shape[0])


def max_rows(x):
    """Column-wise max over all rows; gradient flows to the first argmax."""
    if x.data.ndim != 2 or x.data.shape[0] < 1:
        raise ShapeError(f"max_rows: expected a nonempty 2-D tensor, got {x.data.shape}")
    a, cols = x.data, np.arange(x.data.shape[1])
    # a.argmax(axis=0) would copy the whole array; a block of rows at a time, a later block wins only where it
    # is strictly greater, or NaN (argmax's maximum) over a number, so each column keeps its first maximum
    step = max(1, _BLOCK_BYTES // max(1, a[0].nbytes))
    idx = a[:step].argmax(axis=0)
    top = a[idx, cols]
    for lo in range(step, a.shape[0], step):
        i = a[lo : lo + step].argmax(axis=0) + lo
        t = a[i, cols]
        wins = (t > top) | (np.isnan(t) & ~np.isnan(top))
        idx[wins], top[wins] = i[wins], t[wins]
    out = Tensor(top[None, :])

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, (idx, cols), g[0])
            _accum(x, gx, owned=True)

    return _make_node(out, (x,), backward)


# ---------------------------------------------------------------------------
# loss


_BCE_LO, _BCE_HI = 1e-7, 1.0 - 1e-7


def bce(probs, target):
    """Sum over stages of each stage's mean binary cross entropy, as one node.

    ``probs`` holds one probability tensor per stage, all of one dtype;
    ``target`` holds the 0/1 targets, as many as each tensor has entries.
    A stage clamps its probabilities p to [1e-7, 1 - 1e-7], with no
    gradient where the clamp binds, and adds
    ``-mean(t * log(p) + (1 - t) * log(1 - p))`` to the loss. The forward
    and backward run the ufuncs of the composed graph (clip, two logs, two
    products, a difference, a sum, a scale, then one add per further stage)
    in its order, so the loss and every gradient keep its bits. That graph
    is the oracle in ``tests/composed.py``.
    """
    probs = list(probs)
    if not probs:
        raise UsageError("bce: needs at least one probability tensor")
    stages, total = [], None
    for x in probs:
        _check_same_dtype(probs[0], x, "bce")
        if x.data.size != np.size(target):
            raise ShapeError(f"bce: {np.size(target)} targets for probabilities of shape {x.data.shape}")
        t = np.asarray(target, dtype=x.data.dtype).reshape(x.data.shape)
        p = np.clip(x.data, _BCE_LO, _BCE_HI)
        u, q = 1.0 - t, 1.0 - p
        s = -1.0 / p.size
        loss = (t * np.log(p) + u * np.log(q)).sum(dtype=p.dtype) * np.asarray(s, dtype=p.dtype)
        total = loss if total is None else total + loss
        stages.append((x, t, u, p, q, s, (x.data >= _BCE_LO) & (x.data <= _BCE_HI)))
    out = Tensor(total)

    def backward(g):
        for x, t, u, p, q, s, inside in stages:
            if x.requires_grad:
                gs = np.full(p.shape, g * s, dtype=p.dtype)
                gx = gs * t / p
                gx -= gs * u / q
                gx *= inside
                _accum(x, gx, owned=True)

    return _make_node(out, probs, backward)


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(loss):
    """Populate grads of every reachable tensor with requires_grad, and release the graph.

    A graph is backpropagated once: each node drops its closure, with what
    it saved, and its parents as soon as its closure has run, so the pass
    frees the graph as it goes. A later pass that reaches a released node
    is a UsageError; run the forward again. Leaves keep their grads, and
    passes over new graphs accumulate into them; call ``zero_grad`` on
    parameters between passes.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward: loss must be a scalar, got shape {loss.data.shape}")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is None:
            raise UsageError("backward: this graph was already backpropagated; run the forward again")
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    _accum(loss, np.ones_like(loss.data), owned=True)
    # reverse topological order: every consumer of a node has run before it,
    # so its grad is complete here and nothing reads it afterwards. Interior
    # grads are scratch space, released as soon as they are passed on; only
    # leaves keep theirs. A node leaves the walk as it runs, so once its
    # consumers have run too nothing of the graph holds it.
    while topo:
        node = topo.pop()
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = node._backward = node._parents = None


def zero_grad(params):
    for p in params:
        p.grad = None
