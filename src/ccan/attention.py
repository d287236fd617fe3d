"""The residual cross and self attention blocks, each a graph node.

Blocks are pre-norm transformer blocks: an attention sub-layer and a
4x-expansion GELU MLP, both residual. A block returns its output and the
M x N softmax its node keeps for the backward; the model keeps only the
softmaxes that explanations read, as ``AttentionRecord``s.

The key projection has no bias. A key bias b would add q . b to every
logit of a query row, and softmax removes any row-constant shift, so such
a bias could change no output and its gradient would be exactly zero.

A block is one graph node. Its forward runs LN -> Q/K/V -> attention ->
output projection -> residual -> LN -> MLP -> residual with the kernels
of ``autograd`` that its graph ops also call, and its hand-written
backward reads only what the node keeps: the first layer norm's row means
and ``inv`` (its ``xhat`` is remade from these and the block input), the
second's ``xhat`` and ``inv`` (both outputs are remade from ``xhat``), Q,
K, V, the softmax, the attention output, the GELU output and GELU's
float64 derivative.
Every operation runs in the order of the graph of separate linear,
layer-norm, attention, GELU and add nodes, and each gradient is added
into a shared input in the order that graph's tape adds it (a self
block's normed input takes Q's, then K's, then V's), so float32 outputs,
softmaxes and gradients keep that graph's bits; the graph is the oracle in
``tests/composed.py``. A cross block's keys and values of its context are
a second node, which the backward pass reaches only after every block
downstream of it, as it reached the separate key and value nodes: so the
projected input tokens, which several cross blocks read, take their
gradients in the tape's order (block by block in forward order, keys
before values).

Attention has one head. The keys are written column-major, so K^T is a
C-contiguous view, not a copy. In float32 these keys carry the same bits
as a row-major projection at every shape tested (the tests pin TOY shapes
and d=512 with N in {309, 513, 3091}); in float64, which only the
gradient oracle uses, BLAS rounds some large shapes differently.

The logits are divided by sqrt(#query rows), as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import DataError, ShapeError, UsageError


@dataclass
class AttentionRecord:
    """One block's softmax."""

    matrix: np.ndarray  # Q_rows x K_rows, row-stochastic


def _param(shape, fill=None):
    """A ``BlockParams`` field: its shape in units of the block width d, and its ``fill_param`` fill."""
    return field(metadata={"shape": shape, "fill": fill})


@dataclass
class BlockParams:
    """Learned parameters of one attention block: Normal(0, 0.02) projections, zero biases, identity layer norms.

    Blocks always operate at width d_latent; contexts wider than that are
    projected down before reaching any block.
    """

    w_q: Tensor = _param((1, 1))
    b_q: Tensor = _param((1,), 0.0)
    w_k: Tensor = _param((1, 1))
    w_v: Tensor = _param((1, 1))
    b_v: Tensor = _param((1,), 0.0)
    w_o: Tensor = _param((1, 1))
    b_o: Tensor = _param((1,), 0.0)
    ln1_gamma: Tensor = _param((1,), 1.0)
    ln1_beta: Tensor = _param((1,), 0.0)
    ln2_gamma: Tensor = _param((1,), 1.0)
    ln2_beta: Tensor = _param((1,), 0.0)
    w_m1: Tensor = _param((1, 4))
    b_m1: Tensor = _param((4,), 0.0)
    w_m2: Tensor = _param((4, 1))
    b_m2: Tensor = _param((1,), 0.0)

    @staticmethod
    def layout(d):
        """(name, shape, fill) of each tensor of a width-``d`` block, in field order."""
        return [(f.name, tuple(d * k for k in f.metadata["shape"]), f.metadata["fill"]) for f in fields(BlockParams)]

    def named_tensors(self):
        return [(f.name, getattr(self, f.name)) for f in self.__dataclass_fields__.values()]


def fill_param(out, fill, rng):
    """Fill a parameter's array ``out`` whole: Normal(0, 0.02) draws from ``rng`` if ``fill`` is None, else ``fill``."""
    out[...] = rng.normal(0.0, 0.02, out.shape) if fill is None else fill


def _kv_views(kv, d):
    """K^T (d x N) and V (N x d), the two rows of a packed 2 x (N * d) array."""
    n = kv.shape[1] // d
    return kv[0].reshape(d, n), kv[1].reshape(n, d)


def _project_kv(src, params):
    """K = src @ w_k, written column-major, and V = src @ w_v + b_v, packed for ``_kv_views``."""
    d = params.w_k.shape[1]
    kv = np.empty((2, src.shape[0] * d), dtype=src.dtype)
    kt, v = _kv_views(kv, d)
    ag._matmul(src, params.w_k.data, kt.T)
    ag._matmul(src, params.w_v.data, v)
    v += params.b_v.data
    return kv


def _project_kv_backward(gkv, src, params, dx=True):
    """Add the gradients of w_k, w_v and b_v; return K's and V's dL/dsrc if ``dx``."""
    gkt, gv = _kv_views(gkv, params.w_k.shape[1])
    # dL/dK is laid out like the column-major K; its GEMMs take it C-ordered
    from_k = ag._linear_backward(np.ascontiguousarray(gkt.T), src, params.w_k, None, dx)
    from_v = ag._linear_backward(gv, src, params.w_v, params.b_v, dx)
    return from_k, from_v


def _context_kv(context, params):
    """A cross block's keys and values of ``context`` as one node, packed for ``_kv_views``."""
    kv = Tensor(_project_kv(context.data, params))

    def backward(g):
        from_k, from_v = _project_kv_backward(g, context.data, params, dx=context.requires_grad)
        if context.requires_grad:
            ag._accum(context, from_k, owned=True)
            ag._accum(context, from_v, owned=True)

    return ag._make_node(kv, (context, params.w_k, params.w_v, params.b_v), backward)


def _check_block(x, context, params):
    """The dtype and shape checks of a block's inputs."""
    tensors = [x] + ([] if context is None else [context]) + [t for _, t in params.named_tensors()]
    if len({t.dtype for t in tensors}) > 1:
        raise UsageError(f"attention block: mixed dtypes {sorted({str(t.dtype) for t in tensors})}")
    d = params.w_q.shape[0]
    for name, t in (("input", x), ("context", context)):
        if t is not None and (t.data.ndim != 2 or t.shape[1] != d):
            raise ShapeError(f"attention block: {name} of shape {t.shape} is not n x {d}")
    if context is not None and context.shape[0] < 1:
        raise DataError("cross-attention requires a nonempty context")


def _block(x, context, params):
    """The pre-norm residual block both kinds share, as one node (see the module docstring).

    Queries come from the normed ``x``; keys and values from ``context``,
    or from the normed ``x`` when ``context`` is None. Returns the node
    and its M x N softmax.
    """
    _check_block(x, context, params)
    p, d = params, params.w_q.shape[0]
    scale = float(np.sqrt(x.shape[0]))
    kv = None if context is None else _context_kv(context, params)
    # kv goes last: the backward's graph walk then finishes it before this block's input
    parents = [x] + [t for name, t in p.named_tensors() if kv is None or name not in ("w_k", "w_v", "b_v")]
    parents += [] if kv is None else [kv]
    keep = ag._recording(parents)

    h, xhat1, inv1, mu1 = ag._layer_norm(x.data, p.ln1_gamma.data, p.ln1_beta.data)
    del xhat1  # the backward makes it again from the block input, which the graph holds anyway
    q = ag._linear(h, p.w_q.data, p.b_q.data)
    kvd = _project_kv(h, p) if kv is None else kv.data
    del h
    kt, v = _kv_views(kvd, d)
    y, att = ag._attention(q, kt, v, scale)
    x1 = ag._linear(y, p.w_o.data, p.b_o.data)
    np.add(x.data, x1, out=x1)  # the residual x + attention
    h2, xhat2, inv2, _ = ag._layer_norm(x1, p.ln2_gamma.data, p.ln2_beta.data)
    a = ag._linear(h2, p.w_m1.data, p.b_m1.data)
    del h2
    gl, dydx = ag._gelu(a, keep)
    del a
    out = ag._linear(gl, p.w_m2.data, p.b_m2.data)
    np.add(x1, out, out=out)  # the residual x1 + MLP
    del x1

    def backward(g):
        g_gl = ag._linear_backward(g, gl, p.w_m2, p.b_m2)
        g_a = ag._gelu_backward(g_gl, dydx)
        h2 = ag._layer_norm_affine(xhat2, p.ln2_gamma.data, p.ln2_beta.data)
        g_h2 = ag._linear_backward(g_a, h2, p.w_m1, p.b_m1)
        g_x1 = ag._layer_norm_backward(g_h2, xhat2, inv2, p.ln2_gamma, p.ln2_beta)
        g_x1 += g  # the residual x1 + MLP
        g_y = ag._linear_backward(g_x1, y, p.w_o, p.b_o)
        gkv = np.empty_like(kvd)
        gkt, gv = _kv_views(gkv, d)
        gq = ag._attention_backward(g_y, q, kt, v, att, scale, gkt, gv)
        if x.requires_grad:
            ag._accum(x, g_x1, owned=True)
        xhat1 = x.data - mu1
        xhat1 *= inv1
        h = ag._layer_norm_affine(xhat1, p.ln1_gamma.data, p.ln1_beta.data)
        g_h = ag._linear_backward(gq, h, p.w_q, p.b_q)
        if kv is None:
            for part in _project_kv_backward(gkv, h, p):
                g_h += part
        else:
            ag._accum(kv, gkv, owned=True)
        g_x = ag._layer_norm_backward(g_h, xhat1, inv1, p.ln1_gamma, p.ln1_beta)
        if x.requires_grad:
            ag._accum(x, g_x, owned=True)

    return ag._make_node(Tensor(out), parents, backward), att


def cross_attention_block(latents, context, params):
    """Latents attend to a (possibly much larger) context set.

    Residual form: attention onto normed latents with keys/values from
    the raw context, then the residual MLP sub-layer.
    """
    return _block(latents, context, params)


def self_attention_block(tokens, params):
    """Pre-norm self-attention block; its softmax is m x m."""
    return _block(tokens, None, params)
