"""Scaled dot-product attention and the residual cross/self blocks.

Blocks are pre-norm transformer blocks: an attention sub-layer and a
4x-expansion GELU MLP, both residual. Every attention call records its
row-stochastic softmax matrix so explanations can be assembled later.

The key projection has no bias. A key bias b would add q . b to every
logit of a query row, and softmax removes any row-constant shift, so such
a bias could change no output and its gradient would be exactly zero.

All heads of a block's attention are one graph node,
``autograd.attention``: head h is column group h of the query, key and
value projections, read through views. The key projections write their
output column-major, so the node reads K^T as a C-contiguous view
instead of copying it, and head h's keys are rows of it. In float32
these keys carry the same bits as a row-major projection at every shape
tested (the tests pin TOY shapes and d=512 with N in {309, 513, 3091});
in float64, which only the gradient oracle uses, BLAS rounds some large
shapes differently. Cross and self blocks share one body; a self block
takes its keys and values from its own normed input.

The default logit scale is sqrt(#query rows) ("per-paper" mode); the
conventional sqrt(head dim) is available as "per-dim". Model configs
reject more than one head with per-paper scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ConfigError, DataError

SCALE_MODES = ("per-paper", "per-dim")


@dataclass
class AttentionRecord:
    """One attention call's softmax matrix and the kind of block it came from."""

    matrix: np.ndarray  # Q_rows x K_rows, row-stochastic
    kind: str  # "cross" | "self"


@dataclass
class BlockParams:
    """Learned parameters of one attention block."""

    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_o: Tensor
    b_o: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    w_m1: Tensor
    b_m1: Tensor
    w_m2: Tensor
    b_m2: Tensor

    def named_tensors(self):
        return [(f.name, getattr(self, f.name)) for f in self.__dataclass_fields__.values()]


def init_weight(rng, shape, dtype):
    """A trainable Normal(0, 0.02) weight drawn from ``rng``; unfilled when ``rng`` is None.

    A checkpoint load passes None: it writes every value itself, so
    drawing them first would only cost time.
    """
    if rng is None:
        return Tensor(np.empty(shape, dtype=dtype), requires_grad=True)
    return Tensor(rng.normal(0.0, 0.02, size=shape).astype(dtype), requires_grad=True)


def init_bias(n, dtype):
    """A trainable zero bias (no draw from any rng)."""
    return Tensor(np.zeros(n, dtype=dtype), requires_grad=True)


def init_block_params(d_latent, rng, dtype=np.float32):
    """Normal(0, 0.02) projections, zero biases, identity layer norms.

    With ``rng`` None the projections are left unfilled (see ``init_weight``).

    Blocks always operate at width d_latent; contexts wider than that are
    projected down before reaching any block.
    """
    d = d_latent
    return BlockParams(
        w_q=init_weight(rng, (d, d), dtype),
        b_q=init_bias(d, dtype),
        w_k=init_weight(rng, (d, d), dtype),
        w_v=init_weight(rng, (d, d), dtype),
        b_v=init_bias(d, dtype),
        w_o=init_weight(rng, (d, d), dtype),
        b_o=init_bias(d, dtype),
        ln1_gamma=Tensor(np.ones(d, dtype=dtype), requires_grad=True),
        ln1_beta=init_bias(d, dtype),
        ln2_gamma=Tensor(np.ones(d, dtype=dtype), requires_grad=True),
        ln2_beta=init_bias(d, dtype),
        w_m1=init_weight(rng, (d, 4 * d), dtype),
        b_m1=init_bias(4 * d, dtype),
        w_m2=init_weight(rng, (4 * d, d), dtype),
        b_m2=init_bias(d, dtype),
    )


def attention_scale(scale_mode, n_query_rows, head_dim):
    if scale_mode == "per-paper":
        return float(np.sqrt(n_query_rows))
    if scale_mode == "per-dim":
        return float(np.sqrt(head_dim))
    raise ConfigError(f"unknown scale_mode {scale_mode!r}; expected one of {SCALE_MODES}")


def _mlp(x, params):
    h = ag.layer_norm(x, params.ln2_gamma, params.ln2_beta)
    h = ag.gelu(ag.linear(h, params.w_m1, params.b_m1))
    return ag.linear(h, params.w_m2, params.b_m2)


def _block(x, context, params, scale_mode, heads, kind):
    """The pre-norm residual block both kinds share.

    Queries come from the normed ``x``; keys and values from ``context``,
    or from the normed ``x`` when ``context`` is None.
    """
    if context is not None and context.shape[0] < 1:
        raise DataError("cross-attention requires a nonempty context")
    h = ag.layer_norm(x, params.ln1_gamma, params.ln1_beta)
    kv = h if context is None else context
    q = ag.linear(h, params.w_q, params.b_q)
    k = ag.linear(kv, params.w_k, None, order="F")
    v = ag.linear(kv, params.w_v, params.b_v)
    scale = attention_scale(scale_mode, q.shape[0], q.shape[1] // heads)
    attn_out, p = ag.attention(q, k, v, scale, heads)
    x = x + ag.linear(attn_out, params.w_o, params.b_o)
    x = x + _mlp(x, params)
    # one head's record shares the softmax the node saved for its backward
    return x, AttentionRecord(matrix=p[0] if heads == 1 else p.mean(axis=0), kind=kind)


def cross_attention_block(latents, context, params, scale_mode="per-paper", heads=1):
    """Latents attend to a (possibly much larger) context set.

    Residual form: attention onto normed latents with keys/values from
    the raw context, then the residual MLP sub-layer.
    """
    return _block(latents, context, params, scale_mode, heads, "cross")


def self_attention_block(tokens, params, scale_mode="per-paper", heads=1):
    """Pre-norm self-attention block; the recorded matrix is m x m."""
    return _block(tokens, None, params, scale_mode, heads, "self")
