"""Scaled dot-product attention and the residual cross/self blocks.

Blocks are pre-norm transformer blocks: an attention sub-layer and a
4x-expansion GELU MLP, both residual. Every attention call records its
row-stochastic softmax matrix so explanations can be assembled later.

Each head's attention is one graph node, ``autograd.attention``. The key
projections write their output column-major, so the node reads K^T as a
C-contiguous view instead of copying it. In float32 these keys carry the
same bits as a row-major projection at every shape tested (the tests pin
TOY shapes and d=512 with N in {309, 3091}); in float64, which only the
gradient oracle uses, BLAS rounds some large shapes differently.

The default logit scale is sqrt(#query rows) ("per-paper" mode); the
conventional sqrt(head dim) is available as "per-dim". More than one
head forces per-dim scaling.
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
    """One attention call's softmax matrix plus where it happened."""

    matrix: np.ndarray  # Q_rows x K_rows, row-stochastic
    kind: str  # "cross" | "self"
    stage_index: int = 0
    layer_index: int = 0


@dataclass
class BlockParams:
    """Learned parameters of one attention block."""

    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    b_k: Tensor
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


def init_block_params(d_latent, rng, dtype=np.float32):
    """Normal(0, 0.02) projections, zero biases, identity layer norms.

    Blocks always operate at width d_latent; contexts wider than that are
    projected down before reaching any block.
    """

    def w(shape):
        return Tensor((rng.normal(0.0, 0.02, size=shape)).astype(dtype), requires_grad=True)

    def b(n):
        return Tensor(np.zeros(n, dtype=dtype), requires_grad=True)

    def ones(n):
        return Tensor(np.ones(n, dtype=dtype), requires_grad=True)

    return BlockParams(
        w_q=w((d_latent, d_latent)),
        b_q=b(d_latent),
        w_k=w((d_latent, d_latent)),
        b_k=b(d_latent),
        w_v=w((d_latent, d_latent)),
        b_v=b(d_latent),
        w_o=w((d_latent, d_latent)),
        b_o=b(d_latent),
        ln1_gamma=ones(d_latent),
        ln1_beta=b(d_latent),
        ln2_gamma=ones(d_latent),
        ln2_beta=b(d_latent),
        w_m1=w((d_latent, 4 * d_latent)),
        b_m1=b(4 * d_latent),
        w_m2=w((4 * d_latent, d_latent)),
        b_m2=b(d_latent),
    )


def attention_scale(scale_mode, n_query_rows, head_dim):
    if scale_mode == "per-paper":
        return float(np.sqrt(n_query_rows))
    if scale_mode == "per-dim":
        return float(np.sqrt(head_dim))
    raise ConfigError(f"unknown scale_mode {scale_mode!r}; expected one of {SCALE_MODES}")


def scaled_attention(q, k, v, scale, kind="cross", stage_index=0, layer_index=0):
    """softmax(Q K^T / scale) V, returning the output and the recorded matrix."""
    if scale <= 0:
        raise ConfigError(f"attention scale must be positive, got {scale}")
    out, attn = ag.attention(q, k, v, scale)
    # the record shares the softmax matrix the node saved for its backward
    record = AttentionRecord(matrix=attn, kind=kind, stage_index=stage_index, layer_index=layer_index)
    return out, record


def _attend(q, k, v, scale_mode, heads, kind, stage_index, layer_index):
    """Single- or multi-head attention over already-projected q/k/v."""
    d = q.shape[1]
    if heads == 1:
        scale = attention_scale(scale_mode, q.shape[0], d)
        return scaled_attention(q, k, v, scale, kind, stage_index, layer_index)
    if d % heads != 0:
        raise ConfigError(f"latent dim {d} not divisible by {heads} heads")
    head_dim = d // heads
    scale = attention_scale("per-dim", q.shape[0], head_dim)
    outs = []
    mats = []
    for h in range(heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        out_h, rec_h = scaled_attention(
            ag.slice_cols(q, lo, hi), ag.slice_cols(k, lo, hi), ag.slice_cols(v, lo, hi),
            scale, kind, stage_index, layer_index,
        )
        outs.append(out_h)
        mats.append(rec_h.matrix)
    record = AttentionRecord(
        matrix=np.mean(mats, axis=0), kind=kind, stage_index=stage_index, layer_index=layer_index
    )
    return ag.concat_cols(outs), record


def _mlp(x, params):
    h = ag.layer_norm(x, params.ln2_gamma, params.ln2_beta)
    h = ag.gelu(ag.linear(h, params.w_m1, params.b_m1))
    return ag.linear(h, params.w_m2, params.b_m2)


def cross_attention_block(latents, context, params, scale_mode="per-paper", heads=1,
                          stage_index=0, layer_index=0):
    """Latents attend to a (possibly much larger) context set.

    Residual form: attention onto normed latents with keys/values from
    the raw context, then the residual MLP sub-layer.
    """
    if context.shape[0] < 1:
        raise DataError("cross-attention requires a nonempty context")
    h = ag.layer_norm(latents, params.ln1_gamma, params.ln1_beta)
    q = ag.linear(h, params.w_q, params.b_q)
    k = ag.linear(context, params.w_k, params.b_k, order="F")
    v = ag.linear(context, params.w_v, params.b_v)
    attn_out, record = _attend(q, k, v, scale_mode, heads, "cross", stage_index, layer_index)
    x = latents + ag.linear(attn_out, params.w_o, params.b_o)
    x = x + _mlp(x, params)
    return x, record


def self_attention_block(tokens, params, scale_mode="per-paper", heads=1,
                         stage_index=0, layer_index=0):
    """Pre-norm self-attention block; the recorded matrix is m x m."""
    h = ag.layer_norm(tokens, params.ln1_gamma, params.ln1_beta)
    q = ag.linear(h, params.w_q, params.b_q)
    k = ag.linear(h, params.w_k, params.b_k, order="F")
    v = ag.linear(h, params.w_v, params.b_v)
    attn_out, record = _attend(q, k, v, scale_mode, heads, "self", stage_index, layer_index)
    x = tokens + ag.linear(attn_out, params.w_o, params.b_o)
    x = x + _mlp(x, params)
    return x, record
