"""Graph ops and checks that the program does not run, kept as test oracles.

``sub``, ``mul``, ``scale``, ``sum_all``, ``log`` and ``clip`` are the
nodes the training loss was built from before ``ag.bce`` fused it; the
composed loss ``bce_loss`` / ``total_loss`` below is the oracle that node
is compared with bit for bit. Tests also use ``sum_all(mul(out, g))`` to
inject an upstream gradient ``g`` into any node.

``layer_norm`` and ``attention`` are the graph ops the attention blocks
were built from before each block became one node; ``composed_block``
builds a block from them, ``ag.linear`` and ``ag.gelu``, and is the
oracle the block nodes are compared with bit for bit. ``init_block_params``
gives a test a block of its own tensors, outside any model's ``values``.

``chain_rollout`` is the general attention rollout over every record of
a stage (as ``record_every_block`` collects them), which
``explain.rollout_stage`` reduced to one row product, and
``sigmoid_values`` the expression ``ag.sigmoid`` evaluated before it
took ``exp`` once. ``gelu_values`` is the whole-array scipy expression
``ag._gelu`` and ``ag._gelu_backward`` compute a block at a time, with
erf taken of the signed argument.

``grad_check`` is the finite-difference oracle every analytic gradient is
checked with, and ``GradReport`` its outcome. It uses the five-point
central stencil, whose truncation error is O(h^4), so at the usual
h = 1e-3 the stencil error sits near roundoff rather than near the size
of a small gradient; run the graph in float64 for full precision.

``byte_flips`` and ``flipped`` damage a file's bytes for the readers'
Hypothesis properties: each damaged file must raise a ``CCANError`` or
read exactly what its bytes hold.
"""

from dataclasses import dataclass, field

import numpy as np
from hypothesis import strategies as st
from scipy.special import erf

from ccan import autograd as ag
from ccan.attention import BlockParams, fill_param
from ccan.autograd import Tensor
from ccan.errors import DataError, NumericError, ShapeError, UsageError


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


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize each row of a matrix to zero mean / unit variance, then affine."""
    if x.data.ndim != 2 or x.data.shape[1] < 1:
        raise ShapeError(f"layer_norm: expected a 2-D tensor with nonempty rows, got {x.data.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu  # centred once; scaled in place below
    y = np.square(xhat)
    var = y.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    out = Tensor(y)

    def backward(g):
        if beta.requires_grad:
            ag._accum(beta, g.sum(axis=0), owned=True)
        if gamma.requires_grad:
            ag._accum(gamma, (g * xhat).sum(axis=0), owned=True)
        if x.requires_grad:
            gx = g * gamma.data
            term1 = gx.mean(axis=-1, keepdims=True)
            term2 = (gx * xhat).mean(axis=-1, keepdims=True)
            ag._accum(x, inv * (gx - term1 - xhat * term2), owned=True)

    return ag._make_node(out, (x, gamma, beta), backward)


_ATTENTION_BLOCK_BYTES = 1 << 18


def attention(q, k, v, scale):
    """softmax(q @ k.T / scale) @ v as one node; returns (output, softmax).

    Scaling, the finiteness check, the row-max shift, exp and the row
    normalization run in place, a block of rows at a time, with the ufuncs
    of the one-operation-at-a-time form in ``tests/test_attention.py``.
    """
    ag._check_same_dtype(q, k, "attention")
    ag._check_same_dtype(q, v, "attention")
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError(f"attention: expected 2-D q, k, v, got {q.data.shape}, {k.data.shape}, {v.data.shape}")
    if q.data.shape[1] != k.data.shape[1]:
        raise ShapeError(f"attention: query dim {q.data.shape} does not match key dim {k.data.shape}")
    if k.data.shape[0] != v.data.shape[0]:
        raise ShapeError(f"attention: key rows {k.data.shape} do not match value rows {v.data.shape}")
    if k.data.shape[0] < 1:
        raise ShapeError("attention: needs at least one key")
    m, d = q.data.shape
    n, dv = v.data.shape
    kt = np.ascontiguousarray(k.data.T)
    p = np.empty((m, n), dtype=q.data.dtype)
    np.matmul(q.data, kt, out=p)
    s = np.asarray(1.0 / scale, dtype=p.dtype)
    rows = max(1, _ATTENTION_BLOCK_BYTES // (n * p.itemsize))
    for lo in range(0, m, rows):
        blk = p[lo : lo + rows]
        blk *= s
        top = blk.max(axis=1, keepdims=True)
        if not (np.isfinite(top).all() and np.isfinite(blk.min())):
            raise NumericError("attention: logits contain NaN or infinite entries")
        blk -= top
        np.exp(blk, out=blk)
        blk /= blk.sum(axis=1, keepdims=True)
    y = np.empty((m, dv), dtype=p.dtype)
    np.matmul(p, v.data, out=y)
    out = Tensor(y)

    def backward(g):
        if v.requires_grad:
            gv = np.empty((n, dv), dtype=p.dtype)
            np.matmul(p.T, g, out=gv)
            ag._accum(v, gv, owned=True)
        if not (q.requires_grad or k.requires_grad):
            return
        # softmax then scale backward, in place on the fresh dL/dP
        gp = np.empty_like(p)
        np.matmul(g, v.data.T, out=gp)
        prod = np.empty((min(rows, m), n), dtype=p.dtype)
        for lo in range(0, m, rows):
            gb, yb = gp[lo : lo + rows], p[lo : lo + rows]
            inner = np.multiply(gb, yb, out=prod[: len(gb)]).sum(axis=1, keepdims=True)
            gb -= inner
            gb *= yb
            gb *= s
        if q.requires_grad:
            gq = np.empty((m, d), dtype=p.dtype)
            np.matmul(gp, kt.T, out=gq)
            ag._accum(q, gq, owned=True)
        if k.requires_grad:
            gkt = np.empty((d, n), dtype=p.dtype)
            np.matmul(q.data.T, gp, out=gkt)
            ag._accum(k, gkt.T, owned=True)

    return ag._make_node(out, (q, k, v), backward), p


def composed_block(x, context, params, key_bias=None):
    """A cross (or, with ``context`` None, self) block as 12 graph nodes: the oracle of the block node.

    Keys are projected row-major, with ``key_bias`` added when given. The
    logits are divided by sqrt(#query rows). Returns the block output and
    its M x N softmax.
    """
    if context is not None and context.shape[0] < 1:
        raise DataError("cross-attention requires a nonempty context")
    h = layer_norm(x, params.ln1_gamma, params.ln1_beta)
    kv = h if context is None else context
    q = ag.linear(h, params.w_q, params.b_q)
    k = ag.linear(kv, params.w_k, key_bias)
    v = ag.linear(kv, params.w_v, params.b_v)
    attn_out, p = attention(q, k, v, float(np.sqrt(q.shape[0])))
    x = x + ag.linear(attn_out, params.w_o, params.b_o)
    h = layer_norm(x, params.ln2_gamma, params.ln2_beta)
    x = x + ag.linear(ag.gelu(ag.linear(h, params.w_m1, params.b_m1)), params.w_m2, params.b_m2)
    return x, p


def init_block_params(d_latent, rng, dtype=np.float32):
    """A width-``d_latent`` block of its own tensors, filled in ``BlockParams.layout`` order from ``rng``."""
    params = {}
    for name, shape, fill in BlockParams.layout(d_latent):
        params[name] = Tensor(np.empty(shape, dtype), requires_grad=True)
        fill_param(params[name].data, fill, rng)
    return BlockParams(**params)


def record_every_block(monkeypatch):
    """A list that each attention block the model runs appends (kind, record matrix) to, in execution order.

    These are the records a forward kept before it kept only each stage's last two.
    """
    from ccan import model

    seen = []

    def recorded(block, kind):
        def run(*args, **kwargs):
            out, softmax = block(*args, **kwargs)
            seen.append((kind, softmax))
            return out, softmax

        return run

    monkeypatch.setattr(model, "cross_attention_block", recorded(model.cross_attention_block, "cross"))
    monkeypatch.setattr(model, "self_attention_block", recorded(model.self_attention_block, "self"))
    return seen


def _residual_mix(matrix):
    mixed = 0.5 * matrix + 0.5 * np.eye(matrix.shape[0])
    return mixed / mixed.sum(axis=1, keepdims=True)


def chain_rollout(records):
    """Rollout over a stage's (kind, matrix) records in execution order, kind "cross" or "self".

    The identity-mixed self matrices after the last cross record are
    chained, and the chain's class row is pushed through that cross matrix.
    """
    last_cross = max(i for i, (kind, _) in enumerate(records) if kind == "cross")
    cross = records[last_cross][1]
    chain = np.eye(cross.shape[0])
    for kind, matrix in records[last_cross + 1 :]:
        if kind == "self":
            chain = _residual_mix(matrix) @ chain
    return chain[-1] @ cross


def sigmoid_values(d):
    """The logistic of ``d`` as ``ag.sigmoid`` computed it with three ``exp`` calls."""
    return np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))


def gelu_values(d, g):
    """GELU's y, float64 dydx and dL/dx for the upstream gradient ``g``, as whole-array expressions."""
    cdf = 0.5 * (1.0 + erf(np.multiply(d, 1.0 / np.sqrt(2.0), dtype=np.float64)))
    e = np.exp(np.multiply(d, -0.5, dtype=d.dtype) * d)
    dydx = np.multiply(e, 1.0 / np.sqrt(2.0 * np.pi), dtype=np.float64) * d + cdf
    y = np.multiply(d, cdf, dtype=np.float64).astype(d.dtype)
    return y, dydx, np.multiply(dydx, g, dtype=np.float64).astype(g.dtype)


@dataclass
class GradReport:
    """Outcome of an analytic-vs-finite-difference comparison."""

    max_abs_err: float
    max_rel_err: float
    per_parameter: list = field(default_factory=list)


def grad_check(f, params, eps=1e-3, max_coords_per_param=None, rng=None):
    """Compare analytic gradients of ``f()`` against central finite differences.

    The oracle is the five-point central stencil
    ``(-f(x+2h) + 8f(x+h) - 8f(x-h) + f(x-2h)) / 12h`` with ``h = eps``.
    Its truncation error is O(h^4) (it is exact for cubics), so even
    coordinates with small gradients are resolved at eps=1e-3; ``f`` is
    called four times per checked coordinate, without graph construction.

    ``f`` is a zero-argument function returning a scalar tensor and must be
    deterministic (disable dropout); ``params`` is a list of (name, Tensor)
    leaves it closes over.  For large parameters, ``max_coords_per_param``
    limits the check to a random coordinate subset.  Run the model in
    float64 for full oracle precision.
    """
    if eps <= 0:
        raise UsageError("grad_check: eps must be positive")
    rng = rng or np.random.default_rng(0)

    first = f()
    if abs(f().item() - first.item()) > 0:
        raise UsageError("grad_check: f is not deterministic; disable stochastic layers")

    ag.zero_grad([t for _, t in params])
    ag.backward(f())
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data)) for name, t in params}

    def f_at(t, idx, value):
        t.data[idx] = value
        with ag.no_grad():  # the perturbed evaluations need no graph
            return f().item()

    max_abs = 0.0
    max_rel = 0.0
    per_parameter = []
    for name, t in params:
        n = t.data.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = np.arange(n)
        p_abs = 0.0
        p_rel = 0.0
        grad_flat = analytic[name].reshape(-1)
        for i in coords:
            idx = np.unravel_index(i, t.data.shape)
            orig = t.data[idx]
            f_p2 = f_at(t, idx, orig + 2.0 * eps)
            f_p1 = f_at(t, idx, orig + eps)
            f_m1 = f_at(t, idx, orig - eps)
            f_m2 = f_at(t, idx, orig - 2.0 * eps)
            t.data[idx] = orig
            numeric = (-f_p2 + 8.0 * f_p1 - 8.0 * f_m1 + f_m2) / (12.0 * eps)
            a = float(grad_flat[i])
            abs_err = abs(a - numeric)
            rel_err = abs_err / max(abs(a), abs(numeric), 1e-8)
            p_abs = max(p_abs, abs_err)
            p_rel = max(p_rel, rel_err)
        per_parameter.append((name, p_abs, p_rel))
        max_abs = max(max_abs, p_abs)
        max_rel = max(max_rel, p_rel)
    return GradReport(max_abs_err=max_abs, max_rel_err=max_rel, per_parameter=per_parameter)


# flips: (position, nonzero XOR mask) pairs, the position taken modulo the file's length
byte_flips = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)), min_size=1, max_size=3)


def flipped(data, flips):
    data = bytearray(data)
    for position, mask in flips:
        data[position % len(data)] ^= mask
    return bytes(data)
