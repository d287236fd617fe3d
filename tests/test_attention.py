import numpy as np
import pytest

from ccan import autograd as ag
from ccan.attention import (
    AttentionRecord,
    BlockParams,
    cross_attention_block,
    self_attention_block,
)
from ccan.autograd import Tensor
from ccan.errors import DataError, NumericError, ShapeError, UsageError
from composed import attention, composed_block, grad_check, init_block_params, mul, sum_all


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def random_block(d, seed, dtype=np.float64):
    return init_block_params(d, np.random.default_rng(seed), dtype=dtype)


def attend(q, k, v, scale, heads=1):
    """The blocks' attention kernel on arrays, keys given N x d; returns (output, softmax)."""
    q, k, v = (np.asarray(a, dtype=getattr(a, "dtype", np.float64)) for a in (q, k, v))
    return ag._attention(q, np.ascontiguousarray(k.T), v, scale, heads)


class TestScaledAttention:
    def test_single_key_is_identity_weighting(self):
        q = np.random.default_rng(0).normal(size=(4, 3))
        v = np.array([[5.0, 6.0, 7.0]])
        out, attn = attend(q, [[1.0, 2.0, 3.0]], v, 2.0)
        np.testing.assert_allclose(attn, np.ones((1, 4, 1)))
        np.testing.assert_allclose(out, np.tile(v, (4, 1)))

    def test_zero_query_gives_uniform_rows(self):
        rng = np.random.default_rng(1)
        k = rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 3))
        out, attn = attend(np.zeros((2, 3)), k, v, 1.0)
        np.testing.assert_allclose(attn, np.full((1, 2, 5), 0.2), atol=1e-12)
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)

    def test_scalar_closed_form(self):
        # logit gap 4 => weight sigma(4) on the first key
        out, attn = attend([[2.0]], [[1.0], [-1.0]], [[1.0], [0.0]], 1.0)
        w = 1.0 / (1.0 + np.exp(-4.0))
        np.testing.assert_allclose(attn, [[[w, 1.0 - w]]], atol=1e-12)
        np.testing.assert_allclose(out, [[w]], atol=1e-12)
        assert abs(w - 0.9820) < 1e-4


def assert_softmax_divides_by(heads, s):
    """A cross block's softmax over 9 query rows of width 16 equals numpy's softmax(q k^T / s) per head."""
    rng = np.random.default_rng(21)
    params = random_block(16, seed=22)
    x = t64(rng.normal(size=(9, 16)))
    context = rng.normal(size=(7, 16))
    _, softmax = cross_attention_block(x, t64(context), params, heads=heads)
    normed = (x.data - x.data.mean(axis=1, keepdims=True)) / np.sqrt(x.data.var(axis=1, keepdims=True) + 1e-5)
    q, k = normed @ params.w_q.data, context @ params.w_k.data  # identity layer norm, zero b_q
    w = 16 // heads
    for h in range(heads):
        logits = q[:, h * w:(h + 1) * w] @ k[:, h * w:(h + 1) * w].T / s
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(softmax[h], e / e.sum(axis=1, keepdims=True), rtol=1e-10, atol=1e-12)


class TestAttentionScale:
    def test_per_paper_uses_query_rows(self):
        # one head: the paper's sqrt(#query rows)
        assert_softmax_divides_by(1, 3.0)

    def test_per_dim_uses_head_dim(self):
        # more than one head: sqrt(head dim), 16 / heads columns each
        assert_softmax_divides_by(2, np.sqrt(8.0))
        assert_softmax_divides_by(4, 2.0)


class TestCrossAttentionBlock:
    def test_zero_output_projection_leaves_only_mlp_path(self):
        rng = np.random.default_rng(2)
        params = random_block(8, seed=3)
        params.w_o.data[...] = 0.0
        latents = t64(rng.normal(size=(4, 8)))
        context = t64(rng.normal(size=(10, 8)))
        out, _ = cross_attention_block(latents, context, params)

        # with a second zeroed MLP layer the block is exactly the identity
        params.w_m2.data[...] = 0.0
        out2, _ = cross_attention_block(latents, context, params)
        np.testing.assert_allclose(out2.data, latents.data, atol=1e-12)
        assert np.abs(out.data - latents.data).max() > 0  # MLP path was live

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        params = random_block(8, seed=5)
        latents = t64(rng.normal(size=(4, 8)))
        context_val = rng.normal(size=(30, 8))
        out, _ = cross_attention_block(latents, t64(context_val), params)
        perm = rng.permutation(30)
        out_p, _ = cross_attention_block(latents, t64(context_val[perm]), params)
        np.testing.assert_allclose(out.data, out_p.data, atol=1e-5)

    def test_record_shape(self):
        rng = np.random.default_rng(6)
        params = random_block(4, seed=7)
        _, softmax = cross_attention_block(
            t64(rng.normal(size=(8, 4))), t64(rng.normal(size=(100, 4))), params
        )
        assert softmax.shape == (1, 8, 100)  # heads x latents x context tokens
        assert AttentionRecord.of(softmax).matrix.shape == (8, 100)

    def test_empty_context_rejected(self):
        params = random_block(4, seed=8)
        with pytest.raises(DataError):
            cross_attention_block(t64(np.zeros((2, 4))), t64(np.zeros((0, 4))), params)

    def test_linear_cost_in_context_length(self):
        params = random_block(4, seed=9, dtype=np.float32)
        latents = Tensor(np.zeros((8, 4), dtype=np.float32))

        def macs(n):
            ctx = Tensor(np.zeros((n, 4), dtype=np.float32))
            with ag.op_probe() as probe:
                cross_attention_block(latents, ctx, params)
            return probe.macs

        m1, m2, m3 = macs(100), macs(200), macs(300)
        assert m2 - m1 == m3 - m2  # affine in n
        assert m2 > m1


class TestSelfAttentionBlock:
    def test_single_token_attention_matrix(self):
        params = random_block(4, seed=10)
        _, softmax = self_attention_block(t64(np.random.default_rng(11).normal(size=(1, 4))), params)
        np.testing.assert_allclose(softmax, [[[1.0]]])

    def test_rows_stochastic(self):
        rng = np.random.default_rng(12)
        params = random_block(8, seed=13)
        for _ in range(10):
            tokens = t64(rng.normal(size=(6, 8)))
            _, softmax = self_attention_block(tokens, params)
            np.testing.assert_allclose(softmax.sum(axis=-1), np.ones((1, 6)), atol=1e-5)
            assert softmax.min() >= 0.0 and softmax.max() <= 1.0

    def test_full_block_gradient(self):
        rng = np.random.default_rng(14)
        params = random_block(6, seed=15)
        tokens = t64(rng.normal(size=(3, 6)))

        def f():
            out, _ = self_attention_block(tokens, params)
            return sum_all(mul(out, out))

        report = grad_check(f, params.named_tensors(), eps=1e-3, max_coords_per_param=6)
        assert report.max_rel_err < 1e-3


class TestMultiHead:
    def test_heads_preserve_row_stochastic_record(self):
        rng = np.random.default_rng(16)
        params = random_block(8, seed=17)
        tokens = t64(rng.normal(size=(5, 8)))
        out, softmax = self_attention_block(tokens, params, heads=2)
        assert out.shape == (5, 8)
        np.testing.assert_allclose(softmax.sum(axis=-1), np.ones((2, 5)), atol=1e-5)
        record = AttentionRecord.of(softmax)
        np.testing.assert_array_equal(record.matrix, softmax.mean(axis=0))
        np.testing.assert_allclose(record.matrix.sum(axis=1), np.ones(5), atol=1e-5)

    def test_head_gradients(self):
        rng = np.random.default_rng(18)
        params = random_block(4, seed=19)
        latents = t64(rng.normal(size=(2, 4)))
        context = t64(rng.normal(size=(6, 4)))

        def f():
            out, _ = cross_attention_block(latents, context, params, heads=2)
            return sum_all(mul(out, out))

        report = grad_check(f, params.named_tensors(), eps=1e-3, max_coords_per_param=6)
        assert report.max_rel_err < 1e-3

    def test_indivisible_heads_rejected(self):
        params = random_block(6, seed=20)
        with pytest.raises(ShapeError):
            self_attention_block(t64(np.zeros((2, 6))), params, heads=4)


@pytest.mark.parametrize("seed", range(10))
def test_every_record_row_stochastic_property(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 10))
    params = random_block(d, seed=seed + 100)
    latents = t64(rng.normal(scale=rng.uniform(0.5, 3.0), size=(int(rng.integers(1, 8)), d)))
    context = t64(rng.normal(scale=rng.uniform(0.5, 3.0), size=(int(rng.integers(1, 30)), d)))
    _, p_cross = cross_attention_block(latents, context, params)
    _, p_self = self_attention_block(latents, params)
    for p in (p_cross, p_self):
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(p.shape[:2]), atol=1e-5)
        assert (p >= 0).all() and (p <= 1).all()


def slice_cols(x, start, stop):
    """Columns [start, stop) as a copy laid out like ``x`` (column-major stays column-major)."""
    out = Tensor(x.data[:, start:stop].copy(order="K"))

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[:, start:stop] = g
            ag._accum(x, gx, owned=True)

    return ag._make_node(out, (x,), backward)


def concat_cols(parts):
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                ag._accum(p, g[:, lo:hi])

    return ag._make_node(out, tuple(parts), backward)


def composed_head(q, k, v, scale):
    """softmax(q @ k.T * (1 / scale)) @ v, one whole-matrix numpy op at a time.

    Forward and backward run the float operations of the separate transpose,
    product, scale, row softmax and product nodes, in their order.
    """
    kt = k.data.T.copy()
    s = np.asarray(1.0 / scale, dtype=q.data.dtype)
    logits = (q.data @ kt) * s
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if v.requires_grad:
            ag._accum(v, p.T @ g, owned=True)
        gp = g @ v.data.T
        gl = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * s
        if q.requires_grad:
            ag._accum(q, gl @ kt.T, owned=True)
        if k.requires_grad:
            ag._accum(k, (q.data.T @ gl).T)

    return ag._make_node(Tensor(p @ v.data), (q, k, v), backward), p


def composed_attention(q, k, v, scale, heads=1):
    """The per-head oracle of the attention kernel and of ``composed.attention``.

    Head h slices column group h of q, k and v into copies, attends with
    ``composed_head``, and the head outputs are joined column-wise; the
    softmax matrices are stacked heads x M x N.
    """
    w, wv = q.shape[1] // heads, v.shape[1] // heads
    outs, mats = [], []
    for h in range(heads):
        out, p = composed_head(slice_cols(q, h * w, (h + 1) * w), slice_cols(k, h * w, (h + 1) * w),
                               slice_cols(v, h * wv, (h + 1) * wv), scale)
        outs.append(out)
        mats.append(p)
    return concat_cols(outs), np.stack(mats)


def _block_run(block, m, n, d, heads, seed, oracle=False, inputs_grad=True):
    """Output, softmax and every gradient of one float32 block pass (the composed graph's if ``oracle``)."""
    rng = np.random.default_rng(seed)
    params = init_block_params(d, np.random.default_rng(seed + 1), dtype=np.float32)
    x = Tensor(rng.normal(size=(m, d)).astype(np.float32), requires_grad=inputs_grad)
    leaves = [t for _, t in params.named_tensors()] + [x] * inputs_grad
    ctx = None
    if block == "cross":
        ctx = Tensor(rng.normal(size=(n, d)).astype(np.float32), requires_grad=inputs_grad)
        leaves += [ctx] * inputs_grad
    if oracle:
        out, softmax = composed_block(x, ctx, params, heads=heads)
    elif block == "cross":
        out, softmax = cross_attention_block(x, ctx, params, heads=heads)
    else:
        out, softmax = self_attention_block(x, params, heads=heads)
    upstream = Tensor(rng.normal(size=out.shape).astype(np.float32))
    ag.backward(sum_all(mul(out, upstream)))
    return [out.data, softmax] + [t.grad for t in leaves]


def _assert_same_bits(fused, oracle):
    assert len(fused) == len(oracle)
    for a, b in zip(fused, oracle):
        assert a.dtype == np.float32 and a.shape == b.shape
        np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


class TestFusedAttention:
    def test_node_bitwise_equal_to_composed_float32(self):
        # the kernels against the per-head graph, and the graph op they replaced against it too
        rng = np.random.default_rng(30)
        values = [rng.normal(size=s).astype(np.float32) for s in ((9, 16), (37, 16), (37, 12))]
        upstream = rng.normal(size=(9, 12)).astype(np.float32)

        def run(fn, heads):
            q, k, v = (Tensor(a.copy(), requires_grad=True) for a in values)
            out, attn = fn(q, k, v, 4.0, heads)
            ag.backward(sum_all(mul(out, Tensor(upstream))))
            return [out.data, attn, q.grad, k.grad, v.grad]

        def kernels(heads):
            q, k, v = values
            kt = np.ascontiguousarray(k.T)
            out, attn = ag._attention(q, kt, v, 4.0, heads)
            gkt, gv = np.empty_like(kt), np.empty_like(v)
            gq = ag._attention_backward(upstream, q, kt, v, attn, 4.0, heads, gkt, gv)
            return [out, attn, gq, gkt.T, gv]

        for heads in (1, 2, 4):
            oracle = run(composed_attention, heads)
            _assert_same_bits(kernels(heads), oracle)
            _assert_same_bits(run(attention, heads), oracle)

    @pytest.mark.parametrize("block", ["cross", "self"])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_toy_blocks_bitwise_equal_to_composed(self, block, heads):
        _assert_same_bits(_block_run(block, 9, 30, 16, heads, seed=31),
                          _block_run(block, 9, 30, 16, heads, seed=31, oracle=True))

    @pytest.mark.parametrize("block", ["cross", "self"])
    def test_inputs_without_grad_bitwise_equal_to_composed(self, block):
        # only the parameters need gradients: the node skips the input's and the context's
        _assert_same_bits(_block_run(block, 9, 30, 16, 1, seed=38, inputs_grad=False),
                          _block_run(block, 9, 30, 16, 1, seed=38, oracle=True, inputs_grad=False))

    @pytest.mark.parametrize("n", [309, 3091])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_reference_cross_block_bitwise_equal_to_composed(self, n, heads):
        _assert_same_bits(_block_run("cross", 513, n, 512, heads, seed=32),
                          _block_run("cross", 513, n, 512, heads, seed=32, oracle=True))

    def test_reference_self_block_bitwise_equal_to_composed(self):
        for heads in (1, 4):
            _assert_same_bits(_block_run("self", 513, 513, 512, heads, seed=33),
                              _block_run("self", 513, 513, 512, heads, seed=33, oracle=True))

    @pytest.mark.parametrize("heads", [1, 2])
    def test_keys_reach_the_node_column_major(self, monkeypatch, heads):
        # so the kernel reads K^T as a C-contiguous view of the keys, one head or several
        seen = []
        kernel = ag._attention
        monkeypatch.setattr(ag, "_attention", lambda q, kt, v, s, heads: seen.append(kt) or kernel(q, kt, v, s, heads))
        _block_run("cross", 4, 10, 8, heads, seed=34)
        _block_run("self", 4, 4, 8, heads, seed=35)
        assert len(seen) == 2  # one attention per block at any head count
        assert all(kt.flags.c_contiguous and kt.base is not None for kt in seen)

    def test_one_node_per_self_block_and_two_per_cross_block(self):
        params = random_block(4, seed=36)
        x, ctx = (t64(np.ones((3, 4)), requires_grad=True) for _ in range(2))
        out, _ = self_attention_block(x, params)
        assert out._parents[0] is x and all(p._backward is None for p in out._parents)
        out, _ = cross_attention_block(x, ctx, params)
        kv = out._parents[-1]  # the context's keys and values, walked before the input
        assert kv._parents[0] is ctx and all(p._backward is None for p in out._parents[:-1])

    def test_macs_equal_two_matmuls(self):
        rng = np.random.default_rng(37)
        q, k, v = (rng.normal(size=s).astype(np.float32) for s in ((5, 4), (11, 4), (11, 3)))
        with ag.op_probe() as fused:
            attend(q, k, v, 2.0)
        assert fused.macs == 5 * 4 * 11 + 5 * 11 * 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_raise(self, bad):
        q = np.ones((2, 3))
        q[1, 2] = bad
        kv = np.ones((4, 3))
        with pytest.raises(NumericError), np.errstate(all="ignore"):
            attend(q, kv, kv, 1.0)

    def test_one_overflowing_logit_raises(self):
        # logits [-inf, 0]: the row max is finite, the row min is not
        q = np.array([[1e30, 0.0]], dtype=np.float32)
        k = np.array([[-1e30, 0.0], [0.0, 0.0]], dtype=np.float32)
        with pytest.raises(NumericError), np.errstate(all="ignore"):
            attend(q, k, k, 1.0)

    def test_shape_errors(self):
        params = random_block(4, seed=39)
        with pytest.raises(ShapeError, match="context"):
            cross_attention_block(t64(np.zeros((2, 4))), t64(np.zeros((5, 3))), params)
        with pytest.raises(ShapeError, match="input"):
            self_attention_block(t64(np.zeros((2, 3))), params)
        with pytest.raises(ShapeError, match="input"):
            self_attention_block(t64(np.zeros(4)), params)
        # a width that does not split into the heads: d = 4, 3 heads
        with pytest.raises(ShapeError, match="heads"):
            self_attention_block(t64(np.zeros((2, 4))), params, heads=3)
        with pytest.raises(UsageError, match="mixed dtypes"):
            cross_attention_block(t64(np.zeros((2, 4))), Tensor(np.zeros((5, 4), dtype=np.float32)), params)


class TestNoKeyBias:
    def test_block_params_have_no_key_bias(self):
        names = [n for n, _ in random_block(4, seed=0).named_tensors()]
        assert "w_k" in names and "b_k" not in names and len(names) == 15
        assert "b_k" not in BlockParams.__dataclass_fields__

    @pytest.mark.parametrize("block", ["cross", "self"])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_random_key_bias_changes_nothing_float64(self, block, heads):
        # a key bias b adds q . b to every logit of a row, and softmax drops a row constant
        d = 6
        key_bias = t64(np.random.default_rng(50).normal(size=d), requires_grad=True)

        def run(bias=None):
            rng = np.random.default_rng(51)
            params = random_block(d, seed=52)
            for _, t in params.named_tensors():
                t.data[...] += rng.normal(scale=0.5, size=t.shape)  # logits far from uniform
            x = t64(rng.normal(size=(5, d)), requires_grad=True)
            leaves = [x] + [t for _, t in params.named_tensors()]
            ctx = None
            if block == "cross":
                ctx = t64(rng.normal(size=(9, d)), requires_grad=True)
                leaves.append(ctx)
            if bias is not None:  # the composed graph takes a key bias; the node has none
                out, softmax = composed_block(x, ctx, params, heads=heads, key_bias=bias)
            elif block == "cross":
                out, softmax = cross_attention_block(x, ctx, params, heads=heads)
            else:
                out, softmax = self_attention_block(x, params, heads=heads)
            upstream = t64(rng.normal(size=out.shape))
            ag.backward(sum_all(mul(out, upstream)))
            return [out.data, softmax] + [t.grad for t in leaves]

        bias_free = run()
        biased = run(key_bias)
        assert np.abs(key_bias.data).min() > 0.1
        for a, b in zip(bias_free, biased):
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(key_bias.grad, 0.0, atol=1e-12)
