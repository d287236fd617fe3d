import numpy as np
import pytest

from ccan import autograd as ag
from ccan.attention import BlockParams, cross_attention_block, self_attention_block
from ccan.autograd import Tensor
from ccan.errors import DataError, NumericError, ShapeError, UsageError
from composed import attention, composed_block, grad_check, init_block_params, mul, sum_all


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def random_block(d, seed, dtype=np.float64):
    return init_block_params(d, np.random.default_rng(seed), dtype=dtype)


def attend(q, k, v, scale):
    """The blocks' attention kernel on arrays, keys given N x d; returns (output, softmax)."""
    q, k, v = (np.asarray(a, dtype=getattr(a, "dtype", np.float64)) for a in (q, k, v))
    return ag._attention(q, np.ascontiguousarray(k.T), v, scale)


class TestScaledAttention:
    def test_single_key_is_identity_weighting(self):
        q = np.random.default_rng(0).normal(size=(4, 3))
        v = np.array([[5.0, 6.0, 7.0]])
        out, attn = attend(q, [[1.0, 2.0, 3.0]], v, 2.0)
        np.testing.assert_allclose(attn, np.ones((4, 1)))
        np.testing.assert_allclose(out, np.tile(v, (4, 1)))

    def test_zero_query_gives_uniform_rows(self):
        rng = np.random.default_rng(1)
        k = rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 3))
        out, attn = attend(np.zeros((2, 3)), k, v, 1.0)
        np.testing.assert_allclose(attn, np.full((2, 5), 0.2), atol=1e-12)
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)

    def test_scalar_closed_form(self):
        # logit gap 4 => weight sigma(4) on the first key
        out, attn = attend([[2.0]], [[1.0], [-1.0]], [[1.0], [0.0]], 1.0)
        w = 1.0 / (1.0 + np.exp(-4.0))
        np.testing.assert_allclose(attn, [[w, 1.0 - w]], atol=1e-12)
        np.testing.assert_allclose(out, [[w]], atol=1e-12)
        assert abs(w - 0.9820) < 1e-4


class TestAttentionScale:
    def test_per_paper_uses_query_rows(self):
        # a cross block's softmax over 9 query rows of width 16 is numpy's softmax(q k^T / sqrt(9)), as the paper's
        rng = np.random.default_rng(21)
        params = random_block(16, seed=22)
        x = t64(rng.normal(size=(9, 16)))
        context = rng.normal(size=(7, 16))
        _, softmax = cross_attention_block(x, t64(context), params)
        normed = (x.data - x.data.mean(axis=1, keepdims=True)) / np.sqrt(x.data.var(axis=1, keepdims=True) + 1e-5)
        q, k = normed @ params.w_q.data, context @ params.w_k.data  # identity layer norm, zero b_q
        logits = q @ k.T / 3.0
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(softmax, e / e.sum(axis=1, keepdims=True), rtol=1e-10, atol=1e-12)


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
        assert softmax.shape == (8, 100)  # latents x context tokens

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
        np.testing.assert_allclose(softmax, [[1.0]])

    def test_rows_stochastic(self):
        rng = np.random.default_rng(12)
        params = random_block(8, seed=13)
        for _ in range(10):
            tokens = t64(rng.normal(size=(6, 8)))
            _, softmax = self_attention_block(tokens, params)
            np.testing.assert_allclose(softmax.sum(axis=-1), np.ones(6), atol=1e-5)
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
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(len(p)), atol=1e-5)
        assert (p >= 0).all() and (p <= 1).all()


def composed_attention(q, k, v, scale):
    """softmax(q @ k.T * (1 / scale)) @ v, one whole-matrix numpy op at a time: the oracle of the kernel.

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


def _block_run(block, m, n, d, seed, oracle=False, inputs_grad=True):
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
        out, softmax = composed_block(x, ctx, params)
    elif block == "cross":
        out, softmax = cross_attention_block(x, ctx, params)
    else:
        out, softmax = self_attention_block(x, params)
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
        # the kernels against the one-op-at-a-time graph, and the graph op they replaced against it too
        rng = np.random.default_rng(30)
        values = [rng.normal(size=s).astype(np.float32) for s in ((9, 16), (37, 16), (37, 12))]
        upstream = rng.normal(size=(9, 12)).astype(np.float32)

        def run(fn):
            q, k, v = (Tensor(a.copy(), requires_grad=True) for a in values)
            out, attn = fn(q, k, v, 4.0)
            ag.backward(sum_all(mul(out, Tensor(upstream))))
            return [out.data, attn, q.grad, k.grad, v.grad]

        q, k, v = values
        kt = np.ascontiguousarray(k.T)
        out, attn = ag._attention(q, kt, v, 4.0)
        gkt, gv = np.empty_like(kt), np.empty_like(v)
        gq = ag._attention_backward(upstream, q, kt, v, attn, 4.0, gkt, gv)
        oracle = run(composed_attention)
        _assert_same_bits([out, attn, gq, gkt.T, gv], oracle)
        _assert_same_bits(run(attention), oracle)

    @pytest.mark.parametrize("block", ["cross", "self"])
    def test_toy_blocks_bitwise_equal_to_composed(self, block):
        _assert_same_bits(_block_run(block, 9, 30, 16, seed=31), _block_run(block, 9, 30, 16, seed=31, oracle=True))

    @pytest.mark.parametrize("block", ["cross", "self"])
    def test_inputs_without_grad_bitwise_equal_to_composed(self, block):
        # only the parameters need gradients: the node skips the input's and the context's
        _assert_same_bits(_block_run(block, 9, 30, 16, seed=38, inputs_grad=False),
                          _block_run(block, 9, 30, 16, seed=38, oracle=True, inputs_grad=False))

    @pytest.mark.parametrize("n", [309, 3091])
    def test_reference_cross_block_bitwise_equal_to_composed(self, n):
        _assert_same_bits(_block_run("cross", 513, n, 512, seed=32),
                          _block_run("cross", 513, n, 512, seed=32, oracle=True))

    def test_reference_self_block_bitwise_equal_to_composed(self):
        _assert_same_bits(_block_run("self", 513, 513, 512, seed=33),
                          _block_run("self", 513, 513, 512, seed=33, oracle=True))

    def test_keys_reach_the_node_column_major(self, monkeypatch):
        # so the kernel reads K^T as a C-contiguous view of the keys
        seen = []
        kernel = ag._attention
        monkeypatch.setattr(ag, "_attention", lambda q, kt, v, s: seen.append(kt) or kernel(q, kt, v, s))
        _block_run("cross", 4, 10, 8, seed=34)
        _block_run("self", 4, 4, 8, seed=35)
        assert len(seen) == 2  # one attention per block
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
        with pytest.raises(UsageError, match="mixed dtypes"):
            cross_attention_block(t64(np.zeros((2, 4))), Tensor(np.zeros((5, 4), dtype=np.float32)), params)


class TestNoKeyBias:
    def test_block_params_have_no_key_bias(self):
        names = [n for n, _ in random_block(4, seed=0).named_tensors()]
        assert "w_k" in names and "b_k" not in names and len(names) == 15
        assert "b_k" not in BlockParams.__dataclass_fields__

    @pytest.mark.parametrize("block", ["cross", "self"])
    def test_random_key_bias_changes_nothing_float64(self, block):
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
                out, softmax = composed_block(x, ctx, params, key_bias=bias)
            elif block == "cross":
                out, softmax = cross_attention_block(x, ctx, params)
            else:
                out, softmax = self_attention_block(x, params)
            upstream = t64(rng.normal(size=out.shape))
            ag.backward(sum_all(mul(out, upstream)))
            return [out.data, softmax] + [t.grad for t in leaves]

        bias_free = run()
        biased = run(key_bias)
        assert np.abs(key_bias.data).min() > 0.1
        for a, b in zip(bias_free, biased):
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(key_bias.grad, 0.0, atol=1e-12)
