import ast
import pathlib
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from ccan import autograd as ag
from ccan.autograd import Tensor
from ccan.errors import ShapeError, UsageError
from composed import attention, clip, composed_bce, grad_check, layer_norm, mul, scale, sum_all


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    """The program's only matrix product: ``linear`` without a bias."""

    def test_identity(self):
        a = t64(np.eye(2))
        b = t64([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(ag.linear(a, b, None).data, [[1, 2], [3, 4]])

    def test_hand_product(self):
        out = ag.linear(t64([[1.0, 2.0]]), t64([[3.0], [4.0]]), None)
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ag.linear(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))), None)

    def test_grad_of_sum_is_ones_times_bt(self):
        # d/dA sum(A @ B) = ones(m, n) @ B^T, cross-checked by finite differences
        rng = np.random.default_rng(0)
        a = t64(rng.normal(size=(3, 4)), requires_grad=True)
        b_val = rng.normal(size=(4, 2))
        b = t64(b_val)
        ag.backward(sum_all(ag.linear(a, b, None)))
        expected = np.ones((3, 2)) @ b_val.T
        np.testing.assert_allclose(a.grad, expected, atol=1e-12)

        report = grad_check(lambda: sum_all(ag.linear(a, b, None)), [("a", a)], eps=1e-4)
        assert report.max_rel_err < 1e-6


def node_softmax(logits):
    """The row softmax inside the attention kernel: identity keys and values pass the logits through."""
    eye = np.eye(len(logits[0]))
    return ag._attention(np.asarray(logits, dtype=np.float64), eye, eye, 1.0)[1]


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(node_softmax([[0.0, 0.0, 0.0]]), [[1 / 3] * 3])

    def test_large_inputs_stable(self):
        np.testing.assert_allclose(node_softmax([[1000.0, 1000.0]]), [[0.5, 0.5]])

    def test_closed_form(self):
        # e^0 / (e^0 + 3) = 1/4 when the other logit is ln 3
        np.testing.assert_allclose(node_softmax([[0.0, np.log(3.0)]]), [[0.25, 0.75]], atol=1e-12)


class TestLayerNorm:
    """The layer-norm kernel of the block nodes, and (for gradients) the graph op it replaced."""

    def test_constant_row_is_zero(self):
        out, *_ = ag._layer_norm(np.full((1, 4), 5.0), np.ones(4), np.zeros(4))
        np.testing.assert_allclose(out, np.zeros((1, 4)))

    def test_already_normalized(self):
        out, *_ = ag._layer_norm(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2), eps=1e-12)
        np.testing.assert_allclose(out, [[1.0, -1.0]], atol=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x = t64(rng.normal(size=(3, 4)), requires_grad=True)
        gamma = t64(rng.normal(size=4), requires_grad=True)
        beta = t64(rng.normal(size=4), requires_grad=True)

        def f():
            h = layer_norm(x, gamma, beta)
            return sum_all(mul(h, h))

        report = grad_check(f, [("x", x), ("gamma", gamma), ("beta", beta)], eps=1e-5)
        assert report.max_rel_err < 1e-6

    def test_float32_bits_of_the_two_pass_expression(self):
        # centring once must keep the bits of (x - mu) * inv * gamma + beta with x - mu formed twice
        rng = np.random.default_rng(13)
        x, gamma, beta = (rng.normal(size=s).astype(np.float32) for s in ((33, 48), 48, 48))
        out, xhat, inv_k, mu_k = ag._layer_norm(x, gamma, beta)
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)
        expected = (x - mu) * inv * gamma + beta
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.view(np.uint32), expected.view(np.uint32))
        # a backward recomputes the output from xhat with the same bits
        np.testing.assert_array_equal(ag._layer_norm_affine(xhat, gamma, beta).view(np.uint32), out.view(np.uint32))
        # and xhat from the row means and inverse deviations, as a block's backward does
        again = x - mu_k
        again *= inv_k
        np.testing.assert_array_equal(again.view(np.uint32), xhat.view(np.uint32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernels_bitwise_equal_to_the_graph_op(self, dtype):
        rng = np.random.default_rng(14)
        x, gamma, beta, g = (rng.normal(size=s).astype(dtype) for s in ((33, 48), 48, 48, (33, 48)))
        ts = [Tensor(v.copy(), requires_grad=True) for v in (x, gamma, beta)]
        ag.backward(sum_all(mul(layer_norm(*ts), Tensor(g))))
        gamma_t, beta_t = (Tensor(v.copy(), requires_grad=True) for v in (gamma, beta))
        y, xhat, inv, _ = ag._layer_norm(x, gamma, beta)
        gx = ag._layer_norm_backward(g, xhat, inv, gamma_t, beta_t)
        for got, want in zip((y, gx, gamma_t.grad, beta_t.grad), (layer_norm(*ts).data, *(t.grad for t in ts))):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()


class TestGelu:
    def test_float32_output_pinned_to_float64_evaluation(self):
        # x * Phi(x) is evaluated in float64 and rounded once, whatever the
        # numpy version's scalar promotion rules
        x = np.random.default_rng(7).normal(scale=3.0, size=1000).astype(np.float32)
        x64 = x.astype(np.float64)
        expected = (x64 * (0.5 * (1.0 + erf(x64 * (1.0 / np.sqrt(2.0)))))).astype(np.float32)
        out = ag.gelu(Tensor(x)).data
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.view(np.uint32), expected.view(np.uint32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_kernels_bitwise_equal_to_whole_array_expression(self, dtype):
        # 41 x 2000 entries span three blocks, the last one partial
        rng = np.random.default_rng(8)
        d, g = (rng.normal(scale=3.0, size=(41, 2000)).astype(dtype) for _ in range(2))
        y, dydx = ag._gelu(d, True)
        cdf = 0.5 * (1.0 + erf(np.multiply(d, 1.0 / np.sqrt(2.0), dtype=np.float64)))
        e = np.exp(np.multiply(d, -0.5, dtype=dtype) * d)
        want_dydx = np.multiply(e, 1.0 / np.sqrt(2.0 * np.pi), dtype=np.float64) * d + cdf
        want_gx = np.multiply(want_dydx, g, dtype=np.float64).astype(dtype)
        assert y.tobytes() == np.multiply(d, cdf, dtype=np.float64).astype(dtype).tobytes()
        assert dydx.tobytes() == want_dydx.tobytes()
        assert ag._gelu_backward(g, dydx).tobytes() == want_gx.tobytes()
        assert ag._gelu(d, False)[1] is None  # no derivative without a backward to read it

    def test_zero(self):
        assert ag.gelu(t64([0.0])).data[0] == 0.0

    def test_asymptotics(self):
        np.testing.assert_allclose(ag.gelu(t64([10.0])).data[0], 10.0, rtol=1e-9)
        np.testing.assert_allclose(ag.gelu(t64([-10.0])).data[0], 0.0, atol=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = t64(rng.normal(size=6), requires_grad=True)
        report = grad_check(lambda: sum_all(mul(ag.gelu(x), ag.gelu(x))), [("x", x)], eps=1e-5)
        assert report.max_rel_err < 1e-6


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_three_exp_expression(self, dtype):
        from composed import sigmoid_values

        d = np.random.default_rng(9).normal(scale=30.0, size=100_000)
        d = np.concatenate([d, [80.0, -80.0, 0.0, -0.0, 1e-30, -1e-30]]).astype(dtype)
        y = ag.sigmoid(Tensor(d)).data
        assert y.dtype == dtype
        assert y.tobytes() == sigmoid_values(d).astype(dtype).tobytes()


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t64([1.0, 2.0, 3.0], requires_grad=True)
        ag.backward(sum_all(x))
        np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = t64([1.0, 2.0], requires_grad=True)
        ag.backward(sum_all(mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            ag.backward(x)

    def test_repeated_backward_accumulates(self):
        x = t64([1.0, 1.0], requires_grad=True)
        ag.backward(sum_all(x))
        ag.backward(sum_all(x))
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_a_graph_backpropagates_once(self):
        x = t64([1.0, 2.0], requires_grad=True)
        y = mul(x, x)
        loss = sum_all(y)
        ag.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])
        for again in (loss, sum_all(y)):  # the loss itself, or a new graph over a released node
            with pytest.raises(UsageError, match="already backpropagated; run the forward again"):
                ag.backward(again)
            np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_reuse_sums_both_paths(self):
        # y used twice: grad equals the sum of the single-use decompositions
        rng = np.random.default_rng(4)
        val = rng.normal(size=(2, 2))
        x = t64(val, requires_grad=True)
        ag.backward(sum_all(mul(x, x) + mul(x, x)))
        reused = x.grad.copy()

        x1 = t64(val, requires_grad=True)
        ag.backward(sum_all(mul(x1, x1)))
        np.testing.assert_allclose(reused, 2.0 * x1.grad)

    def test_shared_upstream_gradient_is_not_aliased(self):
        # add hands the same g to both leaves; each must get its own buffer
        a = t64([1.0, 2.0], requires_grad=True)
        b = t64([3.0, 4.0], requires_grad=True)
        ag.backward(sum_all(ag.add(a, b)))
        assert not np.shares_memory(a.grad, b.grad)
        ag.backward(sum_all(mul(a, a)))
        np.testing.assert_array_equal(a.grad, [3.0, 5.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_disallowed_broadcast(self):
        with pytest.raises(ShapeError):
            ag.add(t64(np.ones((3, 2))), t64(np.ones((1, 2))))
        # no bias broadcast either: linear adds every bias
        with pytest.raises(ShapeError):
            ag.add(t64(np.ones((3, 2))), t64(np.ones(2)))

    def test_interior_grads_released_during_the_pass(self):
        # a chain of 20 scales: each interior grad dies once passed on, so the pass
        # holds a few arrays at a time, not one per node
        x = t64(np.ones(1 << 17), requires_grad=True)
        y = x
        for _ in range(20):
            y = scale(y, 1.5)
        loss = sum_all(y)
        tracemalloc.start()
        try:
            ag.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(x.grad, np.full(1 << 17, 1.5**20))
        assert peak < 4 * x.data.nbytes
        assert y.grad is None and loss.grad is None


class TestGradCheck:
    def test_exact_polynomial(self):
        x = t64([1.0, -2.0, 0.5], requires_grad=True)
        report = grad_check(lambda: sum_all(mul(x, x)), [("x", x)], eps=1e-4)
        assert report.max_rel_err < 1e-6

    def test_oracle_is_fourth_order(self):
        # the five-point stencil is exact for cubics; a 2-point stencil would
        # be off by eps^2 = 1e-6 against a gradient of 3e-4 (rel err ~3.3e-3)
        x = t64([0.01], requires_grad=True)
        report = grad_check(lambda: sum_all(mul(mul(x, x), x)), [("x", x)], eps=1e-3)
        assert report.max_rel_err < 1e-8

    def test_rejects_bad_eps(self):
        x = t64([1.0], requires_grad=True)
        with pytest.raises(UsageError):
            grad_check(lambda: sum_all(x), [("x", x)], eps=0.0)

    def test_detects_corrupted_gradient(self):
        x = t64([1.0, 2.0], requires_grad=True)

        def bad_square(v):
            out = Tensor(v.data**2)

            def backward(g):
                ag._accum(v, g * 3.0 * v.data)  # deliberately wrong factor

            return ag._make_node(out, (v,), backward)

        report = grad_check(lambda: sum_all(bad_square(x)), [("x", x)], eps=1e-4)
        assert report.max_rel_err > 0.1

    def test_rejects_nondeterministic_f(self):
        x = t64([1.0], requires_grad=True)
        rng = np.random.default_rng(5)

        def f():
            return scale(sum_all(x), float(rng.normal()))

        with pytest.raises(UsageError):
            grad_check(f, [("x", x)])


def _op_cases(rng):
    """(name, params, loss builder) for every differentiable op."""
    a = t64(rng.normal(size=(3, 4)), requires_grad=True)
    b = t64(rng.normal(size=(4, 3)), requires_grad=True)
    c = t64(rng.normal(size=(3, 4)), requires_grad=True)
    rng.normal(size=4)  # the draw of a retired case, kept so later cases keep their values
    gamma = t64(rng.normal(size=4) + 1.0, requires_grad=True)
    beta = t64(rng.normal(size=4), requires_grad=True)
    rng.uniform(0.1, 2.0, size=(3, 4))  # retired cases' draws, kept as above
    tall = t64(rng.normal(size=(4, 4)), requires_grad=True)
    rng.uniform(-2.0, 2.0, size=(3, 4))
    bias3 = t64(rng.normal(size=3), requires_grad=True)  # drawn after the above: earlier cases keep their values
    keys = t64(rng.normal(size=(5, 4)), requires_grad=True)
    values = t64(rng.normal(size=(5, 2)), requires_grad=True)
    # probabilities well inside bce's clamp, whose kinks sit at 1e-7 and 1 - 1e-7
    stage_probs = [t64(rng.uniform(0.05, 0.95, size=(1, 3)), requires_grad=True) for _ in range(2)]
    stage_params = [(f"stage{j}", p) for j, p in enumerate(stage_probs)]

    def sq(v):
        return sum_all(mul(v, v))

    return [
        ("add", [("a", a), ("c", c)], lambda: sq(a + c)),
        ("linear", [("a", a), ("b", b), ("bias3", bias3)], lambda: sq(ag.linear(a, b, bias3))),
        ("linear_no_bias", [("a", a), ("b", b)], lambda: sq(ag.linear(a, b, None))),
        ("attention", [("a", a), ("keys", keys), ("values", values)],
         lambda: sq(attention(a, keys, values, 1.7)[0])),
        ("layer_norm", [("a", a), ("gamma", gamma), ("beta", beta)], lambda: sq(layer_norm(a, gamma, beta))),
        ("gelu", [("a", a)], lambda: sq(ag.gelu(a))),
        ("sigmoid", [("a", a)], lambda: sq(ag.sigmoid(a))),
        ("bce", stage_params, lambda: ag.bce(stage_probs, [0.0, 1.0, 0.0])),
        ("concat_rows", [("a", a), ("c", c)], lambda: sq(ag.concat_rows([a, c]))),
        ("slice_rows", [("a", a)], lambda: sq(ag.slice_rows(a, 1, 3))),
        ("avg_pool_rows", [("tall", tall)], lambda: sq(ag.avg_pool_rows(tall, 2))),
        ("mean_rows", [("a", a)], lambda: sq(ag.mean_rows(a))),
        ("max_rows", [("a", a)], lambda: sq(ag.max_rows(a))),
    ]


@pytest.mark.parametrize("seed", range(21))
def test_every_op_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    for name, params, f in _op_cases(rng):
        report = grad_check(f, params, eps=1e-3)
        assert report.max_rel_err < 1e-3, f"{name} (seed {seed}): {report.max_rel_err}"


class TestStructureOps:
    def test_avg_pool_rows_values(self):
        out = ag.avg_pool_rows(t64([[2.0], [4.0], [10.0], [0.0]]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [5.0]])

    def test_avg_pool_rows_identity(self):
        x = t64(np.arange(6.0).reshape(3, 2))
        np.testing.assert_allclose(ag.avg_pool_rows(x, 1).data, x.data)

    def test_avg_pool_rows_indivisible(self):
        with pytest.raises(ShapeError):
            ag.avg_pool_rows(t64(np.zeros((5, 2))), 2)

    def test_max_rows_dominant_token(self):
        x = t64([[0.0, 1.0], [1e9, -1e9], [2.0, 3.0]])
        np.testing.assert_allclose(ag.max_rows(x).data, [[1e9, 3.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_max_rows_ties_go_to_the_first_row_across_row_blocks(self, dtype):
        # 3 values per column over rows that span several of the kernel's row blocks: argmax's index, the
        # first maximum, wherever the ties fall; NaN counts as the maximum, as in argmax; -0.0 ties with 0.0
        rng = np.random.default_rng(7)
        a = rng.integers(0, 3, size=(20_000, 5)).astype(dtype)
        a[:, 1] = 0.0
        a[::2, 1] = -0.0
        a[[3, 9_000, 19_999], 2] = 5.0
        a[[15_000, 17_000], 3] = np.nan
        a[:, 4] = -np.inf
        x = Tensor(a, requires_grad=True)
        out = ag.max_rows(x)
        idx = a.argmax(axis=0)
        assert idx[1] == 0 and idx[2] == 3 and idx[3] == 15_000 and idx[4] == 0
        np.testing.assert_array_equal(out.data.view(np.uint8), a[idx, np.arange(5)][None, :].view(np.uint8))
        ag.backward(sum_all(mul(out, Tensor(np.arange(1.0, 6.0, dtype=dtype)[None, :]))))
        want = np.zeros_like(a)
        want[idx, np.arange(5)] = np.arange(1.0, 6.0)
        np.testing.assert_array_equal(x.grad, want)

    def test_clip_values(self):
        out = clip(t64([-2.0, 0.5, 2.0]), 0.0, 1.0)
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0])


def _assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == np.float32
        np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


class TestLinear:
    def test_bitwise_equal_to_matmul_then_add_float32(self):
        rng = np.random.default_rng(11)
        x, w = rng.normal(size=(37, 24)).astype(np.float32), rng.normal(size=(24, 19)).astype(np.float32)
        bias, g = rng.normal(size=19).astype(np.float32), rng.normal(size=(37, 19)).astype(np.float32)
        ts = [Tensor(v.copy(), requires_grad=True) for v in (x, w, bias)]
        out = ag.linear(*ts)
        ag.backward(sum_all(mul(out, Tensor(g))))
        _assert_same_bits([out.data] + [t.grad for t in ts], [x @ w + bias, g @ w.T, x.T @ g, g.sum(axis=0)])

    def test_no_bias_bitwise_equal_to_matmul_float32(self):
        rng = np.random.default_rng(12)
        x, w, g = (rng.normal(size=s).astype(np.float32) for s in ((37, 24), (24, 19), (37, 19)))
        ts = [Tensor(v.copy(), requires_grad=True) for v in (x, w)]
        out = ag.linear(*ts, None)
        assert len(out._parents) == 2  # no bias parent; the backward releases the node's parents
        ag.backward(sum_all(mul(out, Tensor(g))))
        _assert_same_bits([out.data] + [t.grad for t in ts], [x @ w, g @ w.T, x.T @ g])

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            ag.linear(t64(np.zeros((2, 3))), t64(np.zeros((3, 4))), t64(np.zeros(3)))
        with pytest.raises(ShapeError):
            ag.linear(t64(np.zeros((2, 3))), t64(np.zeros((2, 4))), t64(np.zeros(4)))


class TestBce:
    """``ag.bce`` against the composed graph it replaced, ``composed.composed_bce``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stages", [1, 2, 6])
    @pytest.mark.parametrize("outputs", [1, 3])
    def test_bitwise_equal_to_the_composed_graph(self, dtype, stages, outputs):
        rng = np.random.default_rng(10 * stages + outputs)
        lo, hi = dtype(1e-7), dtype(1.0 - 1e-7)
        # exactly 0 and 1, the clip bounds, and one step inside each bound
        edges = np.array([0.0, 1.0, lo, hi, np.nextafter(lo, dtype(1)), np.nextafter(hi, dtype(0))], dtype)
        for trial in range(40):
            values = rng.uniform(0.0, 1.0, size=(stages, 1, outputs)).astype(dtype)
            hit = rng.random(values.shape) < 0.5
            values[hit] = rng.choice(edges, size=int(hit.sum()))
            target = rng.integers(0, 2, size=outputs).astype(np.float64)
            upstream = 1.0 if trial % 2 else 0.75  # odd trials: the loss itself; even: scaled first

            def run(loss_fn):
                ts = [Tensor(v.copy(), requires_grad=True) for v in values]
                loss = loss_fn(ts, target)
                ag.backward(loss if upstream == 1.0 else scale(loss, upstream))
                return [loss.data] + [t.grad for t in ts]

            for got, want in zip(run(ag.bce), run(composed_bce), strict=True):
                assert got.dtype == want.dtype == dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), f"trial {trial}"

    def test_one_node_over_every_stage(self):
        stages = [t64([[0.2, 0.7, 0.5]], requires_grad=True) for _ in range(6)]
        loss = ag.bce(stages, [0.0, 1.0, 0.0])
        assert loss.shape == () and loss._parents == tuple(stages)

    def test_clamped_probabilities_get_no_gradient(self):
        p = t64([[0.0, 1.0, 0.5]], requires_grad=True)
        ag.backward(ag.bce([p], [1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(p.grad, [[0.0, 0.0, -1.0 / (3 * 0.5)]])

    def test_bad_inputs(self):
        with pytest.raises(UsageError, match="at least one"):
            ag.bce([], [1.0])
        with pytest.raises(ShapeError, match=r"2 targets.*\(1, 3\)"):
            ag.bce([t64([[0.5, 0.5, 0.5]])], [1.0, 0.0])
        with pytest.raises(UsageError, match="mixed dtypes"):
            ag.bce([t64([[0.5]]), Tensor(np.array([[0.5]], dtype=np.float32))], [1.0])


class TestProbe:
    def test_linear_macs_counted(self):
        with ag.op_probe() as probe:
            ag.linear(t64(np.zeros((3, 4))), t64(np.zeros((4, 5))), t64(np.zeros(5)))
        assert probe.macs == 3 * 4 * 5

    def test_no_grad_skips_graph(self):
        x = t64([1.0], requires_grad=True)
        with ag.no_grad():
            out = sum_all(x)
        assert out._backward is None and not out.requires_grad


def test_float32_default_dtype():
    assert Tensor([1.0, 2.0]).data.dtype == np.float32
    assert Tensor(np.zeros(2, dtype=np.float64)).data.dtype == np.float64


# the engine; every other public callable is an op the program runs
ENGINE = {"Tensor", "backward", "no_grad", "op_probe", "OpProbe", "zero_grad"}
# a Tensor operator overload is reached through its operator, not by name; the scan counts an
# overload as used when its operator appears in another module at all, on tensors or not
OVERLOADS = {"__add__": ast.Add, "__radd__": ast.Add, "__sub__": ast.Sub, "__rsub__": ast.Sub,
             "__mul__": ast.Mult, "__rmul__": ast.Mult, "__truediv__": ast.Div, "__matmul__": ast.MatMult}


def test_every_public_op_is_used_by_another_module():
    src = pathlib.Path(ag.__file__).parent
    tree = ast.parse((src / "autograd.py").read_text(encoding="utf-8"))
    public = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")}
    used, operators = set(), set()
    for path in sorted(src.glob("*.py")):
        if path.name == "autograd.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        aliases = set()
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "autograd":
                used |= {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
                aliases |= {a.asname or a.name for a in node.names if a.name == "autograd"}
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                used.add(node.attr)
            elif isinstance(node, ast.BinOp):
                operators.add(type(node.op))
    tensor = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Tensor")
    for method in tensor.body:
        if isinstance(method, ast.FunctionDef) and OVERLOADS.get(method.name) in operators:
            used |= {n.id for n in ast.walk(method) if isinstance(n, ast.Name)}
    assert ENGINE <= public
    assert sorted(public - ENGINE - used) == [], "move ops only the tests run into tests/composed.py"
