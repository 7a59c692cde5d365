"""Tensor engine: op semantics, autodiff, and finite-difference oracles."""
import numpy as np
import pytest

from hallucinet.engine import (
    BatchNormState,
    NonFiniteError,
    Parameter,
    Tensor,
    backward,
    batchnorm,
    bilinear_kernel,
    channel_softmax,
    conv2d,
    finite_diff_check,
    maxpool2,
    mean_softmax,
    mul,
    release,
    relu,
    sigmoid,
    transposed_conv2d,
    tsum,
)
from hallucinet.engine.tensor import _accumulate, make_node
from hallucinet.losses import fuse_logits


def t(arr, grad=False, dtype=None):
    return Tensor(np.asarray(arr), requires_grad=grad, dtype=dtype)


class TestConv2d:
    def test_ones_kernel_border_counts(self):
        x = t(np.ones((1, 1, 3, 3)))
        w = t(np.ones((1, 1, 3, 3)))
        b = t(np.zeros(1))
        out = conv2d(x, w, b, stride=1, padding=1).data[0, 0]
        assert out[1, 1] == 9
        assert out[0, 1] == out[1, 0] == out[1, 2] == out[2, 1] == 6
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4

    def test_delta_kernel_is_identity(self, rng):
        x = rng.normal(size=(2, 1, 5, 5)).astype(np.float32)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        out = conv2d(t(x), t(w), t(np.zeros(1)), stride=1, padding=1)
        assert np.array_equal(out.data, x)

    def test_stride2_shape(self):
        x = t(np.ones((1, 1, 4, 4)))
        w = t(np.ones((1, 1, 3, 3)))
        out = conv2d(x, w, t(np.zeros(1)), stride=2, padding=1)
        assert out.data.shape == (1, 1, 2, 2)

    @pytest.mark.parametrize("stride, kernel", [(2, (3, 3)), (3, (1, 1)), (1, (3, 1))],
                             ids=["stride2", "stride3", "nonsquare"])
    def test_differentiable_input_only_at_stride_one(self, stride, kernel):
        # the input gradient is taken at stride 1 with a square kernel
        # only; the input as data is read at any stride
        w = t(np.ones((1, 1) + kernel), grad=True)
        with pytest.raises(ValueError, match=f"got stride {stride} and a "
                                             f"{kernel[0]}x{kernel[1]} kernel"):
            conv2d(t(np.ones((1, 1, 6, 6)), grad=True), w, None, stride=stride, padding=0)
        assert conv2d(t(np.ones((1, 1, 6, 6))), w, None, stride=stride, padding=0).requires_grad

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            conv2d(t(np.ones((1, 2, 4, 4))), t(np.ones((1, 3, 3, 3))), None)

    def test_nonfinite_output_raises(self):
        big = t(np.full((1, 1, 4, 4), 1e30, dtype=np.float32))
        w = t(np.full((1, 1, 3, 3), 1e30, dtype=np.float32))
        with pytest.raises(NonFiniteError):
            conv2d(big, w, None, stride=1, padding=1)


class TestMaxpool:
    def test_window_max(self):
        x = t(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert maxpool2(x).data.item() == 4.0

    def test_negative_values(self):
        x = t(np.array([[-1.0, -2.0], [-3.0, -4.0]]).reshape(1, 1, 2, 2))
        assert maxpool2(x).data.item() == -1.0

    def test_constant_ties_route_once_per_window(self):
        x = t(np.ones((1, 1, 4, 4)), grad=True)
        out = maxpool2(x)
        assert np.all(out.data == 1.0)
        backward(tsum(out))
        # first element in row-major window order takes the whole gradient
        expected = np.zeros((4, 4))
        expected[0::2, 0::2] = 1.0
        assert np.array_equal(x.grad[0, 0], expected)

    def test_odd_extent_rejected(self):
        with pytest.raises(ValueError):
            maxpool2(t(np.ones((1, 1, 3, 4))))


# batchnorm rectifies; at a shift raised by 100 its ReLU never clips
LIFT = 100.0


class TestBatchnorm:
    def test_train_normalizes(self, rng):
        x = t(rng.normal(3.0, 2.0, size=(4, 3, 8, 8)))
        state = BatchNormState(3)
        out = batchnorm(x, t(np.ones(3)), t(np.full(3, LIFT)), state, "train").data - LIFT
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        assert np.allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_infer_uses_running_stats(self):
        state = BatchNormState(2)
        state.running_mean = np.array([1.5, -2.0], dtype=np.float32)
        x = t(np.broadcast_to(np.array([1.5, -2.0], dtype=np.float32)[:, None, None],
                              (2, 4, 4)).reshape(1, 2, 4, 4).copy())
        out = batchnorm(x, t(np.ones(2)), t(np.zeros(2)), state, "infer").data
        assert np.allclose(out, 0.0, atol=1e-5)

    def test_affine_after_normalization(self, rng):
        x = t(rng.normal(size=(4, 2, 8, 8)))
        out = batchnorm(x, t(np.full(2, 2.0)), t(np.full(2, 3.0 + LIFT)),
                        BatchNormState(2), "train").data - LIFT
        assert np.allclose(out.mean(axis=(0, 2, 3)), 3.0, atol=1e-5)
        assert np.allclose(out.std(axis=(0, 2, 3)), 2.0, atol=1e-2)

    def test_running_average_advances(self, rng):
        state = BatchNormState(1)
        x = t(np.full((2, 1, 4, 4), 5.0))
        batchnorm(x, t(np.ones(1)), t(np.zeros(1)), state, "train")
        assert np.isclose(state.running_mean[0], 0.5)

    def test_single_value_rejected(self):
        with pytest.raises(ValueError):
            batchnorm(t(np.ones((1, 2, 1, 1))), t(np.ones(2)), t(np.zeros(2)),
                      BatchNormState(2), "train")


class TestActivations:
    def test_sigmoid_values(self):
        assert sigmoid(t([0.0])).data[0] == pytest.approx(0.5)
        assert sigmoid(t([np.log(3.0)])).data[0] == pytest.approx(0.75)

    def test_relu_clamps_negative(self, rng):
        x = rng.normal(size=32)
        out = relu(t(x)).data
        assert np.all(out[x < 0] == 0)
        assert np.allclose(out[x > 0], x[x > 0])


class TestChannelSoftmax:
    def test_equal_logits_uniform(self):
        p = channel_softmax(t(np.zeros((1, 5, 2, 2)))).data
        assert np.allclose(p, 0.2)

    def test_shift_invariance_and_normalization(self, rng):
        z = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
        p1 = channel_softmax(t(z)).data
        p2 = channel_softmax(t(z + 7.5)).data
        assert np.allclose(p1, p2, atol=1e-6)
        assert np.allclose(p1.sum(axis=1), 1.0, atol=1e-6)

    def test_two_class_value(self):
        p = channel_softmax(t(np.array([2.0, 0.0]).reshape(1, 2, 1, 1))).data.ravel()
        assert p == pytest.approx([0.8808, 0.1192], abs=1e-4)

    def test_mean_softmax_is_the_softmax_of_the_fused_logits(self, rng):
        logits = [t(rng.normal(size=(2, 4, 3, 3)).astype(np.float32)) for _ in range(3)]
        for k in (1, 2, 3):
            expected = channel_softmax(fuse_logits(logits[:k])).data
            assert np.array_equal(mean_softmax(logits[:k]), expected)

    def test_mean_softmax_of_an_overflowing_mean_raises(self):
        big = t(np.full((1, 2, 1, 1), 3e38, dtype=np.float32))
        with pytest.raises(NonFiniteError, match="mean_softmax"):
            mean_softmax([big, big])


class TestTransposedConv:
    def test_constant_preserved_by_bilinear(self):
        # oracle: bilinear interpolation of a constant image is that constant
        w = t(bilinear_kernel(1, 8))
        x = t(np.full((1, 1, 6, 6), 1.7, dtype=np.float32))
        up = transposed_conv2d(x, w, stride=4).data
        assert up.shape == (1, 1, 24, 24)
        interior = up[0, 0, 4:-4, 4:-4]
        assert np.allclose(interior, 1.7, atol=1e-5)

    def test_zero_input(self):
        w = t(bilinear_kernel(2, 4))
        out = transposed_conv2d(t(np.zeros((1, 2, 3, 3))), w, stride=2)
        assert np.all(out.data == 0)

    def test_upsample_factor_two(self, rng):
        w = t(rng.normal(size=(3, 2, 4, 4)))
        out = transposed_conv2d(t(rng.normal(size=(1, 3, 4, 4))), w, stride=2)
        assert out.data.shape == (1, 2, 8, 8)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError):
            transposed_conv2d(t(np.ones((1, 2, 4, 4))), t(np.ones((3, 1, 4, 4))), 2)

    # kernel 2s at an odd stride has no integer padding s/2
    @pytest.mark.parametrize("kernel,stride", [((4, 6), 2), ((1, 1), 3), ((6, 6), 3)],
                             ids=["nonsquare", "below_stride", "odd_stride"])
    def test_kernel_shape_refused(self, kernel, stride):
        message = (r"takes a 2\*stride square kernel at an even stride, "
                   f"got {kernel[0]}x{kernel[1]} at stride {stride}")
        with pytest.raises(ValueError, match=message):
            transposed_conv2d(t(np.ones((1, 2, 3, 3))), t(np.ones((2, 1) + kernel)), stride)


class TestBackward:
    def test_sum_gradient_ones(self, rng):
        p = Parameter(rng.normal(size=(3, 4)), "p")
        backward(tsum(p))
        assert np.array_equal(p.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self, rng):
        v = rng.normal(size=8)
        p = Parameter(v, "p")
        backward(mul(tsum(mul(p, p)), 0.5))
        assert np.allclose(p.grad, v, atol=1e-6)

    def test_non_scalar_root_rejected(self, rng):
        p = Parameter(rng.normal(size=4), "p")
        with pytest.raises(ValueError):
            backward(mul(p, 2.0))

    def test_bit_identical_reruns(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))

        def run():
            xt = Tensor(x, requires_grad=True)
            wt = Tensor(w, requires_grad=True)
            y = conv2d(relu(xt), wt, None, stride=1, padding=1)
            backward(tsum(mul(y, y)))
            return xt.grad.copy(), wt.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1[0], g2[0])
        assert np.array_equal(g1[1], g2[1])

    def test_grad_accumulates_over_reuse(self, rng):
        p = Parameter(rng.normal(size=4), "p")
        backward(tsum(p) + tsum(p))
        assert np.allclose(p.grad, 2.0)

    def test_gradient_of_another_shape_raises(self, rng):
        p = Parameter(rng.normal(size=3), "p")

        def hook(out):
            _accumulate(p, np.ones((2, 3)))

        rows = make_node(np.tile(p.data, (2, 1)), "tile", (p,), hook)
        with pytest.raises(ValueError, match=r"shape \(2, 3\) for parameter of shape \(3,\)"):
            backward(tsum(rows))
        assert p.grad is None


class TestFiniteDiff:
    def test_linear_map_near_exact(self, rng):
        c = rng.normal(size=6)
        err = finite_diff_check(lambda x: tsum(mul(x, Tensor(c, dtype=np.float64))),
                                rng.normal(size=6))
        assert err < 1e-9

    def test_square_derivative(self):
        err = finite_diff_check(lambda x: tsum(mul(x, x)), np.array([3.0]))
        assert err < 1e-8

    def test_relu_positive_slope_one(self):
        err = finite_diff_check(lambda x: tsum(relu(x)), np.array([2.0, 5.0]))
        assert err < 1e-10

    def test_rejects_non_scalar(self, rng):
        with pytest.raises(ValueError):
            finite_diff_check(lambda x: mul(x, 2.0), rng.normal(size=3))


def test_tensor_element_count_matches_shape(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)))
    assert x.data.size == 2 * 3 * 4


def test_high_precision_mode_preserved(rng):
    x = Tensor(rng.normal(size=(1, 2, 4, 4)), dtype=np.float64)
    w = Tensor(rng.normal(size=(2, 2, 3, 3)), dtype=np.float64)
    out = conv2d(x, w, None, stride=1, padding=1)
    assert out.dtype == np.float64


class TestGraphRelease:
    def _graph(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Parameter(rng.normal(size=(4, 3, 3, 3)), "w")
        b = Parameter(rng.normal(size=4), "b")
        y = maxpool2(relu(conv2d(x, w, b, stride=1, padding=1)))
        return [w, b], y, tsum(mul(sigmoid(y), y))

    def test_nodes_released_and_grads_match_unreleased(self, rng):
        from hallucinet.engine.tensor import topo_order

        seed = rng.integers(1 << 30)
        params, _, loss = self._graph(np.random.default_rng(seed))
        loss.grad = np.ones_like(loss.data)
        for node in reversed(topo_order(loss)):  # the same hooks, nothing released
            if node._backward is not None:
                node._backward(node)
        expected = [p.grad.copy() for p in params]

        params, _, loss = self._graph(np.random.default_rng(seed))
        inner = [n for n in topo_order(loss) if n._backward is not None]
        backward(loss)
        for p, g in zip(params, expected):
            assert np.array_equal(p.grad, g)
        assert inner and loss in inner
        for node in inner:
            assert node.grad is None and node.parents == ()
            with pytest.raises(ValueError):
                node._backward(node)  # the closure is gone; a sentinel is left

    def test_second_backward_raises(self, rng):
        _, _, loss = self._graph(rng)
        backward(loss)
        with pytest.raises(ValueError, match="released"):
            backward(loss)

    def test_new_graph_over_released_node_raises_before_any_grad(self, rng):
        params, y, loss = self._graph(rng)
        backward(loss)
        before = [p.grad.copy() for p in params]
        extra = Parameter(rng.normal(size=y.shape), "extra")
        with pytest.raises(ValueError, match="released"):
            backward(tsum(mul(y, extra)))
        assert extra.grad is None
        for p, g in zip(params, before):
            assert np.array_equal(p.grad, g)


class TestRelease:
    def _released(self, rng, calls):
        value = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)

        def recompute():
            calls.append(1)
            return value.copy()

        x = Tensor(value.copy())
        x.recompute = recompute
        release(x)
        return x, value

    def test_shape_and_dtype_without_recomputing(self, rng):
        calls = []
        x, value = self._released(rng, calls)
        assert x.shape == value.shape and x.dtype == np.float32
        assert "shape=(2, 3, 4, 5)" in repr(x)
        assert calls == []

    def test_data_and_detach_recompute_exact_values(self, rng):
        calls = []
        x, value = self._released(rng, calls)
        assert x.data.tobytes() == value.tobytes()
        assert x.detach().data.tobytes() == value.tobytes()
        assert len(calls) == 1  # the recomputed value is held again
        release(x)
        assert x.detach().data.tobytes() == value.tobytes() and len(calls) == 2

    def test_tensor_without_recompute_keeps_its_array(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        held = x.data
        release(x)
        assert x.data is held

    def test_gradient_reaches_a_released_tensor(self, rng):
        calls = []
        x, value = self._released(rng, calls)
        x.requires_grad = True
        w = Parameter(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), "w")
        backward(tsum(conv2d(x, w, None, padding=1)))
        assert x.grad.shape == value.shape and len(calls) == 1  # read for dw only
        release(x)
        assert x.detach().data.tobytes() == value.tobytes()


class TestBackwardFreesProcessedNodes:
    def test_processed_nodes_not_held_to_the_end(self, rng):
        import tracemalloc

        from hallucinet.engine.tensor import _accumulate, make_node

        seen = []

        def probe(x):
            def hook(out):
                seen.append(tracemalloc.get_traced_memory()[0])
                _accumulate(x, out.grad)

            return make_node(x.data.copy(), "probe", (x,), hook)

        x = Parameter(rng.normal(size=(128, 128)), "x")
        nbytes = x.data.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = probe(x)
            for _ in range(8):
                y = mul(y, 1.5)
            loss = tsum(y)
            del y
            backward(loss)
        finally:
            tracemalloc.stop()
        # when the first node's hook runs, the eight later ones are gone:
        # only its value, its gradient and x's gradient remain
        assert seen[0] - base <= 4 * nbytes, (seen[0] - base, nbytes)
        assert np.array_equal(x.grad, np.full(x.shape, 1.5 ** 8))


class TestFrozen:
    def test_frozen_prefix_builds_no_graph(self, rng):
        from hallucinet.engine import frozen

        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        w0 = Parameter(rng.normal(size=(3, 2, 3, 3)), "w0")
        w1 = Parameter(rng.normal(size=(2, 3, 3, 3)), "w1")
        with frozen([w0]):
            h = relu(conv2d(x, w0, None, padding=1))
            loss = tsum(conv2d(h, w1, None, padding=1))
            assert not h.requires_grad and h.parents == ()
            backward(loss)
        assert w0.grad is None and w1.grad is not None
        assert w0.requires_grad and w0.trainable

    def test_flags_restored_on_raise(self):
        from hallucinet.engine import frozen

        a = Parameter(np.ones(2), "a")
        b = Parameter(np.ones(2), "b", requires_grad=False)
        with pytest.raises(RuntimeError):
            with frozen([a, b]):
                assert not a.requires_grad and not a.trainable
                raise RuntimeError("boom")
        assert a.requires_grad and not b.requires_grad
