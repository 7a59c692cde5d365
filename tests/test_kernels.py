"""Banded im2col convolution, strided-view pooling, fused batchnorm and
the fused cross-entropy against reference kernels."""
import numpy as np
import pytest

import hallucinet.engine.functional as functional
import reference_kernels
from hallucinet.engine import (
    BatchNormState,
    Parameter,
    Tensor,
    backward,
    batchnorm,
    conv2d,
    maxpool2,
    mul,
    relu,
    tsum,
)
from hallucinet.losses import ClassWeights, weighted_cross_entropy
from reference_kernels import (
    conv_dw,
    conv_dx,
    conv_fwd,
    cross_entropy_chain,
    maxpool2_bwd,
    maxpool2_fwd,
)

# relative to the reference's largest absolute value, fixed per dtype
TOLERANCE = {np.float64: 1e-12, np.float32: 1e-5}


def _conv_grads(x, w, stride, padding, dout):
    """Output, dx and dw of conv2d with upstream gradient `dout`."""
    xt = Tensor(x, requires_grad=True)
    wt = Parameter(w, "w")
    y = conv2d(xt, wt, None, stride=stride, padding=padding)
    backward(tsum(mul(y, Tensor(dout))))
    return y.data, xt.grad, wt.grad


def _assert_close(got, ref, dtype):
    assert got.dtype == ref.dtype == dtype and got.shape == ref.shape
    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() <= TOLERANCE[dtype] * scale


def _check_conv(rng, n, ci, co, hw, k, stride, padding, dtype):
    x = rng.normal(size=(n, ci) + hw).astype(dtype)
    w = rng.normal(size=(co, ci, k, k)).astype(dtype)
    ho = (hw[0] + 2 * padding - k) // stride + 1
    wo = (hw[1] + 2 * padding - k) // stride + 1
    dout = rng.normal(size=(n, co, ho, wo)).astype(dtype)
    out, dx, dw = _conv_grads(x, w, stride, padding, dout)
    _assert_close(out, conv_fwd(x, w, stride, padding), dtype)
    _assert_close(dx, conv_dx(dout, w, stride, padding, hw), dtype)
    _assert_close(dw, conv_dw(dout, x, stride, padding, (k, k)), dtype)


@pytest.mark.parametrize("budget", ["default", "two_rows"])
@pytest.mark.parametrize("hw", [(7, 9), (8, 6)], ids=["odd", "even"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 4])
def test_conv_matches_reference(rng, monkeypatch, k, stride, padding, batch, hw, budget):
    ci, co = 3, 5
    if budget == "two_rows":
        # bands of at most two output rows, so most shapes end in a short band
        wo = (hw[1] + 2 * padding - k) // stride + 1
        monkeypatch.setattr(functional, "_BAND_BYTES", 2 * ci * k * k * wo * 8)
    for dtype in (np.float64, np.float32):
        _check_conv(rng, batch, ci, co, hw, k, stride, padding, dtype)


def test_columns_over_budget_split_into_bands(rng):
    n, ci, co, hw, k = 1, 16, 4, (64, 64), 3
    x = rng.normal(size=(n, ci) + hw)
    bands = [(r0, r1) for _, r0, r1, _ in functional._col_bands(x, k, k, 1, 1, *hw)]
    assert ci * k * k * hw[0] * hw[1] * x.itemsize > functional._BAND_BYTES
    assert len(bands) > 1 and bands[-1][1] == hw[0]
    for dtype in (np.float64, np.float32):
        _check_conv(rng, n, ci, co, hw, k, 1, 1, dtype)


def test_tiled_upsampling_path_matches_reference(rng):
    # k = 2 * stride with stride > 2 takes the einsum path of all three kernels
    for dtype in (np.float64, np.float32):
        _check_conv(rng, 2, 3, 2, (16, 24), 8, 4, 2, dtype)


def _post_relu(rng, shape, dtype):
    """Integers clamped at zero: many windows tie at 0, some at 1 or 2."""
    return np.maximum(np.round(rng.normal(size=shape)), 0).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_bit_identical_on_tied_zeros(rng, dtype):
    x = _post_relu(rng, (3, 4, 10, 12), dtype)
    x[0, 0] = 0.0  # whole channel of tied zeros
    dout = rng.normal(size=(3, 4, 5, 6)).astype(dtype)
    xt = Tensor(x, requires_grad=True)
    out = maxpool2(xt)
    backward(tsum(mul(out, Tensor(dout))))
    ref_out, ref_dx = maxpool2_fwd(x), maxpool2_bwd(x, dout)
    assert out.data.dtype == ref_out.dtype and out.data.tobytes() == ref_out.tobytes()
    assert xt.grad.dtype == ref_dx.dtype and xt.grad.tobytes() == ref_dx.tobytes()


def test_relu_gradient_on_signed_zeros():
    x = np.array([-2.0, -0.0, 0.0, 3.0, 5e-324, -5e-324, -0.0, 0.0])
    g = np.array([1.5, -2.0, 4.0, -1.0, -3.0, 2.0, 7.0, -8.0])
    xt = Tensor(x, requires_grad=True)
    backward(tsum(mul(relu(xt), Tensor(g))))
    expected = g * (x > 0)  # the mask the gradient has always used
    assert xt.grad.tobytes() == expected.tobytes()


# the conv-BN-ReLU units of the default branch at batch 4 and 256^2 input
UNIT_SHAPES = [(4, 32, 128, 128), (4, 64, 64, 64), (4, 128, 32, 32), (4, 256, 16, 16)]


def _bn_run(bn, x, scale, shift, mean, var, dout, mode, fused_relu):
    """Output, dx, dscale, dshift and running stats of one batchnorm(+ReLU)."""
    state = BatchNormState(len(scale), dtype=x.dtype)
    state.running_mean, state.running_var = mean.copy(), var.copy()
    xt, st, sh = Tensor(x, requires_grad=True), Parameter(scale, "s"), Parameter(shift, "b")
    if bn is batchnorm:
        y = batchnorm(xt, st, sh, state, mode, relu=fused_relu)
    else:
        y = bn(xt, st, sh, state, mode)
        if fused_relu:
            y = reference_kernels.relu(y)
    backward(tsum(mul(y, Tensor(dout))))
    return {"out": y.data, "dx": xt.grad, "dscale": st.grad, "dshift": sh.grad,
            "running_mean": state.running_mean, "running_var": state.running_var}


@pytest.mark.parametrize("fused_relu", [True, False], ids=["relu", "plain"])
@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("shape,offset", [(s, 1.0) for s in UNIT_SHAPES]
                         + [(UNIT_SHAPES[0], 100.0)],
                         ids=[f"{s[1]}ch" for s in UNIT_SHAPES] + ["32ch-mean100std"])
def test_fused_batchnorm_matches_float64_reference(rng, shape, offset, mode, fused_relu):
    n, c, h, w = shape
    std = rng.uniform(0.5, 2.0, size=c)
    mean = offset * std * rng.choice([-1.0, 1.0], size=c)
    x = (rng.normal(size=shape) * std[:, None, None] + mean[:, None, None]).astype(np.float32)
    scale = rng.uniform(0.5, 1.5, size=c).astype(np.float32)
    shift = rng.normal(scale=0.5, size=c).astype(np.float32)
    run_mean = (mean + rng.normal(scale=0.1, size=c) * std).astype(np.float32)
    run_var = (std ** 2 * rng.uniform(0.8, 1.2, size=c)).astype(np.float32)
    ref_in = [a.astype(np.float64) for a in (x, scale, shift, run_mean, run_var)]
    dout = rng.normal(size=shape)
    if fused_relu:
        # float32 and float64 may disagree on the mask right at the kink
        pre = _bn_run(reference_kernels.batchnorm, *ref_in, dout, mode, False)["out"]
        dout[np.abs(pre) < 1e-3] = 0.0
    ref = _bn_run(reference_kernels.batchnorm, *ref_in, dout, mode, fused_relu)
    got = _bn_run(batchnorm, x, scale, shift, run_mean, run_var,
                  dout.astype(np.float32), mode, fused_relu)
    for key, want in ref.items():
        assert got[key].dtype == np.float32 and got[key].shape == want.shape, key
        err = np.abs(got[key] - want).max()
        assert err <= 1e-5 * np.abs(want).max(), (key, err)


def test_fused_batchnorm_leaves_inputs_untouched(rng):
    x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    grad = rng.normal(size=x.shape).astype(np.float32)
    xt, before = Tensor(x, requires_grad=True), x.copy()
    y = batchnorm(xt, Parameter(np.ones(3), "s"), Parameter(np.zeros(3), "b"),
                  BatchNormState(3), "train", relu=True)
    y.grad = grad
    y._backward(y)
    assert np.array_equal(x, before) and np.array_equal(y.grad, grad)


def _bits(arr):
    return np.asarray(arr, dtype=np.float32).view(np.uint32)


@pytest.mark.parametrize("upstream", [1.0, -0.37])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_fused_cross_entropy_bit_identical_to_chain(rng, k, upstream):
    n, c, h, w = 2, 5, 6, 7
    labels = rng.integers(0, c, size=(n, h, w))
    labels[0, :2] = 255  # ignored pixels
    arrays = [(rng.normal(size=(n, c, h, w)) * 3).astype(np.float32) for _ in range(k)]
    # a label logit 40 below the others: its probability, about 4e-18, is
    # clamped at the floor and passes no gradient
    floored = (labels == 1) & (rng.random((n, h, w)) < 0.5)
    for a in arrays:
        a[:, 1][floored] -= 40.0
    weights = rng.uniform(0.5, 3.0, size=c)

    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = weighted_cross_entropy(tensors if k > 1 else tensors[0], labels, ClassWeights(weights))
    backward(mul(loss, upstream))
    value, grads = cross_entropy_chain(arrays, labels, weights, upstream=np.float32(upstream))

    assert floored.any() and (labels == 255).any()
    assert loss.data.dtype == np.float32
    assert _bits(loss.data) == _bits(value)
    for t, ref in zip(tensors, grads):
        assert t.grad.dtype == np.float32
        assert np.array_equal(_bits(t.grad), _bits(ref))
