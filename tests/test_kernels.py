"""Banded im2col convolution, strided-view pooling, fused batchnorm and
the fused cross-entropy and mimicry terms against reference kernels."""
import numpy as np
import pytest

import hallucinet.engine.functional as functional
import reference_kernels
from hallucinet.engine import (
    BatchNormState,
    NonFiniteError,
    Parameter,
    Tensor,
    backward,
    batchnorm,
    conv2d,
    maxpool2,
    mul,
    release,
    relu,
    sigmoid_mse,
    softmax_nll,
    transposed_conv2d,
    tsum,
)
from hallucinet.losses import PROB_FLOOR, ClassWeights, _pixel_targets, weighted_cross_entropy
from hallucinet.model import BranchConfig
from reference_kernels import (
    conv_dw,
    conv_dx,
    conv_fwd,
    cross_entropy_chain,
    maxpool2_bwd,
    maxpool2_fwd,
    mimicry_chain,
)

# relative to the reference's largest absolute value, fixed per dtype
TOLERANCE = {np.float64: 1e-12, np.float32: 1e-5}


def _conv_grads(x, w, stride, padding, dout):
    """Output, dx and dw of conv2d with upstream gradient `dout`; the input
    is differentiable at stride 1 only, and dx is None at another stride."""
    xt = Tensor(x, requires_grad=stride == 1)
    wt = Parameter(w, "w")
    y = conv2d(xt, wt, None, stride=stride, padding=padding)
    backward(tsum(mul(y, Tensor(dout))))
    return y.data, xt.grad, wt.grad


def _assert_close(got, ref, dtype):
    assert got.dtype == ref.dtype == dtype and got.shape == ref.shape
    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() <= TOLERANCE[dtype] * scale


def _band_rows(monkeypatch, rows, x_shape, k, stride, padding, dtype=np.float32):
    """Size `_BAND_BYTES` for bands of `rows` output rows of a k x k conv
    over inputs of `x_shape`, and assert that `_col_bands` cuts them so."""
    n, ci, h, wd = x_shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    itemsize = np.dtype(dtype).itemsize
    monkeypatch.setattr(functional, "_BAND_BYTES", rows * ci * k * k * wo * itemsize)
    x = np.broadcast_to(np.zeros((), dtype), x_shape)
    got = [(r0, r1) for _, r0, r1, _ in functional._col_bands(x, k, k, stride, padding, ho, wo)]
    assert got == [(r0, min(ho, r0 + rows)) for _ in range(n) for r0 in range(0, ho, rows)]


def _check_conv(rng, n, ci, co, hw, k, stride, padding, dtype):
    x = rng.normal(size=(n, ci) + hw).astype(dtype)
    w = rng.normal(size=(co, ci, k, k)).astype(dtype)
    ho = (hw[0] + 2 * padding - k) // stride + 1
    wo = (hw[1] + 2 * padding - k) // stride + 1
    dout = rng.normal(size=(n, co, ho, wo)).astype(dtype)
    out, dx, dw = _conv_grads(x, w, stride, padding, dout)
    _assert_close(out, conv_fwd(x, w, stride, padding), dtype)
    if stride == 1:
        _assert_close(dx, conv_dx(dout, w, stride, padding, hw), dtype)
    else:
        assert dx is None
    _assert_close(dw, conv_dw(dout, x, stride, padding, (k, k)), dtype)


@pytest.mark.parametrize("budget", ["default", "two_rows"])
@pytest.mark.parametrize("hw", [(7, 9), (8, 6)], ids=["odd", "even"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 4])
def test_conv_matches_reference(rng, monkeypatch, k, stride, padding, batch, hw, budget):
    ci, co = 3, 5
    for dtype in (np.float64, np.float32):
        if budget == "two_rows":
            # bands of at most two output rows, so most shapes end in a short band
            _band_rows(monkeypatch, 2, (batch, ci) + hw, k, stride, padding, dtype)
        _check_conv(rng, batch, ci, co, hw, k, stride, padding, dtype)


def test_columns_over_budget_split_into_bands(rng):
    n, ci, co, hw, k = 1, 16, 4, (64, 64), 3
    x = rng.normal(size=(n, ci) + hw)
    bands = [(r0, r1) for _, r0, r1, _ in functional._col_bands(x, k, k, 1, 1, *hw)]
    assert ci * k * k * hw[0] * hw[1] * x.itemsize > functional._BAND_BYTES
    assert len(bands) > 1 and bands[-1][1] == hw[0]
    for dtype in (np.float64, np.float32):
        _check_conv(rng, n, ci, co, hw, k, 1, 1, dtype)


@pytest.mark.parametrize("budget", ["one_band", "two_rows"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 4])
def test_col_bands_equal_padded_copy_columns(rng, monkeypatch, k, stride, budget):
    ci, (h, wd) = 3, (9, 7)
    x = rng.normal(size=(2, ci, h, wd)).astype(np.float32)
    for padding in range(k + 3):  # past k too, where bands lie wholly in the padding
        ho = (h + 2 * padding - k) // stride + 1
        wo = (wd + 2 * padding - k) // stride + 1
        rows = ho if budget == "one_band" else 2
        monkeypatch.setattr(functional, "_BAND_BYTES", rows * ci * k * k * wo * x.itemsize)
        got = functional._col_bands(x, k, k, stride, padding, ho, wo)
        expected = reference_kernels.col_bands(x, k, k, stride, padding, ho, wo, rows)
        for (*band, cols), (*ref_band, ref_cols) in zip(got, expected, strict=True):
            assert band == ref_band and cols.shape == ref_cols.shape
            assert cols.tobytes() == ref_cols.tobytes()


def test_col_bands_in_channel_groups_equal_padded_copy_columns(rng):
    """At the default budget, a 3x3 conv of 41 channels over 128^2 cuts into
    bands of 22 rows, the last of 18, each built in channel groups of 2, the
    last of 1; the columns equal those of a padded copy of the sample."""
    ci, side, k = 41, 128, 3
    x = rng.normal(size=(1, ci, side, side)).astype(np.float32)
    rows = functional._BAND_BYTES // (ci * k * k * side * x.itemsize)
    group = (functional._BAND_BYTES >> 7) // ((rows - 1 + k) * (side + 2) * x.itemsize)
    assert (rows, side % rows, group, ci % group) == (22, 18, 2, 1)
    got = functional._col_bands(x, k, k, 1, 1, side, side)
    expected = reference_kernels.col_bands(x, k, k, 1, 1, side, side, rows)
    for (*band, cols), (*ref_band, ref_cols) in zip(got, expected, strict=True):
        assert band == ref_band and cols.tobytes() == ref_cols.tobytes()


def _default_branch_convs(channels, side):
    """(input channels, kernel, input side, stride, padding) of each conv
    of the default branch over a side x side input, the score head last."""
    config = BranchConfig(class_count=8)
    convs, ci = [], channels
    for b, (width, n_convs) in enumerate(config.blocks):
        for i in range(n_convs):
            stride = config.first_conv_stride if b == i == 0 else 1
            convs.append((ci, 3, side, stride, 1))
            ci, side = width, side // stride
        side //= 2
    return convs + [(ci, 1, side, 1, 0)]


# bands per sample of each default-branch conv, for a color (3-channel) and
# a height (1-channel) input
@pytest.mark.parametrize("batch, side, counts", [
    (4, 256, {3: [1, 5, 2, 3, 1, 2, 1, 1, 1], 1: [1, 5, 2, 3, 1, 2, 1, 1, 1]}),
    (1, 512, {3: [2, 19, 5, 10, 3, 5, 2, 3, 1], 1: [1, 19, 5, 10, 3, 5, 2, 3, 1]}),
], ids=["train-batch", "eval-scene"])
def test_default_band_partition(batch, side, counts):
    """At the 4 MiB budget, `_col_bands` cuts each sample of each conv of
    the default branch into bands of max(1, min(ho, budget // (k * wo *
    itemsize))) rows, at the training batch and on an eval scene.

    `_conv_dw` sums its GEMMs band by band, so this partition fixes the
    bits of every default-geometry weight gradient, and so of the
    checkpoints. The smoke configs' convs each fit one band, so their
    checkpoints cannot show another budget or rows formula; this test does.
    """
    for channels, want in counts.items():
        got = []
        for ci, k, h, stride, padding in _default_branch_convs(channels, side):
            x = np.broadcast_to(np.float32(0), (batch, ci, h, h))
            ho = wo = (h + 2 * padding - k) // stride + 1
            rows = max(1, min(ho, (4 << 20) // (ci * k * k * wo * x.itemsize)))
            bands = [(r0, r1) for _, r0, r1, _
                     in functional._col_bands(x, k, k, stride, padding, ho, wo)]
            assert bands == [(r0, min(ho, r0 + rows))
                             for _ in range(batch) for r0 in range(0, ho, rows)]
            got.append(len(bands) // batch)
        assert got == want


@pytest.mark.parametrize("side", [256, 512], ids=["train-batch", "eval-scene"])
def test_col_bands_pad_one_channel_group_at_a_time(side):
    """Beside its column buffer, `_col_bands` holds one channel group's
    padded band rows: at most `_BAND_BYTES >> 7`, or one channel's rows
    where those alone are larger, never a whole band of every channel.
    16 KiB covers the views and the generator's Python objects."""
    import tracemalloc

    for ci, k, h, stride, padding in _default_branch_convs(3, side):
        x = np.zeros((1, ci, h, h), dtype=np.float32)
        ho = wo = (h + 2 * padding - k) // stride + 1
        rows = max(1, min(ho, functional._BAND_BYTES // (ci * k * k * wo * x.itemsize)))
        columns = ci * k * k * rows * wo * x.itemsize
        channel = (stride * (rows - 1) + k) * (h + 2 * padding) * x.itemsize
        tracemalloc.start()
        try:
            for _ in functional._col_bands(x, k, k, stride, padding, ho, wo):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pad = max(functional._BAND_BYTES >> 7, channel)
        assert peak < columns + pad + (16 << 10), (ci, h, peak, columns, pad)


def _check_head(rng, n, c, d, hw, stride, k, dtype):
    """transposed_conv2d against the float64 adjoint of the reference conv:
    its output is conv_dx, its dx conv_fwd and its dw conv_dw."""
    padding = (k - stride) // 2
    x = rng.normal(size=(n, c) + hw)
    w = rng.normal(size=(c, d, k, k))
    out_hw = (hw[0] * stride, hw[1] * stride)
    dout = rng.normal(size=(n, d) + out_hw)
    xt = Tensor(x.astype(dtype), requires_grad=True)
    wt = Parameter(w.astype(dtype), "w")
    y = transposed_conv2d(xt, wt, stride)
    backward(tsum(mul(y, Tensor(dout.astype(dtype)))))
    _assert_close(y.data, conv_dx(x, w, stride, padding, out_hw).astype(dtype), dtype)
    _assert_close(xt.grad, conv_fwd(dout, w, stride, padding).astype(dtype), dtype)
    _assert_close(wt.grad, conv_dw(x, dout, stride, padding, (k, k)).astype(dtype), dtype)


@pytest.mark.parametrize("hw", [(3, 3), (4, 2), (3, 5)], ids=["odd", "even", "nonsquare"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("stride", [2, 4, 8, 32])
def test_upsampling_head_matches_float64_reference(rng, stride, batch, hw):
    for dtype in (np.float64, np.float32):
        _check_head(rng, batch, 3, 2, hw, stride, 2 * stride, dtype)


def test_tiled_upsampling_path_matches_reference(rng):
    # the head's tile-grid GEMMs with two taps per axis (k = 2s); conv2d
    # with k = 2s at stride 4 runs the banded im2col kernels
    for dtype in (np.float64, np.float32):
        _check_head(rng, 2, 3, 2, (4, 6), 4, 8, dtype)
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_backward_keeps_signed_zeros_of_the_gradient(rng, dtype):
    x = _post_relu(rng, (2, 3, 8, 10), dtype)
    dout = rng.normal(size=(2, 3, 4, 5)).astype(dtype)
    dout[rng.random(dout.shape) < 0.3] = -0.0
    dout[rng.random(dout.shape) < 0.2] = 0.0
    xt = Tensor(x, requires_grad=True)
    backward(tsum(mul(maxpool2(xt), Tensor(dout))))
    ref = maxpool2_bwd(x, dout)
    assert np.signbit(ref[ref == 0]).any() and (x == 0).sum() > x.size // 4
    assert xt.grad.dtype == ref.dtype and xt.grad.tobytes() == ref.tobytes()


def test_relu_gradient_on_signed_zeros():
    x = np.array([-2.0, -0.0, 0.0, 3.0, 5e-324, -5e-324, -0.0, 0.0])
    g = np.array([1.5, -2.0, 4.0, -1.0, -3.0, 2.0, 7.0, -8.0])
    xt = Tensor(x, requires_grad=True)
    backward(tsum(mul(relu(xt), Tensor(g))))
    expected = g * (x > 0)  # the mask the gradient has always used
    assert xt.grad.tobytes() == expected.tobytes()


# the conv-BN-ReLU units of the default branch at batch 4 and 256^2 input
UNIT_SHAPES = [(4, 32, 128, 128), (4, 64, 64, 64), (4, 128, 32, 32), (4, 256, 16, 16)]


# batchnorm rectifies; at a shift raised by LIFT its ReLU never clips
LIFT = 100.0


def _bn_run(bn, x, scale, shift, mean, var, dout, mode):
    """Output, dx, dscale, dshift and running stats of one batchnorm with
    ReLU: `batchnorm`, or the reference's followed by its relu."""
    state = BatchNormState(len(scale), dtype=x.dtype)
    state.running_mean, state.running_var = mean.copy(), var.copy()
    xt, st, sh = Tensor(x, requires_grad=True), Parameter(scale, "s"), Parameter(shift, "b")
    y = bn(xt, st, sh, state, mode)
    if bn is not batchnorm:
        y = reference_kernels.relu(y)
    backward(tsum(mul(y, Tensor(dout))))
    return {"out": y.data, "dx": xt.grad, "dscale": st.grad, "dshift": sh.grad,
            "running_mean": state.running_mean, "running_var": state.running_var}


# "plain": at the shift raised by LIFT every output and gradient is the affine's
@pytest.mark.parametrize("lift", [0.0, LIFT], ids=["relu", "plain"])
@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("shape,offset", [(s, 1.0) for s in UNIT_SHAPES]
                         + [(UNIT_SHAPES[0], 100.0)],
                         ids=[f"{s[1]}ch" for s in UNIT_SHAPES] + ["32ch-mean100std"])
def test_fused_batchnorm_matches_float64_reference(rng, shape, offset, mode, lift):
    n, c, h, w = shape
    std = rng.uniform(0.5, 2.0, size=c)
    mean = offset * std * rng.choice([-1.0, 1.0], size=c)
    x = (rng.normal(size=shape) * std[:, None, None] + mean[:, None, None]).astype(np.float32)
    scale = rng.uniform(0.5, 1.5, size=c).astype(np.float32)
    shift = rng.normal(scale=0.5, size=c).astype(np.float32) + np.float32(lift)
    run_mean = (mean + rng.normal(scale=0.1, size=c) * std).astype(np.float32)
    run_var = (std ** 2 * rng.uniform(0.8, 1.2, size=c)).astype(np.float32)
    ref_in = [a.astype(np.float64) for a in (x, scale, shift, run_mean, run_var)]
    dout = rng.normal(size=shape)
    if not lift:
        # float32 and float64 may disagree on the mask right at the kink;
        # the pre-activation is the output at the shift raised by LIFT, less LIFT
        lifted = ref_in[:2] + [ref_in[2] + LIFT] + ref_in[3:]
        pre = _bn_run(reference_kernels.batchnorm, *lifted, dout, mode)["out"] - LIFT
        dout[np.abs(pre) < 1e-3] = 0.0
    ref = _bn_run(reference_kernels.batchnorm, *ref_in, dout, mode)
    got = _bn_run(batchnorm, x, scale, shift, run_mean, run_var, dout.astype(np.float32), mode)
    assert (ref["out"] > 0).all() if lift else (ref["out"] == 0).any()
    for key, want in ref.items():
        assert got[key].dtype == np.float32 and got[key].shape == want.shape, key
        if key == "out":  # compared about the lift, as the pre-activation
            got[key], want = got[key] - np.float32(lift), want - lift
        err = np.abs(got[key] - want).max()
        assert err <= 1e-5 * np.abs(want).max(), (key, err)


def test_fused_batchnorm_leaves_inputs_untouched(rng):
    x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    grad = rng.normal(size=x.shape).astype(np.float32)
    xt, before = Tensor(x, requires_grad=True), x.copy()
    y = batchnorm(xt, Parameter(np.ones(3), "s"), Parameter(np.zeros(3), "b"),
                  BatchNormState(3), "train")
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
    if k > 1:  # the objective's fused terms
        loss = softmax_nll(tensors, *_pixel_targets(labels, ClassWeights(weights), tensors[0]),
                           PROB_FLOOR)
    else:
        loss = weighted_cross_entropy(tensors[0], labels, ClassWeights(weights))
    backward(mul(loss, upstream))
    value, grads = cross_entropy_chain(arrays, labels, weights, upstream=np.float32(upstream))

    assert floored.any() and (labels == 255).any()
    assert loss.data.dtype == np.float32
    assert _bits(loss.data) == _bits(value)
    for t, ref in zip(tensors, grads):
        assert t.grad.dtype == np.float32
        assert np.array_equal(_bits(t.grad), _bits(ref))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1), (2, 3, 4, 4), (3, 5, 7, 9), (4, 32, 16, 16)])
def test_sigmoid_mse_bit_identical_to_chain(rng, shape, dtype):
    """Value and tap gradient of the one-node mimicry term under the
    objective's gamma, against the five-op chain; the target gets none."""
    target = (rng.normal(size=shape) * 3).astype(dtype)
    hal = (rng.normal(size=shape) * 3).astype(dtype)
    gamma = float(rng.uniform(0.5, 50.0))
    results = []
    for op in (sigmoid_mse, mimicry_chain):
        t, h = Tensor(target.copy(), requires_grad=True), Tensor(hal.copy(), requires_grad=True)
        loss = op(t, h)
        backward(mul(loss, gamma))
        assert t.grad is None
        results.append((loss.data, h.grad))
    (value, grad), (ref_value, ref_grad) = results
    assert value.dtype == grad.dtype == dtype
    assert value.tobytes() == ref_value.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("clips", [True, False])
@pytest.mark.parametrize("mode", ["train", "infer"])
def test_batchnorm_recompute_bit_identical(rng, mode, clips, dtype):
    c = 5
    x = (rng.normal(size=(3, c, 6, 7)) * 2 + 40).astype(dtype)
    state = BatchNormState(c, dtype=dtype)
    state.running_mean = rng.normal(40, 1, size=c).astype(dtype)
    state.running_var = rng.uniform(2, 5, size=c).astype(dtype)
    scale = Parameter(rng.uniform(0.5, 2, size=c).astype(dtype), "s")
    shift = Parameter((rng.normal(size=c) + (0.0 if clips else LIFT)).astype(dtype), "b")
    y = batchnorm(Tensor(x, requires_grad=True), scale, shift, state, mode)
    expected = y.data.copy()
    assert y.recompute().tobytes() == expected.tobytes()
    release(y)
    assert y._data is None
    assert y.data.dtype == dtype and y.data.tobytes() == expected.tobytes()
    assert (expected == 0).any() == clips


def test_batchnorm_without_graph_has_no_recompute(rng):
    x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    y = batchnorm(Tensor(x), Parameter(np.ones(3, np.float32), "s", requires_grad=False),
                  Parameter(np.zeros(3, np.float32), "b", requires_grad=False),
                  BatchNormState(3), "train")
    held = y.data
    release(y)
    assert y.recompute is None and y.data is held


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ci, side, stride, bias", [(3, 64, 2, False), (16, 32, 1, True)])
def test_conv2d_recompute_bit_identical(rng, ci, side, stride, bias, dtype):
    """A branch's stride-2 first conv, which reads the batch, and a
    stride-1 conv whose input is differentiated, here with a bias."""
    x = Tensor(rng.normal(size=(2, ci, side, side)).astype(dtype), requires_grad=stride == 1)
    w = Parameter(rng.normal(size=(16, ci, 3, 3)).astype(dtype), "w")
    b = Parameter(rng.normal(size=16).astype(dtype), "b") if bias else None
    y = conv2d(x, w, b, stride=stride, padding=1)
    expected = y.data.copy()
    release(y)
    assert y._data is None and y.shape == expected.shape
    assert y.data.dtype == dtype and y.data.tobytes() == expected.tobytes()


def test_conv2d_without_graph_has_no_recompute(rng):
    x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
    w = Parameter(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), "w", requires_grad=False)
    y = conv2d(x, w, None, padding=1)
    held = y.data
    release(y)
    assert y.recompute is None and y.data is held


def test_conv2d_output_is_not_rebuilt_after_its_backward(rng):
    """The optimizer may move the weight once backward has run: a released
    conv output, and the batchnorm output rebuilt from it, then raise on
    read, while a held conv output keeps the forward's value."""
    x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
    w = Parameter(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), "w")
    held = conv2d(x, w, None, padding=1)
    expected = held.data.copy()
    y = conv2d(x, w, None, padding=1)
    out = batchnorm(y, Parameter(np.ones(4, np.float32), "s"),
                    Parameter(np.zeros(4, np.float32), "b"), BatchNormState(4), "train")
    backward(tsum(mul(out, out)) + tsum(held))
    assert held.data.tobytes() == expected.tobytes()
    for released in (y, out):
        with pytest.raises(ValueError, match="conv2d output after its backward"):
            released.data


def test_batchnorm_backward_releases_its_output_then_its_input(rng):
    """The hook frees its recomputed output before it allocates the masked
    gradient, so it holds at most two output-sized arrays at once, and
    releases the conv output it read once it is done."""
    import tracemalloc

    n, c = 2, 16
    x = Tensor(rng.random((n, 3, 64, 64), dtype=np.float32))
    w = Parameter(rng.normal(size=(c, 3, 3, 3)).astype(np.float32), "w")
    y = conv2d(x, w, None, padding=1)
    out = batchnorm(y, Parameter(np.ones(c, np.float32), "s"),
                    Parameter(np.zeros(c, np.float32), "b"), BatchNormState(c), "train")
    release(out)  # as a unit leaves it: the hook recomputes it for its mask
    out.grad = rng.normal(size=out.shape).astype(np.float32)
    tracemalloc.start()
    try:
        out._backward(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out._data is None and y._data is None
    assert y.grad.shape == y.shape
    assert peak <= 2 * out.grad.nbytes, peak / out.grad.nbytes


def _unit(rng, x, co):
    """conv2d without bias, then train-mode batchnorm, as a branch's unit."""
    w = Parameter(rng.normal(size=(co, x.shape[1], 3, 3)).astype(np.float32), "w")
    y = conv2d(x, w, None, padding=1)
    return batchnorm(y, Parameter(np.ones(co, np.float32), "s"),
                     Parameter(np.zeros(co, np.float32), "b"), BatchNormState(co), "train")


def test_conv2d_backward_releases_a_recomputable_input_before_dx(rng, monkeypatch):
    """dw is the hook's last read of its input: a batchnorm output, which
    its own backward can rebuild, is released before dx is allocated;
    a pooled output and the image, which cannot be rebuilt, stay held."""
    image = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32), requires_grad=True)
    normed = _unit(rng, image, 4)
    pooled = maxpool2(_unit(rng, normed, 4))
    out = _unit(rng, pooled, 4)
    inputs = [pooled, normed, image]  # in the order backward reaches their convs
    held = []
    real = functional._conv_dx

    def spy(dout, w, padding):
        held.append(inputs[len(held)]._data is not None)
        return real(dout, w, padding)

    monkeypatch.setattr(functional, "_conv_dx", spy)
    backward(tsum(mul(out, out)))
    assert held == [True, False, True]
    assert image.grad.shape == image.shape


@pytest.mark.parametrize("between", ["conv2d", "batchnorm"])
def test_input_released_by_conv2d_backward_raises_after_it(rng, between):
    """An input that conv2d's backward released, a conv output or a
    batchnorm output rebuilt from one, is not rebuilt from weights the
    optimizer may have moved: after the whole backward a read raises."""
    x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
    w1 = Parameter(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), "w1")
    w2 = Parameter(rng.normal(size=(4, 4, 3, 3)).astype(np.float32), "w2")
    mid = conv2d(x, w1, None, padding=1)
    if between == "batchnorm":
        mid = batchnorm(mid, Parameter(np.ones(4, np.float32), "s"),
                        Parameter(np.zeros(4, np.float32), "b"), BatchNormState(4), "train")
    out = conv2d(mid, w2, None, padding=1)
    backward(tsum(mul(out, out)))
    w1.data -= 0.1  # as an optimizer step would
    with pytest.raises(ValueError, match="conv2d output after its backward"):
        mid.data


def _conv_dx_dilated(dout, w, padding):
    """The stride-1 input gradient through an explicitly zero-padded raster,
    or a cropped one where the padding exceeds k - 1."""
    k = w.shape[-1]
    pad = k - 1 - padding
    if pad < 0:
        raster = dout[:, :, -pad:pad, -pad:pad]
    else:
        raster = np.pad(dout, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    flipped = np.ascontiguousarray(w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    return functional._conv_fwd(raster, flipped, 1, 0)


# the stride-1 3x3 convs of the default branch (one sample of batch 4)
STRIDE1_SHAPES = [(32, 32, 128), (32, 64, 64), (64, 64, 64), (64, 128, 32),
                  (128, 128, 32), (128, 256, 16), (256, 256, 16)]


@pytest.mark.parametrize("ci,co,side", STRIDE1_SHAPES)
def test_stride1_conv_dx_bit_identical_to_dilated(rng, ci, co, side):
    w = rng.normal(size=(co, ci, 3, 3)).astype(np.float32)
    dout = rng.normal(size=(1, co, side, side)).astype(np.float32)
    got = functional._conv_dx(dout, w, 1)
    assert got.tobytes() == _conv_dx_dilated(dout, w, 1).tobytes()


@pytest.mark.parametrize("k,padding", [(1, 0), (3, 0), (3, 2), (5, 2), (4, 1), (1, 1), (3, 3)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stride1_conv_dx_bit_identical_at_other_paddings(rng, k, padding, dtype):
    h, wd = 9, 7
    w = rng.normal(size=(4, 3, k, k)).astype(dtype)
    dout = rng.normal(size=(2, 4, h + 2 * padding - k + 1, wd + 2 * padding - k + 1)).astype(dtype)
    got = functional._conv_dx(dout, w, padding)
    assert got.shape == (2, 3, h, wd)
    assert got.tobytes() == _conv_dx_dilated(dout, w, padding).tobytes()


def _unit_state(rng, co):
    """Non-trivial running statistics and affine of one batchnorm layer."""
    state = BatchNormState(co)
    state.running_mean = rng.normal(0.0, 0.5, co).astype(np.float32)
    state.running_var = rng.uniform(0.05, 2.0, co).astype(np.float32)
    scale = rng.uniform(-1.5, 1.5, co).astype(np.float32)
    shift = rng.normal(0.0, 0.5, co).astype(np.float32)
    return state, scale, shift


def _unit_chain(x, w, scale, shift, state, stride, pool, mode="infer"):
    """conv2d -> batchnorm with ReLU (-> maxpool2), without a graph."""
    frozen_ = [Parameter(a, name, requires_grad=False)
               for a, name in ((w, "w"), (scale, "s"), (shift, "b"))]
    y = conv2d(Tensor(x), frozen_[0], None, stride=stride, padding=1)
    y = batchnorm(y, frozen_[1], frozen_[2], state, mode)
    return maxpool2(y).data if pool else y.data


def _twin(state):
    twin = BatchNormState(len(state.running_mean))
    twin.running_mean = state.running_mean.copy()
    twin.running_var = state.running_var.copy()
    return twin


def _same_stats(a, b):
    return (a.running_mean.tobytes() == b.running_mean.tobytes()
            and a.running_var.tobytes() == b.running_var.tobytes())


# (input, output) widths of the tiny branch (TINY_BLOCKS) and the default one
UNIT_WIDTHS = {"tiny": (8, 16), "default": (32, 64)}


def _check_unit_kernel(rng, monkeypatch, mode, widths, stride, batch, pool, bands):
    """conv_bn_relu equals the op chain bit for bit and leaves the running
    statistics as the chain does: advanced in train mode, unchanged in infer."""
    ci, co = UNIT_WIDTHS[widths]
    ho, wo = 8, 6
    x = rng.normal(2.0, 1.0, size=(batch, ci, ho * stride, wo * stride)).astype(np.float32)
    x.flags.writeable = False  # the kernel never writes into its input
    w = rng.normal(0.05, 0.3, size=(co, ci, 3, 3)).astype(np.float32)
    chain_state, scale, shift = _unit_state(rng, co)
    state = _twin(chain_state)
    before = state.running_mean.copy()
    if bands == "three_rows":
        # bands of 3, 3 and 2 rows: the first ends on an unpaired row, which carries
        _band_rows(monkeypatch, 3, x.shape, 3, stride, 1)
    expected = _unit_chain(x, w, scale, shift, chain_state, stride, pool, mode)
    got = functional.conv_bn_relu(x, w, scale, shift, state, mode, stride, 1, pool)
    assert got.shape == expected.shape and got.dtype == np.float32
    assert got.tobytes() == expected.tobytes()
    assert (expected == 0).any() and (expected > 0).any()
    assert _same_stats(state, chain_state)
    assert np.array_equal(state.running_mean, before) == (mode == "infer")


@pytest.mark.parametrize("bands", ["one", "three_rows"])
@pytest.mark.parametrize("pool", [False, True])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("widths", list(UNIT_WIDTHS))
def test_conv_unit_kernel_bit_identical_to_op_chain(rng, monkeypatch, widths, stride, batch,
                                                    pool, bands):
    _check_unit_kernel(rng, monkeypatch, "infer", widths, stride, batch, pool, bands)


@pytest.mark.parametrize("pool", [False, True])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("widths", list(UNIT_WIDTHS))
def test_train_unit_kernel_bit_identical_to_op_chain(rng, monkeypatch, widths, stride, batch,
                                                     pool):
    for bands in ("one", "three_rows"):
        _check_unit_kernel(rng, monkeypatch, "train", widths, stride, batch, pool, bands)


def test_conv_unit_kernel_reads_strided_input(rng, monkeypatch):
    # a window of a scene, as tiled inference passes it
    scene = rng.normal(size=(3, 40, 36)).astype(np.float32)
    x = scene[None, :, 5:37, 2:34]
    w = rng.normal(size=(8, 3, 3, 3)).astype(np.float32)
    state, scale, shift = _unit_state(rng, 8)
    _band_rows(monkeypatch, 5, x.shape, 3, 2, 1)
    expected = _unit_chain(np.ascontiguousarray(x), w, scale, shift, state, 2, True)
    got = functional.conv_bn_relu(x, w, scale, shift, state, "infer", 2, 1, True)
    assert got.tobytes() == expected.tobytes()


def _raised(fn, error=NonFiniteError):
    with pytest.raises(error) as err:
        fn()
    return str(err.value)


def _check_unit_kernel_raises(rng, monkeypatch, mode, case, pool):
    """conv_bn_relu raises the chain's NonFiniteError and leaves the
    running statistics as the chain leaves them."""
    ci, co, ho, wo = 4, 6, 8, 6
    x = rng.normal(size=(2, ci, ho, wo)).astype(np.float32)
    w = rng.normal(size=(co, ci, 3, 3)).astype(np.float32)
    chain_state, scale, shift = _unit_state(rng, co)
    _band_rows(monkeypatch, 3, x.shape, 3, 1, 1)
    if case == "nan_input":
        x[1, 1, 5, 2] = np.nan
    elif case == "inf_hidden_by_relu":
        # +inf times a negative scale is -inf, which the ReLU turns into 0
        w, x = np.abs(w), np.abs(x)
        x[0, :, 6, 3] = np.inf
        scale = -np.abs(scale)
    else:
        # the first band overflows in the affine, with finite conv outputs
        scale[2] = 3e38
        chain_state.running_var[2] = 1.0
        if case == "overflow_then_nan":
            x[0, 0, 7, 1] = np.nan  # a later band's conv output is NaN
    x.flags.writeable = False
    state = _twin(chain_state)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _raised(lambda: _unit_chain(x, w, scale, shift, chain_state, 1, pool, mode))
        assert expected == _raised(
            lambda: functional.conv_bn_relu(x, w, scale, shift, state, mode, 1, 1, pool))
    op = "batchnorm" if case == "affine_overflow" else "conv2d"
    assert expected == f"non-finite values produced by {op}"
    assert _same_stats(state, chain_state)


NONFINITE_CASES = ["nan_input", "inf_hidden_by_relu", "affine_overflow", "overflow_then_nan"]


@pytest.mark.parametrize("pool", [False, True])
@pytest.mark.parametrize("case", NONFINITE_CASES)
def test_conv_unit_kernel_raises_where_the_chain_raises(rng, monkeypatch, case, pool):
    _check_unit_kernel_raises(rng, monkeypatch, "infer", case, pool)


@pytest.mark.parametrize("pool", [False, True])
@pytest.mark.parametrize("case", [pytest.param(c, id="inf_input" if c == "inf_hidden_by_relu"
                                               else c) for c in NONFINITE_CASES])
def test_train_unit_kernel_raises_where_the_chain_raises(rng, monkeypatch, case, pool):
    _check_unit_kernel_raises(rng, monkeypatch, "train", case, pool)


def _check_unit_kernel_refuses(rng, mode):
    """conv_bn_relu refuses with the chain's message and leaves the running
    statistics as the chain leaves them: a train-mode pooling of odd
    extents is refused once the statistics have advanced."""
    chain_state, scale, shift = _unit_state(rng, 4)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    cases = [(np.zeros((1, 2, 8, 8), np.float32), False, "channel mismatch: input 2, weight 3"),
             (rng.normal(size=(2, 3, 7, 8)).astype(np.float32), True,
              "maxpool2 needs even spatial extents, got 7x8")]
    if mode == "train":
        cases.append((np.ones((1, 3, 1, 1), np.float32), False, "at least 2 values per channel"))
    for x, pool, message in cases:
        state = _twin(chain_state)
        before = state.running_mean.copy()
        with pytest.raises(ValueError, match=message):
            _unit_chain(x, w, scale, shift, chain_state, 1, pool, mode)
        with pytest.raises(ValueError, match=message):
            functional.conv_bn_relu(x, w, scale, shift, state, mode, 1, 1, pool)
        assert _same_stats(state, chain_state)
        advanced = not np.array_equal(state.running_mean, before)
        assert advanced == (mode == "train" and pool)


def test_conv_unit_kernel_refuses_what_the_chain_refuses(rng):
    _check_unit_kernel_refuses(rng, "infer")
    state, scale, shift = _unit_state(rng, 4)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    x = np.zeros((1, 3, 8, 8), np.float32)
    message = "batchnorm mode must be 'train' or 'infer', got 'eval'"
    with pytest.raises(ValueError, match=message):
        _unit_chain(x, w, scale, shift, state, 1, False, "eval")
    with pytest.raises(ValueError, match=message):
        functional.conv_bn_relu(x, w, scale, shift, state, "eval", 1, 1, False)


def test_train_unit_kernel_refuses_what_the_chain_refuses(rng):
    _check_unit_kernel_refuses(rng, "train")
