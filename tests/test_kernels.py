"""Banded im2col convolution, strided-view pooling, fused batchnorm and
the fused cross-entropy against reference kernels."""
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
    transposed_conv2d,
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
    # the head's tile-grid GEMMs with more than one tap per axis (k = 2s)
    # and with a kernel that is not a multiple of the stride (k = 5, s = 3);
    # conv2d with k = 2s at stride 4 runs the banded im2col kernels
    for dtype in (np.float64, np.float32):
        _check_head(rng, 2, 3, 2, (4, 6), 4, 8, dtype)
        _check_head(rng, 2, 3, 2, (4, 6), 3, 5, dtype)
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fused_relu", [True, False])
@pytest.mark.parametrize("mode", ["train", "infer"])
def test_batchnorm_recompute_bit_identical(rng, mode, fused_relu, dtype):
    c = 5
    x = (rng.normal(size=(3, c, 6, 7)) * 2 + 40).astype(dtype)
    state = BatchNormState(c, dtype=dtype)
    state.running_mean = rng.normal(40, 1, size=c).astype(dtype)
    state.running_var = rng.uniform(2, 5, size=c).astype(dtype)
    scale = Parameter(rng.uniform(0.5, 2, size=c).astype(dtype), "s")
    shift = Parameter(rng.normal(size=c).astype(dtype), "b")
    y = batchnorm(Tensor(x, requires_grad=True), scale, shift, state, mode, relu=fused_relu)
    expected = y.data.copy()
    assert y.recompute().tobytes() == expected.tobytes()
    release(y)
    assert y._data is None
    assert y.data.dtype == dtype and y.data.tobytes() == expected.tobytes()
    assert (expected == 0).any() == fused_relu


def test_batchnorm_without_graph_has_no_recompute(rng):
    x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    y = batchnorm(Tensor(x), Parameter(np.ones(3, np.float32), "s", requires_grad=False),
                  Parameter(np.zeros(3, np.float32), "b", requires_grad=False),
                  BatchNormState(3), "train", relu=True)
    held = y.data
    release(y)
    assert y.recompute is None and y.data is held


def _conv_dx_dilated(dout, w, padding):
    """The stride-1 input gradient through an explicitly zero-padded raster."""
    k = w.shape[-1]
    pad = k - 1 - padding
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
    got = functional._conv_dx(dout, w, 1, 1, (side, side))
    assert got.tobytes() == _conv_dx_dilated(dout, w, 1).tobytes()


@pytest.mark.parametrize("k,padding", [(1, 0), (3, 0), (3, 2), (5, 2), (4, 1)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stride1_conv_dx_bit_identical_at_other_paddings(rng, k, padding, dtype):
    h, wd = 9, 7
    w = rng.normal(size=(4, 3, k, k)).astype(dtype)
    dout = rng.normal(size=(2, 4, h + 2 * padding - k + 1, wd + 2 * padding - k + 1)).astype(dtype)
    got = functional._conv_dx(dout, w, 1, padding, (h, wd))
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
    y = batchnorm(y, frozen_[1], frozen_[2], state, mode, relu=True)
    return maxpool2(y).data if pool else y.data


def _band_rows(monkeypatch, rows, ci, wo):
    """Bands of `rows` output rows for a 3x3 conv of ci channels, wo wide."""
    monkeypatch.setattr(functional, "_BAND_BYTES", rows * ci * 9 * wo * 4)


# (input, output) widths of the tiny branch (TINY_BLOCKS) and the default one
UNIT_WIDTHS = {"tiny": (8, 16), "default": (32, 64)}


@pytest.mark.parametrize("bands", ["one", "three_rows"])
@pytest.mark.parametrize("pool", [False, True])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("widths", list(UNIT_WIDTHS))
def test_conv_unit_kernel_bit_identical_to_op_chain(rng, monkeypatch, widths, stride, batch,
                                                    pool, bands):
    ci, co = UNIT_WIDTHS[widths]
    ho, wo = 8, 6
    x = rng.normal(size=(batch, ci, ho * stride, wo * stride)).astype(np.float32)
    w = rng.normal(0.0, 0.3, size=(co, ci, 3, 3)).astype(np.float32)
    state, scale, shift = _unit_state(rng, co)
    if bands == "three_rows":
        # bands of 3, 3 and 2 rows: the first ends on an unpaired row, which carries
        _band_rows(monkeypatch, 3, ci, wo)
    expected = _unit_chain(x, w, scale, shift, state, stride, pool)
    got = functional.conv_bn_relu(x, w, scale, shift, state, stride, 1, pool)
    assert got.shape == expected.shape and got.dtype == np.float32
    assert got.tobytes() == expected.tobytes()
    assert (expected == 0).any() and (expected > 0).any()


def test_conv_unit_kernel_reads_strided_input(rng, monkeypatch):
    # a window of a scene, as tiled inference passes it
    scene = rng.normal(size=(3, 40, 36)).astype(np.float32)
    x = scene[None, :, 5:37, 2:34]
    w = rng.normal(size=(8, 3, 3, 3)).astype(np.float32)
    state, scale, shift = _unit_state(rng, 8)
    _band_rows(monkeypatch, 5, 3, 16)
    expected = _unit_chain(np.ascontiguousarray(x), w, scale, shift, state, 2, True)
    got = functional.conv_bn_relu(x, w, scale, shift, state, 2, 1, True)
    assert got.tobytes() == expected.tobytes()


def _raised(fn):
    with pytest.raises(NonFiniteError) as err:
        fn()
    return str(err.value)


@pytest.mark.parametrize("pool", [False, True])
@pytest.mark.parametrize("case", ["nan_input", "inf_hidden_by_relu", "affine_overflow",
                                  "overflow_then_nan"])
def test_conv_unit_kernel_raises_where_the_chain_raises(rng, monkeypatch, case, pool):
    ci, co, ho, wo = 4, 6, 8, 6
    x = rng.normal(size=(1, ci, ho, wo)).astype(np.float32)
    w = rng.normal(size=(co, ci, 3, 3)).astype(np.float32)
    state, scale, shift = _unit_state(rng, co)
    _band_rows(monkeypatch, 3, ci, wo)
    if case == "nan_input":
        x[0, 1, 5, 2] = np.nan
    elif case == "inf_hidden_by_relu":
        # +inf times a negative scale is -inf, which the ReLU turns into 0
        w = np.abs(w)
        x = np.abs(x)
        x[0, :, 6, 3] = np.inf
        scale = -np.abs(scale)
    else:
        # the first band overflows in the affine, with finite conv outputs
        scale[2] = 3e38
        state.running_var[2] = 1.0
        if case == "overflow_then_nan":
            x[0, 0, 7, 1] = np.nan  # a later band's conv output is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _raised(lambda: _unit_chain(x, w, scale, shift, state, 1, pool))
        assert expected == _raised(
            lambda: functional.conv_bn_relu(x, w, scale, shift, state, 1, 1, pool))
    op = "batchnorm" if case == "affine_overflow" else "conv2d"
    assert expected == f"non-finite values produced by {op}"


def test_conv_unit_kernel_refuses_what_the_chain_refuses(rng):
    state, scale, shift = _unit_state(rng, 4)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    with pytest.raises(ValueError, match="channel mismatch: input 2, weight 3"):
        functional.conv_bn_relu(np.zeros((1, 2, 8, 8), np.float32), w, scale, shift, state,
                                1, 1, False)
    with pytest.raises(ValueError, match="maxpool2 needs even spatial extents, got 7x8"):
        functional.conv_bn_relu(np.zeros((1, 3, 7, 8), np.float32), w, scale, shift, state,
                                1, 1, True)


def _twin(state):
    twin = BatchNormState(len(state.running_mean))
    twin.running_mean = state.running_mean.copy()
    twin.running_var = state.running_var.copy()
    return twin


def _same_stats(a, b):
    return (a.running_mean.tobytes() == b.running_mean.tobytes()
            and a.running_var.tobytes() == b.running_var.tobytes())


@pytest.mark.parametrize("pool", [False, True])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("widths", list(UNIT_WIDTHS))
def test_train_unit_kernel_bit_identical_to_op_chain(rng, widths, stride, batch, pool):
    ci, co = UNIT_WIDTHS[widths]
    x = rng.normal(2.0, 1.0, size=(batch, ci, 8 * stride, 6 * stride)).astype(np.float32)
    x.flags.writeable = False  # the kernel never writes into its input
    w = rng.normal(0.05, 0.3, size=(co, ci, 3, 3)).astype(np.float32)
    chain_state, scale, shift = _unit_state(rng, co)
    state = _twin(chain_state)
    before = state.running_mean.copy()
    expected = _unit_chain(x, w, scale, shift, chain_state, stride, pool, "train")
    got = functional.conv_bn_relu_train(x, w, scale, shift, state, stride, 1, pool)
    assert got.shape == expected.shape and got.dtype == np.float32
    assert got.tobytes() == expected.tobytes()
    assert (expected == 0).any() and (expected > 0).any()
    assert _same_stats(state, chain_state) and not np.array_equal(state.running_mean, before)


@pytest.mark.parametrize("pool", [False, True])
@pytest.mark.parametrize("case", ["nan_input", "inf_input", "affine_overflow"])
def test_train_unit_kernel_raises_where_the_chain_raises(rng, case, pool):
    ci, co = 4, 6
    x = rng.normal(size=(2, ci, 8, 6)).astype(np.float32)
    w = rng.normal(size=(co, ci, 3, 3)).astype(np.float32)
    chain_state, scale, shift = _unit_state(rng, co)
    if case == "nan_input":
        x[1, 1, 5, 2] = np.nan
    elif case == "inf_input":
        # +inf times a negative scale would be -inf, which the ReLU turns into 0
        w, x = np.abs(w), np.abs(x)
        x[0, :, 6, 3] = np.inf
        scale = -np.abs(scale)
    else:
        # finite conv outputs, but one channel's affine overflows
        w[2] *= 1e-3
        scale[2] = 3e38
    x.flags.writeable = False
    state = _twin(chain_state)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _raised(lambda: _unit_chain(x, w, scale, shift, chain_state, 1, pool, "train"))
        assert expected == _raised(
            lambda: functional.conv_bn_relu_train(x, w, scale, shift, state, 1, 1, pool))
    op = "batchnorm" if case == "affine_overflow" else "conv2d"
    assert expected == f"non-finite values produced by {op}"
    assert _same_stats(state, chain_state)


def test_train_unit_kernel_refuses_what_the_chain_refuses(rng):
    state, scale, shift = _unit_state(rng, 4)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    with pytest.raises(ValueError, match="at least 2 values per channel"):
        functional.conv_bn_relu_train(np.ones((1, 3, 1, 1), np.float32), w, scale, shift,
                                      state, 1, 1, False)
    with pytest.raises(ValueError, match="maxpool2 needs even spatial extents, got 7x8"):
        functional.conv_bn_relu_train(np.ones((1, 3, 7, 8), np.float32), w, scale, shift,
                                      state, 1, 1, True)
