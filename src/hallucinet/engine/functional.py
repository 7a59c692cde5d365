"""Network primitives: convolution, pooling, batchnorm, activations, softmax.

Convolutions unfold one sample at a time, a band of output rows at a
time, into im2col columns of bounded size, copied from a window view of
the band's zero-edged rows, and run one GEMM per band. Three kernels
(forward, input-gradient, weight-gradient) serve conv2d; the input
gradient, taken at stride 1 only, is itself a forward convolution of the
padded output gradient. transposed_conv2d, the upsampling head, does not
use them: it runs as dense GEMMs on the grid of its stride-sized output
tiles. Max pooling works on the four strided corner views of its
windows. A conv unit that builds no graph (conv, batchnorm with ReLU,
and a block's pooling) is one kernel in either batchnorm mode,
`conv_bn_relu`, bit for bit the output of those ops. It and `batchnorm`
share batchnorm's one home, `_normalizer` and `_affine_relu`;
`channel_softmax`, the fused cross-entropy and inference share one
softmax, `mean_softmax`.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import NonFiniteError, Tensor, _accumulate, check_finite, make_node, release


# -- raw convolution kernels (no autodiff) --------------------------------
#
# Small kernels unfold one sample at a time into a column buffer of shape
# (Ci*kh*kw, rows*Wo), one band of output rows at a time, and run one GEMM
# per band. Bands are sized by _BAND_BYTES, so the buffer does not grow
# with the image; their zero-edged rows by 1/128 of it. `_conv_dw` sums
# its GEMMs band by band, so the partition fixes the bits of its gradient:
# another budget or rows formula changes default-geometry checkpoints.

_BAND_BYTES = 4 << 20  # column buffer budget of one band


def _col_bands(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
               ho: int, wo: int):
    """Yield (sample, r0, r1, cols) with cols the im2col block of output rows r0:r1.

    cols[(c, u, v), (i - r0) * wo + j] = padded x[sample, c, stride*i + u,
    stride*j + v], zero where the window lies in the padding, so
    w.reshape(Co, -1) @ cols is that band of the output, copied a channel
    group at a time from a window view of the band's zero-edged rows. One
    buffer serves every band; a band's cols are valid until the next one.
    """
    if padding < 0:  # a negative padding crops x
        x, padding = x[:, :, -padding:padding, -padding:padding], 0
    n, ci, h, wd = x.shape
    k = ci * kh * kw
    rows = max(1, min(ho, _BAND_BYTES // (k * wo * x.dtype.itemsize)))
    buf = np.empty(k * rows * wo, dtype=x.dtype)
    span, width = stride * (rows - 1) + kh, wd + 2 * padding
    group = max(1, min(ci, (_BAND_BYTES >> 7) // (span * width * x.dtype.itemsize)))
    padded = np.zeros((group, span, width), dtype=x.dtype)
    inner = padded[:, :, padding:padding + wd]  # the columns left and right stay zero
    # win[c, u, v, i, j] = padded[c, stride*i + u, stride*j + v]
    win = sliding_window_view(padded, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    win = win.transpose(0, 3, 4, 1, 2)
    for sample in range(n):
        for r0 in range(0, ho, rows):
            r1 = min(ho, r0 + rows)
            cols = buf[:k * (r1 - r0) * wo].reshape(ci, kh, kw, r1 - r0, wo)
            start = stride * r0 - padding  # x's row at the buffer's first
            end = start + stride * (r1 - r0 - 1) + kh
            lo, hi = max(0, start), max(0, start, min(h, end))
            padded[:, :lo - start] = 0  # the rows above and below x, if any
            padded[:, hi - start:end - start] = 0
            for c0 in range(0, ci, group):
                g = min(group, ci - c0)
                inner[:g, lo - start:hi - start] = x[sample, c0:c0 + g, lo:hi]
                np.copyto(cols[c0:c0 + g], win[:g, :, :, :r1 - r0, :wo])
            yield sample, r0, r1, cols.reshape(k, (r1 - r0) * wo)


def _conv_extent(x_shape, w_shape, stride: int, padding: int) -> tuple[int, int]:
    """conv2d's output extents (Ho, Wo); refuses mismatched channels and an empty output."""
    _, ci, h, wd = x_shape
    _, ci_w, kh, kw = w_shape
    if ci != ci_w:
        raise ValueError(f"conv2d channel mismatch: input {ci}, weight {ci_w}")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(f"conv2d output would be empty for input {h}x{wd}, kernel {kh}x{kw}")
    return ho, wo


def _conv_fwd(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    ho, wo = _conv_extent(x.shape, w.shape, stride, padding)
    n, co = x.shape[0], w.shape[0]
    out = np.empty((n, co, ho * wo), dtype=x.dtype)
    w2 = w.reshape(co, -1)
    for sample, r0, r1, cols in _col_bands(x, *w.shape[2:], stride, padding, ho, wo):
        np.matmul(w2, cols, out=out[sample, :, r0 * wo:r1 * wo])
    return out.reshape(n, co, ho, wo)


def _conv_dx(dout: np.ndarray, w: np.ndarray, padding: int) -> np.ndarray:
    """The input gradient of a stride-1 conv with a square kernel: the
    forward kernel over dout, padded by k-1-p, with the flipped and
    transposed kernel (a negative padding crops dout)."""
    flipped = np.ascontiguousarray(w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    return _conv_fwd(dout, flipped, 1, w.shape[-1] - 1 - padding)


def _conv_dw(dout: np.ndarray, x: np.ndarray, stride: int, padding: int,
             kernel_hw: tuple[int, int]) -> np.ndarray:
    n, co, ho, wo = dout.shape
    _, ci = x.shape[:2]
    kh, kw = kernel_hw
    dw = np.zeros((co, ci * kh * kw), dtype=dout.dtype)
    part = np.empty_like(dw)
    dflat = dout.reshape(n, co, ho * wo)
    for sample, r0, r1, cols in _col_bands(x, kh, kw, stride, padding, ho, wo):
        np.matmul(dflat[sample, :, r0 * wo:r1 * wo], cols.T, out=part)
        dw += part
    return dw.reshape(co, ci, kh, kw)


# -- differentiable ops ----------------------------------------------------

def _differentiated():
    raise ValueError("read of a released conv2d output after its backward: "
                     "a recompute would read weights the optimizer may have moved")


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of (N,Ci,H,W) with (Co,Ci,kh,kw) plus bias.

    Its input is differentiable at stride 1 with a square kernel only, as
    in every conv of a branch past its first, which reads the image.

    A node that records a graph edge can rebuild its output
    (`Tensor.recompute`) with its own kernel over x and the weight as
    they are at that read, so the bits are the forward's while the
    weights have not moved; its backward never reads the output. Once
    the backward has run, the optimizer may move the weight: the output
    is then kept if it is held, and a read of it raises ValueError if it
    was released."""
    k_hw = weight.data.shape[2:]
    if x.requires_grad and (stride != 1 or k_hw[0] != k_hw[1]):
        raise ValueError(f"conv2d differentiates its input at stride 1 with a square kernel "
                         f"only, got stride {stride} and a {k_hw[0]}x{k_hw[1]} kernel")

    def forward() -> np.ndarray:
        data = _conv_fwd(x.data, weight.data, stride, padding)
        return data if bias is None else data + bias.data[:, None, None]

    def backw(out):
        if x.requires_grad:
            _accumulate(x, _conv_dx(out.grad, weight.data, padding))
        if weight.requires_grad:
            _accumulate(weight, _conv_dw(out.grad, x.data, stride, padding, k_hw))
        if bias is not None and bias.requires_grad:
            _accumulate(bias, out.grad.sum(axis=(0, 2, 3)))
        out.recompute = None if out._data is not None else _differentiated

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = make_node(forward(), "conv2d", parents, backw)
    if out.requires_grad:
        out.recompute = forward
    return out


# -- the upsampling head -----------------------------------------------------
#
# The head is a transposed convolution with a 2s x 2s kernel at an even
# stride s, padded by s/2. It adds x[i] * w[a] at raster row s*i + a, so
# row s*t + r of the uncropped raster is x[t] * w[s + r] + x[t - 1] * w[r]
# for every phase r < s at once: on the grid of T = h + 1 tiles of s x s
# pixels, the head is one GEMM of each tile's (c, 2, 2) window of the
# scores with the weight as a (c*2*2, d*s*s) matrix, and the output is
# that raster cropped by s/2, taken in one transposing copy. The backward
# uses the same layouts: with G the output gradient on the tile grid, dw
# is windows^T @ G and dx gathers the windows' gradient G @ W^T.

def _head_weight(w: np.ndarray, s: int) -> np.ndarray:
    """(c, d, 2s, 2s) weights as the (c*2*2, d*s*s) GEMM matrix, rows (c, a, b)
    for window offset (a, b) = tap (1-mu, 1-nu)."""
    c, d = w.shape[:2]
    w6 = w.reshape(c, d, 2, s, 2, s)[:, :, ::-1, :, ::-1]
    return w6.transpose(0, 2, 4, 1, 3, 5).reshape(c * 4, d * s * s)


def _crop_spans(s: int, h: int) -> list[tuple[slice, slice, slice]]:
    """(output phases, tiles, tile phases) that place output row s*t + r,
    t < h, at row s*t + r + s/2 of the tile grid's raster: the crop."""
    half = s // 2
    return [(slice(0, half), slice(0, h), slice(half, s)),
            (slice(half, s), slice(1, h + 1), slice(0, half))]


def transposed_conv2d(x: Tensor, weight: Tensor, stride: int) -> Tensor:
    """Fractional-strided convolution of (N,Ci,H,W) with (Ci,Co,2s,2s) at
    an even stride s, padded by s/2: the output is exactly s times the
    input extents (the FCN upsampling configuration)."""
    c, d, k, kw = weight.data.shape
    n, cx, h, wd = x.data.shape
    if cx != c:
        raise ValueError(f"transposed_conv2d channel mismatch: input {cx}, weight {c}")
    if stride < 2 or stride % 2 or k != 2 * stride or kw != k:
        raise ValueError(f"transposed_conv2d takes a 2*stride square kernel at an even "
                         f"stride, got {k}x{kw} at stride {stride}")
    s = stride
    tt, tu = h + 1, wd + 1
    spans = [(ro, co, rt, ct, rp, cp)
             for ro, rt, rp in _crop_spans(s, h)
             for co, ct, cp in _crop_spans(s, wd)]
    # windows[(n, t, u), (c, a, b)] = x[n, c, t + a - 1, u + b - 1], zero outside
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
    windows = sliding_window_view(xp, (2, 2), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
    windows = windows.reshape(n * tt * tu, c * 4)
    grid = (windows @ _head_weight(weight.data, s)).reshape(n, tt, tu, d, s, s)
    data = np.empty((n, d, h * s, wd * s), dtype=x.data.dtype)
    tiled = data.reshape(n, d, h, s, wd, s)
    for ro, co, rt, ct, rp, cp in spans:
        np.copyto(tiled[:, :, :, ro, :, co], grid[:, rt, ct, :, rp, cp].transpose(0, 3, 1, 4, 2, 5))
    del grid

    def backw(out):
        g = np.zeros((n, tt, tu, d, s, s), dtype=out.grad.dtype)
        og = out.grad.reshape(n, d, h, s, wd, s)
        for ro, co, rt, ct, rp, cp in spans:
            np.copyto(g[:, rt, ct, :, rp, cp], og[:, :, :, ro, :, co].transpose(0, 2, 4, 1, 3, 5))
        g = g.reshape(n * tt * tu, d * s * s)
        if weight.requires_grad:
            dw = (windows.T @ g).reshape(c, 2, 2, d, s, s)[:, ::-1, ::-1]
            dw = dw.transpose(0, 3, 1, 4, 2, 5).reshape(c, d, k, k)
            _accumulate(weight, dw)
        if x.requires_grad:
            taps = (g @ _head_weight(weight.data, s).T).reshape(n, tt, tu, c, 2, 2)
            dx = np.zeros(x.data.shape, dtype=taps.dtype)
            for a in range(2):
                for b in range(2):
                    tap = taps[:, 1 - a:1 - a + h, 1 - b:1 - b + wd, :, a, b]
                    dx += tap.transpose(0, 3, 1, 2)
            _accumulate(x, dx)

    return make_node(data, "transposed_conv2d", (x, weight), backw)


def bilinear_kernel(channels: int, kernel_size: int) -> np.ndarray:
    """Per-channel bilinear upsampling weights, shape (C, C, k, k)."""
    factor = (kernel_size + 1) // 2
    center = factor - 1 if kernel_size % 2 == 1 else factor - 0.5
    og = np.ogrid[:kernel_size, :kernel_size]
    filt = ((1 - abs(og[0] - center) / factor) * (1 - abs(og[1] - center) / factor))
    weight = np.zeros((channels, channels, kernel_size, kernel_size), dtype=np.float32)
    for c in range(channels):
        weight[c, c] = filt
    return weight


def _pool2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2x2 max pooling over the last two axes of an array, into `out` if
    given: max(max(v0, v1), max(v2, v3)) over the four corners of every
    window, in row-major window order."""
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 needs even spatial extents, got {h}x{w}")
    v = [x[..., i::2, j::2] for i in (0, 1) for j in (0, 1)]
    out = np.maximum(v[0], v[1], out=out)
    return np.maximum(out, np.maximum(v[2], v[3]), out=out)


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling; gradient goes to the first maximum in row-major window order."""
    data = _pool2(x.data)
    # the four corners of every window, in row-major window order
    corners = [(slice(i, None, 2), slice(j, None, 2)) for i in (0, 1) for j in (0, 1)]

    def backw(out):
        if x.requires_grad:
            xd = x.data
            dx = np.empty_like(xd)
            bits = np.dtype(f"u{xd.dtype.itemsize}")
            g = out.grad.view(bits)
            open_ = np.ones(data.shape, dtype=bool)  # windows whose maximum is not yet taken
            hit = np.empty_like(open_)
            for ri, rj in corners:
                np.equal(xd[:, :, ri, rj], data, out=hit)
                hit &= open_
                # where(hit, grad, 0) by its bits, written in place; -0 stays -0
                np.multiply(g, hit, out=dx[:, :, ri, rj].view(bits))
                open_ ^= hit  # hit is a subset of open_
            _accumulate(x, dx)

    return make_node(data, "maxpool2", (x,), backw)


class BatchNormState:
    """Running mean/variance of one batchnorm layer, 0 and 1 at first,
    held in `arrays`, a (mean, var) pair of arrays of `channels` values
    such as views of a branch's store, or in new arrays of `dtype`. Train
    mode writes them in place."""

    momentum, eps = 0.1, 1e-5

    def __init__(self, channels: int, dtype=np.float32, arrays=None):
        self.running_mean, self.running_var = arrays or (np.empty(channels, dtype),
                                                         np.empty(channels, dtype))
        self.running_mean[...] = 0
        self.running_var[...] = 1


def _normalizer(state: BatchNormState, mode: str, scale: np.ndarray, shift: np.ndarray,
                dtype, xv: np.ndarray | None = None, out: np.ndarray | None = None):
    """Batchnorm's per-channel normalization in `mode`: returns (centred,
    centre, a32, b32, mean, inv_std, a), so that the output is
    (x - centre)*a32 + b32, x*a + b taken about the rounded centre for
    precision, with a = scale*inv_std and b = shift - mean*a; centre, a32
    and b32 are (C, 1) in `dtype`. Train mode takes mean and var from the
    (N, C, P) values `xv` and advances the running averages in place;
    infer mode reads them from `state`. When xv is given, centred is
    xv - centre, written to `out` (which may be xv), else to a new array."""
    if mode == "train":
        m = xv.shape[0] * xv.shape[2]
        if m < 2:
            raise ValueError("batchnorm train mode needs at least 2 values per channel")
        # a float64 sum keeps the mean exact to well below the spread when
        # |mean| >> std; var is the second moment about the rounded mean
        mean = np.einsum("ncp->c", xv, dtype=np.float64) / m
    elif mode == "infer":
        mean = state.running_mean.astype(np.float64)
    else:
        raise ValueError(f"batchnorm mode must be 'train' or 'infer', got {mode!r}")
    centre = mean.astype(dtype)
    centred = None if xv is None else np.subtract(xv, centre[:, None], out=out)
    if mode == "train":
        var = np.einsum("ncp,ncp->c", centred, centred) / m - (mean - centre) ** 2
        mom = state.momentum
        state.running_mean[...] = (1 - mom) * state.running_mean + mom * mean
        state.running_var[...] = (1 - mom) * state.running_var + mom * var
    else:
        var = state.running_var.astype(np.float64)
    inv_std = 1.0 / np.sqrt(var + state.eps)
    a = scale * inv_std
    a32 = a.astype(dtype)[:, None]
    b32 = (shift - (mean - centre) * a).astype(dtype)[:, None]
    return centred, centre[:, None], a32, b32, mean, inv_std, a


def _affine_relu(y: np.ndarray, a32: np.ndarray, b32: np.ndarray) -> np.ndarray:
    """Batchnorm's epilogue on centred values, in place: y*a32 + b32,
    clamped at 0."""
    y *= a32
    y += b32
    np.maximum(y, 0, out=y)
    return y


def batchnorm(x: Tensor, scale: Tensor, shift: Tensor, state: BatchNormState,
              mode: str) -> Tensor:
    """Per-channel batch normalization over (N,H,W), rectified.

    Train mode normalizes with batch statistics and advances the running
    averages; infer mode uses the stored running statistics. Per channel,
    the output is max(x*a + b, 0) with a = scale*inv_std and
    b = shift - mean*a, written into one buffer in place.

    The node keeps no normalized copy of x: its backward reads x from
    the parent and the ReLU mask from its own output, and folds the batch
    statistics' gradient into dx = a*g + k2*x + k3 with per-channel k2
    and k3 from sum(g) and sum(g*x). A node that records a graph edge
    can also rebuild its output bit for bit from x (`Tensor.recompute`),
    so the output may be released once the next op has read it. Its
    backward is the last reader of both: it releases its output once it
    has the mask, before it allocates the masked gradient, and x when it
    is done.
    """
    n, c, h, w = x.data.shape
    m = n * h * w
    dtype = x.data.dtype
    data, centre, a32, b32, mean, inv_std, a = _normalizer(
        state, mode, scale.data, shift.data, dtype, x.data.reshape(n, c, h * w))
    _affine_relu(data, a32, b32)

    def recompute() -> np.ndarray:
        # the forward's own vectors and op order, so the bits are the same
        y = np.subtract(x.data.reshape(n, c, h * w), centre)
        return _affine_relu(y, a32, b32).reshape(n, c, h, w)

    def backw(out):
        xv = x.data.reshape(n, c, h * w)
        mask = out.data.reshape(n, c, h * w) > 0
        release(out)  # the mask was its last read: freed before g is allocated
        g = out.grad.reshape(n, c, h * w) * mask
        del mask
        sum_g = np.einsum("ncp->c", g, dtype=np.float64)
        # sum of g * (x - mean), the gradient of scale over inv_std
        sum_gxc = np.einsum("ncp,ncp->c", g, xv, dtype=np.float64) - mean * sum_g
        if scale.requires_grad:
            _accumulate(scale, sum_gxc * inv_std)
        if shift.requires_grad:
            _accumulate(shift, sum_g)
        if x.requires_grad:
            # g is a fresh array once masked, so it can become dx
            dx = np.multiply(g, a32, out=g)
            if mode == "train":
                # mean and var depend on x: dx gains k2*x + k3
                k2 = -a * inv_std ** 2 * sum_gxc / m
                k3 = -a * sum_g / m - k2 * mean
                k2c = k2.astype(dtype)[:, None]
                for sample in range(n):  # xv * k2 one sample at a time
                    dx[sample] += xv[sample] * k2c
                dx += k3.astype(dtype)[:, None]
            _accumulate(x, dx.reshape(x.data.shape))
        release(x)  # no later hook reads the conv output

    out = make_node(data.reshape(x.data.shape), "batchnorm", (x, scale, shift), backw)
    if out.requires_grad:
        out.recompute = recompute
    return out


# -- the graph-free kernel of a conv unit -------------------------------------
#
# In infer mode the kernel works over the output-row bands of `_col_bands`:
# each band's GEMM is the one `_conv_fwd` runs; batchnorm's centring, its
# `_affine_relu`, then the 2x2 pooling, are applied to the band as it
# lands. Train mode's batch statistics need the whole conv output, so it
# runs `_conv_fwd`, `_normalizer` centres that buffer in place, and each
# sample goes through the same `_affine_relu` and pooling. Every GEMM keeps
# its shape and every elementwise step is batchnorm's and maxpool2's, so
# the output is the op chain's, bit for bit.

def conv_bn_relu(x: np.ndarray, weight: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                 state: BatchNormState, mode: str, stride: int, padding: int,
                 pool: bool) -> np.ndarray:
    """conv2d without bias -> batchnorm(..., mode), then
    maxpool2 when `pool` is set, on arrays and without a graph.

    Infer mode holds its output and one band: no conv output besides the
    one the affine overwrites, no pre-pool activation. When pooling, a band
    that ends on the first row of a pooling pair carries that row over to
    the next band. Train mode normalizes in the conv output's buffer, where
    batchnorm writes a second one, and advances the running statistics as
    the chain does. Neither writes into x. A non-finite value raises
    NonFiniteError naming the op of the chain that would have raised:
    conv2d if any conv output is non-finite, otherwise batchnorm.
    """
    ho, wo = _conv_extent(x.shape, weight.shape, stride, padding)
    n, co = x.shape[0], weight.shape[0]
    dtype = x.dtype
    conv = None
    if mode == "train":
        conv = _conv_fwd(x, weight, stride, padding).reshape(n, co, ho * wo)
        check_finite(conv, "conv2d")
        bands = ((sample, 0, ho, None) for sample in range(n))
    else:
        bands = _col_bands(x, *weight.shape[2:], stride, padding, ho, wo)
    _, centre, a32, b32, *_ = _normalizer(state, mode, scale, shift, dtype, conv, out=conv)
    if pool and (ho % 2 or wo % 2):  # after train mode's statistics advanced, as in the chain
        raise ValueError(f"maxpool2 needs even spatial extents, got {ho}x{wo}")
    w2 = weight.reshape(co, -1)
    if pool:
        out = np.empty((n, co, ho // 2, wo // 2), dtype=dtype)
    else:
        out = conv if conv is not None else np.empty((n, co, ho * wo), dtype=dtype)
    band = None  # infer mode, pooling: a carried row, then a band
    bn_finite = True
    carry = 0
    for sample, r0, r1, cols in bands:
        if cols is None:  # train mode: the sample's centred conv output
            held = y = conv[sample]
        elif pool:
            if band is None:
                band = np.empty((co, (r1 - r0 + 1) * wo), dtype=dtype)
            held = band[:, :(carry + r1 - r0) * wo]
            y = held[:, carry * wo:]
        else:
            y = out[sample, :, r0 * wo:r1 * wo]
        if cols is not None:
            np.matmul(w2, cols, out=y)
            check_finite(y, "conv2d")
            np.subtract(y, centre, out=y)
        _affine_relu(y, a32, b32)
        bn_finite = bn_finite and bool(np.isfinite(y).all())
        if not pool:
            continue
        rows = held.shape[1] // wo
        pairs = rows // 2
        if pairs:
            row = (r0 - carry) // 2
            _pool2(held[:, :2 * pairs * wo].reshape(co, 2 * pairs, wo),
                   out=out[sample, :, row:row + pairs])
        carry = rows % 2
        if carry and rows > 1:
            held[:, :wo] = held[:, (rows - 1) * wo:]
    if not bn_finite:
        raise NonFiniteError("non-finite values produced by batchnorm")
    return out if pool else out.reshape(n, co, ho, wo)


def relu(x: Tensor) -> Tensor:
    def backw(out):
        # out > 0 exactly where x > 0, so no mask is kept from the forward
        if x.requires_grad:
            _accumulate(x, out.grad * (out.data > 0))

    return make_node(np.maximum(x.data, 0), "relu", (x,), backw)


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))

    def backw(out):
        if x.requires_grad:
            _accumulate(x, out.grad * s * (1.0 - s))

    return make_node(s, "sigmoid", (x,), backw)


def channel_softmax(x: Tensor) -> Tensor:
    """Per-pixel softmax over the channel axis, max-subtracted for stability."""
    p = mean_softmax([x])

    def backw(out):
        if x.requires_grad:
            inner = (out.grad * p).sum(axis=1, keepdims=True)
            _accumulate(x, p * (out.grad - inner))

    return make_node(p, "channel_softmax", (x,), backw)


# Unused by the program (softmax_nll fuses it); perfbench/probes.py looks it up by name.
def gather_channel(x: Tensor, index: np.ndarray) -> Tensor:
    """Pick x[n, index[n,i,j], i, j] for every pixel; index is constant."""
    idx = index[:, None, :, :]
    data = np.take_along_axis(x.data, idx, axis=1)[:, 0]

    def backw(out):
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            np.put_along_axis(dx, idx, out.grad[:, None], axis=1)
            _accumulate(x, dx)

    return make_node(data, "gather_channel", (x,), backw)


def mean_softmax(logits: list[Tensor]) -> np.ndarray:
    """Channel softmax of the mean of `logits`, ((a + b) + c) * (1/k) in the
    dtype, in a fresh buffer; a mean that overflows raises NonFiniteError."""
    first = logits[0]
    for other in logits[1:]:
        if other.shape != first.shape:
            raise ValueError(f"logit shape mismatch: {other.shape} vs {first.shape}")
    if len(logits) == 1:
        p = np.subtract(first.data, first.data.max(axis=1, keepdims=True))
    else:
        p = first.data + logits[1].data
        for t in logits[2:]:
            p += t.data
        p *= np.asarray(1.0 / len(logits), dtype=p.dtype)
        top = p.max(axis=1, keepdims=True)
        check_finite(top, "mean_softmax")  # the softmax is finite where its maximum is
        p -= top
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def softmax_nll(logits: list[Tensor], flat_index: np.ndarray, pixel_w: np.ndarray,
                scale: float, floor: float) -> Tensor:
    """scale * sum(pixel_w * log(max(p_l, floor))) as one node, with p the
    channel softmax of the mean of `logits` and p_l its elements at
    `flat_index` in the flattened (N,C,H,W) order: each pixel's label.

    The value and every gradient must equal, bit for bit, those of the
    op chain mean -> channel_softmax -> gather_channel -> clamp_min ->
    log -> mul -> tsum -> mul (tests/reference_kernels.py), so that
    checkpoints and logged losses do not depend on which one ran: the
    mean is ((a + b) + c) * (1/k) in the dtype, and each step rounds as
    in that chain. The node keeps the label-channel probability and the
    floor mask; backward rebuilds the softmax from the logits, bit for
    bit, and turns it into the logits' gradient, the same array for
    every input.
    """
    dtype = logits[0].dtype
    p_l = mean_softmax(logits).take(flat_index)
    mask = p_l > floor
    terms = np.maximum(p_l, floor)
    np.log(terms, out=terms)
    terms *= pixel_w
    scale = np.asarray(scale, dtype=dtype)
    value = np.asarray(terms.sum(), dtype=dtype) * scale

    def backw(out):
        g = out.grad * scale * pixel_w
        g /= np.maximum(p_l, floor)
        g *= mask
        # inner is the channel sum of g * p, nonzero only at the label;
        # adding the other channels' exact zeros turns a -0 into +0
        inner = g * p_l + 0
        label = p_l * (g - inner)
        p = mean_softmax(logits)
        dx = np.multiply(p, np.subtract(0, inner)[:, None], out=p)
        np.put(dx, flat_index, label)
        if len(logits) > 1:
            dx *= np.asarray(1.0 / len(logits), dtype=dtype)
        for t in logits:
            if t.requires_grad:
                _accumulate(t, dx)

    return make_node(np.asarray(value, dtype=dtype), "softmax_nll", tuple(logits), backw)
