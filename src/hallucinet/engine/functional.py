"""Network primitives: convolution, pooling, batchnorm, activations, softmax.

Convolutions unfold one padded sample at a time into bands of im2col
columns of bounded size and run one GEMM per band. Three kernels
(forward, input-gradient, weight-gradient) serve conv2d; the
input-gradient is itself a forward convolution of the zero-dilated (at
stride 1, merely padded) output gradient. transposed_conv2d, the
upsampling head, does not use them: it runs as dense GEMMs on the grid of
its stride-sized output tiles. Max pooling works on the four strided
corner views of its windows. A conv unit that builds no graph (conv,
batchnorm with ReLU, and a block's pooling) is one kernel, bit for bit
the output of those ops: `conv_bn_relu`, banded, in infer mode, and
`conv_bn_relu_train`, which normalizes in the conv output, in train mode.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import NonFiniteError, Tensor, _accumulate, check_finite, make_node


# -- raw convolution kernels (no autodiff) --------------------------------
#
# Small kernels unfold one padded sample at a time into a column buffer of
# shape (Ci*kh*kw, rows*Wo), one band of output rows at a time, and run one
# GEMM per band. Bands are sized by _BAND_BYTES, so the buffer does not grow
# with the image.

_BAND_BYTES = 4 << 20  # column buffer budget of one band


def _col_bands(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
               ho: int, wo: int):
    """Yield (sample, r0, r1, cols) with cols the im2col block of output rows r0:r1.

    cols[(c, u, v), (i - r0) * wo + j] = padded x[sample, c, stride*i + u,
    stride*j + v], so w.reshape(Co, -1) @ cols is that band of the output.
    One buffer serves every band; a band's cols are only valid until the
    next one is requested.
    """
    n, ci, h, wd = x.shape
    k = ci * kh * kw
    rows = max(1, min(ho, _BAND_BYTES // (k * wo * x.dtype.itemsize)))
    buf = np.empty(k * rows * wo, dtype=x.dtype)
    xp = np.zeros((ci, h + 2 * padding, wd + 2 * padding), dtype=x.dtype) if padding else None
    for sample in range(n):
        if padding:
            xp[:, padding:padding + h, padding:padding + wd] = x[sample]
        else:
            xp = x[sample]
        # win[c, u, v, i, j] = xp[c, stride*i + u, stride*j + v]
        win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
        win = win.transpose(0, 3, 4, 1, 2)
        for r0 in range(0, ho, rows):
            r1 = min(ho, r0 + rows)
            cols = buf[:k * (r1 - r0) * wo].reshape(ci, kh, kw, r1 - r0, wo)
            np.copyto(cols, win[:, :, :, r0:r1])
            yield sample, r0, r1, cols.reshape(k, (r1 - r0) * wo)


def _conv_fwd(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    n, ci, h, wd = x.shape
    co, ci_w, kh, kw = w.shape
    if ci != ci_w:
        raise ValueError(f"conv2d channel mismatch: input {ci}, weight {ci_w}")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(f"conv2d output would be empty for input {h}x{wd}, kernel {kh}x{kw}")
    out = np.empty((n, co, ho * wo), dtype=x.dtype)
    w2 = w.reshape(co, -1)
    for sample, r0, r1, cols in _col_bands(x, kh, kw, stride, padding, ho, wo):
        np.matmul(w2, cols, out=out[sample, :, r0 * wo:r1 * wo])
    return out.reshape(n, co, ho, wo)


def _dilated_span(offset: int, stride: int, count: int, extent: int) -> tuple[slice, slice]:
    """Slices placing samples 0..count-1 at offset + stride*i, kept inside [0, extent)."""
    lo = max(0, -(offset // stride))
    hi = min(count, (extent - 1 - offset) // stride + 1)
    if hi <= lo:
        return slice(0, 0), slice(0, 0)
    return slice(lo, hi), slice(offset + stride * lo, offset + stride * (hi - 1) + 1, stride)


def _conv_dx(dout: np.ndarray, w: np.ndarray, stride: int, padding: int,
             in_hw: tuple[int, int]) -> np.ndarray:
    n, co, ho, wo = dout.shape
    _, ci, kh, kw = w.shape
    h, wd = in_hw
    # dx is the stride-1 correlation of the zero-dilated dout, padded by
    # k-1-p, with the flipped and transposed kernel. At stride 1 with
    # p <= k-1 nothing is dilated or cropped, so the forward kernel pads
    # dout itself and builds the same columns. Otherwise the raster is
    # sized to give exactly h x wd outputs, which also covers the rows and
    # columns past the last window when (h + 2p - k) % stride > 0; dout
    # entries of windows that saw only padding fall outside it.
    flipped = np.ascontiguousarray(w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    if stride == 1 and kh == kw and padding <= kh - 1:
        return _conv_fwd(dout, flipped, 1, kh - 1 - padding)
    src_i, dst_i = _dilated_span(kh - 1 - padding, stride, ho, h + kh - 1)
    src_j, dst_j = _dilated_span(kw - 1 - padding, stride, wo, wd + kw - 1)
    dilated = np.zeros((n, co, h + kh - 1, wd + kw - 1), dtype=dout.dtype)
    dilated[:, :, dst_i, dst_j] = dout[:, :, src_i, src_j]
    return _conv_fwd(dilated, flipped, 1, 0)


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

def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of (N,Ci,H,W) with (Co,Ci,kh,kw) plus bias."""
    data = _conv_fwd(x.data, weight.data, stride, padding)
    if bias is not None:
        data = data + bias.data[:, None, None]
    in_hw = x.data.shape[2:]
    k_hw = weight.data.shape[2:]

    def backw(out):
        if x.requires_grad:
            _accumulate(x, _conv_dx(out.grad, weight.data, stride, padding, in_hw))
        if weight.requires_grad:
            _accumulate(weight, _conv_dw(out.grad, x.data, stride, padding, k_hw))
        if bias is not None and bias.requires_grad:
            _accumulate(bias, out.grad.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return make_node(data, "conv2d", parents, backw)


# -- the upsampling head -----------------------------------------------------
#
# A transposed convolution with stride s and a k x k kernel, k <= m*s, adds
# x[i] * w[a] at raster row s*i + a. So row s*t + r of the uncropped raster
# is the sum over mu < m of x[t - mu] * w[s*mu + r], for every phase r < s
# at once: on the grid of T = h + m - 1 tiles of s x s pixels, the head is
# one GEMM of each tile's (c, m, m) window of the scores with the weight as
# a (c*m*m, d*s*s) matrix, and the output is that raster cropped by the
# padding (k - s)/2, taken in one transposing copy. The backward uses the
# same layouts: with G the output gradient on the tile grid, dw is
# windows^T @ G and dx gathers the windows' gradient G @ W^T.

def _head_weight(w: np.ndarray, s: int, m: int) -> np.ndarray:
    """(c, d, k, k) weights as the (c*m*m, d*s*s) GEMM matrix, rows (c, a, b)
    for window offset (a, b) = tap (m-1-mu, m-1-nu), zero past the kernel."""
    c, d, k = w.shape[:3]
    if m * s > k:
        w = np.pad(w, ((0, 0), (0, 0), (0, m * s - k), (0, m * s - k)))
    w6 = w.reshape(c, d, m, s, m, s)[:, :, ::-1, :, ::-1]
    return w6.transpose(0, 2, 4, 1, 3, 5).reshape(c * m * m, d * s * s)


def _crop_spans(p: int, s: int, h: int) -> list[tuple[slice, slice, slice]]:
    """(output phases, tiles, tile phases) that place output row s*t + r,
    t < h, at row s*t + r + p of the tile grid's raster: the crop."""
    q, p0 = divmod(p, s)
    spans = [(slice(0, s - p0), slice(q, q + h), slice(p0, s))]
    if p0:
        spans.append((slice(s - p0, s), slice(q + 1, q + 1 + h), slice(0, p0)))
    return spans


def transposed_conv2d(x: Tensor, weight: Tensor, stride: int) -> Tensor:
    """Fractional-strided convolution of (N,Ci,H,W) with (Ci,Co,k,k).

    Padding (k - stride)/2 makes the output exactly stride times the
    input extents (the FCN upsampling configuration).
    """
    c, d, k, kw = weight.data.shape
    n, cx, h, wd = x.data.shape
    if cx != c:
        raise ValueError(f"transposed_conv2d channel mismatch: input {cx}, weight {c}")
    if kw != k or k < stride:
        raise ValueError(f"transposed_conv2d needs a square kernel of at least the stride "
                         f"{stride}, got {k}x{kw}")
    if (k - stride) % 2 != 0:
        raise ValueError(f"kernel {k} minus stride {stride} must be even to infer padding")
    s, m = stride, -(-k // stride)
    tt, tu = h + m - 1, wd + m - 1
    spans = [(ro, co, rt, ct, rp, cp)
             for ro, rt, rp in _crop_spans((k - s) // 2, s, h)
             for co, ct, cp in _crop_spans((k - s) // 2, s, wd)]
    # windows[(n, t, u), (c, a, b)] = x[n, c, t + a - (m-1), u + b - (m-1)], zero outside
    xp = np.pad(x.data, ((0, 0), (0, 0), (m - 1, m - 1), (m - 1, m - 1)))
    windows = sliding_window_view(xp, (m, m), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
    windows = windows.reshape(n * tt * tu, c * m * m)
    grid = (windows @ _head_weight(weight.data, s, m)).reshape(n, tt, tu, d, s, s)
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
            dw = (windows.T @ g).reshape(c, m, m, d, s, s)[:, ::-1, ::-1]
            dw = dw.transpose(0, 3, 1, 4, 2, 5).reshape(c, d, m * s, m * s)
            _accumulate(weight, dw[:, :, :k, :k])
        if x.requires_grad:
            taps = (g @ _head_weight(weight.data, s, m).T).reshape(n, tt, tu, c, m, m)
            dx = np.zeros(x.data.shape, dtype=taps.dtype)
            for a in range(m):
                for b in range(m):
                    tap = taps[:, m - 1 - a:m - 1 - a + h, m - 1 - b:m - 1 - b + wd, :, a, b]
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


def _pool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling of an array: max(max(v0, v1), max(v2, v3)) over the
    four corners of every window, in row-major window order."""
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 needs even spatial extents, got {h}x{w}")
    v = [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    out = np.maximum(v[0], v[1])
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
    """Running mean/variance of one batchnorm layer."""

    momentum, eps = 0.1, 1e-5

    def __init__(self, channels: int, dtype=np.float32):
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)


def _batch_stats(xv: np.ndarray, state: BatchNormState, out: np.ndarray | None = None):
    """Train-mode batchnorm's statistics of (N, C, P) values: returns
    (mean, centre, var, xv - centre) and advances the running averages.
    The centred values go to `out` (which may be xv), else to a new array."""
    m = xv.shape[0] * xv.shape[2]
    if m < 2:
        raise ValueError("batchnorm train mode needs at least 2 values per channel")
    # a float64 sum keeps the mean exact to well below the spread when
    # |mean| >> std; var is the second moment about the rounded mean
    mean = np.einsum("ncp->c", xv, dtype=np.float64) / m
    centre = mean.astype(xv.dtype)
    centred = np.subtract(xv, centre[:, None], out=out)
    var = np.einsum("ncp,ncp->c", centred, centred) / m - (mean - centre) ** 2
    mom = state.momentum
    state.running_mean = ((1 - mom) * state.running_mean + mom * mean).astype(state.running_mean.dtype)
    state.running_var = ((1 - mom) * state.running_var + mom * var).astype(state.running_var.dtype)
    return mean, centre, var, centred


def _affine_vectors(scale: np.ndarray, shift: np.ndarray, mean, centre: np.ndarray, var,
                    eps: float):
    """(inv_std, a, a32, b32): batchnorm's output is (x - centre)*a32 + b32,
    x*a + b taken about the float centre for precision, with a = scale*inv_std
    and b = shift - mean*a; a32 and b32 are (C, 1) in the centre's dtype."""
    inv_std = 1.0 / np.sqrt(var + eps)
    a = scale * inv_std
    a32 = a.astype(centre.dtype)[:, None]
    b32 = (shift - (mean - centre) * a).astype(centre.dtype)[:, None]
    return inv_std, a, a32, b32


def batchnorm(x: Tensor, scale: Tensor, shift: Tensor, state: BatchNormState,
              mode: str, relu: bool = False) -> Tensor:
    """Per-channel batch normalization over (N,H,W), optionally rectified.

    Train mode normalizes with batch statistics and advances the running
    averages; infer mode uses the stored running statistics. Per channel,
    the output is x*a + b with a = scale*inv_std and b = shift - mean*a,
    clamped at 0 when `relu` is set, written into one buffer in place.

    The node keeps no normalized copy of x: its backward reads x from
    the parent and the ReLU mask from its own output, and folds the batch
    statistics' gradient into dx = a*g + k2*x + k3 with per-channel k2
    and k3 from sum(g) and sum(g*x). A node that records a graph edge
    can also rebuild its output bit for bit from x (`Tensor.recompute`),
    so the output may be released once the next op has read it.
    """
    n, c, h, w = x.data.shape
    m = n * h * w
    xv = x.data.reshape(n, c, h * w)
    dtype = x.data.dtype
    if mode == "train":
        mean, centre, var, data = _batch_stats(xv, state)
    elif mode == "infer":
        mean = state.running_mean.astype(np.float64)
        var = state.running_var.astype(np.float64)
        centre = state.running_mean.astype(dtype)
        data = np.subtract(xv, centre[:, None])
    else:
        raise ValueError(f"batchnorm mode must be 'train' or 'infer', got {mode!r}")
    inv_std, a, a32, b32 = _affine_vectors(scale.data, shift.data, mean, centre, var,
                                           state.eps)

    def affine(y):  # in place: y*a32 + b32, rectified when relu is set
        y *= a32
        y += b32
        if relu:
            np.maximum(y, 0, out=y)
        return y

    affine(data)

    def recompute() -> np.ndarray:
        # the forward's own vectors and op order, so the bits are the same
        y = np.subtract(x.data.reshape(n, c, h * w), centre[:, None])
        return affine(y).reshape(n, c, h, w)

    def backw(out):
        xv = x.data.reshape(n, c, h * w)
        g = out.grad.reshape(n, c, h * w)
        if relu:
            g = g * (out.data.reshape(n, c, h * w) > 0)
        sum_g = np.einsum("ncp->c", g, dtype=np.float64)
        # sum of g * (x - mean), the gradient of scale over inv_std
        sum_gxc = np.einsum("ncp,ncp->c", g, xv, dtype=np.float64) - mean * sum_g
        if scale.requires_grad:
            _accumulate(scale, sum_gxc * inv_std)
        if shift.requires_grad:
            _accumulate(shift, sum_g)
        if x.requires_grad:
            # g is a fresh array once masked, so it can become dx
            dx = np.multiply(g, a32, out=g if relu else None)
            if mode == "train":
                # mean and var depend on x: dx gains k2*x + k3
                k2 = -a * inv_std ** 2 * sum_gxc / m
                k3 = -a * sum_g / m - k2 * mean
                k2c = k2.astype(dtype)[:, None]
                for sample in range(n):  # xv * k2 one sample at a time
                    dx[sample] += xv[sample] * k2c
                dx += k3.astype(dtype)[:, None]
            _accumulate(x, dx.reshape(x.data.shape))

    out = make_node(data.reshape(x.data.shape), "batchnorm", (x, scale, shift), backw)
    if out.requires_grad:
        out.recompute = recompute
    return out


# -- the inference kernel of a conv unit -------------------------------------
#
# The kernel works over the output-row bands of `_col_bands`: each band's
# im2col columns are read straight from the unpadded input, its GEMM is
# the one `_conv_fwd` runs, and the batchnorm affine with its ReLU, then
# the 2x2 pooling, are applied to the band as it lands. Every GEMM keeps
# its shape and every elementwise step is batchnorm's and maxpool2's,
# element by element, so the output is the op chain's, bit for bit.

def _fill_cols(cols: np.ndarray, xs: np.ndarray, stride: int, padding: int, r0: int):
    """cols[c, u, v, i, j] = padded xs[c, stride*(r0 + i) + u, stride*j + v],
    the band of `_col_bands` that starts at output row r0, read from the
    unpadded sample xs (C, H, W) and zero where the window lies in the padding."""
    _, kh, kw, rows, wo = cols.shape
    h, wd = xs.shape[1:]
    for u in range(kh):
        di, si = _dilated_span(stride * r0 + u - padding, stride, rows, h)
        for v in range(kw):
            dj, sj = _dilated_span(v - padding, stride, wo, wd)
            tap = cols[:, u, v]
            np.copyto(tap[:, di, dj], xs[:, si, sj])
            if di.start:
                tap[:, :di.start] = 0
            if di.stop < rows:
                tap[:, di.stop:] = 0
            if dj.start:
                tap[:, di, :dj.start] = 0
            if dj.stop < wo:
                tap[:, di, dj.stop:] = 0


def conv_bn_relu(x: np.ndarray, weight: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                 state: BatchNormState, stride: int, padding: int, pool: bool) -> np.ndarray:
    """conv2d without bias -> batchnorm(..., "infer", relu=True), then
    maxpool2 when `pool` is set, on arrays and without a graph.

    It holds its output and one band: no padded copy of x, no conv output
    besides the one the affine overwrites, no pre-pool activation. When
    pooling, a band that ends on the first row of a pooling pair carries
    that row over to the next band. A non-finite value raises
    NonFiniteError naming the op of the chain that would have raised:
    conv2d if any conv output is non-finite, otherwise batchnorm.
    """
    n, ci, h, wd = x.shape
    co, ci_w, kh, kw = weight.shape
    if ci != ci_w:
        raise ValueError(f"conv2d channel mismatch: input {ci}, weight {ci_w}")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(f"conv2d output would be empty for input {h}x{wd}, kernel {kh}x{kw}")
    if pool and (ho % 2 or wo % 2):
        raise ValueError(f"maxpool2 needs even spatial extents, got {ho}x{wo}")
    dtype = x.dtype
    # batchnorm's infer-mode vectors, computed as it computes them
    centre = state.running_mean.astype(dtype)
    _, _, a32, b32 = _affine_vectors(scale, shift, state.running_mean.astype(np.float64),
                                     centre, state.running_var.astype(np.float64), state.eps)
    centre = centre[:, None]

    k = ci * kh * kw
    rows = max(1, min(ho, _BAND_BYTES // (k * wo * dtype.itemsize)))  # as in _col_bands
    col_buf = np.empty(k * rows * wo, dtype=dtype)
    w2 = weight.reshape(co, -1)
    if pool:
        out = np.empty((n, co, ho // 2, wo // 2), dtype=dtype)
        band = np.empty((co, (rows + 1) * wo), dtype=dtype)  # a carried row, then a band
        half = np.empty((co, (rows + 1) // 2, wo // 2), dtype=dtype)
    else:
        out = np.empty((n, co, ho * wo), dtype=dtype)
    bn_finite = True
    carry = 0
    for sample in range(n):
        for r0 in range(0, ho, rows):
            r1 = min(ho, r0 + rows)
            cols = col_buf[:k * (r1 - r0) * wo].reshape(ci, kh, kw, r1 - r0, wo)
            _fill_cols(cols, x[sample], stride, padding, r0)
            if pool:
                y = band[:, carry * wo:(carry + r1 - r0) * wo]
            else:
                y = out[sample, :, r0 * wo:r1 * wo]
            np.matmul(w2, cols.reshape(k, (r1 - r0) * wo), out=y)
            check_finite(y, "conv2d")
            np.subtract(y, centre, out=y)
            y *= a32
            y += b32
            np.maximum(y, 0, out=y)
            bn_finite = bn_finite and bool(np.isfinite(y).all())
            if not pool:
                continue
            held = carry + r1 - r0  # rows in the band buffer
            pairs = held // 2
            if pairs:
                quad = band[:, :2 * pairs * wo].reshape(co, pairs, 2, wo)
                dst = out[sample, :, (r0 - carry) // 2:(r0 - carry) // 2 + pairs]
                # maxpool2's corners and pairing: max(max(v0, v1), max(v2, v3))
                np.maximum(quad[:, :, 0, 0::2], quad[:, :, 0, 1::2], out=dst)
                np.maximum(quad[:, :, 1, 0::2], quad[:, :, 1, 1::2], out=half[:, :pairs])
                np.maximum(dst, half[:, :pairs], out=dst)
            carry = held % 2
            if carry and held > 1:
                band[:, :wo] = band[:, (held - 1) * wo:held * wo]
    if not bn_finite:
        raise NonFiniteError("non-finite values produced by batchnorm")
    return out if pool else out.reshape(n, co, ho, wo)


def conv_bn_relu_train(x: np.ndarray, weight: np.ndarray, scale: np.ndarray,
                       shift: np.ndarray, state: BatchNormState, stride: int, padding: int,
                       pool: bool) -> np.ndarray:
    """conv2d without bias -> batchnorm(..., "train", relu=True), then
    maxpool2 when `pool` is set, on arrays and without a graph: a frozen
    prefix in train mode, or a forward with every parameter frozen.

    The batch statistics need the whole conv output, so the kernel is not
    banded. It normalizes in the conv output's buffer, where batchnorm
    writes a second one, and never writes into x. The output and the
    running statistics are the chain's, bit for bit, and so is a failure:
    NonFiniteError names conv2d if any conv output is non-finite, else
    batchnorm, whose running statistics have then advanced as the chain's.
    """
    y = _conv_fwd(x, weight, stride, padding)
    check_finite(y, "conv2d")
    n, c, h, w = y.shape
    yv = y.reshape(n, c, h * w)
    mean, centre, var, _ = _batch_stats(yv, state, out=yv)
    _, _, a32, b32 = _affine_vectors(scale, shift, mean, centre, var, state.eps)
    yv *= a32
    yv += b32
    np.maximum(yv, 0, out=yv)
    check_finite(y, "batchnorm")
    return _pool2(y) if pool else y


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
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

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


def _mean_softmax(logits: list[Tensor], inv_k) -> np.ndarray:
    """Channel softmax of the mean of `logits`, in a fresh buffer."""
    first = logits[0]
    if len(logits) == 1:
        p = np.subtract(first.data, first.data.max(axis=1, keepdims=True))
    else:
        p = first.data + logits[1].data
        for t in logits[2:]:
            p += t.data
        p *= inv_k
        p -= p.max(axis=1, keepdims=True)
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
    first = logits[0]
    for other in logits[1:]:
        if other.shape != first.shape:
            raise ValueError(f"logit shape mismatch: {other.shape} vs {first.shape}")
    k = len(logits)
    dtype = first.dtype
    inv_k = np.asarray(1.0 / k, dtype=dtype)
    p_l = _mean_softmax(logits, inv_k).take(flat_index)
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
        p = _mean_softmax(logits, inv_k)
        dx = np.multiply(p, np.subtract(0, inner)[:, None], out=p)
        np.put(dx, flat_index, label)
        if k > 1:
            dx *= inv_k
        for t in logits:
            if t.requires_grad:
                _accumulate(t, dx)

    return make_node(np.asarray(value, dtype=dtype), "softmax_nll", tuple(logits), backw)
