"""Reference kernels and objectives for the engine's and the losses' tests.

These are the engine's earlier kernels: one batched matmul per kernel
offset for convolution, a reshape/argmax window gather for 2x2 max
pooling, and batchnorm and ReLU as two ops, with batchnorm keeping its
normalized input for the backward. They are slow but follow the
definitions directly, so the banded im2col, strided-view and fused
batchnorm kernels are checked against them.

`cross_entropy_chain` is the earlier weighted cross-entropy, a chain of
eight engine ops, written out in numpy node by node, so the fused
`softmax_nll` op is checked bit for bit against it.

The two composite objectives are the earlier hand-written rosters for
one and two hallucinated modalities, so the roster-driven
`losses.composite_loss` is checked against them.

`optimizer_round` is the earlier out-of-place clip and Adam step, so the
in-place `train._optimizer_round` is checked bit for bit against it.

`col_bands` unfolds a zero-padded copy of each whole sample, so the
columns `engine.functional._col_bands` builds from one channel group's
padded band rows at a time are checked bit for bit against it.
"""
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from hallucinet.engine.tensor import _accumulate, add, make_node, mul
from hallucinet.losses import fuse_logits, hallucination_loss, weighted_cross_entropy


def _pad(x, padding):
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x


def conv_fwd(x, w, stride, padding):
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    xp = _pad(x, padding)
    out = np.zeros((n, co, ho * wo), dtype=x.dtype)
    for u in range(kh):
        for v in range(kw):
            xs = xp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride]
            out += np.matmul(w[:, :, u, v], xs.reshape(n, ci, ho * wo))
    return out.reshape(n, co, ho, wo)


def col_bands(x, kh, kw, stride, padding, ho, wo, rows):
    """Yield (sample, r0, r1, cols) as `_col_bands` does for bands of
    `rows` output rows, each unfolded from a padded copy of the sample."""
    n, ci = x.shape[:2]
    for sample in range(n):
        xp = _pad(x[sample:sample + 1], padding)[0]
        # win[c, u, v, i, j] = xp[c, stride*i + u, stride*j + v]
        win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
        win = win.transpose(0, 3, 4, 1, 2)
        for r0 in range(0, ho, rows):
            r1 = min(ho, r0 + rows)
            cols = np.ascontiguousarray(win[:, :, :, r0:r1])
            yield sample, r0, r1, cols.reshape(ci * kh * kw, (r1 - r0) * wo)


def conv_dx(dout, w, stride, padding, in_hw):
    n, co, ho, wo = dout.shape
    _, ci, kh, kw = w.shape
    h, wd = in_hw
    dxp = np.zeros((n, ci, h + 2 * padding, wd + 2 * padding), dtype=dout.dtype)
    dflat = dout.reshape(n, co, ho * wo)
    for u in range(kh):
        for v in range(kw):
            contrib = np.matmul(w[:, :, u, v].T, dflat).reshape(n, ci, ho, wo)
            # fixed (u,v): distinct (i,j) hit distinct padded positions
            dxp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride] += contrib
    return dxp[:, :, padding:padding + h, padding:padding + wd]


def conv_dw(dout, x, stride, padding, kernel_hw):
    _, co, ho, wo = dout.shape
    ci = x.shape[1]
    kh, kw = kernel_hw
    xp = _pad(x, padding)
    dw = np.empty((co, ci, kh, kw), dtype=dout.dtype)
    for u in range(kh):
        for v in range(kw):
            xs = xp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride]
            dw[:, :, u, v] = np.tensordot(dout, xs, axes=([0, 2, 3], [0, 2, 3]))
    return dw


def _windows(x):
    n, c, h, w = x.shape
    return (x.reshape(n, c, h // 2, 2, w // 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h // 2, w // 2, 4))


def maxpool2_fwd(x):
    windows = _windows(x)
    idx = windows.argmax(axis=-1)
    return np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]


def maxpool2_bwd(x, dout):
    """Gradient to the first maximum of each window in row-major order."""
    n, c, h, w = x.shape
    windows = _windows(x)
    idx = windows.argmax(axis=-1)
    dwin = np.zeros_like(windows)
    np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=-1)
    return (dwin.reshape(n, c, h // 2, w // 2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w))


def batchnorm(x, scale, shift, state, mode):
    """Unfused batchnorm: mean/var over axes (0, 2, 3), xhat kept for backward."""
    n, c, h, w = x.data.shape
    eps = state.eps
    g = scale.data[:, None, None]
    if mode == "train":
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - mean[:, None, None]) * inv_std[:, None, None]
        mom = state.momentum
        state.running_mean = ((1 - mom) * state.running_mean + mom * mean).astype(state.running_mean.dtype)
        state.running_var = ((1 - mom) * state.running_var + mom * var).astype(state.running_var.dtype)

        def backw(out):
            dxhat = out.grad * g
            if x.requires_grad:
                axis = (0, 2, 3)
                mean_d = dxhat.mean(axis=axis)[:, None, None]
                mean_dx = (dxhat * xhat).mean(axis=axis)[:, None, None]
                dx = inv_std[:, None, None] * (dxhat - mean_d - xhat * mean_dx)
                _accumulate(x, dx)
            if scale.requires_grad:
                _accumulate(scale, (out.grad * xhat).sum(axis=(0, 2, 3)))
            if shift.requires_grad:
                _accumulate(shift, out.grad.sum(axis=(0, 2, 3)))

    else:
        inv_std = 1.0 / np.sqrt(state.running_var + eps)
        xhat = (x.data - state.running_mean[:, None, None]) * inv_std[:, None, None]

        def backw(out):
            if x.requires_grad:
                _accumulate(x, out.grad * g * inv_std[:, None, None])
            if scale.requires_grad:
                _accumulate(scale, (out.grad * xhat).sum(axis=(0, 2, 3)))
            if shift.requires_grad:
                _accumulate(shift, out.grad.sum(axis=(0, 2, 3)))

    data = g * xhat + shift.data[:, None, None]
    return make_node(data, "batchnorm", (x, scale, shift), backw)


def relu(x):
    def backw(out):
        if x.requires_grad:
            _accumulate(x, out.grad * (out.data > 0))

    return make_node(np.maximum(x.data, 0), "relu", (x,), backw)


def cross_entropy_chain(logits, labels, class_weights, upstream=1.0,
                        ignore_label=255, floor=1e-12):
    """Value and per-input gradients of the earlier weighted cross-entropy
    on the fusion of the arrays `logits`, given the upstream gradient.

    Each step is one node of the earlier chain, fuse_logits (add, add,
    mul) -> channel_softmax -> gather_channel -> clamp_min -> log -> mul
    -> tsum -> mul, with that node's forward and backward arithmetic.
    """
    dtype = logits[0].dtype
    k = len(logits)
    valid = labels != ignore_label
    index = np.where(valid, labels, 0).astype(np.int64)
    pixel_w = np.where(valid, class_weights[index], 0.0).astype(dtype)
    scale = np.asarray(-1.0 / int(valid.sum()), dtype=dtype)
    inv_k = np.asarray(1.0 / k, dtype=dtype)

    x = logits[0]
    for other in logits[1:]:
        x = x + other
    if k > 1:
        x = x * inv_k
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    idx = index[:, None]
    p_l = np.take_along_axis(p, idx, axis=1)[:, 0]
    mask = p_l > floor
    clamped = np.maximum(p_l, floor)
    weighted = np.log(clamped) * pixel_w
    total = np.asarray(weighted.sum(), dtype=dtype)
    value = np.asarray(total * scale, dtype=dtype)

    g = np.asarray(np.asarray(upstream, dtype=dtype) * scale, dtype=dtype)  # mul
    g = np.full(weighted.shape, g, dtype=dtype)                            # tsum
    g = g * pixel_w                                                        # mul
    g = g / clamped                                                        # log
    g = g * mask                                                           # clamp_min
    dp = np.zeros_like(p)                                                  # gather_channel
    np.put_along_axis(dp, idx, g[:, None], axis=1)
    inner = (dp * p).sum(axis=1, keepdims=True)                            # channel_softmax
    dx = p * (dp - inner)
    if k > 1:
        dx = dx * inv_k  # the fusion's mul; its adds pass dx to every input
    return value, [dx] * k


# Term names of the two objectives below -> names in `losses.composite_loss`;
# names not listed are the same in both.
SINGLE_NAMES = {"hallucinate": "hallucinate_depth", "hal": "hal_depth",
                "rgb+hal": "rgb+hal_depth"}
MULTI_NAMES = {"rgb+hal_ir+depth": "rgb+depth+hal_ir", "rgb+ir+hal_depth": "rgb+hal_depth+ir",
               "rgb+ir+depth": "rgb+depth+ir", "rgb+hal_ir+hal_depth": "rgb+hal_depth+hal_ir"}


def _objective(terms, gamma, mimicry):
    """(terms, total): the `mimicry` terms scaled by gamma, then all terms
    summed in their order."""
    total = None
    for name, term in terms.items():
        scaled = mul(term, gamma) if name in mimicry else term
        total = scaled if total is None else add(total, scaled)
    return terms, total


def composite_loss_single(outputs, labels, weights, gamma):
    """Six-term objective over the roles rgb, depth and hal."""
    rgb, depth, hal = outputs["rgb"], outputs["depth"], outputs["hal"]

    def ce(logits):
        return weighted_cross_entropy(logits, labels, weights)

    terms = {
        "hallucinate": hallucination_loss(depth.tap, hal.tap),
        "depth": ce(depth.logits),
        "rgb": ce(rgb.logits),
        "hal": ce(hal.logits),
        "rgb+depth": ce(fuse_logits([rgb.logits, depth.logits])),
        "rgb+hal": ce(fuse_logits([rgb.logits, hal.logits])),
    }
    return _objective(terms, gamma, ("hallucinate",))


def composite_loss_multi(outputs, labels, weights, gamma):
    """Eleven-term objective over rgb, ir, depth, hal_ir and hal_depth."""
    rgb, ir, depth = outputs["rgb"], outputs["ir"], outputs["depth"]
    hal_ir, hal_depth = outputs["hal_ir"], outputs["hal_depth"]

    def ce(logits):
        return weighted_cross_entropy(logits, labels, weights)

    terms = {
        "hallucinate_ir": hallucination_loss(ir.tap, hal_ir.tap),
        "hallucinate_depth": hallucination_loss(depth.tap, hal_depth.tap),
        "ir": ce(ir.logits),
        "depth": ce(depth.logits),
        "rgb": ce(rgb.logits),
        "hal_depth": ce(hal_depth.logits),
        "hal_ir": ce(hal_ir.logits),
        "rgb+hal_ir+depth": ce(fuse_logits([rgb.logits, hal_ir.logits, depth.logits])),
        "rgb+ir+hal_depth": ce(fuse_logits([rgb.logits, ir.logits, hal_depth.logits])),
        "rgb+ir+depth": ce(fuse_logits([rgb.logits, ir.logits, depth.logits])),
        "rgb+hal_ir+hal_depth": ce(fuse_logits([rgb.logits, hal_ir.logits, hal_depth.logits])),
    }
    return _objective(terms, gamma, ("hallucinate_ir", "hallucinate_depth"))


def optimizer_round(params, state, clip_threshold):
    """Clip, Adam-step and clear the gradients out of place, as the earlier
    `train._optimizer_round`; returns max |g| before and after clipping."""
    grads = [p.grad for p in params]
    clipped = [None if g is None else np.clip(g, -clip_threshold, clip_threshold) for g in grads]
    pre, post = (max((float(np.max(np.abs(g))) for g in gs if g is not None and g.size),
                     default=0.0) for gs in (grads, clipped))
    state.step_count += 1
    t = state.step_count
    b1, b2 = 0.9, 0.999
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    for p, g in zip(params, clipped):
        if g is None or not p.requires_grad:
            continue
        m = state.m.get(p.name)
        if m is None:
            m = np.zeros_like(p.data)
            state.v[p.name] = np.zeros_like(p.data)
        v = state.v[p.name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        state.m[p.name] = m
        state.v[p.name] = v
        mhat = m / corr1
        vhat = v / corr2
        p.data = p.data - (state.lr * mhat / (np.sqrt(vhat) + 1e-8)).astype(p.data.dtype)
    for p in params:
        p.grad = None
    return pre, post
