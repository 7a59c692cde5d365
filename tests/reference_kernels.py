"""Reference convolution, pooling and batchnorm kernels for the engine's tests.

These are the engine's earlier kernels: one batched matmul per kernel
offset for convolution, a reshape/argmax window gather for 2x2 max
pooling, and batchnorm and ReLU as two ops, with batchnorm keeping its
normalized input for the backward. They are slow but follow the
definitions directly, so the banded im2col, strided-view and fused
batchnorm kernels are checked against them.
"""
import numpy as np

from hallucinet.engine.tensor import _accumulate, make_node


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
