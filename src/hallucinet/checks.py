"""Finite-difference verification of every differentiable op and loss.

Each case draws fresh random inputs per point and checks the analytic
gradient of a scalar functional against central differences in float64.
Nonsmooth ops (relu, batchnorm, which rectifies, and maxpool) are
sampled away from their kinks.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .engine import (
    BatchNormState,
    Tensor,
    batchnorm,
    channel_softmax,
    conv2d,
    finite_diff_check,
    maxpool2,
    mul,
    relu,
    sigmoid,
    transposed_conv2d,
    tsum,
)
from .losses import (
    ClassWeights,
    composite_loss,
    hallucination_loss,
    weighted_cross_entropy,
)
from .model import ROSTER, BranchOutput

TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    passed: bool


def _t(arr) -> Tensor:
    return Tensor(np.asarray(arr, dtype=np.float64), dtype=np.float64)


def _probe_each(op, inputs, bias, coef=None) -> float:
    """Worst error of `op` over its inputs, each probed in turn with the
    others held fixed; a non-scalar output is reduced to sum(coef * output)."""
    def probed(i, t):
        out = op(*(t if j == i else _t(x) for j, x in enumerate(inputs)))
        return out if coef is None else tsum(mul(out, _t(coef)))
    return max(finite_diff_check(functools.partial(probed, i), x, grad_bias=bias)
               for i, x in enumerate(inputs))


def _check_conv2d(rng, bias):
    """Input, weights and bias at stride 1; weights and bias at stride 2,
    where the input is data, as a branch's first conv reads the image."""
    x = rng.normal(size=(2, 3, 5, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    coef1, coef2 = rng.normal(size=(2, 4, 5, 6)), rng.normal(size=(2, 4, 3, 3))
    return max(_probe_each(lambda *t: conv2d(*t, 1, 1), [x, w, b], bias, coef1),
               _probe_each(lambda *t: conv2d(_t(x), *t, 2, 1), [w, b], bias, coef2))


def _check_transposed(stride, scores, rng, bias):
    """The upsampling head, kernel 2*stride, from (n, c, h, w) scores to 2 channels."""
    n, c, h, w = scores
    x = rng.normal(size=scores)
    wt = rng.normal(size=(c, 2, 2 * stride, 2 * stride))
    coef = rng.normal(size=(n, 2, h * stride, w * stride))
    return _probe_each(lambda *t: transposed_conv2d(*t, stride), [x, wt], bias, coef)


def _check_maxpool(rng, bias):
    # spread window entries so the argmax is stable under the probe step
    base = rng.permuted(np.arange(4.0))[None, None, None, None, :] * 0.8
    x = (base + rng.normal(scale=0.05, size=(2, 2, 2, 3, 4)))
    x = (x.reshape(2, 2, 2, 3, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 2, 4, 6))
    coef = rng.normal(size=(2, 2, 2, 3))
    return _probe_each(maxpool2, [x], bias, coef)


def _check_batchnorm(mode: str, rng, bias):
    """The rectified op, in train mode from fresh statistics, at an input
    drawn until every pre-activation lies 0.1 or more from the kink: it is
    read as the output at the shift raised by 100, where the ReLU never
    clips, less 100."""
    shape = (2, 2, 3, 3) if mode == "train" else (2, 3, 3, 3)
    scale = rng.normal(size=shape[1]) + 2.0
    shift = rng.normal(size=shape[1])
    coef = rng.normal(size=shape)
    state = BatchNormState(shape[1], dtype=np.float64)
    if mode == "infer":
        state.running_mean = rng.normal(size=shape[1])
        state.running_var = rng.uniform(0.5, 2.0, size=shape[1])

    def op(x, scale, shift):
        stats = state if mode == "infer" else BatchNormState(shape[1], dtype=np.float64)
        return batchnorm(x, scale, shift, stats, mode)

    x = rng.normal(size=shape)
    while np.abs(op(_t(x), _t(scale), _t(shift + 100)).data - 100).min() < 0.1:
        x = rng.normal(size=shape)
    return _probe_each(op, [x, scale, shift], bias, coef)


def _check_relu(rng, bias):
    x = rng.normal(size=(2, 3, 4, 4))
    x = x + np.sign(x) * 0.1  # away from the kink
    coef = rng.normal(size=(2, 3, 4, 4))
    return _probe_each(relu, [x], bias, coef)


def _check_sigmoid(rng, bias):
    x = rng.normal(size=(2, 3, 4, 4)) * 2
    coef = rng.normal(size=(2, 3, 4, 4))
    return _probe_each(sigmoid, [x], bias, coef)


def _check_softmax(rng, bias):
    x = rng.normal(size=(2, 4, 3, 3)) * 2
    coef = rng.normal(size=(2, 4, 3, 3))
    return _probe_each(channel_softmax, [x], bias, coef)


def _check_cross_entropy(rng, bias):
    logits = rng.normal(size=(2, 4, 4, 4)) * 2
    labels = rng.integers(0, 4, size=(2, 4, 4))
    weights = ClassWeights(rng.uniform(0.5, 3.0, size=4))
    return _probe_each(lambda t: weighted_cross_entropy(t, labels, weights), [logits], bias)


def _check_hallucination(rng, bias):
    target = rng.normal(size=(2, 3, 4, 4))
    hal = rng.normal(size=(2, 3, 4, 4))
    return _probe_each(lambda t: hallucination_loss(_t(target), t), [hal], bias)


def _check_composite(k, gamma, rng, bias):
    """The objective over the first k optional roles of the roster, probed
    at every logit and every hallucination tap."""
    optional = ROSTER[1:1 + k]
    hals = tuple(f"hal_{r}" for r in optional)
    roles = ("rgb", *optional, *hals)
    taps = {r: rng.normal(size=(1, 2, 2, 2)) for r in roles}
    logits = {r: rng.normal(size=(1, 3, 4, 4)) * 2 for r in roles}
    labels = rng.integers(0, 3, size=(1, 4, 4))
    weights = ClassWeights(rng.uniform(0.5, 2.0, size=3))

    def loss(*probed):
        # the target taps carry stop-gradient, so only the hal taps are probed
        tap = {r: _t(taps[r]) for r in roles} | dict(zip(hals, probed[len(roles):]))
        outs = {r: BranchOutput(tap=tap[r], logits=lg) for r, lg in zip(roles, probed)}
        return composite_loss(outs, labels, weights, gamma).total

    return _probe_each(loss, [logits[r] for r in roles] + [taps[r] for r in hals], bias)


CASES = [
    ("conv2d", _check_conv2d),
    ("transposed_conv2d", functools.partial(_check_transposed, 2, (2, 3, 4, 4))),
    ("maxpool2", _check_maxpool),
    ("batchnorm", functools.partial(_check_batchnorm, "train")),
    ("relu", _check_relu),
    ("sigmoid", _check_sigmoid),
    ("channel_softmax", _check_softmax),
    ("weighted_cross_entropy", _check_cross_entropy),
    ("hallucination_loss", _check_hallucination),
    ("composite_loss_single", functools.partial(_check_composite, 1, 2.5)),
    ("composite_loss_multi", functools.partial(_check_composite, 2, 3.0)),
    ("batchnorm_infer", functools.partial(_check_batchnorm, "infer")),
    ("transposed_conv2d_x8", functools.partial(_check_transposed, 8, (1, 2, 3, 5))),
]


def run_gradcheck_suite(points: int = 10, tolerance: float = TOLERANCE,
                        seed: int = 0, corrupt: str | None = None) -> list[CheckResult]:
    """Run every case at `points` (at least 1) random draws; returns one result per op."""
    if points < 1:
        raise ValueError(f"grad-check needs at least 1 point, got {points}")
    if corrupt is not None and corrupt not in {name for name, _ in CASES}:
        raise ValueError(f"unknown op {corrupt!r}")
    results = []
    for case_idx, (name, fn) in enumerate(CASES):
        bias = 0.05 if name == corrupt else 0.0
        worst = 0.0
        for k in range(points):
            rng = np.random.default_rng([seed, case_idx, k])
            worst = max(worst, fn(rng, bias))
        results.append(CheckResult(name, worst, worst < tolerance))
    return results
