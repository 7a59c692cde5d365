"""Finite-difference verification of every differentiable op and loss.

Each case draws fresh random inputs per point and checks the analytic
gradient of a scalar functional against central differences in float64.
Nonsmooth ops (relu, fused batchnorm+relu, maxpool) are sampled away
from their kinks.
"""
from __future__ import annotations

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
    composite_loss_multi,
    composite_loss_single,
    hallucination_loss,
    weighted_cross_entropy,
)
from .model import BranchOutput

TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    passed: bool


def _t(arr) -> Tensor:
    return Tensor(np.asarray(arr, dtype=np.float64), dtype=np.float64)


def _scalarize(out: Tensor, coeffs: np.ndarray) -> Tensor:
    return tsum(mul(out, _t(coeffs)))


def _away_from_zero(rng, shape, margin=0.1):
    x = rng.normal(size=shape)
    return x + np.sign(x) * margin


def _check_conv2d(rng, bias):
    x = rng.normal(size=(2, 3, 5, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    coef = rng.normal(size=(2, 4, 3, 3))
    errs = [
        finite_diff_check(lambda t: _scalarize(conv2d(t, _t(w), _t(b), 2, 1), coef), x, grad_bias=bias),
        finite_diff_check(lambda t: _scalarize(conv2d(_t(x), t, _t(b), 2, 1), coef), w, grad_bias=bias),
        finite_diff_check(lambda t: _scalarize(conv2d(_t(x), _t(w), t, 2, 1), coef), b, grad_bias=bias),
    ]
    return max(errs)


def _check_transposed(rng, bias):
    x = rng.normal(size=(2, 3, 4, 4))
    w = rng.normal(size=(3, 2, 4, 4))
    coef = rng.normal(size=(2, 2, 8, 8))
    errs = [
        finite_diff_check(lambda t: _scalarize(transposed_conv2d(t, _t(w), 2), coef), x, grad_bias=bias),
        finite_diff_check(lambda t: _scalarize(transposed_conv2d(_t(x), t, 2), coef), w, grad_bias=bias),
    ]
    return max(errs)


def _check_maxpool(rng, bias):
    # spread window entries so the argmax is stable under the probe step
    base = rng.permuted(np.arange(4.0))[None, None, None, None, :] * 0.8
    x = (base + rng.normal(scale=0.05, size=(2, 2, 2, 3, 4)))
    x = (x.reshape(2, 2, 2, 3, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 2, 4, 6))
    coef = rng.normal(size=(2, 2, 2, 3))
    return finite_diff_check(lambda t: _scalarize(maxpool2(t), coef), x, grad_bias=bias)


def _check_batchnorm(rng, bias):
    x = rng.normal(size=(3, 2, 4, 4))
    scale = rng.normal(size=2) + 2.0
    shift = rng.normal(size=2)
    coef = rng.normal(size=(3, 2, 4, 4))

    def run(xt, st, sh):
        state = BatchNormState(2, dtype=np.float64)
        return _scalarize(batchnorm(xt, st, sh, state, "train"), coef)

    errs = [
        finite_diff_check(lambda t: run(t, _t(scale), _t(shift)), x, grad_bias=bias),
        finite_diff_check(lambda t: run(_t(x), t, _t(shift)), scale, grad_bias=bias),
        finite_diff_check(lambda t: run(_t(x), _t(scale), t), shift, grad_bias=bias),
    ]
    return max(errs)


def _check_batchnorm_relu(rng, bias):
    """The fused train-mode op the model runs, sampled away from the kink."""
    scale = rng.normal(size=2) + 2.0
    shift = rng.normal(size=2)
    coef = rng.normal(size=(2, 2, 3, 3))

    def run(xt, st, sh, relu=True):
        state = BatchNormState(2, dtype=np.float64)
        return batchnorm(xt, st, sh, state, "train", relu=relu)

    x = rng.normal(size=(2, 2, 3, 3))
    while np.abs(run(_t(x), _t(scale), _t(shift), relu=False).data).min() < 0.1:
        x = rng.normal(size=(2, 2, 3, 3))
    errs = [
        finite_diff_check(lambda t: _scalarize(run(t, _t(scale), _t(shift)), coef), x, grad_bias=bias),
        finite_diff_check(lambda t: _scalarize(run(_t(x), t, _t(shift)), coef), scale, grad_bias=bias),
        finite_diff_check(lambda t: _scalarize(run(_t(x), _t(scale), t), coef), shift, grad_bias=bias),
    ]
    return max(errs)


def _check_batchnorm_infer(rng, bias):
    x = rng.normal(size=(2, 3, 3, 3))
    scale = rng.normal(size=3) + 2.0
    shift = rng.normal(size=3)
    coef = rng.normal(size=(2, 3, 3, 3))
    state = BatchNormState(3, dtype=np.float64)
    state.running_mean = rng.normal(size=3)
    state.running_var = rng.uniform(0.5, 2.0, size=3)

    def run(xt, st, sh):
        return _scalarize(batchnorm(xt, st, sh, state, "infer"), coef)

    errs = [
        finite_diff_check(lambda t: run(t, _t(scale), _t(shift)), x, grad_bias=bias),
        finite_diff_check(lambda t: run(_t(x), t, _t(shift)), scale, grad_bias=bias),
        finite_diff_check(lambda t: run(_t(x), _t(scale), t), shift, grad_bias=bias),
    ]
    return max(errs)


def _check_relu(rng, bias):
    x = _away_from_zero(rng, (2, 3, 4, 4))
    coef = rng.normal(size=(2, 3, 4, 4))
    return finite_diff_check(lambda t: _scalarize(relu(t), coef), x, grad_bias=bias)


def _check_sigmoid(rng, bias):
    x = rng.normal(size=(2, 3, 4, 4)) * 2
    coef = rng.normal(size=(2, 3, 4, 4))
    return finite_diff_check(lambda t: _scalarize(sigmoid(t), coef), x, grad_bias=bias)


def _check_softmax(rng, bias):
    x = rng.normal(size=(2, 4, 3, 3)) * 2
    coef = rng.normal(size=(2, 4, 3, 3))
    return finite_diff_check(lambda t: _scalarize(channel_softmax(t), coef), x, grad_bias=bias)


def _check_cross_entropy(rng, bias):
    logits = rng.normal(size=(2, 4, 4, 4)) * 2
    labels = rng.integers(0, 4, size=(2, 4, 4))
    weights = ClassWeights(rng.uniform(0.5, 3.0, size=4))
    return finite_diff_check(
        lambda t: weighted_cross_entropy(t, labels, weights), logits, grad_bias=bias)


def _check_hallucination(rng, bias):
    target = rng.normal(size=(2, 3, 4, 4))
    hal = rng.normal(size=(2, 3, 4, 4))
    return finite_diff_check(
        lambda t: hallucination_loss(_t(target), t), hal, grad_bias=bias)


def _single_outputs(rng):
    taps = {r: rng.normal(size=(1, 2, 2, 2)) for r in ("rgb", "depth", "hal")}
    logits = {r: rng.normal(size=(1, 3, 4, 4)) * 2 for r in ("rgb", "depth", "hal")}
    labels = rng.integers(0, 3, size=(1, 4, 4))
    weights = ClassWeights(rng.uniform(0.5, 2.0, size=3))
    return taps, logits, labels, weights


def _check_composite_single(rng, bias):
    taps, logits, labels, weights = _single_outputs(rng)
    gamma = 2.5

    def build(probe_role, probe_kind, t):
        outs = {}
        for role in ("rgb", "depth", "hal"):
            tap = t if (role == probe_role and probe_kind == "tap") else _t(taps[role])
            lg = t if (role == probe_role and probe_kind == "logits") else _t(logits[role])
            outs[role] = BranchOutput(tap=tap, logits=lg)
        return composite_loss_single(outs, labels, weights, gamma).total

    errs = [finite_diff_check(lambda t: build(role, "logits", t), logits[role], grad_bias=bias)
            for role in ("rgb", "depth", "hal")]
    # the target tap carries stop-gradient, so only the hal tap is checked
    errs.append(finite_diff_check(lambda t: build("hal", "tap", t), taps["hal"], grad_bias=bias))
    return max(errs)


def _check_composite_multi(rng, bias):
    roles = ("rgb", "ir", "depth", "hal_ir", "hal_depth")
    taps = {r: rng.normal(size=(1, 2, 2, 2)) for r in roles}
    logits = {r: rng.normal(size=(1, 3, 4, 4)) * 2 for r in roles}
    labels = rng.integers(0, 3, size=(1, 4, 4))
    weights = ClassWeights(rng.uniform(0.5, 2.0, size=3))
    gamma = 3.0

    def build(probe_role, probe_kind, t):
        outs = {}
        for role in roles:
            tap = t if (role == probe_role and probe_kind == "tap") else _t(taps[role])
            lg = t if (role == probe_role and probe_kind == "logits") else _t(logits[role])
            outs[role] = BranchOutput(tap=tap, logits=lg)
        return composite_loss_multi(outs, labels, weights, gamma).total

    errs = [finite_diff_check(lambda t: build(role, "logits", t), logits[role], grad_bias=bias)
            for role in roles]
    errs += [finite_diff_check(lambda t: build(role, "tap", t), taps[role], grad_bias=bias)
             for role in ("hal_ir", "hal_depth")]
    return max(errs)


CASES = [
    ("conv2d", _check_conv2d),
    ("transposed_conv2d", _check_transposed),
    ("maxpool2", _check_maxpool),
    ("batchnorm", _check_batchnorm),
    ("relu", _check_relu),
    ("sigmoid", _check_sigmoid),
    ("channel_softmax", _check_softmax),
    ("weighted_cross_entropy", _check_cross_entropy),
    ("hallucination_loss", _check_hallucination),
    ("composite_loss_single", _check_composite_single),
    ("composite_loss_multi", _check_composite_multi),
    ("batchnorm_relu", _check_batchnorm_relu),
    ("batchnorm_infer", _check_batchnorm_infer),
]


def run_gradcheck_suite(points: int = 10, tolerance: float = TOLERANCE,
                        seed: int = 0, corrupt: str | None = None) -> list[CheckResult]:
    """Run every case at `points` random draws; returns one result per op."""
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
