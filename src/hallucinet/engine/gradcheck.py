"""Finite-difference gradient oracle.

The checker runs in float64; central differences with per-coordinate
steps of 1e-5 times the coordinate magnitude (at least 1) keep truncation
and roundoff error far below the 1e-4 acceptance tolerance.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor, backward


def finite_diff_check(f: Callable[[Tensor], Tensor], point: np.ndarray,
                      grad_bias: float = 0.0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Per coordinate: |analytic - central| / max(1, |central|). `grad_bias`
    shifts the analytic gradient and exists only for fault-injection
    self-tests of the checker.
    """
    x0 = np.array(point, dtype=np.float64)
    t = Tensor(x0, requires_grad=True, dtype=np.float64)
    out = f(t)
    if out.data.size != 1:
        raise ValueError("finite_diff_check needs a scalar-valued function")
    backward(out)
    analytic = np.zeros_like(x0) if t.grad is None else t.grad.reshape(-1)
    analytic = analytic + grad_bias

    flat = x0.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        step = 1e-5 * max(1.0, abs(flat[i]))
        orig = flat[i]
        flat[i] = orig + step
        f_hi = f(Tensor(x0, dtype=np.float64)).item()
        flat[i] = orig - step
        f_lo = f(Tensor(x0, dtype=np.float64)).item()
        flat[i] = orig
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise ValueError("function not finite at perturbed point")
        central = (f_hi - f_lo) / (2.0 * step)
        err = abs(analytic[i] - central) / max(1.0, abs(central))
        worst = max(worst, err)
    return worst
