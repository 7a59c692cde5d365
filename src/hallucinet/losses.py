"""Loss terms: median-frequency-balanced cross-entropy, feature mimicry
between branch taps, score fusion, and the composite objective over the
optional roles.
"""
from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .engine import Tensor, mul, sigmoid, softmax_nll, tmean

IGNORE_LABEL = 255
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class ClassWeights:
    """Per-class loss weights, indexable by class id."""
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or not np.all(w > 0):
            raise ValueError("class weights must be a 1-d vector of positive reals")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, class_count: int) -> "ClassWeights":
        return cls(np.ones(class_count))


def compute_class_weights(frequencies) -> ClassWeights:
    """Median-frequency balancing: w_c = median(f) / f_c.

    The median over an even class count is the mean of the two middle
    values. Zero frequencies are rejected; drop absent classes first.
    """
    f = np.asarray(frequencies, dtype=np.float64)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("frequencies must be a non-empty 1-d vector")
    if np.any(f < 0) or not np.any(f > 0):
        raise ValueError("frequencies must be nonnegative with at least one positive")
    if np.any(f == 0):
        raise ValueError("zero class frequency: drop classes absent from the training data")
    return ClassWeights(np.median(f) / f)


def _pixel_targets(labels: np.ndarray, weights: ClassWeights, dtype,
                   ignore_label: int = IGNORE_LABEL):
    """(label-channel index, per-pixel weight, -1/n) for `softmax_nll`:
    an ignored pixel reads channel 0 at weight 0, and n counts the others."""
    labels = np.asarray(labels)
    valid = labels != ignore_label
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("all pixels ignored: cross-entropy undefined")
    index = np.where(valid, labels, 0).astype(np.int64)
    pixel_w = np.where(valid, weights.weights[index], 0.0).astype(dtype)
    return index, pixel_w, -1.0 / n_valid


def weighted_cross_entropy(logits: Tensor | list[Tensor], labels: np.ndarray,
                           weights: ClassWeights,
                           ignore_label: int = IGNORE_LABEL) -> Tensor:
    """Mean of -w_label * log(softmax prob of the true class) over non-ignored
    pixels; a list of logits is fused first, to their mean as `fuse_logits`."""
    logits = [logits] if isinstance(logits, Tensor) else list(logits)
    if not logits:
        raise ValueError("cannot fuse an empty logit list")
    targets = _pixel_targets(labels, weights, logits[0].dtype, ignore_label)
    return softmax_nll(logits, *targets, PROB_FLOOR)


def hallucination_loss(tap_target: Tensor, tap_hal: Tensor) -> Tensor:
    """Mean squared difference of sigmoid-squashed taps.

    The target tap is detached: gradient reaches the hallucination branch
    only (the target features are not adapted by this term).
    """
    if tap_target.shape != tap_hal.shape:
        raise ValueError(f"tap shape mismatch: {tap_target.shape} vs {tap_hal.shape}")
    diff = sigmoid(tap_target.detach()) - sigmoid(tap_hal)
    return tmean(mul(diff, diff))


@dataclass
class LossBreakdown:
    """All named terms of the composite objective plus the weighted total."""
    terms: dict[str, Tensor]
    gamma: float
    hallucination_terms: tuple[str, ...]
    total: Tensor = field(init=False)

    def __post_init__(self):
        acc = None
        for name, term in self.terms.items():
            scaled = mul(term, self.gamma) if name in self.hallucination_terms else term
            acc = scaled if acc is None else acc + scaled
        self.total = acc

    def term_values(self) -> dict[str, float]:
        return {name: term.item() for name, term in self.terms.items()}

    def total_value(self) -> float:
        return self.total.item()

    def recompose(self) -> float:
        """Recompute the total from the individual term values."""
        vals = self.term_values()
        return (self.gamma * sum(vals[n] for n in self.hallucination_terms)
                + sum(v for n, v in vals.items() if n not in self.hallucination_terms))

    def raw_hallucination_value(self) -> float:
        return sum(self.terms[n].item() for n in self.hallucination_terms)

    def max_other_value(self) -> float:
        return max(term.item() for name, term in self.terms.items()
                   if name not in self.hallucination_terms)


def fuse_logits(logit_list: list[Tensor]) -> Tensor:
    """Elementwise arithmetic mean of raw branch scores."""
    if not logit_list:
        raise ValueError("cannot fuse an empty logit list")
    first = logit_list[0]
    for other in logit_list[1:]:
        if other.shape != first.shape:
            raise ValueError(f"logit shape mismatch: {other.shape} vs {first.shape}")
    acc = first
    for t in logit_list[1:]:
        acc = acc + t
    return mul(acc, 1.0 / len(logit_list))


def fusion_roster(roles, available) -> list[str]:
    """Branches fused for one availability pattern of the optional roles:
    rgb, then each role's real branch if available, else `hal_<role>`."""
    return ["rgb"] + [r if a else f"hal_{r}" for r, a in zip(roles, available)]


def composite_loss(outputs, labels: np.ndarray, weights: ClassWeights,
                   gamma: float) -> LossBreakdown:
    """The objective over the optional roles of `outputs`, in their order.

    `outputs` maps rgb, each optional role and its `hal_<role>` branch to
    objects carrying `.tap` and `.logits`. For k roles the terms are, in
    order: the mimicry term `hallucinate_<role>` per role; cross-entropy on
    each role, on rgb and on each `hal_<role>`; and cross-entropy on the
    fusion of each of the 2^k availability patterns, all available first,
    named by its `fusion_roster` joined with "+". That is 6 terms for k=1
    and 11 for k=2. The cross-entropy terms share the minibatch and class
    weights; the mimicry terms are unweighted and scaled by gamma.
    """
    roles = [r for r in outputs if r != "rgb" and not r.startswith("hal_")]
    hals = [f"hal_{r}" for r in roles]
    if not roles or set(outputs) != {"rgb", *roles, *hals}:
        raise ValueError("outputs need rgb plus a real and a hal_ branch per optional "
                         f"role, got {sorted(outputs)}")

    targets = _pixel_targets(labels, weights, outputs["rgb"].logits.dtype)

    def ce(names):
        return softmax_nll([outputs[n].logits for n in names], *targets, PROB_FLOOR)

    terms = {f"hallucinate_{r}": hallucination_loss(outputs[r].tap, outputs[h].tap)
             for r, h in zip(roles, hals)}
    for name in (*roles, "rgb", *hals):
        terms[name] = ce([name])
    for pattern in itertools.product((True, False), repeat=len(roles)):
        fused = fusion_roster(roles, pattern)
        terms["+".join(fused)] = ce(fused)
    return LossBreakdown(terms, gamma, tuple(f"hallucinate_{r}" for r in roles))


# perfbench --trace 1 wraps the objective under this name
composite_loss_single = composite_loss
# perfbench --trace 1 wraps this too; a distinct object keeps the objective wrapped once
composite_loss_multi = functools.partial(composite_loss)


@dataclass(frozen=True)
class GammaPolicy:
    """Calibration rule for the mimicry-loss weight."""
    multiplier: float = 10.0
    sample_batches: int = 1

    def __post_init__(self):
        if self.multiplier <= 0:
            raise ValueError("gamma multiplier must be positive")
        if self.sample_batches < 1:
            raise ValueError("gamma sample batches must be positive")


def calibrate_gamma(breakdown: LossBreakdown, policy: GammaPolicy) -> float:
    """Weight so the scaled mimicry loss is `multiplier` times the largest other term."""
    raw_hal = breakdown.raw_hallucination_value()
    if raw_hal <= 0.0:
        warnings.warn("raw hallucination loss is zero; gamma defaults to 1")
        return 1.0
    return policy.multiplier * breakdown.max_other_value() / raw_hal
