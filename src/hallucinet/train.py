"""Optimization and the staged training protocol.

Stages: (1) pretrain each real branch on its own cross-entropy, (2) seed
each hallucination branch from its trained target branch, (3) calibrate
the mimicry-loss weight on one batch, (4) fine-tune everything jointly
with the target branches frozen up to the tap depth.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import DatasetManifest, PatchSampler, PatchSpec, class_frequencies
from .engine import NonFiniteError, Parameter, backward, frozen
from .losses import (
    ClassWeights,
    GammaPolicy,
    LossBreakdown,
    calibrate_gamma,
    composite_loss,
    compute_class_weights,
    weighted_cross_entropy,
)
from .model import (
    ROSTER,
    BranchConfig,
    BranchNet,
    ModelBundle,
    build_branch,
    init_hallucination_from,
    save_checkpoint,
)


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


@dataclass
class TrainConfig:
    mode: str = "single"
    batch_size: int = 4
    patch: PatchSpec = field(default_factory=PatchSpec)
    stage1_steps: int = 300
    stage4_steps: int = 300
    baseline_steps: int | None = None  # single-branch baselines; default stage1+stage4
    lr_stage1: float = 1e-3
    lr_stage4: float = 1e-4
    clip_threshold: float = 1.0
    seed: int = 0
    mfb: bool = True
    gamma: GammaPolicy = field(default_factory=GammaPolicy)

    def __post_init__(self):
        if self.mode not in ("single", "multi"):
            raise ValueError("mode must be 'single' or 'multi'")
        if self.stage1_steps < 1 or self.stage4_steps < 1 or self.batch_size < 1:
            raise ValueError("step budgets and batch size must be positive")
        if self.clip_threshold <= 0:
            raise ValueError("clip threshold must be positive")

    def baseline_budget(self) -> int:
        return self.baseline_steps if self.baseline_steps is not None \
            else self.stage1_steps + self.stage4_steps


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def clip_gradients(grads, threshold: float):
    """Elementwise clamp to [-threshold, threshold]."""
    if threshold <= 0:
        raise ValueError("clip threshold must be positive")
    return [None if g is None else np.clip(g, -threshold, threshold) for g in grads]


def adam_step(params: list[Parameter], grads, state: AdamState):
    """Bias-corrected Adam update of the parameters that require grad.

    A parameter with no gradient, or with `requires_grad` off (frozen), is
    skipped entirely: it is not moved and no m/v moments are kept for it.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    for p, g in zip(params, grads):
        if g is None or not p.requires_grad:
            continue
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for {p.name}")
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
        p.data = p.data - (state.lr * mhat / (np.sqrt(vhat) + state.eps)).astype(p.data.dtype)


class FreezeMask:
    """Names of parameters held fixed during joint fine-tuning.

    Stage 4 passes `select(params)` to `engine.frozen`, which turns their
    `requires_grad` off for the stage. The engine then prunes the frozen
    prefix from the graph: it gets no gradient and no Adam moments.
    """

    def __init__(self, names):
        self.names = frozenset(names)

    @classmethod
    def for_branch_tap(cls, branch: BranchNet) -> "FreezeMask":
        """All parameters in blocks at or before the tap depth."""
        names = []
        for b in range(branch.config.tap_depth):
            for unit in branch.blocks[b]:
                names.extend(p.name for p in unit.parameters())
        return cls(names)

    def select(self, params: list[Parameter]) -> list[Parameter]:
        return [p for p in params if p.name in self.names]


def _grad_norms(params) -> tuple[list, float]:
    grads = [p.grad for p in params]
    pre = max((float(np.max(np.abs(g))) for g in grads if g is not None and g.size),
              default=0.0)
    return grads, pre


def _optimizer_round(params, state: AdamState, clip_threshold: float):
    grads, pre = _grad_norms(params)
    clipped = clip_gradients(grads, clip_threshold)
    post = max((float(np.max(np.abs(g))) for g in clipped if g is not None and g.size),
               default=0.0)
    adam_step(params, clipped, state)
    for p in params:
        p.grad = None
    return pre, post


def mfb_class_weights(frequencies: np.ndarray, enabled: bool = True) -> ClassWeights:
    """Median-frequency weights over present classes; absent classes get 1."""
    if not enabled:
        return ClassWeights.uniform(len(frequencies))
    freqs = np.asarray(frequencies, dtype=np.float64)
    weights = np.ones_like(freqs)
    present = freqs > 0
    weights[present] = compute_class_weights(freqs[present]).weights
    return ClassWeights(weights)


def _log_setup(log: list, frequencies: np.ndarray, weights: ClassWeights,
               config: TrainConfig):
    log.append({"stage": "setup", "step": 0,
                "class_frequencies": [float(f) for f in frequencies],
                "class_weights": [float(w) for w in weights.weights],
                "mfb": config.mfb, "seed": config.seed})


def train_branch(branch: BranchNet, sampler: PatchSampler, modality: str,
                 steps: int, lr: float, clip_threshold: float,
                 weights: ClassWeights, log: list | None = None,
                 stage: str = "stage1") -> list[float]:
    """Minimize the branch's own weighted cross-entropy; returns the loss curve."""
    params = branch.parameters()
    state = AdamState(lr=lr)
    curve = []
    tag = f"{stage}:{branch.role}"
    try:
        for step, (batch, labels) in enumerate(sampler.batches(steps)):
            out = branch.forward(batch[modality], "train")
            loss = weighted_cross_entropy(out.logits, labels, weights)
            value = loss.item()
            backward(loss)
            pre, post = _optimizer_round(params, state, clip_threshold)
            curve.append(value)
            if log is not None:
                log.append({"stage": tag, "step": step, "terms": {branch.role: value},
                            "total": value, "gamma": None,
                            "grad_max_pre": pre, "grad_max_post": post})
    except NonFiniteError as exc:
        raise DivergenceError(f"{tag} diverged at step {len(curve)}: {exc}") from exc
    return curve


def _forward_joint(bundle: ModelBundle, roles: list[str], batch):
    return {role: bundle.branches[role].forward(batch[bundle.input_modality(role)], "train")
            for role in roles}


def _checkpoint(bundle: ModelBundle, out_dir, stage: str):
    if out_dir is not None:
        save_checkpoint(bundle, Path(out_dir) / f"checkpoint_{stage}.ckpt", stage)


def _optional_modalities(manifest: DatasetManifest, mode: str,
                         hallucinate: str | None) -> list[str]:
    """The modalities of the optional roles: one for mode single, two for multi."""
    optional = manifest.optional_modalities
    named = ", ".join(optional) or "none"
    if hallucinate is not None:
        if mode != "single":
            raise ValueError(f"train.hallucinate is for mode 'single'; mode {mode!r} "
                             f"hallucinates the optional modalities in order ({named})")
        if hallucinate not in optional:
            raise ValueError(f"train.hallucinate {hallucinate!r} is not an optional "
                             f"modality ({named})")
        return [hallucinate]
    k = 1 if mode == "single" else 2
    if len(optional) < k:
        raise ValueError(f"mode {mode!r} hallucinates {k} optional modalities; "
                         f"the dataset has {len(optional)} ({named})")
    return optional[:k]


def run_protocol(manifest: DatasetManifest, model_config: BranchConfig,
                 config: TrainConfig, out_dir=None, hallucinate: str | None = None):
    """The staged protocol over rgb and k optional roles; returns (bundle, log).

    Mode single hallucinates one optional modality (`hallucinate`, by
    default the first) under role depth; mode multi (Problem Scenario 3)
    hallucinates the first two, under roles depth and ir.
    """
    always = manifest.always_available
    mods = [always, *_optional_modalities(manifest, config.mode, hallucinate)]
    role_modalities = dict(zip(ROSTER, mods))
    roles = list(role_modalities)[1:]

    frequencies = class_frequencies(manifest, "train")
    weights = mfb_class_weights(frequencies, config.mfb)
    log: list[dict] = []
    _log_setup(log, frequencies, weights, config)

    sampler1 = PatchSampler(manifest, "train", config.patch, config.batch_size,
                            seed=config.seed * 10 + 1, modalities=mods)
    branches = {}
    for i, (role, mod) in enumerate(role_modalities.items()):
        branches[role] = build_branch(model_config, manifest.modality_channels(mod), role,
                                      np.random.default_rng([config.seed, 1 + i]))
        train_branch(branches[role], sampler1, mod, config.stage1_steps, config.lr_stage1,
                     config.clip_threshold, weights, log)

    bundle = ModelBundle(model_config, branches, role_modalities, stage="stage1")
    _checkpoint(bundle, out_dir, "stage1")

    rgb_ch = manifest.modality_channels(always)
    for j, role in enumerate(roles):  # stream 2k+1+j: 3 for single, 5 and 6 for multi
        rng = np.random.default_rng([config.seed, 2 * len(roles) + 1 + j])
        bundle.branches[f"hal_{role}"] = init_hallucination_from(branches[role], rgb_ch, rng)
    bundle.stage = "stage2"
    _checkpoint(bundle, out_dir, "stage2")

    sampler4 = PatchSampler(manifest, "train", config.patch, config.batch_size,
                            seed=config.seed * 10 + 4, modalities=mods)
    joint = ["rgb", *roles, *(f"hal_{r}" for r in roles)]

    def breakdown_for(batch, labels, gamma) -> LossBreakdown:
        return composite_loss(_forward_joint(bundle, joint, batch), labels, weights, gamma)

    gamma, calibration = _calibrate(bundle, sampler4, breakdown_for, config, log)
    _run_stage4(bundle, roles, joint, sampler4, breakdown_for, gamma, config, log,
                skip_batches=calibration)
    _checkpoint(bundle, out_dir, "stage4")
    _write_log(out_dir, log)
    return bundle, log


# perfbench/workloads.py runs the protocol under these names
run_protocol_single = run_protocol_multi = run_protocol


def _calibrate(bundle, sampler, breakdown_for, config: TrainConfig, log):
    """Stage 3: compute gamma on the leading calibration batches."""
    n_batches = max(1, config.gamma.sample_batches)
    gammas = []
    consumed = 0
    for batch, labels in sampler.batches(n_batches):
        with frozen(bundle.parameters()):  # values only: no graph
            bd = breakdown_for(batch, labels, 1.0)
        gammas.append(calibrate_gamma(bd, config.gamma))
        consumed += 1
        log.append({"stage": "stage3", "step": consumed - 1,
                    "terms": bd.term_values(), "total": bd.total_value(),
                    "gamma": gammas[-1], "grad_max_pre": None, "grad_max_post": None})
    gamma = float(np.mean(gammas))
    bundle.stage = "stage3"
    return gamma, consumed


def _run_stage4(bundle: ModelBundle, frozen_roles: list[str], roles: list[str],
                sampler, breakdown_for, gamma: float, config: TrainConfig, log,
                skip_batches: int = 0):
    params = []
    for role in roles:
        params.extend(bundle.branches[role].parameters())
    held = [p for r in frozen_roles
            for p in FreezeMask.for_branch_tap(bundle.branches[r]).select(params)]
    state = AdamState(lr=config.lr_stage4)
    try:
        with frozen(held):
            stream = sampler.batches(config.stage4_steps + skip_batches)
            for step, (batch, labels) in enumerate(stream):
                if step < skip_batches:
                    continue  # calibration batches are not trained on
                bd = breakdown_for(batch, labels, gamma)
                values = bd.term_values()
                total = bd.total_value()
                backward(bd.total)
                pre, post = _optimizer_round(params, state, config.clip_threshold)
                log.append({"stage": "stage4", "step": step - skip_batches,
                            "terms": values, "total": total, "gamma": gamma,
                            "grad_max_pre": pre, "grad_max_post": post})
    except NonFiniteError as exc:
        raise DivergenceError(f"stage4 diverged: {exc}") from exc
    bundle.stage = "stage4"


def train_single_branch_model(manifest: DatasetManifest, model_config: BranchConfig,
                              config: TrainConfig, variant: int = 0,
                              out_dir=None) -> tuple[ModelBundle, list[dict]]:
    """Baseline: one branch on the always-available modality only."""
    always = manifest.always_available
    frequencies = class_frequencies(manifest, "train")
    weights = mfb_class_weights(frequencies, config.mfb)
    log: list[dict] = []
    _log_setup(log, frequencies, weights, config)
    sampler = PatchSampler(manifest, "train", config.patch, config.batch_size,
                           seed=config.seed * 10 + 7 + variant, modalities=[always])
    branch = build_branch(model_config, manifest.modality_channels(always), "rgb",
                          np.random.default_rng([config.seed, 40 + variant]))
    train_branch(branch, sampler, always, config.baseline_budget(), config.lr_stage1,
                 config.clip_threshold, weights, log, stage="baseline")
    bundle = ModelBundle(model_config, {"rgb": branch}, {"rgb": always},
                         stage="baseline")
    if out_dir is not None:
        save_checkpoint(bundle, Path(out_dir) / f"checkpoint_baseline{variant}.ckpt",
                        "baseline")
        _write_log(out_dir, log, name=f"baseline{variant}_log.jsonl")
    return bundle, log


def _write_log(out_dir, log, name: str = "train_log.jsonl"):
    if out_dir is None:
        return
    path = Path(out_dir) / name
    with open(path, "w") as fh:
        for record in log:
            fh.write(json.dumps(record) + "\n")
