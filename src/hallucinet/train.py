"""Optimization and the staged training protocol.

Stages: (1) pretrain each real branch on its own cross-entropy, (2) seed
each hallucination branch from its trained target branch, (3) calibrate
the mimicry-loss weight on one batch, (4) fine-tune everything jointly
with the target branches frozen up to the tap depth.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    DatasetManifest,
    ModalitySpec,
    PatchSampler,
    PatchSpec,
    atomic_write,
    class_frequencies,
)
from .engine import NonFiniteError, Parameter, backward, frozen
from .losses import (
    ClassWeights,
    GammaPolicy,
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
from .parallel import branch_workers, run_in_order


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
    hallucinate: str | None = None  # mode single: the optional modality; default the first

    def __post_init__(self):
        if self.mode not in ("single", "multi"):
            raise ValueError("mode must be 'single' or 'multi'")
        if self.hallucinate is not None and self.mode != "single":
            raise ValueError(f"train.hallucinate is for mode 'single'; mode {self.mode!r} "
                             "hallucinates the optional modalities in order")
        if self.stage1_steps < 1 or self.stage4_steps < 1 or self.batch_size < 1 \
                or (self.baseline_steps is not None and self.baseline_steps < 1):
            raise ValueError("step budgets and batch size must be positive")
        if self.clip_threshold <= 0:
            raise ValueError("clip threshold must be positive")
        if self.seed < 0:
            raise ValueError(f"train.seed must be non-negative, got {self.seed}")

    def baseline_budget(self) -> int:
        return self.baseline_steps if self.baseline_steps is not None \
            else self.stage1_steps + self.stage4_steps


@dataclass
class AdamState:
    lr: float
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def clip_gradients(grads, threshold: float):
    """Elementwise clamp to [-threshold, threshold], in place; returns `grads`."""
    if threshold <= 0:
        raise ValueError("clip threshold must be positive")
    for g in grads:
        if g is not None:
            np.clip(g, -threshold, threshold, out=g)
    return grads


def adam_step(params: list[Parameter], grads, state: AdamState):
    """Bias-corrected Adam update (betas 0.9 and 0.999, eps 1e-8) of the
    parameters that require grad; the moments are updated in place.

    A parameter with no gradient, or with `requires_grad` off (frozen), is
    skipped entirely: it is not moved and no m/v moments are kept for it.
    Every gradient is checked before anything moves, so a non-finite one
    raises DivergenceError with the parameters and the state untouched.
    """
    live = [(p, g) for p, g in zip(params, grads) if g is not None and p.requires_grad]
    for p, g in live:
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for {p.name}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = 0.9, 0.999
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    for p, g in live:
        m = state.m.get(p.name)
        if m is None:
            m = state.m[p.name] = np.zeros_like(p.data)
            state.v[p.name] = np.zeros_like(p.data)
        v = state.v[p.name]
        # b1*m + (1-b1)*g, b2*v + (1-b2)*g*g and the step
        # lr*mhat / (sqrt(vhat) + eps), rounded as written, in two buffers
        step = np.multiply(g, 1.0 - b1)
        m *= b1
        m += step
        np.multiply(g, 1.0 - b2, out=step)
        step *= g
        v *= b2
        v += step
        denom = np.divide(v, corr2)
        np.sqrt(denom, out=denom)
        denom += 1e-8
        np.divide(m, corr1, out=step)
        step *= state.lr
        step /= denom
        p.data = p.data - step


def _tap_prefix(branch: BranchNet) -> list[Parameter]:
    """The parameters of the blocks up to the tap depth, frozen in stage 4."""
    return [p for units in branch.blocks[:branch.config.tap_depth]
            for unit in units for p in unit.parameters()]


def _optimizer_round(params, state: AdamState, clip_threshold: float):
    """Clip, step and clear the gradients; return max |g| before and after clipping.

    A non-finite gradient raises DivergenceError before anything is
    clipped or moved.
    """
    grads = [p.grad for p in params]
    # max |g| and its clipped value, at the threshold in g's dtype as the clip
    # rounds it; abs() makes a max of -0 read 0. max and min propagate NaN,
    # so a peak is finite exactly when its whole gradient is
    peaks = []
    for p, g in zip(params, grads):
        if g is None or not g.size:
            continue
        peak = abs(float(max(g.max(), -g.min())))
        if not math.isfinite(peak):
            raise DivergenceError(f"non-finite gradient for {p.name}")
        peaks.append((peak, float(g.dtype.type(clip_threshold))))
    pre = max((peak for peak, _ in peaks), default=0.0)
    post = max((min(peak, cap) for peak, cap in peaks), default=0.0)
    clip_gradients(grads, clip_threshold)
    adam_step(params, grads, state)
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


def _fit(tag: str, params: list[Parameter], batches, loss_terms, lr: float,
         clip_threshold: float, log: list, gamma: float | None = None, run=run_in_order):
    """Adam on `params` over `batches`, one logged step per batch.

    `loss_terms(batch, labels)` returns (named term tensors, total,
    branch groups); the total is minimized and every term's value is
    logged. The backward pass runs each group of tensors' subgraph as one
    task of `run` (`engine.backward`), which empties the groups list, so
    that a branch's outputs are freed once its task has run.
    """
    state = AdamState(lr=lr)
    step = 0
    try:
        for step, (batch, labels) in enumerate(batches):
            terms, total, groups = loss_terms(batch, labels)
            values = {name: term.item() for name, term in terms.items()}
            value = total.item()
            backward(total, groups, run)  # empties groups: outputs go with their task
            pre, post = _optimizer_round(params, state, clip_threshold)
            log.append({"stage": tag, "step": step, "terms": values, "total": value,
                        "gamma": gamma, "grad_max_pre": pre, "grad_max_post": post})
    except NonFiniteError as exc:
        raise DivergenceError(f"{tag} diverged at step {step}: {exc}") from exc


def _own_loss(branch: BranchNet, modality: str, weights: ClassWeights):
    """The branch's own weighted cross-entropy, as `_fit` loss terms."""
    def loss_terms(batch, labels):
        loss = weighted_cross_entropy(branch.forward(batch[modality], "train").logits,
                                      labels, weights)
        return {branch.role: loss}, loss, ()
    return loss_terms


def _check_patch(model_config: BranchConfig, config: TrainConfig):
    factor = model_config.downsample_factor
    if config.patch.size % factor:
        raise ValueError(f"train.patch.size {config.patch.size} must be divisible by the "
                         f"model's downsample factor {factor}")


def _start(manifest: DatasetManifest, config: TrainConfig, out_dir):
    """Create `out_dir` before any training, so no save can find it
    missing; return the class weights and the log opened with the setup
    record."""
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    frequencies = class_frequencies(manifest, "train")
    weights = mfb_class_weights(frequencies, config.mfb)
    log = [{"stage": "setup", "step": 0,
            "class_frequencies": [float(f) for f in frequencies],
            "class_weights": [float(w) for w in weights.weights],
            "mfb": config.mfb, "seed": config.seed}]
    return weights, log


def _pretrain(manifest: DatasetManifest, model_config: BranchConfig, config: TrainConfig,
              weights: ClassWeights, log: list, role_modalities: dict[str, str], tag: str,
              sampler_seed: int, stream: int, steps: int,
              run=run_in_order) -> dict[str, BranchNet]:
    """Build branch i of `role_modalities` from rng stream `stream + i` and
    fit it alone on its own cross-entropy, every branch on the same batches.

    Each branch is one task of `run`, with its own batch stream and log
    records, which join `log` in roster order.
    """
    sampler = PatchSampler(manifest, "train", config.patch, config.batch_size,
                           seed=sampler_seed, modalities=list(role_modalities.values()))

    def fit(i, role, mod):
        branch = build_branch(model_config, manifest.modality_channels(mod), role,
                              np.random.default_rng([config.seed, stream + i]))
        records = []
        _fit(f"{tag}:{role}", branch.parameters(), sampler.batches(steps),
             _own_loss(branch, mod, weights), config.lr_stage1, config.clip_threshold,
             records)
        return branch, records

    fitted = run([functools.partial(fit, i, role, mod)
                  for i, (role, mod) in enumerate(role_modalities.items())])
    for _, records in fitted:
        log.extend(records)
    return {role: branch for role, (branch, _) in zip(role_modalities, fitted)}


def _forward_joint(bundle: ModelBundle, roles: list[str], batch, run, targets=(), taps=None):
    """Each role's train-mode forward, one task of `run` per branch, the
    tasks and the outputs in the order of `roles`. The `targets` forward
    only past their taps of this batch (`BranchNet.prefix`), which the
    future `taps`, a task of `run` started before, maps them to."""
    def forward(role):
        tap = taps.result()[role] if role in targets else None
        return bundle.branches[role].forward(batch[bundle.input_modality(role)], "train",
                                             tap=tap)

    return dict(zip(roles, run([functools.partial(forward, role) for role in roles])))


class _Lookahead:
    """A batch stream read one batch ahead, with `task(batch)` started on
    each batch as it is drawn (`start` is `Workers.start`).

    Iterating yields each (batch, labels) in turn, and `taps` is then the
    future of that batch's task. `advance()` draws the next batch, and so
    starts its task, without waiting: called during a step, it lets the
    task overlap the rest of the step; otherwise the next iteration
    draws. No task starts past the last batch. A task's failure is raised
    where its future is read, by the step of its batch; a step that fails
    before that leaves it unread.
    """

    def __init__(self, batches, task, start):
        self._batches = iter(batches)
        self._task, self._start = task, start
        self._next = None  # the drawn (batch, labels, future), or () past the last
        self.taps = None

    def advance(self):
        if self._next is None:
            item = next(self._batches, None)
            self._next = () if item is None else (
                *item, self._start(functools.partial(self._task, item[0])))

    def __iter__(self):
        while True:
            self.advance()
            if not self._next:
                return
            batch, labels, self.taps = self._next
            self._next = None
            yield batch, labels


def _mmap_threshold(model_config: BranchConfig, config: TrainConfig) -> int:
    """Half the bytes of a step's largest activation, the first conv unit's
    output: from this size up, malloc maps blocks and unmaps them when
    freed (`parallel.branch_workers`). At the default that is 4 MiB, so the
    second block's activations and the logits are mapped too; the full
    8 MiB left them in the heap and read 2-5% more peak RSS, and a quarter
    cost 8% in step time (train-single)."""
    side = config.patch.size // model_config.first_conv_stride
    return config.batch_size * model_config.blocks[0][0] * side * side * 4 // 2  # float32


def _checkpoint(bundle: ModelBundle, out_dir, name: str):
    if out_dir is not None:
        save_checkpoint(bundle, Path(out_dir) / f"checkpoint_{name}.ckpt")


def check_protocol(modalities: list[ModalitySpec], model_config: BranchConfig,
                   config: TrainConfig) -> list[str]:
    """The modalities of `run_protocol`'s roles, the always-available one
    first; raises ValueError if the configs and the dataset's modality
    list alone rule the run out."""
    optional = [m.name for m in modalities[1:]]
    named = ", ".join(optional) or "none"
    if config.hallucinate is not None:
        if config.hallucinate not in optional:
            raise ValueError(f"train.hallucinate {config.hallucinate!r} is not an optional "
                             f"modality ({named})")
        optional = [config.hallucinate]
    k = 1 if config.mode == "single" else 2
    if len(optional) < k:
        raise ValueError(f"mode {config.mode!r} hallucinates {k} optional modalities; "
                         f"the dataset has {len(optional)} ({named})")
    _check_patch(model_config, config)
    return [modalities[0].name, *optional[:k]]


def run_protocol(manifest: DatasetManifest, model_config: BranchConfig,
                 config: TrainConfig, out_dir=None):
    """The staged protocol over rgb and k optional roles; returns (bundle, log).

    Mode single hallucinates one optional modality (`config.hallucinate`,
    by default the first) under role depth; mode multi (Problem Scenario 3)
    hallucinates the first two, under roles depth and ir.
    """
    mods = check_protocol(manifest.modalities, model_config, config)
    weights, log = _start(manifest, config, out_dir)
    role_modalities = dict(zip(ROSTER, mods))
    roles = list(role_modalities)[1:]
    # the branches of each stage run as tasks of `run`
    with branch_workers(_mmap_threshold(model_config, config)) as run:
        branches = _pretrain(manifest, model_config, config, weights, log, role_modalities,
                             "stage1", config.seed * 10 + 1, 1, config.stage1_steps, run)
        bundle = ModelBundle(model_config, branches, role_modalities, stage="stage1")
        _checkpoint(bundle, out_dir, "stage1")

        rgb_ch = manifest.modality_channels(mods[0])
        for j, role in enumerate(roles):  # stream 2k+1+j: 3 for single, 5 and 6 for multi
            rng = np.random.default_rng([config.seed, 2 * len(roles) + 1 + j])
            bundle.branches[f"hal_{role}"] = init_hallucination_from(branches[role], rgb_ch,
                                                                     rng)
        bundle.stage = "stage2"
        _checkpoint(bundle, out_dir, "stage2")

        sampler4 = PatchSampler(manifest, "train", config.patch, config.batch_size,
                                seed=config.seed * 10 + 4, modalities=mods)
        hals = [f"hal_{r}" for r in roles]
        joint = ["rgb", *hals, *roles]  # the branches that run in full first

        def objective(batch, labels, gamma):
            return composite_loss(_forward_joint(bundle, joint, batch, run), labels, weights,
                                  gamma)

        gamma = _calibrate(bundle, sampler4, objective, config, log)

        def target_taps(batch):
            """The frozen targets' train-mode taps of one batch, in roster order."""
            return {role: bundle.branches[role].prefix(batch[role_modalities[role]], "train")
                    for role in roles}

        calibration = config.gamma.sample_batches  # those batches are not trained on
        batches = _Lookahead(itertools.islice(sampler4.batches(calibration + config.stage4_steps),
                                              calibration, None), target_taps, run.start)

        def joint_loss(batch, labels):
            outputs = _forward_joint(bundle, joint, batch, run, roles, batches.taps)
            batches.advance()  # the next batch's taps overlap this step's loss and backward
            bd = composite_loss(outputs, labels, weights, gamma)
            # one backward group per branch, its subgraph from its logits and
            # tap, in task order: the longest first, as the targets stop at their taps
            return bd.terms, bd.total, [[out.logits, out.tap] for out in outputs.values()]

        # in roster order, which decides the parameter a non-finite gradient names
        params = [p for role in ("rgb", *roles, *hals) for p in bundle.branches[role].parameters()]
        with frozen(p for role in roles for p in _tap_prefix(bundle.branches[role])):
            _fit("stage4", params, batches, joint_loss, config.lr_stage4,
                 config.clip_threshold, log, gamma, run)
        bundle.stage = "stage4"
        _checkpoint(bundle, out_dir, "stage4")
    _write_log(out_dir, log)
    return bundle, log


# perfbench/workloads.py runs the protocol under these names
run_protocol_single = run_protocol_multi = run_protocol


def _calibrate(bundle, sampler, objective, config: TrainConfig, log) -> float:
    """Stage 3: compute gamma on the leading calibration batches;
    `objective(batch, labels, gamma)` is the joint `LossBreakdown`."""
    gammas = []
    for step, (batch, labels) in enumerate(sampler.batches(config.gamma.sample_batches)):
        with frozen(bundle.parameters()):  # values only: no graph
            bd = objective(batch, labels, 1.0)
        gammas.append(calibrate_gamma(bd, config.gamma))
        log.append({"stage": "stage3", "step": step,
                    "terms": bd.term_values(), "total": bd.total_value(),
                    "gamma": gammas[-1], "grad_max_pre": None, "grad_max_post": None})
    bundle.stage = "stage3"
    return float(np.mean(gammas))


def train_single_branch_model(manifest: DatasetManifest, model_config: BranchConfig,
                              config: TrainConfig, variant: int = 0,
                              out_dir=None) -> tuple[ModelBundle, list[dict]]:
    """Baseline: one branch on the always-available modality only."""
    _check_patch(model_config, config)
    weights, log = _start(manifest, config, out_dir)
    role_modalities = {"rgb": manifest.always_available}
    branches = _pretrain(manifest, model_config, config, weights, log, role_modalities,
                         "baseline", config.seed * 10 + 7 + variant, 40 + variant,
                         config.baseline_budget())
    bundle = ModelBundle(model_config, branches, role_modalities, stage="baseline")
    _checkpoint(bundle, out_dir, f"baseline{variant}")
    _write_log(out_dir, log, name=f"baseline{variant}_log.jsonl")
    return bundle, log


def _write_log(out_dir, log, name: str = "train_log.jsonl"):
    if out_dir is None:
        return
    with atomic_write(Path(out_dir) / name) as fh:
        for record in log:
            fh.write(json.dumps(record, allow_nan=False) + "\n")
