"""Branch networks, the multi-branch model bundle, availability routing,
score fusion, and checkpoint serialization.

Each branch is a fully convolutional stack: per block, (3x3 conv -> BN ->
ReLU) repeated, then 2x2 max pooling; stride 2 on the very first conv; a
1x1 score head; and one bilinear-initialized transposed convolution
restoring input resolution. The activation after the pooling layer at
`tap_depth` is exposed for the mimicry loss.
"""
from __future__ import annotations

import json
import re
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import build
from .data import MissingModalityError, atomic_write, tensor_from_bytes, tensor_to_bytes
from .engine import (
    BatchNormState,
    Parameter,
    Tensor,
    batchnorm,
    bilinear_kernel,
    channel_softmax,
    conv2d,
    frozen,
    maxpool2,
    release,
    transposed_conv2d,
)
from .losses import fuse_logits, fusion_roster

CHECKPOINT_MAGIC = b"HCKP"
# 3 drops the conv biases of the conv-BN-ReLU units; 2 and 3 end with a
# CRC32 of the tensor records, 1 has none
CHECKPOINT_VERSION = 3
_CONV_BIAS = re.compile(r"(.+/block\d+)/conv(\d+)/bias")  # formats 1 and 2 only

# Branch roles in routing order: rgb reads the always-available modality,
# the optional roles follow. Training names its k optional roles from here.
ROSTER = ("rgb", "depth", "ir")


class CheckpointError(ValueError):
    """A checkpoint file is truncated, corrupt or of an unknown format version,
    or does not match the dataset or the other checkpoint it is used with:
    a different class count, an unknown modality or another roster."""


@dataclass(frozen=True)
class BranchConfig:
    class_count: int
    blocks: tuple[tuple[int, int], ...] = ((32, 2), (64, 2), (128, 2), (256, 2))
    first_conv_stride: int = 2
    tap_depth: int = 3

    def __post_init__(self):
        if self.class_count < 2:
            raise ValueError("need at least 2 classes")
        if not self.blocks or any(w < 1 or n < 1 for w, n in self.blocks):
            raise ValueError("blocks must be nonempty with positive widths and conv counts")
        if not 1 <= self.tap_depth <= len(self.blocks):
            raise ValueError(f"tap depth {self.tap_depth} outside 1..{len(self.blocks)}")
        if self.first_conv_stride < 1:
            raise ValueError("first conv stride must be positive")

    @property
    def downsample_factor(self) -> int:
        return self.first_conv_stride * 2 ** len(self.blocks)

    @property
    def receptive_radius(self) -> int:
        """Farthest distance in pixels between an output pixel and an input
        pixel it depends on (Araujo et al., Distill 2019).

        The conv/pool stack gives pixel i of its output, at jump f (the
        downsample factor), the input support [f*i + lo, f*i + hi]. The
        transposed head (kernel 2f, stride f, padding f/2) makes output
        pixel y depend on stack pixels floor((y + f/2)/f) - 1 and the one
        after it, so over the f phases of y the support reaches hi + f/2
        px to one side and 3f/2 - 1 - lo px to the other.
        """
        lo = hi = 0
        jump = 1
        for b, (_, n_convs) in enumerate(self.blocks):
            for i in range(n_convs):
                lo -= jump  # 3x3 conv, padding 1
                hi += jump
                if b == 0 and i == 0:
                    jump *= self.first_conv_stride
            hi += jump  # 2x2 pool
            jump *= 2
        half = jump // 2
        return max(hi + half, 3 * half - 1 - lo)


@dataclass
class BranchOutput:
    tap: Tensor
    logits: Tensor


def _conv_init(rng: np.random.Generator, out_ch: int, in_ch: int, k: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(in_ch * k * k)
    return rng.uniform(-bound, bound, size=(out_ch, in_ch, k, k)).astype(np.float32)


class _ConvBnRelu:
    def __init__(self, prefix: str, in_ch: int, out_ch: int, stride: int,
                 rng: np.random.Generator, conv_idx: int):
        self.stride = stride
        cname = f"{prefix}/conv{conv_idx}"
        bname = f"{prefix}/bn{conv_idx}"
        self.weight = Parameter(_conv_init(rng, out_ch, in_ch, 3), f"{cname}/weight")
        self.scale = Parameter(np.ones(out_ch, dtype=np.float32), f"{bname}/scale")
        self.shift = Parameter(np.zeros(out_ch, dtype=np.float32), f"{bname}/shift")
        self.state = BatchNormState(out_ch)
        self.bn_name = bname

    def forward(self, x: Tensor, mode: str) -> Tensor:
        # no conv bias: batchnorm subtracts the mean, so it would cancel
        y = conv2d(x, self.weight, None, stride=self.stride, padding=1)
        release(x)  # a previous unit's output: its batchnorm can rebuild it
        return batchnorm(y, self.scale, self.shift, self.state, mode, relu=True)

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.scale, self.shift]

    def buffers(self) -> dict[str, np.ndarray]:
        return {f"{self.bn_name}/running_mean": self.state.running_mean,
                f"{self.bn_name}/running_var": self.state.running_var}


class BranchNet:
    """One fully convolutional float32 branch with tap and full-resolution logits."""

    def __init__(self, config: BranchConfig, input_channels: int, role: str,
                 rng: np.random.Generator):
        self.config = config
        self.input_channels = input_channels
        self.role = role
        self.blocks: list[list[_ConvBnRelu]] = []
        ch = input_channels
        for b, (width, n_convs) in enumerate(config.blocks):
            units = []
            for i in range(n_convs):
                stride = config.first_conv_stride if (b == 0 and i == 0) else 1
                units.append(_ConvBnRelu(f"{role}/block{b}", ch, width, stride, rng, i))
                ch = width
            self.blocks.append(units)
        self.score_weight = Parameter(_conv_init(rng, config.class_count, ch, 1),
                                      f"{role}/score/weight")
        self.score_bias = Parameter(np.zeros(config.class_count, dtype=np.float32),
                                    f"{role}/score/bias")
        factor = config.downsample_factor
        self.upsample_weight = Parameter(
            bilinear_kernel(config.class_count, 2 * factor),
            f"{role}/upsample/weight")

    def forward(self, x, mode: str = "infer") -> BranchOutput:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float32))
        n, c, h, w = x.shape
        if c != self.input_channels:
            raise ValueError(f"branch {self.role} expects {self.input_channels} channels, got {c}")
        factor = self.config.downsample_factor
        if h % factor or w % factor:
            raise ValueError(f"input extents must be divisible by {factor}, got {h}x{w}")
        t = x
        tap = None
        for b, units in enumerate(self.blocks):
            for unit in units:
                t = unit.forward(t, mode)
            pooled = maxpool2(t)
            release(t)
            t = pooled
            if b == self.config.tap_depth - 1:
                tap = t
        scores = conv2d(t, self.score_weight, self.score_bias)
        logits = transposed_conv2d(scores, self.upsample_weight, stride=factor)
        return BranchOutput(tap=tap, logits=logits)

    def parameters(self) -> list[Parameter]:
        params = []
        for units in self.blocks:
            for unit in units:
                params.extend(unit.parameters())
        params.extend([self.score_weight, self.score_bias, self.upsample_weight])
        return params

    def buffers(self) -> dict[str, np.ndarray]:
        out = {}
        for units in self.blocks:
            for unit in units:
                out.update(unit.buffers())
        return out

    def set_buffers(self, values: dict[str, np.ndarray]):
        for units in self.blocks:
            for unit in units:
                unit.state.running_mean = values[f"{unit.bn_name}/running_mean"].copy()
                unit.state.running_var = values[f"{unit.bn_name}/running_var"].copy()


def build_branch(config: BranchConfig, input_channels: int, role: str, rng) -> BranchNet:
    """Construct a branch; `rng` is a seed int or a numpy Generator."""
    return BranchNet(config, input_channels, role, np.random.default_rng(rng))


def init_hallucination_from(target: BranchNet, input_channels: int,
                            rng) -> BranchNet:
    """Deep-copy the target branch into a hallucination branch.

    When the consumed modality's channel count differs from the target's,
    the first conv layer is re-initialized fresh; everything else
    (including batchnorm running statistics) is copied.
    """
    hal = BranchNet(target.config, input_channels, f"hal_{target.role}",
                    np.random.default_rng(rng))
    src_params = target.parameters()
    dst_params = hal.parameters()
    for src, dst in zip(src_params, dst_params):
        if src.data.shape != dst.data.shape:
            continue  # fresh first conv when channel counts differ
        dst.data = src.data.copy()
    prefix = target.role + "/"
    hal.set_buffers({f"{hal.role}/{name[len(prefix):]}": arr
                     for name, arr in target.buffers().items()})
    return hal


@dataclass
class ModelBundle:
    """Per-modality branches plus hallucination branches, keyed by role."""
    config: BranchConfig
    branches: dict[str, BranchNet]
    role_modalities: dict[str, str]
    stage: str = "init"

    def optional_roles(self) -> list[str]:
        """Real branches besides rgb, in roster order (that of `role_modalities`)."""
        return [r for r in self.role_modalities if r != "rgb" and r in self.branches]

    def hallucinated_roles(self) -> list[str]:
        return [r for r in self.optional_roles() if f"hal_{r}" in self.branches]

    def availability_from_modalities(self, flags: dict[str, bool]) -> dict[str, bool]:
        return {role: bool(flags.get(self.role_modalities[role], True))
                for role in self.optional_roles()}

    def input_modality(self, role: str) -> str:
        if role.startswith("hal_"):
            return self.role_modalities["rgb"]
        return self.role_modalities[role]

    def parameters(self) -> list[Parameter]:
        params = []
        for role in sorted(self.branches):
            params.extend(self.branches[role].parameters())
        return params


def select_branches(bundle: ModelBundle, availability: dict[str, bool]) -> list[str]:
    """Branch roles to fuse: rgb always, real branch if available, else its
    hallucination branch fed by the always-available modality."""
    roles = bundle.optional_roles()
    selected = fusion_roster(roles, [availability.get(r, True) for r in roles])
    for role in selected:
        if role not in bundle.branches:
            raise MissingModalityError(f"modality for branch {role[len('hal_'):]} "
                                       "unavailable and no hallucination branch exists")
    return selected


def predict_probs(bundle: ModelBundle, inputs: dict[str, np.ndarray],
                  availability: dict[str, bool]) -> np.ndarray:
    """Fused per-pixel class probabilities (softmax of mean raw scores).

    The forward runs with every parameter frozen, so it builds no graph.
    """
    selected = select_branches(bundle, availability)
    logits = []
    with frozen(bundle.parameters()):
        for role in selected:
            mod = bundle.input_modality(role)
            if mod not in inputs:
                raise MissingModalityError(f"branch {role} needs modality {mod!r}")
            logits.append(bundle.branches[role].forward(inputs[mod], "infer").logits)
        return channel_softmax(fuse_logits(logits)).data


def predict(bundle: ModelBundle, inputs: dict[str, np.ndarray],
            availability: dict[str, bool]) -> np.ndarray:
    """Per-pixel class map; argmax ties go to the lowest class index."""
    return predict_probs(bundle, inputs, availability).argmax(axis=1)


def ensemble_predict(bundle_a: ModelBundle, bundle_b: ModelBundle,
                     inputs: dict[str, np.ndarray],
                     availability: dict[str, bool]) -> np.ndarray:
    """Average the two models' softmax probability maps, then argmax."""
    pa = predict_probs(bundle_a, inputs, availability)
    pb = predict_probs(bundle_b, inputs, availability)
    if pa.shape != pb.shape:
        raise ValueError(f"ensemble shape mismatch: {pa.shape} vs {pb.shape}")
    return ((pa + pb) * 0.5).argmax(axis=1)


# -- checkpoint io -----------------------------------------------------------

def save_checkpoint(bundle: ModelBundle, path, stage: str | None = None):
    """One file: JSON header (config, roles, stage) + named tensor records
    + the CRC32 of those records (4 bytes, little-endian)."""
    tensors: dict[str, np.ndarray] = {}
    branch_meta = []
    for role in sorted(bundle.branches):
        branch = bundle.branches[role]
        branch_meta.append({"role": role, "input_channels": branch.input_channels})
        for p in branch.parameters():
            tensors[p.name] = p.data.astype(np.float32)
        for name, arr in branch.buffers().items():
            tensors[name] = arr.astype(np.float32)
    header = {
        "format": "hallucinet-checkpoint",
        "format_version": CHECKPOINT_VERSION,
        "stage": stage if stage is not None else bundle.stage,
        "config": asdict(bundle.config),
        "role_modalities": bundle.role_modalities,
        "branches": branch_meta,
        "tensors": list(tensors),
    }
    _write_checkpoint(path, header, tensors)


def _write_checkpoint(path, header: dict, tensors: dict[str, np.ndarray]):
    """Write header and the records it lists, then their CRC32, atomically."""
    blob = json.dumps(header, allow_nan=False).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        crc = 0
        for name in header["tensors"]:
            record = tensor_to_bytes(tensors[name])
            crc = zlib.crc32(record, crc)
            fh.write(record)
        fh.write(struct.pack("<I", crc))


def _read_checkpoint(blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and tensor records of a checkpoint file's bytes."""
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (hlen,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8:8 + hlen].decode("utf-8"))
    if header.get("format") != "hallucinet-checkpoint":
        raise CheckpointError("not a checkpoint file (bad header)")
    version = header.get("format_version")
    if version not in (1, 2, CHECKPOINT_VERSION):
        raise CheckpointError(f"unsupported checkpoint format version {version!r}")
    start = offset = 8 + hlen
    tensors: dict[str, np.ndarray] = {}
    for name in header["tensors"]:
        arr, offset = tensor_from_bytes(blob, offset)
        tensors[name] = arr
    checksummed = version >= 2
    extra = len(blob) - offset - (4 if checksummed else 0)
    if extra < 0:
        raise CheckpointError("truncated checksum")
    if extra > 0:
        raise CheckpointError(f"{extra} trailing bytes after the last record")
    if checksummed and (
            zlib.crc32(memoryview(blob)[start:offset]) != struct.unpack_from("<I", blob, offset)[0]):
        raise CheckpointError("tensor records do not match their checksum")
    return header, tensors


def load_checkpoint(path) -> ModelBundle:
    """Rebuild a bundle; any defect of the file raises CheckpointError."""
    blob = Path(path).read_bytes()
    try:
        return _bundle_from_checkpoint(*_read_checkpoint(blob))
    except CheckpointError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError, struct.error) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc


def _fold_conv_biases(tensors: dict[str, np.ndarray]):
    """Move the conv biases of formats 1 and 2 into the running means.

    A bias in front of batchnorm cancels in train mode, and in infer mode
    BN(conv + b) with running mean rm equals BN(conv) with rm - b.
    """
    for name in [n for n in tensors if _CONV_BIAS.fullmatch(n)]:
        block, idx = _CONV_BIAS.fullmatch(name).groups()
        mean = f"{block}/bn{idx}/running_mean"
        tensors[mean] = tensors[mean] - tensors.pop(name)


def _bundle_from_checkpoint(header: dict, tensors: dict[str, np.ndarray]) -> ModelBundle:
    if header["format_version"] < 3:
        _fold_conv_biases(tensors)
    config = build(BranchConfig, header["config"], "config")
    branches: dict[str, BranchNet] = {}
    rng = np.random.default_rng(0)  # values are overwritten below
    for meta in header["branches"]:
        role = meta["role"]
        branch = BranchNet(config, int(meta["input_channels"]), role, rng)
        for p in branch.parameters():
            if p.name not in tensors:
                raise CheckpointError(f"checkpoint missing tensor {p.name}")
            arr = tensors.pop(p.name)
            if arr.shape != p.data.shape:
                raise CheckpointError(f"checkpoint tensor {p.name} has wrong shape")
            p.data = arr.astype(np.float32)
        branch.set_buffers({name: tensors.pop(name) for name in branch.buffers()})
        branches[role] = branch
    if tensors:
        raise CheckpointError(f"checkpoint tensors no branch uses: {', '.join(sorted(tensors))}")
    return ModelBundle(config=config, branches=branches,
                       role_modalities=dict(header["role_modalities"]),
                       stage=header.get("stage", "init"))
