"""Branch networks, the multi-branch model bundle, availability routing,
score fusion, and checkpoint serialization.

Each branch is a fully convolutional stack: per block, (3x3 conv -> BN ->
ReLU) repeated, then 2x2 max pooling; stride 2 on the very first conv; a
1x1 score head; and one bilinear-initialized transposed convolution
restoring input resolution. The activation after the pooling layer at
`tap_depth` is exposed for the mimicry loss.
"""
from __future__ import annotations

import functools
import json
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
    conv_bn_relu,
    conv_bn_relu_train,
    frozen,
    maxpool2,
    release,
    transposed_conv2d,
)
from .losses import fuse_logits, fusion_roster
from .parallel import branch_workers, run_in_order

CHECKPOINT_MAGIC = b"HCKP"
CHECKPOINT_VERSION = 3  # the one version written and read

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

    def forward(self, x: Tensor, mode: str, pool: bool) -> Tensor:
        """The unit's output, 2x2 max-pooled if `pool` (a block's last unit)."""
        kernel = {"infer": conv_bn_relu, "train": conv_bn_relu_train}.get(mode)
        if kernel and not any(t.requires_grad for t in (x, *self.parameters())):
            # no graph to build: the whole unit is one kernel
            return Tensor(kernel(x.data, self.weight.data, self.scale.data, self.shift.data,
                                 self.state, self.stride, 1, pool), op=kernel.__name__)
        # no conv bias: batchnorm subtracts the mean, so it would cancel; it
        # also refuses an unknown mode
        y = conv2d(x, self.weight, None, stride=self.stride, padding=1)
        release(x)  # a previous unit's output: its batchnorm can rebuild it
        out = batchnorm(y, self.scale, self.shift, self.state, mode, relu=True)
        if not pool:
            return out
        pooled = maxpool2(out)
        release(out)
        return pooled

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

    def prefix(self, x, mode: str = "infer") -> Tensor:
        """The tap of input x: the blocks up to the tap depth, the first
        part of `forward`."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float32))
        n, c, h, w = x.shape
        if c != self.input_channels:
            raise ValueError(f"branch {self.role} expects {self.input_channels} channels, got {c}")
        factor = self.config.downsample_factor
        if h % factor or w % factor:
            raise ValueError(f"input extents must be divisible by {factor}, got {h}x{w}")
        return self._blocks(x, mode, self.blocks[:self.config.tap_depth])

    def forward(self, x, mode: str = "infer", tap: Tensor | None = None) -> BranchOutput:
        """The tap and the logits of input x. Given `tap`, x's `prefix`
        computed before, only the blocks past the tap run and x is not read."""
        if tap is None:
            tap = self.prefix(x, mode)
        t = self._blocks(tap, mode, self.blocks[self.config.tap_depth:])
        scores = conv2d(t, self.score_weight, self.score_bias)
        logits = transposed_conv2d(scores, self.upsample_weight,
                                   stride=self.config.downsample_factor)
        return BranchOutput(tap=tap, logits=logits)

    @staticmethod
    def _blocks(t: Tensor, mode: str, blocks) -> Tensor:
        for units in blocks:
            for i, unit in enumerate(units):
                t = unit.forward(t, mode, pool=i == len(units) - 1)
        return t

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


def _mmap_threshold(config: BranchConfig, shape) -> int:
    """Half the bytes of a forward's largest activation, the first conv
    unit's output, for an input of `shape` (N, C, H, W): the malloc
    threshold of `parallel.branch_workers`, as `train._mmap_threshold`
    takes it for a training batch."""
    n, _, h, w = shape
    s = config.first_conv_stride
    return n * config.blocks[0][0] * (h // s) * (w // s) * 4 // 2  # float32


def predict_probs(bundle: ModelBundle, inputs: dict[str, np.ndarray],
                  availability: dict[str, bool]) -> np.ndarray:
    """Fused per-pixel class probabilities (softmax of mean raw scores).

    The forward runs with every parameter frozen, so it builds no graph.
    Two or more selected branches run as tasks of `parallel.branch_workers`;
    a lone branch runs on the calling thread with every BLAS thread.
    """
    selected = select_branches(bundle, availability)
    tasks = []
    for role in selected:
        mod = bundle.input_modality(role)
        if mod not in inputs:
            raise MissingModalityError(f"branch {role} needs modality {mod!r}")
        tasks.append(functools.partial(bundle.branches[role].forward, inputs[mod], "infer"))
    with frozen(bundle.parameters()):
        if len(tasks) == 1:
            outputs = run_in_order(tasks)
        else:
            threshold = _mmap_threshold(bundle.config, np.shape(tasks[0].args[0]))
            with branch_workers(threshold) as run:
                outputs = run(tasks)
    return channel_softmax(fuse_logits([out.logits for out in outputs])).data


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
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format version {json.dumps(version)}")
    start = offset = 8 + hlen
    tensors: dict[str, np.ndarray] = {}
    for name in header["tensors"]:
        arr, offset = tensor_from_bytes(blob, offset)
        tensors[name] = arr
    extra = len(blob) - offset - 4
    if extra < 0:
        raise CheckpointError("truncated checksum")
    if extra > 0:
        raise CheckpointError(f"{extra} trailing bytes after the last record")
    if zlib.crc32(memoryview(blob)[start:offset]) != struct.unpack_from("<I", blob, offset)[0]:
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


def _bundle_from_checkpoint(header: dict, tensors: dict[str, np.ndarray]) -> ModelBundle:
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
