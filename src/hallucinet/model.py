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
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .config import build
from .data import MissingModalityError, atomic_write, read_record, tensor_record
from .engine import (
    BatchNormState,
    NonFiniteError,
    Parameter,
    Tensor,
    batchnorm,
    bilinear_kernel,
    conv2d,
    conv_bn_relu,
    frozen,
    maxpool2,
    mean_softmax,
    release,
    transposed_conv2d,
)
# unused here: perfbench/probes.py wraps model.fuse_logits under --trace 1
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


def _conv_init(rng: np.random.Generator | None, weight: np.ndarray) -> np.ndarray:
    """`weight`, of shape (out, in, k, k), drawn from `rng` in place, or
    left as it is (zeros that a checkpoint or a copy fills) when rng is
    None."""
    if rng is not None:
        _, in_ch, k, _ = weight.shape
        bound = 1.0 / np.sqrt(in_ch * k * k)
        weight[...] = rng.uniform(-bound, bound, size=weight.shape)
    return weight


def _branch_store(config: BranchConfig, input_channels: int):
    """A zeroed float32 store for a branch's `tensors()`, and iterators
    over its views of their shapes in that order: one over the
    parameters', then one over the batchnorms' running means and variances."""
    params, stats = [], []
    ch = input_channels
    for width, n_convs in config.blocks:
        for _ in range(n_convs):
            params += [(width, ch, 3, 3), (width,), (width,)]
            stats += [(width,), (width,)]
            ch = width
    k, up = config.class_count, 2 * config.downsample_factor
    params += [(k, ch, 1, 1), (k,), (k, k, up, up)]
    shapes = params + stats
    sizes = [math.prod(shape) for shape in shapes]
    store = np.zeros(sum(sizes), dtype=np.float32)
    views = [part.reshape(shape) for part, shape
             in zip(np.split(store, np.cumsum(sizes)[:-1]), shapes)]
    return store, iter(views[:len(params)]), iter(views[len(params):])


class _ConvBnRelu:
    def __init__(self, prefix: str, stride: int, rng: np.random.Generator | None,
                 conv_idx: int, params, stats, first: bool):
        """Weight, scale and shift are the next three views of `params`,
        the running statistics the next two of `stats` (`_branch_store`);
        `first` marks the branch's first unit, which reads its input."""
        self.stride = stride
        self.first = first
        cname = f"{prefix}/conv{conv_idx}"
        bname = f"{prefix}/bn{conv_idx}"
        self.weight = Parameter(_conv_init(rng, next(params)), f"{cname}/weight")
        self.scale = Parameter(next(params), f"{bname}/scale")
        self.scale.data[...] = 1
        self.shift = Parameter(next(params), f"{bname}/shift")
        self.state = BatchNormState(len(self.scale.data), arrays=(next(stats), next(stats)))
        self.bn_name = bname

    def forward(self, x: Tensor, mode: str, pool: bool) -> Tensor:
        """The unit's output, 2x2 max-pooled if `pool` (a block's last unit)."""
        if not any(t.requires_grad for t in (x, *self.parameters())):
            # no graph to build: the whole unit is one kernel
            return Tensor(conv_bn_relu(x.data, self.weight.data, self.scale.data,
                                       self.shift.data, self.state, mode, self.stride, 1, pool),
                          op="conv_bn_relu")
        # no conv bias: batchnorm subtracts the mean, so it would cancel; it
        # also refuses an unknown mode. The conv output is held until its
        # batchnorm's backward, but the first unit's: the branch's largest
        # activation, from its cheapest GEMM (the input's few channels), is
        # recomputed once in backward
        y = conv2d(x, self.weight, None, stride=self.stride, padding=1)
        release(x)  # a previous unit's output: its batchnorm can rebuild it
        out = batchnorm(y, self.scale, self.shift, self.state, mode)
        if self.first:
            release(y)
        if not pool:
            return out
        pooled = maxpool2(out)
        release(out)
        return pooled

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.scale, self.shift]


class BranchNet:
    """One fully convolutional float32 branch with tap and full-resolution
    logits. Its conv weights are drawn from `rng`, or are zeros when `rng`
    is None: arrays a checkpoint or `init_hallucination_from` fills.

    Every array of `tensors()` is a view of `store`, one float32 array
    that holds them in that order; nothing rebinds them, so training and
    loading write into the store."""

    def __init__(self, config: BranchConfig, input_channels: int, role: str,
                 rng: np.random.Generator | None):
        self.config = config
        self.input_channels = input_channels
        self.role = role
        self.store, params, stats = _branch_store(config, input_channels)
        self.blocks: list[list[_ConvBnRelu]] = []
        for b, (_, n_convs) in enumerate(config.blocks):
            units = []
            for i in range(n_convs):
                first = b == 0 and i == 0
                stride = config.first_conv_stride if first else 1
                units.append(_ConvBnRelu(f"{role}/block{b}", stride, rng, i, params, stats,
                                         first))
            self.blocks.append(units)
        self.score_weight = Parameter(_conv_init(rng, next(params)), f"{role}/score/weight")
        self.score_bias = Parameter(next(params), f"{role}/score/bias")
        self.upsample_weight = Parameter(next(params), f"{role}/upsample/weight")
        self.upsample_weight.data[...] = bilinear_kernel(config.class_count,
                                                         2 * config.downsample_factor)

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

    def tensors(self) -> dict[str, np.ndarray]:
        """The branch's own arrays by name, as a checkpoint stores them:
        every parameter in `parameters()` order, then each batchnorm's
        running mean and variance."""
        out = {p.name: p.data for p in self.parameters()}
        for unit in (u for units in self.blocks for u in units):
            out[f"{unit.bn_name}/running_mean"] = unit.state.running_mean
            out[f"{unit.bn_name}/running_var"] = unit.state.running_var
        return out


def build_branch(config: BranchConfig, input_channels: int, role: str, rng) -> BranchNet:
    """Construct a branch; `rng` is a seed int or a numpy Generator."""
    return BranchNet(config, input_channels, role, np.random.default_rng(rng))


def init_hallucination_from(target: BranchNet, input_channels: int,
                            rng) -> BranchNet:
    """Copy the target branch into a hallucination branch.

    The first conv weight leads each store (`_branch_store`), and past it
    the two stores hold the same tensors, batchnorm running statistics
    included: one slice copies them. The first conv weight is copied too,
    or drawn from `rng`, a seed int or a numpy Generator, when the consumed
    modality's channel count differs from the target's.
    """
    hal = BranchNet(target.config, input_channels, f"hal_{target.role}", None)
    first, target_first = hal.blocks[0][0].weight.data, target.blocks[0][0].weight.data
    hal.store[first.size:] = target.store[target_first.size:]
    if input_channels == target.input_channels:
        first[...] = target_first
    else:
        _conv_init(np.random.default_rng(rng), first)
    return hal


@dataclass
class ModelBundle:
    """Per-modality branches plus hallucination branches, keyed by role;
    `source` is the checkpoint file the bundle was loaded from, if any."""
    config: BranchConfig
    branches: dict[str, BranchNet]
    role_modalities: dict[str, str]
    stage: str = "init"
    source: str | os.PathLike | None = None

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
    unit's output, for an input of `shape` (N, C, H, W): from this size
    up, malloc maps blocks and unmaps them when freed
    (`parallel.branch_workers`). For a default training batch that is
    4 MiB, so the second block's activations and the logits are mapped
    too; the full 8 MiB left them in the heap and read 2-5% more peak RSS,
    and a quarter cost 8% in step time (train-single). The heap's trim
    threshold is derived from it (`parallel._malloc_policy`): 16 MiB
    for two workers at 4 MiB, so the conv band buffers just below it stay
    in the heap between units."""
    n, _, h, w = shape
    s = config.first_conv_stride
    return n * config.blocks[0][0] * (h // s) * (w // s) * 4 // 2  # float32


def predict_probs(bundle: ModelBundle, inputs: dict[str, np.ndarray],
                  availability: dict[str, bool]) -> np.ndarray:
    """Fused per-pixel class probabilities: the objective's `mean_softmax`.

    The forward runs with every parameter frozen, so it builds no graph.
    Two or more selected branches run as tasks of `parallel.branch_workers`;
    a lone branch runs on the calling thread with every BLAS thread. A
    NonFiniteError of a bundle loaded from a checkpoint names the file.
    """
    selected = select_branches(bundle, availability)
    tasks = []
    for role in selected:
        mod = bundle.input_modality(role)
        if mod not in inputs:
            raise MissingModalityError(f"branch {role} needs modality {mod!r}")
        tasks.append(functools.partial(bundle.branches[role].forward, inputs[mod], "infer"))
    try:
        with frozen(bundle.parameters()):
            if len(tasks) == 1:
                outputs = run_in_order(tasks)
            else:
                threshold = _mmap_threshold(bundle.config, np.shape(tasks[0].args[0]))
                with branch_workers(threshold) as run:
                    outputs = run(tasks)
        return mean_softmax([out.logits for out in outputs])
    except NonFiniteError as exc:
        if bundle.source is None:
            raise
        raise NonFiniteError(f"checkpoint {bundle.source}: {exc}") from exc


def _class_map(probs: np.ndarray) -> np.ndarray:
    """The (N,H,W) int64 argmax of (N,C,H,W) finite `probs` over the class
    axis, ties to the lowest class index: a running maximum over each
    image's class planes, where `probs.argmax(axis=1)` would reduce a
    contiguous copy of the whole map."""
    out = np.zeros((len(probs), *probs.shape[2:]), np.int64)
    best, above = np.empty(out.shape[1:], probs.dtype), np.empty(out.shape[1:], bool)
    for planes, classes in zip(probs, out):  # contiguous planes: no ufunc buffers
        np.copyto(best, planes[0])
        for c in range(1, len(planes)):
            np.greater(planes[c], best, out=above)
            np.putmask(classes, above, c)
            np.maximum(best, planes[c], out=best)
    return out


def predict(bundle: ModelBundle, inputs: dict[str, np.ndarray],
            availability: dict[str, bool]) -> np.ndarray:
    """Per-pixel class map; argmax ties go to the lowest class index."""
    return _class_map(predict_probs(bundle, inputs, availability))


def ensemble_predict(bundle_a: ModelBundle, bundle_b: ModelBundle,
                     inputs: dict[str, np.ndarray],
                     availability: dict[str, bool]) -> np.ndarray:
    """Average the two models' softmax probability maps, then argmax; the
    average is taken in place, in the first model's map, and the second
    map is dropped before the argmax."""
    pa = predict_probs(bundle_a, inputs, availability)
    pb = predict_probs(bundle_b, inputs, availability)
    if pa.shape != pb.shape:
        raise ValueError(f"ensemble shape mismatch: {pa.shape} vs {pb.shape}")
    pa += pb
    pa *= 0.5
    del pb
    return _class_map(pa)


# -- checkpoint io -----------------------------------------------------------

def save_checkpoint(bundle: ModelBundle, path, stage: str | None = None):
    """One file: JSON header (config, roles, stage) + named tensor records
    + the CRC32 of those records (4 bytes, little-endian)."""
    tensors: dict[str, np.ndarray] = {}
    branch_meta = []
    for role in sorted(bundle.branches):
        branch = bundle.branches[role]
        branch_meta.append({"role": role, "input_channels": branch.input_channels})
        tensors.update(branch.tensors())
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
            head, payload = tensor_record(tensors[name])
            crc = zlib.crc32(payload, zlib.crc32(head, crc))
            fh.write(head)
            fh.write(payload)
        fh.write(struct.pack("<I", crc))


def load_checkpoint(path) -> ModelBundle:
    """Rebuild a bundle, each tensor record read straight into its
    branch's store. Any defect of the file raises CheckpointError naming
    it: one of the structure first, then of the checksum, then of the
    content."""
    try:
        with open(path, "rb") as fh:
            bundle = _read_checkpoint(fh)
    except (ValueError, KeyError, TypeError, AttributeError, struct.error) as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc
    bundle.source = path
    return bundle


def _read_checkpoint(fh) -> ModelBundle:
    head = fh.read(8)
    if head[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (hlen,) = struct.unpack_from("<I", head, 4)
    header = json.loads(fh.read(hlen).decode("utf-8"))
    if header.get("format") != "hallucinet-checkpoint":
        raise CheckpointError("not a checkpoint file (bad header)")
    version = header.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported format version {json.dumps(version)}")
    names = header["tensors"]
    # a branch the header cannot build is reported after the checksum and
    # the branches before it, and so is a record that no branch array of
    # its shape and dtype takes: such a record is read into a scratch array
    branches, fault = [], None
    try:
        config = build(BranchConfig, header["config"], "config")
        for meta in header["branches"]:
            role = meta["role"]
            branches.append((role, BranchNet(config, int(meta["input_channels"]), role, None)))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        fault = exc
    arrays = {name: arr for _, branch in branches for name, arr in branch.tensors().items()}
    records: dict[str, tuple] = {}  # name: (shape, dtype) of each record read

    def into(name, shape, dtype):
        records[name] = shape, dtype
        arr = arrays.get(name)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            return np.empty(shape, dtype)
        return arr

    crc = 0
    for name in names:
        _, crc = read_record(fh, functools.partial(into, name), crc)
    extra = os.fstat(fh.fileno()).st_size - fh.tell() - 4
    if extra < 0:
        raise CheckpointError("truncated checksum")
    if extra > 0:
        raise CheckpointError(f"{extra} trailing bytes after the last record")
    if crc != struct.unpack("<I", fh.read(4))[0]:
        raise CheckpointError("tensor records do not match their checksum")
    for _, branch in branches:
        for name, arr in branch.tensors().items():
            if name not in records:
                raise ValueError(f"missing tensor {name}")
            shape, dtype = records.pop(name)
            if shape != arr.shape:
                raise ValueError(f"tensor {name} has shape {shape}, the branch {arr.shape}")
            if dtype != arr.dtype:
                raise ValueError(f"tensor {name} is {dtype}, the branch {arr.dtype}")
    if fault is not None:
        raise fault
    if records:
        raise CheckpointError(f"tensors no branch uses: {', '.join(sorted(records))}")
    # the checksum covers the tensor records only: each branch's modality must resolve
    role_modalities = dict(header["role_modalities"])
    missing = {"rgb" if r.startswith("hal_") else r for r, _ in branches} - set(role_modalities)
    if missing:
        raise CheckpointError(f"role_modalities names no modality of role "
                              f"{', '.join(sorted(missing))}")
    return ModelBundle(config=config, branches=dict(branches), role_modalities=role_modalities,
                       stage=header.get("stage", "init"))
