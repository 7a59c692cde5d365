"""Dataset plumbing: binary tensor files, manifests, patch extraction,
dihedral augmentation, class statistics, and deterministic batch sampling.

Dataset directory layout:
    manifest.json
    scenes/<id>/<modality>.mtns
    scenes/<id>/labels.mtns
"""
from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, build, typed
from .losses import IGNORE_LABEL

MAGIC = b"MTNS"
FORMAT_VERSION = 1
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("u1")}
_CODE_FOR_DTYPE = {np.dtype("float32"): 1, np.dtype("uint8"): 2}


class TensorFileError(ValueError):
    """Malformed or unsupported tensor file."""


class MissingModalityError(RuntimeError):
    """A scene lacks a modality that a branch or training stage reads."""


def tensor_to_bytes(tensor: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(tensor)
    code = _CODE_FOR_DTYPE.get(arr.dtype)
    if code is None:
        raise TensorFileError(f"unsupported dtype {arr.dtype}; use float32 or uint8")
    if arr.ndim > 255:
        raise TensorFileError("rank too large")
    header = MAGIC + bytes([FORMAT_VERSION, code, arr.ndim])
    header += b"".join(struct.pack("<I", e) for e in arr.shape)
    if code == 1:
        payload = arr.astype("<f4").tobytes()
    else:
        payload = arr.tobytes()
    return header + payload


def tensor_from_bytes(blob: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one tensor record; returns (array, offset past the record)."""
    if blob[offset:offset + 4] != MAGIC:
        raise TensorFileError("bad magic bytes")
    if len(blob) < offset + 7:
        raise TensorFileError("truncated header")
    version, code, rank = blob[offset + 4], blob[offset + 5], blob[offset + 6]
    if version != FORMAT_VERSION:
        raise TensorFileError(f"unsupported format version {version}")
    dtype = _DTYPE_CODES.get(code)
    if dtype is None:
        raise TensorFileError(f"unsupported dtype code {code}")
    pos = offset + 7
    if len(blob) < pos + 4 * rank:
        raise TensorFileError("truncated extents")
    shape = tuple(struct.unpack_from("<I", blob, pos + 4 * i)[0] for i in range(rank))
    pos += 4 * rank
    count = 1
    for e in shape:
        count *= e
    nbytes = count * dtype.itemsize
    if len(blob) < pos + nbytes:
        raise TensorFileError("truncated payload")
    arr = np.frombuffer(blob, dtype=dtype, count=count, offset=pos).reshape(shape)
    # the one copy: writable, apart from `blob`, in native byte order
    return arr.astype(dtype.type), pos + nbytes


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a temporary file in the directory of `path` that replaces
    `path` in one step when the block ends cleanly, so a reader never
    sees a partial file and a failed write leaves the old one intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, doc, allow_nan: bool = False):
    """Write `doc` atomically; NaN and the infinities, which are not JSON,
    raise ValueError unless `allow_nan` is set."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, indent=2, allow_nan=allow_nan) + "\n")


def write_tensor_file(path, tensor: np.ndarray):
    with atomic_write(path, "wb") as fh:
        fh.write(tensor_to_bytes(tensor))


def read_tensor_file(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    arr, end = tensor_from_bytes(blob)
    if end != len(blob):
        raise TensorFileError("trailing bytes after payload")
    return arr


# -- manifest --------------------------------------------------------------

@dataclass(frozen=True)
class ModalitySpec:
    name: str
    channels: int


@dataclass
class SceneRecord:
    scene_id: str
    availability: dict[str, bool]


@dataclass
class DatasetManifest:
    root: Path
    class_count: int
    class_names: list[str]
    modalities: list[ModalitySpec]
    splits: dict[str, list[SceneRecord]]
    excluded_classes: list[int] = field(default_factory=list)

    @property
    def always_available(self) -> str:
        return self.modalities[0].name

    def modality_channels(self, name: str) -> int:
        for m in self.modalities:
            if m.name == name:
                return m.channels
        raise KeyError(f"unknown modality {name!r}")

    def scene_dir(self, scene_id: str) -> Path:
        return self.root / "scenes" / scene_id

    def to_json(self) -> dict:
        return {
            "class_count": self.class_count,
            "class_names": self.class_names,
            "modalities": [{"name": m.name, "channels": m.channels} for m in self.modalities],
            "excluded_classes": self.excluded_classes,
            "splits": {
                split: [{"id": rec.scene_id, "availability": rec.availability}
                        for rec in recs]
                for split, recs in self.splits.items()
            },
        }


def save_manifest(manifest: DatasetManifest):
    write_json(manifest.root / "manifest.json", manifest.to_json())


@dataclass
class _SceneEntry:  # a scene as manifest.json lists it
    id: str
    availability: dict[str, bool]


def load_manifest(path) -> DatasetManifest:
    """Read a manifest; a malformed document raises ValueError naming the
    file and the field."""
    path = Path(path)
    try:
        doc = typed(dict, json.loads(path.read_text()), "the document")
        splits = typed(dict[str, list[_SceneEntry]], doc.pop("splits", None), "splits")
        manifest = build(DatasetManifest, doc, "", root=path.parent, splits={
            split: [SceneRecord(e.id, e.availability) for e in entries]
            for split, entries in splits.items()})
    except (json.JSONDecodeError, ConfigError) as exc:
        raise ValueError(f"malformed manifest {path}: {exc}") from None
    seen: set[str] = set()
    for split, recs in manifest.splits.items():
        for rec in recs:
            if rec.scene_id in seen:
                raise ValueError(f"scene {rec.scene_id} appears in more than one split")
            seen.add(rec.scene_id)
            scene_dir = manifest.scene_dir(rec.scene_id)
            for mod in manifest.modalities:
                if rec.availability.get(mod.name) is False:
                    continue  # flagged absent: its raster need not exist
                if not (scene_dir / f"{mod.name}.mtns").exists():
                    raise FileNotFoundError(f"missing raster {scene_dir / (mod.name + '.mtns')}")
            if not (scene_dir / "labels.mtns").exists():
                raise FileNotFoundError(f"missing labels for scene {rec.scene_id}")
    return manifest


def read_labels(manifest: DatasetManifest, scene_id: str) -> np.ndarray:
    """The (H,W) labels of a scene; every value must be a class id below
    the manifest's class count or IGNORE_LABEL."""
    labels = read_tensor_file(manifest.scene_dir(scene_id) / "labels.mtns")
    if labels.ndim != 2:
        raise ValueError(f"scene {scene_id}: labels must be (H,W)")
    stray = labels[(labels >= manifest.class_count) & (labels != IGNORE_LABEL)]
    if stray.size:
        raise ValueError(f"scene {scene_id}: label {stray.min()} is neither a class id "
                         f"below {manifest.class_count} nor the ignore label {IGNORE_LABEL}")
    return labels


def load_scene(manifest: DatasetManifest, scene_id: str,
               modalities=None) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Load (C,H,W) float rasters per modality and the (H,W) uint8 labels.

    Every raster must have the labels' extent.
    """
    names = modalities if modalities is not None else [m.name for m in manifest.modalities]
    scene_dir = manifest.scene_dir(scene_id)
    labels = read_labels(manifest, scene_id)
    rasters = {}
    for name in names:
        arr = read_tensor_file(scene_dir / f"{name}.mtns")
        if arr.ndim != 3:
            raise ValueError(f"modality raster {name} must be (C,H,W)")
        if arr.shape[1:] != labels.shape:
            raise ValueError(f"scene {scene_id}: raster {name} is {arr.shape[1]}x{arr.shape[2]}, "
                             f"labels are {labels.shape[0]}x{labels.shape[1]}")
        rasters[name] = arr.astype(np.float32, copy=False)
    return rasters, labels


# -- patches and augmentation ------------------------------------------------

@dataclass(frozen=True)
class PatchSpec:
    size: int = 256
    overlap: float = 0.5
    flips: bool = True
    rotations: bool = True

    def __post_init__(self):
        if not 0 <= self.overlap < 1:
            raise ValueError("overlap must be in [0, 1)")

    def transform_ids(self) -> list[int]:
        rots = range(4) if self.rotations else (0,)
        ids = list(rots)
        if self.flips:
            ids += [r + 4 for r in rots]
        return ids


def axis_origins(extent: int, length: int, step: int) -> list[int]:
    """Origins of windows of `length` along an axis of `extent`: one every
    `step`, and the last one flush with the far border."""
    return list(range(0, extent - length, step)) + [extent - length]


def extract_patch_grid(height: int, width: int, spec: PatchSpec) -> list[tuple[int, int]]:
    """Patch origins on a stride grid, final origin clamped to cover borders."""
    if height < spec.size or width < spec.size:
        raise ValueError(f"image {height}x{width} smaller than patch {spec.size}")
    stride = max(1, int(round(spec.size * (1.0 - spec.overlap))))
    rows, cols = (axis_origins(e, spec.size, stride) for e in (height, width))
    return [(r, c) for r in rows for c in cols]


def augment(arrays, transform_id: int):
    """Apply one of the 8 dihedral transforms to each (...,H,W) array.

    ids 0-3: clockwise rotations by 0/90/180/270 degrees; ids 4-7: the
    same rotations after a horizontal flip. A 90-degree rotation maps
    pixel (r, c) to (c, H-1-r).
    """
    if not 0 <= transform_id <= 7:
        raise ValueError("transform id must be in 0..7")
    rot = transform_id % 4
    out = []
    for arr in arrays:
        if rot and arr.shape[-1] != arr.shape[-2]:
            raise ValueError("rotations need square patches")
        a = arr
        if transform_id >= 4:
            a = np.flip(a, axis=-1)
        if rot:
            a = np.rot90(a, k=-rot, axes=(-2, -1))
        out.append(np.ascontiguousarray(a))
    return out


def class_frequencies(manifest: DatasetManifest, split: str) -> np.ndarray:
    """Pixel frequency per class over a split, ignore pixels excluded."""
    records = manifest.splits.get(split, [])
    if not records:
        raise ValueError(f"split {split!r} is empty")
    counts = np.zeros(manifest.class_count, dtype=np.int64)
    for rec in records:
        labels = read_labels(manifest, rec.scene_id)
        counts += np.bincount(labels[labels != IGNORE_LABEL].astype(np.int64),
                              minlength=manifest.class_count)
    total = counts.sum()
    if total == 0:
        raise ValueError("split contains only ignored pixels")
    return counts / total


class PatchSampler:
    """Deterministic minibatch stream over a split.

    Scenes are held in memory (desk scale). The patch order and the
    augmentation draw are fully determined by (seed, epoch). A scene
    that flags one of the sampled modalities unavailable raises
    MissingModalityError.
    """

    def __init__(self, manifest: DatasetManifest, split: str, spec: PatchSpec,
                 batch_size: int, seed: int, modalities=None):
        self.spec = spec
        self.batch_size = batch_size
        self.seed = seed
        self.modalities = list(modalities) if modalities is not None \
            else [m.name for m in manifest.modalities]
        self.scenes = []
        self.index: list[tuple[int, int, int]] = []
        records = manifest.splits.get(split, [])
        if not records:
            raise ValueError(f"split {split!r} is empty")
        for rec in records:
            for name in self.modalities:
                if rec.availability.get(name) is False:
                    raise MissingModalityError(f"{split} scene {rec.scene_id} flags modality "
                                               f"{name!r} unavailable, and training reads it")
            rasters, labels = load_scene(manifest, rec.scene_id, self.modalities)
            scene_idx = len(self.scenes)
            self.scenes.append((rasters, labels))
            for origin in extract_patch_grid(*labels.shape, spec):
                self.index.append((scene_idx, *origin))

    @property
    def patches_per_epoch(self) -> int:
        return len(self.index)

    def epoch(self, epoch_idx: int):
        """Yield batches: (dict modality -> (B,C,h,w), labels (B,h,w))."""
        rng = np.random.default_rng([self.seed, epoch_idx])
        order = rng.permutation(len(self.index))
        ids = self.spec.transform_ids()
        tchoice = rng.integers(0, len(ids), size=len(self.index))
        for start in range(0, len(order), self.batch_size):
            chunk = order[start:start + self.batch_size]
            mods = {name: [] for name in self.modalities}
            labs = []
            for k in chunk:
                scene_idx, r, c = self.index[k]
                rasters, labels = self.scenes[scene_idx]
                sl = (slice(r, r + self.spec.size), slice(c, c + self.spec.size))
                stack = [rasters[name][:, sl[0], sl[1]] for name in self.modalities]
                stack.append(labels[sl])
                stack = augment(stack, ids[tchoice[k]])
                for name, arr in zip(self.modalities, stack[:-1]):
                    mods[name].append(arr)
                labs.append(stack[-1])
            batch = {name: np.stack(arrs) for name, arrs in mods.items()}
            yield batch, np.stack(labs).astype(np.int64)

    def batches(self, steps: int):
        """Yield exactly `steps` batches, crossing epochs as needed."""
        produced = 0
        epoch_idx = 0
        while produced < steps:
            for batch in self.epoch(epoch_idx):
                yield batch
                produced += 1
                if produced >= steps:
                    return
            epoch_idx += 1
