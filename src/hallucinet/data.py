"""Dataset plumbing: binary tensor files, manifests, patch extraction,
dihedral augmentation, class statistics, and deterministic batch sampling.

Dataset directory layout:
    manifest.json
    scenes/<id>/<modality>.mtns
    scenes/<id>/labels.mtns
"""
from __future__ import annotations

import json
import math
import mmap
import os
import struct
import sys
import zlib
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


def tensor_record(tensor: np.ndarray) -> tuple[bytes, np.ndarray]:
    """A tensor's record as its header and its payload, a C-contiguous
    little-endian array whose buffer is the payload's bytes; an array
    already in that form is not copied."""
    arr = np.ascontiguousarray(tensor)
    code = _CODE_FOR_DTYPE.get(arr.dtype)
    if code is None:
        raise TensorFileError(f"unsupported dtype {arr.dtype}; use float32 or uint8")
    if arr.ndim > 255:
        raise TensorFileError("rank too large")
    header = MAGIC + bytes([FORMAT_VERSION, code, arr.ndim])
    header += b"".join(struct.pack("<I", e) for e in arr.shape)
    return header, arr.astype(_DTYPE_CODES[code], copy=False)


def _read_header(fh) -> tuple[bytes, tuple[int, ...], np.dtype]:
    """Read and check the header of the tensor record at `fh`'s position:
    its bytes, the tensor's shape and its (little-endian) dtype."""
    head = fh.read(7)
    if head[:4] != MAGIC:
        raise TensorFileError("bad magic bytes")
    if len(head) < 7:
        raise TensorFileError("truncated header")
    version, code, rank = head[4], head[5], head[6]
    if version != FORMAT_VERSION:
        raise TensorFileError(f"unsupported format version {version}")
    dtype = _DTYPE_CODES.get(code)
    if dtype is None:
        raise TensorFileError(f"unsupported dtype code {code}")
    extents = fh.read(4 * rank)
    if len(extents) < 4 * rank:
        raise TensorFileError("truncated extents")
    return head + extents, struct.unpack(f"<{rank}I", extents), dtype


def read_record(fh, fill=np.empty, crc: int | None = None) -> tuple[np.ndarray, int | None]:
    """Read the tensor record at `fh`'s position: its header, then its
    payload straight into `fill(shape, dtype)`, a C-contiguous array of
    that shape and dtype (native byte order). Returns the array and, given
    `crc`, the CRC32 of the record's bytes continued from `crc`."""
    header, shape, dtype = _read_header(fh)
    nbytes = math.prod(shape) * dtype.itemsize
    if os.fstat(fh.fileno()).st_size - fh.tell() < nbytes:  # before `fill` allocates
        raise TensorFileError("truncated payload")
    arr = fill(shape, dtype.newbyteorder("="))
    if fh.readinto(arr) != nbytes:
        raise TensorFileError("truncated payload")
    if crc is not None:
        crc = zlib.crc32(arr, zlib.crc32(header, crc))
    if sys.byteorder == "big":  # the payload is little-endian
        arr.byteswap(inplace=True)
    return arr, crc


def read_rows(path, shape: tuple[int, ...], start: int, stop: int, first: int,
              last: int) -> np.ndarray:
    """Rows [start, stop) and columns [first, last) of the (..., H, W)
    tensor of `shape` in the tensor file at `path`: an array of shape
    (..., stop - start, last - first) in native byte order, copied out of
    a read-only map of the file, so only the pages that hold the window
    are read. The file is checked as `read_tensor_file` checks it, and
    must still hold a tensor of `shape`; either fault raises
    TensorFileError naming the file. Each call opens the file anew, so
    threads may read one file at once."""
    try:
        with open(path, "rb") as fh:
            _, got, dtype = _read_header(fh)
            if got != tuple(shape):
                raise TensorFileError(f"holds a tensor of shape {got}, not {tuple(shape)}")
            payload = fh.tell()
            excess = os.fstat(fh.fileno()).st_size - payload - math.prod(shape) * dtype.itemsize
            if excess:
                raise TensorFileError("truncated payload" if excess < 0
                                      else "trailing bytes after payload")
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                window = np.ndarray(shape, dtype, mm, payload)[..., start:stop, first:last]
                out = np.empty(window.shape, dtype.newbyteorder("="))
                np.copyto(out, window)  # touches only the window's pages
                del window  # the map closes only once no view holds it
    except TensorFileError as exc:
        raise TensorFileError(f"{path}: {exc}") from None
    return out


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


def write_json(path, doc):
    """Write `doc` atomically; NaN and the infinities, which are not JSON,
    raise ValueError."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def write_tensor_file(path, tensor: np.ndarray):
    header, payload = tensor_record(tensor)
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_tensor_file(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            arr, _ = read_record(fh)
            if fh.read(1):
                raise TensorFileError("trailing bytes after payload")
    except TensorFileError as exc:
        raise TensorFileError(f"{path}: {exc}") from None
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
    file and the field, and a raster missing for a modality its scene
    does not flag absent MissingModalityError naming the file."""
    path = Path(path)
    try:
        doc = typed(dict, json.loads(path.read_text()), "the document")
        splits = typed(dict[str, list[_SceneEntry]], doc.pop("splits", None), "splits")
        manifest = build(DatasetManifest, doc, "", root=path.parent, splits={
            split: [SceneRecord(e.id, e.availability) for e in entries]
            for split, entries in splits.items()})
        if not 2 <= manifest.class_count <= 255:
            raise ConfigError(f"class_count must be in 2..255 (labels are uint8, and "
                              f"{IGNORE_LABEL} is the ignore label), got {manifest.class_count}")
        if len(manifest.class_names) != manifest.class_count:
            raise ConfigError(f"class_names has length {len(manifest.class_names)}, "
                              f"class_count is {manifest.class_count}")
        if not manifest.modalities:
            raise ConfigError("modalities is empty; it must list at least the "
                              "always-available modality")
        names: set[str] = set()
        for i, mod in enumerate(manifest.modalities):
            if mod.channels < 1:
                raise ConfigError(f"modalities[{i}].channels must be at least 1, "
                                  f"got {mod.channels}")
            if mod.name in names:
                raise ConfigError(f"modalities[{i}].name {mod.name!r} repeats an earlier modality")
            names.add(mod.name)
        for i, c in enumerate(manifest.excluded_classes):
            if not 0 <= c < manifest.class_count:
                raise ConfigError(f"excluded_classes[{i}] is {c}, not a class id "
                                  f"in 0..{manifest.class_count - 1}")
        for split, recs in manifest.splits.items():
            for i, rec in enumerate(recs):
                if rec.scene_id in ("", ".", "..") or "/" in rec.scene_id or "\\" in rec.scene_id:
                    raise ConfigError(f"splits.{split}[{i}].id {rec.scene_id!r} is not one "
                                      "plain directory name")
                unknown = sorted(set(rec.availability) - names)
                if unknown:
                    raise ConfigError(f"splits.{split}[{i}].availability names "
                                      f"{', '.join(map(repr, unknown))}, not a modality "
                                      "of the manifest")
                if rec.availability.get(manifest.always_available) is False:
                    raise ConfigError(f"splits.{split}[{i}].availability flags "
                                      f"{manifest.always_available!r} false, the "
                                      "always-available modality")
    except (json.JSONDecodeError, ConfigError) as exc:
        raise ValueError(f"malformed manifest {path}: {exc}") from None
    seen: set[str] = set()
    for split, recs in manifest.splits.items():
        for rec in recs:
            if rec.scene_id in seen:
                raise ValueError(f"scene {rec.scene_id} appears in more than one split")
            seen.add(rec.scene_id)
            scene_dir = manifest.scene_dir(rec.scene_id)
            for mod in manifest.modalities:  # one flagged absent need have no raster
                raster = scene_dir / f"{mod.name}.mtns"
                if rec.availability.get(mod.name) is not False and not raster.exists():
                    raise MissingModalityError(f"missing raster {raster}")
            if not (scene_dir / "labels.mtns").exists():
                raise FileNotFoundError(f"missing labels for scene {rec.scene_id}")
    return manifest


def _check_labels(labels: np.ndarray, path, class_count: int, where: str):
    """Raise ValueError, its message begun with `where`, unless `labels`
    (read from `path`) are uint8 class ids below `class_count` or IGNORE_LABEL."""
    if labels.dtype != np.uint8:
        raise ValueError(f"{where}: labels {path} are {labels.dtype}, not uint8")
    stray = labels[(labels >= class_count) & (labels != IGNORE_LABEL)]
    if stray.size:
        raise ValueError(f"{where}: label {stray.min()} is neither a class id "
                         f"below {class_count} nor the ignore label {IGNORE_LABEL}")


def _check_finite(raster: np.ndarray, path):
    """Raise ValueError naming `path` if `raster` holds a NaN or an infinity."""
    if raster.size and not np.isfinite([raster.min(), raster.max()]).all():  # they carry a NaN
        raise ValueError(f"modality raster {path} holds "
                         f"{raster.size - np.count_nonzero(np.isfinite(raster))} non-finite values")


def read_labels(manifest: DatasetManifest, scene_id: str) -> np.ndarray:
    """The (H,W) uint8 labels of a scene; every value must be a class id
    below the manifest's class count or IGNORE_LABEL."""
    path = manifest.scene_dir(scene_id) / "labels.mtns"
    labels = read_tensor_file(path)
    if labels.dtype == np.uint8 and labels.ndim != 2:  # another dtype is refused below
        raise ValueError(f"scene {scene_id}: labels must be (H,W), not of shape {labels.shape}")
    _check_labels(labels, path, manifest.class_count, f"scene {scene_id}")
    return labels


def read_rasters(scene_dir, names) -> dict[str, np.ndarray]:
    """The (C,H,W) float raster of each modality in `names` in a scene directory; a missing
    file raises MissingModalityError, and one of another rank or with a NaN or an infinity
    ValueError, naming the file."""
    rasters = {}
    for name in names:
        path = Path(scene_dir) / f"{name}.mtns"
        try:
            arr = read_tensor_file(path)
        except FileNotFoundError:
            raise MissingModalityError(f"scene lacks required modality file {path}") from None
        if arr.ndim != 3:
            raise ValueError(f"modality raster {path} must be (C,H,W), got shape {arr.shape}")
        rasters[name] = arr = arr.astype(np.float32, copy=False)
        _check_finite(arr, path)
    return rasters


def load_scene(manifest: DatasetManifest, scene_id: str,
               modalities=None) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Load (C,H,W) float rasters per modality and the (H,W) uint8 labels.

    Every raster must have the labels' extent and its modality's channels.
    """
    names = modalities if modalities is not None else [m.name for m in manifest.modalities]
    labels = read_labels(manifest, scene_id)
    rasters = read_rasters(manifest.scene_dir(scene_id), names)
    for name, arr in rasters.items():
        if arr.shape[0] != manifest.modality_channels(name):
            raise ValueError(f"modality raster {manifest.scene_dir(scene_id) / name}.mtns has "
                             f"{arr.shape[0]} channels, the manifest gives "
                             f"{manifest.modality_channels(name)}")
        if arr.shape[1:] != labels.shape:
            raise ValueError(f"scene {scene_id}: raster {name} is {arr.shape[1]}x{arr.shape[2]}, "
                             f"labels are {labels.shape[0]}x{labels.shape[1]}")
    return rasters, labels


# -- patches and augmentation ------------------------------------------------

@dataclass(frozen=True)
class PatchSpec:
    size: int = 256
    overlap: float = 0.5
    flips: bool = True
    rotations: bool = True

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"train.patch.size must be at least 1, got {self.size}")
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
    """Patch origins on a stride grid, final origin clamped to cover borders;
    the image is at least one patch in each direction."""
    stride = max(1, int(round(spec.size * (1.0 - spec.overlap))))
    rows, cols = (axis_origins(e, spec.size, stride) for e in (height, width))
    return [(r, c) for r in rows for c in cols]


def augment(arrays, transform_id: int):
    """Views of each (...,H,W) array under one of the 8 dihedral transforms.

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
        out.append(a)
    return out


@dataclass(frozen=True)
class _SceneFiles:  # a train scene as the sampler keeps it: its files, no pixels
    scene_id: str
    rasters: dict[str, Path]
    labels: Path
    extent: tuple[int, int]


class PatchSampler:
    """Deterministic minibatch streams over a split, each named by its seed.

    Construction reads each scene once, runs `load_scene`'s checks on it,
    refuses the split as below and counts `frequencies`, the pixel
    frequency per class over the split, ignore pixels excluded; it then
    keeps only each scene's file paths and extent. A batch reads each of
    its patches from disk: the patch's window of each sampled raster and
    of the labels (`read_rows`), re-checked as the window is read. So the
    sampler holds no pixels, and training holds its batches in flight and
    one patch, whatever the split's size.

    The patch order and the augmentation draw are fully determined by
    (seed, epoch). A scene that flags one of the sampled modalities
    unavailable raises MissingModalityError; an empty split, a scene
    smaller than the patch, malformed labels or rasters, and a split of
    only ignored pixels raise ValueError. A file changed after
    construction raises, naming it, when a batch reads it: TensorFileError
    if its record is malformed or holds another shape, ValueError if the
    window holds a NaN or an infinity or a label that is no class id.
    """

    def __init__(self, manifest: DatasetManifest, split: str, spec: PatchSpec,
                 batch_size: int, modalities):
        self.spec = spec
        self.batch_size = batch_size
        self.modalities = list(modalities)
        self.class_count = manifest.class_count
        self.channels = {name: manifest.modality_channels(name) for name in self.modalities}
        self.scenes: list[_SceneFiles] = []
        self.index: list[tuple[int, int, int]] = []
        records = manifest.splits.get(split, [])
        if not records:
            raise ValueError(f"split {split!r} is empty")
        counts = np.zeros(manifest.class_count, dtype=np.int64)
        for rec in records:
            for name in self.modalities:
                if rec.availability.get(name) is False:
                    raise MissingModalityError(f"{split} scene {rec.scene_id} flags modality "
                                               f"{name!r} unavailable, and training reads it")
            labels = load_scene(manifest, rec.scene_id, self.modalities)[1]
            if spec.size > min(labels.shape):
                raise ValueError(f"train.patch.size {spec.size} is larger than {split} scene "
                                 f"{rec.scene_id} ({labels.shape[0]}x{labels.shape[1]})")
            counts += np.bincount(labels[labels != IGNORE_LABEL].astype(np.int64),
                                  minlength=manifest.class_count)
            scene_dir = manifest.scene_dir(rec.scene_id)
            for origin in extract_patch_grid(*labels.shape, spec):
                self.index.append((len(self.scenes), *origin))
            self.scenes.append(_SceneFiles(
                rec.scene_id, {name: scene_dir / f"{name}.mtns" for name in self.modalities},
                scene_dir / "labels.mtns", labels.shape))
        total = counts.sum()
        if total == 0:
            raise ValueError(f"split {split!r} contains only ignored pixels")
        self.frequencies = counts / total

    def batches(self, steps: int, seed: int):
        """Yield exactly `steps` batches of stream `seed`, each (dict modality
        -> (B,C,h,w) float32, labels (B,h,w) uint8), crossing epochs as
        needed: epoch e's patch order and augmentations are drawn from
        default_rng([seed, e])."""
        ids = self.spec.transform_ids()
        epoch_idx = 0
        while steps > 0:
            rng = np.random.default_rng([seed, epoch_idx])
            order = rng.permutation(len(self.index))
            tchoice = rng.integers(0, len(ids), size=len(self.index))
            starts = range(0, len(order), self.batch_size)[:steps]
            steps -= len(starts)
            epoch_idx += 1
            for start in starts:
                chunk = order[start:start + self.batch_size]
                yield self._batch([(*self.index[k], ids[tchoice[k]]) for k in chunk])

    def _batch(self, patches):
        """The batch of `patches`, each (scene index, row, col, transform id):
        every augmented patch is read and copied once, straight into its
        slot, so the generator holds nothing of a batch it has yielded."""
        size = self.spec.size
        out = [np.empty((len(patches), self.channels[name], size, size), np.float32)
               for name in self.modalities]
        out.append(np.empty((len(patches), size, size), np.uint8))
        for i, (scene_idx, r, c, transform_id) in enumerate(patches):
            for slot, view in zip(out, augment(self._window(self.scenes[scene_idx], r, c),
                                               transform_id)):
                slot[i] = view
        return dict(zip(self.modalities, out)), out[-1]

    def _window(self, scene: _SceneFiles, r: int, c: int) -> list[np.ndarray]:
        """The patch at (r, c) of `scene`, each sampled raster's then the
        labels': rows [r, r + size) and columns [c, c + size) read from
        disk and checked as `load_scene` checks a scene."""
        size = self.spec.size
        window = (r, r + size, c, c + size)
        views = []
        for name, path in scene.rasters.items():
            raster = read_rows(path, (self.channels[name], *scene.extent), *window)
            _check_finite(raster, path)
            views.append(raster)
        labels = read_rows(scene.labels, scene.extent, *window)
        _check_labels(labels, scene.labels, self.class_count,
                     f"scene {scene.scene_id}: {scene.labels}, window at ({r}, {c})")
        return [*views, labels]
