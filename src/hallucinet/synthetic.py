"""Synthetic multi-modal scene generator.

Scenes mix a textured background, two shape classes ("road" strips and
"building" rectangles) that share one pixel-value distribution in the
color modality but occupy disjoint value ranges in the height modality,
and a rare small-disc class. Buildings carry a checkerboard-signed noise
texture whose marginal distribution equals the road noise exactly, so
the pair is only separable in color through spatial structure. An
optional infrared modality separates the pair weakly and highlights the
rare class.

The renderers work one channel at a time, in place: each pixel takes its
class's value from a per-class lookup (`take`), and the class-dependent
noise, texture, background field and shadow are written with `where=`
masks into one float64 frame per channel. Blobs and rare discs are
tested and painted inside their bounding windows, with a running count
of the rare pixels painted. So a scene costs about its random draws and
its blur, and each pixel is rounded as the direct masked-assignment
form (`tests/reference_synthetic.py`) rounds it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .data import (
    DatasetManifest,
    ModalitySpec,
    SceneRecord,
    save_manifest,
    write_tensor_file,
)
from .parallel import branch_workers

BACKGROUND, ROAD, BUILDING, RARE, BRUSH = 0, 1, 2, 3, 4

_COLOR_BASE = {
    BACKGROUND: (0.45, 0.50, 0.42),
    RARE: (0.66, 0.44, 0.28),
    BRUSH: (0.40, 0.55, 0.35),
}
_PAIR_GRAY = 0.5
_HEIGHT_RANGE = {
    BACKGROUND: (0.02, 0.10),
    ROAD: (0.15, 0.30),
    BUILDING: (0.60, 0.90),
    RARE: (0.32, 0.50),
    BRUSH: (0.08, 0.40),
}
_IR_BASE = {BACKGROUND: 0.35, ROAD: 0.45, BUILDING: 0.58, RARE: 0.88, BRUSH: 0.70}
_COLOR_NOISE, _PAIR_NOISE, _IR_NOISE = 0.08, 0.08, 0.07
_SHADOW_LENGTH, _SHADOW_STRENGTH = 5, 0.3  # pixels, darkening factor
_ROAD_WIDTH = (0.055, 0.09)     # fraction of scene size
_BUILDING_SIDE = (0.09, 0.22)   # fraction of scene size
_RARE_RADIUS = (6.0, 9.0)       # pixels


@dataclass(frozen=True)
class SyntheticConfig:
    scene_count: int = 30
    size: int = 256
    class_count: int = 4
    rare_fraction: float = 0.015
    include_ir: bool = False
    train_scenes: int | None = None
    val_scenes: int | None = None
    texture_fraction: float = 1.0
    pair_crossover: float = 0.0
    availability: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        """Every refusal of a config, so one that builds always generates."""
        if self.class_count < 4:
            raise ValueError("need at least 4 classes (background, pair, rare)")
        if self.class_count > 255:
            raise ValueError(f"data.synthetic.class_count must be at most 255 (labels are "
                             f"uint8, and 255 is the ignore label), got {self.class_count}")
        if self.size < 64 or self.size % 32:
            raise ValueError("scene size must be >= 64 and divisible by 32")
        if self.scene_count < 3:
            raise ValueError("need at least 3 scenes for train/val/test")
        self.split_counts()
        # the discs paint at least one disc, and separated small discs cannot cover more than 0.15
        one_disc = np.pi * _RARE_RADIUS[0] ** 2 / self.size ** 2
        if self.rare_fraction != 0 and not one_disc <= self.rare_fraction <= 0.15:
            raise ValueError(f"rare_fraction must be 0 or in [{one_disc:.4g} (one disc of a "
                             f"{self.size}x{self.size} scene), 0.15], got {self.rare_fraction}")
        if not 0.0 <= self.texture_fraction <= 1.0:
            raise ValueError("texture_fraction must be in [0, 1]")
        if not 0.0 <= self.pair_crossover <= 0.5:
            raise ValueError("pair_crossover must be in [0, 0.5]")
        optional = [m.name for m in self.modalities[1:]]
        for mod, frac in self.availability.items():
            if mod not in optional:
                raise ValueError(f"availability names {mod!r}, not an optional modality "
                                 f"of this config ({', '.join(optional)})")
            if not isinstance(frac, (int, float)) or not 0.0 <= frac <= 1.0:
                raise ValueError(f"availability of {mod!r} must be a number in [0, 1], "
                                 f"got {frac!r}")

    @property
    def modalities(self) -> list[ModalitySpec]:
        """color, then the optional modalities: height, and ir if included."""
        return [ModalitySpec("color", 3), ModalitySpec("height", 1),
                *([ModalitySpec("ir", 1)] if self.include_ir else [])]

    def split_counts(self) -> tuple[int, int, int]:
        val = self.val_scenes if self.val_scenes is not None else max(1, self.scene_count // 10)
        if self.train_scenes is not None:
            train = self.train_scenes
        else:
            train = self.scene_count - val - max(2, self.scene_count // 5)
        test = self.scene_count - train - val
        if min(train, val, test) < 1:
            raise ValueError(f"invalid train_scenes/val_scenes split (train={train}, val={val}, "
                             f"test={test})")
        return train, val, test


def _window(center: float, reach: float, size: int) -> slice:
    """The rows (or columns) of the frame that a shape reaching `reach`
    pixels from `center` can cover, with a pixel to spare for rounding."""
    return slice(max(0, int(center - reach) - 1), min(size, int(center + reach) + 2))


def _paint_labels(cfg: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    s = cfg.size
    labels = np.zeros((s, s), dtype=np.uint8)

    # strips are usually roads and rectangles usually buildings; a
    # crossover fraction swaps a shape's class (and with it the height the
    # renderer assigns), so shape alone cannot fully disambiguate the pair
    rw_lo = max(6, int(_ROAD_WIDTH[0] * s))
    rw_hi = max(rw_lo + 2, int(_ROAD_WIDTH[1] * s))
    for _ in range(int(rng.integers(2, 4))):
        width = int(rng.integers(rw_lo, rw_hi))
        pos = int(rng.integers(0, s - width))
        klass = BUILDING if rng.random() < cfg.pair_crossover else ROAD
        if rng.integers(0, 2):
            labels[pos:pos + width, :] = klass
        else:
            labels[:, pos:pos + width] = klass

    lo = max(8, int(_BUILDING_SIDE[0] * s))
    hi = max(lo + 4, int(_BUILDING_SIDE[1] * s))
    for _ in range(int(rng.integers(5, 9))):
        h = int(rng.integers(lo, hi))
        w = int(rng.integers(lo, hi))
        r = int(rng.integers(0, s - h))
        c = int(rng.integers(0, s - w))
        labels[r:r + h, c:c + w] = BUILDING if rng.random() >= cfg.pair_crossover else ROAD

    # blobs and discs are tested and painted inside their bounding windows
    for klass in range(BRUSH, cfg.class_count):
        for _ in range(int(rng.integers(2, 4))):
            ay = rng.uniform(0.05 * s, 0.12 * s)
            ax = rng.uniform(0.05 * s, 0.12 * s)
            cy, cx = rng.uniform(0, s, size=2)
            window = (_window(cy, ay, s), _window(cx, ax, s))
            yy, xx = np.ogrid[window]
            labels[window][((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2 <= 1.0] = klass

    if cfg.rare_fraction > 0:
        target = cfg.rare_fraction * s * s
        min_area = np.pi * _RARE_RADIUS[0] ** 2
        painted = 0  # rare pixels so far: the shapes above paint none
        for _ in range(400):
            if painted >= target - min_area / 2:
                break
            radius = rng.uniform(*_RARE_RADIUS)
            cy = rng.uniform(radius, s - radius)
            cx = rng.uniform(radius, s - radius)
            window = (_window(cy, radius, s), _window(cx, radius, s))
            yy, xx = np.ogrid[window]
            disc = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2
            # keep discs apart so erosion leaves each a surviving core
            if not (labels[window][disc] == RARE).any():
                labels[window][disc] = RARE
                painted += int(disc.sum())
    return labels


def _class_values(cfg: SyntheticConfig, value) -> np.ndarray:
    """`value(klass)` of every class, stacked along the last axis, so that
    `.take(labels)` of a row gives each pixel its class's value."""
    return np.array([value(klass) for klass in range(cfg.class_count)]).T


def _base_color(klass: int) -> tuple[float, float, float]:
    if klass in (ROAD, BUILDING):
        return (_PAIR_GRAY,) * 3
    if klass > BRUSH:
        return tuple(v * (0.8 + 0.1 * klass) for v in _COLOR_BASE[BRUSH])
    return _COLOR_BASE[klass]


def _render_color(cfg: SyntheticConfig, labels: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    s = cfg.size
    field = gaussian_filter(rng.normal(size=(s, s)), sigma=s / 20.0)
    field /= max(field.std(), 1e-9)
    field *= 0.05

    # each pixel's noise, built in place of the color noise: the pair draws
    # the same-magnitude pair noise, and textured buildings take it
    # checker-signed (+|n| on even pixels, -|n| on odd ones), so the
    # marginal distribution matches roads exactly but the spatial pattern
    # does not
    color = rng.normal(scale=_COLOR_NOISE, size=(3, s, s))
    pair = (labels == ROAD) | (labels == BUILDING)
    for ch in range(3):
        np.copyto(color[ch], rng.normal(scale=_PAIR_NOISE, size=(s, s)), where=pair)
    textured = (labels == BUILDING) & (rng.random(size=(s, s)) < cfg.texture_fraction)
    flipped = textured & (np.add.outer(np.arange(s), np.arange(s)) % 2 == 1)
    for ch in range(3):
        np.abs(color[ch], out=color[ch], where=textured)
        np.negative(color[ch], out=color[ch], where=flipped)
    if cfg.class_count >= 5:
        brushy = labels >= BRUSH
        for ch in range(3):
            np.copyto(color[ch], rng.normal(scale=0.16, size=(s, s)), where=brushy)

    # high shapes darken the background to their south-east: a dense color
    # correlate of height; pair-class pixels themselves stay untouched, so
    # the road/building marginals remain exactly equal
    background = labels == BACKGROUND
    high = labels == BUILDING
    shadow = np.zeros_like(high)
    for d in range(1, _SHADOW_LENGTH + 1):
        shadow[d:, d:] |= high[:-d, :-d]
    shadow &= background

    base = _class_values(cfg, _base_color)
    for ch in range(3):
        np.add(color[ch], base[ch].take(labels), out=color[ch])
        np.add(color[ch], field, out=color[ch], where=background)
        np.multiply(color[ch], 1.0 - _SHADOW_STRENGTH, out=color[ch], where=shadow)
    return np.clip(color, 0.0, 1.0, out=color).astype(np.float32)


def _render_height(cfg: SyntheticConfig, labels: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    lo, hi = _class_values(cfg, lambda klass: _HEIGHT_RANGE[min(klass, BRUSH)])
    height = rng.random(size=labels.shape)  # the position in the class's range
    np.multiply(height, (hi - lo).take(labels), out=height)
    np.add(height, lo.take(labels), out=height)
    return height[None].astype(np.float32)


def _render_ir(cfg: SyntheticConfig, labels: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
    ir = rng.normal(scale=_IR_NOISE, size=(1, *labels.shape))
    base = _class_values(cfg, lambda klass: _IR_BASE[min(klass, BRUSH)])
    np.add(ir[0], base.take(labels), out=ir[0])
    return np.clip(ir, 0.0, 1.0, out=ir).astype(np.float32)


def generate_scene(cfg: SyntheticConfig, rng: np.random.Generator):
    labels = _paint_labels(cfg, rng)
    rasters = {"color": _render_color(cfg, labels, rng),
               "height": _render_height(cfg, labels, rng)}
    if cfg.include_ir:
        rasters["ir"] = _render_ir(cfg, labels, rng)
    return rasters, labels


def class_names(cfg: SyntheticConfig) -> list[str]:
    names = ["ground", "road", "building", "marker"]
    names += [f"brush{i}" if i else "brush" for i in range(cfg.class_count - 4)]
    return names[:cfg.class_count]


def _write_scene(seed: int, cfg: SyntheticConfig, out: Path, idx: int):
    """Generate scene `idx` from its own stream and write its files."""
    rasters, labels = generate_scene(cfg, np.random.default_rng([seed, 101, idx]))
    scene_dir = out / "scenes" / f"scene_{idx:03d}"
    scene_dir.mkdir(exist_ok=True)
    for name, arr in {**rasters, "labels": labels}.items():
        write_tensor_file(scene_dir / f"{name}.mtns", arr)


def generate_synthetic(seed: int, cfg: SyntheticConfig, out_dir) -> DatasetManifest:
    """Materialize the dataset under out_dir and return its manifest.

    Each scene is one task on the branch workers and writes only its own
    files, so the files do not depend on the thread count. The manifest
    is written once every task has ended, and not at all if one fails."""
    out = Path(out_dir)
    (out / "scenes").mkdir(parents=True, exist_ok=True)
    with branch_workers(8 * cfg.size ** 2) as run:  # one float64 frame
        run([partial(_write_scene, seed, cfg, out, idx) for idx in range(cfg.scene_count)])

    train_n, val_n, test_n = cfg.split_counts()
    splits: dict[str, list[SceneRecord]] = {"train": [], "val": [], "test": []}
    avail_rng = np.random.default_rng([seed, 7])
    optional = [m.name for m in cfg.modalities[1:]]
    test_available = {}  # per optional modality, the test scenes that carry it
    for mod in optional:
        k = round(cfg.availability.get(mod, 1.0) * test_n)
        test_available[mod] = set(avail_rng.permutation(test_n)[:k].tolist())
    for idx in range(cfg.scene_count):
        t = idx - train_n - val_n  # the index among the test scenes
        split = "train" if idx < train_n else "val" if t < 0 else "test"
        splits[split].append(SceneRecord(f"scene_{idx:03d}", {m: t < 0 or t in test_available[m]
                                                              for m in optional}))

    manifest = DatasetManifest(
        root=out,
        class_count=cfg.class_count,
        class_names=class_names(cfg),
        modalities=cfg.modalities,
        splits=splits,
    )
    save_manifest(manifest)
    return manifest
