"""Reference scene renderers for the synthetic generator's tests.

These are the generator's earlier renderers: every class is written
through a full-frame boolean mask, every channel of a masked region at
once, and each rare disc is tested against a mask of the whole frame,
with the painted pixels recounted before each disc. They are slow but
follow the scene's description directly, so the per-channel renderers of
`hallucinet.synthetic` are checked byte for byte against them.
"""
import numpy as np
from scipy.ndimage import gaussian_filter

from hallucinet.synthetic import (
    _BUILDING_SIDE,
    _COLOR_BASE,
    _COLOR_NOISE,
    _HEIGHT_RANGE,
    _IR_BASE,
    _IR_NOISE,
    _PAIR_GRAY,
    _PAIR_NOISE,
    _RARE_RADIUS,
    _ROAD_WIDTH,
    _SHADOW_LENGTH,
    _SHADOW_STRENGTH,
    BACKGROUND,
    BRUSH,
    BUILDING,
    RARE,
    ROAD,
)


def _disc_mask(size, cy, cx, radius):
    yy, xx = np.ogrid[:size, :size]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2


def paint_labels(cfg, rng):
    s = cfg.size
    labels = np.zeros((s, s), dtype=np.uint8)

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

    for klass in range(BRUSH, cfg.class_count):
        for _ in range(int(rng.integers(2, 4))):
            ay = rng.uniform(0.05 * s, 0.12 * s)
            ax = rng.uniform(0.05 * s, 0.12 * s)
            cy, cx = rng.uniform(0, s, size=2)
            yy, xx = np.ogrid[:s, :s]
            blob = ((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2 <= 1.0
            labels[blob] = klass

    if cfg.rare_fraction > 0:
        target = cfg.rare_fraction * s * s
        min_area = np.pi * _RARE_RADIUS[0] ** 2
        attempts = 0
        while attempts < 400:
            painted = int((labels == RARE).sum())
            if painted >= target - min_area / 2:
                break
            radius = rng.uniform(*_RARE_RADIUS)
            cy = rng.uniform(radius, s - radius)
            cx = rng.uniform(radius, s - radius)
            disc = _disc_mask(s, cy, cx, radius)
            if (labels[disc] == RARE).any():
                attempts += 1
                continue
            labels[disc] = RARE
            attempts += 1
    return labels


def render_color(cfg, labels, rng):
    s = cfg.size
    color = np.empty((3, s, s), dtype=np.float64)
    field = gaussian_filter(rng.normal(size=(s, s)), sigma=s / 20.0)
    field = field / max(field.std(), 1e-9) * 0.05

    for klass, base in _COLOR_BASE.items():
        if klass >= cfg.class_count:
            continue
        mask = labels == klass
        for ch in range(3):
            color[ch][mask] = base[ch]
    for klass in range(BRUSH + 1, cfg.class_count):
        mask = labels == klass
        base = _COLOR_BASE[BRUSH]
        for ch in range(3):
            color[ch][mask] = base[ch] * (0.8 + 0.1 * klass)

    pair = (labels == ROAD) | (labels == BUILDING)
    color[:, pair] = _PAIR_GRAY

    noise = rng.normal(scale=_COLOR_NOISE, size=(3, s, s))
    pair_noise = rng.normal(scale=_PAIR_NOISE, size=(3, s, s))
    yy, xx = np.indices((s, s))
    checker = np.where((yy + xx) % 2 == 0, 1.0, -1.0)
    textured = (labels == BUILDING) & (rng.random(size=(s, s)) < cfg.texture_fraction)
    building_noise = np.where(textured, np.abs(pair_noise) * checker, pair_noise)
    noise[:, labels == ROAD] = pair_noise[:, labels == ROAD]
    noise[:, labels == BUILDING] = building_noise[:, labels == BUILDING]
    if cfg.class_count >= 5:
        brush_noise = rng.normal(scale=0.16, size=(3, s, s))
        brushy = labels >= BRUSH
        noise[:, brushy] = brush_noise[:, brushy]

    color += noise
    color[:, labels == BACKGROUND] += field[labels == BACKGROUND]

    high = labels == BUILDING
    shadow = np.zeros_like(high)
    for d in range(1, _SHADOW_LENGTH + 1):
        shadow[d:, d:] |= high[:-d, :-d]
    shadow &= labels == BACKGROUND
    color[:, shadow] *= 1.0 - _SHADOW_STRENGTH
    return np.clip(color, 0.0, 1.0).astype(np.float32)


def render_height(cfg, labels, rng):
    s = cfg.size
    height = np.zeros((1, s, s), dtype=np.float64)
    u = rng.random(size=(s, s))
    for klass in range(cfg.class_count):
        lo, hi = _HEIGHT_RANGE.get(min(klass, BRUSH), _HEIGHT_RANGE[BRUSH])
        mask = labels == klass
        height[0][mask] = lo + (hi - lo) * u[mask]
    return height.astype(np.float32)


def render_ir(cfg, labels, rng):
    s = cfg.size
    ir = np.zeros((1, s, s), dtype=np.float64)
    for klass in range(cfg.class_count):
        ir[0][labels == klass] = _IR_BASE.get(min(klass, BRUSH), _IR_BASE[BRUSH])
    ir += rng.normal(scale=_IR_NOISE, size=(1, s, s))
    return np.clip(ir, 0.0, 1.0).astype(np.float32)


def generate_scene(cfg, rng):
    labels = paint_labels(cfg, rng)
    rasters = {"color": render_color(cfg, labels, rng),
               "height": render_height(cfg, labels, rng)}
    if cfg.include_ir:
        rasters["ir"] = render_ir(cfg, labels, rng)
    return rasters, labels
