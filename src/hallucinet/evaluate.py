"""Evaluation: boundary erosion, confusion accumulation, segmentation
metrics, exact tiled inference, and availability-aware scoring.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetManifest, SceneRecord, axis_origins, load_scene
from .losses import IGNORE_LABEL
from .model import BranchConfig, ModelBundle, predict, select_branches

EROSION_RADIUS = 3


def _disk_offsets(radius: int) -> list[tuple[int, int]]:
    r2 = radius * radius
    return [(du, dv)
            for du in range(-radius, radius + 1)
            for dv in range(-radius, radius + 1)
            if (du or dv) and du * du + dv * dv <= r2]


_OFFSETS = _disk_offsets(EROSION_RADIUS)


def boundary_eroded_mask(labels: np.ndarray) -> np.ndarray:
    """True where a pixel is excluded from evaluation.

    A pixel is excluded iff some differently-labeled pixel lies within
    Euclidean distance 3 of it (both sides of every class boundary), or
    it carries the ignore label itself.
    """
    h, w = labels.shape
    mask = labels == IGNORE_LABEL
    for du, dv in _OFFSETS:
        r0, r1 = max(0, -du), min(h, h - du)
        c0, c1 = max(0, -dv), min(w, w - dv)
        if r0 >= r1 or c0 >= c1:
            continue
        diff = labels[r0:r1, c0:c1] != labels[r0 + du:r1 + du, c0 + dv:c1 + dv]
        mask[r0:r1, c0:c1] |= diff
    return mask


@dataclass
class ConfusionMatrix:
    """Counts n_ij of true class i predicted as class j."""
    counts: np.ndarray

    @classmethod
    def zeros(cls, class_count: int) -> "ConfusionMatrix":
        return cls(np.zeros((class_count, class_count), dtype=np.int64))

    @property
    def class_count(self) -> int:
        return self.counts.shape[0]

    def total(self) -> int:
        return int(self.counts.sum())


def accumulate(conf: ConfusionMatrix, predictions: np.ndarray, labels: np.ndarray,
               mask: np.ndarray) -> ConfusionMatrix:
    """Add every non-masked pixel's (label, prediction) pair to the counts."""
    if predictions.shape != labels.shape or mask.shape != labels.shape:
        raise ValueError("predictions, labels and mask must share a shape")
    c = conf.class_count
    keep = ~mask
    pred = predictions[keep].astype(np.int64)
    true = labels[keep].astype(np.int64)
    if pred.size and (pred.min() < 0 or pred.max() >= c):
        raise ValueError("prediction class out of range")
    if true.size and (true.min() < 0 or true.max() >= c):
        raise ValueError("label class out of range (mask ignore pixels first)")
    conf.counts += np.bincount(true * c + pred, minlength=c * c).reshape(c, c)
    return conf


def metrics(conf: ConfusionMatrix, excluded_classes=()) -> dict:
    """Per-class precision, recall (accuracy), F1 and IoU, and the overall
    accuracy, mean class accuracy and average F1: report.json's scores.

    Classes absent from the ground truth, and classes flagged excluded
    (background/clutter), do not enter the averages. A ratio whose
    denominator is 0 is 0, so no score is NaN.
    """
    n = conf.counts.astype(np.float64)
    total = n.sum()
    if total <= 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(n)
    t_i = n.sum(axis=1)
    pred_i = n.sum(axis=0)

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0)

    precision = ratio(tp, pred_i)
    recall = ratio(tp, t_i)
    f1 = ratio(2.0 * precision * recall, precision + recall)
    iou = ratio(tp, t_i + pred_i - tp)
    included = [c for c in range(conf.class_count)
                if t_i[c] > 0 and c not in excluded_classes]
    if not included:
        raise ValueError("no classes left to average over")
    return {
        "per_class": {"precision": precision.tolist(), "recall": recall.tolist(),
                      "f1": f1.tolist(), "iou": iou.tolist()},
        "overall_accuracy": float(tp.sum() / total),
        "mean_class_accuracy": float(np.mean(recall[included])),
        "average_f1": float(np.mean(f1[included])),
    }


# Byte budget of one inference forward: a 1024x1024 scene through three
# default branches fits. A scene estimated to need more runs in windows
# no larger than the largest square that fits.
_FORWARD_BYTES = 160 << 20


def forward_bytes_per_pixel(config: BranchConfig, branches: int, itemsize: int) -> float:
    """Estimated peak bytes per input pixel of one forward fusing `branches` branches.

    The selected branches run side by side, one per branch worker
    (`model.predict_probs`), and the peak is the larger of two moments.
    In one, two branches are each at their widest conv unit while the
    other branches' logits wait. A unit's inference kernel
    (`engine.conv_bn_relu`) holds only its input and its output: no
    padded copy, no batchnorm buffer apart from the conv output and, on
    a block's last unit, no pre-pool activation. So the two units hold
    two inputs and two outputs at most, which is what the widest term
    counts; each further worker can add up to half of it. The other
    moment is the fused head, which holds every branch's logits, their
    mean and the softmax temporaries. The kernels' band buffers come on
    top: each branch in flight holds under `_BAND_BYTES` of im2col columns
    and one channel group's zero-edged rows (`engine.functional`), which
    do not grow with the window's height. So a forward over P pixels
    peaks below this estimate × P + `_BAND_BYTES` × the branches in
    flight; `plan_windows` budgets the first term alone.
    """
    widest = 0.0
    channels, area = 0, 1  # area: input pixels per pixel of the current level
    for b, (width, n_convs) in enumerate(config.blocks):
        for i in range(n_convs):
            if b == 0 and i == 0:
                area *= config.first_conv_stride ** 2
            widest = max(widest, 2 * (channels + width) / area)
            channels = width
        area *= 4
    c = config.class_count
    return itemsize * max(widest + (branches - 1) * c, (branches + 4) * c)


@dataclass(frozen=True)
class WindowPlan:
    """Forward windows over a scene edge-padded to the downsample factor.

    Per axis, each entry is (origin, start, stop): the window's first
    pixel and the pixels [start, stop) it contributes, those where it
    lies farthest from a window edge inside the scene.
    """
    extent: tuple[int, int]
    window: tuple[int, int]
    halo: int
    rows: tuple[tuple[int, int, int], ...]
    cols: tuple[tuple[int, int, int], ...]

    @property
    def count(self) -> int:
        return len(self.rows) * len(self.cols)


def _round_up(value: int, factor: int) -> int:
    return -(-value // factor) * factor


def _axis_windows(extent: int, side: int, halo: int, factor: int) -> tuple[int, tuple]:
    """Window length and (origin, start, stop) entries along one axis.

    An axis longer than `side` gets as many windows as windows of `side`
    overlapping by 2*halo would need, each the shortest multiple of
    `factor` that still covers the axis with that overlap. The last one
    is flush with the far border, and each pixel goes to the window whose
    centre is nearest (the earlier on a tie): there it lies at least
    `halo` px from any window edge inside the scene.
    """
    if extent <= side:
        return extent, ((0, 0, extent),)
    n = -(-(extent - side) // (side - 2 * halo)) + 1
    length = _round_up(-(-(extent + 2 * halo * (n - 1)) // n), factor)
    origins = axis_origins(extent, length, length - 2 * halo)
    bounds = [0] + [(a + b + length) // 2 for a, b in zip(origins, origins[1:])] + [extent]
    return length, tuple(zip(origins, bounds, bounds[1:]))


def plan_windows(bundle: ModelBundle, extent_hw: tuple[int, int]) -> WindowPlan:
    """Windows for tiled inference over a scene of `extent_hw` pixels.

    The scene is edge-padded to a multiple of the downsample factor f. If
    a forward of every branch of the bundle over it fits `_FORWARD_BYTES`
    (as `forward_bytes_per_pixel` estimates it, with the selected
    branches side by side), the plan is one window.
    Otherwise windows start on the f-grid and overlap by twice the halo,
    the receptive radius rounded up to f, so every pixel's output equals
    that of one forward over the padded scene. Per axis they are as few
    as windows of the largest square side that fits the budget would be,
    and no longer than they need to be to cover it.
    """
    config = bundle.config
    factor = config.downsample_factor
    halo = _round_up(config.receptive_radius, factor)
    hp, wp = (_round_up(e, factor) for e in extent_hw)
    per_px = forward_bytes_per_pixel(config, len(bundle.branches), np.dtype(np.float32).itemsize)
    if hp * wp * per_px <= _FORWARD_BYTES:
        return WindowPlan((hp, wp), (hp, wp), halo, ((0, 0, hp),), ((0, 0, wp),))
    side = int((_FORWARD_BYTES / per_px) ** 0.5) // factor * factor
    if side <= 2 * halo:
        raise ValueError(f"window side {side} that fits the forward budget must exceed "
                         f"twice the halo {halo} for a {hp}x{wp} scene")
    (wh, rows), (ww, cols) = (_axis_windows(e, side, halo, factor) for e in (hp, wp))
    return WindowPlan((hp, wp), (wh, ww), halo, rows, cols)


def tiled_inference(bundle: ModelBundle, rasters: dict[str, np.ndarray],
                    availability: dict[str, bool], predictor=None) -> np.ndarray:
    """(H, W) class map of a scene, equal at every pixel to one forward
    over the scene edge-padded to the downsample factor.

    The rasters must share their extent. A scene that fits the forward
    budget is one window, and its map is that of the one `predictor`
    call, cropped to the scene. A larger one runs in the windows of
    `plan_windows`, each pixel taken from the window where it lies
    farthest from an edge inside the scene and stitched into one map.
    """
    extents = {name: arr.shape[-2:] for name, arr in rasters.items()}
    if len(set(extents.values())) > 1:
        raise ValueError("scene rasters differ in extent: " + ", ".join(
            f"{name} {h}x{w}" for name, (h, w) in extents.items()))
    if predictor is None:
        def predictor(inputs, avail):
            return predict(bundle, inputs, avail)

    h, w = next(iter(extents.values()))
    plan = plan_windows(bundle, (h, w))
    hp, wp = plan.extent
    if (hp, wp) != (h, w):
        rasters = {name: np.pad(arr, ((0, 0), (0, hp - h), (0, wp - w)), mode="edge")
                   for name, arr in rasters.items()}
    if plan.count == 1:
        inputs = {name: arr[None] for name, arr in rasters.items()}
        return predictor(inputs, availability)[0, :h, :w]
    wh, ww = plan.window
    out = np.empty((hp, wp), dtype=np.int64)
    for r, r0, r1 in plan.rows:
        for c, c0, c1 in plan.cols:
            inputs = {name: arr[None, :, r:r + wh, c:c + ww] for name, arr in rasters.items()}
            pred = predictor(inputs, availability)[0]
            out[r0:r1, c0:c1] = pred[r0 - r:r1 - r, c0 - c:c1 - c]
    return out[:h, :w]


def _forced_availability(bundle: ModelBundle, scenario: str,
                         scene_flags: dict[str, bool]) -> dict[str, bool]:
    roles = bundle.optional_roles()
    if scenario == "all":
        return {r: True for r in roles}
    if scenario == "2":
        return bundle.availability_from_modalities(scene_flags)
    if scenario == "1":
        hallucinated = set(bundle.hallucinated_roles())
        return {r: r not in hallucinated for r in roles}
    raise ValueError(f"unknown scenario {scenario!r}")


def _score_scene(conf: ConfusionMatrix, bundle: ModelBundle, manifest: DatasetManifest,
                 rec: SceneRecord, scenario: str, predictor):
    """Add one scene's unmasked pixels to `conf`. Its rasters, labels,
    class map and mask are freed on return, before the next scene is read."""
    availability = _forced_availability(bundle, scenario, rec.availability)
    needed = {bundle.input_modality(r) for r in select_branches(bundle, availability)}
    rasters, labels = load_scene(manifest, rec.scene_id, sorted(needed))
    pred = tiled_inference(bundle, rasters, availability, predictor)
    accumulate(conf, pred, labels, boundary_eroded_mask(labels))


def evaluate(bundle: ModelBundle, manifest: DatasetManifest, split: str,
             scenario: str = "all", tile: int | None = None,
             halo: int | None = None, predictor=None) -> tuple[dict, ConfusionMatrix]:
    """Score a trained bundle over a split under one availability policy.

    Scenario "1" forces every hallucinated modality absent, "2" honors
    the per-scene manifest flags, "all" forces everything available. The
    same bundle serves every mode; no retraining happens here.
    `predictor` goes to `tiled_inference`. The report is `metrics`' dict
    led by `mode`, `scenario=<scenario> stage=<bundle.stage>`, and the
    manifest's `class_names`.
    """
    # tile and halo are ignored, accepted only because the benchmark's
    # eval workload passes them; benchmark v2 (ROADMAP item 7) drops them.
    records = manifest.splits.get(split, [])
    if not records:
        raise ValueError(f"split {split!r} is empty")
    conf = ConfusionMatrix.zeros(manifest.class_count)
    for rec in records:
        _score_scene(conf, bundle, manifest, rec, scenario, predictor)
    return {"mode": f"scenario={scenario} stage={bundle.stage}",
            "class_names": list(manifest.class_names),
            **metrics(conf, manifest.excluded_classes)}, conf


def report_table(report: dict) -> str:
    """Text table of a report in the paper's column layout (per-class
    F1/Acc, then Avg F1, Avg Acc, Acc)."""
    scores = report["per_class"]
    header = ["Class", *report["class_names"], "Avg F1", "Avg Acc", "Acc"]
    f1_row = ["F1"] + [f"{100 * v:.2f}" for v in scores["f1"]]
    acc_row = ["Acc"] + [f"{100 * v:.2f}" for v in scores["recall"]]
    f1_row += [f"{100 * report['average_f1']:.2f}", "", ""]
    acc_row += ["", f"{100 * report['mean_class_accuracy']:.2f}",
                f"{100 * report['overall_accuracy']:.2f}"]
    widths = [max(len(row[i]) for row in (header, f1_row, acc_row))
              for i in range(len(header))]
    lines = []
    for row in (header, f1_row, acc_row):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
