"""Evaluation: boundary erosion, confusion accumulation, segmentation
metrics, halo-stitched tiled inference, and availability-aware scoring.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import DatasetManifest, load_scene
from .losses import IGNORE_LABEL
from .model import MissingModalityError, ModelBundle, predict

EROSION_RADIUS = 3


def _disk_offsets(radius: int) -> list[tuple[int, int]]:
    r2 = radius * radius
    return [(du, dv)
            for du in range(-radius, radius + 1)
            for dv in range(-radius, radius + 1)
            if (du or dv) and du * du + dv * dv <= r2]


_OFFSETS = _disk_offsets(EROSION_RADIUS)


def boundary_eroded_mask(labels: np.ndarray, ignore_label: int = IGNORE_LABEL) -> np.ndarray:
    """True where a pixel is excluded from evaluation.

    A pixel is excluded iff some differently-labeled pixel lies within
    Euclidean distance 3 of it (both sides of every class boundary), or
    it carries the ignore label itself.
    """
    h, w = labels.shape
    mask = labels == ignore_label
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

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.counts + other.counts)

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


@dataclass
class EvalReport:
    """Per-class and aggregate segmentation scores."""
    precision: list[float]
    recall: list[float]
    f1: list[float]
    iou: list[float]
    overall_accuracy: float
    mean_class_accuracy: float
    average_f1: float
    mode: str = ""
    class_names: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "class_names": self.class_names,
            "per_class": {"precision": self.precision, "recall": self.recall,
                          "f1": self.f1, "iou": self.iou},
            "overall_accuracy": self.overall_accuracy,
            "mean_class_accuracy": self.mean_class_accuracy,
            "average_f1": self.average_f1,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "EvalReport":
        per = doc["per_class"]
        return cls(precision=per["precision"], recall=per["recall"], f1=per["f1"],
                   iou=per["iou"], overall_accuracy=doc["overall_accuracy"],
                   mean_class_accuracy=doc["mean_class_accuracy"],
                   average_f1=doc["average_f1"], mode=doc.get("mode", ""),
                   class_names=doc.get("class_names", []))


def metrics(conf: ConfusionMatrix, excluded_classes=(), mode: str = "",
            class_names=None) -> EvalReport:
    """F1, accuracy (recall), IoU per class; overall and mean aggregates.

    Classes absent from the ground truth, and classes flagged excluded
    (background/clutter), do not enter the averages.
    """
    n = conf.counts.astype(np.float64)
    total = n.sum()
    if total <= 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(n)
    t_i = n.sum(axis=1)
    pred_i = n.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(pred_i > 0, tp / pred_i, 0.0)
        recall = np.where(t_i > 0, tp / t_i, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
        union = t_i + pred_i - tp
        iou = np.where(union > 0, tp / np.where(union > 0, union, 1.0), 0.0)
    overall = float(tp.sum() / total)
    included = [c for c in range(conf.class_count)
                if t_i[c] > 0 and c not in excluded_classes]
    if not included:
        raise ValueError("no classes left to average over")
    return EvalReport(
        precision=[float(x) for x in precision],
        recall=[float(x) for x in recall],
        f1=[float(x) for x in f1],
        iou=[float(x) for x in iou],
        overall_accuracy=overall,
        mean_class_accuracy=float(np.mean(recall[included])),
        average_f1=float(np.mean(f1[included])),
        mode=mode,
        class_names=list(class_names) if class_names else [],
    )


def _edge_distance(tile: int) -> np.ndarray:
    idx = np.arange(tile)
    d = np.minimum(idx, tile - 1 - idx)
    return np.minimum.outer(d, d)


def _tile_origins(extent: int, tile: int, step: int) -> list[int]:
    limit = extent - tile
    origins = list(range(0, limit + 1, step))
    if origins[-1] != limit:
        origins.append(limit)
    return origins


def tiled_inference(bundle: ModelBundle, rasters: dict[str, np.ndarray],
                    availability: dict[str, bool], tile: int = 256,
                    halo: int = 64, predictor=None) -> np.ndarray:
    """Class map for a full scene from overlapping tiles.

    Each output pixel comes from the tile in which it lies farthest from
    a tile edge; with a halo at least the receptive-field radius this
    makes interior predictions independent of the tiling.
    """
    factor = bundle.config.downsample_factor
    if tile % factor:
        raise ValueError(f"tile size {tile} must be divisible by the model's "
                         f"downsample factor {factor}")
    if not 0 <= halo < tile // 2:
        raise ValueError("halo must be smaller than half the tile")
    if predictor is None:
        def predictor(inputs, avail):
            return predict(bundle, inputs, avail)

    some = next(iter(rasters.values()))
    h, w = some.shape[-2:]
    pad_h, pad_w = max(0, tile - h), max(0, tile - w)
    if pad_h or pad_w:
        rasters = {name: np.pad(arr, ((0, 0), (0, pad_h), (0, pad_w)), mode="edge")
                   for name, arr in rasters.items()}
    hp, wp = h + pad_h, w + pad_w

    out = np.zeros((hp, wp), dtype=np.int64)
    best = np.full((hp, wp), -1, dtype=np.int64)
    edge_d = _edge_distance(tile)
    step = tile - 2 * halo if halo else tile
    for r in _tile_origins(hp, tile, step):
        for c in _tile_origins(wp, tile, step):
            inputs = {name: arr[None, :, r:r + tile, c:c + tile]
                      for name, arr in rasters.items()}
            pred = predictor(inputs, availability)[0]
            window_best = best[r:r + tile, c:c + tile]
            take = edge_d > window_best
            out[r:r + tile, c:c + tile][take] = pred[take]
            window_best[take] = edge_d[take]
    return out[:h, :w]


def _forced_availability(bundle: ModelBundle, scenario: str,
                         scene_flags: dict[str, bool]) -> dict[str, bool]:
    roles = bundle.optional_roles()
    if scenario == "all":
        return {r: True for r in roles}
    if scenario == "2":
        return bundle.availability_from_modalities(scene_flags)
    if scenario in ("1", "3"):
        hallucinated = set(bundle.hallucinated_roles())
        return {r: r not in hallucinated for r in roles}
    raise ValueError(f"unknown scenario {scenario!r}")


def evaluate(bundle: ModelBundle, manifest: DatasetManifest, split: str,
             scenario: str = "all", tile: int = 256, halo: int = 64,
             predictor=None) -> tuple[EvalReport, ConfusionMatrix]:
    """Score a trained bundle over a split under one availability policy.

    Scenario "1"/"3" force every hallucinated modality absent, "2" honors
    the per-scene manifest flags, "all" forces everything available. The
    same bundle serves every mode; no retraining happens here.
    """
    records = manifest.splits.get(split, [])
    if not records:
        raise ValueError(f"split {split!r} is empty")
    conf = ConfusionMatrix.zeros(manifest.class_count)
    for rec in records:
        availability = _forced_availability(bundle, scenario, rec.availability)
        needed = {bundle.input_modality("rgb")}
        for role, avail in availability.items():
            if avail:
                needed.add(bundle.role_modalities[role])
        try:
            rasters, labels = load_scene(manifest, rec.scene_id, sorted(needed))
        except FileNotFoundError as exc:
            raise MissingModalityError(
                f"scene {rec.scene_id} lacks a modality flagged available: {exc}") from exc
        pred = tiled_inference(bundle, rasters, availability, tile, halo, predictor)
        mask = boundary_eroded_mask(labels)
        accumulate(conf, pred, labels, mask)
    report = metrics(conf, excluded_classes=manifest.excluded_classes,
                     mode=f"scenario={scenario}", class_names=manifest.class_names)
    return report, conf


def report_table(report: EvalReport) -> str:
    """Text table in the paper's column layout (per-class F1/Acc, then
    Avg F1, Avg Acc, Acc)."""
    names = report.class_names or [f"class{i}" for i in range(len(report.f1))]
    header = ["Class"] + [f"{n}" for n in names] + ["Avg F1", "Avg Acc", "Acc"]
    f1_row = ["F1"] + [f"{100 * v:.2f}" for v in report.f1]
    acc_row = ["Acc"] + [f"{100 * v:.2f}" for v in report.recall]
    f1_row += [f"{100 * report.average_f1:.2f}", "", ""]
    acc_row += ["", f"{100 * report.mean_class_accuracy:.2f}",
                f"{100 * report.overall_accuracy:.2f}"]
    widths = [max(len(row[i]) for row in (header, f1_row, acc_row))
              for i in range(len(header))]
    lines = []
    for row in (header, f1_row, acc_row):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def save_report(report: EvalReport, path):
    Path(path).write_text(json.dumps(report.to_json(), indent=2) + "\n")


def load_report(path) -> EvalReport:
    return EvalReport.from_json(json.loads(Path(path).read_text()))
