"""Temporal IoU, per-class average precision, and mAP reports.

Matching is greedy in score order within (video, class): a prediction is a
true positive iff its IoU with some still-unmatched ground truth segment of
the same class exceeds the threshold; duplicates against an already-matched
segment count as false positives.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cas import VideoRecord
from .errors import InputError
from .selection import Prediction

THUMOS_THRESHOLDS = (0.3, 0.4, 0.5, 0.6, 0.7)
ACTIVITYNET_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


def iou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Temporal IoU of two [start, end] intervals in seconds."""
    if a[0] > a[1] or b[0] > b[1]:
        raise InputError("intervals must satisfy start <= end")
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0:
        return 0.0
    union = max(a[1], b[1]) - min(a[0], b[0])
    return inter / union if union > 0 else 0.0


@dataclass(frozen=True)
class GtInstance:
    video_id: str
    class_id: int
    start_s: float
    end_s: float


def gt_instances(videos: list[VideoRecord]) -> list[GtInstance]:
    out = []
    for v in videos:
        for g in v.gt or ():
            out.append(GtInstance(v.video_id, g.class_id, g.start_s, g.end_s))
    return out


def average_precision(
    preds: list[Prediction],
    gts: list[GtInstance],
    class_id: int,
    iou_thresh: float,
) -> float | None:
    """All-points interpolated AP for one class at one IoU threshold; None when
    the class has no gt."""
    gt_by_video: dict[str, list[GtInstance]] = {}
    for g in gts:
        if g.class_id == class_id:
            gt_by_video.setdefault(g.video_id, []).append(g)
    n_gt = sum(len(v) for v in gt_by_video.values())
    if n_gt == 0:
        return None
    cls_preds = sorted(
        (p for p in preds if p.class_id == class_id),
        key=lambda p: (-p.score, p.start_s, p.video_id),
    )
    if not cls_preds:
        return 0.0
    matched: set[int] = set()
    tp = np.zeros(len(cls_preds))
    for i, p in enumerate(cls_preds):
        best_iou, best_gt = 0.0, None
        for g in gt_by_video.get(p.video_id, ()):
            if id(g) in matched:
                continue
            ov = iou((p.start_s, p.end_s), (g.start_s, g.end_s))
            if ov > best_iou:
                best_iou, best_gt = ov, g
        if best_gt is not None and best_iou > iou_thresh:
            matched.add(id(best_gt))
            tp[i] = 1.0
    acc_tp = np.cumsum(tp)
    acc_fp = np.cumsum(1.0 - tp)
    recall = acc_tp / n_gt
    precision = acc_tp / np.maximum(acc_tp + acc_fp, 1e-12)
    r = np.concatenate([[0.0], recall, [recall[-1]]])
    # monotone precision envelope, then sum over recall steps
    env = np.maximum.accumulate(np.concatenate([[0.0], precision, [0.0]])[::-1])[::-1]
    steps = np.nonzero(r[1:] != r[:-1])[0] + 1
    return float(np.sum((r[steps] - r[steps - 1]) * env[steps]))


@dataclass(frozen=True)
class EvalReport:
    """Per-class AP and mAP for each IoU threshold, plus their average."""

    per_threshold: dict[float, dict]  # thr -> {"ap": {class: ap}, "map": float}
    avg_map: float

    def map_at(self, thr: float) -> float:
        return self.per_threshold[thr]["map"]

    def to_json(self) -> str:
        payload = {
            str(thr): {
                "ap": {str(k): v for k, v in entry["ap"].items()},
                "mAP": entry["map"],
            }
            for thr, entry in self.per_threshold.items()
        }
        payload["avg_mAP"] = self.avg_map
        return json.dumps(payload, indent=1)

    def to_csv(self, path: str | Path) -> None:
        thresholds = sorted(self.per_threshold)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric"] + [f"iou_{t}" for t in thresholds] + ["avg"])
            classes = sorted({k for e in self.per_threshold.values() for k in e["ap"]})
            for k in classes:
                row = [self.per_threshold[t]["ap"].get(k) for t in thresholds]
                avg = float(np.mean([v for v in row if v is not None])) if row else None
                writer.writerow([f"class_{k}"] + row + [avg])
            writer.writerow(
                ["mAP"] + [self.per_threshold[t]["map"] for t in thresholds] + [self.avg_map]
            )


def map_report(
    preds: list[Prediction],
    gts: list[GtInstance],
    iou_thresholds=THUMOS_THRESHOLDS,
) -> EvalReport:
    """Evaluate mAP over the given IoU threshold grid."""
    if not gts:
        raise InputError("evaluation requires at least one ground truth segment")
    classes = sorted({g.class_id for g in gts})
    per_threshold: dict[float, dict] = {}
    for thr in iou_thresholds:
        aps = {}
        for k in classes:
            ap = average_precision(preds, gts, k, thr)
            if ap is not None:
                aps[k] = ap
        per_threshold[thr] = {"ap": aps, "map": float(np.mean(list(aps.values())))}
    avg_map = float(np.mean([e["map"] for e in per_threshold.values()]))
    return EvalReport(per_threshold, avg_map)
