"""Temporal IoU, per-class average precision, and mAP reports.

Matching is greedy in score order within (video, class): a prediction is a
true positive iff its IoU (``selection.iou``) with some still-unmatched
ground truth segment of the same class exceeds the threshold, and then
matches the first such segment of highest IoU; duplicates against an
already-matched segment count as false positives.
"""
from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .cas import GroundTruthSegment, VideoRecord
from .errors import InputError
from .selection import Prediction, iou

THUMOS_THRESHOLDS = (0.3, 0.4, 0.5, 0.6, 0.7)
ACTIVITYNET_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


def gt_instances(videos: list[VideoRecord]) -> list[GroundTruthSegment]:
    """Every video's ground truth segments, each stamped with its video's id."""
    return [replace(g, video_id=v.video_id) for v in videos for g in v.gt or ()]


def _bounds(segments) -> np.ndarray:
    """The float64 start_s and end_s rows of predictions or ground truth segments."""
    return np.array([(s.start_s, s.end_s) for s in segments], dtype=np.float64).T


def average_precisions(
    preds: list[Prediction],
    gts: list[GroundTruthSegment],
    class_id: int,
    iou_thresholds: tuple[float, ...],
) -> list[float | None]:
    """All-points interpolated AP for one class at each IoU threshold, in
    order; None at each when the class has no gt. The class's predictions are
    ranked and the IoUs of every (prediction, ground truth of its video) pair
    computed once, for all thresholds."""
    class_gts = [g for g in gts if g.class_id == class_id]
    if not class_gts:
        return [None] * len(iou_thresholds)
    cls_preds = sorted(
        (p for p in preds if p.class_id == class_id),
        key=lambda p: (-p.score, p.start_s, p.video_id),
    )
    if not cls_preds:
        return [0.0] * len(iou_thresholds)
    by_video: dict[str, list[int]] = {}
    for j, g in enumerate(class_gts):
        by_video.setdefault(g.video_id, []).append(j)
    own = [by_video.get(p.video_id, ()) for p in cls_preds]
    pred_idx = np.repeat(np.arange(len(own)), list(map(len, own)))
    gt_idx = np.fromiter(itertools.chain.from_iterable(own), np.intp, pred_idx.size)
    lo, hi = _bounds(cls_preds)
    if (lo > hi).any():
        raise InputError("intervals must satisfy start <= end")
    g_lo, g_hi = _bounds(class_gts)
    ov = iou(lo[pred_idx], hi[pred_idx], g_lo[gt_idx], g_hi[gt_idx])
    return [_ap_at(pred_idx, gt_idx, ov, thr, len(cls_preds), len(class_gts))
            for thr in iou_thresholds]


def _ap_at(pred_idx, gt_idx, ov, iou_thresh: float, num_preds: int, num_gts: int) -> float:
    """AP at one threshold from the pairs of ranked prediction ``pred_idx[i]``
    and ground truth ``gt_idx[i]``, grouped by prediction, and their IoUs ``ov``."""
    hit = ov > iou_thresh
    matched: set[int] = set()
    tp = np.zeros(num_preds)
    candidates = zip(pred_idx[hit].tolist(), gt_idx[hit].tolist(), ov[hit].tolist())
    for i, group in itertools.groupby(candidates, key=lambda c: c[0]):
        best_iou, best_gt = 0.0, None  # the first unmatched ground truth of highest IoU
        for _, j, v in group:
            if v > best_iou and j not in matched:
                best_iou, best_gt = v, j
        if best_gt is not None:
            matched.add(best_gt)
            tp[i] = 1.0
    acc_tp = np.cumsum(tp)
    acc_fp = np.cumsum(1.0 - tp)
    recall = acc_tp / num_gts
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
    gts: list[GroundTruthSegment],
    iou_thresholds=THUMOS_THRESHOLDS,
) -> EvalReport:
    """Evaluate mAP over the given IoU threshold grid, each class once for
    every threshold."""
    if not gts:
        raise InputError("evaluation requires at least one ground truth segment")
    thresholds = tuple(iou_thresholds)
    classes = sorted({g.class_id for g in gts})
    by_class = {k: average_precisions(preds, gts, k, thresholds) for k in classes}
    per_threshold: dict[float, dict] = {}
    for i, thr in enumerate(thresholds):
        aps = {k: by_class[k][i] for k in classes}
        per_threshold[thr] = {"ap": aps, "map": float(np.mean(list(aps.values())))}
    avg_map = float(np.mean([e["map"] for e in per_threshold.values()]))
    return EvalReport(per_threshold, avg_map)
