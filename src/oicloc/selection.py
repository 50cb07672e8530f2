"""Candidate grid, per-position anchor choice, loss gating, NMS, predictions.

Implements the selection layer: positions below the activation floor are
discarded, each surviving position keeps its lowest-loss anchor, kept
hypotheses must beat the loss ceiling, and per-class NMS (ranked by
score = 1 - loss) removes overlapping survivors. All tie-breaking is
deterministic: equal losses prefer the smaller anchor index, equal NMS
scores prefer the earlier start.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oic
from .boundary import (
    AnchorConfig, clip_zero_pad, inflate, round_boundary, transform_backward,
)
from .cas import SNIPPET_FRAMES, Cas
from .errors import InputError, TrainingError


def snippet_to_time(x: float, fps: float) -> float:
    """Continuous snippet coordinate to seconds; snippet 1 starts at 0 s."""
    if not 0 < fps < math.inf:
        raise InputError("fps must be positive and finite")
    return (x - 1.0) * SNIPPET_FRAMES / fps


@dataclass(frozen=True)
class Prediction:
    """One detection; score is 1 minus the selection loss (thresholding: mean activation)."""

    class_id: int
    start_s: float
    end_s: float
    score: float
    video_id: str = ""


@dataclass(frozen=True)
class Candidates:
    """Every (position, anchor) hypothesis of one video as T x M arrays (row t-1
    is position t). ``w`` is the regressed length w_a * exp(t_w); ``rounded``
    stacks rx1, rx2, rX1, rX2 on the padded grid; ``valid``: non-empty ring."""

    anchors: np.ndarray  # (M,) anchor lengths
    alpha: float  # the inflation ratio of X1, X2
    w: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    X1: np.ndarray
    X2: np.ndarray
    rounded: np.ndarray  # (4, T, M) int
    min_offset: np.ndarray
    valid: np.ndarray


def build_candidates(reg_map: np.ndarray, anchors: AnchorConfig, alpha: float) -> Candidates:
    """Regress, clip and inflate every (position, anchor) pair into a T x M grid."""
    M = anchors.count
    reg_map = np.asarray(reg_map, dtype=np.float64)
    if reg_map.ndim != 2 or len(reg_map) != 2 * M:
        raise InputError(f"regression map must be {2 * M} x T, got {reg_map.shape}")
    T = reg_map.shape[1]
    if not np.isfinite(reg_map).all():
        raise TrainingError("regression values must be finite")
    w_a, t_w = np.asarray(anchors.scales), reg_map[1::2].T
    with np.errstate(over="ignore"):  # an inf length is refused below
        try:
            # math.exp, not np.exp: the two differ in the last ulp on some
            # inputs, and the straight-line oracles use math.exp
            growth = np.fromiter(map(math.exp, t_w.ravel().tolist()), np.float64, t_w.size)
        except OverflowError:  # np.exp only locates the cell: its overflow is inf
            growth = np.exp(t_w.ravel())
        w = w_a * growth.reshape(t_w.shape)
    if np.isinf(w).any():
        t, m = divmod(int(np.argmax(np.isinf(w).ravel())), M)
        raise TrainingError(
            f"t_w = {t_w[t, m]:.6g} overflows the length at position {t + 1}, anchor {m}"
        )
    c_x = np.arange(1.0, T + 1.0)[:, None] + w_a * reg_map[0::2].T
    raw_x1, raw_x2 = c_x - w / 2.0, c_x + w / 2.0
    width = raw_x2 - raw_x1
    if not (width > 0).all():
        t, m = divmod(int(np.argmin(width.ravel() > 0)), M)
        raise TrainingError(
            f"t_w = {t_w[t, m]:.6g} collapses the segment at position {t + 1}, anchor {m}"
        )
    x1, x2 = clip_zero_pad(raw_x1, raw_x2, T)  # widths are positive, so x1 <= x2
    X1, X2 = inflate(x1, x2, width, alpha, T)
    rx1, rx2, rX1, rX2 = rounded = round_boundary(np.stack([x1, x2, X1, X2]))
    # inflate clips X1, X2 into [0, T+1] and the finite and width checks above
    # (inf - inf) leave no NaN, so only the outer ring's width decides validity
    valid = (rX2 - rX1) - (rx2 - rx1) >= 1
    return Candidates(w_a, alpha, w, x1, x2, X1, X2, rounded, width * alpha < 1.0, valid)


# Largest interval count that nms_order decides with one pairwise-IoU matrix.
# Timed in process on the sets the benchmark workloads pass (2-vCPU Xeon):
# select's per-class sets at desk and baselines shapes (n up to 79, many kept)
# run 1.5-4x faster as a matrix; enumerate's dense sets (n 150-1,022, few kept)
# run 2-27x slower, as the matrix grows with n^2 and the sweep with n times
# the kept count. Thumos-shaped select sets (n 146-250) stay on the sweep.
NMS_MATRIX_MAX = 128


def iou(lo_a, hi_a, lo, hi) -> np.ndarray:
    """Temporal IoU of [lo_a, hi_a] with [lo, hi], broadcasting; disjoint or
    touching intervals have IoU 0. NMS and evaluation both use it."""
    inter = np.minimum(hi_a, hi) - np.maximum(lo_a, lo)
    union = np.maximum(hi_a, hi) - np.minimum(lo_a, lo)
    return np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0)


def nms_order(score: np.ndarray, lo: np.ndarray, hi: np.ndarray, iou_thresh: float) -> list[int]:
    """Greedy suppression of scored intervals [lo, hi]; kept indices, best first.

    Ranks by descending score, then lo, then hi; drops every later interval
    whose IoU with a kept one exceeds the threshold.
    Up to ``NMS_MATRIX_MAX`` intervals, every pairwise IoU is computed at once;
    above it, each kept interval's IoUs are computed as it is kept.
    """
    order = np.lexsort((hi, lo, -score))
    lo, hi = lo[order], hi[order]
    n = len(order)
    pairwise = iou(lo[:, None], hi[:, None], lo, hi) <= iou_thresh if n <= NMS_MATRIX_MAX else None
    alive = np.ones(n, dtype=bool)
    kept = []
    for i in range(n):
        if alive[i]:
            kept.append(i)
            alive &= pairwise[i] if pairwise is not None else iou(lo[i], hi[i], lo, hi) <= iou_thresh
    return order[kept].tolist()


def _check_loss(loss: str) -> None:
    if loss not in ("oic", "inner"):
        raise InputError(f"unknown loss variant {loss!r}")


def select(
    cas: Cas,
    grid: Candidates,
    classes,
    act_min: float = 0.1,
    loss_max: float = -0.3,
    nms_iou: float = 0.4,
    loss: str = "oic",
) -> tuple[np.ndarray, ...]:
    """Run the selection layer for the given class set.

    Training passes the video's label set; testing passes all classes.
    Returns the survivors as arrays ``(k, t, m, score, x1, x2)``: 1-based
    class, 0-based grid position and anchor, score = 1 - loss and the
    clipped boundaries in snippets, by ascending class and, within a class,
    in NMS order. :func:`to_predictions` turns ``k, score, x1, x2`` into
    predictions; :func:`training_loss` takes them as they are.
    """
    _check_loss(loss)
    K, T = cas.num_classes, cas.num_snippets
    if grid.x1.shape[0] != T:
        raise InputError(f"grid has {grid.x1.shape[0]} positions for a T={T} video")
    M = grid.x1.shape[1]
    ks = np.array(sorted(set(int(c) for c in classes)), dtype=np.int64)
    if ks.size and not (1 <= ks[0] and ks[-1] <= K):
        raise InputError(f"class indices {ks.tolist()} outside 1..{K}")
    padded = cas.padded[ks - 1]
    # gated positions in class-major, position-ascending order
    g_c, g_t = np.nonzero(padded[:, 1:-1] >= act_min)
    valid = grid.valid[g_t]
    g, m = np.nonzero(valid)
    t = g_t[g]
    losses = np.full((g_t.size, M), np.inf)
    losses[g, m] = oic.oic_areas(
        padded, g_c[g], *grid.rounded[:, t, m], inner_only=loss == "inner"
    )[0].loss
    best_m = losses.argmin(axis=1)  # first minimum: equal losses keep the smaller anchor
    best = losses[np.arange(g_t.size), best_m]
    keep = valid.any(axis=1) & (best <= loss_max)
    c, t, m, score = g_c[keep], g_t[keep], best_m[keep], 1.0 - best[keep]
    x1, x2 = grid.x1[t, m], grid.x2[t, m]
    # c ascends, so class ks[i]'s candidates are the slice [bounds[i], bounds[i + 1])
    bounds = c.searchsorted(np.arange(ks.size + 1)).tolist()
    # skip empty classes: nms_order costs ~25 us on an empty slice (2-vCPU Xeon)
    kept = np.array([a + i for a, b in zip(bounds, bounds[1:]) if b > a
                     for i in nms_order(score[a:b], x1[a:b], x2[a:b], nms_iou)], dtype=np.intp)
    return ks[c[kept]], t[kept], m[kept], score[kept], x1[kept], x2[kept]


def to_predictions(k, score, x1, x2, fps: float = 30.0, video_id: str = "") -> list[Prediction]:
    """Segments of class ``k`` (one per segment, or one for all) with scores
    and snippet bounds ``x1``, ``x2`` as predictions, sorted by descending
    score, then start, then class (a stable sort: full ties keep their order)."""
    start_s, end_s = snippet_to_time(x1, fps), snippet_to_time(x2, fps)
    k = np.broadcast_to(k, score.shape)
    order = np.lexsort((k, start_s, -score))
    columns = np.array([start_s, end_s, score])[:, order].tolist()
    return [Prediction(*row, video_id) for row in zip(k[order].tolist(), *columns)]


def training_loss(
    cas: Cas,
    grid: Candidates,
    survivors: tuple,
    loss: str = "oic",
) -> tuple[float, np.ndarray]:
    """Sum of the survivors' losses plus the gradients scattered to regression
    slots. Of the survivors only ``(k, t, m)`` (1-based class, 0-based grid
    position and anchor) are read, and taken in (class, position) order."""
    _check_loss(loss)
    T, M = grid.x1.shape
    k, t, m = survivors[:3]
    order = np.lexsort((t, k))  # the loss is summed in this order
    k, t, m = k[order] - 1, t[order], m[order]
    if not grid.valid[t, m].all():
        raise InputError("a survivor has an empty outer ring")
    areas, g = oic.oic_kernel(
        cas.padded, k, *grid.rounded[:, t, m], inner_only=loss == "inner"
    )
    d_tx, d_tw = transform_backward(
        g, grid.anchors[m], grid.w[t, m], grid.alpha, grid.min_offset[t, m]
    )
    # rows 2m, 2m+1; each slot summed k-major (integer zeros when nothing is kept)
    slots = np.concatenate([2 * m * T + t, (2 * m + 1) * T + t])
    grad_out = np.bincount(slots, np.concatenate([d_tx, d_tw]), 2 * M * T)
    return float(areas.loss.sum()), grad_out.astype(np.float64, copy=False).reshape(2 * M, T)
