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
import sys
from dataclasses import dataclass

import numpy as np

from . import oic
from .boundary import (
    AnchorConfig, clip_zero_pad, inflate, round_boundary, transform_backward,
)
from .cas import SNIPPET_FRAMES, Cas
from .errors import DegenerateOuterError, InputError, TrainingError


def snippet_to_time(x: float, fps: float) -> float:
    """Continuous snippet coordinate to seconds; snippet 1 starts at 0 s."""
    if fps <= 0:
        raise InputError("fps must be positive")
    return (x - 1.0) * SNIPPET_FRAMES / fps


@dataclass(frozen=True)
class Prediction:
    """One detection; score is 1 minus the selection loss."""

    class_id: int
    start_s: float
    end_s: float
    score: float
    x1: float = 0.0
    x2: float = 0.0
    video_id: str = ""


@dataclass(frozen=True)
class Candidates:
    """Every (position, anchor) hypothesis of one video as T x M arrays (row t-1
    is position t). ``w`` is the regressed length w_a * exp(t_w); ``rounded``
    stacks rx1, rx2, rX1, rX2 on the padded grid; ``valid``: non-empty ring."""

    anchors: np.ndarray  # (M,) anchor lengths
    w: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    X1: np.ndarray
    X2: np.ndarray
    rounded: np.ndarray  # (4, T, M) int
    min_offset: np.ndarray
    valid: np.ndarray


def build_candidates(
    reg_map: np.ndarray, anchors: AnchorConfig, T: int, alpha: float
) -> Candidates:
    """Regress, clip and inflate every (position, anchor) pair into a T x M grid."""
    M = anchors.count
    reg_map = np.asarray(reg_map, dtype=np.float64)
    if reg_map.shape != (2 * M, T):
        raise InputError(f"regression map must be {2 * M} x {T}, got {reg_map.shape}")
    if not np.isfinite(reg_map).all():
        raise InputError("regression values must be finite")
    w_a, t_w = np.asarray(anchors.scales), reg_map[1::2].T
    try:
        # math.exp, not np.exp: the two differ in the last ulp on some inputs,
        # and the straight-line oracles use math.exp
        growth = np.fromiter(map(math.exp, t_w.ravel().tolist()), np.float64, t_w.size)
    except OverflowError:
        t, m = divmod(int(np.argmax(t_w.ravel() > math.log(sys.float_info.max))), M)
        raise TrainingError(
            f"t_w = {t_w[t, m]:.6g} overflows exp at position {t + 1}, anchor {m}"
        ) from None
    w = w_a * growth.reshape(t_w.shape)
    c_x = np.arange(1.0, T + 1.0)[:, None] + w_a * reg_map[0::2].T
    raw_x1, raw_x2 = c_x - w / 2.0, c_x + w / 2.0
    width = raw_x2 - raw_x1
    if not (width > 0).all():
        t, m = divmod(int(np.argmin(width.ravel() > 0)), M)
        raise TrainingError(
            f"t_w = {t_w[t, m]:.6g} collapses the segment at position {t + 1}, anchor {m}"
        )
    x1, x2 = clip_zero_pad(raw_x1, raw_x2, T)
    X1, X2 = inflate(x1, x2, width, alpha, T)
    rx1, rx2, rX1, rX2 = rounded = round_boundary(np.stack([x1, x2, X1, X2]))
    valid = ((rX2 - rX1) - (rx2 - rx1) >= 1) & (rX1 >= 0) & (rX2 <= T + 1)
    return Candidates(w_a, w, x1, x2, X1, X2, rounded, width * alpha < 1.0, valid)


def nms_order(score: np.ndarray, lo: np.ndarray, hi: np.ndarray, iou_thresh: float) -> list[int]:
    """Greedy suppression of scored intervals [lo, hi]; kept indices, best first.

    Ranks by descending score, then lo, then hi; drops every later interval
    whose IoU with a kept one exceeds the threshold (as :func:`evaluation.iou`)."""
    order = np.lexsort((hi, lo, -score))
    lo, hi = lo[order], hi[order]
    alive = np.ones(len(order), dtype=bool)
    kept = []
    for i in range(len(order)):
        if not alive[i]:
            continue
        kept.append(int(order[i]))
        inter = np.minimum(hi[i], hi) - np.maximum(lo[i], lo)
        union = np.maximum(hi[i], hi) - np.minimum(lo[i], lo)
        iou = np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0)
        alive &= iou <= iou_thresh
    return kept


def _padded(act: np.ndarray) -> np.ndarray:
    """Rows of ``act`` with a zero snippet at each end (positions 0 and T+1)."""
    padded = np.zeros((act.shape[0], act.shape[1] + 2))
    padded[:, 1:-1] = act
    return padded


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
    fps: float = 30.0,
    loss: str = "oic",
    video_id: str = "",
) -> tuple[np.ndarray, list[tuple[Prediction, tuple[int, int]]]]:
    """Run the selection layer for the given class set.

    Training passes the video's label set; testing passes all classes.
    Returns the K x T x M keep mask and the surviving (prediction, (t, m))
    pairs, with 0-based grid indices, sorted by descending score.
    """
    _check_loss(loss)
    K, T = cas.num_classes, cas.num_snippets
    if grid.x1.shape[0] != T:
        raise InputError(f"grid has {grid.x1.shape[0]} positions for a T={T} video")
    M = grid.x1.shape[1]
    ks = np.array(sorted(set(int(c) for c in classes)), dtype=np.int64)
    if ks.size and not (1 <= ks[0] and ks[-1] <= K):
        raise InputError(f"class indices {ks.tolist()} outside 1..{K}")
    padded = _padded(cas.act[ks - 1])
    # gated positions in class-major, position-ascending order
    g_c, g_t = np.nonzero(padded[:, 1:-1] >= act_min)
    valid = grid.valid[g_t]
    g, m = np.nonzero(valid)
    t = g_t[g]
    losses = np.full((g_t.size, M), np.inf)
    losses[g, m] = oic.oic_kernel(
        padded, g_c[g], *grid.rounded[:, t, m], inner_only=loss == "inner"
    )[0].loss
    best_m = losses.argmin(axis=1)  # first minimum: equal losses keep the smaller anchor
    best = losses[np.arange(g_t.size), best_m]
    keep = valid.any(axis=1) & (best <= loss_max)
    c, t, m, score = g_c[keep], g_t[keep], best_m[keep], 1.0 - best[keep]
    x1, x2 = grid.x1[t, m], grid.x2[t, m]
    mask = np.zeros((K, T, M), dtype=bool)
    survivors: list[tuple[Prediction, tuple[int, int]]] = []
    for ci, k in enumerate(ks.tolist()):
        members = np.flatnonzero(c == ci)
        for i in members[nms_order(score[members], x1[members], x2[members], nms_iou)]:
            ti, mi = int(t[i]), int(m[i])
            mask[k - 1, ti, mi] = True
            lo, hi = float(x1[i]), float(x2[i])
            pred = Prediction(k, snippet_to_time(lo, fps), snippet_to_time(hi, fps),
                              float(score[i]), lo, hi, video_id)
            survivors.append((pred, (ti, mi)))
    survivors.sort(key=lambda pc: (-pc[0].score, pc[0].start_s, pc[0].class_id))
    return mask, survivors


def training_loss(
    cas: Cas,
    grid: Candidates,
    mask: np.ndarray,
    alpha: float,
    loss: str = "oic",
) -> tuple[float, np.ndarray]:
    """Sum of kept losses plus the gradients scattered to regression slots."""
    _check_loss(loss)
    K, T = cas.num_classes, cas.num_snippets
    M = grid.x1.shape[1]
    if mask.shape != (K, T, M):
        raise InputError(f"mask shape {mask.shape} does not match (K, T, M)")
    k, t, m = np.nonzero(mask)
    if not grid.valid[t, m].all():
        raise DegenerateOuterError("mask keeps a hypothesis with an empty outer ring")
    areas, g = oic.oic_kernel(
        _padded(cas.act), k, *grid.rounded[:, t, m], inner_only=loss == "inner"
    )
    d_tx, d_tw = transform_backward(
        g, grid.anchors[m], grid.w[t, m], alpha, grid.min_offset[t, m]
    )
    grad_out = np.zeros((2 * M, T))
    np.add.at(grad_out, (2 * m, t), d_tx)  # k-major accumulation order
    np.add.at(grad_out, (2 * m + 1, t), d_tw)
    return float(areas.loss.sum()), grad_out
