"""Independent straight-line reference implementations used as test oracles.

Everything here is written in the most literal way possible -- explicit
loops, no shared helpers from the package under test beyond plain data
access -- so that agreement with the package is meaningful.
"""
from __future__ import annotations

import base64
import itertools
import math

import numpy as np


def round_half_away(x: float) -> int:
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def padded_value(act_row: np.ndarray, x: int) -> float:
    """Activation at integer snippet x with zero padding at 0 and T+1."""
    T = len(act_row)
    if x == 0 or x == T + 1:
        return 0.0
    return float(act_row[x - 1])


def brute_force_loss(act_row: np.ndarray, x1: float, x2: float, X1: float, X2: float) -> float:
    """Contrastive loss by explicit per-snippet summation."""
    rx1, rx2 = round_half_away(x1), round_half_away(x2)
    rX1, rX2 = round_half_away(X1), round_half_away(X2)
    inner_sum = 0.0
    for x in range(rx1, rx2 + 1):
        inner_sum += padded_value(act_row, x)
    outer_sum = 0.0
    for x in range(rX1, rX2 + 1):
        outer_sum += padded_value(act_row, x)
    inner_len = rx2 - rx1 + 1
    ring_len = (rX2 - rX1 + 1) - inner_len
    return (outer_sum - inner_sum) / ring_len - inner_sum / inner_len


def step_filter_weights(box) -> tuple[int, np.ndarray, float]:
    """Signed step-filter profile of the box ``(x1, x2, X1, X2)`` over [round(X1), round(X2)].

    Returns (start index, weights, norm). The weights are integer-valued
    (+inner_len on the outer ring, -ring_len on the inner area) so they sum
    to exactly zero in float arithmetic; dividing the dot product of the
    weights with the padded activation row by norm = inner_len * ring_len
    reproduces the loss.
    """
    rx1, rx2, rX1, rX2 = map(round_half_away, box)
    inner_len = rx2 - rx1 + 1
    ring_len = (rX2 - rX1 + 1) - inner_len
    weights = np.full(rX2 - rX1 + 1, float(inner_len))
    weights[rx1 - rX1 : rx2 - rX1 + 1] = -float(ring_len)
    return rX1, weights, float(inner_len * ring_len)


def brute_force_inner_loss(act_row: np.ndarray, x1: float, x2: float) -> float:
    rx1, rx2 = round_half_away(x1), round_half_away(x2)
    total = 0.0
    for x in range(rx1, rx2 + 1):
        total += padded_value(act_row, x)
    return -total / (rx2 - rx1 + 1)


def brute_force_gradients(act_row: np.ndarray, x1: float, x2: float, X1: float, X2: float):
    """Partials (d_x1, d_x2, d_X1, d_X2) of the contrastive loss by explicit sums.

    Moving a boundary by one snippet moves one activation between the inner
    area and the outer ring (or into or out of the ring), and changes one of
    the two lengths; these are the first-order effects on both averages.
    """
    rx1, rx2 = round_half_away(x1), round_half_away(x2)
    rX1, rX2 = round_half_away(X1), round_half_away(X2)
    inner_sum = 0.0
    for x in range(rx1, rx2 + 1):
        inner_sum += padded_value(act_row, x)
    ring_sum = 0.0
    for x in list(range(rX1, rx1)) + list(range(rx2 + 1, rX2 + 1)):
        ring_sum += padded_value(act_row, x)
    inner_len = rx2 - rx1 + 1
    ring_len = (rX2 - rX1 + 1) - inner_len
    a_inner = inner_sum / inner_len
    a_outer = ring_sum / ring_len
    f_x1, f_x2 = padded_value(act_row, rx1), padded_value(act_row, rx2)
    f_X1, f_X2 = padded_value(act_row, rX1), padded_value(act_row, rX2)
    # raising x1 hands f(x1) from the inner area to the ring
    d_x1 = (f_x1 - a_outer) / ring_len - (a_inner - f_x1) / inner_len
    # raising x2 takes f(x2) out of the ring into the inner area
    d_x2 = (a_outer - f_x2) / ring_len - (f_x2 - a_inner) / inner_len
    # raising X1 drops f(X1) from the ring; raising X2 adds f(X2) to it
    d_X1 = (a_outer - f_X1) / ring_len
    d_X2 = (f_X2 - a_outer) / ring_len
    return d_x1, d_x2, d_X1, d_X2


def brute_force_inner_gradients(act_row: np.ndarray, x1: float, x2: float):
    """Partials (d_x1, d_x2) of the inner-only loss by explicit sums."""
    rx1, rx2 = round_half_away(x1), round_half_away(x2)
    total = 0.0
    for x in range(rx1, rx2 + 1):
        total += padded_value(act_row, x)
    inner_len = rx2 - rx1 + 1
    a_inner = total / inner_len
    d_x1 = -(a_inner - padded_value(act_row, rx1)) / inner_len
    d_x2 = -(padded_value(act_row, rx2) - a_inner) / inner_len
    return d_x1, d_x2


def anchor_chain_rule(grads, w_a: float, t_w: float, alpha: float, min_offset: bool):
    """(d_t_x, d_t_w) from the four boundary partials of one regressed anchor.

    x1, x2 = c_x -+ w/2 with c_x = s + w_a * t_x and w = w_a * exp(t_w); the
    outer sides sit alpha * w further out, or one snippet out when
    w * alpha < 1. Clipping passes partials through unchanged.
    """
    d_x1, d_x2, d_X1, d_X2 = grads
    w = w_a * math.exp(t_w)
    d_tx = (d_x1 + d_x2 + d_X1 + d_X2) * w_a
    if min_offset:
        dX1_dtw, dX2_dtw = -w / 2.0, w / 2.0
    else:
        dX1_dtw, dX2_dtw = -w / 2.0 - alpha * w, w / 2.0 + alpha * w
    d_tw = d_x1 * (-w / 2.0) + d_x2 * (w / 2.0) + d_X1 * dX1_dtw + d_X2 * dX2_dtw
    return d_tx, d_tw


def conv1d_loops(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padded temporal convolution by four explicit loops."""
    out_ch, in_ch, ksz = w.shape
    T = x.shape[1]
    pad = (ksz - 1) // 2
    out = np.zeros((out_ch, T))
    for o in range(out_ch):
        for t in range(T):
            acc = b[o]
            for c in range(in_ch):
                for dk in range(ksz):
                    src = t + dk - pad
                    if 0 <= src < T:
                        acc += w[o, c, dk] * x[c, src]
            out[o, t] = acc
    return out


def conv1d_backward_loops(x: np.ndarray, w: np.ndarray, dy: np.ndarray):
    """Gradients (dx, dw, db) of the same-padded convolution by explicit loops.

    Each output y[o, t] = b[o] + sum_{c, dk} w[o, c, dk] * x[c, t + dk - pad],
    so every term hands dy[o, t] to its weight, its input and the bias.
    """
    out_ch, in_ch, ksz = w.shape
    T = x.shape[1]
    pad = (ksz - 1) // 2
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    db = np.zeros(out_ch)
    for o in range(out_ch):
        for t in range(T):
            db[o] += dy[o, t]
            for c in range(in_ch):
                for dk in range(ksz):
                    src = t + dk - pad
                    if 0 <= src < T:
                        dw[o, c, dk] += dy[o, t] * x[c, src]
                        dx[c, src] += dy[o, t] * w[o, c, dk]
    return dx, dw, db


def selection_oracle(act, reg_map, anchors, classes, alpha, act_min, loss_max, nms_iou):
    """Straight-line re-statement of the candidate selection algorithm.

    act: K x T activation matrix; reg_map: 2M x T regression outputs;
    anchors: list of anchor lengths. Returns the kept (k, t, m) triples and
    the per-candidate inner boundaries, mirroring the selection layer but
    built independently from first principles.
    """
    K, T = act.shape
    M = len(anchors)
    kept = []
    for k in classes:
        row = act[k - 1]
        stage = []  # (loss, x1, x2, t, m)
        for t in range(1, T + 1):
            if row[t - 1] < act_min:
                continue
            best = None
            for m in range(M):
                w_a = float(anchors[m])
                t_x = reg_map[2 * m, t - 1]
                t_w = reg_map[2 * m + 1, t - 1]
                c_x = t + w_a * t_x
                w = w_a * math.exp(t_w)
                x1, x2 = c_x - w / 2.0, c_x + w / 2.0
                # clip into the padded grid
                x1 = min(max(x1, 0.0), float(T + 1))
                x2 = min(max(x2, 0.0), float(T + 1))
                X1 = min(x1 - w * alpha, x1 - 1.0)
                X2 = max(x2 + w * alpha, x2 + 1.0)
                X1 = min(max(X1, 0.0), float(T + 1))
                X2 = min(max(X2, 0.0), float(T + 1))
                rx1, rx2 = round_half_away(x1), round_half_away(x2)
                rX1, rX2 = round_half_away(X1), round_half_away(X2)
                ring = (rX2 - rX1) - (rx2 - rx1)
                if ring < 1 or rX1 < 0 or rX2 > T + 1:
                    continue
                loss = brute_force_loss(row, x1, x2, X1, X2)
                if best is None or loss < best[0]:
                    best = (loss, x1, x2, t, m)
            if best is None or best[0] > loss_max:
                continue
            stage.append(best)
        # greedy NMS on inner boundaries, lowest loss first, earlier start ties
        stage.sort(key=lambda it: (it[0], it[1], it[2]))
        while stage:
            head = stage.pop(0)
            kept.append((k, head[3], head[4]))
            survivors = []
            for it in stage:
                inter = min(head[2], it[2]) - max(head[1], it[1])
                if inter <= 0:
                    ov = 0.0
                else:
                    union = max(head[2], it[2]) - min(head[1], it[1])
                    ov = inter / union if union > 0 else 0.0
                if ov <= nms_iou:
                    survivors.append(it)
            stage = survivors
    return sorted(kept)


def enumeration_oracle(act_row, k, T, alpha, loss_max, nms_iou):
    """All integer segments, loss-filtered then greedily suppressed."""
    stage = []
    for x1 in range(1, T + 1):
        for x2 in range(x1, T + 1):
            w = float(x2 - x1 + 1)
            X1 = min(x1 - w * alpha, x1 - 1.0)
            X2 = max(x2 + w * alpha, x2 + 1.0)
            X1 = min(max(X1, 0.0), float(T + 1))
            X2 = min(max(X2, 0.0), float(T + 1))
            loss = brute_force_loss(act_row, float(x1), float(x2), X1, X2)
            if loss <= loss_max:
                stage.append((loss, float(x1), float(x2)))
    stage.sort(key=lambda it: (it[0], it[1], it[2]))
    kept = []
    while stage:
        head = stage.pop(0)
        kept.append((head[1], head[2]))
        survivors = []
        for it in stage:
            inter = min(head[2], it[2]) - max(head[1], it[1])
            if inter <= 0:
                ov = 0.0
            else:
                union = max(head[2], it[2]) - min(head[1], it[1])
                ov = inter / union if union > 0 else 0.0
            if ov <= nms_iou:
                survivors.append(it)
        stage = survivors
    return sorted(kept)


def greedy_nms(score, lo, hi, iou_thresh) -> list[int]:
    """Kept indices of greedy interval suppression, best first.

    Ranks by descending score, then lo, then hi (input order on full ties),
    and keeps an interval unless its IoU with an already kept one exceeds
    the threshold; disjoint or touching intervals have IoU 0.
    """
    score, lo, hi = (list(map(float, v)) for v in (score, lo, hi))
    ranked = sorted(range(len(score)), key=lambda i: (-score[i], lo[i], hi[i]))
    kept = []
    for i in ranked:
        suppressed = False
        for j in kept:
            inter = min(hi[i], hi[j]) - max(lo[i], lo[j])
            if inter > 0 and inter / (max(hi[i], hi[j]) - min(lo[i], lo[j])) > iou_thresh:
                suppressed = True
        if not suppressed:
            kept.append(i)
    return kept


def average_precision_reference(preds, gts, class_id: int, iou_thresh: float):
    """All-points interpolated AP with scalar IoUs, as first written: each
    prediction, by descending score then start then video, takes the first
    unmatched ground truth of its video with the highest IoU, a true positive
    iff that IoU is strictly above the threshold. None without ground truth."""
    gt = [g for g in gts if g.class_id == class_id]
    if not gt:
        return None
    ranked = sorted((p for p in preds if p.class_id == class_id),
                    key=lambda p: (-p.score, p.start_s, p.video_id))
    if not ranked:
        return 0.0
    matched, tp = set(), []
    for p in ranked:
        best_iou, best = 0.0, None
        for j, g in enumerate(gt):
            if g.video_id != p.video_id or j in matched:
                continue
            inter = min(p.end_s, g.end_s) - max(p.start_s, g.start_s)
            ov = inter / (max(p.end_s, g.end_s) - min(p.start_s, g.start_s)) if inter > 0 else 0.0
            if ov > best_iou:
                best_iou, best = ov, j
        hit = best is not None and best_iou > iou_thresh
        if hit:
            matched.add(best)
        tp.append(1.0 if hit else 0.0)
    acc_tp = np.cumsum(tp)
    recall = acc_tp / len(gt)
    precision = acc_tp / np.maximum(acc_tp + np.cumsum(1.0 - np.array(tp)), 1e-12)
    r = np.concatenate([[0.0], recall, [recall[-1]]])
    env = np.maximum.accumulate(np.concatenate([[0.0], precision, [0.0]])[::-1])[::-1]
    steps = np.nonzero(r[1:] != r[:-1])[0] + 1
    return float(np.sum((r[steps] - r[steps - 1]) * env[steps]))


def average_precision_per_threshold(preds, gts, class_id: int, iou_thresh: float):
    """``evaluation.average_precision`` as it was when ``map_report`` called it
    once per (class, threshold): each call ranks the class's predictions and
    computes every (prediction, ground truth of its video) IoU itself."""
    class_gts = [g for g in gts if g.class_id == class_id]
    if not class_gts:
        return None
    cls_preds = sorted((p for p in preds if p.class_id == class_id),
                       key=lambda p: (-p.score, p.start_s, p.video_id))
    if not cls_preds:
        return 0.0
    by_video = {}
    for j, g in enumerate(class_gts):
        by_video.setdefault(g.video_id, []).append(j)
    own = [by_video.get(p.video_id, ()) for p in cls_preds]
    pred_idx = np.repeat(np.arange(len(own)), list(map(len, own)))
    gt_idx = np.fromiter(itertools.chain.from_iterable(own), np.intp, pred_idx.size)
    lo, hi = np.array([(p.start_s, p.end_s) for p in cls_preds], dtype=np.float64).T
    g_lo, g_hi = np.array([(g.start_s, g.end_s) for g in class_gts], dtype=np.float64).T
    lo_a, hi_a, lo_b, hi_b = lo[pred_idx], hi[pred_idx], g_lo[gt_idx], g_hi[gt_idx]
    inter = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    union = np.maximum(hi_a, hi_b) - np.minimum(lo_a, lo_b)
    ov = np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0)
    hit = ov > iou_thresh
    matched = set()
    tp = np.zeros(len(cls_preds))
    candidates = zip(pred_idx[hit].tolist(), gt_idx[hit].tolist(), ov[hit].tolist())
    for i, group in itertools.groupby(candidates, key=lambda c: c[0]):
        best_iou, best_gt = 0.0, None
        for _, j, v in group:
            if v > best_iou and j not in matched:
                best_iou, best_gt = v, j
        if best_gt is not None:
            matched.add(best_gt)
            tp[i] = 1.0
    acc_tp = np.cumsum(tp)
    acc_fp = np.cumsum(1.0 - tp)
    recall = acc_tp / len(class_gts)
    precision = acc_tp / np.maximum(acc_tp + acc_fp, 1e-12)
    r = np.concatenate([[0.0], recall, [recall[-1]]])
    env = np.maximum.accumulate(np.concatenate([[0.0], precision, [0.0]])[::-1])[::-1]
    steps = np.nonzero(r[1:] != r[:-1])[0] + 1
    return float(np.sum((r[steps] - r[steps - 1]) * env[steps]))


def map_report_per_threshold(preds, gts, iou_thresholds):
    """``(per_threshold, avg_map)`` of ``evaluation.map_report``, one
    :func:`average_precision_per_threshold` call per (threshold, class)."""
    classes = sorted({g.class_id for g in gts})
    per_threshold = {}
    for thr in iou_thresholds:
        aps = {k: average_precision_per_threshold(preds, gts, k, thr) for k in classes}
        per_threshold[thr] = {"ap": aps, "map": float(np.mean(list(aps.values())))}
    return per_threshold, float(np.mean([e["map"] for e in per_threshold.values()]))


def kernel_at(cas, box, inner_only: bool = False):
    """The package's OIC kernel on one box ``(x1, x2, X1, X2)`` of class 1:
    ``(areas, gradients)``, each field a scalar. Not an oracle: it rounds with
    ``boundary.round_boundary`` and calls ``oic.oic_kernel`` on one padded
    row, as the selection layer does on many."""
    from oicloc.boundary import round_boundary
    from oicloc.oic import oic_kernel

    rounded = round_boundary(np.array(box, dtype=np.float64))
    return oic_kernel(cas.padded[:1], 0, *rounded, inner_only=inner_only)


def scatter_reference(M: int, T: int, t, m, d_tx, d_tw) -> np.ndarray:
    """The 2M x T regression-map gradient: hypothesis i adds d_tx[i] to row
    2m, column t and d_tw[i] to row 2m+1, one addition at a time in input
    order (as np.add.at does)."""
    grad = np.zeros((2 * M, T))
    for ti, mi, gx, gw in zip(t, m, d_tx, d_tw):
        grad[2 * mi, ti] += gx
        grad[2 * mi + 1, ti] += gw
    return grad


def predictions_reference(k, score, x1, x2, fps: float, video_id: str) -> list:
    """The selection layer's predictions as first built: one Prediction per
    segment of class ``k`` with ``score`` and snippet bounds ``x1``, ``x2``,
    times from scalar snippet_to_time, then Python's stable sort on (-score,
    start, class)."""
    from oicloc.selection import Prediction, snippet_to_time

    preds = [Prediction(c, snippet_to_time(lo, fps), snippet_to_time(hi, fps), s, video_id)
             for c, s, lo, hi in zip(*(column.tolist() for column in (k, score, x1, x2)))]
    preds.sort(key=lambda p: (-p.score, p.start_s, p.class_id))
    return preds


# -- the regressor's training step as first written, pinned bit for bit ------
# These keep the straightforward NumPy form of the step (np.pad per conv,
# batch norm through z.var with the centring recomputed, one momentum update
# per tensor), so that a faster network must reproduce its every bit. The
# batch-norm backward exists twice: as first written (through dvar and dmu)
# and in the compact form the package computes, which the step is pinned to.


def lift_reference(act: np.ndarray, feature_dim: int, seed: int) -> np.ndarray:
    """The random CAS lift, drawn afresh: tanh(proj @ [act; max over classes])."""
    aug = np.vstack([act, act.max(axis=0, keepdims=True)])
    proj = np.random.default_rng(seed).standard_normal((feature_dim, aug.shape[0]))
    return np.tanh(proj / np.sqrt(aug.shape[0]) @ aug)


def conv1d_pad_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """(output, padded input) of the same-padded conv: np.pad, one matmul per tap."""
    pad = (w.shape[2] - 1) // 2
    T = x.shape[1]
    xp = np.pad(x, ((0, 0), (pad, pad)))
    y = w[:, :, 0] @ xp[:, :T]
    for i in range(1, w.shape[2]):
        y += w[:, :, i] @ xp[:, i : i + T]
    y += b[:, None]
    return y, xp


def conv1d_backward_reference(xp: np.ndarray, w: np.ndarray, dy: np.ndarray):
    """(dx, dw, db) of the same-padded conv, per tap, the input gradient included."""
    ksz = w.shape[2]
    pad = (ksz - 1) // 2
    T = dy.shape[1]
    dw = np.stack([dy @ xp[:, i : i + T].T for i in range(ksz)], axis=2)
    db = dy.sum(axis=1)
    dxp = np.zeros_like(xp)
    for i in range(ksz):
        dxp[:, i : i + T] += w[:, :, i].T @ dy
    return dxp[:, pad : xp.shape[1] - pad], dw, db


def network_forward_reference(params, running_mean, running_var, feat, layers=3,
                              eps=1e-5, momentum=0.9):
    """Train-mode forward of the regressor; updates the running-stat lists in
    place and returns (regression map, cache for the backward)."""
    cache = []
    x = feat
    for i in range(layers):
        z, xp = conv1d_pad_reference(x, params[f"conv{i}.w"], params[f"conv{i}.b"])
        mu = z.mean(axis=1)
        var = z.var(axis=1)
        running_mean[i] = momentum * running_mean[i] + (1 - momentum) * mu
        running_var[i] = momentum * running_var[i] + (1 - momentum) * var
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (z - mu[:, None]) * inv_std[:, None]
        y = params[f"bn{i}.gamma"][:, None] * xhat + params[f"bn{i}.beta"][:, None]
        relu_mask = y > 0
        cache.append((xp, z, mu, inv_std, xhat, relu_mask))
        x = y * relu_mask
    reg, xp = conv1d_pad_reference(x, params["pred.w"], params["pred.b"])
    return reg, (cache, xp)


def network_backward_reference(params, cache, grad_out) -> dict:
    """Every parameter's gradient for a :func:`network_forward_reference` cache."""
    layers, pred_xp = cache
    grads = {}
    dx, grads["pred.w"], grads["pred.b"] = conv1d_backward_reference(
        pred_xp, params["pred.w"], grad_out)
    for i in reversed(range(len(layers))):
        xp, z, mu, inv_std, xhat, relu_mask = layers[i]
        dy = dx * relu_mask
        grads[f"bn{i}.gamma"] = (dy * xhat).sum(axis=1)
        grads[f"bn{i}.beta"] = dy.sum(axis=1)
        n = z.shape[1]
        dxhat = dy * params[f"bn{i}.gamma"][:, None]
        zc = z - mu[:, None]
        inv_std = inv_std[:, None]
        dvar = (dxhat * zc * -0.5 * inv_std**3).sum(axis=1, keepdims=True)
        dmu = (-dxhat * inv_std).sum(axis=1, keepdims=True) + dvar * (-2.0 / n) * zc.sum(
            axis=1, keepdims=True)
        dz = dxhat * inv_std + dvar * 2.0 * zc / n + dmu / n
        dx, grads[f"conv{i}.w"], grads[f"conv{i}.b"] = conv1d_backward_reference(
            xp, params[f"conv{i}.w"], dz)
    return grads


def network_backward_lean_reference(params, cache, grad_out) -> dict:
    """Every parameter's gradient for a :func:`network_forward_reference` cache,
    batch norm in the compact form dz = γ/σ · (dy − (dβ + x̂·dγ) / n), the
    association the package's backward computes."""
    layers, pred_xp = cache
    grads = {}
    dx, grads["pred.w"], grads["pred.b"] = conv1d_backward_reference(
        pred_xp, params["pred.w"], grad_out)
    for i in reversed(range(len(layers))):
        xp, z, mu, inv_std, xhat, relu_mask = layers[i]
        dy = dx * relu_mask
        dgamma = (dy * xhat).sum(axis=1)
        dbeta = dy.sum(axis=1)
        grads[f"bn{i}.gamma"], grads[f"bn{i}.beta"] = dgamma, dbeta
        n = z.shape[1]
        dz = (params[f"bn{i}.gamma"] * inv_std)[:, None] * (
            dy - (dbeta[:, None] + xhat * dgamma[:, None]) / n)
        dx, grads[f"conv{i}.w"], grads[f"conv{i}.b"] = conv1d_backward_reference(
            xp, params[f"conv{i}.w"], dz)
    return grads


def sgd_per_tensor(params, grads, lr, momentum, weight_decay, velocity) -> None:
    """Momentum SGD with weight decay, one tensor at a time; rebinds ``params``."""
    for name, p in params.items():
        update = grads[name] + weight_decay * p
        v = velocity.get(name)
        v = update if v is None else momentum * v + update
        velocity[name] = v
        params[name] = p - lr * v


# -- checkpoint documents, written out by hand -----------------------------
# These build checkpoint files from a network's tensors without the package's
# writer: version 3, and version 2, which the package no longer reads.


def checkpoint_tensors(net) -> list:
    """(name, tensor) of everything a checkpoint stores, in file order."""
    tensors = list(net.params.items())
    for i in range(3):
        tensors.append((f"bn{i}.running_mean", net.running_mean[i]))
        tensors.append((f"bn{i}.running_var", net.running_var[i]))
    return tensors


def checkpoint_layout(feature_dim: int, anchor_count: int, hidden: int) -> list:
    """A version-3 header's ``tensors`` list for the given dims."""
    widths = [feature_dim, hidden, hidden, hidden]
    layout = []
    for i in range(3):
        layout.append([f"conv{i}.w", [widths[i + 1], widths[i], 3]])
        layout.append([f"conv{i}.b", [hidden]])
        layout.append([f"bn{i}.gamma", [hidden]])
        layout.append([f"bn{i}.beta", [hidden]])
    layout.append(["pred.w", [2 * anchor_count, hidden, 3]])
    layout.append(["pred.b", [2 * anchor_count]])
    for i in range(3):
        layout.append([f"bn{i}.running_mean", [hidden]])
        layout.append([f"bn{i}.running_var", [hidden]])
    return layout


def checkpoint_v2(net) -> dict:
    """The version-2 checkpoint document of ``net``: each tensor's shape and the
    base64 text of its little-endian float64 bytes."""
    tensors = {}
    for name, t in checkpoint_tensors(net):
        raw = np.asarray(t, dtype="<f8").tobytes()
        tensors[name] = {"shape": list(t.shape), "f8": base64.b64encode(raw).decode()}
    return {"version": 2, "feature_dim": net.feature_dim, "anchor_count": net.anchor_count,
            "hidden": net.hidden, "tensors": tensors}


def checkpoint_v3(net, meta=None) -> tuple[dict, bytes]:
    """The version-3 header and payload of ``net``: the header is written as one
    JSON line, followed by every tensor's little-endian float64 bytes."""
    tensors = checkpoint_tensors(net)
    header = {"version": 3, "feature_dim": net.feature_dim, "anchor_count": net.anchor_count,
              "hidden": net.hidden, "tensors": [[name, list(t.shape)] for name, t in tensors],
              "meta": {} if meta is None else meta}
    payload = b"".join(np.asarray(t, dtype="<f8").tobytes() for _, t in tensors)
    return header, payload


# -- the CAS CSV dialect, parsed line by line -------------------------------


def cas_csv_reference(data: bytes):
    """The K x T matrix (C-contiguous) of a CAS CSV in the package's one
    dialect, or None for any other bytes. The dialect: UTF-8 text whose lines
    all end in "\\r\\n" or all in "\\n" (the last line end optional); the
    header "snippet,class_1,...,class_K" with K >= 1; then for t = 1..T, with
    T >= 1, the line "t,v_1,...,v_K" whose index is written exactly as str(t)
    and whose values are each what float() reads, finite and in [0, 1]."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if "\r" in text:
        lines = text.split("\r\n")
        for line in lines:
            if "\r" in line or "\n" in line:
                return None
    else:
        lines = text.split("\n")
    if lines[-1] == "":
        lines = lines[:-1]
    if len(lines) < 2:
        return None
    header = lines[0].split(",")
    K = len(header) - 1
    if K < 1 or header[0] != "snippet":
        return None
    for k in range(1, K + 1):
        if header[k] != "class_" + str(k):
            return None
    rows = []
    for t in range(1, len(lines)):
        cells = lines[t].split(",")
        if len(cells) != K + 1 or cells[0] != str(t):
            return None
        row = []
        for cell in cells[1:]:
            try:
                value = float(cell)
            except ValueError:
                return None
            if not (0.0 <= value <= 1.0):  # also False for NaN
                return None
            row.append(value)
        rows.append(row)
    act = np.zeros((K, len(rows)))
    for t, row in enumerate(rows):
        for k, value in enumerate(row):
            act[k, t] = value
    return act
