"""Comparison detectors: thresholding, exhaustive selection, per-video
optimization, and the inner-only training variant."""
from __future__ import annotations

import hashlib

import numpy as np

from .cas import Cas, VideoRecord
from .config import RunConfig
from .errors import InputError
from .features import cas_to_features
from .oic import oic_kernel
from .boundary import inflate, round_boundary
from .regressor import NetworkB, SgdConfig, SgdState
from .selection import Prediction, nms_order, snippet_to_time
from .train import new_network, predict_video, train_network, train_step

# enumeration scores (x1, x2) pairs in row blocks of about this many pairs
ENUMERATE_CHUNK_PAIRS = 1 << 18


def threshold_localize(cas: Cas, k: int, tau: float, fps: float = 30.0,
                       video_id: str = "") -> list[Prediction]:
    """Maximal runs of activation >= tau become segments scored by mean activation."""
    if not (0.0 < tau < 1.0):
        raise InputError("tau must lie in (0, 1)")
    row = cas.act[k - 1]
    above = row >= tau
    preds = []
    t = 0
    T = cas.num_snippets
    while t < T:
        if above[t]:
            start = t
            while t < T and above[t]:
                t += 1
            end = t  # run covers snippets start+1 .. end (1-based)
            preds.append(
                Prediction(
                    class_id=k,
                    start_s=snippet_to_time(start + 1, fps),
                    end_s=snippet_to_time(end, fps),
                    score=float(row[start:end].mean()),
                    x1=float(start + 1),
                    x2=float(end),
                    video_id=video_id,
                )
            )
        else:
            t += 1
    return [p for p in preds if p.end_s > p.start_s]


def threshold_sweep(
    videos: list[VideoRecord], taus=tuple(round(0.1 * i, 1) for i in range(1, 10))
) -> dict[float, list[Prediction]]:
    """Predictions for each threshold in the sweep, all classes, all videos."""
    out = {}
    for tau in taus:
        preds = []
        for v in videos:
            for k in range(1, v.cas.num_classes + 1):
                preds.extend(threshold_localize(v.cas, k, tau, v.fps, v.video_id))
        out[tau] = preds
    return out


def oic_selection_enumerate(
    cas: Cas,
    k: int,
    max_len: int | None = None,
    alpha: float = 0.25,
    loss_max: float = -0.3,
    nms_iou: float = 0.4,
    fps: float = 30.0,
    video_id: str = "",
) -> list[Prediction]:
    """Score every integer segment up to max_len with the contrastive loss."""
    T = cas.num_snippets
    if max_len is None:
        max_len = T
    if max_len > T:
        raise InputError("max_len cannot exceed the snippet count")
    padded = cas.padded_row(k)[None, :]
    rows = max(1, ENUMERATE_CHUNK_PAIRS // T)
    parts = []
    for r0 in range(0, T, rows):
        # 1-based pairs x1 <= x2 <= T with x1 in this row block
        x1, x2 = np.triu_indices(min(rows, T - r0), r0, T)
        x1, x2 = x1 + (r0 + 1), x2 + 1
        short = x2 - x1 < max_len
        x1, x2 = x1[short], x2[short]
        X1, X2 = inflate(x1, x2, x2 - x1 + 1.0, alpha, T)
        loss = oic_kernel(padded, 0, x1, x2, round_boundary(X1), round_boundary(X2))[0].loss
        hit = loss <= loss_max
        parts.append((x1[hit], x2[hit], X1[hit], X2[hit], 1.0 - loss[hit]))
    x1, x2, X1, X2, score = (np.concatenate(v) for v in zip(*parts))
    start_s, end_s = snippet_to_time(x1, fps), snippet_to_time(x2, fps)
    columns = np.stack([start_s, end_s, score, x1, x2, X1, X2], axis=1)
    return [Prediction(k, *columns[i].tolist(), video_id)
            for i in nms_order(score, start_s, end_s, nms_iou)]


def _video_seed(video_id: str, seed: int) -> int:
    digest = hashlib.sha256(f"{seed}:{video_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def direct_optimize(
    video: VideoRecord, cfg: RunConfig, seed: int = 0, n_iters: int | None = None
) -> list[Prediction]:
    """Optimize a fresh regressor on one video alone, then predict on it."""
    if n_iters is None:
        n_iters = cfg.direct_opt_iters
    net = new_network(cfg, _video_seed(video.video_id, seed))
    anchors = cfg.anchor_config()
    opt = SgdConfig(cfg.lr, cfg.lr_step, cfg.momentum, cfg.weight_decay)
    state = SgdState()
    test_video = VideoRecord(
        video.video_id,
        video.cas,
        tuple(range(1, video.cas.num_classes + 1)),  # test-mode class set
        video.fps,
    )
    for iteration in range(n_iters):
        train_step(net, test_video, cfg, anchors, opt, state, iteration)
    return predict_video(net, video, cfg)


def train_inner_only(corpus: list[VideoRecord], cfg: RunConfig, seed: int = 0) -> NetworkB:
    """Same pipeline with the inner-only loss; outer gradients are zero."""
    return train_network(corpus, cfg, seed=seed, loss="inner").net
