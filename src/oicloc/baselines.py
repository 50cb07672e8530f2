"""Comparison detectors: thresholding, exhaustive selection, per-video
optimization, and the inner-only training variant."""
from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np

from .cas import Cas, VideoRecord
from .config import RunConfig
from .errors import ConfigError, InputError
from .oic import oic_areas
from .boundary import inflate, round_boundary
from .regressor import NetworkB
from .selection import Prediction, nms_order, snippet_to_time
from .train import predict_video, train_network

# enumeration scores (x1, x2) pairs in row blocks of about this many pairs
ENUMERATE_CHUNK_PAIRS = 1 << 18


def threshold_localize(cas: Cas, k: int, tau: float, fps: float = 30.0,
                       video_id: str = "") -> list[Prediction]:
    """Maximal runs of activation >= tau become segments scored by mean activation."""
    if not (0.0 < tau < 1.0):
        raise InputError("tau must lie in (0, 1)")
    row = cas.act[k - 1]
    # rising and falling edges: each run covers snippets start+1 .. end (1-based)
    edges = np.flatnonzero(np.diff(np.concatenate([[0], row >= tau, [0]])))
    starts, ends = edges.reshape(-1, 2).T
    preds = [
        Prediction(k, snippet_to_time(start + 1, fps), snippet_to_time(end, fps),
                   float(row[start:end].mean()), float(start + 1), float(end), video_id)
        for start, end in zip(starts.tolist(), ends.tolist())
    ]
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
        loss = oic_areas(padded, 0, x1, x2, round_boundary(X1), round_boundary(X2))[0].loss
        hit = loss <= loss_max
        parts.append((x1[hit], x2[hit], 1.0 - loss[hit]))
    x1, x2, score = (np.concatenate(v) for v in zip(*parts))
    start_s, end_s = snippet_to_time(x1, fps), snippet_to_time(x2, fps)
    columns = np.stack([start_s, end_s, score, x1, x2], axis=1)
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
    all_classes = tuple(range(1, video.cas.num_classes + 1))  # test-mode class set
    relabelled = VideoRecord(video.video_id, video.cas, all_classes, video.fps)
    net = train_network([relabelled], replace(cfg, epochs=n_iters),
                        seed=_video_seed(video.video_id, seed)).net
    return predict_video(net, video, cfg)


def train_inner_only(corpus: list[VideoRecord], cfg: RunConfig, seed: int = 0) -> NetworkB:
    """Same pipeline with the inner-only loss; outer gradients are zero."""
    return train_network(corpus, cfg, seed=seed, loss="inner").net


def detect(
    mode: str,
    videos: list[VideoRecord],
    cfg: RunConfig,
    net: NetworkB | None = None,
    seed: int = 0,
) -> list[Prediction]:
    """One detector's predictions over every class of every video.

    ``full`` and ``inner_only`` run the trained ``net``; ``threshold`` cuts the
    CAS at ``cfg.act_min``; ``direct_opt`` derives each video's net from ``seed``.
    """
    if mode in ("full", "inner_only"):
        if net is None:
            raise ConfigError(f"mode {mode} needs a trained network")
        loss = "oic" if mode == "full" else "inner"
        per_video = lambda v: predict_video(net, v, cfg, loss=loss)
    elif mode == "threshold":
        per_video = lambda v: threshold_sweep([v], (cfg.act_min,))[cfg.act_min]
    elif mode == "oic_select":
        per_video = lambda v: [
            p
            for k in range(1, v.cas.num_classes + 1)
            for p in oic_selection_enumerate(
                v.cas, k, alpha=cfg.alpha, loss_max=cfg.loss_max,
                nms_iou=cfg.nms_iou, fps=v.fps, video_id=v.video_id,
            )
        ]
    elif mode == "direct_opt":
        per_video = lambda v: direct_optimize(v, cfg, seed=seed)
    else:
        raise ConfigError(f"unknown prediction mode {mode!r}")
    return [p for v in videos for p in per_video(v)]


def compare(
    train: list[VideoRecord], test: list[VideoRecord], cfg: RunConfig, seed: int = 0
) -> dict[str, list[Prediction]]:
    """Test predictions of the full method and of every comparison detector.

    Trains the full and the inner-only network on ``train``; the threshold
    baseline gives one ``threshold_{tau}`` entry per tau of the sweep.
    """
    table = {
        "full": detect("full", test, cfg, train_network(train, cfg, seed=seed).net),
        "direct_opt": detect("direct_opt", test, cfg, seed=seed),
        "oic_select": detect("oic_select", test, cfg),
        "inner_only": detect("inner_only", test, cfg, train_inner_only(train, cfg, seed=seed)),
    }
    table.update((f"threshold_{tau}", preds) for tau, preds in threshold_sweep(test).items())
    return table
