"""Comparison detectors: thresholding, exhaustive selection, per-video
optimization, and the inner-only training variant."""
from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np

from . import train
from .cas import Cas, VideoRecord
from .config import _RULES, RunConfig
from .errors import InputError, _is_int, _is_number, check_object
from .oic import oic_areas
from .boundary import inflate, round_boundary
from .regressor import NetworkB
from .selection import Prediction, nms_order, snippet_to_time, to_predictions
from .train import predict_video, train_network

# enumeration scores (x1, x2) pairs in row blocks of about this many pairs
ENUMERATE_CHUNK_PAIRS = 1 << 18
# the detectors :func:`detect` runs
MODES = ("full", "threshold", "oic_select", "direct_opt", "inner_only")


def threshold_localize(cas: Cas, k: int, tau: float, fps: float = 30.0,
                       video_id: str = "") -> list[Prediction]:
    """Maximal runs of two or more snippets of activation >= tau become
    segments scored by mean activation, best first."""
    if not (_is_int(k) and 1 <= k <= cas.num_classes):
        raise InputError(f"class {k} outside 1..{cas.num_classes}")
    if not (_is_number(tau) and 0.0 < tau < 1.0):
        raise InputError("tau must lie in (0, 1)")
    row = cas.act[k - 1]
    # rising and falling edges: each run covers snippets start+1 .. end (1-based)
    edges = np.flatnonzero(np.diff(np.concatenate([[0], row >= tau, [0]])))
    runs = edges.reshape(-1, 2)
    starts, ends = runs[runs[:, 1] - runs[:, 0] > 1].T
    score = np.array([row[a:b].mean() for a, b in zip(starts.tolist(), ends.tolist())])
    return to_predictions(k, score, starts + 1, ends, fps, video_id)


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
    """Score every integer segment up to max_len (an integer in 1..T) with the
    contrastive loss; ``loss_max`` and ``nms_iou`` must pass RunConfig's rules."""
    if not (_is_int(k) and 1 <= k <= cas.num_classes):
        raise InputError(f"class {k} outside 1..{cas.num_classes}")
    T = cas.num_snippets
    max_len = T if max_len is None else max_len
    if not (_is_int(max_len) and 1 <= max_len <= T):
        raise InputError(f"max_len must be an integer in 1..{T}, got {max_len!r}")
    check_object({"loss_max": loss_max, "nms_iou": nms_iou}, "oic_selection_enumerate", _RULES)
    padded = cas.padded[k - 1 : k]
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
    kept = nms_order(score, snippet_to_time(x1, fps), snippet_to_time(x2, fps), nms_iou)
    return to_predictions(k, score[kept], x1[kept], x2[kept], fps, video_id)


def _video_seed(video_id: str, seed: int) -> int:
    digest = hashlib.sha256(f"{seed}:{video_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def direct_optimize(video: VideoRecord, cfg: RunConfig, seed: int = 0) -> list[Prediction]:
    """Optimize a fresh regressor on one video alone for ``cfg.direct_opt_iters``
    steps, each reading the one lift of the video, then predict on it."""
    all_classes = tuple(range(1, video.cas.num_classes + 1))  # test-mode class set
    relabelled = VideoRecord(video.video_id, video.cas, all_classes, video.fps)
    net, velocity = train.new_network(cfg, _video_seed(video.video_id, seed)), {}
    feat = train.cas_to_features(video.cas, cfg.feature_dim)
    for iteration in range(cfg.direct_opt_iters):
        train.train_step(net, relabelled, cfg, velocity, iteration, feat=[feat])
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
    if mode not in MODES:
        raise InputError(f"unknown prediction mode {mode!r}")
    if mode in ("full", "inner_only"):
        if net is None:
            raise InputError(f"mode {mode} needs a trained network")
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
    else:  # direct_opt
        per_video = lambda v: direct_optimize(v, cfg, seed=seed)
    return [p for v in videos for p in per_video(v)]


def compare(
    train: list[VideoRecord], test: list[VideoRecord], cfg: RunConfig, seed: int = 0
) -> dict[str, list[Prediction]]:
    """Test predictions of the full method and of every comparison detector.

    Trains the full and the inner-only network on ``train``; the threshold
    baseline gives one ``threshold_{tau}`` entry per tau of the sweep, and
    ``full_alpha_{alpha}`` is the full method trained at each alpha of the sweep.
    """
    table = {
        "full": detect("full", test, cfg, train_network(train, cfg, seed=seed).net),
        "direct_opt": detect("direct_opt", test, cfg, seed=seed),
        "oic_select": detect("oic_select", test, cfg),
        "inner_only": detect("inner_only", test, cfg, train_inner_only(train, cfg, seed=seed)),
    }
    table.update((f"threshold_{tau}", preds) for tau, preds in threshold_sweep(test).items())
    for alpha in (0.125, 0.25, 0.5):  # the entry at cfg.alpha is the "full" entry
        alpha_cfg = replace(cfg, alpha=alpha)
        table[f"full_alpha_{alpha}"] = table["full"] if alpha == cfg.alpha else detect(
            "full", test, alpha_cfg, train_network(train, alpha_cfg, seed=seed).net)
    return table
