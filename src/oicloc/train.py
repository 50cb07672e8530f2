"""Training loop (one video per optimizer step) and inference helpers."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .cas import VideoRecord
from .config import RunConfig
from .errors import TrainingError
from .features import cas_to_features
from .regressor import NetworkB, sgd_step
from .selection import Prediction, build_candidates, select, to_predictions, training_loss

log = logging.getLogger("oicloc")


@dataclass
class TrainResult:
    net: NetworkB
    losses: list[float] = field(default_factory=list)


def new_network(cfg: RunConfig, seed: int) -> NetworkB:
    return NetworkB(
        cfg.feature_dim, cfg.anchor_config().count, hidden=cfg.hidden, seed=seed
    )


def train_network(
    corpus: list[VideoRecord], cfg: RunConfig, seed: int = 0, loss: str = "oic"
) -> TrainResult:
    """Train the boundary regressor on a corpus with the selection-layer loss."""
    if not corpus:
        raise ValueError("training requires at least one video")
    result = TrainResult(new_network(cfg, seed))
    velocity: dict = {}
    for epoch in range(cfg.epochs):
        for i, video in enumerate(corpus):
            iteration = epoch * len(corpus) + i
            result.losses.append(train_step(result.net, video, cfg, velocity, iteration, loss))
        log.info("epoch %d done, last loss %.4f", epoch, result.losses[-1])
    return result


def train_step(net, video, cfg, velocity, iteration, loss="oic") -> float:
    """One optimizer step on one video; returns the summed selection loss."""
    feat = cas_to_features(video.cas, cfg.feature_dim)
    reg_map, cache = net.forward(feat, mode="train")
    try:
        grid = build_candidates(reg_map, cfg.anchor_config(), video.cas.num_snippets, cfg.alpha)
    except TrainingError as err:
        raise TrainingError(f"iteration {iteration}, video {video.video_id}: {err}") from err
    mask, _ = select(video.cas, grid, video.labels, cfg.act_min, cfg.loss_max, cfg.nms_iou,
                     loss=loss)
    total, grad_out = training_loss(video.cas, grid, mask, cfg.alpha, loss=loss)
    grads = net.backward(cache, grad_out)
    sgd_step(net, grads, cfg, velocity, iteration)
    return total


def predict_video(
    net: NetworkB, video: VideoRecord, cfg: RunConfig, loss: str = "oic"
) -> list[Prediction]:
    """Frozen-network inference over all classes: the survivors of
    :func:`select` as predictions, best first (training reads select's mask
    alone and builds none)."""
    feat = cas_to_features(video.cas, cfg.feature_dim)
    reg_map = net.forward(feat, mode="infer")
    grid = build_candidates(reg_map, cfg.anchor_config(), video.cas.num_snippets, cfg.alpha)
    _, survivors = select(video.cas, grid, range(1, video.cas.num_classes + 1), cfg.act_min,
                          cfg.loss_max, cfg.nms_iou, loss=loss)
    return to_predictions(survivors, video.fps, video.video_id)
