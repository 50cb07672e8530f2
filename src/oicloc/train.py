"""Training loop (one video per optimizer step) and inference helpers."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .cas import VideoRecord
from .config import RunConfig
from .errors import InputError, TrainingError, naming
from .features import cas_to_features, lift_worker
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
    """Train the boundary regressor on a corpus with the selection-layer loss.

    A video whose lift the worker thread takes (``features.lift_worker``) is
    lifted there ahead of its step: the first while the net is initialised,
    each next one, in epoch order, while the step before it runs. The lift
    is queued before that step's conv jobs, so it runs while this thread
    computes the first conv's first taps. The pending lift is joined before
    this returns or raises. While the next step reads the same record (one
    video over several epochs), its map is lifted once and kept; any other
    map is handed to its step, which frees it before the SGD step.
    """
    if not corpus:
        raise InputError("training requires at least one video")
    order = [video for _ in range(cfg.epochs) for video in corpus]
    pending = _lift_ahead(order[0], cfg)
    try:
        result = TrainResult(new_network(cfg, seed))
        velocity: dict = {}
        feat = None  # a map kept from the step before, which read the same video
        for iteration, (video, following) in enumerate(zip(order, order[1:] + [None])):
            if pending is not None:
                feat = pending.result()
            keep = following is video
            pending = None if following is None or keep else _lift_ahead(following, cfg)
            if keep:
                if feat is None:
                    feat = cas_to_features(video.cas, cfg.feature_dim)
                held = feat
            else:
                held, feat = [feat], None  # this frame lets go of the map
            result.losses.append(
                train_step(result.net, video, cfg, velocity, iteration, loss, held))
            epoch, i = divmod(iteration, len(corpus))
            if i == len(corpus) - 1:
                log.info("epoch %d done, last loss %.4f", epoch, result.losses[-1])
    finally:
        if pending is not None and not pending.cancel():
            pending.exception()  # waits for the running lift
    return result


def _lift_ahead(video, cfg):
    """The whole lift of ``video`` submitted to the worker thread, or None
    where the worker would not take it (its step then lifts it inline)."""
    pool = lift_worker(video.cas, cfg.feature_dim)
    if pool is None:
        return None
    return pool.submit(cas_to_features, video.cas, cfg.feature_dim)


def train_step(net, video, cfg, velocity, iteration, loss="oic", feat=None) -> float:
    """One optimizer step on one video; returns the summed selection loss.
    ``feat`` is the video's lifted feature map, lifted here when None. A
    one-element list holding the map (or None) hands it over: the step
    empties the list, so that the map is freed before the SGD step (an
    argument stays referenced by the caller until the call returns)."""
    if isinstance(feat, list):
        feat = feat.pop()
    if feat is None:
        feat = cas_to_features(video.cas, cfg.feature_dim)
    reg_map, cache = net.forward(feat, mode="train")
    with naming(f"iteration {iteration}, video {video.video_id}", TrainingError):
        grid = build_candidates(reg_map, cfg.anchor_config(), cfg.alpha)
    survivors = select(video.cas, grid, video.labels, cfg.act_min, cfg.loss_max, cfg.nms_iou,
                       loss=loss)
    total, grad_out = training_loss(video.cas, grid, survivors, loss=loss)
    grads = net.backward(cache, grad_out)
    del feat  # backward consumed the cache, so this frees the map's buffer
    sgd_step(net, grads, cfg, velocity, iteration)
    return total


def predict_video(
    net: NetworkB, video: VideoRecord, cfg: RunConfig, loss: str = "oic"
) -> list[Prediction]:
    """Frozen-network inference over all classes: the survivors of
    :func:`select` as predictions, best first."""
    feat = cas_to_features(video.cas, cfg.feature_dim)
    reg_map = net.forward(feat, mode="infer")
    with naming(f"video {video.video_id}", TrainingError):
        grid = build_candidates(reg_map, cfg.anchor_config(), cfg.alpha)
    k, _, _, score, x1, x2 = select(video.cas, grid, range(1, video.cas.num_classes + 1),
                                    cfg.act_min, cfg.loss_max, cfg.nms_iou, loss=loss)
    return to_predictions(k, score, x1, x2, video.fps, video.video_id)
