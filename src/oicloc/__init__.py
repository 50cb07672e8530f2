"""Weakly-supervised temporal interval localization on class activation
sequences, trained with an outer-inner contrastive loss."""

from .boundary import AnchorConfig, round_boundary
from .cas import Cas, GroundTruthSegment, VideoRecord
from .config import PROFILES, RunConfig, load_config
from .evaluation import EvalReport, average_precision, iou, map_report
from .oic import BoundaryGradients, OicBreakdown, SegmentHypothesis
from .regressor import NetworkB
from .selection import Prediction, build_candidates, nms, select, snippet_to_time
from .synth import SynthSpec, synth_corpus

__all__ = [
    "AnchorConfig", "BoundaryGradients", "Cas", "EvalReport", "GroundTruthSegment",
    "NetworkB", "OicBreakdown", "PROFILES", "Prediction", "RunConfig",
    "SegmentHypothesis", "SynthSpec", "VideoRecord",
    "average_precision", "build_candidates", "iou", "load_config", "map_report",
    "nms", "round_boundary", "select", "snippet_to_time", "synth_corpus",
]
