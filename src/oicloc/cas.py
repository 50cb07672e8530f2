"""Class activation sequences and the surrounding data model.

A CAS is a K x T matrix of per-class, per-snippet activations in [0, 1].
Snippet indices are 1-based everywhere; positions 0 and T+1 are virtual
zero-padded snippets used by the boundary machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

SNIPPET_FRAMES = 15


@dataclass(frozen=True)
class Cas:
    """Activation matrix; every entry lies in [0, 1]. ``padded`` is the same
    matrix with a zero snippet at each end (positions 0 and T+1), K x (T+2): a
    C-contiguous, read-only copy whose interior view ``padded[:, 1:-1]`` is ``act``."""

    act: np.ndarray
    padded: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.act, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InputError(f"expected a K x T matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InputError("matrix contains non-finite entries")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise InputError("activations must lie in [0, 1]")
        padded = np.zeros((arr.shape[0], arr.shape[1] + 2))
        padded[:, 1:-1] = arr
        padded.setflags(write=False)
        object.__setattr__(self, "padded", padded)
        object.__setattr__(self, "act", padded[:, 1:-1])

    @property
    def num_classes(self) -> int:
        return self.act.shape[0]

    @property
    def num_snippets(self) -> int:
        return self.act.shape[1]


@dataclass(frozen=True)
class GroundTruthSegment:
    class_id: int
    start_s: float
    end_s: float
    video_id: str = ""  # stamped by ``evaluation.gt_instances``

    def __post_init__(self):
        if not 0.0 <= self.start_s < self.end_s < math.inf:
            raise InputError(
                f"ground truth needs 0 <= start < end < inf, got [{self.start_s}, {self.end_s}]"
            )


@dataclass(frozen=True)
class VideoRecord:
    video_id: str
    cas: Cas
    labels: tuple[int, ...]
    fps: float
    gt: tuple[GroundTruthSegment, ...] | None = None

    def __post_init__(self):
        # the id names the video's files (``<id>.csv`` in a corpus and in
        # ablate's plot_data), so it must be one path component
        if self.video_id in ("", ".", "..") or "/" in self.video_id or "\0" in self.video_id:
            raise InputError(f"video id {self.video_id!r} is not a file name")
        if not 0 < self.fps < math.inf:
            raise InputError("fps must be positive and finite")
        labels = tuple(sorted(set(int(k) for k in self.labels)))
        if labels and not (1 <= labels[0] and labels[-1] <= self.cas.num_classes):
            raise InputError(f"labels {labels} outside 1..{self.cas.num_classes}")
        object.__setattr__(self, "labels", labels)
        if self.gt is not None:
            object.__setattr__(self, "gt", tuple(self.gt))
