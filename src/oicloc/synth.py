"""Synthetic benchmark corpora with planted action instances.

Videos are plateaus over a low background, optionally perturbed with the two
failure modes simple thresholding trips over: a deep narrow notch inside an
instance (over-segmentation bait) and an elevated bridge between two adjacent
instances of the same class (merge bait). Instance levels jitter so that no
single global threshold separates action from context in every video.
"""
from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .cas import Cas, GroundTruthSegment, VideoRecord
from .errors import InputError
from .io import _is_finite, _is_int, _is_number, check_object
from .selection import snippet_to_time

# annotated field type -> (check of its value, what the check asks for)
_FIELD_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "tuple[int, int]": (lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_is_int, v)),
                        "a pair of integers"),
}
# activation levels and probabilities
_UNIT_FIELDS = ("background", "noise_amp", "dip_prob", "bridge_prob", "level_jitter",
                "dip_level", "bridge_level")


@dataclass(frozen=True)
class SynthSpec:
    num_classes: int
    t_range: tuple[int, int]
    instances_range: tuple[int, int]
    base_activation: float = 0.9
    noise_amp: float = 0.0
    dip_prob: float = 0.0
    bridge_prob: float = 0.0
    instance_len_range: tuple[int, int] = (6, 20)
    gap_range: tuple[int, int] = (4, 12)
    background: float = 0.03
    level_jitter: float = 0.0
    dip_level: float = 0.05
    dip_width_range: tuple[int, int] = (1, 2)
    dip_central: bool = False  # confine the notch to the middle third
    bridge_level: float = 0.5
    fps: float = 30.0

    def __post_init__(self):
        for f in fields(self):
            valid, kind = _FIELD_TYPES[f.type]
            if not valid(getattr(self, f.name)):
                raise InputError(f"{f.name!r} must be {kind}")
            if f.type == "tuple[int, int]":
                lo, hi = getattr(self, f.name)
                if lo > hi or lo < (0 if f.name == "instances_range" else 1):
                    raise InputError(f"empty or invalid range {f.name}={lo, hi}")
        for name in _UNIT_FIELDS:
            if not 0.0 <= getattr(self, name) <= 1.0:  # False for NaN
                raise InputError(f"{name!r} must be a finite number in [0, 1]")
        if self.num_classes < 1:
            raise InputError("need at least one class")
        if not (0.0 < self.base_activation <= 1.0):
            raise InputError("base_activation must lie in (0, 1]")
        if self.instance_len_range[0] < 3:
            raise InputError("instances must be at least 3 snippets long")
        if not (_is_finite(self.fps) and self.fps > 0):
            raise InputError("'fps' must be a positive finite number")

    @classmethod
    def from_dict(cls, data: dict) -> "SynthSpec":
        required = {f.name for f in fields(cls) if f.default is MISSING}
        check_object(data, "synth spec", {f.name for f in fields(cls)}, required)
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def _place_instances(rng, spec: SynthSpec, T: int, count: int) -> list[tuple[int, int]]:
    """Lay out non-overlapping [start, end] snippet spans left to right."""
    spans = []
    cursor = 1 + int(rng.integers(1, spec.gap_range[0] + 1))
    for _ in range(count):
        length = int(rng.integers(spec.instance_len_range[0], spec.instance_len_range[1] + 1))
        if cursor + length - 1 > T - 1:
            break
        spans.append((cursor, cursor + length - 1))
        cursor += length + int(rng.integers(spec.gap_range[0], spec.gap_range[1] + 1))
    return spans


def synth_corpus(spec: SynthSpec, seed: int, count: int, prefix: str = "video") -> list[VideoRecord]:
    """Generate `count` videos; byte-identical for the same (spec, seed)."""
    if count < 1:
        raise InputError(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    videos = []
    for i in range(count):
        T = int(rng.integers(spec.t_range[0], spec.t_range[1] + 1))
        n_target = int(rng.integers(spec.instances_range[0], spec.instances_range[1] + 1))
        k = int(rng.integers(1, spec.num_classes + 1))
        spans = _place_instances(rng, spec, T, n_target)
        act = np.full((spec.num_classes, T), spec.background)
        gt = []
        for s, e in spans:
            level = spec.base_activation - float(rng.uniform(0.0, spec.level_jitter))
            act[k - 1, s - 1 : e] = level
            if rng.uniform() < spec.dip_prob:
                width = int(rng.integers(spec.dip_width_range[0], spec.dip_width_range[1] + 1))
                width = min(width, e - s - 1)  # keep the notch strictly interior
                if spec.dip_central:
                    length = e - s + 1
                    lo = max(s + 1, s + length // 3)
                    hi = min(e - width, e - length // 3 - width + 1)
                else:
                    lo = s + 1
                    hi = e - width  # notch start so the notch ends before e
                if hi < lo:
                    lo = hi = max(s + 1, min(e - width, s + (e - s) // 2))
                d0 = int(rng.integers(lo, hi + 1))
                act[k - 1, d0 - 1 : d0 - 1 + width] = spec.dip_level
            gt.append(GroundTruthSegment(k, snippet_to_time(s, spec.fps),
                                         snippet_to_time(e, spec.fps)))
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            if rng.uniform() < spec.bridge_prob:
                act[k - 1, e1 : s2 - 1] = spec.bridge_level
        if spec.noise_amp > 0:
            act = act + rng.normal(0.0, spec.noise_amp, size=act.shape)
        act = np.clip(act, 0.0, 1.0)
        videos.append(
            VideoRecord(
                video_id=f"{prefix}_{i:04d}",
                cas=Cas(act),
                labels=(k,),
                fps=spec.fps,
                gt=tuple(gt),
            )
        )
    return videos
