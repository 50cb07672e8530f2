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
from .io import POSITIVE_FINITE, POSITIVE_INTEGER, UNIT, _is_int, _is_number, check_object
from .selection import snippet_to_time


def _pair(lo_min: int) -> tuple:
    """The rule of a [lo, hi] range of integers with lo_min <= lo <= hi."""
    return (lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_int, v))
            and lo_min <= v[0] <= v[1], f"a pair of integers {lo_min} <= lo <= hi")


# spec key -> (check of its value, what the check asks for)
_RULES = {
    "num_classes": POSITIVE_INTEGER,
    "t_range": _pair(1),
    "instances_range": _pair(0),
    "base_activation": (lambda v: _is_number(v) and 0 < v <= 1, "a number in (0, 1]"),
    "noise_amp": UNIT,
    "dip_prob": UNIT,
    "bridge_prob": UNIT,
    "instance_len_range": _pair(3),
    "gap_range": _pair(1),
    "background": UNIT,
    "level_jitter": UNIT,
    "dip_level": UNIT,
    "dip_width_range": _pair(1),
    "dip_central": (lambda v: isinstance(v, bool), "a boolean"),
    "bridge_level": UNIT,
    "fps": POSITIVE_FINITE,
}


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
        for name, value in check_object(dict(vars(self)), "synth spec", _RULES).items():
            if isinstance(value, list):  # a JSON pair
                object.__setattr__(self, name, tuple(value))

    @classmethod
    def from_dict(cls, data: dict) -> "SynthSpec":
        required = {f.name for f in fields(cls) if f.default is MISSING}
        return cls(**check_object(data, "synth spec", _RULES, required))

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
    if not _is_int(count):
        raise InputError(f"count must be an integer, got {count!r}")
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
