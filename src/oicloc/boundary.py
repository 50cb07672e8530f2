"""Anchor regression, clipping, inflation and the backward chain rule.

Pipeline order is fixed: regress -> clip -> inflate -> clip. Coordinates are
continuous snippet positions; rounding to the padded grid happens only when
activations are fetched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    from .oic import BoundaryGradients


@dataclass(frozen=True)
class AnchorConfig:
    """Anchor lengths in snippets, strictly increasing."""

    scales: tuple[float, ...]

    def __post_init__(self):
        scales = tuple(float(s) for s in self.scales)
        if len(scales) < 1:
            raise InputError("need at least one anchor scale")
        if any(s < 1 for s in scales):
            raise InputError("anchor scales must be >= 1 snippet")
        if any(b <= a for a, b in zip(scales, scales[1:])):
            raise InputError("anchor scales must be strictly increasing")
        object.__setattr__(self, "scales", scales)

    @property
    def count(self) -> int:
        return len(self.scales)


@dataclass(frozen=True)
class RegressionPair:
    """Center shift t_x and log-length scale t_w for one anchor."""

    t_x: float
    t_w: float

    def __post_init__(self):
        if not (math.isfinite(self.t_x) and math.isfinite(self.t_w)):
            raise InputError("regression values must be finite")


@dataclass(frozen=True)
class ClipState:
    """Whether the outer sides were in the minimum-offset regime (w * alpha < 1)."""

    min_offset: bool = False


def round_boundary(x):
    """Round half away from zero to the nearest snippet index (scalar or array)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x).astype(np.int64)


def regress_anchor(s_x: float, w_a: float, r: RegressionPair) -> tuple[float, float]:
    """Shift the anchor center by w_a*t_x and rescale its length by exp(t_w)."""
    if w_a <= 0:
        raise InputError("anchor length must be positive")
    c_x = s_x + w_a * r.t_x
    w = w_a * math.exp(r.t_w)
    return c_x - w / 2.0, c_x + w / 2.0


def clip_zero_pad(x1, x2, T: int):
    """Clip boundaries (scalars or arrays) into the zero-padded grid [0, T+1]."""
    if np.any(np.greater(x1, x2)):
        raise InputError(f"boundary must satisfy x1 <= x2, got ({x1}, {x2})")
    hi = float(T + 1)
    return np.minimum(np.maximum(x1, 0.0), hi), np.minimum(np.maximum(x2, 0.0), hi)


def inflate(x1, x2, w, alpha: float, T: int):
    """Extend inner boundaries (scalars or arrays) by ratio alpha, >= 1 snippet per side."""
    if np.any(np.greater(x1, x2)):
        raise InputError(f"boundary must satisfy x1 <= x2, got ({x1}, {x2})")
    if np.any(np.less_equal(w, 0)) or alpha <= 0:
        raise InputError("predicted length and inflation ratio must be positive")
    X1 = np.minimum(x1 - w * alpha, x1 - 1.0)
    X2 = np.maximum(x2 + w * alpha, x2 + 1.0)
    return clip_zero_pad(X1, X2, T)


def transform_backward(
    g: "BoundaryGradients",
    s_x: float,
    w_a: float,
    r: RegressionPair,
    alpha: float,
    clip_state: ClipState,
) -> tuple[float, float]:
    """Chain boundary-coordinate gradients back into (t_x, t_w).

    Clipping is straight-through: clipped coordinates pass their partials
    unchanged. A side in the minimum-offset regime moves rigidly with its
    inner boundary, so it inherits the inner side's partials.
    """
    w = w_a * math.exp(r.t_w)
    d_tx = (g.d_x1 + g.d_x2 + g.d_X1 + g.d_X2) * w_a
    if clip_state.min_offset:
        dX1_dtw = -w / 2.0
        dX2_dtw = w / 2.0
    else:
        dX1_dtw = -w / 2.0 - alpha * w
        dX2_dtw = w / 2.0 + alpha * w
    d_tw = (
        g.d_x1 * (-w / 2.0)
        + g.d_x2 * (w / 2.0)
        + g.d_X1 * dX1_dtw
        + g.d_X2 * dX2_dtw
    )
    return d_tx, d_tw
