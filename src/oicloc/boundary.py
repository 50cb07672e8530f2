"""Anchor scales, clipping, inflation and the backward chain rule.

Pipeline order is fixed: regress (:func:`selection.build_candidates`) ->
clip -> inflate -> clip. Coordinates are continuous snippet positions;
rounding to the padded grid happens only when activations are fetched.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError, _is_finite, check_object

if TYPE_CHECKING:
    from .oic import BoundaryGradients


_ANCHOR_RULES = {"scales": (lambda v: isinstance(v, (list, tuple)) and len(v) > 0
                             and all(_is_finite(s) and s >= 1 for s in v),
                             "a non-empty list or tuple of finite numbers >= 1")}


@dataclass(frozen=True)
class AnchorConfig:
    """Anchor lengths in snippets, strictly increasing."""

    scales: tuple[float, ...]

    def __post_init__(self):
        check_object(vars(self), "anchor config", _ANCHOR_RULES)
        scales = tuple(map(float, self.scales))
        if any(b <= a for a, b in zip(scales, scales[1:])):
            raise InputError("anchor scales must be strictly increasing")
        object.__setattr__(self, "scales", scales)

    @property
    def count(self) -> int:
        return len(self.scales)


def round_boundary(x):
    """Round half away from zero to the nearest snippet index (scalar or array)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x).astype(np.int64)


def clip_zero_pad(x1, x2, T: int):
    """Clip boundaries (scalars or arrays) into the zero-padded grid [0, T+1]."""
    hi = float(T + 1)
    return np.minimum(np.maximum(x1, 0.0), hi), np.minimum(np.maximum(x2, 0.0), hi)


def inflate(x1, x2, w, alpha: float, T: int):
    """Extend inner boundaries (scalars or arrays) by ratio alpha, >= 1 snippet
    per side, then clip. For x1 <= x2 and lengths w > 0, as both callers
    ensure, the outer boundaries satisfy X1 < X2 before clipping."""
    if not (_is_finite(alpha) and alpha > 0):
        raise InputError("inflation ratio must be positive and finite")
    X1 = np.minimum(x1 - w * alpha, x1 - 1.0)
    X2 = np.maximum(x2 + w * alpha, x2 + 1.0)
    return clip_zero_pad(X1, X2, T)


def transform_backward(g: "BoundaryGradients", w_a, w, alpha: float, min_offset):
    """Chain boundary-coordinate gradients back into (t_x, t_w), element-wise.

    ``w_a`` is the anchor length and ``w`` the regressed length w_a * exp(t_w);
    all arguments but ``alpha`` may be scalars or broadcasting arrays.
    Clipping is straight-through: clipped coordinates pass their partials
    unchanged. A side in the minimum-offset regime (``min_offset``: w * alpha
    < 1) moves rigidly with its inner boundary, so it inherits the inner
    side's partials.
    """
    d_tx = (g.d_x1 + g.d_x2 + g.d_X1 + g.d_X2) * w_a
    dX1_dtw = np.where(min_offset, -w / 2.0, -w / 2.0 - alpha * w)
    dX2_dtw = np.where(min_offset, w / 2.0, w / 2.0 + alpha * w)
    d_tw = g.d_x1 * (-w / 2.0) + g.d_x2 * (w / 2.0) + g.d_X1 * dX1_dtw + g.d_X2 * dX2_dtw
    return d_tx, d_tw
