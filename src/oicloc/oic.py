"""Outer-inner contrastive loss: one array kernel for the loss and its areas,
extended by the boundary gradients, with one-hypothesis views and the
step-filter profile.

All activation lookups happen at rounded (integer) snippet coordinates on the
zero-padded grid [0, T+1]; "integrals" are inclusive discrete sums with
inclusive lengths (x2 - x1 + 1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import round_boundary
from .cas import Cas
from .errors import DegenerateOuterError, InputError


@dataclass(frozen=True)
class SegmentHypothesis:
    """Inner boundary [x1, x2], outer boundary [X1, X2], class k (1-based)."""

    x1: float
    x2: float
    X1: float
    X2: float
    k: int

    def __post_init__(self):
        if not (self.X1 <= self.x1 <= self.x2 <= self.X2):
            raise InputError(
                f"need X1 <= x1 <= x2 <= X2, got ({self.X1}, {self.x1}, {self.x2}, {self.X2})"
            )


@dataclass(frozen=True)
class OicBreakdown:
    a_outer: float
    a_inner: float
    loss: float


@dataclass(frozen=True)
class BoundaryGradients:
    d_x1: float
    d_x2: float
    d_X1: float
    d_X2: float


def _rounded(h: SegmentHypothesis, T: int) -> tuple[int, int, int, int]:
    """Rounded (rx1, rx2, rX1, rX2): the outer on the padded grid, around a non-empty ring."""
    rx1, rx2, rX1, rX2 = round_boundary(np.array([h.x1, h.x2, h.X1, h.X2])).tolist()
    if rX1 < 0 or rX2 > T + 1:
        raise InputError(f"rounded outer [{rX1}, {rX2}] outside padded grid [0, {T + 1}]")
    if (rX2 - rX1) - (rx2 - rx1) < 1:
        raise DegenerateOuterError(
            f"rounded outer [{rX1}, {rX2}] does not strictly contain inner [{rx1}, {rx2}]"
        )
    return rx1, rx2, rX1, rX2


def oic_forward(cas: Cas, h: SegmentHypothesis) -> OicBreakdown:
    """Average outer-ring activation minus average inner activation."""
    a = oic_areas(cas.padded_row(h.k)[None], 0, *_rounded(h, cas.num_snippets))[0]
    return OicBreakdown(float(a.a_outer), float(a.a_inner), float(a.loss))


def oic_backward(cas: Cas, h: SegmentHypothesis) -> BoundaryGradients:
    """Analytic partials of the loss w.r.t. the four boundary coordinates."""
    g = oic_kernel(cas.padded_row(h.k)[None], 0, *_rounded(h, cas.num_snippets))[1]
    return BoundaryGradients(float(g.d_x1), float(g.d_x2), float(g.d_X1), float(g.d_X2))


def oic_areas(padded, k, rx1, rx2, rX1, rX2, inner_only: bool = False):
    """OIC loss and areas for arrays of rounded hypotheses, without gradients.

    ``padded`` holds zero-padded rows (index == snippet on [0, T+1]); ``k``
    and the rounded boundaries are broadcasting index arrays, and every ring
    must be non-empty. Box sums are differences of one prefix sum per row
    (a summed-area table). With ``inner_only`` the loss is the negated inner
    average and the outer area is zero. Returns the areas record (of arrays)
    with the inner and ring lengths (``None`` for ``inner_only``).
    """
    csum = np.zeros((padded.shape[0], padded.shape[1] + 1))
    np.cumsum(padded, axis=1, out=csum[:, 1:])  # box [a, b] = csum[b + 1] - csum[a]
    inner_len = rx2 - rx1 + 1
    inner_sum = csum[k, rx2 + 1] - csum[k, rx1]
    a_inner = inner_sum / inner_len
    if inner_only:
        return OicBreakdown(np.zeros_like(a_inner), a_inner, -a_inner), inner_len, None
    ring_len = (rX2 - rX1 + 1) - inner_len
    a_outer = (csum[k, rX2 + 1] - csum[k, rX1] - inner_sum) / ring_len
    return OicBreakdown(a_outer, a_inner, a_outer - a_inner), inner_len, ring_len


def oic_kernel(
    padded, k, rx1, rx2, rX1, rX2, inner_only: bool = False
) -> tuple[OicBreakdown, BoundaryGradients]:
    """:func:`oic_areas` plus the boundary gradients (zero for the outer
    boundaries with ``inner_only``). Both returned records hold arrays."""
    areas, inner_len, ring_len = oic_areas(padded, k, rx1, rx2, rX1, rX2, inner_only)
    a_outer, a_inner = areas.a_outer, areas.a_inner
    f_x1, f_x2 = padded[k, rx1], padded[k, rx2]
    if inner_only:
        zero = a_outer  # oic_areas' all-zero outer area
        d_x1 = -(a_inner - f_x1) / inner_len
        d_x2 = -(f_x2 - a_inner) / inner_len
        return areas, BoundaryGradients(d_x1, d_x2, zero, zero)
    d_x1 = (f_x1 - a_outer) / ring_len - (a_inner - f_x1) / inner_len
    d_x2 = (a_outer - f_x2) / ring_len - (f_x2 - a_inner) / inner_len
    d_X1 = (a_outer - padded[k, rX1]) / ring_len
    d_X2 = (padded[k, rX2] - a_outer) / ring_len
    return areas, BoundaryGradients(d_x1, d_x2, d_X1, d_X2)


def step_filter_weights(h: SegmentHypothesis, T: int) -> tuple[int, np.ndarray, float]:
    """Signed step-filter profile over [round(X1), round(X2)].

    Returns (start index, weights, norm). The weights are integer-valued
    (+inner_len on the outer ring, -ring_len on the inner area) so they sum
    to exactly zero in float arithmetic; dividing the dot product of the
    weights with the padded activation row by norm = inner_len * ring_len
    reproduces the loss.
    """
    rx1, rx2, rX1, rX2 = _rounded(h, T)
    inner_len = rx2 - rx1 + 1
    ring_len = (rX2 - rX1 + 1) - inner_len
    weights = np.full(rX2 - rX1 + 1, float(inner_len))
    weights[rx1 - rX1 : rx2 - rX1 + 1] = -float(ring_len)
    return rX1, weights, float(inner_len * ring_len)
