"""Outer-inner contrastive loss: one array kernel for the loss and its areas,
extended by the boundary gradients.

All activation lookups happen at rounded (integer) snippet coordinates on the
zero-padded grid [0, T+1]; "integrals" are inclusive discrete sums with
inclusive lengths (x2 - x1 + 1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OicBreakdown:
    a_outer: np.ndarray
    a_inner: np.ndarray
    loss: np.ndarray


@dataclass(frozen=True)
class BoundaryGradients:
    d_x1: np.ndarray
    d_x2: np.ndarray
    d_X1: np.ndarray
    d_X2: np.ndarray


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
