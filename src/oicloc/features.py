"""Deterministic snippet features for corpora that ship activations only.

The manifest format carries no backbone feature files, so the regressor input
is a fixed random lift of the CAS: the K class rows plus their per-snippet
maximum, projected to feature_dim channels and squashed. The projection seed
is a package constant so that training and inference always agree.
"""
from __future__ import annotations

import functools

import numpy as np

from . import regressor
from .cas import Cas

_EMBED_SEED = 180907


def lift_worker(cas: Cas, feature_dim: int):
    """``regressor._worker`` for the lift of ``cas`` to ``feature_dim`` rows,
    from its multiply-adds ``feature_dim * (K+1) * T``."""
    return regressor._worker(feature_dim * (cas.num_classes + 1) * cas.num_snippets)


def cas_to_features(cas: Cas, feature_dim: int) -> np.ndarray:
    """Lift a K x T CAS to a feature_dim x T feature map, deterministically.

    The map is the interior of a zeroed buffer one column wider on each side
    (``regressor.zero_bordered``), which the net's first conv reads in place
    as its padded input, so the map is held once.
    """
    aug = np.vstack([cas.act, cas.act.max(axis=0, keepdims=True)])
    feat = regressor.zero_bordered(feature_dim, cas.num_snippets)
    np.matmul(_projection(cas.num_classes, feature_dim), aug, out=feat)
    # squash the whole contiguous buffer, in row halves at once with the worker
    # (elementwise, so bit-equal; whole on the worker thread itself): tanh(+0.0)
    # is +0.0, so the border stays zero
    buf = feat.base
    regressor._in_halves(lift_worker(cas, feature_dim), np.tanh, (buf, buf))
    return feat


@functools.lru_cache(maxsize=16)
def _projection(num_classes: int, feature_dim: int) -> np.ndarray:
    """The fixed feature_dim x (K+1) random lift, drawn once per shape, read-only."""
    rng = np.random.default_rng(_EMBED_SEED + num_classes)
    proj = rng.standard_normal((feature_dim, num_classes + 1)) / np.sqrt(num_classes + 1)
    proj.setflags(write=False)
    return proj
