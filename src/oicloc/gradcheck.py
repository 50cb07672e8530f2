"""Finite-difference verification of every analytic gradient path.

Three suites: (1) boundary-coordinate gradients of the contrastive loss
against +-1-snippet symmetric differences, (2) the regression-slot gradients
of the training loss (kernel plus anchor chain rule) against central
differences of a smooth surrogate loss, and (3) the network backward pass
against central differences of a scalar projection loss.

The surrogate in (2) extends the rounded-coordinate loss linearly inside each
rounding cell (first-order expansion around the rounded snippet), so its
derivative equals the analytic formulas as long as no coordinate crosses a
cell edge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oic
from .boundary import AnchorConfig, round_boundary
from .cas import Cas
from .regressor import NetworkB
from .selection import build_candidates, training_loss


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol


def smooth_loss(cas: Cas, k: int, x1: float, x2: float, X1: float, X2: float) -> float:
    """In-cell linear extension of the rounded-coordinate contrastive loss."""
    row = cas.padded[k - 1]

    def area(a: float, b: float) -> tuple[float, float]:
        ra, rb = round_boundary(a), round_boundary(b)
        total = float(row[ra : rb + 1].sum())
        total += -row[ra] * (a - ra) + row[rb] * (b - rb)
        return total, b - a + 1.0

    inner, inner_len = area(x1, x2)
    outer, outer_len = area(X1, X2)
    return (outer - inner) / (outer_len - inner_len) - inner / inner_len


def check_oic_discrete(seed: int = 0) -> CheckResult:
    """Analytic boundary partials vs +-1-snippet symmetric differences, each
    over all cases in one kernel call."""
    rng = np.random.default_rng(seed)
    T, cases = 80, 1000
    padded = np.zeros((cases, T + 2))  # one zero-padded CAS row per case
    boxes = np.zeros((4, cases), dtype=np.int64)  # x1, x2, X1, X2 per case
    for i in range(cases):
        padded[i, 1:-1] = rng.uniform(0.0, 1.0, size=T)
        # an inner of 10-24 snippets and 5-17 ring snippets per side: at most
        # 58 in all, placed so that 1 <= X1 and X2 <= T, which keeps every
        # +-1 difference on the padded grid [0, T+1]
        inner_len = int(rng.integers(10, 25))
        left_ring = int(rng.integers(5, 18))
        right_ring = int(rng.integers(5, 18))
        X1 = int(rng.integers(1, T - (inner_len + left_ring + right_ring) + 2))
        x1 = X1 + left_ring
        x2 = x1 + inner_len - 1
        boxes[:, i] = x1, x2, X1, x2 + right_ring
    rows = np.arange(cases)
    g = oic.oic_kernel(padded, rows, *boxes)[1]
    x1, x2, X1, X2 = boxes
    tol = 3.0 / np.minimum(x2 - x1 + 1, (X2 - X1) - (x2 - x1))
    worst = 0.0
    for j, name in enumerate(("d_x1", "d_x2", "d_X1", "d_X2")):
        step = np.eye(4, dtype=np.int64)[:, [j]]  # +1 on box coordinate j
        up = oic.oic_areas(padded, rows, *(boxes + step))[0].loss
        down = oic.oic_areas(padded, rows, *(boxes - step))[0].loss
        err = np.abs(getattr(g, name) - (up - down) / 2.0) / tol
        worst = max(worst, float(err.max()))
    # errors are reported relative to the per-case tolerance 3/min(len)
    return CheckResult("oic-discrete-differences", worst, 1.0)


_TRANSFORM_SETUPS = [
    # (w_a, t_x, t_w target length) -- all chosen so coordinates land on integers
    (8.0, 0.0, 8.0),
    (8.0, 0.25, 12.0),
    (8.0, -0.25, 16.0),
    (12.0, 0.25, 8.0),
    (2.0, 0.5, 2.0),  # minimum-offset regime (w * alpha < 1)
    (2.0, 0.0, 2.0),
]


def check_transform_fd(seed: int = 0) -> CheckResult:
    """training_loss's (t_x, t_w) gradients for one kept hypothesis vs central
    differences of the surrogate loss at the boundaries build_candidates gives."""
    rng = np.random.default_rng(seed)
    T, alpha, step, cases = 60, 0.25, 1e-4, 200
    worst = 0.0
    for i in range(cases):
        cas = Cas(rng.uniform(0.05, 0.95, size=(1, T)))
        w_a, t_x, w_target = _TRANSFORM_SETUPS[i % len(_TRANSFORM_SETUPS)]
        t_w = math.log(w_target / w_a)
        t = int(rng.integers(22, T - 22)) - 1  # grid row of the anchor's position
        anchors = AnchorConfig((w_a,))

        def grid(tx: float, tw: float):
            reg_map = np.zeros((2, T))
            reg_map[:, t] = tx, tw
            return build_candidates(reg_map, anchors, alpha)

        def end_to_end(tx: float, tw: float) -> float:
            c = grid(tx, tw)
            return smooth_loss(cas, 1, c.x1[t, 0], c.x2[t, 0], c.X1[t, 0], c.X2[t, 0])

        kept = np.array([1]), np.array([t]), np.array([0])  # class 1, position t, anchor 0
        d_tx, d_tw = training_loss(cas, grid(t_x, t_w), kept)[1][:, t]
        fd_tx = (end_to_end(t_x + step, t_w) - end_to_end(t_x - step, t_w)) / (2 * step)
        fd_tw = (end_to_end(t_x, t_w + step) - end_to_end(t_x, t_w - step)) / (2 * step)
        for analytic, approx in ((d_tx, fd_tx), (d_tw, fd_tw)):
            err = abs(analytic - approx) / max(abs(analytic), abs(approx), 1e-6)
            worst = max(worst, err)
    return CheckResult("transform-finite-differences", worst, 1e-4)


def check_network_fd(seed: int = 0) -> CheckResult:
    """Network backward vs central differences of a projection loss."""
    rng = np.random.default_rng(seed)
    T, step = 7, 1e-4
    net = NetworkB(feature_dim=3, anchor_count=2, hidden=4, seed=seed)
    assert net.params.flat.size <= 1000
    # randomize everything (incl. the zero-initialized pred layer) so no
    # gradient path is trivially zero
    for name, p in net.params.items():
        net.params[name] = p + 0.3 * rng.standard_normal(p.shape)
    feat = rng.standard_normal((3, T))
    grad_proj = rng.standard_normal((4, T))

    def scalar_loss() -> float:
        out, _ = net.forward(feat, mode="train")
        return float((out * grad_proj).sum())

    _, cache = net.forward(feat, mode="train")
    grads = net.backward(cache, grad_proj)
    worst = 0.0
    for name, p in net.params.items():
        g = grads[name]
        # indexed, not raveled: a tap-major conv weight's ravel is a copy
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + step
            up = scalar_loss()
            p[idx] = orig - step
            down = scalar_loss()
            p[idx] = orig
            approx = (up - down) / (2 * step)
            analytic = g[idx]
            err = abs(analytic - approx) / max(abs(analytic), abs(approx), 1e-4)
            worst = max(worst, err)
    return CheckResult("network-finite-differences", worst, 1e-4)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [
        check_oic_discrete(seed),
        check_transform_fd(seed),
        check_network_fd(seed),
    ]
