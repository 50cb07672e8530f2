"""Layer timers for the traced run.

While installed, a Tracer replaces the library's public functions at the
module and class attributes through which the pipeline looks them up, so
every call is timed at the layer boundary without changing the library.
Counts are computed from each call's public inputs and outputs only.
Spans nest: ``busy_s`` is inclusive of any traced calls made inside.
"""
from __future__ import annotations

import contextlib
import inspect
import math
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from oicloc import baselines, evaluation, io, regressor, synth, train

TRAIN_PREDICT = ("train", "predict")
PERCENTILE_MIN_CALLS = 200
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


def _forward_flop(net, T: int) -> float:
    """Multiply-adds of every conv layer, counted as two flops each."""
    widths = [net.feature_dim] + [net.hidden] * regressor.HIDDEN_LAYERS + [2 * net.anchor_count]
    return 2.0 * regressor.KERNEL * T * sum(a * b for a, b in zip(widths, widths[1:]))


def _count_select(tracer, phase, args, result):
    classes = sorted({int(k) for k in args["classes"]})
    act = args["cas"].act[[k - 1 for k in classes]]
    gated = int(np.count_nonzero(act >= args["act_min"]))
    tracer.counts[f"selection.positions.{phase}"] += act.size
    tracer.counts[f"selection.positions_gated.{phase}"] += gated
    tracer.counts[f"selection.hypotheses.{phase}"] += gated * tracer.anchor_count
    tracer.counts[f"selection.kept.{phase}"] += int(np.count_nonzero(result[0]))


def _count_forward(tracer, phase, args, result):
    tracer.counts["regressor.conv_flop"] += _forward_flop(args["self"], args["feat"].shape[1])


def _count_backward(tracer, phase, args, result):
    # dW and dX each cost one forward's worth of multiply-adds
    tracer.counts["regressor.conv_flop"] += 2 * _forward_flop(
        args["self"], np.shape(args["grad_out"])[1]
    )


def _count_checkpoint(tracer, phase, args, result):
    tracer.counts["regressor.checkpoint_bytes"] = os.path.getsize(args["path"])


def _count_pairs(tracer, phase, args, result):
    T = args["cas"].num_snippets
    max_len = args["max_len"] or T
    tracer.counts["baselines.oic_selection_enumerate.pairs"] += sum(
        min(max_len, T - x1 + 1) for x1 in range(1, T + 1)
    )
    tracer.counts["baselines.oic_selection_enumerate.snippets"] += T


def _count_video(tracer, phase, args, result):
    tracer.counts["baselines.direct_optimize.snippets"] += args["video"].cas.num_snippets


def _count_corpus(tracer, phase, args, result):
    tracer.counts["baselines.train_inner_only.snippets"] += args["cfg"].epochs * sum(
        v.cas.num_snippets for v in args["corpus"]
    )


# span name, phases (None: one span; "stack": the enclosing train_step or
# predict_video; "mode": the forward mode), per-call percentiles, count hook
SPANS = {
    "features.cas_to_features": ("stack", True, None),
    "selection.build_candidates": ("stack", True, None),
    "selection.select": ("stack", True, _count_select),
    "selection.training_loss": (None, True, None),
    "regressor.forward": ("mode", True, _count_forward),
    "regressor.backward": (None, True, _count_backward),
    "regressor.sgd_step": (None, True, None),
    "regressor.save": (None, False, _count_checkpoint),
    "regressor.load": (None, False, None),
    "io.read_manifest": (None, False, None),
    "io.write_manifest": (None, False, None),
    "io.write_predictions_jsonl": (None, False, None),
    "io.read_predictions_jsonl": (None, False, None),
    "synth.synth_corpus": (None, False, None),
    "evaluation.map_report": (None, False, None),
    "baselines.threshold_sweep": (None, False, None),
    "baselines.oic_selection_enumerate": (None, False, _count_pairs),
    "baselines.direct_optimize": (None, False, _count_video),
    "baselines.train_inner_only": (None, False, _count_corpus),
}
PHASE_NAMES = {None: (None,), "stack": TRAIN_PREDICT, "mode": ("train", "infer")}
SNIPPET_RATES = (
    "baselines.oic_selection_enumerate",
    "baselines.direct_optimize",
    "baselines.train_inner_only",
)


def _sites():
    """(owner, attribute, span name or None, phase the call sets or None)."""
    net = regressor.NetworkB
    sites = [
        (train, "cas_to_features", "features.cas_to_features", None),
        (train, "build_candidates", "selection.build_candidates", None),
        (train, "select", "selection.select", None),
        (train, "training_loss", "selection.training_loss", None),
        (train, "sgd_step", "regressor.sgd_step", None),
        (net, "forward", "regressor.forward", None),
        (net, "backward", "regressor.backward", None),
        (net, "save", "regressor.save", None),
        (net, "load", "regressor.load", None),
    ]
    for module in (io, synth, evaluation, baselines):
        prefix = module.__name__.rsplit(".", 1)[1]
        sites += [(module, name.split(".", 1)[1], name, None)
                  for name in SPANS if name.startswith(prefix + ".")]
    for module in (train, baselines):
        sites += [(module, "train_step", None, "train"), (module, "predict_video", None, "predict")]
    return sites


def _tail(samples: list[float]) -> tuple[float, float]:
    """Highest tabled percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= TAIL_MIN_BEYOND:
            return level, ordered[math.ceil(level / 100.0 * n) - 1]
    return 0.0, 0.0


class Tracer:
    """Per-span call durations and computed counts, kept in memory."""

    def __init__(self, anchor_count: int):
        self.anchor_count = anchor_count
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self._phases: list[str] = []

    def _wrap(self, fn, span, sets_phase):
        kind, _, hook = SPANS.get(span, (None, False, None))
        signature = inspect.signature(fn) if kind == "mode" or hook else None

        def traced(*args, **kwargs):
            bound = None
            if signature:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            phase = None
            if kind == "stack":
                phase = self._phases[-1] if self._phases else "predict"
            elif kind == "mode":
                phase = bound.arguments["mode"]
            if sets_phase:
                self._phases.append(sets_phase)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if sets_phase:
                    self._phases.pop()
            if span:
                self.samples[span if phase is None else f"{span}.{phase}"].append(elapsed)
            if hook:
                hook(self, phase, bound.arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every call site for the duration of the block."""
        restore = []
        try:
            for owner, attr, span, sets_phase in _sites():
                raw = inspect.getattr_static(owner, attr, None)
                if raw is None:
                    continue  # the library no longer has this entry point
                traced = self._wrap(getattr(owner, attr), span, sets_phase)
                if isinstance(raw, (classmethod, staticmethod)):
                    traced = staticmethod(traced)
                setattr(owner, attr, traced)
                restore.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    def _busy(self, span: str) -> float:
        return sum(self.samples.get(span, ()))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, zero where the run never reached the layer."""
        out: dict[str, tuple[float, str]] = {}
        for name, (kind, percentiles, _) in SPANS.items():
            for phase in PHASE_NAMES[kind]:
                span = name if phase is None else f"{name}.{phase}"
                samples = self.samples.get(span, [])
                out[f"{span}.calls"] = (len(samples), "count")
                out[f"{span}.busy_s"] = (sum(samples), "s")
                if percentiles:
                    enough = len(samples) >= PERCENTILE_MIN_CALLS
                    level, tail = _tail(samples) if enough else (0.0, 0.0)
                    out[f"{span}.p50_ms"] = (statistics.median(samples) * 1e3 if enough else 0.0, "ms")
                    out[f"{span}.tail_ms"] = (tail * 1e3, "ms")
                    out[f"{span}.tail_pct"] = (level, "%")
        for phase in TRAIN_PREDICT:
            counts = {c: self.counts[f"selection.{c}.{phase}"]
                      for c in ("positions", "positions_gated", "hypotheses", "kept")}
            for c, value in counts.items():
                out[f"selection.{c}.{phase}"] = (value, "count")
            hyp = counts["hypotheses"]
            out[f"selection.kept_ratio.{phase}"] = (counts["kept"] / hyp if hyp else 0.0, "frac")
            busy = self._busy(f"selection.select.{phase}")
            out[f"oic.hypotheses_per_s.{phase}"] = (hyp / busy if busy else 0.0, "1/s")
        gflop = self.counts["regressor.conv_flop"] / 1e9
        conv_busy = sum(self._busy(s) for s in (
            "regressor.forward.train", "regressor.forward.infer", "regressor.backward"))
        out["regressor.conv_gflop"] = (gflop, "GFLOP")
        out["regressor.conv_gflops_per_s"] = (gflop / conv_busy if conv_busy else 0.0, "GFLOP/s")
        out["regressor.checkpoint_bytes"] = (self.counts["regressor.checkpoint_bytes"], "B")
        out["baselines.oic_selection_enumerate.pairs"] = (
            self.counts["baselines.oic_selection_enumerate.pairs"], "count")
        for name in SNIPPET_RATES:
            busy = self._busy(name)
            rate = self.counts[f"{name}.snippets"] / busy if busy else 0.0
            out[f"{name}.snippets_per_s"] = (rate, "1/s")
        return out
