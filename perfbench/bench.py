"""Workload runner: builds a workload's inputs from the seed, drives the
library in the order the CLI does, checks every mAP against its recorded
reference and reports throughput.

One round is the ``train`` command (read_manifest -> train -> save) followed
by the ``predict`` and ``eval`` commands for each detector (read_manifest ->
load -> detect per video -> write_predictions_jsonl -> read_predictions_jsonl
-> map_report). Each round is preceded by its set-ups, which rewrite the
inputs, so set-up times are sampled across the whole run as round times are.
Rounds repeat while one more of average length still fits in the requested
seconds.

The host's speed drifts with the load of other tenants, so it
is sampled through every timed segment (a set-up, a train stage, a predict
stage) with a probe: a fixed kernel that never calls the library. Reported
times are wall times rescaled to a host on which the probe takes
``PROBE_REF_S``; the wall times themselves are kept in the details line.

A traced run installs the layer timers for exactly one round and its
set-ups, so every per-layer figure describes one pass whatever the run
length.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oicloc import baselines, evaluation, io, synth, train
from oicloc.config import PROFILES
from oicloc.regressor import NetworkB

import tracing

HERE = Path(__file__).resolve().parent
NET_SEED = 0
MIN_ROUNDS = 2
TRACED_ROUND = 1
SETUPS_PER_ROUND = 3
MAP_TOLERANCE = 1e-9
PROBE_REF_S = 0.002
PROBE_INTERVAL_S = 0.05

_rng = np.random.default_rng(0)
_PROBE_VEC = _rng.random(100)
_PROBE_SMALL = (_rng.random((64, 128)), _rng.random((128, 64)))
_PROBE_MID = (_rng.random((256, 512)), _rng.random((512, 128)))


def probe() -> float:
    """Seconds a fixed kernel takes now; it never calls the library.

    The kernel mixes what the workloads spend their time on: short NumPy
    calls on small arrays from Python loops, small matmuls and mid-sized
    matmuls. Its time follows the host's momentary speed, not the code under
    test.
    """
    start = time.perf_counter()
    acc = 0.0
    for _ in range(100):
        c = np.cumsum(_PROBE_VEC)
        acc += float(c[-1] - c[3]) + np.maximum(_PROBE_VEC, 0.5)[5:40].mean()
    for _ in range(10):
        acc += float((_PROBE_SMALL[0] @ _PROBE_SMALL[1])[0, 0])
    acc += float((_PROBE_MID[0] @ _PROBE_MID[1])[0, 0])
    assert math.isfinite(acc)
    return time.perf_counter() - start


@dataclass
class Timing:
    """One timed segment: its wall time without the probes taken inside it,
    and that time rescaled to a host on which the probe takes PROBE_REF_S."""

    wall_s: float = 0.0
    scaled_s: float = 0.0
    probes: int = 0


class Clock:
    """Times segments and samples the host's speed through each of them.

    A segment is bracketed by probes (shared with its neighbours) and, while
    ``sampling`` is on, a wall-clock timer runs a probe every
    ``PROBE_INTERVAL_S`` inside it; the time those probes take is left out of
    the segment's wall time. The speed changes within seconds, so probes at
    the ends alone would miss most of it. Each stretch between two probes is
    rescaled by the mean of the speeds (PROBE_REF_S / probe time) at its two
    ends, so a stretch that one long NumPy call kept the timer out of still
    counts for its whole length. Sampling is off while the layer timers are
    installed, so that no probe lands in a traced span.
    """

    def __init__(self):
        probe()  # the first pass also pays for NumPy's and BLAS's first calls
        self.sampling = True
        self._speed = PROBE_REF_S / probe()
        self._timing = Timing()
        self._mark = time.perf_counter()

    def _sample(self, *_signal_args) -> None:
        """End the current stretch of the segment with a probe."""
        end = time.perf_counter()
        speed = PROBE_REF_S / probe()
        timing = self._timing
        timing.wall_s += end - self._mark
        timing.scaled_s += (end - self._mark) * (self._speed + speed) / 2
        timing.probes += 1
        self._speed = speed
        self._mark = time.perf_counter()

    @contextlib.contextmanager
    def segment(self):
        self._timing = timing = Timing()
        previous = None
        if self.sampling:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._mark = time.perf_counter()
        try:
            yield timing
        finally:
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        self._sample()


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def load_references() -> dict:
    return json.loads((HERE / "references.json").read_text())


def build_corpus(spec, part: dict, variant: int, prefix: str) -> list:
    """Synthesize one side of a variant.

    With ``lengths``, keep for each target length the video, not kept yet,
    whose length is closest to it, so that every variant does nearly the
    same amount of work.
    """
    videos = synth.synth_corpus(spec, part["seed"] + 2 * variant, part["count"], prefix=prefix)
    if "lengths" not in part:
        return videos
    kept: dict[str, object] = {}
    for target in part["lengths"]:
        pick = min((v for v in videos if v.video_id not in kept),
                   key=lambda v: (abs(v.cas.num_snippets - target), v.video_id))
        kept[pick.video_id] = pick
    return list(kept.values())


def _trained_full(videos, cfg, seed):
    return train.train_network(videos, cfg, seed=seed).net


def _trained_inner(videos, cfg, seed):
    return baselines.train_inner_only(videos, cfg, seed=seed)


TRAINERS = {"full": _trained_full, "inner_only": _trained_inner}


@dataclass
class Run:
    """One workload's inputs on disk plus the run's failure accounting."""

    workload: dict
    cfg: object
    spec: synth.SynthSpec
    workdir: Path
    train_manifest: Path = None
    test_manifest: Path = None
    train_snippets: int = 0
    test_snippets: int = 0
    setups: list[Timing] = field(default_factory=list)
    clock: Clock = field(default_factory=Clock)
    attempted: int = 0
    failed: int = 0

    @classmethod
    def of(cls, name: str, catalog: dict, workdir: Path) -> "Run":
        wl = catalog["workloads"][name]
        spec = synth.SynthSpec.from_dict(catalog["specs"][wl["spec"]])
        return cls(wl, PROFILES[wl["profile"]], spec, workdir)

    def per_video(self, videos, detect) -> list:
        """Detect on each video; a raising call counts that video as failed."""
        preds = []
        for video in videos:
            self.attempted += 1
            try:
                preds.extend(detect(video))
            except Exception:
                self.failed += 1
                traceback.print_exc()
        return preds


def _detect_model(loss):
    def detect(run, videos, checkpoint, gts):
        net = NetworkB.load(checkpoint)
        return run.per_video(videos, lambda v: train.predict_video(net, v, run.cfg, loss=loss))
    return detect


def _detect_threshold_best(run, videos, checkpoint, gts):
    run.attempted += len(videos)
    try:
        sweep = baselines.threshold_sweep(videos)
    except Exception:
        run.failed += len(videos)
        traceback.print_exc()
        return []
    return max(sweep.values(),
               key=lambda preds: evaluation.map_report(preds, gts, (0.5,)).map_at(0.5))


def _detect_oic_select(run, videos, checkpoint, gts):
    cfg = run.cfg

    def detect(v):
        return [
            p
            for k in range(1, v.cas.num_classes + 1)
            for p in baselines.oic_selection_enumerate(
                v.cas, k, alpha=cfg.alpha, loss_max=cfg.loss_max,
                nms_iou=cfg.nms_iou, fps=v.fps, video_id=v.video_id,
            )
        ]
    return run.per_video(videos, detect)


def _detect_direct_opt(run, videos, checkpoint, gts):
    return run.per_video(videos, lambda v: baselines.direct_optimize(v, run.cfg, seed=NET_SEED))


DETECTORS = {
    "full": _detect_model("oic"),
    "inner_only": _detect_model("inner"),
    "threshold_best": _detect_threshold_best,
    "oic_select": _detect_oic_select,
    "direct_opt": _detect_direct_opt,
}


def setup(run: Run, variant: int) -> None:
    """Synthesize the inputs, write both manifests and init a network, timed."""
    wl = run.workload
    base = run.workdir / "inputs"
    with run.clock.segment() as timing:
        train_videos = build_corpus(run.spec, wl["train"], variant, "train")
        test_videos = build_corpus(run.spec, wl["test"], variant, "test")
        io.write_manifest(base / "train" / "manifest.json", train_videos, cas_dir="cas")
        io.write_manifest(base / "test" / "manifest.json", test_videos, cas_dir="cas")
        train.new_network(run.cfg, NET_SEED)
    run.setups.append(timing)
    run.train_manifest = base / "train" / "manifest.json"
    run.test_manifest = base / "test" / "manifest.json"
    run.train_snippets = run.cfg.epochs * sum(v.cas.num_snippets for v in train_videos)
    run.test_snippets = sum(v.cas.num_snippets for v in test_videos)


def run_round(run: Run) -> dict | None:
    """Train, then predict and evaluate every detector; None if training raised."""
    wl = run.workload
    checkpoint = run.workdir / "checkpoint.json"
    with run.clock.segment() as train_timing:
        videos = io.read_manifest(run.train_manifest)
        run.attempted += len(videos)
        try:
            TRAINERS[wl["trainer"]](videos, run.cfg, NET_SEED).save(checkpoint)
        except Exception:
            run.failed += len(videos)
            traceback.print_exc()
            return None

    with run.clock.segment() as predict_timing:
        test = io.read_manifest(run.test_manifest)
        gts = evaluation.gt_instances(test)
        maps = {}
        for det in wl["detectors"]:
            path = run.workdir / f"preds_{det}.jsonl"
            io.write_predictions_jsonl(path, DETECTORS[det](run, test, checkpoint, gts))
            report = evaluation.map_report(io.read_predictions_jsonl(path), gts)
            maps[f"map50_{det}"] = report.map_at(0.5)
            maps[f"avg_map_{det}"] = report.avg_map
    return {"train": train_timing, "predict": predict_timing, "maps": maps}


def check_maps(maps: dict, expected: dict | None) -> list[str]:
    """Mismatches between a round's mAPs and the recorded reference."""
    if expected is None:
        return ["no reference recorded for this variant"]
    if set(maps) != set(expected):
        return [f"mAP keys {sorted(maps)} != reference keys {sorted(expected)}"]
    return [f"{k} = {maps[k]!r}, reference {expected[k]!r}"
            for k in sorted(maps) if abs(maps[k] - expected[k]) > MAP_TOLERANCE]


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": _git_commit(HERE.parent),
    }


def _git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(name: str, catalog: dict, seed: int, seconds: float, trace: bool,
                 references: dict, workdir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details)."""
    variant = seed % catalog["variants"]
    run = Run.of(name, catalog, workdir)
    tracer = tracing.Tracer(run.cfg.anchor_config().count)
    expected = references.get(name, {}).get(str(variant))
    problems: list[str] = []
    rounds: list[dict] = []
    peak_rss_mb = 0.0
    start = time.perf_counter()
    # start another round only if one more of average length still fits
    while len(rounds) < MIN_ROUNDS or (
        (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds
    ):
        traced = trace and len(rounds) == TRACED_ROUND
        run.clock.sampling = not traced
        with tracer.installed() if traced else contextlib.nullcontext():
            for _ in range(SETUPS_PER_ROUND):
                setup(run, variant)
            result = run_round(run)
        if result is None:
            problems.append(f"round {len(rounds)}: training raised")
            break
        result["traced"] = traced
        if not rounds:
            # the peak of the first set-ups and round, whatever the run length
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds.append(result)
        problems += [f"round {len(rounds) - 1}: {p}"
                     for p in check_maps(result["maps"], expected)]
    if run.failed:
        problems.append(f"{run.failed} of {run.attempted} videos raised")

    untraced = [r for r in rounds if not r["traced"]]
    if trace:
        metrics = tracer.metrics()
        plain = [r["train"].scaled_s + r["predict"].scaled_s for r in untraced]
        timed = [r["train"].scaled_s + r["predict"].scaled_s for r in rounds if r["traced"]]
        overhead = timed[0] / statistics.median(plain) - 1.0 if timed and plain else 0.0
        metrics["trace_overhead_frac"] = (overhead, "frac")
    else:
        metrics = {
            "setup_s": (statistics.median(t.scaled_s for t in run.setups), "s"),
            "train_snippets_per_s": (_rate(run.train_snippets, untraced, "train"), "1/s"),
            "predict_snippets_per_s": (_rate(run.test_snippets, untraced, "predict"), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    line = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": name,
        "seed": seed,
        "variant": variant,
        "trace": int(trace),
        "environment": environment(),
        "maps": rounds[0]["maps"] if rounds else {},
        "reference": expected,
        "problems": problems,
        "probe_ref_s": PROBE_REF_S,
        "setups": [vars(t) for t in run.setups],
        "rounds": [{"train": vars(r["train"]), "predict": vars(r["predict"]),
                    "traced": r["traced"]} for r in rounds],
        "train_snippets": run.train_snippets,
        "test_snippets": run.test_snippets,
    }
    return line, details


def _rate(snippets: int, rounds: list[dict], stage: str) -> float:
    """Snippets per rescaled second over all the given rounds together."""
    return snippets * len(rounds) / sum(r[stage].scaled_s for r in rounds) if rounds else 0.0


def record(name: str, catalog: dict, variant: int, workdir: Path) -> dict:
    """The mAPs one untimed round produces on a variant, for references.json."""
    run = Run.of(name, catalog, workdir)
    setup(run, variant)
    result = run_round(run)
    if result is None or run.failed:
        raise RuntimeError(f"{name} variant {variant}: a call raised while recording")
    return result["maps"]


def print_table(line: dict, details: dict, out=sys.stderr) -> None:
    print(f"[{details['workload']}] seed {details['seed']} (variant {details['variant']}), "
          f"trace {details['trace']}: correct={line['correct']} "
          f"attempted={line['attempted']} failed={line['failed']}", file=out)
    for key, value in details["maps"].items():
        print(f"  {key:<24} {value:.6f}", file=out)
    for problem in details["problems"]:
        print(f"  CHECK FAILED: {problem}", file=out)
    for key, m in line["metrics"].items():
        print(f"  {key:<56} {m['value']:>14.6g} {m['unit']}", file=out)
