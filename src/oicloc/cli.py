"""Command-line surface: train / predict / eval / synth / gradcheck / ablate."""
from __future__ import annotations

import argparse
import csv
import importlib.metadata
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import baselines, evaluation, io, synth
from .cas import SNIPPET_FRAMES
from .config import RunConfig, load_config
from .errors import InputError, TrainingError
from .gradcheck import run_all
from .regressor import NetworkB
from .train import train_network

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _setup_logging() -> None:
    level = os.environ.get("OICLOC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_run(config_path: str) -> tuple[RunConfig, list]:
    cfg = load_config(config_path)
    if cfg.manifest is None:
        raise InputError(f"{config_path}: config must name a manifest")
    manifest = Path(config_path).parent / cfg.manifest
    videos = io.read_manifest(manifest)
    if not videos:
        raise InputError(f"{manifest}: manifest lists no videos")
    return cfg, videos


def cmd_synth(args) -> int:
    try:
        spec = synth.SynthSpec.from_dict(io.parse_json(Path(args.spec).read_bytes()))
    except InputError as exc:
        raise InputError(f"{args.spec}: {exc}") from None
    videos = synth.synth_corpus(spec, args.seed, args.count, prefix=args.prefix)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_manifest(out / "manifest.json", videos, cas_dir="cas")
    print(f"wrote {len(videos)} videos to {out}")
    return 0


def _run_meta(cfg: RunConfig, seed: int) -> dict:
    """What a trained checkpoint's bits depend on besides its inputs: the run
    config and seed, the oicloc and NumPy versions, and the BLAS build and
    thread settings (at paper shapes the sums' order follows the thread
    count). Holds no timings, so same-seed checkpoints stay bitwise equal."""
    try:
        version = importlib.metadata.version("oicloc")
    except importlib.metadata.PackageNotFoundError:  # imported from a source tree
        version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy before 1.26 reports no build dict
        blas = None
    return {"config": asdict(cfg), "seed": seed, "oicloc": version, "numpy": np.__version__,
            "blas": blas, "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def cmd_train(args) -> int:
    cfg, videos = _load_run(args.config)
    result = train_network(videos, cfg, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.net.save(out / "checkpoint.ckpt", meta=_run_meta(cfg, args.seed))
    with open(out / "loss.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "loss"])
        for i, value in enumerate(result.losses):
            writer.writerow([i, repr(value)])
    print(f"trained {len(result.losses)} iterations; checkpoint at {out / 'checkpoint.ckpt'}")
    return 0


def cmd_predict(args) -> int:
    cfg, videos = _load_run(args.config)
    net = NetworkB.load(args.checkpoint) if args.checkpoint else None
    M = cfg.anchor_config().count
    if net is not None and (net.anchor_count, net.feature_dim) != (M, cfg.feature_dim):
        raise InputError(f"{args.checkpoint}: checkpoint has {net.anchor_count} anchors and "
                         f"feature_dim {net.feature_dim}, but {args.config} has {M} anchors "
                         f"and feature_dim {cfg.feature_dim}")
    if args.mode == "threshold" and not 0 < cfg.act_min < 1:
        raise InputError(f"{args.config}: 'act_min' must lie in (0, 1) for --mode threshold")
    preds = baselines.detect(args.mode, videos, cfg, net=net, seed=args.seed)
    io.write_predictions_jsonl(args.out, preds)
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def cmd_eval(args) -> int:
    preds = io.read_predictions_jsonl(args.pred)
    videos = io.read_manifest(args.manifest)
    thresholds = (
        evaluation.THUMOS_THRESHOLDS
        if args.profile == "thumos"
        else evaluation.ACTIVITYNET_THRESHOLDS
    )
    gts = evaluation.gt_instances(videos)
    if not gts:
        raise InputError(f"--manifest {args.manifest}: no video has a ground truth segment")
    report = evaluation.map_report(preds, gts, thresholds)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.to_json())
    report.to_csv(out.with_suffix(".csv"))
    for thr in thresholds:
        print(f"mAP@{thr}: {report.map_at(thr):.4f}")
    print(f"avg mAP: {report.avg_map:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_all(args.seed)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max_err={r.max_err:.3e} tol={r.tol:.1e}")
        failed = failed or not r.passed
    return 1 if failed else 0


def cmd_ablate(args) -> int:
    cfg, videos = _load_run(args.config)
    test_videos = _load_run(args.test_config)[1] if args.test_config else videos
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = baselines.compare(videos, test_videos, cfg, seed=args.seed)
    gts = evaluation.gt_instances(test_videos)
    rows = []
    for name, preds in table.items():
        score = evaluation.map_report(preds, gts, (0.5,)).map_at(0.5)
        rows.append((name, score))
        io.write_predictions_jsonl(out / f"preds_{name}.jsonl", preds)
        print(f"{name}: mAP@0.5 = {score:.4f}")
    with open(out / "ablation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "map_at_0.5"])
        writer.writerows(rows)
    _write_plot_data(out / "plot_data", test_videos, table["full"])
    print(f"ablation table at {out / 'ablation.csv'}")
    return 0


def _write_plot_data(dirpath: Path, videos, preds) -> None:
    """Per-video CSV of activations plus predicted and gt interval overlays."""
    dirpath.mkdir(parents=True, exist_ok=True)
    by_video = {}
    for p in preds:
        by_video.setdefault(p.video_id, []).append(p)
    for v in videos:
        with open(dirpath / f"{v.video_id}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "class", "start_s", "end_s", "value"])
            step = SNIPPET_FRAMES / v.fps
            for k in range(1, v.cas.num_classes + 1):
                for t in range(1, v.cas.num_snippets + 1):
                    writer.writerow(["cas", k, (t - 1) * step, t * step, v.cas.act[k - 1, t - 1]])
            for g in v.gt or ():
                writer.writerow(["gt", g.class_id, g.start_s, g.end_s, 1.0])
            for p in by_video.get(v.video_id, ()):
                writer.writerow(["pred", p.class_id, p.start_s, p.end_s, p.score])


def non_negative_int(text: str) -> int:
    """A ``--seed`` value: NumPy's generators refuse negative seeds."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oicloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--prefix", default="video")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the boundary regressor")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="run a detector over a manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint")
    p.add_argument(
        "--mode",
        default="full",
        choices=["full", "threshold", "oic_select", "direct_opt", "inner_only"],
    )
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against a manifest")
    p.add_argument("--pred", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--profile", default="thumos", choices=["thumos", "activitynet"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference verification suites")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="variant comparison on one corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--test-config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, TrainingError, OSError) as exc:
        print("error: " + str(exc).replace("\n", "\\n"), file=sys.stderr)  # one line
        return 2


if __name__ == "__main__":
    sys.exit(main())
