"""Parent comparison, bits mode: same-seed artifacts must hash equal at REV.

Checks REV out with ``git worktree add`` into a temporary directory, runs the
same fixed pipelines from that tree and from this one, and compares the
sha256 of every artifact they write:

- a small round trip: synth, train, predict, eval and ablate on 8 videos;
- 24 desk-profile videos (K 3, T 60-120, 2 epochs): train, predict, and eval
  on the thumos and on the activitynet IoU grid;
- the paper-width corpus (thumos profile, K 20, T 130-160, 3 videos,
  2 epochs): train and predict with the worker thread, then again with the
  process pinned to one CPU, where the worker stays off;
- the output of ``oicloc gradcheck``.

Within each tree, the paper-width run on one CPU must also write the same
checkpoint, loss log and predictions as the run with the worker thread.
Each command runs in its own process with ``PYTHONPATH=<tree>/src`` and one
BLAS thread, and refuses to run if ``oicloc`` imports from anywhere else (an
editable install could otherwise win). It prints every artifact's hash,
names each difference and exits 1 on any:

    python tests/bits.py --against REV
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# argv: the src directory oicloc must come from, "pin" or "free", then the CLI arguments
LAUNCH = """\
import os, sys
if sys.argv[2] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import oicloc.cli
if not oicloc.cli.__file__.startswith(sys.argv[1] + os.sep):
    sys.exit(f"oicloc imports from {oicloc.cli.__file__}, not {sys.argv[1]}")
sys.exit(oicloc.cli.main(sys.argv[3:]))
"""

SMALL_SPEC = {"num_classes": 2, "t_range": [30, 45], "instances_range": [1, 2]}
SMALL_RUN = {"anchors": [2, 4, 8], "feature_dim": 8, "hidden": 8}
PAPER_SPEC = {"num_classes": 20, "t_range": [130, 160], "instances_range": [1, 3]}
ONE_CPU_EQUAL = ("checkpoint.ckpt", "loss.csv", "preds.jsonl")  # paper/one vs paper/a


def _run_pipelines(tree: Path, out: Path) -> None:
    """Write every artifact of the fixed pipelines, run from ``tree``, under ``out``."""
    src = str((tree / "src").resolve())
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}

    def oicloc(workdir: Path, *args: str, pin: bool = False, stdout=None) -> None:
        cmd = [sys.executable, "-c", LAUNCH, src, "pin" if pin else "free", *args]
        done = subprocess.run(cmd, cwd=workdir, env=env, stdout=stdout or subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{tree}: oicloc {' '.join(args)} exited {done.returncode}: "
                             f"{done.stderr.strip()}")

    def corpus(name: str, spec: dict, count: int, run: dict) -> Path:
        workdir = out / name
        workdir.mkdir(parents=True)
        (workdir / "spec.json").write_text(json.dumps(spec))
        (workdir / "run.json").write_text(
            json.dumps({"version": 1, "manifest": "corpus/manifest.json", **run}))
        oicloc(workdir, "synth", "--spec", "spec.json", "--out", "corpus",
               "--count", str(count), "--seed", "1")
        return workdir

    def train_predict(workdir: Path, tag: str, pin: bool = False) -> None:
        oicloc(workdir, "train", "--config", "run.json", "--out", tag, "--seed", "0", pin=pin)
        oicloc(workdir, "predict", "--config", "run.json", "--checkpoint",
               f"{tag}/checkpoint.ckpt", "--out", f"{tag}/preds.jsonl", pin=pin)

    def evaluate(workdir: Path, tag: str) -> None:
        oicloc(workdir, "eval", "--pred", f"{tag}/preds.jsonl", "--manifest",
               "corpus/manifest.json", "--out", f"{tag}/report.json")

    small = corpus("small", SMALL_SPEC, 8, {"profile": "synthetic", **SMALL_RUN})
    train_predict(small, "a")
    evaluate(small, "a")
    oicloc(small, "ablate", "--config", "run.json", "--seed", "0", "--out", "ablate")
    desk_spec = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["specs"]["desk"]
    desk = corpus("desk", desk_spec, 24, {"profile": "synthetic", "epochs": 2})
    train_predict(desk, "a")
    evaluate(desk, "a")
    oicloc(desk, "eval", "--pred", "a/preds.jsonl", "--manifest", "corpus/manifest.json",
           "--profile", "activitynet", "--out", "a/report_activitynet.json")
    paper = corpus("paper", PAPER_SPEC, 3, {"profile": "thumos", "epochs": 2})
    train_predict(paper, "a")
    train_predict(paper, "one", pin=True)
    with open(out / "gradcheck.txt", "w") as fh:
        oicloc(out, "gradcheck", stdout=fh)


def _hashes(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="oicloc-bits-") as tmp:
        parent = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(parent), args.against], check=True)
        try:
            _run_pipelines(parent, Path(tmp) / "parent")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(parent)], check=True)
        _run_pipelines(ROOT, Path(tmp) / "this")
        before, after = _hashes(Path(tmp) / "parent"), _hashes(Path(tmp) / "this")
    differences = 0
    for tree, hashes in ((args.against, before), ("this tree", after)):
        for name in ONE_CPU_EQUAL:
            if hashes[f"paper/one/{name}"] != hashes[f"paper/a/{name}"]:
                differences += 1
                print(f"DIFFERS on one CPU at {tree}: paper/one/{name} from paper/a/{name}")
    for name in sorted(before.keys() | after.keys()):
        old, new = before.get(name, "missing"), after.get(name, "missing")
        differences += old != new
        print(f"{new}  {name}" if old == new else f"DIFFERS {name}: {old} at "
              f"{args.against}, {new} here")
    print(f"{len(before.keys() | after.keys())} artifacts; {differences} differences, "
          f"from {args.against} or within a tree")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
