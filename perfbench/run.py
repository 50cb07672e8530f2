#!/usr/bin/env python3
"""Benchmark entry point.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 35 --trace 0

``--workload all`` runs every workload in this one process. The last line
of standard output is the JSON result; the line before it holds the
environment, the mAPs and the checks. A readable table goes to standard
error. The exit code is 0 when every check passed, 1 when a check failed
and 2 when the library cannot be loaded from ``src/`` next to this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_library() -> str | None:
    """Pin BLAS threads, then import oicloc from this checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "oicloc" / "__init__.py").is_file():
        return f"no oicloc package under {src}"
    sys.path.insert(0, str(src))
    try:
        import oicloc
    except ImportError as exc:
        return f"cannot import oicloc: {exc}"
    if not Path(oicloc.__file__).resolve().is_relative_to(src):
        return f"oicloc was imported from {oicloc.__file__}, not from {src}"
    return None


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    problem = load_library()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import bench

    catalog = bench.load_workloads()
    args = parse_args(argv, list(catalog["workloads"]))
    references = bench.load_references()
    names = list(catalog["workloads"]) if args.workload == "all" else [args.workload]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    lines = {}
    try:
        for name in names:
            line, details = bench.run_workload(
                name, catalog, args.seed, args.seconds, bool(args.trace), references,
                workdir / name,
            )
            bench.print_table(line, details)
            print(json.dumps(details), flush=True)
            lines[name] = line
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            scratch.rmdir()
    if len(lines) == 1:
        result = lines[names[0]]
    else:
        result = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{key}": m for name, line in lines.items()
                        for key, m in line["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
