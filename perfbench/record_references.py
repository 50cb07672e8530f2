#!/usr/bin/env python3
"""Record the reference mAPs of every variant of a workload into references.json.

Usage, from the repository root:

    python3 perfbench/record_references.py --workload desk

Each variant runs one untimed round. Re-record only when a workload's
definition changes; a library change that moves an mAP is a failed check.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv=None) -> int:
    problem = run.load_library()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import bench

    catalog = bench.load_workloads()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(catalog["workloads"]))
    args = parser.parse_args(argv)

    path = bench.HERE / "references.json"
    table = {}
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for variant in range(catalog["variants"]):
            table[str(variant)] = bench.record(
                args.workload, catalog, variant, workdir / str(variant))
            print(f"{args.workload} variant {variant}: {table[str(variant)]}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    # re-read so that concurrent recordings of other workloads are kept
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged[args.workload] = table
    path.write_text(json.dumps(dict(sorted(merged.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
