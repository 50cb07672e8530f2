"""Smoke tests for the benchmark. Run from the repository root with

    python -m pytest perfbench
"""
import copy
import importlib.util
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
assert run.load_library() is None
import bench  # noqa: E402  (needs the library path set up by run.load_library)
import tracing  # noqa: E402

TINY = {
    "desk": {"train": {"count": 4}, "test": {"count": 3}},
    "thumos": {"train": {"count": 3, "lengths": [160, 190]}, "test": {"count": 3, "lengths": [175]},
               "t_range": [150, 200]},
    "baselines": {"train": {"count": 4}, "test": {"count": 6, "lengths": [70, 100]}},
}
LAYERS = ("selection.", "regressor.", "io.", "synth.", "features.", "evaluation.")


def _load_module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_catalog():
    catalog = copy.deepcopy(bench.load_workloads())
    for name, sizes in TINY.items():
        wl = catalog["workloads"][name]
        for side in ("train", "test"):
            wl[side].update(sizes[side])
        if "t_range" in sizes:
            wl["spec"] = f"{name}_tiny"
            catalog["specs"][wl["spec"]] = dict(catalog["specs"][name], t_range=sizes["t_range"])
    return catalog


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_references(tmp_path_factory):
    catalog = _tiny_catalog()
    workdir = tmp_path_factory.mktemp("record")
    return catalog, {name: {"1": bench.record(name, catalog, 1, workdir / name)}
                     for name in catalog["workloads"]}


def test_desk_spec_is_the_acceptance_bench_spec(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    acceptance = _load_module(ROOT / "tests" / "test_acceptance.py", "_acceptance_spec")
    script = _load_module(ROOT / "scripts" / "run_synthetic_benchmark.py", "_script_spec")
    catalog = bench.load_workloads()
    assert catalog["specs"]["desk"] == acceptance.BENCH_SPEC.to_dict()
    assert catalog["specs"]["desk"] == script.BENCH_SPEC.to_dict()
    desk = catalog["workloads"]["desk"]
    assert (desk["train"], desk["test"]) == ({"seed": 1, "count": 200}, {"seed": 2, "count": 100})


def test_benchmark_json_declares_exactly_the_emitted_metrics(declared):
    per_layer = {k: u for k, (_, u) in tracing.Tracer(1).metrics().items()}
    per_layer["trace_overhead_frac"] = "frac"
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == per_layer
    assert [w["name"] for w in declared["workloads"]] == list(bench.load_workloads()["workloads"])
    assert declared["paths"] == ["perfbench"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_references_cover_every_variant():
    catalog = bench.load_workloads()
    references = bench.load_references()
    for name in catalog["workloads"]:
        assert sorted(map(int, references[name])) == list(range(catalog["variants"]))


def test_check_maps_reports_every_mismatch():
    assert bench.check_maps({"map50_full": 0.5}, {"map50_full": 0.5}) == []
    assert bench.check_maps({"map50_full": 0.5}, {"map50_full": 0.6})
    assert bench.check_maps({"map50_full": 0.5}, {"avg_map_full": 0.5})
    assert bench.check_maps({"map50_full": 0.5}, None)


def test_clock_rescales_wall_time_by_the_probe(monkeypatch):
    monkeypatch.setattr(bench, "probe", lambda: 2 * bench.PROBE_REF_S)
    clock = bench.Clock()
    with clock.segment() as timing:
        time.sleep(0.2)
    assert timing.probes > 2  # the timer sampled inside the segment
    assert timing.wall_s >= 0.2
    assert timing.scaled_s == pytest.approx(timing.wall_s / 2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_emits_every_metric(name, trace, declared, tiny_references, tmp_path):
    catalog, references = tiny_references
    line, details = bench.run_workload(name, catalog, 1, 0.0, bool(trace), references, tmp_path)
    assert details["problems"] == []
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(json.loads(json.dumps(line)),
                        json.loads((HERE / "result.schema.json").read_text()))
    if trace:
        calls = {k: m["value"] for k, m in line["metrics"].items() if k.endswith(".calls")}
        for layer in LAYERS + (("baselines.",) if name == "baselines" else ()):
            assert any(v > 0 for k, v in calls.items() if k.startswith(layer)), layer
    else:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_counts_do_not_depend_on_run_length(tiny_references, tmp_path):
    catalog, references = tiny_references

    def counts(seconds):
        line, details = bench.run_workload("desk", catalog, 1, seconds, True, references,
                                           tmp_path / str(seconds))
        counted = {k: m["value"] for k, m in line["metrics"].items()
                   if m["unit"] in ("count", "GFLOP", "B")}
        return counted, len(details["rounds"])

    short, short_rounds = counts(0.0)
    long, long_rounds = counts(2.0)
    assert long_rounds > short_rounds
    assert long == short


def test_without_the_library_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
