"""Acceptance suite: the nine release criteria, one pass/fail line each.

Heavier end-to-end criteria share module-scoped corpora; every assertion is
also reported on the terminal so a full run reads as a checklist.

Criterion 9's bitwise equality and the reference mAPs hold for a fixed BLAS
configuration (vendor and thread count): at paper shapes the conv's sums run
in an order set by the BLAS thread count, so a checkpoint trained with one
thread differs in its last bits from one trained with two. The tests and the
benchmark pin one thread (``OPENBLAS_NUM_THREADS=1``); ``oicloc train``
records the BLAS build and the thread variables in the checkpoint's ``meta``.
"""
import filecmp
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import enumeration_oracle, kernel_at, selection_oracle, step_filter_weights

from oicloc import baselines, evaluation
from oicloc.boundary import AnchorConfig
from oicloc.cas import Cas
from oicloc.cli import main as cli_main
from oicloc.config import PROFILES
from oicloc.gradcheck import check_network_fd, check_oic_discrete, check_transform_fd
from oicloc.selection import build_candidates, select, snippet_to_time
from oicloc.synth import SynthSpec, synth_corpus
from oicloc.train import predict_video, train_network

from conftest import random_hypothesis
from test_eval import HAND_GTS, HAND_PREDS

BENCH_SPEC = SynthSpec(
    num_classes=3,
    t_range=(60, 120),
    instances_range=(1, 3),
    base_activation=0.95,
    noise_amp=0.03,
    dip_prob=0.5,
    bridge_prob=0.3,
    instance_len_range=(8, 24),
    gap_range=(10, 20),
    background=0.03,
    level_jitter=0.4,
    dip_level=0.05,
    dip_width_range=(1, 1),
    dip_central=True,
    bridge_level=0.5,
)
CLEAN_SPEC = replace(
    BENCH_SPEC, noise_amp=0.02, dip_prob=0.0, bridge_prob=0.0, level_jitter=0.0
)
CFG = PROFILES["synthetic"]


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def bench():
    train = synth_corpus(BENCH_SPEC, 1, 200, prefix="train")
    test = synth_corpus(BENCH_SPEC, 2, 100, prefix="test")
    return train, test, evaluation.gt_instances(test)


def map50(preds, gts):
    return evaluation.map_report(preds, gts, (0.5,)).map_at(0.5)


def test_criterion_1_step_filter_identity(capsys, rng):
    start = time.perf_counter()
    worst = 0.0
    zero_sum = True
    for _ in range(10_000):
        T = int(rng.integers(4, 60))
        cas = Cas(rng.uniform(0, 1, size=(1, T)))
        h = random_hypothesis(rng, T)
        s, weights, norm = step_filter_weights(h)
        row = cas.padded[0]
        dot = float(weights @ row[s : s + len(weights)]) / norm
        worst = max(worst, abs(dot - kernel_at(cas, h)[0].loss))
        zero_sum = zero_sum and weights.sum() == 0.0
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and zero_sum and elapsed < 5.0
    report(
        capsys, 1, ok,
        f"step-filter dot == loss over 1e4 pairs (worst |diff| {worst:.2e}, "
        f"weights sum exactly zero: {zero_sum}, {elapsed:.2f}s)",
    )


def test_criterion_2_analytic_gradients(capsys, ramp_cas, ramp_hypothesis):
    suite = check_oic_discrete(seed=0)
    g = kernel_at(ramp_cas, ramp_hypothesis)[1]
    example_ok = abs(g.d_x1 - 0.4) <= 1e-6 and abs(g.d_x2 + 19.0 / 60.0) <= 1e-6
    ok = suite.passed and example_ok
    report(
        capsys, 2, ok,
        f"discrete differences within 3/min(len) over 1e3 cases "
        f"(worst ratio {suite.max_err:.3f}) and worked example d_x1=0.4, "
        f"d_x2=-19/60 reproduced: {example_ok}",
    )


def test_criterion_3_end_to_end_gradcheck(capsys):
    start = time.perf_counter()
    transform = check_transform_fd(seed=0)
    network = check_network_fd(seed=0)
    elapsed = time.perf_counter() - start
    ok = transform.passed and network.passed and elapsed < 30.0
    report(
        capsys, 3, ok,
        f"transform fd rel err {transform.max_err:.2e}, network fd rel err "
        f"{network.max_err:.2e}, both <= 1e-4 in {elapsed:.1f}s",
    )


def test_criterion_4_oracle_equivalence(capsys, rng):
    anchors = AnchorConfig((2, 4, 8))
    select_ok = enum_ok = True
    for _ in range(100):
        T = int(rng.integers(5, 31))
        K = int(rng.integers(1, 4))
        cas = Cas(rng.uniform(0, 1, size=(K, T)))
        reg_map = 0.3 * rng.standard_normal((6, T))
        grid = build_candidates(reg_map, anchors, 0.25)
        classes = list(range(1, K + 1))
        k, t, m = select(cas, grid, classes)[:3]
        got = sorted(zip(k.tolist(), (t + 1).tolist(), m.tolist()))
        want = selection_oracle(cas.act, reg_map, anchors.scales, classes, 0.25, 0.1, -0.3, 0.4)
        select_ok = select_ok and got == want
        preds = baselines.oic_selection_enumerate(cas, 1)
        got_e = sorted((p.start_s, p.end_s) for p in preds)
        want_e = [(snippet_to_time(x1, 30.0), snippet_to_time(x2, 30.0))
                  for x1, x2 in enumeration_oracle(cas.act[0], 1, T, 0.25, -0.3, 0.4)]
        enum_ok = enum_ok and got_e == want_e
    ok = select_ok and enum_ok
    report(
        capsys, 4, ok,
        f"selection layer == straight-line oracle: {select_ok}; enumeration == "
        f"brute force: {enum_ok} (100 random videos, T <= 30)",
    )


def test_criterion_5_clipped_gradient_sign(capsys, rng):
    ok = True
    worst = -np.inf
    for _ in range(1000):
        T = int(rng.integers(4, 40))
        cas = Cas(rng.uniform(0, 1, size=(1, T)))
        x1 = float(rng.uniform(0.0, 0.49))  # rounds onto the zero pad
        x2 = float(rng.uniform(1.0, T - 1))
        X2 = min(float(T + 1), x2 + float(rng.integers(1, 4)))
        g = kernel_at(cas, (x1, x2, 0.0, X2))[1]
        worst = max(worst, g.d_x1)
        ok = ok and g.d_x1 <= 0.0
    report(
        capsys, 5, ok,
        f"d_x1 <= 0 whenever rounded x1 sits on the zero pad "
        f"(1e3 cases, max d_x1 {worst:.3e})",
    )


def test_criterion_6_synthetic_end_to_end(capsys, bench):
    train, test, gts = bench
    start = time.perf_counter()
    scores = {name: map50(preds, gts)
              for name, preds in baselines.compare(train, test, CFG, seed=0).items()}
    full_score, direct, enum, inner = (
        scores[name] for name in ("full", "direct_opt", "oic_select", "inner_only")
    )
    best_thr = max(score for name, score in scores.items() if name.startswith("threshold_"))
    elapsed = time.perf_counter() - start
    margin_ok = full_score >= best_thr + 0.05
    order_ok = full_score > direct > enum > inner
    ok = margin_ok and order_ok and elapsed < 300.0
    report(
        capsys, 6, ok,
        f"mAP@0.5 full={full_score:.3f} vs threshold best {best_thr:.3f} "
        f"(margin {'ok' if margin_ok else 'SHORT'}); ordering "
        f"{full_score:.3f} > {direct:.3f} > {enum:.3f} > {inner:.3f}: {order_ok}; "
        f"{elapsed:.0f}s < 300s",
    )


def test_criterion_7_alpha_sweep_stability(capsys):
    train = synth_corpus(CLEAN_SPEC, 1, 200, prefix="train")
    test = synth_corpus(CLEAN_SPEC, 2, 100, prefix="test")
    gts = evaluation.gt_instances(test)
    scores = {}
    for alpha in (0.125, 0.25, 0.5):
        cfg = replace(CFG, alpha=alpha)
        net = train_network(train, cfg, seed=0).net
        scores[alpha] = map50([p for v in test for p in predict_video(net, v, cfg)], gts)
    span = max(scores.values()) - min(scores.values())
    ok = span <= 0.05
    report(
        capsys, 7, ok,
        "mAP@0.5 by inflation ratio "
        + ", ".join(f"{a}: {s:.3f}" for a, s in scores.items())
        + f" -> span {span:.3f} <= 0.05",
    )


def test_criterion_8_evaluation_correctness(capsys):
    ap_11 = evaluation.average_precisions(HAND_PREDS, HAND_GTS, 1, (0.5,))[0]
    ap_12 = evaluation.average_precisions(HAND_PREDS, HAND_GTS, 2, (0.5,))[0]
    ap_91 = evaluation.average_precisions(HAND_PREDS, HAND_GTS, 1, (0.9,))[0]
    ap_92 = evaluation.average_precisions(HAND_PREDS, HAND_GTS, 2, (0.9,))[0]
    exact = (ap_11, ap_12, ap_91, ap_92) == (1.0, 2.0 / 3.0, 0.5, 0.25)
    grid = tuple(round(0.05 * i, 2) for i in range(1, 20))
    rep = evaluation.map_report(HAND_PREDS, HAND_GTS, grid)
    values = [rep.map_at(t) for t in grid]
    monotone = all(a >= b for a, b in zip(values, values[1:]))
    ok = exact and monotone
    report(
        capsys, 8, ok,
        f"hand fixture APs exact ({ap_11}, {ap_12:.4f}, {ap_91}, {ap_92}): {exact}; "
        f"mAP non-increasing over 19 thresholds: {monotone}",
    )


def test_criterion_9_training_determinism(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(replace(BENCH_SPEC, t_range=(40, 60)).to_dict()))
    assert cli_main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "corpus"),
                     "--seed", "5", "--count", "8"]) == 0
    config = {"version": 1, "profile": "synthetic", "manifest": "corpus/manifest.json",
              "anchors": [2, 4, 8], "feature_dim": 8, "hidden": 8}
    run = tmp_path / "run.json"
    run.write_text(json.dumps(config))
    for tag in ("a", "b"):
        assert cli_main(["train", "--config", str(run), "--seed", "11",
                         "--out", str(tmp_path / tag)]) == 0
        assert cli_main(["predict", "--config", str(run), "--mode", "full",
                         "--checkpoint", str(tmp_path / tag / "checkpoint.ckpt"),
                         "--out", str(tmp_path / tag / "preds.jsonl")]) == 0
    ckpt_same = filecmp.cmp(tmp_path / "a" / "checkpoint.ckpt",
                            tmp_path / "b" / "checkpoint.ckpt", shallow=False)
    preds_same = filecmp.cmp(tmp_path / "a" / "preds.jsonl",
                             tmp_path / "b" / "preds.jsonl", shallow=False)
    ok = ckpt_same and preds_same
    report(
        capsys, 9, ok,
        f"same-seed retrain: checkpoint bitwise identical: {ckpt_same}, "
        f"prediction file bitwise identical: {preds_same}",
    )
