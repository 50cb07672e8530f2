import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumeration_oracle

from oicloc import baselines, train
from oicloc.cas import Cas, VideoRecord
from oicloc.config import RunConfig
from oicloc.errors import InputError
from oicloc.selection import snippet_to_time
from oicloc.synth import SynthSpec, synth_corpus
from oicloc.train import new_network, predict_video, train_network, train_step

CFG = RunConfig(anchors=(2, 4, 8), feature_dim=8, hidden=8, lr=3e-6, direct_opt_iters=5)


class TestThresholdLocalize:
    def test_finds_plateau_runs(self):
        act = np.array([[0.1, 0.8, 0.9, 0.85, 0.1, 0.1, 0.7, 0.75, 0.1]])
        preds = baselines.threshold_localize(Cas(act), 1, 0.5, fps=30.0)
        spans = [(p.start_s, p.end_s) for p in preds]
        assert spans == [(snippet_to_time(2, 30.0), snippet_to_time(4, 30.0)),
                         (snippet_to_time(7, 30.0), snippet_to_time(8, 30.0))]

    def test_scores_are_mean_activation(self):
        act = np.array([[0.1, 0.8, 0.9, 0.85, 0.1]])
        preds = baselines.threshold_localize(Cas(act), 1, 0.5)
        assert preds[0].score == pytest.approx((0.8 + 0.9 + 0.85) / 3)

    def test_single_snippet_runs_dropped(self):
        act = np.array([[0.1, 0.9, 0.1]])
        assert baselines.threshold_localize(Cas(act), 1, 0.5) == []

    def test_rejects_degenerate_tau(self):
        with pytest.raises(InputError):
            baselines.threshold_localize(Cas(np.zeros((1, 4))), 1, 0.0)

    @pytest.mark.parametrize("k", [-1, 0, 3])
    def test_rejects_a_class_outside_1_to_k(self, k):
        """Unchecked, k = -1 reads class 1's row, k = 0 class 2's, and k = 3 is an IndexError."""
        cas = Cas(np.random.default_rng(0).uniform(size=(2, 12)))
        with pytest.raises(InputError, match=rf"^class {k} outside 1\.\.2$"):
            baselines.threshold_localize(cas, k, 0.5)

    def test_rejects_an_fps_that_is_not_finite(self):
        """Unchecked, the predictions' seconds are NaN."""
        cas = Cas(np.full((1, 8), 0.9))
        with pytest.raises(InputError, match="fps must be positive and finite"):
            baselines.threshold_localize(cas, 1, 0.5, fps=float("nan"))

    @given(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]), min_size=1, max_size=30),
           st.sampled_from([0.3, 0.5, 0.7]))
    @settings(max_examples=100, deadline=None)
    def test_runs_match_a_scan_over_the_row(self, row, tau):
        """At 15 fps a snippet lasts one second, so snippet x starts at x - 1 s."""
        preds = baselines.threshold_localize(Cas(np.array([row])), 1, tau, fps=15.0)
        runs, t = [], 0
        for above, group in itertools.groupby(row, key=lambda a: a >= tau):
            n = len(list(group))
            if above and n > 1:
                runs.append((float(t), float(t + n - 1), float(np.mean(row[t : t + n]))))
            t += n
        runs.sort(key=lambda run: (-run[2], run[0]))  # best first, then by start
        assert [(p.start_s, p.end_s, p.score) for p in preds] == runs

    def test_sweep_covers_all_taus(self):
        spec = SynthSpec(num_classes=2, t_range=(30, 40), instances_range=(1, 2))
        videos = synth_corpus(spec, 0, 3)
        out = baselines.threshold_sweep(videos)
        assert set(out) == {round(0.1 * i, 1) for i in range(1, 10)}


class TestEnumeration:
    @pytest.mark.parametrize("k", [-1, 0, 3])
    def test_rejects_a_class_outside_1_to_k(self, k):
        """Unchecked, k = -1 labels class 1's segments -1; k = 0 and 3 are IndexErrors."""
        cas = Cas(np.random.default_rng(0).uniform(size=(2, 12)))
        with pytest.raises(InputError, match=rf"^class {k} outside 1\.\.2$"):
            baselines.oic_selection_enumerate(cas, k)

    def test_rejects_a_ratio_that_is_not_finite(self):
        """Unchecked, alpha = NaN ends in an IndexError after a NaN-to-int64 cast."""
        cas = Cas(np.random.default_rng(0).uniform(size=(2, 12)))
        with pytest.raises(InputError, match="inflation ratio must be positive and finite"):
            baselines.oic_selection_enumerate(cas, 1, alpha=float("nan"))

    def test_matches_oracle(self, rng):
        for _ in range(40):
            T = int(rng.integers(5, 31))
            cas = Cas(rng.uniform(0, 1, size=(1, T)))
            preds = baselines.oic_selection_enumerate(cas, 1)
            got = sorted((p.start_s, p.end_s) for p in preds)
            expected = [(snippet_to_time(x1, 30.0), snippet_to_time(x2, 30.0))
                        for x1, x2 in enumeration_oracle(cas.act[0], 1, T, 0.25, -0.3, 0.4)]
            assert got == expected

    @pytest.mark.parametrize("max_len", [None, 6])
    def test_row_blocks_give_the_one_block_predictions(self, rng, monkeypatch, max_len):
        """Below T = 512 one block holds every row; a few pairs per block make many."""
        for _ in range(30):
            T = int(rng.integers(8, 31))
            cas = Cas(rng.uniform(0, 1, size=(1, T)))
            whole = baselines.oic_selection_enumerate(cas, 1, max_len=max_len)
            with monkeypatch.context() as patch:
                patch.setattr(baselines, "ENUMERATE_CHUNK_PAIRS", int(rng.integers(1, 3 * T)))
                assert baselines.oic_selection_enumerate(cas, 1, max_len=max_len) == whole
            if max_len is None:
                expected = [(snippet_to_time(x1, 30.0), snippet_to_time(x2, 30.0))
                            for x1, x2 in enumeration_oracle(cas.act[0], 1, T, 0.25, -0.3, 0.4)]
                assert sorted((p.start_s, p.end_s) for p in whole) == expected

    def test_weak_flat_video_yields_nothing(self):
        # every segment's contrast is at most 0.2, above the -0.3 ceiling
        assert baselines.oic_selection_enumerate(Cas(np.full((1, 20), 0.2)), 1) == []

    def test_max_len_cap(self, rng):
        cas = Cas(rng.uniform(0, 1, size=(1, 25)))
        preds = baselines.oic_selection_enumerate(cas, 1, max_len=4)
        # four snippets span three snippet steps, 1.5 s at the default 30 fps
        assert preds and all(p.end_s - p.start_s <= snippet_to_time(4, 30.0) for p in preds)
        with pytest.raises(InputError):
            baselines.oic_selection_enumerate(cas, 1, max_len=26)


class TestDirectOptimize:
    def test_deterministic_per_video(self):
        spec = SynthSpec(num_classes=2, t_range=(30, 40), instances_range=(1, 1),
                         base_activation=0.95, background=0.03)
        video = synth_corpus(spec, 1, 1)[0]
        a = baselines.direct_optimize(video, CFG, seed=0)
        b = baselines.direct_optimize(video, CFG, seed=0)
        assert a == b

    def test_lifts_its_video_once_for_every_epoch(self, monkeypatch):
        """Training lifts the one video once and reads that map in each of
        its epochs (prediction lifts it again); the predictions are those of
        a plain loop of steps, each lifting the video anew."""
        spec = SynthSpec(num_classes=2, t_range=(30, 40), instances_range=(1, 1),
                         base_activation=0.95, background=0.03)
        video = synth_corpus(spec, 1, 1)[0]
        relabelled = VideoRecord(video.video_id, video.cas, (1, 2), video.fps)
        net, velocity = new_network(CFG, baselines._video_seed(video.video_id, 0)), {}
        for i in range(CFG.direct_opt_iters):
            train_step(net, relabelled, CFG, velocity, i)
        want = predict_video(net, video, CFG)
        lifts, lift = [], train.cas_to_features
        monkeypatch.setattr(train, "cas_to_features", lambda *args: lifts.append(args) or lift(*args))
        assert baselines.direct_optimize(video, CFG, seed=0) == want and want
        assert len(lifts) == 2

    def test_different_videos_use_different_nets(self):
        # the per-video seed must depend on the video id
        assert baselines._video_seed("a", 0) != baselines._video_seed("b", 0)
        assert baselines._video_seed("a", 0) != baselines._video_seed("a", 1)


class TestInnerOnly:
    def test_trains_and_predicts(self):
        spec = SynthSpec(num_classes=2, t_range=(30, 40), instances_range=(1, 1),
                         base_activation=0.95, background=0.03)
        corpus = synth_corpus(spec, 2, 5)
        net = baselines.train_inner_only(corpus, CFG, seed=0)
        assert net.params.flat.size > 0


class TestCompare:
    def test_table_matches_direct_detector_calls(self):
        spec = SynthSpec(num_classes=2, t_range=(30, 40), instances_range=(1, 2),
                         base_activation=0.95, background=0.03)
        train = synth_corpus(spec, 1, 4, prefix="train")
        test = synth_corpus(spec, 2, 3, prefix="test")
        table = baselines.compare(train, test, CFG, seed=3)
        taus = [round(0.1 * i, 1) for i in range(1, 10)]
        alphas = (0.125, 0.25, 0.5)
        assert list(table) == (["full", "direct_opt", "oic_select", "inner_only"]
                               + [f"threshold_{tau}" for tau in taus]
                               + [f"full_alpha_{alpha}" for alpha in alphas])
        assert CFG.alpha == 0.25 and table["full_alpha_0.25"] is table["full"]
        alpha_cfg = replace(CFG, alpha=0.5)
        alpha_net = train_network(train, alpha_cfg, seed=3).net
        assert table["full_alpha_0.5"] == baselines.detect("full", test, alpha_cfg, alpha_net)
        enumerated = [
            p
            for v in test
            for k in range(1, v.cas.num_classes + 1)
            for p in baselines.oic_selection_enumerate(
                v.cas, k, alpha=CFG.alpha, loss_max=CFG.loss_max,
                nms_iou=CFG.nms_iou, fps=v.fps, video_id=v.video_id,
            )
        ]
        assert enumerated and table["oic_select"] == enumerated
        assert table["direct_opt"] == [
            p for v in test for p in baselines.direct_optimize(v, CFG, seed=3)
        ]

    def test_detect_rejects_unknown_mode_and_missing_network(self):
        videos = synth_corpus(SynthSpec(num_classes=2, t_range=(30, 40), instances_range=(1, 1)), 0, 1)
        with pytest.raises(InputError):
            baselines.detect("best", videos, CFG)
        with pytest.raises(InputError, match="needs a trained network"):
            baselines.detect("inner_only", videos, CFG)
