import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    lift_reference, network_backward_lean_reference, network_backward_reference,
    network_forward_reference, sgd_per_tensor,
)

from oicloc import features, regressor, train
from oicloc.config import PROFILES, RunConfig
from oicloc.errors import InputError, TrainingError, UsageError
from oicloc.features import cas_to_features
from oicloc.regressor import learning_rate
from oicloc.selection import build_candidates, select, training_loss
from oicloc.synth import SynthSpec, synth_corpus
from oicloc.train import new_network, predict_video, train_network, train_step

SPEC = SynthSpec(
    num_classes=2,
    t_range=(40, 60),
    instances_range=(1, 2),
    base_activation=0.95,
    noise_amp=0.02,
    background=0.03,
    gap_range=(8, 14),
)
CFG = RunConfig(anchors=(2, 4, 8, 16), feature_dim=12, hidden=16, lr=3e-6)


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(SPEC, 5, 20)


class TestFeatures:
    def test_shape_and_determinism(self, corpus):
        cas = corpus[0].cas
        f1 = cas_to_features(cas, 12)
        f2 = cas_to_features(cas, 12)
        assert f1.shape == (12, cas.num_snippets)
        assert np.array_equal(f1, f2)

    def test_bounded_by_tanh(self, corpus):
        f = cas_to_features(corpus[0].cas, 12)
        assert np.all(np.abs(f) <= 1.0)

    def test_matches_a_fresh_projection_bitwise(self, corpus):
        for cas in (corpus[0].cas, corpus[1].cas):
            seed = features._EMBED_SEED + cas.num_classes
            assert np.array_equal(cas_to_features(cas, 12), lift_reference(cas.act, 12, seed))

    def test_lifts_into_a_zero_bordered_buffer_the_net_reads_in_place(self, corpus):
        cas = corpus[0].cas
        feat = cas_to_features(cas, 12)
        buf = feat.base
        assert buf.shape == (12, cas.num_snippets + 2)
        assert feat.__array_interface__ == buf[:, 1:-1].__array_interface__
        assert not buf[:, 0].any() and not buf[:, -1].any()
        _, cache = new_network(CFG, 0).forward(feat, mode="train")
        assert np.shares_memory(cache[0][0], feat)

    def test_distinct_videos_get_distinct_features(self, corpus):
        f1 = cas_to_features(corpus[0].cas, 12)
        f2 = cas_to_features(corpus[1].cas, 12)
        assert f1.shape[1] != f2.shape[1] or not np.array_equal(f1, f2)


class TestTrainNetwork:
    def test_records_one_loss_per_video_per_epoch(self, corpus):
        result = train_network(corpus, CFG, seed=0)
        assert len(result.losses) == len(corpus)
        assert all(np.isfinite(x) for x in result.losses)

    def test_kept_losses_are_below_ceiling(self, corpus):
        result = train_network(corpus, CFG, seed=0)
        # every per-video total is a sum of losses <= loss_max < 0, or zero
        assert all(x <= 0.0 for x in result.losses)

    def test_deterministic_given_seed(self, corpus):
        a = train_network(corpus, CFG, seed=3)
        b = train_network(corpus, CFG, seed=3)
        assert a.losses == b.losses
        for name in a.net.params:
            assert np.array_equal(a.net.params[name], b.net.params[name])

    def test_epochs_multiply_iterations(self, corpus):
        from dataclasses import replace

        result = train_network(corpus, replace(CFG, epochs=2), seed=0)
        assert len(result.losses) == 2 * len(corpus)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_network([], CFG)

    def test_empty_corpus_is_an_input_error(self):
        with pytest.raises(InputError, match="^training requires at least one video$"):
            train_network([], CFG)

    def test_diverged_scale_names_the_iteration(self, corpus):
        net = new_network(CFG, 0)
        net.params["pred.b"][1] = 800.0  # t_w of anchor 0 overflows exp
        with pytest.raises(TrainingError, match=r"iteration 7, .*anchor 0"):
            train_step(net, corpus[0], CFG, {}, 7)

    def test_non_finite_map_names_the_iteration_and_video(self, corpus):
        net = new_network(CFG, 0)
        net.params["pred.b"][0] = np.nan  # t_x of anchor 0 at every position
        with pytest.raises(TrainingError) as info:
            train_step(net, corpus[0], CFG, {}, 7)
        assert str(info.value) == (f"iteration 7, video {corpus[0].video_id}: "
                                   "regression values must be finite")

    def test_collapsed_scale_names_the_iteration(self, corpus):
        net = new_network(CFG, 0)
        net.params["pred.b"][1] = -800.0  # t_w of anchor 0 underflows to zero width
        with pytest.raises(TrainingError, match=r"iteration 7, .*collapses.*anchor 0"):
            train_step(net, corpus[0], CFG, {}, 7)

    @pytest.mark.parametrize("feat", [np.zeros((12, 40)), [], (None,)],
                             ids=["bare-map", "empty-list", "tuple"])
    def test_a_step_refuses_a_map_not_handed_over_in_a_one_element_list(self, corpus, feat):
        with pytest.raises(UsageError, match="^feat must be None or a one-element list"):
            train_step(new_network(CFG, 0), corpus[0], CFG, {}, 0, feat=feat)


STEP_CONFIGS = [
    RunConfig(anchors=(2, 4, 8, 16), feature_dim=12, hidden=16, lr=1e-3, lr_step=3),
    PROFILES["synthetic"],
    PROFILES["thumos"],
]


class TestStepIsBitwise:
    """train_step leaves exactly the parameters of the reference step, whose
    batch-norm backward is the compact form."""

    @pytest.mark.parametrize("cfg", STEP_CONFIGS)
    def test_parameters_and_running_stats_match_reference(self, corpus, cfg):
        net = new_network(cfg, 4)
        params = {name: p.copy() for name, p in net.params.items()}
        # copies: the net's running statistics are views it updates in place
        means = [m.copy() for m in net.running_mean]
        variances = [v.copy() for v in net.running_var]
        velocity, ref_velocity = {}, {}
        for iteration, video in enumerate(corpus[:6]):
            loss = train_step(net, video, cfg, velocity, iteration)
            seed = features._EMBED_SEED + video.cas.num_classes
            feat = lift_reference(video.cas.act, cfg.feature_dim, seed)
            reg_map, cache = network_forward_reference(params, means, variances, feat)
            grid = build_candidates(reg_map, cfg.anchor_config(), cfg.alpha)
            survivors = select(video.cas, grid, video.labels, cfg.act_min, cfg.loss_max,
                               cfg.nms_iou)
            ref_loss, grad_out = training_loss(video.cas, grid, survivors)
            grads = network_backward_lean_reference(params, cache, grad_out)
            sgd_per_tensor(params, grads, learning_rate(cfg, iteration), cfg.momentum,
                           cfg.weight_decay, ref_velocity)
            assert loss == ref_loss
            for name, p in params.items():
                assert np.array_equal(net.params[name], p), (iteration, name)
            for got, want in zip(net.running_mean + net.running_var, means + variances):
                assert np.array_equal(got, want)
        assert any(np.any(p != 0) for p in grads.values())


class TestBackwardMatchesFirstWritten:
    """The compact batch-norm backward is the same gradient as the one first
    written through dvar and dmu, to gradcheck's relative tolerance."""

    @pytest.mark.parametrize("cfg", STEP_CONFIGS)
    def test_gradients_agree_to_gradcheck_tolerance(self, corpus, cfg, rng):
        net = new_network(cfg, 4)
        # a non-zero pred layer (it starts at zero, which would hand the hidden
        # layers no gradient) and non-trivial γ and β
        net.params["pred.w"] = rng.uniform(-0.1, 0.1, net.params["pred.w"].shape)
        for i in range(3):
            net.params[f"bn{i}.gamma"] = rng.uniform(0.5, 1.5, cfg.hidden)
            net.params[f"bn{i}.beta"] = rng.uniform(-0.2, 0.2, cfg.hidden)
        params = {name: p.copy() for name, p in net.params.items()}
        for video in corpus[:2]:
            feat = cas_to_features(video.cas, cfg.feature_dim)
            reg_map, cache = net.forward(feat, mode="train")
            grad_out = rng.standard_normal(reg_map.shape)
            grads = net.backward(cache, grad_out)
            _, ref_cache = network_forward_reference(params, [0.0] * 3, [1.0] * 3, feat)
            want = network_backward_reference(params, ref_cache, grad_out)
            for name, got in grads.items():
                assert np.any(got != 0), name
                err = np.abs(got - want[name]) / np.maximum(
                    np.maximum(np.abs(got), np.abs(want[name])), 1e-4)
                assert err.max() <= 1e-4, (name, err.max())


PAPER_WIDTH_VIDEOS = SynthSpec(num_classes=20, t_range=(130, 160), instances_range=(1, 3))


class TestWorkerPoolKeepsBits:
    @pytest.mark.parametrize("pool", ["pool"], indirect=True)
    def test_train_and_predict_give_the_same_bits_on_one_cpu(self, pool, split_calls,
                                                              monkeypatch):
        """At thumos width and K 20, T 130-160, the lift, every hidden conv
        with its batch norm and the SGD step reach the worker's thresholds;
        a run with the worker thread and one without it (one usable CPU)
        give the same parameters, running statistics, velocity, losses and
        predictions, and every split ran on the worker."""
        self.check(PROFILES["thumos"], pool, split_calls, monkeypatch)

    @pytest.mark.parametrize("pool", ["pool"], indirect=True)
    def test_an_odd_hidden_width_gives_the_same_bits_on_one_cpu(self, pool, split_calls,
                                                                monkeypatch):
        """The same at hidden width 129, whose row halves (64 and 65 rows)
        and flat-vector halves differ in size."""
        cfg = replace(PROFILES["thumos"], hidden=129)
        assert new_network(cfg, 0).params.flat.size % 2 == 1
        self.check(cfg, pool, split_calls, monkeypatch)

    @staticmethod
    def check(cfg, pool, split_calls, monkeypatch):
        videos = synth_corpus(PAPER_WIDTH_VIDEOS, 7, 3)

        def run():
            net, velocity = new_network(cfg, 0), {}
            losses = [train_step(net, v, cfg, velocity, i) for i, v in enumerate(videos)]
            stats = np.concatenate(net.running_mean + net.running_var)
            return (net.params.flat, stats, velocity["flat"], losses,
                    [predict_video(net, v, cfg) for v in videos])

        with_pool = run()
        calls, splits = len(pool), len(split_calls)
        monkeypatch.setattr(regressor.os, "sched_getaffinity", lambda pid: {0})
        alone = run()
        # per video, training pools the lift, 3 + 3 convs and the SGD step,
        # prediction the lift and 3 convs
        assert sum(map(bool, pool[:calls])) == 12 * len(videos) and not any(pool[calls:])
        assert not np.array_equal(with_pool[0], new_network(cfg, 0).params.flat)
        assert any(with_pool[4]) and with_pool[3:] == alone[3:]
        for got, want in zip(with_pool[:3], alone[:3]):
            assert got.tobytes() == want.tobytes()
        on_worker = [name for name, there, args in split_calls[:splits] if there]
        assert not any(there for _, there, _ in split_calls[splits:])
        # per video: 3 + 3 batch norms (train), 3 (predict), 3 conv backwards, 1 step
        assert sorted(on_worker) == sorted(len(videos) * (
            ["_batch_norm_relu"] * 6 + ["_batch_norm_backward"] * 3 + ["_weight_grads"] * 3
            + ["_momentum_rows"]))


class TestLiftAhead:
    """At thumos width and K 20, T 130-160, each video's lift reaches the
    worker's threshold, so train_network lifts it on the worker thread ahead
    of its step (over two epochs, across video and epoch boundaries)."""

    CFG = replace(PROFILES["thumos"], epochs=2)

    @pytest.mark.parametrize("pool", ["pool"], indirect=True)
    def test_lifts_on_the_worker_give_the_bits_of_inline_lifts(self, pool, monkeypatch):
        """Parameters, running statistics and losses equal those of a run
        with no worker at all and of a plain loop of steps lifting inline."""
        videos = synth_corpus(PAPER_WIDTH_VIDEOS, 7, 3)
        on_worker, lift = [], train.cas_to_features

        def spy(*args, **kwargs):
            on_worker.append(threading.current_thread() is not threading.main_thread())
            return lift(*args, **kwargs)

        monkeypatch.setattr(train, "cas_to_features", spy)

        def bits(net, losses):
            stats = np.concatenate(net.running_mean + net.running_var)
            return net.params.flat.tobytes(), stats.tobytes(), losses

        result = train_network(videos, self.CFG, seed=0)
        with_worker = bits(result.net, result.losses)
        assert on_worker == [True] * 6
        net, velocity = new_network(self.CFG, 0), {}
        losses = [train_step(net, v, self.CFG, velocity, i) for i, v in enumerate(videos * 2)]
        assert on_worker[6:] == [False] * 6 and bits(net, losses) == with_worker
        monkeypatch.setattr(regressor, "_worker", lambda *args: None)
        result = train_network(videos, self.CFG, seed=0)
        assert on_worker[12:] == [False] * 6 and bits(result.net, result.losses) == with_worker
        assert not np.array_equal(result.net.params.flat, new_network(self.CFG, 0).params.flat)

    @pytest.mark.parametrize("pool", ["pool"], indirect=True)
    def test_the_pending_lift_is_joined_before_an_error_surfaces(self, pool, monkeypatch):
        """When the step at iteration 1 fails while the lift of video 2
        runs on the worker, that lift has finished when the error surfaces."""
        videos = synth_corpus(PAPER_WIDTH_VIDEOS, 7, 3)
        started, finished, lift = [], [], train.cas_to_features

        def slow_lift(*args, **kwargs):
            started.append(True)
            time.sleep(0.2)
            feat = lift(*args, **kwargs)
            finished.append(True)
            return feat

        def failing_step(net, video, cfg, velocity, iteration, loss="oic", feat=None):
            if iteration == 1:
                deadline = time.monotonic() + 10.0
                while len(started) < 3 and time.monotonic() < deadline:
                    time.sleep(0.001)  # until the lift of video 2 runs
                raise TrainingError("iteration 1: failed")
            return 0.0

        monkeypatch.setattr(train, "cas_to_features", slow_lift)
        monkeypatch.setattr(train, "train_step", failing_step)
        with pytest.raises(TrainingError, match="iteration 1"):
            train_network(videos, self.CFG)
        assert len(started) == len(finished) == 3

    @pytest.mark.parametrize("pool", ["pool"], indirect=True)
    def test_a_lift_on_the_worker_runs_under_the_callers_error_state(self, pool, monkeypatch):
        """Each lift ahead meets an overflow as it would in the caller's thread."""
        seen, lift = [], train.cas_to_features

        def spy(*args, **kwargs):
            seen.append((threading.current_thread() is not threading.main_thread(), np.geterr()))
            return lift(*args, **kwargs)

        monkeypatch.setattr(train, "cas_to_features", spy)
        with np.errstate(over="raise"):
            train_network(synth_corpus(PAPER_WIDTH_VIDEOS, 7, 2), self.CFG)
            assert seen == [(True, np.geterr())] * 4


class TestEachMapIsFreedBeforeItsSgdStep:
    """When sgd_step runs, nothing holds the step's feature map (nor the
    forward cache, which holds its buffer), even where the next step reads
    the same video: every step is handed its own lift. Over the corpus
    (a, a, b) and two epochs, each of the six steps lifts its video; the bits
    are those of a plain loop of steps lifting inline."""

    def test_at_desk_width(self, corpus, monkeypatch):
        self.check(corpus[:2], CFG, monkeypatch)

    def test_at_paper_width(self, pool, monkeypatch):
        """The same with each lift on the worker thread, ahead of its step."""
        self.check(synth_corpus(PAPER_WIDTH_VIDEOS, 7, 2), PROFILES["thumos"], monkeypatch)

    @staticmethod
    def check(videos, cfg, monkeypatch):
        a, b = videos
        order, cfg = [a, a, b] * 2, replace(cfg, epochs=2)
        net, velocity = new_network(cfg, 0), {}
        losses = [train_step(net, v, cfg, velocity, i) for i, v in enumerate(order)]
        lifts, alive, lift, step = [], [], train.cas_to_features, train.sgd_step

        def spy_lift(cas, feature_dim):
            feat = lift(cas, feature_dim)
            lifts.append((cas, weakref.ref(feat.base)))
            return feat

        def spy_step(net, grads, cfg, velocity, iteration):
            # lifts run one at a time in step order, so lifts[i] is step i's
            # map even while the next step's lift, ahead on the worker, is alive
            alive.append(lifts[iteration][1]() is not None)
            step(net, grads, cfg, velocity, iteration)

        monkeypatch.setattr(train, "cas_to_features", spy_lift)
        monkeypatch.setattr(train, "sgd_step", spy_step)
        result = train_network([a, a, b], cfg, seed=0)
        assert alive == [False] * 6
        assert [c for c, _ in lifts] == [v.cas for v in order]
        assert result.losses == losses
        assert result.net.params.flat.tobytes() == net.params.flat.tobytes()


class TestPredictVideo:
    def test_predictions_cover_planted_instances(self, corpus):
        net = new_network(CFG, 0)  # identity anchors already localize plateaus
        hits = 0
        for v in corpus:
            preds = predict_video(net, v, CFG)
            for g in v.gt:
                if any(
                    p.class_id == g.class_id
                    and min(p.end_s, g.end_s) > max(p.start_s, g.start_s)
                    for p in preds
                ):
                    hits += 1
        total = sum(len(v.gt) for v in corpus)
        assert hits >= 0.8 * total

    @pytest.mark.parametrize("bias, error, message", [
        (800.0, TrainingError, "t_w = 800 overflows the length at position 1, anchor 0"),
        (float("nan"), TrainingError, "regression values must be finite"),
    ])
    def test_grid_errors_name_the_video(self, corpus, bias, error, message):
        net = new_network(CFG, 0)
        net.params["pred.b"][1] = bias  # t_w of anchor 0 at every position
        with pytest.raises(error) as info:
            predict_video(net, corpus[0], CFG)
        assert str(info.value) == f"video {corpus[0].video_id}: {message}"

    def test_prediction_fields(self, corpus):
        net = new_network(CFG, 0)
        v = corpus[0]
        for p in predict_video(net, v, CFG):
            assert p.video_id == v.video_id
            assert p.end_s > p.start_s >= 0.0
            assert p.score >= 1.3  # score = 1 - loss with loss <= -0.3
            assert 1 <= p.class_id <= v.cas.num_classes
