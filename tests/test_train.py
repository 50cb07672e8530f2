import numpy as np
import pytest

from oicloc.config import RunConfig
from oicloc.errors import TrainingError
from oicloc.features import cas_to_features
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

    def test_diverged_scale_names_the_iteration(self, corpus):
        net = new_network(CFG, 0)
        net.params["pred.b"][1] = 800.0  # t_w of anchor 0 overflows exp
        with pytest.raises(TrainingError, match=r"iteration 7, .*anchor 0"):
            train_step(net, corpus[0], CFG, {}, 7)

    def test_collapsed_scale_names_the_iteration(self, corpus):
        net = new_network(CFG, 0)
        net.params["pred.b"][1] = -800.0  # t_w of anchor 0 underflows to zero width
        with pytest.raises(TrainingError, match=r"iteration 7, .*collapses.*anchor 0"):
            train_step(net, corpus[0], CFG, {}, 7)


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

    def test_prediction_fields(self, corpus):
        net = new_network(CFG, 0)
        v = corpus[0]
        for p in predict_video(net, v, CFG):
            assert p.video_id == v.video_id
            assert p.end_s > p.start_s >= 0.0
            assert p.score >= 1.3  # score = 1 - loss with loss <= -0.3
            assert 1 <= p.class_id <= v.cas.num_classes
