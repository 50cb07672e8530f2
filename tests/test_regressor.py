import base64
import json

import numpy as np
import pytest

from oracles import conv1d_backward_loops, conv1d_loops

from oicloc.config import RunConfig
from oicloc.errors import ConfigError, TrainingError, UsageError
from oicloc.regressor import NetworkB, conv1d_backward, conv1d_forward, learning_rate, sgd_step


class TestConv1d:
    def test_matches_loop_oracle(self, rng):
        for _ in range(20):
            c_in, c_out, T = (int(rng.integers(1, 5)) for _ in range(3))
            T += 3
            x = rng.standard_normal((c_in, T))
            w = rng.standard_normal((c_out, c_in, 3))
            b = rng.standard_normal(c_out)
            out, _ = conv1d_forward(x, w, b)
            assert np.allclose(out, conv1d_loops(x, w, b), atol=1e-12)

    def test_backward_matches_loop_oracle(self, rng):
        for _ in range(40):
            c_in, c_out = (int(rng.integers(1, 9)) for _ in range(2))
            T = int(rng.integers(1, 13))
            x = rng.standard_normal((c_in, T))
            w = rng.standard_normal((c_out, c_in, 3))
            dy = rng.standard_normal((c_out, T))
            _, xp = conv1d_forward(x, w, np.zeros(c_out))
            for got, want in zip(conv1d_backward(xp, w, dy), conv1d_backward_loops(x, w, dy)):
                assert got.shape == want.shape
                assert np.allclose(got, want, atol=1e-12)

    def test_same_padding_preserves_length(self, rng):
        x = rng.standard_normal((2, 9))
        out, _ = conv1d_forward(x, rng.standard_normal((4, 2, 3)), np.zeros(4))
        assert out.shape == (4, 9)


class TestNetworkB:
    def test_output_shape(self):
        net = NetworkB(feature_dim=6, anchor_count=5, hidden=8)
        out = net.forward(np.zeros((6, 13)))
        assert out.shape == (10, 13)

    def test_zero_init_pred_gives_identity_anchors(self, rng):
        net = NetworkB(feature_dim=6, anchor_count=3, hidden=8, seed=4)
        out = net.forward(rng.standard_normal((6, 13)))
        assert np.array_equal(out, np.zeros((6, 13)))

    def test_rejects_wrong_feature_dim(self):
        net = NetworkB(feature_dim=6, anchor_count=2, hidden=8)
        with pytest.raises(ConfigError):
            net.forward(np.zeros((5, 13)))

    def test_rejects_unknown_mode(self):
        net = NetworkB(feature_dim=3, anchor_count=1, hidden=4)
        with pytest.raises(UsageError):
            net.forward(np.zeros((3, 5)), mode="test")

    def test_train_mode_updates_running_stats(self, rng):
        net = NetworkB(feature_dim=3, anchor_count=1, hidden=4, seed=1)
        before = [m.copy() for m in net.running_mean]
        net.forward(rng.standard_normal((3, 20)), mode="train")
        assert any(not np.array_equal(a, b) for a, b in zip(before, net.running_mean))

    def test_infer_mode_is_pure(self, rng):
        net = NetworkB(feature_dim=3, anchor_count=1, hidden=4, seed=1)
        feat = rng.standard_normal((3, 20))
        net.forward(feat, mode="train")
        snapshot = [m.copy() for m in net.running_mean]
        out1 = net.forward(feat)
        out2 = net.forward(feat)
        assert np.array_equal(out1, out2)
        assert all(np.array_equal(a, b) for a, b in zip(snapshot, net.running_mean))

    def test_backward_requires_train_cache(self):
        net = NetworkB(feature_dim=3, anchor_count=1, hidden=4)
        with pytest.raises(UsageError):
            net.backward(None, np.zeros((2, 5)))

    def test_backward_shape_check(self, rng):
        net = NetworkB(feature_dim=3, anchor_count=1, hidden=4)
        _, cache = net.forward(rng.standard_normal((3, 5)), mode="train")
        with pytest.raises(UsageError):
            net.backward(cache, np.zeros((2, 6)))


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, rng, tmp_path):
        net = NetworkB(feature_dim=5, anchor_count=3, hidden=6, seed=7)
        net.forward(rng.standard_normal((5, 17)), mode="train")  # move BN stats
        path = tmp_path / "ckpt.json"
        net.save(path)
        clone = NetworkB.load(path)
        for name in net.params:
            assert np.array_equal(net.params[name], clone.params[name])
        for a, b in zip(net.running_mean, clone.running_mean):
            assert np.array_equal(a, b)
        for a, b in zip(net.running_var, clone.running_var):
            assert np.array_equal(a, b)
        feat = rng.standard_normal((5, 9))
        assert np.array_equal(net.forward(feat), clone.forward(feat))

    def test_rejects_unknown_version(self, tmp_path):
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        data = net.to_dict()
        data["version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError):
            NetworkB.load(path)

    def corrupt(self, tmp_path, payload=None, shape=None):
        """Save a net with conv0.b's f8 payload or shape replaced, then load it."""
        data = NetworkB(feature_dim=2, anchor_count=1, hidden=3).to_dict()
        spec = data["tensors"]["conv0.b"]
        spec["f8"] = payload if payload is not None else spec["f8"]
        spec["shape"] = shape if shape is not None else spec["shape"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        return NetworkB.load(path)

    def test_rejects_payload_that_is_not_base64(self, tmp_path):
        with pytest.raises(ConfigError, match="conv0.b"):
            self.corrupt(tmp_path, payload="not base64!")

    def test_rejects_payload_length_that_does_not_match_shape(self, tmp_path):
        with pytest.raises(ConfigError, match="conv0.b"):
            self.corrupt(tmp_path, payload=base64.b64encode(bytes(16)).decode())
        with pytest.raises(ConfigError, match="conv0.b"):
            self.corrupt(tmp_path, payload=base64.b64encode(bytes(20)).decode())
        with pytest.raises(ConfigError, match="conv0.b"):
            self.corrupt(tmp_path, shape=[4])

    def test_rejects_truncated_file_non_object_and_missing_keys(self, tmp_path):
        path = tmp_path / "cut.json"
        NetworkB(feature_dim=2, anchor_count=1, hidden=3).save(path)
        path.write_text(path.read_text()[:-10])
        with pytest.raises(ConfigError, match="cut.json"):
            NetworkB.load(path)
        path.write_text("[]")
        with pytest.raises(ConfigError, match="cut.json: checkpoint must be a JSON object"):
            NetworkB.load(path)
        path.write_text('{"version": 2, "hidden": 3}')
        with pytest.raises(ConfigError, match=r"cut.json: .*\['anchor_count', 'feature_dim'"):
            NetworkB.load(path)

    def test_rejects_v1_float_lists(self, tmp_path):
        data = NetworkB(feature_dim=2, anchor_count=1, hidden=3).to_dict()
        data["version"] = 1
        for spec in data["tensors"].values():  # v1 stored each tensor as a float list
            spec["values"] = np.frombuffer(base64.b64decode(spec.pop("f8")), "<f8").tolist()
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as info:
            NetworkB.load(path)
        assert str(info.value) == f"{path}: unsupported checkpoint version 1"


class TestSgd:
    def test_learning_rate_schedule(self):
        cfg = RunConfig(lr=1e-2, lr_step=100)
        assert learning_rate(cfg, 0) == 1e-2
        assert learning_rate(cfg, 99) == 1e-2
        assert learning_rate(cfg, 100) == pytest.approx(1e-3)
        assert learning_rate(cfg, 250) == pytest.approx(1e-4)

    def test_plain_step_without_momentum(self):
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        cfg = RunConfig(lr=0.1, momentum=0.0, weight_decay=0.0)
        g = {name: np.ones_like(p) for name, p in net.params.items()}
        before = {name: p.copy() for name, p in net.params.items()}
        sgd_step(net, g, cfg, {}, 0)
        for name in net.params:
            assert np.allclose(net.params[name], before[name] - 0.1)

    def test_momentum_accumulates(self):
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        cfg = RunConfig(lr=1.0, momentum=0.5, weight_decay=0.0)
        velocity = {}
        g = {"pred.b": np.ones_like(net.params["pred.b"])}
        sgd_step(net, g, cfg, velocity, 0)
        first = net.params["pred.b"].copy()
        sgd_step(net, g, cfg, velocity, 0)
        # second velocity is 0.5 * 1 + 1 = 1.5
        assert np.allclose(net.params["pred.b"] - first, -1.5)

    def test_weight_decay_shrinks_parameters(self):
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        net.params["pred.b"] = np.full(2, 10.0)
        cfg = RunConfig(lr=0.1, momentum=0.0, weight_decay=0.1)
        sgd_step(net, {"pred.b": np.zeros(2)}, cfg, {}, 0)
        assert np.allclose(net.params["pred.b"], 10.0 - 0.1 * (0.1 * 10.0))

    def test_non_finite_gradient_raises(self):
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        with pytest.raises(TrainingError):
            sgd_step(net, {"pred.b": np.array([np.nan, 0.0])}, RunConfig(), {}, 3)
