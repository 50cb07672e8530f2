import base64
import json
import tracemalloc

import numpy as np
import pytest

from oracles import (checkpoint_layout, checkpoint_tensors, checkpoint_v2, checkpoint_v3,
                     conv1d_backward_loops, conv1d_loops, conv1d_pad_reference, sgd_per_tensor)

from oicloc.cli import main
from oicloc.config import RunConfig
from oicloc.errors import ConfigError, TrainingError, UsageError
from oicloc.regressor import (NetworkB, conv1d_backward, conv1d_forward, learning_rate, sgd_step,
                              zero_bordered)


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

    def test_backward_without_input_gradient(self, rng):
        x = rng.standard_normal((4, 11))
        w = rng.standard_normal((5, 4, 3))
        dy = rng.standard_normal((5, 11))
        _, xp = conv1d_forward(x, w, np.zeros(5))
        _, dw, db = conv1d_backward(xp, w, dy)
        dx, dw_only, db_only = conv1d_backward(xp, w, dy, input_grad=False)
        assert dx is None
        assert np.array_equal(dw, dw_only) and np.array_equal(db, db_only)

    def test_forward_matches_np_pad_reference(self, rng):
        for T in (1, 2, 9, 40):
            x = rng.standard_normal((6, T))
            w = rng.standard_normal((4, 6, 3))
            b = rng.standard_normal(4)
            out, xp = conv1d_forward(x, w, b)
            want, want_xp = conv1d_pad_reference(x, w, b)
            assert np.array_equal(xp, want_xp) and np.array_equal(out, want)

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

    def test_conv_weight_taps_are_c_contiguous(self, rng):
        net = NetworkB(feature_dim=5, anchor_count=2, hidden=6)
        _, cache = net.forward(rng.standard_normal((5, 9)), mode="train")
        grads = net.backward(cache, rng.standard_normal((4, 9)))
        for tensors in (net.params, grads):
            weights = [t for name, t in tensors.items() if name.endswith(".w")]
            assert len(weights) == 4
            for w in weights:
                assert all(w[:, :, k].flags.c_contiguous for k in range(w.shape[2]))

    def test_zero_bordered_map_is_read_in_place(self, rng):
        net = NetworkB(feature_dim=5, anchor_count=2, hidden=6, seed=3)
        feat = zero_bordered(5, 11)
        feat[...] = rng.standard_normal(feat.shape)
        _, cache = net.forward(feat, mode="train")
        assert cache["layers"][0]["xp"] is feat.base
        for i in range(1, 3):  # each hidden layer wrote into the next conv's buffer
            assert not cache["layers"][i]["xp"][:, [0, -1]].any()

    def test_any_other_map_is_copied_bit_identically(self, rng):
        """A plain, a strided or a dirty-bordered map gives the bits of the
        same values read in place from a zero-bordered buffer."""
        pred_w = rng.standard_normal((4, 6, 3))
        grad_out = rng.standard_normal((4, 11))

        def run(feat):
            net = NetworkB(feature_dim=5, anchor_count=2, hidden=6, seed=3)
            net.params["pred.w"] = pred_w
            infer = net.forward(feat)
            out, cache = net.forward(feat, mode="train")
            return [infer, out, *net.backward(cache, grad_out).values()], cache

        feat = zero_bordered(5, 11)
        feat[...] = rng.standard_normal(feat.shape)
        dirty = np.ones((5, 13))
        dirty[:, 1:-1] = feat
        want, _ = run(feat)
        for other in (np.array(feat), np.asfortranarray(feat), dirty[:, 1:-1]):
            got, cache = run(other)
            assert not np.shares_memory(cache["layers"][0]["xp"], other)
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    def test_backward_requires_train_cache(self):
        net = NetworkB(feature_dim=3, anchor_count=1, hidden=4)
        with pytest.raises(UsageError):
            net.backward(None, np.zeros((2, 5)))

    def test_backward_shape_check(self, rng):
        net = NetworkB(feature_dim=3, anchor_count=1, hidden=4)
        _, cache = net.forward(rng.standard_normal((3, 5)), mode="train")
        with pytest.raises(UsageError):
            net.backward(cache, np.zeros((2, 6)))


def write_v2(net, path) -> None:
    path.write_text(json.dumps(checkpoint_v2(net)))


def write_v3(header: dict, payload: bytes, path) -> None:
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def load_fails(path, match: str) -> str:
    """The message of the ConfigError loading ``path`` raises; it names the path."""
    with pytest.raises(ConfigError, match=match) as info:
        NetworkB.load(path)
    assert str(info.value).startswith(f"{path}: ")
    return str(info.value)


def assert_fails_small(path, match: str) -> None:
    """Loading ``path`` raises ConfigError having allocated under 1 MB."""
    tracemalloc.start()
    try:
        load_fails(path, match)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def trained_net(rng, feature_dim=5, anchor_count=3, hidden=6):
    net = NetworkB(feature_dim=feature_dim, anchor_count=anchor_count, hidden=hidden, seed=7)
    net.forward(rng.standard_normal((feature_dim, 17)), mode="train")  # move BN stats
    return net


def assert_same_net(a: NetworkB, b: NetworkB, rng) -> None:
    assert list(a.params) == list(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    for x, y in zip(a.running_mean + a.running_var, b.running_mean + b.running_var):
        assert np.array_equal(x, y)
    feat = rng.standard_normal((a.feature_dim, 9))
    assert np.array_equal(a.forward(feat), b.forward(feat))


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, rng, tmp_path):
        net = trained_net(rng)
        path = tmp_path / "ckpt.ckpt"
        net.save(path)
        assert_same_net(net, NetworkB.load(path), rng)

    def test_file_is_a_header_line_then_raw_float64(self, rng, tmp_path):
        net = trained_net(rng)
        meta = {"seed": 3, "config": {"anchors": [2, 4]}}
        net.save(tmp_path / "ckpt.ckpt", meta=meta)
        header, payload = checkpoint_v3(net, meta)
        assert header["tensors"] == checkpoint_layout(5, 3, 6)
        assert (tmp_path / "ckpt.ckpt").read_bytes() == json.dumps(header).encode() + b"\n" + payload

    def test_meta_round_trips(self, rng, tmp_path):
        meta = {"config": {"anchors": [1, 2], "lr": 1e-3, "manifest": None}, "seed": 11,
                "numpy": np.__version__, "blas": "openblas 0.3",
                "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                            "MKL_NUM_THREADS": "4"}}
        net = trained_net(rng)
        assert net.meta == {}
        net.save(tmp_path / "ckpt.ckpt", meta=meta)
        assert NetworkB.load(tmp_path / "ckpt.ckpt").meta == meta
        net.save(tmp_path / "bare.ckpt")
        assert NetworkB.load(tmp_path / "bare.ckpt").meta == {}

    def test_v2_and_v3_of_one_net_load_bit_identical(self, rng, tmp_path):
        net = trained_net(rng)
        write_v2(net, tmp_path / "v2.json")
        net.save(tmp_path / "v3.ckpt")
        v2, v3 = NetworkB.load(tmp_path / "v2.json"), NetworkB.load(tmp_path / "v3.ckpt")
        assert v2.meta == {}
        assert_same_net(v2, v3, rng)
        assert_same_net(net, v2, rng)
        for tail in ("\n\n", "\n ", "\r\n\t"):  # JSON whitespace after one v2 line
            (tmp_path / "v2ws.json").write_text(json.dumps(checkpoint_v2(net)) + tail)
            assert_same_net(v2, NetworkB.load(tmp_path / "v2ws.json"), rng)

    def test_rejects_unknown_version(self, tmp_path):
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        data = checkpoint_v2(net)
        data["version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        load_fails(path, "unsupported checkpoint version 99")
        header, payload = checkpoint_v3(net)
        write_v3({**header, "version": 99}, payload, path)
        load_fails(path, "unsupported checkpoint version 99")

    def corrupt(self, tmp_path, payload=None, shape=None):
        """Write a v2 checkpoint with conv0.b's f8 payload or shape replaced, then load it."""
        data = checkpoint_v2(NetworkB(feature_dim=2, anchor_count=1, hidden=3))
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
        write_v2(NetworkB(feature_dim=2, anchor_count=1, hidden=3), path)
        path.write_text(path.read_text()[:-10])
        load_fails(path, "cut.json")
        path.write_text("[]")
        load_fails(path, "cut.json: checkpoint must be a JSON object")
        path.write_text('{"version": 2, "hidden": 3}')
        load_fails(path, r"cut.json: .*\['anchor_count', 'feature_dim'")

    @pytest.mark.parametrize("text, command", [
        ("[" * 100_000, "predict --config run.json --checkpoint deep --out p.jsonl"),
        ("[" * 100_000 + "\npayload", "predict --config run.json --checkpoint deep --out p.jsonl"),
        ("[" * 100_000, "predict --config deep --out p.jsonl"),
        ("[" * 100_000, "synth --spec deep --out corpus"),
        ("[" * 100_000, "eval --pred none.jsonl --manifest deep --out e.json"),
        ("[" * 100_000, "eval --pred deep --manifest manifest.json --out e.json"),
    ], ids=["one-line", "header-line", "config", "synth-spec", "manifest", "predictions"])
    def test_rejects_json_nested_too_deep(self, tmp_path, monkeypatch, capsys, text, command):
        """Every JSON reader turns a document nested too deep for the parser
        into one error line naming the file, and exit code 2."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "v.csv").write_text("snippet,class_1\n1,0.5\n")
        entry = {"video_id": "v", "cas_path": "v.csv", "labels": [1], "fps": 30.0}
        (tmp_path / "manifest.json").write_text(json.dumps([entry]))
        (tmp_path / "run.json").write_text(
            json.dumps({"version": 1, "profile": "synthetic", "manifest": "manifest.json"}))
        (tmp_path / "none.jsonl").write_text("")
        (tmp_path / "deep").write_text(text)
        assert main(command.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: deep:") and err.count("\n") == 1
        assert "recursion" in err

    @pytest.mark.parametrize("keep, message", [
        (lambda data, line: len(data) - 1, "payload is 1095 bytes, expected 1096"),
        (lambda data, line: len(data) - 8, "payload is 1088 bytes, expected 1096"),
        (lambda data, line: line + 1, "payload is 0 bytes, expected 1096"),
        (lambda data, line: line, "payload is 0 bytes, expected 1096"),
        (lambda data, line: line - 10, "cut.ckpt: "),  # no longer a JSON line
    ], ids=["byte", "float", "payload", "newline", "header"])
    def test_v3_rejects_a_truncated_file(self, tmp_path, keep, message):
        path = tmp_path / "cut.ckpt"
        NetworkB(feature_dim=2, anchor_count=1, hidden=3).save(path)
        data = path.read_bytes()
        path.write_bytes(data[: keep(data, data.index(b"\n"))])
        load_fails(path, message)

    @pytest.mark.parametrize("change", [
        lambda p: p[:-1], lambda p: p[:-8], lambda p: b"", lambda p: p + bytes(8),
        lambda p: p + b"\n",
    ], ids=["byte", "float", "all", "extra-float", "extra-newline"])
    def test_v3_rejects_a_short_or_long_payload(self, tmp_path, change):
        header, payload = checkpoint_v3(NetworkB(feature_dim=2, anchor_count=1, hidden=3))
        write_v3(header, change(payload), tmp_path / "bad.ckpt")
        load_fails(tmp_path / "bad.ckpt",
                   rf"checkpoint payload is {len(change(payload))} bytes, expected {len(payload)}$")

    @pytest.mark.parametrize("key, value, message", [
        ("version", "3", "unsupported checkpoint version '3'"),
        ("version", 3.5, "unsupported checkpoint version 3.5"),
        ("feature_dim", "2", "'feature_dim' must be a positive integer"),
        ("feature_dim", 2.0, "'feature_dim' must be a positive integer"),
        ("anchor_count", None, "'anchor_count' must be a positive integer"),
        ("hidden", True, "'hidden' must be a positive integer"),
        ("hidden", 0, "'hidden' must be a positive integer"),
        ("feature_dim", 3, "'tensors' does not list the tensors of feature_dim 3"),
        ("tensors", {}, "'tensors' does not list"),
        ("tensors", checkpoint_layout(2, 1, 3)[:-1], "'tensors' does not list"),
        ("tensors", [[n, [float(d) for d in s]] for n, s in checkpoint_layout(2, 1, 3)],
         "'tensors' does not list"),
        ("meta", [], "'meta' must be a JSON object"),
        ("meta", None, "'meta' must be a JSON object"),
    ])
    def test_v3_rejects_a_mistyped_header_key(self, tmp_path, key, value, message):
        header, payload = checkpoint_v3(NetworkB(feature_dim=2, anchor_count=1, hidden=3))
        write_v3({**header, key: value}, payload, tmp_path / "bad.ckpt")
        load_fails(tmp_path / "bad.ckpt", message)

    @pytest.mark.parametrize("key", ["version", "feature_dim", "anchor_count", "hidden",
                                     "tensors", "meta"])
    def test_v3_rejects_a_dropped_header_key(self, tmp_path, key):
        header, payload = checkpoint_v3(NetworkB(feature_dim=2, anchor_count=1, hidden=3))
        del header[key]
        write_v3(header, payload, tmp_path / "bad.ckpt")
        message = "version None" if key == "version" else rf"lacks keys \['{key}'\]"
        load_fails(tmp_path / "bad.ckpt", message)

    def test_header_alone_allocates_nothing(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text('{"version": 2, "feature_dim": 500, "anchor_count": 1, "hidden": 500, '
                        '"tensors": {}}')
        assert path.stat().st_size == 83
        assert_fails_small(path, "conv0.w")

    def test_v3_header_alone_allocates_nothing(self, tmp_path):
        header = {"version": 3, "feature_dim": 500, "anchor_count": 1, "hidden": 500,
                  "tensors": checkpoint_layout(500, 1, 500), "meta": {}}
        write_v3(header, b"", tmp_path / "tiny.ckpt")
        assert_fails_small(tmp_path / "tiny.ckpt", "payload is 0 bytes")

    def test_rejects_tensor_shapes_the_header_does_not_imply(self, tmp_path):
        data = checkpoint_v2(NetworkB(feature_dim=2, anchor_count=1, hidden=3))
        data["feature_dim"] = 10**12  # conv0.w would be 24 TB
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        load_fails(path, r"conv0.w has shape \[3, 2, 3\], expected")

    def test_rejects_v1_float_lists(self, tmp_path):
        data = checkpoint_v2(NetworkB(feature_dim=2, anchor_count=1, hidden=3))
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
        g = gradients(net, **{"pred.b": 1.0})
        sgd_step(net, g, cfg, velocity, 0)
        first = net.params["pred.b"].copy()
        sgd_step(net, g, cfg, velocity, 0)
        # second velocity is 0.5 * 1 + 1 = 1.5
        assert np.allclose(net.params["pred.b"] - first, -1.5)

    def test_weight_decay_shrinks_parameters(self):
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        net.params["pred.b"][...] = 10.0
        cfg = RunConfig(lr=0.1, momentum=0.0, weight_decay=0.1)
        sgd_step(net, gradients(net), cfg, {}, 0)
        assert np.allclose(net.params["pred.b"], 10.0 - 0.1 * (0.1 * 10.0))

    def test_non_finite_gradient_raises(self):
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        g = gradients(net)
        g["pred.b"][0] = np.nan
        with pytest.raises(TrainingError, match="non-finite gradient in pred.b at iteration 3"):
            sgd_step(net, g, RunConfig(), {}, 3)

    def test_names_the_first_non_finite_tensor_in_backward_order(self, rng):
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        _, cache = net.forward(rng.standard_normal((2, 6)), mode="train")
        grads = net.backward(cache, rng.standard_normal((2, 6)))
        assert list(grads)[:3] == ["pred.w", "pred.b", "bn2.gamma"]
        for name in ("conv0.w", "bn1.beta"):
            grads[name][...] = np.inf
        with pytest.raises(TrainingError, match="in bn1.beta at"):
            sgd_step(net, grads, RunConfig(), {}, 0)

    def test_rejects_missing_or_misshapen_gradient(self):
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        with pytest.raises(UsageError, match="pred.b"):
            partial = {n: g for n, g in gradients(net).items() if n != "pred.b"}
            sgd_step(net, partial, RunConfig(), {}, 0)
        with pytest.raises(UsageError, match="pred.b"):
            sgd_step(net, {**gradients(net), "pred.b": np.zeros(3)}, RunConfig(), {}, 0)

    def test_flat_step_matches_per_tensor_reference(self, rng):
        net = NetworkB(feature_dim=3, anchor_count=2, hidden=4, seed=2)
        cfg = RunConfig(lr=0.05, lr_step=2, momentum=0.9, weight_decay=5e-4)
        params = {name: p.copy() for name, p in net.params.items()}
        velocity, ref_velocity = {}, {}
        for iteration in range(4):
            g = {name: rng.standard_normal(p.shape) for name, p in params.items()}
            sgd_step(net, g, cfg, velocity, iteration)
            sgd_per_tensor(params, g, learning_rate(cfg, iteration), cfg.momentum,
                           cfg.weight_decay, ref_velocity)
            for name, p in params.items():
                assert np.array_equal(net.params[name], p)

    def test_later_steps_hold_one_parameter_sized_temporary(self, rng):
        net = NetworkB(feature_dim=64, anchor_count=2, hidden=64, seed=3)
        _, cache = net.forward(rng.standard_normal((64, 8)), mode="train")
        grads = net.backward(cache, rng.standard_normal((4, 8)))
        cfg, velocity = RunConfig(), {}
        sgd_step(net, grads, cfg, velocity, 0)
        tracemalloc.start()
        try:
            sgd_step(net, grads, cfg, velocity, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the weight-decay term, reused for lr * velocity once folded into it
        assert peak < 1.5 * net.params.flat.nbytes

    def test_step_after_load_changes_the_checkpoint(self, rng, tmp_path):
        net = NetworkB(feature_dim=3, anchor_count=1, hidden=4, seed=5)
        net.save(tmp_path / "ckpt.ckpt")
        loaded = NetworkB.load(tmp_path / "ckpt.ckpt")
        cfg = RunConfig(lr=0.5, momentum=0.0, weight_decay=0.0)
        sgd_step(loaded, gradients(loaded, **{"pred.b": 1.0}), cfg, {}, 0)
        loaded.save(tmp_path / "after.ckpt")
        after = NetworkB.load(tmp_path / "after.ckpt")
        changed = [n for (n, a), (_, b) in zip(checkpoint_tensors(net), checkpoint_tensors(after))
                   if not np.array_equal(a, b)]
        assert changed == ["pred.b"]
        assert np.array_equal(after.params["pred.b"], np.full(2, -0.5))


def gradients(net, **values):
    """A full gradient dict for ``net``: zeros, or the given value per name."""
    return {name: np.full(p.shape, values.get(name, 0.0)) for name, p in net.params.items()}
