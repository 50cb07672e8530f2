import json
import multiprocessing
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import (checkpoint_layout, checkpoint_tensors, checkpoint_v2, checkpoint_v3,
                     conv1d_backward_loops, conv1d_backward_reference, conv1d_loops,
                     conv1d_pad_reference, sgd_per_tensor)

from oicloc import regressor
from oicloc.cli import main
from oicloc.config import PROFILES, RunConfig
from oicloc.errors import InputError, TrainingError, UsageError
from oicloc.regressor import (NetworkB, _conv_taps, _padded, learning_rate, sgd_step,
                              zero_bordered)


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """(output, padded input) of the package's same-padded conv as the net's
    prediction layer runs it, with the worker the net hands a conv of this
    shape; the padded input is ``x``'s own buffer when ``x`` is a
    ``zero_bordered`` interior."""
    xp = _padded(x)
    y, last = _conv_taps(xp, w, regressor._conv_worker(w, x.shape[1]))
    y += last
    y += b[:, None]
    return y, xp


def conv1d_backward(xp: np.ndarray, w: np.ndarray, dy: np.ndarray, input_grad: bool = True,
                    dw: np.ndarray | None = None):
    """(dx, dw, db) of the package's conv backward, with the worker the net
    hands a conv of this shape, into ``dw`` (default: a new tap-major array,
    as the net stores its weights) and a new ``db``."""
    if dw is None:
        dw = np.empty((w.shape[2],) + w.shape[:2]).transpose(1, 2, 0)
    db = np.empty(w.shape[0])
    dx = regressor.conv1d_backward(xp, w, dy, regressor._conv_worker(w, dy.shape[1]), dw, db,
                                   input_grad)
    return dx, dw, db


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

    @pytest.mark.parametrize("T", [90, 1])
    def test_desk_width_matches_the_per_tap_oracle_bitwise(self, rng, T):
        """At 32 x 32 no call reaches the worker; the straight-line taps give
        the oracle's bits, the matrix-vector products of T 1 included."""
        assert regressor._worker(32 * 32 * T) is None
        x = rng.standard_normal((32, T))
        w = rng.standard_normal((3, 32, 32)).transpose(1, 2, 0)  # tap-major, as the net stores it
        b = rng.standard_normal(32)
        dy = rng.standard_normal((32, T))
        y, xp = conv1d_forward(x, w, b)
        assert y.tobytes() == conv1d_pad_reference(x, w, b)[0].tobytes()
        want = conv1d_backward_reference(xp, w, dy)
        for got, ref in zip(conv1d_backward(xp, w, dy), want, strict=True):
            assert got.tobytes() == ref.tobytes()
        dx, dw, db = conv1d_backward(xp, w, dy, input_grad=False)
        assert dx is None and dw.tobytes() == want[1].tobytes() and db.tobytes() == want[2].tobytes()

    def test_same_padding_preserves_length(self, rng):
        x = rng.standard_normal((2, 9))
        out, _ = conv1d_forward(x, rng.standard_normal((4, 2, 3)), np.zeros(4))
        assert out.shape == (4, 9)

    def test_a_hidden_layer_backward_holds_dx_and_one_product(self, rng):
        """Without the worker, each input-gradient product is added into the
        padded dx as soon as it is made: at 128 x 128, T 1000, the peak of
        new memory is that dx and one 128 x T product."""
        C, T = 128, 1000
        xp = _padded(rng.standard_normal((C, T)))
        w = rng.standard_normal((3, C, C)).transpose(1, 2, 0)  # tap-major, as the net stores it
        dy = rng.standard_normal((C, T))
        dw, db = np.empty((3, C, C)).transpose(1, 2, 0), np.empty(C)
        tracemalloc.start()
        try:
            regressor.conv1d_backward(xp, w, dy, None, dw, db)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # and up to 256 kB of NumPy's own (an add into a strided view takes 128 kB)
        assert peak <= xp.nbytes + C * T * 8 + (1 << 18)


class TestWorkerPool:
    """From POOL_MIN_MADDS a conv layer shares its taps and the row halves of
    its batch norm with the worker thread; every output keeps the bits of
    the straight per-tap sum and of one call over all rows."""

    C_OUT, C_IN, T = 64, 256, 256  # 4.2M multiply-adds per tap

    def test_conv_matches_the_per_tap_oracle_bitwise(self, rng, pool):
        x = rng.standard_normal((self.C_IN, self.T))
        w = rng.standard_normal((self.C_OUT, self.C_IN, 3))
        b = rng.standard_normal(self.C_OUT)
        dy = rng.standard_normal((self.C_OUT, self.T))
        y, xp = conv1d_forward(x, w, b)
        want_y, want_xp = conv1d_pad_reference(x, w, b)
        assert np.array_equal(xp, want_xp) and np.array_equal(y, want_y)
        want = conv1d_backward_reference(xp, w, dy)
        for got, ref in zip(conv1d_backward(xp, w, dy), want, strict=True):
            assert np.array_equal(got, ref)
        dx, dw, db = conv1d_backward(xp, w, dy, input_grad=False)
        assert dx is None and np.array_equal(dw, want[1]) and np.array_equal(db, want[2])
        assert len(pool) == 3

    @pytest.mark.parametrize("pool", ["pool"], indirect=True)
    def test_a_job_on_the_worker_is_not_handed_the_worker(self, pool):
        """A job on the worker thread runs whole: handed the worker, it would
        queue its half behind itself and wait forever."""
        executor = regressor._worker(1 << 30)
        assert executor is not None
        assert executor.submit(regressor._worker, 1 << 30).result(timeout=10) is None

    @pytest.mark.parametrize("pool", ["pool"], indirect=True)
    def test_a_job_on_the_worker_runs_under_the_callers_error_state(self, pool):
        """A job moved to the worker meets an overflow as it would here."""
        big = np.full(2, 1e308)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            regressor._alongside(regressor._worker(1 << 30), (np.multiply, big, big), float)

    def test_a_forked_child_starts_its_own_worker(self, rng, pool):
        """A child forked after the parent's worker started has no worker
        thread; its pooled convs must not wait on the parent's."""
        x = rng.standard_normal((self.C_IN, self.T))
        w = rng.standard_normal((self.C_OUT, self.C_IN, 3))
        want, _ = conv1d_pad_reference(x, w, np.zeros(self.C_OUT))
        assert np.array_equal(conv1d_forward(x, w, np.zeros(self.C_OUT))[0], want)

        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)

        def in_child():
            y, _ = conv1d_forward(x, w, np.zeros(self.C_OUT))
            writer.send(np.array_equal(y, want))

        child = context.Process(target=in_child)
        child.start()
        try:
            # a few milliseconds when it works; a hung child never reports
            assert reader.poll(timeout=10), "the forked child's conv did not finish"
            assert reader.recv() is True
        finally:
            if child.is_alive():
                child.kill()
            child.join()

    def test_the_worker_is_joined_before_an_error_surfaces(self, rng, pool, monkeypatch):
        """No job outlives the call: when this thread's first tap fails, the
        error surfaces once the worker's (slowed) taps have finished, and
        the worker's own error reaches the caller."""
        xp = _padded(rng.standard_normal((self.C_IN, self.T)))
        w = rng.standard_normal((self.C_OUT, self.C_IN, 3))
        dy = rng.standard_normal((self.C_OUT, self.T))
        done, tap_grads = [], regressor._tap_grads

        def slow_on_the_worker(*args):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
                done.append(True)
            return tap_grads(*args)

        monkeypatch.setattr(regressor, "_tap_grads", slow_on_the_worker)

        class Taps(list):
            """A weight gradient whose taps are separate arrays."""

            def __getitem__(self, index):
                return list.__getitem__(self, index[2])

        def taps(read_only: int) -> Taps:
            blocks = [np.empty(w.shape[:2]) for _ in range(3)]
            blocks[read_only].flags.writeable = False
            return Taps(blocks)

        with pytest.raises(ValueError, match="read-only"):
            conv1d_backward(xp, w, dy, dw=taps(read_only=0))
        assert done == ([] if pool[-1] is None else [True])  # without the worker, never started
        with pytest.raises(ValueError, match="read-only"):
            conv1d_backward(xp, w, dy, dw=taps(read_only=2))

    @pytest.mark.parametrize("pool", ["pool"], indirect=True)
    def test_every_split_gives_the_bits_of_one_cpu(self, rng, pool, split_calls, monkeypatch):
        """At an odd hidden width, 149 (row halves of 74 and 75), and T 100,
        conv1 and conv2 reach POOL_MIN_MADDS and the net's 0.14M parameters
        POOL_MIN_PARAMS; conv0 (8 inputs) and the prediction conv do not.
        Three train steps and an inference give the parameters, running
        statistics, velocity and regression map of the same run on one CPU,
        and each split ran on the worker."""
        feat = rng.standard_normal((8, 100))
        grad_outs = rng.standard_normal((3, 4, 100))
        cfg = RunConfig(lr=0.1, momentum=0.9, weight_decay=5e-4)

        def run():
            net, velocity = NetworkB(8, 2, hidden=149, seed=1), {}
            for i, grad_out in enumerate(grad_outs):
                _, cache = net.forward(feat, mode="train")
                sgd_step(net, net.backward(cache, grad_out), cfg, velocity, i)
            stats = np.concatenate(net.running_mean + net.running_var)
            return net.params.flat, stats, velocity["flat"], net.forward(feat)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: a lost row update would show
        try:
            with_pool = run()
        finally:
            sys.setswitchinterval(interval)
        calls = len(split_calls)
        monkeypatch.setattr(regressor.os, "sched_getaffinity", lambda pid: {0})
        alone = run()
        for got, want in zip(with_pool, alone, strict=True):
            assert got.tobytes() == want.tobytes()
        assert not any(there for _, there, _ in split_calls[calls:])
        there = [(name, args) for name, on_worker, args in split_calls[:calls] if on_worker]
        size = with_pool[0].size
        # the top halves: 2 layers x 4 forwards, 2 layers x 3 backwards, 3 steps
        assert sorted((name, len(args[0])) for name, args in there if name != "_tap_grads") == (
            [("_batch_norm_backward", 74)] * 6 + [("_batch_norm_relu", 74)] * 8
            + [("_momentum_rows", size // 2)] * 3)
        # conv2 and conv1 backward: tap 1's weight gradient and all of tap 2's
        taps = [(list(args[4]), list(args[5])) for name, args in there if name == "_tap_grads"]
        assert taps == [([1, 2], [2])] * 6


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
        with pytest.raises(InputError):
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

    def test_every_tensor_is_a_view_of_one_vector(self, rng):
        """``params.flat`` heads the one state vector and the running
        statistics view its tail, in checkpoint order; a train-mode forward
        updates them in place."""
        net = NetworkB(feature_dim=3, anchor_count=1, hidden=4, seed=1)
        state, stats = net.state.flat, net.running_mean + net.running_var
        assert list(net.state) == [name for name, _ in checkpoint_layout(3, 1, 4)]
        assert net.params.flat.base is state and net.params.flat.ctypes.data == state.ctypes.data
        assert all(np.shares_memory(t, state) for t in [*net.params.values(), *stats])
        before = [(t, t.ctypes.data) for t in stats]
        net.forward(rng.standard_normal((3, 20)), mode="train")
        assert [(t, t.ctypes.data) for t in net.running_mean + net.running_var] == before
        tail = np.concatenate([t for pair in zip(net.running_mean, net.running_var) for t in pair])
        assert np.array_equal(state[net.params.flat.size :], tail)
        assert not np.array_equal(tail, np.tile(np.repeat([0.0, 1.0], 4), 3))

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
        dirty = []
        for side in (0, -1):  # one nonzero border column, either side
            buf = np.zeros((5, 13))
            buf[:, 1:-1], buf[:, side] = feat, 1.0
            dirty.append(buf[:, 1:-1])
        want, _ = run(feat)
        for other in (np.array(feat), np.asfortranarray(feat), *dirty):
            got, cache = run(other)
            assert not np.shares_memory(cache["layers"][0]["xp"], other)
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    def test_backward_lets_go_of_each_layers_incoming_gradient(self, rng, monkeypatch):
        """Without the worker, backward's new memory peaks at its gradient
        vector and three hidden x (T + 2) maps: the incoming gradient, dz and
        the masked gradient in batch norm, then dz, the next padded gradient
        and one product in the conv backward, the incoming gradient gone."""
        monkeypatch.setattr(regressor, "_worker", lambda *args: None)
        H, T = 64, 2000
        net = NetworkB(feature_dim=8, anchor_count=2, hidden=H, seed=1)
        net.params["pred.w"] = rng.uniform(-0.1, 0.1, net.params["pred.w"].shape)
        _, cache = net.forward(rng.standard_normal((8, T)), mode="train")
        grad_out = rng.standard_normal((4, T))
        tracemalloc.start()
        try:
            grads = net.backward(cache, grad_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.any(grads["conv0.w"] != 0)
        assert peak <= grads.flat.nbytes + 3 * H * (T + 2) * 8 + (1 << 18)  # and NumPy ufunc buffers

    def test_backward_requires_train_cache(self):
        net = NetworkB(feature_dim=3, anchor_count=1, hidden=4)
        with pytest.raises(UsageError):
            net.backward(None, np.zeros((2, 5)))

    def test_backward_shape_check(self, rng):
        net = NetworkB(feature_dim=3, anchor_count=1, hidden=4)
        _, cache = net.forward(rng.standard_normal((3, 5)), mode="train")
        with pytest.raises(UsageError):
            net.backward(cache, np.zeros((2, 6)))


def write_v3(header: dict, payload: bytes, path) -> None:
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def load_fails(path, match: str) -> str:
    """The message of the InputError loading ``path`` raises; it names the path."""
    with pytest.raises(InputError, match=match) as info:
        NetworkB.load(path)
    assert str(info.value).startswith(f"{path}: ")
    return str(info.value)


def assert_fails_small(path, match: str) -> None:
    """Loading ``path`` raises InputError having allocated under 1 MB."""
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

    def test_rejects_a_version_2_checkpoint(self, rng, tmp_path):
        """Version 2 (one JSON line of base64 tensors) is no longer read."""
        path = tmp_path / "v2.json"
        for tail in ("", "\n", "\n\n", "\r\n\t"):
            path.write_text(json.dumps(checkpoint_v2(trained_net(rng))) + tail)
            with pytest.raises(InputError) as info:
                NetworkB.load(path)
            assert str(info.value) == f"{path}: unsupported checkpoint version 2"

    def test_rejects_unknown_version(self, tmp_path):
        header, payload = checkpoint_v3(NetworkB(feature_dim=2, anchor_count=1, hidden=3))
        write_v3({**header, "version": 99}, payload, tmp_path / "bad.ckpt")
        load_fails(tmp_path / "bad.ckpt", "unsupported checkpoint version 99")

    def test_rejects_truncated_file_non_object_and_missing_keys(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        header, _ = checkpoint_v3(NetworkB(feature_dim=2, anchor_count=1, hidden=3))
        path.write_text(json.dumps(header)[:-10])
        load_fails(path, "cut.ckpt: ")
        path.write_text("[]\n")
        load_fails(path, "cut.ckpt: checkpoint header must be a JSON object")
        path.write_text('{"version": 3, "hidden": 3}')
        load_fails(path, r"cut.ckpt: .*\['anchor_count', 'feature_dim', 'meta', 'tensors'\]")

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
        ("version", "3", "checkpoint header: 'version' must be the integer 3"),
        ("version", 3.5, "unsupported checkpoint version 3.5"),
        ("feature_dim", "2", "'feature_dim' must be a positive integer"),
        ("feature_dim", 2.0, "'feature_dim' must be a positive integer"),
        ("anchor_count", None, "'anchor_count' must be a positive integer"),
        ("hidden", True, "'hidden' must be a positive integer"),
        ("hidden", 0, "'hidden' must be a positive integer"),
        ("feature_dim", 3, "'tensors' does not list the tensors of feature_dim 3"),
        ("tensors", {}, "'tensors' must be a list"),
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
        load_fails(tmp_path / "bad.ckpt", rf"checkpoint header: lacks keys \['{key}'\]")

    def test_header_alone_allocates_nothing(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text('{"version": 2, "feature_dim": 500, "anchor_count": 1, "hidden": 500, '
                        '"tensors": {}}')
        assert_fails_small(path, "unsupported checkpoint version 2")

    def test_v3_header_alone_allocates_nothing(self, tmp_path):
        header = {"version": 3, "feature_dim": 500, "anchor_count": 1, "hidden": 500,
                  "tensors": checkpoint_layout(500, 1, 500), "meta": {}}
        write_v3(header, b"", tmp_path / "tiny.ckpt")
        assert_fails_small(tmp_path / "tiny.ckpt", "payload is 0 bytes")

    def test_rejects_tensor_shapes_the_header_does_not_imply(self, tmp_path):
        header, payload = checkpoint_v3(NetworkB(feature_dim=2, anchor_count=1, hidden=3))
        path = tmp_path / "big.ckpt"
        write_v3({**header, "feature_dim": 10**12}, payload, path)  # conv0.w would be 24 TB
        assert_fails_small(path, "'tensors' does not list the tensors of feature_dim 1000000000000")

    @pytest.mark.parametrize("name, value, message", [
        ("conv0.w", float("nan"), "conv0.w holds a non-finite value"),
        ("pred.b", float("inf"), "pred.b holds a non-finite value"),
        ("bn2.running_mean", -float("inf"), "bn2.running_mean holds a non-finite value"),
        ("bn0.running_var", -1.0, "bn0.running_var holds a negative variance"),
        ("bn2.running_var", float("nan"), "bn2.running_var holds a non-finite value"),
    ])
    def test_rejects_values_that_cannot_be_right(self, tmp_path, name, value, message):
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        dict(checkpoint_tensors(net))[name].flat[-1] = value
        write_v3(*checkpoint_v3(net), tmp_path / "bad.ckpt")
        load_fails(tmp_path / "bad.ckpt", rf"checkpoint tensor {message}$")

    def test_a_zero_running_variance_loads(self, rng, tmp_path):
        net = trained_net(rng)
        net.running_var[1][:] = 0.0  # a constant channel; eps keeps the scale finite
        net.save(tmp_path / "ckpt.ckpt")
        assert_same_net(net, NetworkB.load(tmp_path / "ckpt.ckpt"), rng)

    def test_rejects_v1_float_lists(self, tmp_path):
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        data = {"version": 1, "feature_dim": 2, "anchor_count": 1, "hidden": 3,
                "tensors": {name: {"shape": list(t.shape), "values": t.ravel().tolist()}
                            for name, t in checkpoint_tensors(net)}}
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InputError) as info:
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
        g = gradients(net)
        g.flat[...] = 1.0
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

    def test_a_step_that_overflows_a_parameter_raises(self):
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        grads = gradients(net, **{"bn1.beta": 4.0})  # finite, but lr * 4 is not
        with np.errstate(over="ignore"), pytest.raises(
                TrainingError, match="^non-finite parameter in bn1.beta at iteration 5$"):
            sgd_step(net, grads, RunConfig(lr=1e308), {}, 5)

    def test_names_the_first_non_finite_tensor_in_backward_order(self, rng):
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        _, cache = net.forward(rng.standard_normal((2, 6)), mode="train")
        grads = net.backward(cache, rng.standard_normal((2, 6)))
        assert list(grads)[:3] == ["pred.w", "pred.b", "bn2.gamma"]
        for name in ("conv0.w", "bn1.beta"):
            grads[name][...] = np.inf
        with pytest.raises(TrainingError, match="in bn1.beta at"):
            sgd_step(net, grads, RunConfig(), {}, 0)

    @pytest.mark.parametrize("name, index", [("conv0.w", (0, 0, 0)), ("pred.b", -1)],
                             ids=["top", "bottom"])
    def test_either_half_finds_its_non_finite_value_at_paper_width(self, pool, name, index):
        """At thumos width (0.89M parameters) each half of the update checks
        its own parameters: a NaN gradient, or a step that overflows one
        parameter, in the top half (conv0.w's first element) or in the
        bottom half (pred.b's last) is named."""
        cfg = PROFILES["thumos"]

        def step(value, lr):
            net = NetworkB(cfg.feature_dim, cfg.anchor_config().count, cfg.hidden)
            grads = gradients(net)
            grads[name][index] = value
            at = np.flatnonzero(grads.flat)  # the flat halves split at size // 2
            assert at.size == 1 and (at[0] < net.params.flat.size // 2) == (name == "conv0.w")
            sgd_step(net, grads, replace(cfg, lr=lr), {}, 2)

        with pytest.raises(TrainingError, match=f"^non-finite gradient in {name} at iteration 2$"):
            step(np.nan, cfg.lr)
        with np.errstate(over="ignore"), pytest.raises(
                TrainingError, match=f"^non-finite parameter in {name} at iteration 2$"):
            step(4.0, 1e308)  # finite, but lr * 4 is not

    def test_rejects_missing_or_misshapen_gradient(self):
        """Only backward's output for a net of the same shape is a gradient."""
        net = NetworkB(feature_dim=2, anchor_count=1, hidden=3)
        plain = {name: np.zeros(p.shape) for name, p in net.params.items()}
        other = gradients(NetworkB(feature_dim=2, anchor_count=2, hidden=3))
        for grads in (plain, other):
            with pytest.raises(UsageError, match="gradients NetworkB.backward returns"):
                sgd_step(net, grads, RunConfig(), {}, 0)

    def test_flat_step_matches_per_tensor_reference(self, rng):
        net = NetworkB(feature_dim=3, anchor_count=2, hidden=4, seed=2)
        cfg = RunConfig(lr=0.05, lr_step=2, momentum=0.9, weight_decay=5e-4)
        params = {name: p.copy() for name, p in net.params.items()}
        velocity, ref_velocity = {}, {}
        for iteration in range(4):
            g = gradients(net)
            g.flat[...] = rng.standard_normal(g.flat.size)
            sgd_step(net, g, cfg, velocity, iteration)
            sgd_per_tensor(params, g, learning_rate(cfg, iteration), cfg.momentum,
                           cfg.weight_decay, ref_velocity)
            for name, p in params.items():
                assert np.array_equal(net.params[name], p)

    def test_halves_match_the_per_tensor_reference(self, rng, pool, split_calls):
        """From POOL_MIN_PARAMS (an odd 0.14M here) the worker updates the top
        half of the flat vector; every bit stays the per-tensor reference's."""
        net = NetworkB(feature_dim=4, anchor_count=2, hidden=149, seed=2)
        assert net.params.flat.size % 2 == 1 and net.params.flat.size >= regressor.POOL_MIN_PARAMS
        cfg = RunConfig(lr=0.05, lr_step=2, momentum=0.9, weight_decay=5e-4)
        params = {name: p.copy() for name, p in net.params.items()}
        velocity, ref_velocity = {}, {}
        for iteration in range(3):
            g = gradients(net)
            g.flat[...] = rng.standard_normal(g.flat.size)
            sgd_step(net, g, cfg, velocity, iteration)
            sgd_per_tensor(params, g, learning_rate(cfg, iteration), cfg.momentum,
                           cfg.weight_decay, ref_velocity)
            for name, p in params.items():
                assert net.params[name].tobytes() == p.tobytes()
        on_worker = [len(args[0]) for name, there, args in split_calls
                     if name == "_momentum_rows" and there]
        assert on_worker == ([net.params.flat.size // 2] * 3 if pool[-1] else [])

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
    """``backward``'s output for a net shaped like ``net`` (whose running
    statistics stay as they are), each tensor then set to zero or to the
    given value per name."""
    twin = NetworkB(net.feature_dim, net.anchor_count, net.hidden)
    _, cache = twin.forward(np.ones((net.feature_dim, 4)), mode="train")
    grads = twin.backward(cache, np.zeros((2 * net.anchor_count, 4)))
    for name in grads:
        grads[name] = values.get(name, 0.0)
    return grads
