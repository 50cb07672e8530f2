"""The boundary regressor: a small temporal conv net with manual backprop.

Three hidden conv layers (kernel 3, stride 1, pad 1), each followed by batch
normalization and ReLU, then a prediction conv layer emitting 2M regression
values per snippet (rows 2m / 2m+1 hold t_x / t_w for anchor m, 0-based).
Batch = one video, so normalization statistics are taken over the time axis.

Each layer's input is held once, as the interior of a zeroed buffer with one
border column per side (:func:`zero_bordered`): the feature lift and every
hidden layer write their output there, and the next conv reads that buffer
in place. Conv weights are stored tap-major in ``params.flat``: the (out, in,
k) view has each tap ``w[:, :, i]`` as one C-contiguous block, so the per-tap
matmuls read the weights without a gather and the backward writes each tap's
weight gradient straight into its block of the gradient vector.

At paper width, from the thresholds below and with a second usable CPU,
each conv layer with its batch norm, the SGD step and the feature lift share
their work with one worker thread (:func:`_worker`). Each moved job is a
whole, unchanged BLAS call or the same ufuncs on whole rows, so every output
bit is the same with or without it; README's worker account ("The worker
thread changes no bit") gives the split. Batch norm centres and scales the
conv output in place into ``x̂``: the same ufuncs on the same values as the
plain form, so the bits are those of ``tests/oracles.py``.

A training step frees each paper-width buffer after its last read. A conv
backward adds each input-gradient product into ``dx`` in tap order as soon
as it is made (the calling thread its own, the worker's after the join), so
at most one product per thread is alive; the backward lets go of each
layer's incoming gradient once its batch norm has read it.
"""
from __future__ import annotations

import contextvars
import json
import math
import os
import threading
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import InputError, TrainingError, UsageError, naming
from .io import POSITIVE_INTEGER, _is_int, _is_number, check_object, parse_json

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
KERNEL = 3
HIDDEN_LAYERS = 3
CHECKPOINT_VERSION = 3
# checkpoint header key -> (check of its value, what the check asks for)
_HEADER_RULES = {
    "version": (lambda v: _is_int(v) and v == CHECKPOINT_VERSION,
                f"the integer {CHECKPOINT_VERSION}"),
    "feature_dim": POSITIVE_INTEGER,
    "anchor_count": POSITIVE_INTEGER,
    "hidden": POSITIVE_INTEGER,
    "tensors": (lambda v: isinstance(v, list), "a list"),
    "meta": (lambda v: isinstance(v, dict), "a JSON object"),
}
PAD = (KERNEL - 1) // 2
# Multiply-adds per tap (c_out * c_in * T) from which a conv layer shares its
# work with the worker thread. A hand-off and join costs ~50 us; with one BLAS
# thread on two cores, moving a forward conv's last tap broke even at ~1M
# (64 x 64 x 256, 128 x 128 x 64) and took 0.89x the time at 12 x 128 x 800,
# 0.76x at 128 x 128 x 128 and 0.70x at 128 x 2048 x 1540. Desk shapes (at
# most 32 x 32 x 120) stay sequential.
POOL_MIN_MADDS = 1 << 21
# Parameters from which sgd_step updates the two halves of the flat vector at
# once. With one BLAS thread on two cores (median of 40-200 steps), a momentum
# step took 151 -> 203 us split at 64k elements, 506 -> 323 us at 128k and
# 6.4 -> 2.6 ms at 890k (thumos width): the hand-off broke even near 90k.
# Desk nets (~9k parameters) stay sequential.
POOL_MIN_PARAMS = 1 << 17

_pool = None  # (owning process id, single-worker ThreadPoolExecutor)
_WORKER_NAME = "oicloc-worker"


def _worker(work: int, least: int = POOL_MIN_MADDS):
    """The single worker thread's executor, created on first use, for a call
    of ``work`` units (multiply-adds per tap, or parameters with ``least`` =
    POOL_MIN_PARAMS); None below ``least``, when only one CPU is usable, or
    on the worker thread itself, whose jobs so run whole instead of waiting
    on their own queue."""
    global _pool
    if (work < least or len(os.sched_getaffinity(0)) < 2
            or threading.current_thread().name.startswith(_WORKER_NAME)):
        return None
    if _pool is None or _pool[0] != os.getpid():  # a forked child has no worker thread
        # imported here: importing it with this module slowed the baselines
        # workload, which never uses the worker, by 3.5-3.8% (10 benchmark pairs)
        from concurrent.futures import ThreadPoolExecutor
        _pool = os.getpid(), ThreadPoolExecutor(1, thread_name_prefix=_WORKER_NAME)
    return _pool[1]


def _conv_worker(w: np.ndarray, T: int):
    """:func:`_worker` for a conv layer of weights ``w`` over ``T`` snippets."""
    return _worker(w.shape[0] * w.shape[1] * T)


def zero_bordered(rows: int, T: int) -> np.ndarray:
    """The (rows, T) interior of a new zeroed (rows, T + 2*PAD) buffer. A conv
    given such a view reads its buffer in place instead of padding a copy."""
    return np.zeros((rows, T + 2 * PAD))[:, PAD : PAD + T]


def _padded(x: np.ndarray) -> np.ndarray:
    """The zero-bordered buffer ``x`` is the interior of (see
    :func:`zero_bordered`), or else a new one holding a copy of ``x``."""
    buf = x.base
    rows, T = x.shape
    if (isinstance(buf, np.ndarray) and buf.shape == (rows, T + 2 * PAD)
            and buf.dtype == x.dtype and buf.flags.c_contiguous and x.strides == buf.strides
            and x.ctypes.data == buf.ctypes.data + PAD * buf.itemsize
            and not buf[:, :: T + 1].any()):  # columns 0 and T + 1, the border as PAD is 1
        return buf
    xp = zero_bordered(rows, T)
    xp[...] = x
    return xp.base


def _alongside(pool, there: tuple, here, *args) -> tuple:
    """``(here(*args), there[0](*there[1:]))``, with ``there`` on the worker thread
    ``pool``, joined before this returns or raises: no job outlives the call.
    The job runs in a copy of this thread's context, so under its NumPy error
    state. Without a pool, ``there`` runs here after ``here``."""
    if pool is None:
        return here(*args), there[0](*there[1:])
    job = pool.submit(contextvars.copy_context().run, *there)
    try:
        mine = here(*args)
    finally:
        theirs = job.result()
    return mine, theirs


def _in_halves(pool, fn, arrays: tuple, *rest) -> tuple:
    """``(fn(*arrays, *rest),)``; with the worker thread ``pool``, ``fn`` on
    the arrays' top row halves there and on their bottom halves here, at once,
    and the results ``(bottom's, top's)``. The arrays' first axes index the
    same rows and ``fn`` works row by row (elementwise or along each row), so
    the bits are those of one call over all rows."""
    if pool is None:
        return (fn(*arrays, *rest),)
    half = len(arrays[0]) // 2
    top = [a[:half] for a in arrays]
    bottom = [a[half:] for a in arrays]
    return _alongside(pool, (fn, *top, *rest), fn, *bottom, *rest)


def _taps(xp: np.ndarray, w: np.ndarray, T: int, n: int) -> np.ndarray:
    """sum_{i < n} w[:, :, i] @ xp[:, i:i+T], summed in tap order."""
    y = w[:, :, 0] @ xp[:, :T]
    for i in range(1, n):
        y += w[:, :, i] @ xp[:, i : i + T]
    return y


def _conv_taps(xp: np.ndarray, w: np.ndarray, pool) -> tuple:
    """The convolution of the padded input ``xp`` without its bias, one BLAS
    matmul per kernel tap (at least two): ``(sum of all taps but the last, the
    last tap's product)``, the last computed on the worker thread ``pool``
    (see :func:`_alongside`). Adding the last product, then the bias,
    completes it in tap order."""
    ksz = w.shape[2]
    T = xp.shape[1] - (ksz - 1)
    return _alongside(pool, (np.matmul, w[:, :, -1], xp[:, ksz - 1 :]), _taps, xp, w, T, ksz - 1)


def _tap_grads(xp, w, dy, dw, dw_taps, dx_taps, dxp=None) -> list:
    """The weight gradients of the taps in ``dw_taps``, each written into
    ``dw[:, :, i]``, and the input-gradient products ``w[:, :, i].T @ dy`` of
    the taps in ``dx_taps``, in order: each added into its columns of ``dxp``
    as soon as it is made, or, without ``dxp``, returned."""
    T = dy.shape[1]
    for i in dw_taps:
        np.matmul(dy, xp[:, i : i + T].T, out=dw[:, :, i])
    if dxp is None:
        return [w[:, :, i].T @ dy for i in dx_taps]
    for i in dx_taps:
        dxp[:, i : i + T] += w[:, :, i].T @ dy
    return []


def conv1d_backward(
    xp: np.ndarray, w: np.ndarray, dy: np.ndarray, pool, dw: np.ndarray, db: np.ndarray,
    input_grad: bool = True,
) -> np.ndarray | None:
    """The input gradient ``dx`` of a same-padded temporal convolution, None
    without ``input_grad``. Each tap's weight gradient is written in place
    into ``dw[:, :, i]`` and the bias gradient into ``db``. The worker thread
    ``pool`` (see :func:`_alongside`) computes the weight gradients of taps
    k//2 onward and the input-gradient products of the taps after k//2, this
    thread the rest: 3:3 products for k = 3 with the input gradient. The
    input-gradient products are added into ``dx`` in tap order: this thread's
    as it makes them, the worker's after the join."""
    ksz = w.shape[2]
    pad = (ksz - 1) // 2
    T = dy.shape[1]
    dxp = np.zeros(xp.shape) if input_grad else None
    mid, taps = ksz // 2, range(ksz)
    dx_taps = taps if input_grad else range(0)
    _, theirs = _alongside(
        pool, (_tap_grads, xp, w, dy, dw, taps[mid:], dx_taps[mid + 1 :]),
        _tap_grads, xp, w, dy, dw, taps[:mid], dx_taps[: mid + 1], dxp)
    for i, product in zip(dx_taps[mid + 1 :], theirs):
        dxp[:, i : i + T] += product
    np.add.reduce(dy, 1, out=db)
    if not input_grad:
        return None
    return dxp[:, pad : xp.shape[1] - pad]


def _batch_norm_relu(z, last, b, gamma, beta, mean, var, inv_std, relu_mask, out,
                     train: bool) -> None:
    """Rows of a hidden layer after its conv's :func:`_conv_taps`: the last
    tap and bias added into ``z``, then batch norm over time, centring and
    scaling ``z`` in place into x̂ (train: ``mean`` and ``var`` written from
    these rows; infer: the running statistics read from them), ``inv_std``
    and ``relu_mask`` written, and ReLU(γ x̂ + β) written into ``out``."""
    z += last
    z += b[:, None]
    T = z.shape[1]
    if train:
        np.add.reduce(z, 1, out=mean)
        mean /= T  # bit-equal to z.mean(axis=1)
        z -= mean[:, None]
        np.add.reduce(z * z, 1, out=var)
        var /= T  # bit-equal to z.var(axis=1)
    else:
        z -= mean[:, None]
    np.divide(1.0, np.sqrt(var + BN_EPS), out=inv_std)
    z *= inv_std[:, None]
    # a contiguous y: ufuncs on a strided view of the next buffer cost more
    y = gamma[:, None] * z
    y += beta[:, None]
    np.greater(y, 0, out=relu_mask)
    np.multiply(y, relu_mask, out=out)


def _batch_norm_backward(dx, relu_mask, xhat, gamma, inv_std, dgamma, dbeta, dz) -> None:
    """Rows of a hidden layer's ReLU and batch-norm backward with batch
    statistics over the time axis: ``dgamma``, ``dbeta`` and the conv
    output's gradient ``dz`` written, the last in the compact form
    dz = γ/σ · (dy − (dβ + x̂·dγ) / n)."""
    dy = dx * relu_mask  # contiguous, unlike dx: 4 ufuncs read it
    np.multiply(dy, xhat, out=dz)
    np.add.reduce(dz, 1, out=dgamma)
    np.add.reduce(dy, 1, out=dbeta)
    np.multiply(xhat, dgamma[:, None], out=dz)
    dz += dbeta[:, None]
    dz /= xhat.shape[1]
    np.subtract(dy, dz, out=dz)
    dz *= (gamma * inv_std)[:, None]


def _tensor_shapes(feature_dim: int, anchor_count: int, hidden: int) -> dict[str, tuple]:
    """Every tensor a network holds, by name, in checkpoint order: the
    parameters, then each hidden layer's batch-norm running mean and variance."""
    dims = {"feature_dim": feature_dim, "anchor_count": anchor_count, "hidden": hidden}
    check_object(dims, "network", _HEADER_RULES)
    widths = [feature_dim] + [hidden] * HIDDEN_LAYERS
    shapes = {}
    for i in range(HIDDEN_LAYERS):
        shapes[f"conv{i}.w"] = (widths[i + 1], widths[i], KERNEL)
        for part in (f"conv{i}.b", f"bn{i}.gamma", f"bn{i}.beta"):
            shapes[part] = (widths[i + 1],)
    shapes["pred.w"] = (2 * anchor_count, hidden, KERNEL)
    shapes["pred.b"] = (2 * anchor_count,)
    for i in range(HIDDEN_LAYERS):
        for stat in ("running_mean", "running_var"):
            shapes[f"bn{i}.{stat}"] = (hidden,)
    return shapes


# the order backward produces gradients: a blow-up is named where it starts
_BACKWARD_ORDER = ("pred.w", "pred.b") + tuple(
    f"{part}{i}.{kind}" for i in reversed(range(HIDDEN_LAYERS))
    for part, kind in (("bn", "gamma"), ("bn", "beta"), ("conv", "w"), ("conv", "b"))
)


class FlatTensors(dict):
    """Tensors by name, each a view into the one float64 vector ``flat``.

    ``layout`` maps each name to its slice of ``flat`` and, for a conv weight
    (out, in, k), to its tap-major storage shape (k, out, in), else None:
    each tap ``w[:, :, i]`` is one C-contiguous block, so a weight view is
    not C-contiguous and ``ravel`` of it is a copy. ``names`` orders the
    views (default: layout order). Assigning a name copies the value into its
    view, so ``flat`` stays the only storage.
    """

    def __init__(self, flat: np.ndarray, layout: dict, names=None):
        views = {}
        for name in layout if names is None else names:
            span, taps = layout[name]
            views[name] = flat[span] if taps is None else flat[span].reshape(taps).transpose(1, 2, 0)
        super().__init__(views)
        self.flat = flat

    def __setitem__(self, name, value) -> None:
        self[name][...] = value


class NetworkB:
    """Parameters and manual forward/backward of the localization network.

    Every tensor the network holds lives in one float64 vector: ``state``
    views all of them in checkpoint order (conv weights tap-major). The
    parameters come first, so ``params.flat`` is the vector's head and
    ``params[name]`` a view into it; ``running_mean[i]`` and
    ``running_var[i]`` view its tail.
    """

    def __init__(
        self,
        feature_dim: int,
        anchor_count: int,
        hidden: int = 128,
        seed: int = 0,
    ):
        self._allocate(feature_dim, anchor_count, hidden)
        rng = np.random.default_rng(seed)
        for i in range(HIDDEN_LAYERS):
            w = self.params[f"conv{i}.w"]
            limit = 1.0 / np.sqrt(w.shape[1] * KERNEL)
            w[...] = rng.uniform(-limit, limit, size=w.shape)
            self.params[f"bn{i}.gamma"] = 1.0
        # biases, betas and pred stay zero: training starts from identity anchors

    def _allocate(self, feature_dim: int, anchor_count: int, hidden: int) -> None:
        """Zeroed parameters and default running statistics."""
        self.feature_dim = feature_dim
        self.anchor_count = anchor_count
        self.hidden = hidden
        self._layout, offset = {}, 0
        for name, shape in _tensor_shapes(feature_dim, anchor_count, hidden).items():
            size = math.prod(shape)
            taps = (shape[2], shape[0], shape[1]) if len(shape) == 3 else None
            self._layout[name] = (slice(offset, offset + size), taps)
            offset += size
        self.state = FlatTensors(np.zeros(offset), self._layout)
        names = list(self._layout)
        stats = names[-2 * HIDDEN_LAYERS :]  # bn{i}.running_mean, bn{i}.running_var
        self.params = FlatTensors(self.state.flat[: self._layout[stats[0]][0].start],
                                  self._layout, names[: -len(stats)])
        self.running_mean = [self.state[name] for name in stats[0::2]]
        self.running_var = [self.state[name] for name in stats[1::2]]
        # the same six vectors as the rows of one (6, hidden) view: bn0's mean, var, bn1's, ...
        self._running = self.state.flat[self._layout[stats[0]][0].start :].reshape(-1, hidden)
        for var in self.running_var:
            var[...] = 1.0
        self.meta = {}  # the run metadata a version-3 checkpoint was saved with

    def forward(self, feat: np.ndarray, mode: str = "infer"):
        """Run the net over a D x T feature map.

        Returns the 2M x T regression map, plus, when mode == "train", the
        cache :meth:`backward` consumes: a list of one ``(xp, inv_std, xhat,
        relu_mask)`` record per hidden layer, then the prediction conv's
        padded input. A :func:`zero_bordered` map (as
        ``features.cas_to_features`` returns) is read in place, and the
        train cache then holds its buffer; any other map is copied once.
        """
        feat = np.asarray(feat, dtype=np.float64)
        if feat.ndim != 2 or feat.shape[0] != self.feature_dim:
            raise InputError(
                f"feature map must be {self.feature_dim} x T, got shape {feat.shape}"
            )
        if mode not in ("train", "infer"):
            raise UsageError(f"unknown forward mode {mode!r}")
        train = mode == "train"
        T = feat.shape[1]
        cache = [] if train else None
        # train: each layer's batch mean and variance, in the order of the
        # running statistics they update
        batch = np.empty(self._running.shape) if train else None
        xp = _padded(feat)
        for i in range(HIDDEN_LAYERS):
            w = self.params[f"conv{i}.w"]
            pool = _conv_worker(w, T)
            z, last = _conv_taps(xp, w, pool)
            rows = z.shape[0]
            if train:
                mean, var = batch[2 * i], batch[2 * i + 1]
            else:
                mean, var = self.running_mean[i], self.running_var[i]
            inv_std, relu_mask = np.empty(rows), np.empty(z.shape, dtype=bool)
            out = zero_bordered(rows, T)  # the next conv's padded input
            _in_halves(pool, _batch_norm_relu,
                       (z, last, self.params[f"conv{i}.b"], self.params[f"bn{i}.gamma"],
                        self.params[f"bn{i}.beta"], mean, var, inv_std, relu_mask, out), train)
            if train:
                cache.append((xp, inv_std, z, relu_mask))
            xp = out.base
        w = self.params["pred.w"]
        reg, last = _conv_taps(xp, w, _conv_worker(w, T))
        reg += last
        reg += self.params["pred.b"][:, None]
        if train:
            self._running[...] = BN_MOMENTUM * self._running + (1 - BN_MOMENTUM) * batch
            cache.append(xp)
            return reg, cache
        return reg

    def backward(self, cache, grad_out: np.ndarray) -> FlatTensors:
        """Exact parameter gradients for a train-mode forward, as views of one
        flat vector laid out like ``params.flat`` (assigning copies into them).
        The feature map's gradient is not computed: nothing upstream of the
        net is trained. Consumes ``cache``: each record is popped from it, and
        each buffer let go after its last read, so a cache serves one call."""
        if not isinstance(cache, list) or len(cache) != HIDDEN_LAYERS + 1:
            raise UsageError("backward needs the cache from a train-mode forward")
        T = cache[-1].shape[1] - 2
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if grad_out.shape != (2 * self.anchor_count, T):
            raise UsageError(
                f"grad_out shape {grad_out.shape} does not match cached forward"
            )
        grads = FlatTensors(np.empty(self.params.flat.size), self._layout, _BACKWARD_ORDER)
        w = self.params["pred.w"]
        dx = conv1d_backward(cache.pop(), w, grad_out, _conv_worker(w, T),
                             grads["pred.w"], grads["pred.b"])
        for i in reversed(range(HIDDEN_LAYERS)):
            (xp, inv_std, xhat, relu_mask), w = cache.pop(), self.params[f"conv{i}.w"]
            pool = _conv_worker(w, T)
            dz = np.empty(xhat.shape)
            _in_halves(pool, _batch_norm_backward,
                       (dx, relu_mask, xhat, self.params[f"bn{i}.gamma"], inv_std,
                        grads[f"bn{i}.gamma"], grads[f"bn{i}.beta"], dz))
            del dx, xhat, relu_mask  # read: freed before the conv's backward makes the next dx
            dx = conv1d_backward(xp, w, dz, pool, grads[f"conv{i}.w"],
                                 grads[f"conv{i}.b"], input_grad=i > 0)
        return grads

    # -- checkpointing ----------------------------------------------------

    def save(self, path: str | Path, meta: dict | None = None) -> None:
        """Write a version-3 checkpoint: one JSON header line (``version``,
        the three dims, the ordered ``tensors`` list of ``[name, shape]`` and
        the ``meta`` object), then each listed tensor's little-endian float64
        bytes in C order of its shape, in list order."""
        header = {"version": CHECKPOINT_VERSION, "feature_dim": self.feature_dim,
                  "anchor_count": self.anchor_count, "hidden": self.hidden,
                  "tensors": [[name, list(t.shape)] for name, t in self.state.items()],
                  "meta": {} if meta is None else meta}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for tensor in self.state.values():  # C order, though stored tap-major
                fh.write(np.ascontiguousarray(tensor, dtype="<f8"))

    @classmethod
    def load(cls, path: str | Path) -> "NetworkB":
        """The network a version-3 checkpoint file holds. The header is checked
        against the layout its dims imply before anything is allocated, and each
        tensor as it is filled: finite values, running variances not negative.
        Any other file, a version-2 JSON document included, fails with one
        InputError naming the path."""
        with naming(path):
            data = Path(path).read_bytes()
            end = data.find(b"\n")
            end = len(data) if end < 0 else end
            header, payload = parse_json(data[:end]), memoryview(data)[end + 1 :]
            version = header.get("version") if isinstance(header, dict) else None
            if _is_number(version) and version != CHECKPOINT_VERSION:  # other values: mistyped
                raise InputError(f"unsupported checkpoint version {version!r}")
            check_object(header, "checkpoint header", _HEADER_RULES, _HEADER_RULES.keys())
            dims = header["feature_dim"], header["anchor_count"], header["hidden"]
            shapes = _tensor_shapes(*dims)
            listed = [[name, list(shape)] for name, shape in shapes.items()]
            # compared as JSON text, so that 3.0 or true cannot stand for an integer
            if json.dumps(header["tensors"]) != json.dumps(listed):
                raise InputError("checkpoint 'tensors' does not list the tensors of "
                                 "feature_dim {}, anchor_count {}, hidden {}".format(*dims))
            size = 8 * sum(math.prod(shape) for shape in shapes.values())
            if len(payload) != size:
                raise InputError(f"checkpoint payload is {len(payload)} bytes, expected {size}")
            values = np.frombuffer(payload, dtype="<f8")
            net = cls.__new__(cls)
            net._allocate(*dims)
            net.meta = header["meta"]
            offset = 0
            for name, tensor in net.state.items():
                chunk = values[offset : offset + tensor.size]
                if not np.isfinite(chunk).all():
                    raise InputError(f"checkpoint tensor {name} holds a non-finite value")
                if name.endswith("running_var") and (chunk < 0).any():
                    raise InputError(f"checkpoint tensor {name} holds a negative variance")
                # each tensor in C order of its shape, assigned through its (tap-major) view
                tensor[...] = chunk.reshape(tensor.shape)
                offset += chunk.size
        return net


def learning_rate(cfg: RunConfig, iteration: int) -> float:
    """Base lr divided by 10 every lr_step iterations (one iteration = one video)."""
    return cfg.lr * 0.1 ** (iteration // cfg.lr_step)


def sgd_step(
    net: NetworkB,
    grads: FlatTensors,
    cfg: RunConfig,
    velocity: dict,
    iteration: int,
) -> None:
    """In-place momentum SGD with weight decay and the step lr schedule on the
    flat parameter vector. ``grads`` is what :meth:`NetworkB.backward`
    returned for ``net``; ``velocity`` keeps the flat momentum buffer between
    steps. Each half of the update checks its own parameters (on its own
    thread); a step that leaves a parameter non-finite raises TrainingError,
    naming the first non-finite gradient in backward order, else parameter."""
    if not (isinstance(grads, FlatTensors) and grads.flat.shape == net.params.flat.shape):
        raise UsageError("sgd_step needs the gradients NetworkB.backward returns for this net")
    p, g = net.params.flat, grads.flat
    v = velocity.get("flat")
    if v is None:
        v = velocity["flat"] = np.zeros(p.size)
    if not all(_in_halves(_worker(p.size, POOL_MIN_PARAMS), _momentum_rows, (p, g, v),
                          learning_rate(cfg, iteration), cfg.momentum, cfg.weight_decay)):
        for what, tensors in (("gradient", grads), ("parameter", net.params)):
            name = next((name for name, t in tensors.items() if not np.isfinite(t).all()), None)
            if name is not None:
                raise TrainingError(f"non-finite {what} in {name} at iteration {iteration}")


def _momentum_rows(p, g, v, lr: float, momentum: float, decay: float) -> bool:
    """Momentum SGD with weight decay, in place, on these elements of the
    parameters ``p``, gradient ``g`` and velocity ``v``: v = momentum·v +
    (decay·p + g), then p -= lr·v; whether every updated element of ``p`` is
    finite. From a zero velocity, the first step's v differs from decay·p + g
    only in a zero's sign, which moves no bit of p: no parameter is -0.0
    (``NetworkB`` makes none; p - x is -0.0 only if p is)."""
    update = decay * p
    update += g
    v *= momentum
    v += update
    p -= np.multiply(v, lr, out=update)  # update is dead once folded into v
    return np.isfinite(p).all()
