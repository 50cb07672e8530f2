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
"""
from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import ConfigError, TrainingError, UsageError
from .io import _is_int

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
KERNEL = 3
HIDDEN_LAYERS = 3
CHECKPOINT_VERSION = 3
PAD = (KERNEL - 1) // 2


def zero_bordered(rows: int, T: int) -> np.ndarray:
    """The (rows, T) interior of a new zeroed (rows, T + 2*PAD) buffer. A conv
    given such a view reads its buffer in place instead of padding a copy."""
    return np.zeros((rows, T + 2 * PAD))[:, PAD : PAD + T]


def _padded(x: np.ndarray, pad: int) -> np.ndarray:
    """The zero-bordered buffer ``x`` is the interior of (see
    :func:`zero_bordered`), or else a new one holding a copy of ``x``."""
    buf = x.base
    rows, T = x.shape
    if (isinstance(buf, np.ndarray) and buf.shape == (rows, T + 2 * pad)
            and buf.dtype == x.dtype and buf.flags.c_contiguous and x.strides == buf.strides
            and x.ctypes.data == buf.ctypes.data + pad * buf.itemsize
            and not buf[:, :pad].any() and not buf[:, pad + T :].any()):
        return buf
    xp = np.zeros((rows, T + 2 * pad))
    xp[:, pad : pad + T] = x
    return xp


def _tensor_view(storage: np.ndarray, shape: tuple) -> np.ndarray:
    """``storage`` viewed as a tensor of ``shape``; a 3-D conv weight (out, in,
    k) is laid out as k C-contiguous (out, in) blocks, one per tap."""
    if len(shape) != 3:
        return storage.reshape(shape)
    c_out, c_in, ksz = shape
    return storage.reshape(ksz, c_out, c_in).transpose(1, 2, 0)


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded temporal convolution; returns (output, padded input).

    The padded input is ``x``'s own buffer when ``x`` is a
    :func:`zero_bordered` interior.
    """
    xp = _padded(x, (w.shape[2] - 1) // 2)
    return _conv1d(xp, w, b), xp


def _conv1d(xp: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The convolution of the padded input ``xp``, one BLAS matmul per kernel
    tap: y = sum_k w[:, :, k] @ xp[:, k:k+T]."""
    ksz = w.shape[2]
    T = xp.shape[1] - (ksz - 1)
    y = w[:, :, 0] @ xp[:, :T]
    for i in range(1, ksz):
        y += w[:, :, i] @ xp[:, i : i + T]
    y += b[:, None]
    return y


def conv1d_backward(
    xp: np.ndarray, w: np.ndarray, dy: np.ndarray, input_grad: bool = True,
    dw: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of a same-padded temporal convolution, per tap;
    ``dx`` is None without ``input_grad``. Each tap's weight gradient is
    written in place into ``dw[:, :, i]`` (default: a new tap-major array,
    so that each tap is one C-contiguous block)."""
    ksz = w.shape[2]
    pad = (ksz - 1) // 2
    T = dy.shape[1]
    if dw is None:
        dw = _tensor_view(np.empty(w.size), w.shape)
    for i in range(ksz):
        np.matmul(dy, xp[:, i : i + T].T, out=dw[:, :, i])
    db = dy.sum(axis=1)
    if not input_grad:
        return None, dw, db
    dxp = np.zeros_like(xp)
    for i in range(ksz):
        dxp[:, i : i + T] += w[:, :, i].T @ dy
    return dxp[:, pad : xp.shape[1] - pad], dw, db


def _parameter_shapes(feature_dim: int, anchor_count: int, hidden: int) -> dict[str, tuple]:
    """Every parameter's shape by name, in initialization and checkpoint order."""
    dims = {"feature_dim": feature_dim, "anchor_count": anchor_count, "hidden": hidden}
    for name, value in dims.items():
        if not (_is_int(value) and value >= 1):
            raise ConfigError(f"{name!r} must be a positive integer, got {value!r}")
    widths = [feature_dim] + [hidden] * HIDDEN_LAYERS
    shapes = {}
    for i in range(HIDDEN_LAYERS):
        shapes[f"conv{i}.w"] = (widths[i + 1], widths[i], KERNEL)
        for part in (f"conv{i}.b", f"bn{i}.gamma", f"bn{i}.beta"):
            shapes[part] = (widths[i + 1],)
    shapes["pred.w"] = (2 * anchor_count, hidden, KERNEL)
    shapes["pred.b"] = (2 * anchor_count,)
    return shapes


# the order backward produces gradients: a blow-up is named where it starts
_BACKWARD_ORDER = ("pred.w", "pred.b") + tuple(
    f"{part}{i}.{kind}" for i in reversed(range(HIDDEN_LAYERS))
    for part, kind in (("bn", "gamma"), ("bn", "beta"), ("conv", "w"), ("conv", "b"))
)


class FlatTensors(dict):
    """Tensors by name, each a view into the one float64 vector ``flat``.

    ``layout`` maps each name to its (offset, shape) in ``flat``; conv
    weights are stored tap-major (:func:`_tensor_view`), so a view is not
    always C-contiguous and ``ravel`` of it is a copy. ``names`` orders the
    views (default: layout order). Assigning a name copies the value into its
    view, so ``flat`` stays the only storage.
    """

    def __init__(self, flat: np.ndarray, layout: dict, names=None):
        views = {}
        for name in layout if names is None else names:
            offset, shape = layout[name]
            views[name] = _tensor_view(flat[offset : offset + math.prod(shape)], shape)
        super().__init__(views)
        self.flat = flat

    def __setitem__(self, name, value) -> None:
        self[name][...] = value


class NetworkB:
    """Parameters and manual forward/backward of the localization network.

    Every parameter lives in one flat float64 vector, ``params.flat``;
    ``params[name]`` is a view into it (conv weights tap-major).
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
        for name, shape in _parameter_shapes(feature_dim, anchor_count, hidden).items():
            self._layout[name] = (offset, shape)
            offset += math.prod(shape)
        self.params = FlatTensors(np.zeros(offset), self._layout)
        self.meta = {}  # the run metadata a version-3 checkpoint was saved with
        self.running_mean = [np.zeros(hidden) for _ in range(HIDDEN_LAYERS)]
        self.running_var = [np.ones(hidden) for _ in range(HIDDEN_LAYERS)]

    def num_parameters(self) -> int:
        return self.params.flat.size

    def forward(self, feat: np.ndarray, mode: str = "infer"):
        """Run the net over a D x T feature map.

        Returns the 2M x T regression map, plus cached intermediates when
        mode == "train". A :func:`zero_bordered` map (as
        ``features.cas_to_features`` returns) is read in place, and the
        train cache then holds its buffer; any other map is copied once.
        """
        feat = np.asarray(feat, dtype=np.float64)
        if feat.ndim != 2 or feat.shape[0] != self.feature_dim:
            raise ConfigError(
                f"feature map must be {self.feature_dim} x T, got shape {feat.shape}"
            )
        if mode not in ("train", "infer"):
            raise UsageError(f"unknown forward mode {mode!r}")
        train = mode == "train"
        T = feat.shape[1]
        cache = {"layers": [], "T": T} if train else None
        xp = _padded(feat, PAD)
        for i in range(HIDDEN_LAYERS):
            z = _conv1d(xp, self.params[f"conv{i}.w"], self.params[f"conv{i}.b"])
            if train:
                mu = z.mean(axis=1)
                zc = z - mu[:, None]
                var = (zc * zc).sum(axis=1) / z.shape[1]  # bit-equal to z.var(axis=1)
                self.running_mean[i] = (
                    BN_MOMENTUM * self.running_mean[i] + (1 - BN_MOMENTUM) * mu
                )
                self.running_var[i] = (
                    BN_MOMENTUM * self.running_var[i] + (1 - BN_MOMENTUM) * var
                )
            else:
                zc = z - self.running_mean[i][:, None]
                var = self.running_var[i]
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = zc * inv_std[:, None]
            y = self.params[f"bn{i}.gamma"][:, None] * xhat + self.params[f"bn{i}.beta"][:, None]
            relu_mask = y > 0
            if train:
                cache["layers"].append(
                    {"xp": xp, "zc": zc, "inv_std": inv_std, "xhat": xhat,
                     "relu_mask": relu_mask}
                )
            xp = np.zeros((y.shape[0], T + 2 * PAD))  # the next conv's padded input
            np.multiply(y, relu_mask, out=xp[:, PAD : PAD + T])
        reg = _conv1d(xp, self.params["pred.w"], self.params["pred.b"])
        if train:
            cache["pred_xp"] = xp
            return reg, cache
        return reg

    def backward(self, cache, grad_out: np.ndarray) -> FlatTensors:
        """Exact parameter gradients for a train-mode forward, as views of one
        flat vector laid out like ``params.flat`` (assigning copies into them).
        The feature map's gradient is not computed: nothing upstream of the
        net is trained."""
        if cache is None or "pred_xp" not in cache:
            raise UsageError("backward needs the cache from a train-mode forward")
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if grad_out.shape != (2 * self.anchor_count, cache["T"]):
            raise UsageError(
                f"grad_out shape {grad_out.shape} does not match cached forward"
            )
        grads = FlatTensors(np.empty(self.params.flat.size), self._layout, _BACKWARD_ORDER)
        dx, _, grads["pred.b"] = conv1d_backward(
            cache["pred_xp"], self.params["pred.w"], grad_out, dw=grads["pred.w"]
        )
        for i in reversed(range(HIDDEN_LAYERS)):
            lay = cache["layers"][i]
            dy = dx * lay["relu_mask"]
            grads[f"bn{i}.gamma"] = (dy * lay["xhat"]).sum(axis=1)
            grads[f"bn{i}.beta"] = dy.sum(axis=1)
            # batch-norm backward with batch statistics over the time axis
            zc = lay["zc"]
            n = zc.shape[1]
            dxhat = dy * self.params[f"bn{i}.gamma"][:, None]
            inv_std = lay["inv_std"][:, None]
            dvar = (dxhat * zc * -0.5 * inv_std**3).sum(axis=1, keepdims=True)
            dmu = (-dxhat * inv_std).sum(axis=1, keepdims=True) + dvar * (-2.0 / n) * zc.sum(
                axis=1, keepdims=True
            )
            dz = dxhat * inv_std + dvar * 2.0 * zc / n + dmu / n
            dx, _, grads[f"conv{i}.b"] = conv1d_backward(
                lay["xp"], self.params[f"conv{i}.w"], dz, input_grad=i > 0,
                dw=grads[f"conv{i}.w"],
            )
        return grads

    # -- checkpointing ----------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkB":
        """The network a version-2 checkpoint document describes. Every tensor
        entry is checked against the shape the header implies before anything
        is allocated, so the memory a checkpoint asks for is bounded by its own
        size."""
        if not isinstance(data, dict):
            raise ConfigError("checkpoint must be a JSON object")
        if data.get("version") != 2:
            raise ConfigError(f"unsupported checkpoint version {data.get('version')!r}")
        missing = {"feature_dim", "anchor_count", "hidden", "tensors"} - set(data)
        if missing:
            raise ConfigError(f"checkpoint lacks keys {sorted(missing)}")
        dims = data["feature_dim"], data["anchor_count"], data["hidden"]
        shapes = _checkpoint_shapes(*dims)
        tensors = data["tensors"]
        if not isinstance(tensors, dict):
            raise ConfigError("checkpoint 'tensors' must be a JSON object")
        texts = {name: _payload(tensors, name, shape) for name, shape in shapes.items()}
        return cls._from_tensors(
            dims, {name: _decode(texts[name], name, shape) for name, shape in shapes.items()}
        )

    @classmethod
    def _from_v3(cls, header: dict, payload: memoryview) -> "NetworkB":
        """The network of a version-3 header and its raw float64 payload. The
        header's tensor list and the payload's length are checked against the
        layout its dims imply before anything is allocated."""
        if header.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {header.get('version')!r}")
        missing = {"feature_dim", "anchor_count", "hidden", "tensors", "meta"} - set(header)
        if missing:
            raise ConfigError(f"checkpoint lacks keys {sorted(missing)}")
        dims = header["feature_dim"], header["anchor_count"], header["hidden"]
        shapes = _checkpoint_shapes(*dims)
        # compared as JSON text, so that 3.0 or true cannot stand for an integer
        if json.dumps(header["tensors"]) != json.dumps(_tensor_list(shapes)):
            raise ConfigError("checkpoint 'tensors' does not list the tensors of feature_dim "
                              "{}, anchor_count {}, hidden {}".format(*dims))
        if not isinstance(header["meta"], dict):
            raise ConfigError("checkpoint 'meta' must be a JSON object")
        size = 8 * sum(math.prod(shape) for shape in shapes.values())
        if len(payload) != size:
            raise ConfigError(f"checkpoint payload is {len(payload)} bytes, expected {size}")
        values = np.frombuffer(payload, dtype="<f8")
        tensors, offset = {}, 0
        for name, shape in shapes.items():  # each tensor in C order of its shape
            tensors[name] = values[offset : offset + math.prod(shape)].reshape(shape)
            offset += math.prod(shape)
        net = cls._from_tensors(dims, tensors)
        net.meta = header["meta"]
        return net

    @classmethod
    def _from_tensors(cls, dims: tuple, tensors: dict) -> "NetworkB":
        """The network of the given dims holding every checked checkpoint
        tensor (by name, each of its listed shape)."""
        net = cls.__new__(cls)
        net._allocate(*dims)
        for name in net.params:
            net.params[name] = tensors[name]
        for i in range(HIDDEN_LAYERS):
            net.running_mean[i][...] = tensors[f"bn{i}.running_mean"]
            net.running_var[i][...] = tensors[f"bn{i}.running_var"]
        return net

    def save(self, path: str | Path, meta: dict | None = None) -> None:
        """Write a version-3 checkpoint: one JSON header line (``version``,
        the three dims, the ordered ``tensors`` list of ``[name, shape]`` and
        the ``meta`` object), then each listed tensor's little-endian float64
        bytes in C order of its shape, in list order."""
        shapes = _checkpoint_shapes(self.feature_dim, self.anchor_count, self.hidden)
        header = {"version": CHECKPOINT_VERSION, "feature_dim": self.feature_dim,
                  "anchor_count": self.anchor_count, "hidden": self.hidden,
                  "tensors": _tensor_list(shapes), "meta": {} if meta is None else meta}
        stats = [t for pair in zip(self.running_mean, self.running_var) for t in pair]
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for tensor in [*self.params.values(), *stats]:  # C order, though stored tap-major
                fh.write(np.ascontiguousarray(tensor, dtype="<f8"))

    @classmethod
    def load(cls, path: str | Path) -> "NetworkB":
        """The network a checkpoint file holds. A file whose first line is a
        JSON object with version 3, or one that more than JSON whitespace
        follows, is read as a version-3 header and payload; any other file as
        a version-2 JSON document."""
        try:
            data = Path(path).read_bytes()
            end = data.find(b"\n")
            end = len(data) if end < 0 else end
            try:
                header = json.loads(data[:end])
            except (ValueError, RecursionError):  # not JSON (or nested too deep), not UTF-8
                header = None
            payload = memoryview(data)[end + 1 :]
            v3 = isinstance(header, dict) and header.get("version") == CHECKPOINT_VERSION
            # JSON whitespace after a one-line version-2 document is not a payload
            more = not v3 and bool(data[end + 1 :].strip(b" \t\n\r"))
            if v3 or (isinstance(header, dict) and more):
                return cls._from_v3(header, payload)
            # version 2: one JSON document, already parsed unless it spans lines
            return cls.from_dict(json.loads(data) if header is None or more else header)
        except (ConfigError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"{path}: {exc}") from None


def _checkpoint_shapes(feature_dim: int, anchor_count: int, hidden: int) -> dict[str, tuple]:
    """Every tensor a checkpoint stores, in payload order: the parameters,
    then each hidden layer's batch-norm running mean and variance."""
    shapes = _parameter_shapes(feature_dim, anchor_count, hidden)
    for i in range(HIDDEN_LAYERS):
        for stat in ("running_mean", "running_var"):
            shapes[f"bn{i}.{stat}"] = (hidden,)
    return shapes


def _tensor_list(shapes: dict[str, tuple]) -> list:
    """A version-3 header's ``tensors``: ``[name, shape]`` in payload order."""
    return [[name, list(shape)] for name, shape in shapes.items()]


def _payload(tensors: dict, name: str, shape: tuple[int, ...]) -> str:
    """Tensor ``name``'s base64 text, once its version-2 entry (``{"shape":
    [...], "f8": <base64 of little-endian float64 bytes>}``) has the given
    shape and a text of the length that shape implies."""
    spec = tensors.get(name)
    if not (isinstance(spec, dict) and isinstance(spec.get("f8"), str)):
        raise ConfigError(f"checkpoint tensor {name} is missing or has no f8 payload")
    got = spec.get("shape")
    if not (isinstance(got, list) and all(map(_is_int, got)) and tuple(got) == shape):
        raise ConfigError(f"checkpoint tensor {name} has shape {got!r}, expected {list(shape)}")
    length = 4 * -(-8 * math.prod(shape) // 3)  # base64 of 8 bytes per float64
    if len(spec["f8"]) != length:
        raise ConfigError(f"checkpoint tensor {name} has a {len(spec['f8'])}-character "
                          f"payload, expected {length} for shape {list(shape)}")
    return spec["f8"]


def _decode(text: str, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The read-only float64 tensor of a checked :func:`_payload` text."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error is a ValueError
        raise ConfigError(f"checkpoint tensor {name} is malformed: {exc!r}") from None
    if len(raw) != 8 * math.prod(shape):
        raise ConfigError(f"checkpoint tensor {name} decodes to {len(raw)} bytes, "
                          f"expected {8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def learning_rate(cfg: RunConfig, iteration: int) -> float:
    """Base lr divided by 10 every lr_step iterations (one iteration = one video)."""
    return cfg.lr * 0.1 ** (iteration // cfg.lr_step)


def sgd_step(
    net: NetworkB,
    grads: dict[str, np.ndarray],
    cfg: RunConfig,
    velocity: dict,
    iteration: int,
) -> None:
    """In-place momentum SGD with weight decay and the step lr schedule on the
    flat parameter vector. ``grads`` holds every parameter's gradient (as
    :meth:`NetworkB.backward` returns them); ``velocity`` keeps the flat
    momentum buffer between steps."""
    g = _flat_gradient(net, grads)
    if not np.isfinite(g).all():
        name = next(name for name, t in grads.items() if not np.isfinite(t).all())
        raise TrainingError(f"non-finite gradient in {name} at iteration {iteration}")
    lr = learning_rate(cfg, iteration)
    p = net.params.flat
    update = cfg.weight_decay * p
    update += g
    v = velocity.get("flat")
    if v is None:
        v = velocity["flat"] = update
        p -= lr * v
    else:
        v *= cfg.momentum
        v += update
        p -= np.multiply(v, lr, out=update)  # update is dead once folded into v


def _flat_gradient(net: NetworkB, grads: dict[str, np.ndarray]) -> np.ndarray:
    """``grads`` as one vector laid out like ``net.params.flat``."""
    if isinstance(grads, FlatTensors) and grads.flat.shape == net.params.flat.shape:
        return grads.flat
    flat = FlatTensors(np.empty(net.params.flat.size), net._layout)
    for name, (_, shape) in net._layout.items():
        if np.shape(grads.get(name)) != shape:
            raise UsageError(f"sgd_step needs a gradient of shape {shape} for {name}")
        flat[name] = grads[name]  # through the view: conv weights are tap-major
    return flat.flat
