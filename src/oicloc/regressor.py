"""The boundary regressor: a small temporal conv net with manual backprop.

Three hidden conv layers (kernel 3, stride 1, pad 1), each followed by batch
normalization and ReLU, then a prediction conv layer emitting 2M regression
values per snippet (rows 2m / 2m+1 hold t_x / t_w for anchor m, 0-based).
Batch = one video, so normalization statistics are taken over the time axis.
"""
from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import ConfigError, TrainingError, UsageError
from .io import _is_int

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
KERNEL = 3
HIDDEN_LAYERS = 3
CHECKPOINT_VERSION = 2


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded temporal convolution; returns (output, padded input).

    One BLAS matmul per kernel tap: y = sum_k w[:, :, k] @ xp[:, k:k+T].
    """
    ksz = w.shape[2]
    pad = (ksz - 1) // 2
    T = x.shape[1]
    xp = np.pad(x, ((0, 0), (pad, pad)))
    y = w[:, :, 0] @ xp[:, :T]
    for i in range(1, ksz):
        y += w[:, :, i] @ xp[:, i : i + T]
    y += b[:, None]
    return y, xp


def conv1d_backward(
    xp: np.ndarray, w: np.ndarray, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of a same-padded temporal convolution, per tap."""
    ksz = w.shape[2]
    pad = (ksz - 1) // 2
    T = dy.shape[1]
    dw = np.stack([dy @ xp[:, i : i + T].T for i in range(ksz)], axis=2)
    db = dy.sum(axis=1)
    dxp = np.zeros_like(xp)
    for i in range(ksz):
        dxp[:, i : i + T] += w[:, :, i].T @ dy
    dx = dxp[:, pad : xp.shape[1] - pad]
    return dx, dw, db


class NetworkB:
    """Parameters and manual forward/backward of the localization network."""

    def __init__(
        self,
        feature_dim: int,
        anchor_count: int,
        hidden: int = 128,
        seed: int = 0,
    ):
        dims = {"feature_dim": feature_dim, "anchor_count": anchor_count, "hidden": hidden}
        for name, value in dims.items():
            if not (_is_int(value) and value >= 1):
                raise ConfigError(f"{name!r} must be a positive integer, got {value!r}")
        self.feature_dim = feature_dim
        self.anchor_count = anchor_count
        self.hidden = hidden
        self.params: dict[str, np.ndarray] = {}
        rng = np.random.default_rng(seed)
        widths = [feature_dim] + [hidden] * HIDDEN_LAYERS
        for i in range(HIDDEN_LAYERS):
            fan_in = widths[i] * KERNEL
            limit = 1.0 / np.sqrt(fan_in)
            self.params[f"conv{i}.w"] = rng.uniform(
                -limit, limit, size=(widths[i + 1], widths[i], KERNEL)
            )
            self.params[f"conv{i}.b"] = np.zeros(widths[i + 1])
            self.params[f"bn{i}.gamma"] = np.ones(widths[i + 1])
            self.params[f"bn{i}.beta"] = np.zeros(widths[i + 1])
        # zero-init pred so training starts from identity anchors
        self.params["pred.w"] = np.zeros((2 * anchor_count, hidden, KERNEL))
        self.params["pred.b"] = np.zeros(2 * anchor_count)
        self.running_mean = [np.zeros(hidden) for _ in range(HIDDEN_LAYERS)]
        self.running_var = [np.ones(hidden) for _ in range(HIDDEN_LAYERS)]

    def num_parameters(self) -> int:
        return sum(int(p.size) for p in self.params.values())

    def forward(self, feat: np.ndarray, mode: str = "infer"):
        """Run the net over a D x T feature map.

        Returns the 2M x T regression map, plus cached intermediates when
        mode == "train".
        """
        feat = np.asarray(feat, dtype=np.float64)
        if feat.ndim != 2 or feat.shape[0] != self.feature_dim:
            raise ConfigError(
                f"feature map must be {self.feature_dim} x T, got shape {feat.shape}"
            )
        if mode not in ("train", "infer"):
            raise UsageError(f"unknown forward mode {mode!r}")
        train = mode == "train"
        cache = {"layers": [], "T": feat.shape[1]} if train else None
        x = feat
        for i in range(HIDDEN_LAYERS):
            z, xp = conv1d_forward(x, self.params[f"conv{i}.w"], self.params[f"conv{i}.b"])
            if train:
                mu = z.mean(axis=1)
                var = z.var(axis=1)
                self.running_mean[i] = (
                    BN_MOMENTUM * self.running_mean[i] + (1 - BN_MOMENTUM) * mu
                )
                self.running_var[i] = (
                    BN_MOMENTUM * self.running_var[i] + (1 - BN_MOMENTUM) * var
                )
            else:
                mu = self.running_mean[i]
                var = self.running_var[i]
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (z - mu[:, None]) * inv_std[:, None]
            y = self.params[f"bn{i}.gamma"][:, None] * xhat + self.params[f"bn{i}.beta"][:, None]
            relu_mask = y > 0
            out = y * relu_mask
            if train:
                cache["layers"].append(
                    {"xp": xp, "z": z, "mu": mu, "inv_std": inv_std, "xhat": xhat,
                     "relu_mask": relu_mask}
                )
            x = out
        reg, xp = conv1d_forward(x, self.params["pred.w"], self.params["pred.b"])
        if train:
            cache["pred_xp"] = xp
            return reg, cache
        return reg

    def backward(self, cache, grad_out: np.ndarray) -> dict[str, np.ndarray]:
        """Exact parameter gradients for a train-mode forward."""
        if cache is None or "pred_xp" not in cache:
            raise UsageError("backward needs the cache from a train-mode forward")
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if grad_out.shape != (2 * self.anchor_count, cache["T"]):
            raise UsageError(
                f"grad_out shape {grad_out.shape} does not match cached forward"
            )
        grads: dict[str, np.ndarray] = {}
        dx, grads["pred.w"], grads["pred.b"] = conv1d_backward(
            cache["pred_xp"], self.params["pred.w"], grad_out
        )
        for i in reversed(range(HIDDEN_LAYERS)):
            lay = cache["layers"][i]
            dy = dx * lay["relu_mask"]
            grads[f"bn{i}.gamma"] = (dy * lay["xhat"]).sum(axis=1)
            grads[f"bn{i}.beta"] = dy.sum(axis=1)
            # batch-norm backward with batch statistics over the time axis
            n = lay["z"].shape[1]
            dxhat = dy * self.params[f"bn{i}.gamma"][:, None]
            zc = lay["z"] - lay["mu"][:, None]
            inv_std = lay["inv_std"][:, None]
            dvar = (dxhat * zc * -0.5 * inv_std**3).sum(axis=1, keepdims=True)
            dmu = (-dxhat * inv_std).sum(axis=1, keepdims=True) + dvar * (-2.0 / n) * zc.sum(
                axis=1, keepdims=True
            )
            dz = dxhat * inv_std + dvar * 2.0 * zc / n + dmu / n
            dx, grads[f"conv{i}.w"], grads[f"conv{i}.b"] = conv1d_backward(
                lay["xp"], self.params[f"conv{i}.w"], dz
            )
        return grads

    # -- checkpointing ----------------------------------------------------

    def to_dict(self) -> dict:
        tensors = {name: _encode(p) for name, p in self.params.items()}
        for i in range(HIDDEN_LAYERS):
            tensors[f"bn{i}.running_mean"] = _encode(self.running_mean[i])
            tensors[f"bn{i}.running_var"] = _encode(self.running_var[i])
        return {
            "version": CHECKPOINT_VERSION,
            "feature_dim": self.feature_dim,
            "anchor_count": self.anchor_count,
            "hidden": self.hidden,
            "tensors": tensors,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkB":
        if not isinstance(data, dict):
            raise ConfigError("checkpoint must be a JSON object")
        if data.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {data.get('version')!r}")
        missing = {"feature_dim", "anchor_count", "hidden", "tensors"} - set(data)
        if missing:
            raise ConfigError(f"checkpoint lacks keys {sorted(missing)}")
        net = cls(data["feature_dim"], data["anchor_count"], hidden=data["hidden"])
        tensors = data["tensors"]
        for name, p in net.params.items():
            net.params[name] = _decode(tensors, name, p.shape)
        for i in range(HIDDEN_LAYERS):
            net.running_mean[i] = _decode(tensors, f"bn{i}.running_mean", (net.hidden,))
            net.running_var[i] = _decode(tensors, f"bn{i}.running_var", (net.hidden,))
        return net

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "NetworkB":
        try:
            return cls.from_dict(json.loads(Path(path).read_bytes()))
        except (ConfigError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from None


def _encode(a: np.ndarray) -> dict:
    """Checkpoint entry of a tensor: its shape and base64 little-endian float64 bytes."""
    return {"shape": list(a.shape), "f8": base64.b64encode(a.astype("<f8").tobytes()).decode()}


def _decode(tensors: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Tensor ``name`` of a checkpoint, stored as ``f8`` bytes (see :func:`_encode`)."""
    try:
        spec = tensors[name]
        flat = np.frombuffer(base64.b64decode(spec["f8"], validate=True), dtype="<f8")
        a = flat.astype(np.float64).reshape(spec["shape"])
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ConfigError(f"checkpoint tensor {name} is malformed: {exc!r}") from None
    if a.shape != shape:
        raise ConfigError(f"checkpoint tensor {name} has shape {a.shape}, expected {shape}")
    return a


def learning_rate(cfg: RunConfig, iteration: int) -> float:
    """Base lr divided by 10 every lr_step iterations (one iteration = one video)."""
    return cfg.lr * 0.1 ** (iteration // cfg.lr_step)


def sgd_step(
    net: NetworkB,
    grads: dict[str, np.ndarray],
    cfg: RunConfig,
    velocity: dict[str, np.ndarray],
    iteration: int,
) -> None:
    """In-place momentum SGD with weight decay and the step lr schedule;
    ``velocity`` holds the momentum buffers by parameter name."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name} at iteration {iteration}")
    lr = learning_rate(cfg, iteration)
    for name, p in net.params.items():
        g = grads.get(name)
        if g is None:
            continue
        update = g + cfg.weight_decay * p
        v = velocity.get(name)
        v = update if v is None else cfg.momentum * v + update
        velocity[name] = v
        net.params[name] = p - lr * v
