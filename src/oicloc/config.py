"""Run configuration: dataclass, named profiles, strict JSON loading."""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .boundary import AnchorConfig
from .errors import InputError
from .io import _is_finite, _is_int, _is_number, check_object, parse_json

CONFIG_VERSION = 1


# (fields, check of each value, what the check asks for)
_FIELD_RULES = (
    (("anchors",), lambda v: isinstance(v, (list, tuple))
     and all(map(_is_finite, v)), "a list of finite numbers"),
    (("alpha", "lr"), lambda v: _is_finite(v) and v > 0, "a positive finite number"),
    (("act_min", "nms_iou", "momentum"), lambda v: _is_number(v) and 0 <= v <= 1,
     "a number in [0, 1]"),
    (("loss_max",), lambda v: _is_number(v) and -1 <= v <= 1, "a number in [-1, 1]"),
    (("weight_decay",), lambda v: _is_finite(v) and v >= 0, "a non-negative finite number"),
    (("lr_step", "epochs", "feature_dim", "hidden", "direct_opt_iters"),
     lambda v: _is_int(v) and v >= 1, "a positive integer"),
    (("manifest",), lambda v: v is None or isinstance(v, str), "a string"),
)


@dataclass(frozen=True)
class RunConfig:
    anchors: tuple[float, ...] = (1, 2, 4, 8, 16, 32)
    alpha: float = 0.25
    act_min: float = 0.1
    loss_max: float = -0.3
    nms_iou: float = 0.4
    lr: float = 1e-3
    lr_step: int = 200
    momentum: float = 0.9
    weight_decay: float = 5e-4
    epochs: int = 1
    feature_dim: int = 2048
    hidden: int = 128
    direct_opt_iters: int = 25
    manifest: str | None = None

    def __post_init__(self):
        for names, valid, kind in _FIELD_RULES:
            for name in names:
                if not valid(getattr(self, name)):
                    raise InputError(f"{name!r} must be {kind}, got {getattr(self, name)!r}")
        object.__setattr__(self, "anchors", tuple(self.anchors))
        try:
            self.anchor_config()
        except InputError as exc:
            raise InputError(f"'anchors': {exc}") from None

    def anchor_config(self) -> AnchorConfig:
        return AnchorConfig(self.anchors)


_CONFIG_KEYS = {f.name for f in fields(RunConfig)} | {"version", "profile"}
PROFILES: dict[str, RunConfig] = {
    "thumos": RunConfig(anchors=(1, 2, 4, 8, 16, 32), lr_step=200),
    "activitynet": RunConfig(anchors=(16, 32, 64, 128, 256, 512), lr_step=500),
    "synthetic": RunConfig(
        anchors=(2, 4, 8, 16, 32), lr=3e-6, lr_step=200, feature_dim=16, hidden=32
    ),
}


def load_config(path: str | Path) -> RunConfig:
    """Load a run config JSON; unknown keys, version mismatches and bad values are errors."""
    path = Path(path)
    try:
        data = check_object(parse_json(path.read_bytes()), "config", _CONFIG_KEYS, {"version"})
        if data["version"] != CONFIG_VERSION:
            raise InputError(f"unsupported config version {data['version']!r}")
        profile = data.get("profile")
        if profile is not None and not (isinstance(profile, str) and profile in PROFILES):
            raise InputError(f"unknown profile {profile!r}")
        base = RunConfig() if profile is None else PROFILES[profile]
        return replace(base, **{k: v for k, v in data.items() if k not in ("version", "profile")})
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
