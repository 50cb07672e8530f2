"""Run configuration: dataclass, named profiles, strict JSON loading."""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .boundary import AnchorConfig
from .errors import (POSITIVE_FINITE, POSITIVE_INTEGER, UNIT, _is_finite, _is_int, _is_number,
                     check_object, naming)
from .io import parse_json

CONFIG_VERSION = 1


# config key -> (check of its value, what the check asks for); 'profile' is added below PROFILES
_RULES = {
    "version": (lambda v: _is_int(v) and v == CONFIG_VERSION, f"the integer {CONFIG_VERSION}"),
    "anchors": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_finite, v)),
                "a list of finite numbers"),
    "alpha": POSITIVE_FINITE,
    "act_min": UNIT,
    "loss_max": (lambda v: _is_number(v) and -1 <= v <= 1, "a number in [-1, 1]"),
    "nms_iou": UNIT,
    "lr": POSITIVE_FINITE,
    "lr_step": POSITIVE_INTEGER,
    "momentum": UNIT,
    "weight_decay": (lambda v: _is_finite(v) and v >= 0, "a non-negative finite number"),
    "epochs": POSITIVE_INTEGER,
    "feature_dim": POSITIVE_INTEGER,
    "hidden": POSITIVE_INTEGER,
    "direct_opt_iters": POSITIVE_INTEGER,
    "manifest": (lambda v: v is None or isinstance(v, str), "a string"),
}


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
        check_object(vars(self), "config", _RULES)
        object.__setattr__(self, "anchors", tuple(self.anchors))
        with naming("config: 'anchors'"):
            self.anchor_config()

    def anchor_config(self) -> AnchorConfig:
        return AnchorConfig(self.anchors)


PROFILES: dict[str, RunConfig] = {
    "thumos": RunConfig(anchors=(1, 2, 4, 8, 16, 32), lr_step=200),
    "activitynet": RunConfig(anchors=(16, 32, 64, 128, 256, 512), lr_step=500),
    "synthetic": RunConfig(
        anchors=(2, 4, 8, 16, 32), lr=3e-6, lr_step=200, feature_dim=16, hidden=32
    ),
}
_RULES["profile"] = (lambda v: isinstance(v, str) and v in PROFILES, f"one of {sorted(PROFILES)}")


def load_config(path: str | Path) -> RunConfig:
    """Load a run config JSON; unknown keys, version mismatches and bad values are errors."""
    path = Path(path)
    with naming(path):
        data = check_object(parse_json(path.read_bytes()), "config", _RULES, {"version"})
        base = PROFILES[data["profile"]] if "profile" in data else RunConfig()
        return replace(base, **{k: v for k, v in data.items() if k not in ("version", "profile")})
