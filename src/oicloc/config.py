"""Run configuration: dataclass, named profiles, strict JSON loading."""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .boundary import AnchorConfig
from .errors import ConfigError, InputError

CONFIG_VERSION = 1


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

    def anchor_config(self) -> AnchorConfig:
        return AnchorConfig(tuple(self.anchors))


PROFILES: dict[str, RunConfig] = {
    "thumos": RunConfig(anchors=(1, 2, 4, 8, 16, 32), lr_step=200),
    "activitynet": RunConfig(anchors=(16, 32, 64, 128, 256, 512), lr_step=500),
    "synthetic": RunConfig(
        anchors=(2, 4, 8, 16, 32), lr=3e-6, lr_step=200, feature_dim=16, hidden=32
    ),
}


def load_config(path: str | Path) -> RunConfig:
    """Load a run config JSON; unknown keys and version mismatches are errors."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if data.get("version") != CONFIG_VERSION:
        raise ConfigError(f"{path}: missing or unsupported config version")
    profile = data.get("profile")
    base = RunConfig()
    if profile is not None:
        if profile not in PROFILES:
            raise ConfigError(f"{path}: unknown profile {profile!r}")
        base = PROFILES[profile]
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known - {"version", "profile"}
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    overrides = {k: v for k, v in data.items() if k in known}
    if "anchors" in overrides:
        overrides["anchors"] = tuple(overrides["anchors"])
    cfg = replace(base, **overrides)
    try:
        cfg.anchor_config()  # validate anchors eagerly
    except InputError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


def save_config(path: str | Path, cfg: RunConfig, profile: str | None = None) -> None:
    data = {"version": CONFIG_VERSION}
    if profile:
        data["profile"] = profile
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        data[f.name] = list(value) if isinstance(value, tuple) else value
    Path(path).write_text(json.dumps(data, indent=1))
