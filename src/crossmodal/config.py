"""Flat key=value run configuration with dotted keys and --set style overrides."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .errors import ConfigError
from .synthdata import read_ascii_lines
from .trainer import TrainConfig


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class RunConfig:
    """A trainable run: dataset paths plus the full training configuration."""

    data_path: str | None = None
    eval_path: str | None = None
    train: TrainConfig = field(default_factory=TrainConfig)


#: dotted key -> (attribute path into RunConfig, parser)
KEY_SPECS: dict[str, tuple[tuple[str, ...], object]] = {
    "data.path": (("data_path",), str),
    "data.eval_path": (("eval_path",), str),
    "batch.p": (("train", "p"), int),
    "batch.k": (("train", "k"), int),
    "model.hidden_dim": (("train", "hidden_dim"), int),
    "model.embed_dim": (("train", "embed_dim"), int),
    "model.bn_momentum": (("train", "bn_momentum"), float),
    "loss.margin": (("train", "loss", "margin"), float),
    "loss.lambda1": (("train", "loss", "lambda1"), float),
    "loss.lambda2": (("train", "loss", "lambda2"), float),
    "loss.dcl_mode": (("train", "loss", "dcl_mode"), str),
    "loss.include_id_stage2": (("train", "loss", "include_id_stage2"), _parse_bool),
    "train.epochs": (("train", "epochs"), int),
    "train.stage1_epochs": (("train", "stage1_epochs"), int),
    "train.schedule": (("train", "schedule"), str),
    "train.seed": (("train", "seed"), int),
    "train.eval_every": (("train", "eval_every"), int),
    "train.eval_direction": (("train", "eval_direction"), str),
    "optim.base_lr": (("train", "base_lr"), float),
    "optim.beta1": (("train", "beta1"), float),
    "optim.beta2": (("train", "beta2"), float),
    "optim.eps": (("train", "adam_eps"), float),
    "optim.weight_decay": (("train", "weight_decay"), float),
}


def set_key(cfg: RunConfig, key: str, raw_value: str) -> None:
    """Assign one dotted key on the config, parsing the raw string value."""
    if key not in KEY_SPECS:
        raise ConfigError(f"unknown config key {key!r}")
    path, parser = KEY_SPECS[key]
    try:
        value = parser(raw_value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None
    target = cfg
    for attr in path[:-1]:
        target = getattr(target, attr)
    setattr(target, path[-1], value)


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Copy the config and apply every dotted-key assignment."""
    out = copy.deepcopy(cfg)
    for key, value in overrides.items():
        set_key(out, key, value)
    return out


def apply_train_overrides(train_cfg: TrainConfig, overrides: dict[str, str]) -> TrainConfig:
    """Like :func:`apply_overrides` but for a bare TrainConfig (no data.* keys)."""
    for key in overrides:
        if key.startswith("data."):
            raise ConfigError(f"{key!r} is not valid in a training-config delta")
    wrapped = apply_overrides(RunConfig(train=copy.deepcopy(train_cfg)), overrides)
    return wrapped.train


def parse_assignment(text: str) -> tuple[str, str]:
    """Split one ``key=value`` token."""
    if "=" not in text:
        raise ConfigError(f"expected key=value, got {text!r}")
    key, _, value = text.partition("=")
    key = key.strip()
    value = value.strip()
    if not key or not value:
        raise ConfigError(f"expected key=value, got {text!r}")
    return key, value


def parse_config_file(path) -> RunConfig:
    """Read a key=value file (``#`` comments and blank lines allowed).

    A non-ASCII byte anywhere, comments included, raises :class:`ParseError`.
    """
    cfg = RunConfig()
    for lineno, line in enumerate(read_ascii_lines(path), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            key, value = parse_assignment(text)
            set_key(cfg, key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return cfg


def resolved_items(cfg: RunConfig) -> list[tuple[str, str]]:
    """Every known key with its current value, serialized for replay.

    Unset data paths (None) are omitted; parsing the result restores the
    same config.
    """
    items = []
    for key, (path, _) in KEY_SPECS.items():
        target = cfg
        for attr in path:
            target = getattr(target, attr)
        if target is None:
            continue
        items.append((key, _format_value(target)))
    return items


def resolved_text(cfg: RunConfig) -> str:
    return "\n".join(f"{k}={v}" for k, v in resolved_items(cfg)) + "\n"
