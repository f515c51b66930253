"""Flat `key = value` run configuration.

One knob per line, `#` starts a comment, unknown keys are rejected by
name.  Values are validated here so every command fails before touching
the filesystem when handed a bad config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .core import InputError


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    classes: int = 5
    samples: int = 2000
    feature_dim: int = 16
    class_sep: float = 1.0
    noise_sigma: float = 0.2
    imbalance_ratio: float = 1.0
    embed_dim: int = 32
    hidden_dim: int = 64
    epochs: int = 50
    batch_size: int = 256
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    tau: float = 1.0
    lambda_main: float = 1.0
    lambda_rank: float = 1.0
    sms_enabled: bool = True
    # self-inclusive narrow kernel: self-excluded smoothing recenters every
    # row at statistics that its class deviations can never dominate (they
    # sum to zero), which diverges over long training runs
    sms_sigma: float = 0.4
    sms_include_self: bool = True
    normalize_embeddings: bool = False
    out_dir: str = "out"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise InputError(f"config: {f.name} must be finite, got {value}")
            # numpy sizes and counts are int64; a seed of any size still seeds a generator
            if f.type == "int" and f.name != "seed" and not -(2**63) <= value < 2**63:
                raise InputError(f"config: {f.name} must fit in int64, got {value}")
        checks = [
            (self.seed >= 0, "seed must be >= 0"),
            (self.classes >= 2, "classes must be >= 2"),
            (self.samples >= self.classes, "samples must be >= classes"),
            (self.feature_dim >= 1, "feature_dim must be >= 1"),
            (self.class_sep > 0, "class_sep must be positive"),
            (self.noise_sigma >= 0, "noise_sigma must be >= 0"),
            (self.imbalance_ratio >= 1, "imbalance_ratio must be >= 1"),
            (self.embed_dim >= 1, "embed_dim must be >= 1"),
            (self.hidden_dim >= 1, "hidden_dim must be >= 1"),
            (self.epochs >= 0, "epochs must be >= 0"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.optimizer in ("sgd", "adam"), "optimizer must be sgd or adam"),
            (self.learning_rate > 0, "learning_rate must be positive"),
            (self.tau > 0, "tau must be positive"),
            (self.lambda_main >= 0, "lambda_main must be >= 0"),
            (self.lambda_rank >= 0, "lambda_rank must be >= 0"),
            (self.sms_sigma > 0, "sms_sigma must be positive"),
            (len(self.out_dir) > 0, "out_dir must be non-empty"),
        ]
        for ok, msg in checks:
            if not ok:
                raise InputError(f"config: {msg}")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{source}: line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise InputError(f"{source}: line {lineno}: unknown config key {key!r}")
        if key in values:
            raise InputError(f"{source}: line {lineno}: duplicate config key {key!r}")
        kind = _FIELD_TYPES[key]
        try:
            if kind == "bool":
                values[key] = _parse_bool(raw)
            elif kind == "int":
                values[key] = int(raw)
            elif kind == "float":
                values[key] = float(raw)
            else:
                values[key] = raw
        except ValueError:
            raise InputError(f"{source}: line {lineno}: key {key!r} expects {kind}, got {raw!r}") from None
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_config_text(text, source=str(path))


def config_to_dict(cfg: RunConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
