"""Training hyper-parameters and the flat key = value config format.

Config files are plain text: one ``key = value`` per line, ``#`` starts a
full-line comment, blank lines are ignored. The same format carries dataset
and encoder settings for the command-line driver; unknown keys are simply
left for other consumers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError


@dataclass
class TrainConfig:
    s: float = 64.0
    m: float = 0.4
    m1: float = 0.4
    m2: float = 0.4
    r: float = 0.1
    delta1: float = 0.2
    delta2: float = 0.35
    learning_rate: float = 1e-3
    lr_final: float | None = None
    lr_decay_iterations: int | None = None
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.1
    batch_size: int = 64
    batch_size_late: int | None = None
    batch_size_switch: int = 0
    seed: int = 0
    max_iterations: int = 1000
    css_beta: float = 0.9

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name!r} must be finite, got {value}")
        if self.s <= 0:
            raise ConfigError(f"scale s must be positive, got {self.s}")
        if min(self.m, self.m1, self.m2) < 0:
            raise ConfigError("margins must be nonnegative")
        if not 0.0 < self.r <= 1.0:
            raise ConfigError(f"sampling ratio r must lie in (0, 1], got {self.r}")
        if not 0.0 < self.delta1 <= self.delta2 <= 1.0:
            raise ConfigError(
                f"need 0 < delta1 <= delta2 <= 1, got {self.delta1}, {self.delta2}"
            )
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        if self.lr_final is not None and self.lr_final < 0:
            raise ConfigError("final learning rate must be nonnegative")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("betas must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be nonnegative")
        if self.batch_size < 1 or (self.batch_size_late is not None and self.batch_size_late < 1):
            raise ConfigError("batch sizes must be positive")
        if self.batch_size_switch < 0:
            raise ConfigError("batch size switch iteration must be nonnegative")
        if self.lr_decay_iterations is not None and self.lr_decay_iterations < 1:
            raise ConfigError("lr decay horizon must be positive")
        if self.seed < 0:
            raise ConfigError(f"'seed' must be nonnegative, got {self.seed}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be positive")
        if not 0.0 <= self.css_beta < 1.0:
            raise ConfigError("css smoothing beta must lie in [0, 1)")

    def batch_size_at(self, iteration: int) -> int:
        if (
            self.batch_size_switch > 0
            and self.batch_size_late is not None
            and iteration > self.batch_size_switch
        ):
            return self.batch_size_late
        return self.batch_size

    def lr_at(self, iteration: int) -> float:
        """Linear decay from learning_rate to lr_final, constant when
        lr_final is unset.

        The decay horizon defaults to max_iterations; lr_decay_iterations
        overrides it so a shortened rerun (a deterministic prefix of a longer
        run) keeps the longer run's schedule. Past the horizon the rate holds
        at lr_final.
        """
        if self.lr_final is None:
            return self.learning_rate
        horizon = self.lr_decay_iterations or self.max_iterations
        if horizon <= 1:
            return self.lr_final
        frac = min(1.0, (iteration - 1) / (horizon - 1))
        return self.learning_rate + (self.lr_final - self.learning_rate) * frac

    def to_mapping(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = "none" if value is None else repr(value)
        return out

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "TrainConfig":
        kwargs = {}
        for f in fields(cls):
            if f.name not in mapping:
                continue
            if mapping[f.name].strip().lower() == "none":
                kwargs[f.name] = None
            else:
                get = get_int if f.type.startswith("int") else get_float
                kwargs[f.name] = get(mapping, f.name)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Read a flat ``key = value`` file, later keys overriding earlier ones."""
    mapping: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        mapping[key] = value
    return mapping


def get_str(mapping: dict[str, str], key: str, default: str | None = None) -> str:
    if key in mapping:
        return mapping[key]
    if default is None:
        raise ConfigError(f"missing required config key {key!r}")
    return default


def get_int(mapping: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in mapping:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    raw = mapping[key]
    try:
        return int(raw)
    except ValueError:
        pass
    try:  # an integral float form such as 1e3
        value = float(raw)
    except ValueError:
        value = math.nan
    if not value.is_integer():
        raise ConfigError(f"bad integer for {key!r}: {raw!r}")
    return int(value)


def get_float(mapping: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in mapping:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return float(mapping[key])
    except ValueError as exc:
        raise ConfigError(f"bad number for {key!r}: {mapping[key]!r}") from exc
