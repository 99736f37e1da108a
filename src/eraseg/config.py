"""Run configuration: a plain key=value file merged with overrides.

Unknown keys are rejected so typos fail loudly.  `memory_enabled` is an
internal ablation switch (memory outputs forced to zero); it is carried in
checkpoints but is not a config-file key.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError

# Keys accepted in config files and CLI overrides.
FILE_KEYS = (
    "alpha",
    "d_e",
    "d_a",
    "eras",
    "switch_mode",
    "fusion",
    "max_ngram",
    "ngram_min_count",
    "lr",
    "epochs",
    "batch",
    "seed",
    "max_len",
)

SWITCH_MODES = ("hard", "soft")
FUSION_MODES = ("sum", "concat")


@dataclass(frozen=True)
class Config:
    alpha: float = 0.7
    d_e: int = 64
    d_a: int = 64
    eras: int = 4
    switch_mode: str = "hard"
    fusion: str = "concat"
    max_ngram: int = 5
    ngram_min_count: int = 10
    lr: float = 1e-3
    epochs: int = 10
    batch: int = 8
    seed: int = 12345
    max_len: int = 126
    memory_enabled: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.d_a % 2 != 0:
            raise ConfigError(f"d_a must be even (bidirectional encoder), got {self.d_a}")
        for key in ("d_e", "d_a", "eras", "max_ngram", "ngram_min_count", "epochs", "batch", "max_len"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.eras < 2:
            raise ConfigError(f"eras must be >= 2, got {self.eras}")
        if not 0 < self.lr < float("inf"):  # also false for nan
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.switch_mode not in SWITCH_MODES:
            raise ConfigError(f"switch_mode must be one of {SWITCH_MODES}, got {self.switch_mode!r}")
        if self.fusion not in FUSION_MODES:
            raise ConfigError(f"fusion must be one of {FUSION_MODES}, got {self.fusion!r}")

    def with_overrides(self, overrides: dict[str, str]) -> "Config":
        return replace(self, **_parse_items(overrides))

    def to_text(self) -> str:
        """Stable key=value rendering of every field, one per line."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            lines.append(f"{f.name}={value!r}" if isinstance(value, str) else f"{f.name}={value}")
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "bool":
            if raw in ("true", "True", "1"):
                return True
            if raw in ("false", "False", "0"):
                return False
            raise ValueError(raw)
        return raw.strip("'\"")
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def _parse_items(items: dict[str, str], allowed: tuple[str, ...] = FILE_KEYS) -> dict:
    parsed = {}
    for key, raw in items.items():
        if key not in allowed:
            raise ConfigError(f"unknown config key: {key!r}")
        parsed[key] = _parse_value(key, raw)
    return parsed


def parse_config_text(text: str, allowed: tuple[str, ...] = FILE_KEYS) -> Config:
    """Parse key=value lines (blank lines and # comments allowed)."""
    items: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        items[key.strip()] = raw
    return Config(**_parse_items(items, allowed))


def load_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> Config:
    """Load a config file (or defaults) and apply command-line overrides."""
    if path is None:
        cfg = Config()
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: malformed UTF-8 ({exc})") from exc
        cfg = parse_config_text(text)
    if overrides:
        cfg = cfg.with_overrides(overrides)
    return cfg


# Every field, for checkpoint round-trips (includes memory_enabled).
ALL_KEYS = tuple(f.name for f in fields(Config))
