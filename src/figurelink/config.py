"""Flat key=value configuration with comments, read from `--config`, the
only source of settings. Unknown keys are rejected.

PipelineConfig holds every setting that decides a command's outputs, and
is the only place their defaults are written; its canonical text is what
each manifest's config hash covers. This module imports only the standard
library, so every package module can read it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    # Panel splitting (vision.split).
    bg_intensity: float = 240.0   # pixel counts as background at or above this
    bg_fraction: float = 0.98     # fraction of band pixels that must be background
    max_gutter_var: float = 200.0 # per-line intensity variance ceiling
    min_gutter_px: int = 8
    min_panel_frac: float = 0.02
    # Retrieval: Recall@k cut-offs and the ANN index (evaluate.ann).
    k_values: tuple[int, ...] = (1, 5, 10)
    ann_n_lists: int = 0          # 0: ceil(sqrt(N))
    ann_n_probe: int = 28
    seed: int = 0

    RANGES = {
        "bg_intensity": (0.0, 255.0),
        "bg_fraction": (0.0, 1.0),
        "max_gutter_var": (0.0, 65025.0),
        "min_gutter_px": (1, 10_000),
        "min_panel_frac": (0.0, 1.0),
        "ann_n_lists": (0, 1_000_000),
        "ann_n_probe": (1, 1_000_000),
    }

    def validate(self) -> "PipelineConfig":
        for name, (lo, hi) in self.RANGES.items():
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise ConfigError(f"{name}={value} outside [{lo}, {hi}]")
        if any(k < 1 for k in self.k_values):
            raise ConfigError("k_values must be positive")
        return self

    def canonical_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _parse_value(key: str, raw: str):
    if key == "k_values":
        try:
            return tuple(int(v) for v in raw.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(f"bad k_values {raw!r}") from exc
    current = getattr(PipelineConfig(), key)
    try:
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return raw


def load_config(path=None) -> PipelineConfig:
    """Read a config file (key=value lines, # comments) over the defaults."""
    cfg = PipelineConfig()
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, _parse_value(key, raw))
    return cfg.validate()
