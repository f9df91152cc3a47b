"""Experiment configuration: INI-style text with typed, validated keys.

Defaults reproduce the reference setup: K = 10 strong chaos, leak width
0.2, 10-step FTLE fields, 10^6-cell Husimi grids, dwell bin 0.08, and a
desk-scale Hilbert dimension of 512 (dimensions of 10^4 are accepted but
mean a very large dense Schur job).  Unknown sections or keys are hard
errors; all violations in a file are reported at once.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = ["ExperimentConfig", "ConfigError", "default_config", "parse_config", "load_config", "serialize_config", "apply_overrides"]


class ConfigError(ValueError):
    """Invalid configuration; .violations lists every problem found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    k: float = 10.0
    leak_center: float = 0.2
    leak_width: float = 0.2
    grid_q: int = 500
    grid_p: int = 500
    ftle_steps: int = 10
    t_max: int = 1000
    dim: int = 512
    dump_vectors: bool = False
    husimi_q: int = 1000
    husimi_p: int = 1000
    top_states: int = 20
    dwell_bin: float = 0.08
    scan_positions: int = 50
    scan_husimi_q: int = 500
    scan_husimi_p: int = 500
    output: str = "out"


# (section, key) -> (attribute, parser).  Order defines the canonical
# serialization layout.
_SCHEMA = {
    ("map", "k"): ("k", float),
    ("leak", "center"): ("leak_center", float),
    ("leak", "width"): ("leak_width", float),
    ("classical", "grid_q"): ("grid_q", int),
    ("classical", "grid_p"): ("grid_p", int),
    ("classical", "ftle_steps"): ("ftle_steps", int),
    ("classical", "t_max"): ("t_max", int),
    ("quantum", "dim"): ("dim", int),
    ("quantum", "dump_vectors"): ("dump_vectors", _parse_bool),
    ("husimi", "grid_q"): ("husimi_q", int),
    ("husimi", "grid_p"): ("husimi_p", int),
    ("husimi", "top_states"): ("top_states", int),
    ("husimi", "dwell_bin"): ("dwell_bin", float),
    ("scan", "positions"): ("scan_positions", int),
    ("scan", "husimi_grid_q"): ("scan_husimi_q", int),
    ("scan", "husimi_grid_p"): ("scan_husimi_p", int),
    ("run", "output"): ("output", str),
}

_ATTR_TO_KEY = {attr: sk for sk, (attr, _) in _SCHEMA.items()}


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def _validate(cfg: ExperimentConfig, violations: list):
    def bad(attr, msg):
        sec, key = _ATTR_TO_KEY[attr]
        violations.append(f"{sec}.{key}: {msg}")

    if not math.isfinite(cfg.k):
        bad("k", "must be finite")
    if not (0.0 <= cfg.leak_width <= 1.0):
        bad("leak_width", f"must lie in [0, 1], got {cfg.leak_width}")
    for attr in ("grid_q", "grid_p", "husimi_q", "husimi_p", "scan_husimi_q", "scan_husimi_p"):
        if getattr(cfg, attr) < 2:
            bad(attr, f"must be >= 2, got {getattr(cfg, attr)}")
    if cfg.ftle_steps < 1:
        bad("ftle_steps", f"must be >= 1, got {cfg.ftle_steps}")
    if cfg.t_max < 1:
        bad("t_max", f"must be >= 1, got {cfg.t_max}")
    if cfg.dim < 2:
        bad("dim", f"must be >= 2, got {cfg.dim}")
    if cfg.top_states < 1:
        bad("top_states", f"must be >= 1, got {cfg.top_states}")
    if cfg.dwell_bin <= 0.0:
        bad("dwell_bin", f"must be positive, got {cfg.dwell_bin}")
    if cfg.scan_positions < 1:
        bad("scan_positions", f"must be >= 1, got {cfg.scan_positions}")
    if not cfg.output:
        bad("output", "must not be empty")


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI-style config text; unknown keys and bad values all error."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"parse error: {exc}"]) from exc
    violations: list = []
    fields: dict = {}
    for section in cp.sections():
        for key, raw in cp.items(section):
            spec = _SCHEMA.get((section, key))
            if spec is None:
                violations.append(f"{section}.{key}: unknown key")
                continue
            attr, parser = spec
            try:
                fields[attr] = parser(raw)
            except ValueError as exc:
                violations.append(f"{section}.{key}: {exc}")
    if violations:
        raise ConfigError(violations)
    cfg = ExperimentConfig(**fields)
    _validate(cfg, violations)
    if violations:
        raise ConfigError(violations)
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    return parse_config(path.read_text())


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = []
    current = None
    for (section, key), (attr, parser) in _SCHEMA.items():
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        val = getattr(cfg, attr)
        if parser is float:
            text = repr(float(val))
        elif parser is _parse_bool:
            text = "true" if val else "false"
        else:
            text = str(val)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: ExperimentConfig, overrides) -> ExperimentConfig:
    """Apply (\"section.key\", \"value\") pairs on top of a config."""
    violations: list = []
    fields: dict = {}
    for dotted, raw in overrides:
        parts = dotted.split(".")
        if len(parts) != 2:
            violations.append(f"{dotted}: overrides must look like section.key")
            continue
        spec = _SCHEMA.get((parts[0], parts[1]))
        if spec is None:
            violations.append(f"{dotted}: unknown key")
            continue
        attr, parser = spec
        try:
            fields[attr] = parser(raw)
        except ValueError as exc:
            violations.append(f"{dotted}: {exc}")
    if violations:
        raise ConfigError(violations)
    out = dataclasses.replace(cfg, **fields)
    _validate(out, violations)
    if violations:
        raise ConfigError(violations)
    return out
