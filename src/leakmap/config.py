"""Experiment configuration: INI-style text with typed, validated keys.

Defaults reproduce the reference setup: K = 10 strong chaos, leak width
0.2, 10-step FTLE fields, a 10^6-cell mean-Husimi image, 500^2-cell scan
entropy grids (`quantum` chooses its entropy grid from N), dwell bin
0.08, and a desk-scale Hilbert dimension of 512 (dimensions of 10^4 are
accepted but mean a very large dense Schur job).

Each option is declared once, as an `ExperimentConfig` field: its
metadata holds the INI "section.key" and the rule a value must satisfy,
and the type of its default parses the text.  Parsing, validation and
`serialize_config` all walk the fields in order.  Unknown sections or
keys and unparsable values are hard errors, reported together; then
every failed rule is reported at once, in key order.  `run.output` must
be one line without surrounding whitespace, the only text that reads
back unchanged.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "load_config", "serialize_config", "apply_overrides"]


class ConfigError(ValueError):
    """Invalid configuration; .violations lists every problem found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))


def _at_least(n: int) -> tuple:
    return (lambda x: x >= n, f"must be >= {n}")


_FINITE = (math.isfinite, "must be finite")
_UNIT_INTERVAL = (lambda x: 0.0 <= x <= 1.0, "must lie in [0, 1]")
_FINITE_POSITIVE = (lambda x: math.isfinite(x) and x > 0.0, "must be finite and positive")
# configparser strips a value and ends it at a line break, so any other
# text would read back as a different value
_ONE_STRIPPED_LINE = (
    lambda s: len(s.splitlines()) == 1 and s == s.strip(),
    "must be one line without surrounding whitespace",
)


def _option(key: str, default, rule: tuple):
    """A field read from INI `key` ("section.key") by the type of its
    default and valid where rule = (predicate, requirement) holds."""
    return field(default=default, metadata={"key": key, "rule": rule})


# Field order is the serialization layout.
@dataclass(frozen=True)
class ExperimentConfig:
    k: float = _option("map.k", 10.0, _FINITE)
    leak_center: float = _option("leak.center", 0.2, _FINITE)
    leak_width: float = _option("leak.width", 0.2, _UNIT_INTERVAL)
    grid_q: int = _option("classical.grid_q", 500, _at_least(2))
    grid_p: int = _option("classical.grid_p", 500, _at_least(2))
    ftle_steps: int = _option("classical.ftle_steps", 10, _at_least(1))
    t_max: int = _option("classical.t_max", 1000, _at_least(1))
    dim: int = _option("quantum.dim", 512, _at_least(2))
    husimi_q: int = _option("husimi.grid_q", 1000, _at_least(2))
    husimi_p: int = _option("husimi.grid_p", 1000, _at_least(2))
    top_states: int = _option("husimi.top_states", 20, _at_least(1))
    dwell_bin: float = _option("husimi.dwell_bin", 0.08, _FINITE_POSITIVE)
    scan_positions: int = _option("scan.positions", 50, _at_least(1))
    scan_husimi_q: int = _option("scan.husimi_grid_q", 500, _at_least(2))
    scan_husimi_p: int = _option("scan.husimi_grid_p", 500, _at_least(2))
    output: str = _option("run.output", "out", _ONE_STRIPPED_LINE)


def _with_entries(base: ExperimentConfig, entries) -> ExperimentConfig:
    """base with every ((section, key), raw) entry parsed in.

    Unknown keys and unparsable values, then failed rules, each raise one
    ConfigError that lists every violation, labelled "section.key"; the
    rules are checked in key order.  A name that is not a (section, key)
    pair is a malformed override.
    """
    options = {f.metadata["key"]: f for f in fields(ExperimentConfig)}
    violations: list = []
    values: dict = {}
    for name, raw in entries:
        label = ".".join(name)
        option = options.get(label)
        if option is None:
            problem = "unknown key" if len(name) == 2 else "overrides must look like section.key"
            violations.append(f"{label}: {problem}")
            continue
        try:
            values[option.name] = type(option.default)(raw)
        except ValueError as exc:
            violations.append(f"{label}: {exc}")
    if violations:
        raise ConfigError(violations)
    cfg = replace(base, **values)
    for key, option in options.items():
        holds, requirement = option.metadata["rule"]
        value = getattr(cfg, option.name)
        if not holds(value):
            violations.append(f"{key}: {requirement}, got {value!r}")
    if violations:
        raise ConfigError(violations)
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI-style config text; unknown keys and bad values all error."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"parse error: {exc}"]) from exc
    entries = (((section, key), raw) for section in cp.sections() for key, raw in cp.items(section))
    return _with_entries(ExperimentConfig(), entries)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    return parse_config(path.read_text())


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form, floats as their repr; parse(serialize(cfg)) == cfg."""
    lines = []
    current = None
    for option in fields(ExperimentConfig):
        section, key = option.metadata["key"].split(".")
        if section != current:
            lines += [""] * (current is not None) + [f"[{section}]"]
            current = section
        lines.append(f"{key} = {type(option.default)(getattr(cfg, option.name))}")
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: ExperimentConfig, overrides) -> ExperimentConfig:
    """Apply (\"section.key\", \"value\") pairs on top of a config."""
    return _with_entries(cfg, ((tuple(dotted.split(".")), raw) for dotted, raw in overrides))
