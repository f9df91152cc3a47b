"""Configuration parsing, validation, serialization, and overrides."""

import configparser
import dataclasses
import re
from pathlib import Path

import pytest

from leakmap.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    load_config,
    parse_config,
    serialize_config,
)


def test_default_serialization_round_trip():
    cfg = ExperimentConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_modified_round_trip():
    cfg = dataclasses.replace(
        ExperimentConfig(), k=7.5, dim=128, top_states=7, output="elsewhere"
    )
    assert parse_config(serialize_config(cfg)) == cfg


def test_parse_sections_and_types():
    cfg = parse_config(
        """
[map]
k = 9.0

[leak]
center = 0.5
width = 0.1

[quantum]
dim = 64
"""
    )
    assert cfg.k == 9.0
    assert cfg.leak_center == 0.5
    assert cfg.leak_width == 0.1
    assert cfg.dim == 64
    assert cfg.t_max == ExperimentConfig().t_max  # untouched keys keep defaults


def test_unknown_keys_are_hard_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config("[map]\nk = 10\nkick = 3\n\n[mystery]\nx = 1\n")
    text = "\n".join(exc.value.violations)
    assert "map.kick: unknown key" in text
    assert "mystery.x: unknown key" in text


def test_all_violations_reported_at_once():
    with pytest.raises(ConfigError) as exc:
        parse_config("[map]\nk = ten\n\n[classical]\nt_max = soon\n")
    assert len(exc.value.violations) == 2
    with pytest.raises(ConfigError) as exc:
        parse_config("[leak]\ncenter = nan\nwidth = 2\n\n[husimi]\ndwell_bin = inf\n")
    assert [v.split(":")[0] for v in exc.value.violations] == ["leak.center", "leak.width", "husimi.dwell_bin"]


def test_value_validation():
    with pytest.raises(ConfigError) as exc:
        parse_config("[leak]\nwidth = 1.5\n")
    assert any("leak.width" in v for v in exc.value.violations)
    with pytest.raises(ConfigError):
        parse_config("[classical]\ngrid_q = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[quantum]\ndim = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[husimi]\ndwell_bin = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nseed = -1\n")


@pytest.mark.parametrize(
    "key,value",
    [
        ("leak.center", "nan"),
        ("leak.center", "inf"),
        ("leak.center", "-inf"),
        ("husimi.dwell_bin", "nan"),
        ("husimi.dwell_bin", "inf"),
    ],
)
def test_non_finite_floats_are_violations(key, value):
    with pytest.raises(ConfigError) as exc:
        apply_overrides(ExperimentConfig(), [(key, value)])
    assert [v.split(":")[0] for v in exc.value.violations] == [key]


# one value out of range for every key
OUT_OF_RANGE = [
    ("map.k", "inf"),
    ("leak.center", "nan"),
    ("leak.width", "1.5"),
    ("classical.grid_q", "1"),
    ("classical.grid_p", "1"),
    ("classical.ftle_steps", "0"),
    ("classical.t_max", "0"),
    ("quantum.dim", "1"),
    ("husimi.grid_q", "1"),
    ("husimi.grid_p", "1"),
    ("husimi.top_states", "0"),
    ("husimi.dwell_bin", "-0.08"),
    ("scan.positions", "0"),
    ("scan.husimi_grid_q", "1"),
    ("scan.husimi_grid_p", "1"),
    ("run.output", ""),
    ("run.output", "out "),
    ("run.output", "a\nb"),
]


def test_out_of_range_cases_cover_every_key():
    cp = configparser.ConfigParser()
    cp.read_string(serialize_config(ExperimentConfig()))
    assert {key for key, _ in OUT_OF_RANGE} == {f"{s}.{k}" for s in cp.sections() for k in cp[s]}


@pytest.mark.parametrize("key,value", OUT_OF_RANGE)
def test_out_of_range_value_is_one_violation_of_its_key(key, value):
    with pytest.raises(ConfigError) as exc:
        apply_overrides(ExperimentConfig(), [(key, value)])
    assert [v.split(":")[0] for v in exc.value.violations] == [key]


def test_readme_defaults_block_parses_to_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Defaults shown:\n\n```ini\n(.*?)```", readme, re.DOTALL)
    assert block is not None
    assert parse_config(block.group(1)) == ExperimentConfig()


def test_parse_error_is_config_error():
    with pytest.raises(ConfigError):
        parse_config("k = 10\n")  # key outside any section


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_load_config_round_trip(tmp_path):
    cfg = dataclasses.replace(ExperimentConfig(), dim=64)
    path = tmp_path / "exp.cfg"
    path.write_text(serialize_config(cfg))
    assert load_config(path) == cfg


def test_apply_overrides():
    cfg = apply_overrides(ExperimentConfig(), [("quantum.dim", "256"), ("leak.center", "0.8")])
    assert cfg.dim == 256
    assert cfg.leak_center == 0.8
    assert ExperimentConfig().dim == 512  # original untouched


def test_apply_overrides_errors():
    with pytest.raises(ConfigError):
        apply_overrides(ExperimentConfig(), [("quantum.dims", "256")])
    with pytest.raises(ConfigError):
        apply_overrides(ExperimentConfig(), [("dim", "256")])
    with pytest.raises(ConfigError):
        apply_overrides(ExperimentConfig(), [("quantum.dim", "many")])
    with pytest.raises(ConfigError):
        apply_overrides(ExperimentConfig(), [("classical.t_max", "0")])


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        ExperimentConfig().dim = 7
