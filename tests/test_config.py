"""Configuration resolution: defaults, file parsing, overrides, validation."""

import dataclasses
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from dtn_tradesim.config import (
    StudyConfig,
    config_hash,
    config_lines,
    load_config,
    parse_config_file,
)
from dtn_tradesim.errors import ConfigurationError


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.packet_count == 500
    assert cfg.run_count == 5
    assert cfg.sigma_frac == 0.05
    assert (cfg.beta_a, cfg.beta_b) == (3.0, 2.0)
    assert cfg.relay_count == 10
    assert cfg.seed == 0
    assert cfg.end_to_end_km == 1.27e9


def test_file_values_and_comments(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "packet_count = 120\n"
        "run_count=3\n"
        "sigma_frac = 0.1\n"
        "seed = 7\n"
        "format = both\n"
    )
    cfg = load_config(str(path))
    assert cfg.packet_count == 120
    assert cfg.run_count == 3
    assert cfg.sigma_frac == 0.1
    assert cfg.seed == 7
    assert cfg.format == "both"
    assert cfg.relay_count == 10  # untouched default


def test_unknown_key_is_named_in_error(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("packett_count=5\n")
    with pytest.raises(ConfigurationError, match="packett_count"):
        load_config(str(path))


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("packet_count\n")
    with pytest.raises(ConfigurationError, match="key=value"):
        load_config(str(path))


def test_bad_value_names_key(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("packet_count=ten\n")
    with pytest.raises(ConfigurationError, match="packet_count"):
        load_config(str(path))


def test_missing_file_is_config_error():
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_config("/nonexistent/study.cfg")


def test_nul_in_config_path_is_config_error():
    # open() refuses the path with ValueError, not OSError.
    with pytest.raises(ConfigurationError, match="cannot read config file"):
        load_config("a\x00b")


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("run_count=5\npacket_count=100\n")
    cfg = load_config(str(path), {"run_count": 2})
    assert cfg.run_count == 2
    assert cfg.packet_count == 100


def test_override_strings_are_converted():
    cfg = load_config(None, {"sigma_frac": "0.2", "relay_count": "4"})
    assert cfg.sigma_frac == 0.2
    assert cfg.relay_count == 4


@pytest.mark.parametrize(
    "overrides",
    [
        {"packet_count": 0},
        {"run_count": 0},
        {"sigma_frac": -0.5},
        {"relay_count": 0},
        {"beta_a": 0.0},
        {"beta_b": -2.0},
        {"seed": -1},
        {"seed": 2**64},
        {"format": "xml"},
        {"baseline": "flooding"},
        {"min_coord_km": 0.0},
        {"end_to_end_km": 1.0e4},
        {"step_budget_factor": 0},
        {"bogus_key": 1},
        {"sigma_frac": "nan"},
        {"beta_a": "nan"},
        {"beta_b": math.inf},
        {"end_to_end_km": "inf"},
        {"packet_count": 2.5},
        {"run_count": True},
        {"sigma_frac": False},
        {"seed": None},
        {"end_to_end_km": 10**400},
        {"sigma_frac": 10**400},
        {"beta_a": 10**400},
        {"end_to_end_km": 10**5000},
        {"seed": 10**5000},
        {"packet_count": -(10**5000)},
        {"format": 10**5000},
        {"out_dir": ""},
        {"out_dir": "a\x00b"},
        {"out_dir": "a\nb"},
        {"out_dir": "a\rb"},
        {"out_dir": "a\u2028b"},
    ],
)
def test_invalid_values_rejected(overrides):
    with pytest.raises(ConfigurationError):
        load_config(None, overrides)
    # A config key: building the config refuses the value as well.
    if overrides.keys() <= {f.name for f in fields(StudyConfig)}:
        with pytest.raises(ConfigurationError):
            StudyConfig(**overrides)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(StudyConfig(), **overrides)


@pytest.mark.parametrize("key", ["end_to_end_km", "seed"])
def test_int_too_large_for_a_float_is_named_not_printed(key):
    with pytest.raises(ConfigurationError, match="got an int too large for a float$"):
        load_config(None, {key: 10**400})


def test_int_accepted_for_float_key():
    assert load_config(None, {"sigma_frac": 0, "beta_a": 2}).sigma_frac == 0


def test_readme_key_block_is_the_defaults(tmp_path):
    """README's key block, copied verbatim, loads as the defaults, every key in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```\n((?:(?:#.*|\w+=.*)\n)+)```", readme)
    assert len(blocks) == 1
    path = tmp_path / "readme.cfg"
    path.write_text(blocks[0], encoding="utf-8")
    assert list(parse_config_file(str(path))) == [f.name for f in fields(StudyConfig)]
    assert load_config(str(path)) == StudyConfig()


def test_config_hash_stable_and_sensitive():
    a = StudyConfig()
    b = StudyConfig()
    c = StudyConfig(seed=1)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_int_and_float_spellings_of_a_float_key_hash_alike():
    as_int = StudyConfig(end_to_end_km=10**9, min_coord_km=10_000)
    as_float = StudyConfig(end_to_end_km=1e9, min_coord_km=1e4)
    assert config_lines(as_int) == config_lines(as_float)
    assert config_hash(as_int) == config_hash(as_float)
    assert "end_to_end_km=1000000000.0" in config_lines(as_int)


def test_config_lines_cover_every_field():
    keys = [line.split("=", 1)[0] for line in config_lines(StudyConfig())]
    assert keys == [
        "packet_count",
        "run_count",
        "sigma_frac",
        "beta_a",
        "beta_b",
        "relay_count",
        "seed",
        "end_to_end_km",
        "min_coord_km",
        "out_dir",
        "format",
    ]


@pytest.mark.parametrize("line", ["baseline=bundle", "step_budget_factor=10"])
def test_removed_keys_are_unknown(tmp_path, line):
    # The practicality baseline and the step budget are fixed by the model,
    # so a config that sets either, even to the value in force, is refused.
    key, _, value = line.partition("=")
    with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
        load_config(None, {key: value})
    path = tmp_path / "study.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigurationError, match=f"study.cfg:1: unknown key '{key}'"):
        load_config(str(path))
