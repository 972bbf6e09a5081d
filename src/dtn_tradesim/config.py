"""Study configuration: defaults, flat key=value file parsing, overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigurationError

FORMATS = ("csv", "json", "both")


def _finite_number(value: object) -> bool:
    """True for an int or float that converts to a finite float."""
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int too large for any float
        return False


def _shown(value: object) -> str:
    """A value's repr for an error message, or its kind for an int no float can hold.

    Such an int may be too long to print at all: CPython refuses to convert
    one of more than 4300 digits to text.
    """
    if isinstance(value, int) and not _finite_number(value):
        return "an int too large for a float"
    return repr(value)


@dataclass(frozen=True)
class StudyConfig:
    """Everything one reproducible study needs, checked when built.

    seed is the master seed; each run derives its own stream from it, so a
    study is fully determined by this object.  A bad value raises
    ConfigurationError from the constructor, and so from dataclasses.replace.
    """

    packet_count: int = 500
    run_count: int = 5
    sigma_frac: float = 0.05
    beta_a: float = 3.0
    beta_b: float = 2.0
    relay_count: int = 10
    seed: int = 0
    end_to_end_km: float = 1.27e9
    min_coord_km: float = 1.0e4
    out_dir: str = "report"
    format: str = "csv"

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kind = type(f.default)
            if kind is float:
                ok = _finite_number(value)
            else:
                ok = isinstance(value, kind)
            if isinstance(value, bool) or not ok:
                expected = "a finite number" if kind is float else kind.__name__
                raise ConfigurationError(f"{f.name} must be {expected}, got {_shown(value)}")
        if self.packet_count < 1:
            raise ConfigurationError(f"packet_count must be >= 1, got {_shown(self.packet_count)}")
        if self.run_count < 1:
            raise ConfigurationError(f"run_count must be >= 1, got {_shown(self.run_count)}")
        if self.sigma_frac < 0:
            raise ConfigurationError(f"sigma_frac must be >= 0, got {self.sigma_frac}")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(
                f"seed must fit an unsigned 64-bit int, got {_shown(self.seed)}"
            )
        if not self.out_dir:
            raise ConfigurationError("out_dir must be a non-empty path, got ''")
        if not self.out_dir.isprintable():  # it is one line of the manifest
            raise ConfigurationError(f"out_dir must be a printable path, got {self.out_dir!r}")
        if self.format not in FORMATS:
            raise ConfigurationError(
                f"format must be one of {', '.join(FORMATS)}, got {self.format!r}"
            )
        if self.relay_count < 1:
            raise ConfigurationError(f"relay_count must be >= 1, got {_shown(self.relay_count)}")
        if self.min_coord_km <= 0:
            raise ConfigurationError(f"min_coord_km must be > 0, got {self.min_coord_km}")
        if self.end_to_end_km <= 2 * self.min_coord_km:
            raise ConfigurationError(
                "end_to_end_km must exceed 2 * min_coord_km, got "
                f"{self.end_to_end_km} vs {self.min_coord_km}"
            )
        if self.beta_a <= 0 or self.beta_b <= 0:
            raise ConfigurationError(
                f"beta shape parameters must be > 0, got ({self.beta_a}, {self.beta_b})"
            )


_DEFAULTS = {f.name: f.default for f in fields(StudyConfig)}


def _convert(key: str, value: object, where: str = "") -> object:
    """Check the key and convert a string value to its field's default type."""
    if key not in _DEFAULTS:
        raise ConfigurationError(f"{where}unknown key {key!r}")
    if not isinstance(value, str):
        return value
    try:
        return type(_DEFAULTS[key])(value)
    except ValueError as exc:
        raise ConfigurationError(f"{where}bad value for {key}: {value!r} ({exc})") from exc


def parse_config_file(path: str) -> dict[str, object]:
    """Read a flat key=value file; blank lines and # comments are ignored.

    Every error message names the file as given, or by its repr when that is
    not printable (a line break or a NUL), so the message stays one line.
    """
    values: dict[str, object] = {}
    shown = path if path.isprintable() else repr(path)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in path, or not UTF-8
        raise ConfigurationError(f"cannot read config file {shown}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{shown}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        values[key] = _convert(key, value.strip(), f"{shown}:{lineno}: ")
    return values


def load_config(
    path: str | None = None, overrides: dict[str, object] | None = None
) -> StudyConfig:
    """Resolve a config: defaults, then the file, then explicit overrides.

    String values are converted to their field's type, so config files and
    command-line flags share one path; StudyConfig checks the result.
    """
    values = {} if path is None else parse_config_file(path)
    for key, value in (overrides or {}).items():
        values[key] = _convert(key, value)
    return StudyConfig(**values)


def config_lines(config: StudyConfig) -> list[str]:
    """Canonical key=value rendering of a resolved config.

    Float keys render through float, so an int given for one (which
    StudyConfig accepts) reads and hashes the same as its float spelling.
    """
    out = []
    for f in fields(config):
        value = getattr(config, f.name)
        if type(f.default) is float:
            value = float(value)
        out.append(f"{f.name}={value}")
    return out


def config_hash(config: StudyConfig) -> str:
    """Stable hex digest of the resolved configuration."""
    import hashlib  # here, not at the top: validating a config needs no digest

    text = "\n".join(config_lines(config))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
