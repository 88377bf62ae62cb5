"""Flat `key = value` run configuration files.

One assignment per line; `#` starts a comment, blank lines are ignored. Keys are
exactly the TrainConfig field names; unknown or duplicate keys fail fast.
Tuples are comma lists (`hidden_dims = 256,256`), optionals accept `none`.
"""

from __future__ import annotations

import typing

from .errors import ConfigError, InputError
from .training import TrainConfig


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _parser(hint):
    """Text-to-value parser for one TrainConfig field type."""
    if hint is bool:
        return _parse_bool
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple:
        return lambda value: tuple(args[0](part.strip()) for part in value.split(",") if part.strip())
    if len(args) == 1:  # optional: `none` or a value
        return lambda value: None if value.lower() == "none" else args[0](value)
    return hint


_FIELD_PARSERS = {name: _parser(hint) for name, hint in typing.get_type_hints(TrainConfig).items()}


def parse_config_text(text: str) -> TrainConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        parser = _FIELD_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    try:
        return TrainConfig(**values)
    except InputError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
