"""Shared exception types with a stable mapping to CLI exit codes, and the sign rules.

Usage, config, and parse problems exit the CLI with code 1; numerical
failures (non-finite losses, gradient check failures) exit with code 2.
"""


class DimensionError(ValueError):
    """Array shapes do not line up; the message reports both shapes."""


class InputError(ValueError):
    """A value violates an operation's documented domain."""


class TapeReuseError(RuntimeError):
    """A backward tape was consumed twice."""


class ConfigError(ValueError):
    """Unknown key, bad value, or duplicate entry in a run configuration."""


class DatasetParseError(ValueError):
    """Malformed dataset file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class NumericalError(RuntimeError):
    """A loss or gradient went non-finite; the message names the component."""


def check_positive(name: str, value) -> None:
    if not value > 0:  # NaN fails too
        raise InputError(f"{name} must be positive, got {value}")


def check_nonnegative(name: str, value) -> None:
    if not value >= 0:  # NaN fails too
        raise InputError(f"{name} must be nonnegative, got {value}")
