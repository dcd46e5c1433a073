"""Exception hierarchy shared across the package, and the integer check of
the configs and schemas."""

import numbers


class FuzzidsError(Exception):
    """Base class for all package errors."""


class LoadError(FuzzidsError):
    """Raised when a data file cannot be parsed."""


class SchemaError(FuzzidsError):
    """Raised when data does not match its declared schema."""


class ConfigError(FuzzidsError):
    """Raised for invalid experiment or classifier configuration."""


class TrainingError(FuzzidsError):
    """Raised when a model cannot be trained on the given data."""


class EvaluationError(FuzzidsError):
    """Raised for undefined metric computations (e.g. ROC on one class)."""


def require_int(name: str, value, minimum: int, error=ConfigError) -> None:
    """Raise ``error`` unless value is an integer >= minimum; bools are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
