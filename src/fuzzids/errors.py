"""Exception hierarchy shared across the package, and the integer and
real-number checks of the configs and schemas."""

import math
import numbers


class FuzzidsError(Exception):
    """Base class for all package errors; ``exit_code`` is the CLI's exit status."""

    exit_code = 1


class LoadError(FuzzidsError):
    """Raised when a data file cannot be parsed."""

    exit_code = 2


class SchemaError(FuzzidsError):
    """Raised when data does not match its declared schema."""

    exit_code = 2


class ConfigError(FuzzidsError):
    """Raised for invalid experiment or classifier configuration."""


class TrainingError(FuzzidsError):
    """Raised when a model cannot be trained on the given data."""

    exit_code = 3


class EvaluationError(FuzzidsError):
    """Raised for undefined metric computations (e.g. ROC on one class)."""


def require_int(name: str, value, minimum: int, error=ConfigError) -> None:
    """Raise ``error`` unless value is an integer >= minimum; bools are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_real(name: str, value, low: float = -math.inf, high: float = math.inf,
                 error=ConfigError) -> None:
    """Raise ``error`` unless value is a finite number in [low, high]; bools are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            math.isfinite(value) and low <= value <= high):
        raise error(f"{name} must be a finite number in [{low}, {high}], got {value!r}")


def require_reals(name: str, values, error=ConfigError) -> None:
    """Raise ``error`` unless values is a list of finite numbers; bools are not."""
    if not isinstance(values, list):
        raise error(f"{name} must be a list, got {type(values).__name__}")
    for i, value in enumerate(values):
        require_real(f"{name}[{i}]", value, error=error)
