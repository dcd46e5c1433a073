"""Exception hierarchy shared across the package, and the integer and
real-number checks of the configs, schemas and saved files."""

import math
import numbers

import numpy as np


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


def require_reals(name: str, values, error=ConfigError) -> np.ndarray:
    """``values`` as a float array; raise ``error`` unless values is a list of
    finite numbers; bools are not. A list of plain ints and floats is checked
    whole, any other entry by ``require_real``."""
    if not isinstance(values, list):
        raise error(f"{name} must be a list, got {type(values).__name__}")
    if set(map(type, values)) <= {int, float}:
        array = np.array(values, dtype=float)
        if np.isfinite(array).all():
            return array
    for i, value in enumerate(values):
        require_real(f"{name}[{i}]", value, error=error)
    return np.array(values, dtype=float)


def require_ints(name: str, values, minimum: int, error=ConfigError) -> np.ndarray:
    """``values`` as an int64 array; raise ``error`` unless values is a list of
    integers >= minimum; bools are not. A list of plain ints is checked
    whole, any other entry by ``require_int``."""
    if not isinstance(values, list):
        raise error(f"{name} must be a list, got {type(values).__name__}")
    if set(map(type, values)) <= {int}:
        array = np.array(values, dtype=np.int64)
        if (array >= minimum).all():
            return array
    for i, value in enumerate(values):
        require_int(f"{name}[{i}]", value, minimum, error=error)
    return np.array(values, dtype=np.int64)
