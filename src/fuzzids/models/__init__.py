"""Six from-scratch classifiers behind one train/score/predict contract.

``fit_model`` is the one training entry: it checks the data, indexes the
classes once and hands the class indices to the ``fit`` of the model class
named by ``config.kind``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import ConfigError, TrainingError, require_int
from .base import ClassifierConfig, TrainedModel, MODEL_KINDS, SERIALIZATION_VERSION
from .bayes import NaiveBayesModel
from .boosting import GradientBoostedModel
from .svm import SvmModel
from .tree import DecisionTreeModel, ForestModel, mean_impurity_decrease

__all__ = [
    "ClassifierConfig", "TrainedModel", "MODEL_KINDS", "fit_model",
    "mean_impurity_decrease", "save_model", "load_model",
]

_MODEL_CLASSES: dict[str, type[TrainedModel]] = {
    "dt": DecisionTreeModel,
    "rf": ForestModel,
    "et": ForestModel,
    "gbt": GradientBoostedModel,
    "nb": NaiveBayesModel,
    "svm": SvmModel,
}


def fit_model(x: np.ndarray, y: np.ndarray, config: ClassifierConfig) -> TrainedModel:
    """Train the classifier named by config.kind on rows ``x`` and labels ``y``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
        raise TrainingError(f"x of shape {x.shape} needs one row per label, got {y.shape}")
    if len(y) == 0:
        raise TrainingError("cannot train on an empty dataset")
    if not np.isfinite(x).all():
        raise TrainingError("cannot train on x holding NaN or infinite values")
    classes, yi = np.unique(y, return_inverse=True)
    return _MODEL_CLASSES[config.kind].fit(x, yi, classes, config)


def save_model(model: TrainedModel, path: str | Path) -> None:
    """Write the model file."""
    text = json.dumps(model.to_dict(), sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path: str | Path) -> TrainedModel:
    """Read a model file; ``ConfigError`` naming the file unless its header
    and every parameter array fit the model it names."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("version") != SERIALIZATION_VERSION:
            raise ConfigError(
                f"model file {path} has version {doc.get('version')}, this fuzzids "
                f"reads version {SERIALIZATION_VERSION}: retrain the model"
            )
        cls = _MODEL_CLASSES.get(doc["kind"])
        if cls is None:
            raise ConfigError(f"unknown model kind '{doc['kind']}' in {path}")
        classes, n_features = doc["classes"], doc["n_features"]
        if not (isinstance(classes, list) and classes
                and all(type(c) is int for c in classes) and classes == sorted(set(classes))):
            raise ValueError(f"classes {classes!r} are not distinct ascending integers")
        require_int("n_features", n_features, 0, error=ValueError)
        config = ClassifierConfig(**doc["config"])
        if config.kind != doc["kind"]:
            raise ValueError(f"config kind '{config.kind}' is not the file's '{doc['kind']}'")
        model = cls.from_params(config, np.asarray(classes, dtype=np.int64), n_features,
                                doc["params"])
        model.flags.update(doc.get("flags", {}))
    except (OSError, ValueError, TypeError, AttributeError, RecursionError,
            OverflowError) as exc:
        raise ConfigError(f"cannot load model file {path}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"model file {path} missing key {exc}") from exc
    return model
