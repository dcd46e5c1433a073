"""Six from-scratch classifiers behind one train/score/predict contract."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import ConfigError
from .base import ClassifierConfig, TrainedModel, MODEL_KINDS, SERIALIZATION_VERSION
from .bayes import NaiveBayesModel, fit_nb
from .boosting import GradientBoostedModel, _BinaryBooster, fit_gbt
from .svm import SvmModel, fit_svm
from .tree import (
    DecisionTreeModel,
    ForestModel,
    Tree,
    best_split,
    fit_dt,
    fit_et,
    fit_rf,
    impurity,
    mean_impurity_decrease,
)

__all__ = [
    "ClassifierConfig", "TrainedModel", "MODEL_KINDS",
    "fit_model", "fit_dt", "fit_rf", "fit_et", "fit_gbt", "fit_nb", "fit_svm",
    "impurity", "best_split", "mean_impurity_decrease",
    "save_model", "load_model",
]

_FITTERS = {
    "dt": fit_dt,
    "rf": fit_rf,
    "et": fit_et,
    "gbt": fit_gbt,
    "nb": fit_nb,
    "svm": fit_svm,
}


def fit_model(x: np.ndarray, y: np.ndarray, config: ClassifierConfig) -> TrainedModel:
    """Train the classifier named by config.kind."""
    return _FITTERS[config.kind](x, y, config)


def save_model(model: TrainedModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, sort_keys=True)


def load_model(path: str | Path) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("version") != SERIALIZATION_VERSION:
        raise ConfigError(f"unsupported model file version {doc.get('version')}")
    config = ClassifierConfig.from_dict(doc["config"])
    classes = np.asarray(doc["classes"], dtype=np.int64)
    n_features = doc["n_features"]
    params = doc["params"]
    kind = doc["kind"]

    if kind == "dt":
        model: TrainedModel = DecisionTreeModel(
            config, classes, n_features, Tree.from_dict(params["root"])
        )
    elif kind in ("rf", "et"):
        trees = [Tree.from_dict(t) for t in params["trees"]]
        model = ForestModel(config, classes, n_features, trees, kind=kind)
    elif kind == "gbt":
        chains = [
            _BinaryBooster.from_dict(c, config.learning_rate)
            for c in params["chains"]
        ]
        model = GradientBoostedModel(config, classes, n_features, chains)
    elif kind == "nb":
        log_priors = np.asarray(params["log_priors"])
        if config.nb_variant == "gaussian":
            nb_params = (
                np.asarray(params["means"]), np.asarray(params["variances"])
            )
        else:
            nb_params = (
                [np.asarray(lp) for lp in params["log_probs"]],
                np.asarray(params["n_values"], dtype=np.int64),
            )
        model = NaiveBayesModel(config, classes, n_features, log_priors, nb_params)
    elif kind == "svm":
        model = SvmModel(
            config, classes, n_features,
            params["weights"], params["biases"], params["objective_traces"],
            converged=not doc["flags"].get("non_converged", False),
        )
    else:
        raise ConfigError(f"unknown model kind '{kind}' in {path}")
    model.flags.update(doc.get("flags", {}))
    return model
