"""Shared classifier configuration and the uniform trained-model contract."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from ..errors import ConfigError, SchemaError, require_int, require_real

MODEL_KINDS = ("dt", "rf", "et", "gbt", "nb", "svm")

SERIALIZATION_VERSION = 4


def one_vs_rest(n_classes: int) -> range:
    """Class indices that get their own chain: the higher class of a binary
    task, else every class."""
    return range(int(n_classes == 2), n_classes)


def require_shape(name: str, values, shape: tuple) -> np.ndarray:
    """``values`` as a float array; ``ValueError`` unless it has ``shape`` and
    holds only finite real numbers, no bools or strings."""
    cells = np.asarray(values, dtype=object)
    if cells.shape != shape:
        raise ValueError(f"{name} have shape {cells.shape}, the model needs {shape}")
    for at in np.ndindex(shape):
        require_real(f"{name}{list(at)}", cells[at], error=ValueError)
    return cells.astype(float)


@dataclass(frozen=True)
class ClassifierConfig:
    """Hyperparameters for any of the six classifier kinds.

    Fields irrelevant to a kind are simply ignored by its trainer; settings
    that no run varies are constants of the model modules. Together with
    (data, seed) a config fully determines the trained model.
    """

    kind: str
    seed: int = 0
    impurity: str = "entropy"           # dt/rf/et: entropy | gini
    max_depth: int | None = None        # dt/rf/et; None = unlimited
    n_trees: int = 100                  # rf/et
    n_rounds: int = 100                 # gbt
    gbt_max_depth: int = 6
    max_iters: int = 1000               # svm

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind '{self.kind}'")
        if self.impurity not in ("entropy", "gini"):
            raise ConfigError(f"unknown impurity '{self.impurity}'")
        for name, minimum in (("seed", 0), ("n_trees", 1), ("n_rounds", 1),
                              ("gbt_max_depth", 0), ("max_iters", 1)):
            require_int(name, getattr(self, name), minimum)
        if self.max_depth is not None:
            require_int("max_depth", self.max_depth, 0)

    def to_dict(self) -> dict:
        return asdict(self)


class TrainedModel:
    """Uniform predict/score contract over all classifier kinds.

    ``fit`` trains a model of the class's kind on float rows ``x`` and class
    indices ``yi`` into ``classes``. ``score`` returns an (N, K) matrix:
    class probabilities for dt/rf/et/gbt/nb, one-vs-rest margins for svm.
    ``predict`` is argmax with lowest-class-id tie-break. ``classes`` lists
    the class ids seen at training time, ascending.
    """

    kind: str

    def __init__(self, config: ClassifierConfig, classes: np.ndarray,
                 n_features: int):
        self.config = config
        self.classes = np.asarray(classes, dtype=np.int64)
        self.n_features = int(n_features)
        self.flags: dict[str, bool] = {}

    def _check_features(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise SchemaError(f"model expects rows of {self.n_features} features, "
                              f"got an array of shape {x.shape}")
        return x

    @classmethod
    def fit(cls, x: np.ndarray, yi: np.ndarray, classes: np.ndarray,
            config: ClassifierConfig) -> "TrainedModel":
        raise NotImplementedError

    def score(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict(self, x: np.ndarray) -> np.ndarray:
        scores = self.score(x)
        # argmax picks the first (lowest class id) maximum
        return self.classes[np.argmax(scores, axis=1)]

    def positive_score(self, x: np.ndarray, positive_class: int = 1) -> np.ndarray:
        """Ranking statistic for ROC: probability or margin of one class."""
        scores = self.score(x)
        col = int(np.flatnonzero(self.classes == positive_class)[0])
        return scores[:, col]

    def params_dict(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_params(cls, config: ClassifierConfig, classes: np.ndarray,
                    n_features: int, params: dict) -> "TrainedModel":
        """Inverse of ``params_dict``; ``load_model`` restores the flags."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {
            "version": SERIALIZATION_VERSION,
            "kind": self.kind,
            "config": self.config.to_dict(),
            "classes": self.classes.tolist(),
            "n_features": self.n_features,
            "flags": dict(self.flags),
            "params": self.params_dict(),
        }
