"""Stagewise gradient-boosted regression trees with logistic loss."""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from .base import ClassifierConfig, TrainedModel, one_vs_rest
from .tree import Tree, _presort, _scan, grow


def _newton_rule(x: np.ndarray, grad: np.ndarray, hess: np.ndarray,
                 config: ClassifierConfig):
    """Node rule of a boosting stage: leaf weight -G / (H + lambda), split by
    the Newton gain on summed gradients and hessians."""
    lam = config.reg_lambda

    def rule(rows, order, depth):
        # summed in row order, not sorted order, so leaf weights keep their bits
        g, h = grad[rows].sum(), hess[rows].sum()
        weight = -g / (h + lam)
        if depth >= config.gbt_max_depth or len(rows) < config.min_samples_split:
            return weight, None

        def gains_along(sorted_rows):
            gl = np.cumsum(grad[sorted_rows], axis=1)[:, :-1]
            hl = np.cumsum(hess[sorted_rows], axis=1)[:, :-1]
            gr, hr = g - gl, h - hl
            return 0.5 * (
                gl ** 2 / (hl + lam) + gr ** 2 / (hr + lam) - g ** 2 / (h + lam)
            ) - config.reg_gamma

        return weight, _scan(x, order, range(x.shape[1]), gains_along)

    return rule


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _log_loss(y: np.ndarray, raw: np.ndarray) -> float:
    # numerically stable: log(1 + exp(-y_pm * raw)) with y_pm in {-1, +1}
    margin = np.where(y == 1, raw, -raw)
    return float(np.logaddexp(0.0, -margin).sum())


class _BinaryBooster:
    """One logistic boosting chain: base score plus shrunken stage trees."""

    def __init__(self, base_score: float, stages: list[Tree],
                 learning_rate: float, objective_trace: list[float]):
        self.base_score = base_score
        self.stages = stages
        self.learning_rate = learning_rate
        self.objective_trace = objective_trace

    def raw(self, x: np.ndarray) -> np.ndarray:
        out = np.full(len(x), self.base_score)
        for stage in self.stages:
            out += self.learning_rate * stage.value[stage.apply(x)]
        return out

    def to_dict(self) -> dict:
        return {
            "base_score": self.base_score,
            "stages": [s.to_dict() for s in self.stages],
            "objective_trace": list(self.objective_trace),
        }

    @classmethod
    def from_dict(cls, doc: dict, learning_rate: float) -> "_BinaryBooster":
        return cls(
            doc["base_score"],
            [Tree.from_dict(s) for s in doc["stages"]],
            learning_rate,
            list(doc["objective_trace"]),
        )


def _fit_binary_chain(x: np.ndarray, y01: np.ndarray, config: ClassifierConfig,
                      order: np.ndarray) -> _BinaryBooster:
    pos = y01.mean()
    pos = min(max(pos, 1e-12), 1 - 1e-12)
    base = float(np.log(pos / (1.0 - pos)))
    raw = np.full(len(y01), base)

    stages: list[Tree] = []
    trace: list[float] = []
    complexity = 0.0
    trace.append(_log_loss(y01, raw))
    for t in range(config.n_rounds):
        p = _sigmoid(raw)
        grad = p - y01
        hess = p * (1.0 - p)
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            raise TrainingError(f"non-finite gradient at boosting round {t}")
        tree = grow(x, np.arange(len(x)), _newton_rule(x, grad, hess, config), order)
        stages.append(tree)
        raw = raw + config.learning_rate * tree.value[tree.apply(x)]
        leaves = tree.value[tree.left < 0]  # left to right
        complexity += config.reg_gamma * len(leaves)
        complexity += 0.5 * config.reg_lambda * sum(
            (config.learning_rate * w) ** 2 for w in leaves
        )
        trace.append(_log_loss(y01, raw) + complexity)
    return _BinaryBooster(base, stages, config.learning_rate, trace)


class GradientBoostedModel(TrainedModel):
    """Binary logistic booster, or one-vs-rest chains for multi-class."""

    kind = "gbt"

    def __init__(self, config, classes, n_features, chains: list[_BinaryBooster]):
        super().__init__(config, classes, n_features)
        self.chains = chains

    @classmethod
    def fit(cls, x, yi, classes, config):
        if len(classes) == 1:
            chain = _BinaryBooster(0.0, [], config.learning_rate, [0.0])
            model = cls(config, classes, x.shape[1], [chain])
            model.flags["degenerate"] = True
            return model
        order = _presort(x, np.arange(len(yi)))  # serves every round of every chain
        chains = [_fit_binary_chain(x, (yi == c).astype(float), config, order)
                  for c in one_vs_rest(len(classes))]
        return cls(config, classes, x.shape[1], chains)

    @property
    def objective_traces(self) -> list[list[float]]:
        return [c.objective_trace for c in self.chains]

    def score(self, x: np.ndarray) -> np.ndarray:
        x = self._check_features(x)
        if len(self.classes) == 1:
            return np.ones((len(x), 1))
        if len(self.chains) == 1:
            p1 = _sigmoid(self.chains[0].raw(x))
            scores = np.column_stack([1.0 - p1, p1])
        else:
            scores = np.column_stack([_sigmoid(c.raw(x)) for c in self.chains])
            totals = scores.sum(axis=1, keepdims=True)
            totals[totals == 0.0] = 1.0
            scores = scores / totals
        return scores

    def params_dict(self) -> dict:
        return {"chains": [c.to_dict() for c in self.chains]}

    @classmethod
    def from_params(cls, config, classes, n_features, params):
        chains = [_BinaryBooster.from_dict(c, config.learning_rate)
                  for c in params["chains"]]
        return cls(config, classes, n_features, chains)
