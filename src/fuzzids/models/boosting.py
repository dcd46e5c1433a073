"""Stagewise gradient-boosted regression trees with logistic loss."""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from .base import ClassifierConfig, TrainedModel, one_vs_rest
from .tree import Tree, _presort, _scan, grow

LEARNING_RATE = 0.1  # shrinkage of every stage's leaf weights
REG_LAMBDA = 1.0     # L2 penalty on leaf weights


def _newton_rule(x: np.ndarray, grad: np.ndarray, hess: np.ndarray,
                 config: ClassifierConfig):
    """Node rule of a boosting stage: leaf weight -G / (H + lambda), split by
    the Newton gain on summed gradients and hessians."""
    lam = REG_LAMBDA

    def rule(rows, order, depth):
        # summed in row order, not sorted order, so leaf weights keep their bits
        g, h = grad[rows].sum(), hess[rows].sum()
        weight = -g / (h + lam)
        if depth >= config.gbt_max_depth:  # _scan finds no cut in a one-row node
            return weight, None

        def gains_along(sorted_rows, b, q):
            gl = np.cumsum(grad[sorted_rows], axis=1)[b, q]
            hl = np.cumsum(hess[sorted_rows], axis=1)[b, q]
            gr, hr = g - gl, h - hl
            return 0.5 * (
                gl ** 2 / (hl + lam) + gr ** 2 / (hr + lam) - g ** 2 / (h + lam)
            )

        return weight, _scan(x, order, range(x.shape[1]), gains_along)

    return rule


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _log_loss(y: np.ndarray, raw: np.ndarray) -> float:
    # numerically stable: log(1 + exp(-y_pm * raw)) with y_pm in {-1, +1}
    margin = np.where(y == 1, raw, -raw)
    return float(np.logaddexp(0.0, -margin).sum())


def _fit_binary_chain(x: np.ndarray, y01: np.ndarray, config: ClassifierConfig,
                      order: np.ndarray) -> tuple[float, list[Tree], list[float]]:
    """One logistic boosting chain: its base score, stage trees and objective trace."""
    pos = y01.mean()
    pos = min(max(pos, 1e-12), 1 - 1e-12)
    base = float(np.log(pos / (1.0 - pos)))
    raw = np.full(len(y01), base)

    stages: list[Tree] = []
    trace = [_log_loss(y01, raw)]
    complexity = 0.0
    for t in range(config.n_rounds):
        p = _sigmoid(raw)
        grad = p - y01
        hess = p * (1.0 - p)
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            raise TrainingError(f"non-finite gradient at boosting round {t}")
        tree = grow(x, np.arange(len(x)), _newton_rule(x, grad, hess, config), order)
        stages.append(tree)
        raw = raw + LEARNING_RATE * tree.value[tree.apply(x)]
        leaves = tree.value[tree.left < 0]  # left to right
        complexity += 0.5 * REG_LAMBDA * sum((LEARNING_RATE * w) ** 2 for w in leaves)
        trace.append(_log_loss(y01, raw) + complexity)
    return base, stages, trace


class GradientBoostedModel(TrainedModel):
    """Binary logistic booster, or one-vs-rest chains for multi-class. Chain ``i``
    adds ``LEARNING_RATE`` times its ``stages[i]`` leaf weights to ``base_scores[i]``."""

    kind = "gbt"

    def __init__(self, config, classes, n_features, base_scores: list[float],
                 stages: list[list[Tree]], objective_traces: list[list[float]]):
        super().__init__(config, classes, n_features)
        self.base_scores = base_scores
        self.stages = stages
        self.objective_traces = objective_traces

    @classmethod
    def fit(cls, x, yi, classes, config):
        if len(classes) == 1:
            model = cls(config, classes, x.shape[1], [0.0], [[]], [[0.0]])
            model.flags["degenerate"] = True
            return model
        x = np.ascontiguousarray(x)  # one copy for every stage's apply
        order = _presort(x, np.arange(len(yi)))  # serves every round of every chain
        chains = [_fit_binary_chain(x, (yi == c).astype(float), config, order)
                  for c in one_vs_rest(len(classes))]
        return cls(config, classes, x.shape[1], *map(list, zip(*chains)))

    def _raw(self, x: np.ndarray, chain: int) -> np.ndarray:
        out = np.full(len(x), self.base_scores[chain])
        for stage in self.stages[chain]:
            out += LEARNING_RATE * stage.value[stage.apply(x)]
        return out

    def score(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(self._check_features(x))  # one copy for every stage
        if len(self.classes) == 1:
            return np.ones((len(x), 1))
        scores = np.column_stack([_sigmoid(self._raw(x, chain))
                                  for chain in range(len(self.stages))])
        if len(self.stages) == 1:
            return np.column_stack([1.0 - scores[:, 0], scores[:, 0]])
        totals = scores.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return scores / totals

    def params_dict(self) -> dict:
        chains = zip(self.base_scores, self.stages, self.objective_traces)
        return {"chains": [{"base_score": base, "stages": [s.to_dict() for s in stages],
                            "objective_trace": trace} for base, stages, trace in chains]}

    @classmethod
    def from_params(cls, config, classes, n_features, params):
        chains = params["chains"]
        return cls(config, classes, n_features, [c["base_score"] for c in chains],
                   [[Tree.from_dict(s, n_features, len(classes)) for s in c["stages"]]
                    for c in chains],
                   [c["objective_trace"] for c in chains])
