"""Linear soft-margin SVM trained by monotone full-batch subgradient descent."""

from __future__ import annotations

import numpy as np

from .base import ClassifierConfig, TrainedModel, one_vs_rest, require_shape

C = 1.0           # weight of the hinge losses against (1/2)||w||^2
TOLERANCE = 1e-4  # stop once an iteration lowers the objective by less
_INITIAL_STEP = 0.1
_MAX_BACKTRACKS = 40


def svm_objective(w: np.ndarray, b: float, x: np.ndarray, y_pm: np.ndarray,
                  c: float) -> tuple[float, np.ndarray]:
    """Primal objective, (1/2)||w||^2 + C * sum of hinge losses, and the
    margins y (x.w + b) it is made of."""
    margins = y_pm * (x @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(0.5 * w @ w + c * hinge.sum()), margins


def _train_binary(x: np.ndarray, y_pm: np.ndarray,
                  config: ClassifierConfig) -> tuple[np.ndarray, float, list[float], bool]:
    """Full-batch subgradient descent with backtracking; objective never rises.

    Sample order is fixed, so the trace is hardware independent. Returns
    (w, b, objective trace, converged flag).
    """
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    step = _INITIAL_STEP
    objective, margins = svm_objective(w, b, x, y_pm, C)
    trace = [objective]
    converged = False
    # exact products; signed[violating] is C-ordered, as those products were
    signed = y_pm[:, None] * x
    for _ in range(config.max_iters):
        violating = margins < 1.0
        grad_w = w - C * signed[violating].sum(axis=0)
        grad_b = -C * y_pm[violating].sum()

        current = trace[-1]
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            candidate, new_margins = svm_objective(w_new, b_new, x, y_pm, C)
            if candidate <= current:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        w, b, margins = w_new, b_new, new_margins
        trace.append(candidate)
        if current - candidate < TOLERANCE:
            converged = True
            break
        step *= 1.1  # cautious growth so progress does not stall
    return w, b, trace, converged


class SvmModel(TrainedModel):
    """One weight vector per decision: a single (w, b) for binary tasks,
    one-vs-rest stack for multi-class. Scores are signed margins."""

    kind = "svm"

    def __init__(self, config, classes, n_features, weights, biases, traces):
        super().__init__(config, classes, n_features)
        self.weights = np.asarray(weights, dtype=float)   # (n_chains, F)
        self.biases = np.asarray(biases, dtype=float)     # (n_chains,)
        self.objective_traces = traces

    @classmethod
    def fit(cls, x, yi, classes, config):
        if len(classes) == 1:
            model = cls(config, classes, x.shape[1],
                        np.zeros((1, x.shape[1])), np.zeros(1), [[0.0]])
            model.flags["degenerate"] = True
            return model
        weights, biases, traces, ok = zip(*(
            _train_binary(x, np.where(yi == c, 1.0, -1.0), config)
            for c in one_vs_rest(len(classes))
        ))
        model = cls(config, classes, x.shape[1], weights, biases, list(traces))
        if not all(ok):
            model.flags["non_converged"] = True
        return model

    def score(self, x: np.ndarray) -> np.ndarray:
        """Margins w.x + b, one column per class. A binary task's one chain
        scores the higher class and its negation the lower; one class scores 1."""
        x = self._check_features(x)
        if len(self.classes) == 1:
            return np.ones((len(x), 1))
        margins = x @ self.weights.T + self.biases
        if len(self.classes) == 2:
            return np.column_stack([-margins[:, 0], margins[:, 0]])
        return margins

    def params_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "biases": self.biases.tolist(),
            "objective_traces": [list(t) for t in self.objective_traces],
        }

    @classmethod
    def from_params(cls, config, classes, n_features, params):
        n_chains = len(one_vs_rest(len(classes)))
        return cls(config, classes, n_features,
                   require_shape("weights", params["weights"], (n_chains, n_features)),
                   require_shape("biases", params["biases"], (n_chains,)),
                   params["objective_traces"])
