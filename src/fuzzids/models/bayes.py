"""Naive Bayes: Gaussian likelihoods, or Laplace-smoothed categorical counts."""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from .base import ClassifierConfig, TrainedModel

VARIANCE_FLOOR = 1e-9


class NaiveBayesModel(TrainedModel):
    """Per-class priors and per-feature likelihood parameters, log-space scoring."""

    kind = "nb"

    def __init__(self, config, classes, n_features, log_priors, params):
        super().__init__(config, classes, n_features)
        self.log_priors = np.asarray(log_priors, dtype=float)
        # gaussian: params = (means, variances), each (K, F)
        # categorical-laplace: params = list per feature of (K, n_values) log-prob
        self.params = params

    def _log_likelihood(self, x: np.ndarray) -> np.ndarray:
        if self.config.nb_variant == "gaussian":
            means, variances = self.params
            # (N, K, F) broadcast, summed over features
            diff = x[:, None, :] - means[None, :, :]
            ll = -0.5 * (
                np.log(2.0 * np.pi * variances)[None, :, :]
                + diff ** 2 / variances[None, :, :]
            )
            return ll.sum(axis=2)
        log_probs, n_values = self.params
        n = len(x)
        out = np.zeros((n, len(self.classes)))
        for f in range(self.n_features):
            values = np.clip(x[:, f].astype(np.int64), 0, n_values[f] - 1)
            out += log_probs[f][:, values].T
        return out

    def posterior(self, x: np.ndarray) -> np.ndarray:
        """Normalized class posteriors per row (sum to 1)."""
        x = self._check_features(x)
        log_post = self.log_priors[None, :] + self._log_likelihood(x)
        log_post -= log_post.max(axis=1, keepdims=True)
        post = np.exp(log_post)
        return post / post.sum(axis=1, keepdims=True)

    def score(self, x: np.ndarray) -> np.ndarray:
        return self.posterior(x)

    def params_dict(self) -> dict:
        if self.config.nb_variant == "gaussian":
            means, variances = self.params
            return {
                "log_priors": self.log_priors.tolist(),
                "means": means.tolist(),
                "variances": variances.tolist(),
            }
        log_probs, n_values = self.params
        return {
            "log_priors": self.log_priors.tolist(),
            "log_probs": [lp.tolist() for lp in log_probs],
            "n_values": [int(v) for v in n_values],
        }

    @classmethod
    def from_params(cls, config, classes, n_features, params):
        if config.nb_variant == "gaussian":
            nb_params = (np.asarray(params["means"]), np.asarray(params["variances"]))
        else:
            nb_params = ([np.asarray(lp) for lp in params["log_probs"]],
                         np.asarray(params["n_values"], dtype=np.int64))
        return cls(config, classes, n_features, np.asarray(params["log_priors"]),
                   nb_params)


def fit_nb(x: np.ndarray, y: np.ndarray, config: ClassifierConfig) -> NaiveBayesModel:
    """Estimate priors N_k / N and per-class likelihood parameters."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if len(y) == 0:
        raise TrainingError("cannot train on an empty dataset")
    classes = np.unique(y)
    priors = np.array([(y == c).mean() for c in classes])
    log_priors = np.log(priors)

    if config.nb_variant == "gaussian":
        means = np.vstack([x[y == c].mean(axis=0) for c in classes])
        variances = np.vstack([x[y == c].var(axis=0) for c in classes])
        variances = np.maximum(variances, VARIANCE_FLOOR)
        params = (means, variances)
    else:
        alpha = config.laplace_alpha
        xi = x.astype(np.int64)
        if np.any(xi < 0) or not np.allclose(x, xi):
            raise TrainingError(
                "categorical-laplace variant requires nonnegative integer features"
            )
        n_values = xi.max(axis=0) + 1
        log_probs = []
        for f in range(x.shape[1]):
            counts = np.zeros((len(classes), n_values[f]))
            for k, c in enumerate(classes):
                vals, cnts = np.unique(xi[y == c, f], return_counts=True)
                counts[k, vals] = cnts
            smoothed = counts + alpha
            log_probs.append(np.log(smoothed / smoothed.sum(axis=1, keepdims=True)))
        params = (log_probs, n_values)

    return NaiveBayesModel(config, classes, x.shape[1], log_priors, params)
