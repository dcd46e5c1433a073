"""Gaussian naive Bayes."""

from __future__ import annotations

import numpy as np

from .base import TrainedModel, require_shape

VARIANCE_FLOOR = 1e-9


class NaiveBayesModel(TrainedModel):
    """Per-class priors and per-feature Gaussian likelihoods, log-space scoring."""

    kind = "nb"

    def __init__(self, config, classes, n_features, log_priors, means, variances):
        super().__init__(config, classes, n_features)
        self.log_priors = np.asarray(log_priors, dtype=float)
        # each (K, F)
        self.means = np.asarray(means, dtype=float)
        self.variances = np.asarray(variances, dtype=float)

    @classmethod
    def fit(cls, x, yi, classes, config):
        """Estimate priors N_k / N and per-class feature means and variances."""
        masks = [yi == k for k in range(len(classes))]
        priors = np.array([m.mean() for m in masks])
        means = np.vstack([x[m].mean(axis=0) for m in masks])
        variances = np.vstack([x[m].var(axis=0) for m in masks])
        return cls(config, classes, x.shape[1], np.log(priors), means,
                   np.maximum(variances, VARIANCE_FLOOR))

    def _log_likelihood(self, x: np.ndarray) -> np.ndarray:
        # (N, K, F) broadcast, summed over features
        diff = x[:, None, :] - self.means[None, :, :]
        ll = -0.5 * (
            np.log(2.0 * np.pi * self.variances)[None, :, :]
            + diff ** 2 / self.variances[None, :, :]
        )
        return ll.sum(axis=2)

    def score(self, x: np.ndarray) -> np.ndarray:
        """Normalized class posteriors per row (sum to 1)."""
        x = self._check_features(x)
        log_post = self.log_priors[None, :] + self._log_likelihood(x)
        log_post -= log_post.max(axis=1, keepdims=True)
        post = np.exp(log_post)
        return post / post.sum(axis=1, keepdims=True)

    def params_dict(self) -> dict:
        return {
            "log_priors": self.log_priors.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }

    @classmethod
    def from_params(cls, config, classes, n_features, params):
        shape = (len(classes), n_features)
        variances = require_shape("variances", params["variances"], shape)
        if not (variances > 0).all():
            raise ValueError("variances must be finite and positive")
        return cls(config, classes, n_features,
                   require_shape("log_priors", params["log_priors"], shape[:1]),
                   require_shape("means", params["means"], shape), variances)
