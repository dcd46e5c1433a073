"""Stagewise gradient-boosted regression trees with logistic loss. The stages
of a round's one-vs-rest chains grow together through the tree engine's one
driver, and ``_newton_step`` answers their nodes from the value codes ranked
once per fit."""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import TrainingError, require_real
from .base import ClassifierConfig, TrainedModel, one_vs_rest
from . import tree as engine
from .tree import Tree, _first_best, _grow

LEARNING_RATE = 0.1  # shrinkage of every stage's leaf weights
REG_LAMBDA = 1.0     # L2 penalty on leaf weights


def _newton_step(x: np.ndarray, codes: np.ndarray, grads: np.ndarray, hesses: np.ndarray,
                 config: ClassifierConfig, buffer, start, sizes, chains, depth: int) -> tuple:
    """Answer a step of boosting nodes at ``depth``, node ``i`` the rows
    ``buffer[start[i]:start[i] + sizes[i]]`` of chain ``chains[i]``, whose
    gradients and Hessians are ``grads[chains[i]]`` and ``hesses[chains[i]]``,
    as ``_grow`` asks: leaf weight -G / (H + lambda) and, above
    ``gbt_max_depth``, the best cut by the Newton gain. A stable argsort of
    the node's value ``codes`` orders its rows per feature, ``BLOCK_CELLS``
    (feature x row) cells at a time; a node's rows ascend, so ties stay in row
    order. A feature's first maximum wins, the lower threshold on ties, then
    ``_first_best`` picks among features; thresholds are midpoints of ``x``,
    kept below the higher value so that every cut splits.
    """
    lam = REG_LAMBDA
    weight, feature, threshold = np.zeros(len(start)), np.full(len(start), -1), np.zeros(len(start))
    leaves = depth >= config.gbt_max_depth
    for node, (first, size, chain) in enumerate(zip(start.tolist(), sizes.tolist(),
                                                     chains.tolist())):
        rows, grad, hess = buffer[first:first + size], grads[chain], hesses[chain]
        # summed in row order, not sorted order, so leaf weights keep their bits
        g, h = grad[rows].sum(), hess[rows].sum()
        weight[node] = -g / (h + lam)
        if leaves or len(rows) < 2:
            continue
        gains, cuts = [], []
        step = max(1, engine.BLOCK_CELLS // len(rows))
        for at in range(0, x.shape[1], step):
            node_codes = np.take(codes[at:at + step], rows, axis=1)
            feats = np.arange(len(node_codes))
            order = np.argsort(node_codes, axis=1, kind="stable")
            sorted_rows = rows[order]
            ranked = np.take(node_codes, order + len(rows) * feats[:, None])
            b, q = np.nonzero(ranked[:, :-1] != ranked[:, 1:])  # cuts between distinct values
            gl = np.cumsum(grad[sorted_rows], axis=1)[b, q]
            hl = np.cumsum(hess[sorted_rows], axis=1)[b, q]
            gr, hr = g - gl, h - hl
            along = np.full((len(feats), len(rows) - 1), -np.inf)
            along[b, q] = 0.5 * (
                gl ** 2 / (hl + lam) + gr ** 2 / (hr + lam) - g ** 2 / (h + lam)
            )
            i = np.argmax(along, axis=1)  # first max wins: lower threshold on ties
            gains.extend(along[feats, i])
            lo, hi = (x[sorted_rows[feats, j], at + feats] for j in (i, i + 1))
            mid = (lo + hi) / 2.0  # of two adjacent floats, can round up to hi
            cuts.extend(np.where(mid < hi, mid, lo).tolist())
        best = int(_first_best(gains))
        if best >= 0:
            feature[node], threshold[node] = best, cuts[best]
    return weight, feature, threshold


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _log_loss(y: np.ndarray, raw: np.ndarray) -> float:
    # numerically stable: log(1 + exp(-y_pm * raw)) with y_pm in {-1, +1}
    margin = np.where(y == 1, raw, -raw)
    return float(np.logaddexp(0.0, -margin).sum())


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
        codes = engine._value_codes(x)  # serves every round of every chain
        # one row per chain: its 0/1 targets, raw scores, probabilities, gradients, Hessians
        targets = (yi == np.array(one_vs_rest(len(classes)))[:, None]).astype(float)
        positive = np.clip(targets.mean(axis=1), 1e-12, 1 - 1e-12)
        bases = [float(np.log(pos / (1.0 - pos))) for pos in positive]
        raws = np.repeat(np.array(bases)[:, None], len(yi), axis=1)
        traces = [[_log_loss(y01, raw)] for y01, raw in zip(targets, raws)]
        stages: list[list[Tree]] = [[] for _ in targets]
        complexity = [0.0] * len(targets)
        for t in range(config.n_rounds):
            probs = _sigmoid(raws)
            grads, hesses = probs - targets, probs * (1.0 - probs)
            if not np.isfinite((grads, hesses)).all():
                raise TrainingError(f"non-finite gradient at boosting round {t}")
            # the stages of every chain grow together
            roots = np.tile(np.arange(len(yi)), (len(targets), 1))
            trees = _grow(x, roots, partial(_newton_step, x, codes, grads, hesses, config),
                          x.shape[1])
            for c, tree in enumerate(trees):
                stages[c].append(tree)
                raws[c] += LEARNING_RATE * tree.value[tree.apply(x)]
                leaves = tree.value[tree.left < 0]  # left to right
                complexity[c] += 0.5 * REG_LAMBDA * sum((LEARNING_RATE * w) ** 2
                                                        for w in leaves)
                traces[c].append(_log_loss(targets[c], raws[c]) + complexity[c])
        return cls(config, classes, x.shape[1], bases, stages, traces)

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
        return {"chains": [{"base_score": base, "stages": [s.to_dict("weight") for s in stages],
                            "objective_trace": trace} for base, stages, trace in chains]}

    @classmethod
    def from_params(cls, config, classes, n_features, params):
        chains, n_chains = params["chains"], len(one_vs_rest(len(classes)))
        if len(chains) != n_chains:
            raise ValueError(f"{len(chains)} chains, the model needs {n_chains}")
        for chain in chains:
            require_real("base_score", chain["base_score"], error=ValueError)
        return cls(config, classes, n_features, [c["base_score"] for c in chains],
                   [[Tree.from_dict(s, n_features, len(classes), "weight")
                     for s in c["stages"]] for c in chains],
                   [c["objective_trace"] for c in chains])
