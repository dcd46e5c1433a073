"""One array-backed tree engine for dt/rf/et/gbt, and the tree classifiers.

A ``Tree`` stores its nodes in preorder as parallel arrays, in the layout of
scikit-learn's ``Tree`` (Pedregosa et al., JMLR 2011). ``grow`` builds every
tree, classification and regression alike, from a node rule; ``_scan`` is the
one sorted split search, shared by the impurity criteria and the Newton gain
of gradient boosting (Chen & Guestrin, KDD 2016).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import EvaluationError, TrainingError
from .base import ClassifierConfig, TrainedModel


def impurity(class_proportions, kind: str = "entropy") -> float:
    """Entropy (base 2) or Gini impurity of a class-proportion vector."""
    p = np.asarray(class_proportions, dtype=float)
    if np.any(p < 0):
        raise EvaluationError("proportions must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise EvaluationError(f"proportions sum to {p.sum()}, expected 1")
    if kind == "entropy":
        nz = p[p > 0]
        return float(-(nz * np.log2(nz)).sum())
    if kind == "gini":
        return float(1.0 - (p ** 2).sum())
    raise EvaluationError(f"unknown impurity kind '{kind}'")


def _impurity_counts(counts: np.ndarray, kind: str) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    return impurity(counts / total, kind)


def _impurity_rows(counts: np.ndarray, kind: str) -> np.ndarray:
    """Impurity of each row of a (M, K) count matrix, vectorized."""
    totals = counts.sum(axis=1, keepdims=True)
    p = counts / np.maximum(totals, 1)
    if kind == "entropy":
        return -(p * np.log2(p, out=np.zeros_like(p), where=p > 0)).sum(axis=1)
    return 1.0 - (p ** 2).sum(axis=1)


class Tree:
    """Binary tree as parallel arrays over nodes laid out in preorder.

    Node ``i`` splits on ``feature[i]`` at ``threshold[i]``: rows with
    ``x[feature] <= threshold`` go to ``left[i]``, the rest to ``right[i]``.
    Leaves have ``left == right == -1``. ``value`` holds class counts,
    shape (n_nodes, n_classes), or a leaf weight, shape (n_nodes,); it is
    zero at internal nodes.
    """

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value)

    @classmethod
    def build(cls, root, expand: Callable) -> "Tree":
        """Lay out nodes in preorder, left subtree first.

        ``expand(state, depth)`` returns ``(value, None)`` for a leaf or
        ``(value, (feature, threshold, left_state, right_state))`` for a
        split, whose value is ignored.
        """
        feature, threshold, left, right, value = cols = ([], [], [], [], [])

        def visit(state, depth: int) -> int:
            node = len(feature)
            val, split = expand(state, depth)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(val if split is None else None)
            if split is not None:
                feature[node], threshold[node], left_state, right_state = split
                left[node] = visit(left_state, depth + 1)
                right[node] = visit(right_state, depth + 1)
            return node

        visit(root, 0)
        zero = np.zeros_like(next(v for v in value if v is not None))
        value[:] = [zero if v is None else v for v in value]
        return cls(*cols)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf index of every row, moving all rows down one level at a time."""
        internal = self.left >= 0
        node = np.zeros(len(x), dtype=np.int64)
        active = np.flatnonzero(internal[node])
        while active.size:
            at = node[active]
            go_left = x[active, self.feature[at]] <= self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
            active = active[internal[node[active]]]
        return node

    def to_dict(self, node: int = 0) -> dict:
        """Nested ``{feature, threshold, left, right}`` / ``{counts}`` /
        ``{weight}`` document of the subtree at ``node``."""
        if self.left[node] < 0:
            if self.value.ndim == 2:
                return {"counts": self.value[node].tolist()}
            return {"weight": float(self.value[node])}
        return {
            "feature": int(self.feature[node]),
            "threshold": float(self.threshold[node]),
            "left": self.to_dict(self.left[node]),
            "right": self.to_dict(self.right[node]),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Tree":
        def expand(doc, depth):
            if "counts" in doc:
                return np.asarray(doc["counts"], dtype=np.int64), None
            if "weight" in doc:
                return float(doc["weight"]), None
            return None, (doc["feature"], doc["threshold"], doc["left"], doc["right"])

        return cls.build(doc, expand)


def grow(x: np.ndarray, rows: np.ndarray, node_rule: Callable) -> Tree:
    """Grow a tree over ``x[rows]``, depth first, left subtree first.

    ``node_rule(rows, depth)`` returns ``(value, None)`` to make a leaf or
    ``(value, (feature, threshold))`` to split.
    """

    def expand(rows, depth):
        value, split = node_rule(rows, depth)
        if split is None:
            return value, None
        feat, threshold = split
        left = x[rows, feat] <= threshold
        return value, (feat, threshold, rows[left], rows[~left])

    return Tree.build(rows, expand)


def _scan(x: np.ndarray, candidates, gains_along: Callable):
    """Best (feature, threshold, gain) over sorted midpoints, or None.

    For each candidate feature, ``gains_along(order)`` gets the stable sort
    order of the rows and returns the gain of cutting after each of the
    first n - 1 sorted rows. Thresholds are midpoints between consecutive
    distinct values. Ties go to the lower feature index, then the lower
    threshold; a gain must exceed 1e-12.
    """
    best = None  # (gain, feature, threshold)
    for feat in sorted(candidates):
        order = np.argsort(x[:, feat], kind="stable")
        xs = x[order, feat]
        valid = xs[:-1] != xs[1:]
        if not valid.any():
            continue
        gains = np.where(valid, gains_along(order), -np.inf)
        i = int(np.argmax(gains))  # first max wins: lower threshold on ties
        gain = gains[i]
        if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
            best = (float(gain), feat, (xs[i] + xs[i + 1]) / 2.0)
    if best is None:
        return None
    return best[1], best[2], best[0]


def best_split(
    x: np.ndarray,
    y: np.ndarray,
    candidate_features,
    impurity_kind: str = "entropy",
    min_samples_split: int = 2,
    n_classes: int | None = None,
) -> tuple[int, float, float] | None:
    """Exhaustive best (feature, threshold, gain) by impurity decrease.

    Returns None when no split yields positive gain.
    """
    n = len(y)
    if n < min_samples_split:
        return None
    if n_classes is None:
        n_classes = int(y.max()) + 1
    parent_counts = np.bincount(y, minlength=n_classes)
    parent_imp = _impurity_counts(parent_counts, impurity_kind)
    if parent_imp == 0.0:
        return None
    n_left = np.arange(1, n, dtype=float)

    def gains_along(order):
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y[order]] = 1.0
        left_counts = np.cumsum(onehot, axis=0)[:-1]
        right_counts = parent_counts[None, :] - left_counts
        child = (
            n_left * _impurity_rows(left_counts, impurity_kind)
            + (n - n_left) * _impurity_rows(right_counts, impurity_kind)
        ) / n
        return parent_imp - child

    return _scan(x, candidate_features, gains_along)


def _random_cut_split(
    x: np.ndarray,
    y: np.ndarray,
    candidate_features,
    impurity_kind: str,
    rng: np.random.Generator,
    n_classes: int,
) -> tuple[int, float] | None:
    """Extra-trees style split: one uniform random threshold per candidate."""
    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes)
    parent_imp = _impurity_counts(parent_counts, impurity_kind)
    best = None  # (gain, feature, threshold)
    for feat in sorted(candidate_features):
        col = x[:, feat]
        lo, hi = col.min(), col.max()
        if lo == hi:
            continue
        threshold = rng.uniform(lo, hi)
        left = col <= threshold
        n_left = int(left.sum())
        if n_left == 0 or n_left == n:
            continue
        left_counts = np.bincount(y[left], minlength=n_classes)
        child = (
            n_left * _impurity_counts(left_counts, impurity_kind)
            + (n - n_left) * _impurity_counts(parent_counts - left_counts, impurity_kind)
        ) / n
        gain = parent_imp - child
        if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
            best = (gain, feat, float(threshold))
    return None if best is None else best[1:]


def _fallback_split(x: np.ndarray, candidate_features) -> tuple[int, float] | None:
    """Zero-gain tie split: lowest feature with >1 distinct value, lowest
    midpoint threshold. Lets growth continue past locally uninformative
    nodes (e.g. the root of a 4-point XOR, where every split has zero gain
    but the children become separable)."""
    for feat in sorted(candidate_features):
        values = np.unique(x[:, feat])
        if len(values) > 1:
            return feat, float((values[0] + values[1]) / 2.0)
    return None


def _class_rule(x, y, config: ClassifierConfig, n_classes: int,
                rng: np.random.Generator | None, random_cuts: bool) -> Callable:
    """Node rule of dt/rf/et: leaf class counts, split by impurity decrease."""
    n_features = x.shape[1]
    k = config.n_candidate_features(n_features)

    def rule(rows, depth):
        ys = y[rows]
        counts = np.bincount(ys, minlength=n_classes)
        if (
            (config.max_depth is not None and depth >= config.max_depth)
            or len(ys) < config.min_samples_split
            or np.count_nonzero(counts) <= 1
        ):
            return counts, None
        xs = x[rows]
        if rng is not None and k < n_features:
            candidates = rng.choice(n_features, size=k, replace=False)
        else:
            candidates = range(n_features)
        if random_cuts:
            return counts, _random_cut_split(xs, ys, candidates, config.impurity,
                                             rng, n_classes)
        split = best_split(xs, ys, candidates, config.impurity,
                           config.min_samples_split, n_classes)
        return counts, split[:2] if split else _fallback_split(xs, candidates)

    return rule


class DecisionTreeModel(TrainedModel):
    kind = "dt"

    def __init__(self, config, classes, n_features, tree: Tree):
        super().__init__(config, classes, n_features)
        self.tree = tree

    def score(self, x: np.ndarray) -> np.ndarray:
        x = self._check_features(x)
        counts = self.tree.value
        totals = counts.sum(axis=1, keepdims=True)
        proba = np.where(totals > 0, counts / np.maximum(totals, 1),
                         1.0 / len(self.classes))
        return proba[self.tree.apply(x)]

    def params_dict(self) -> dict:
        return {"root": self.tree.to_dict()}

    @classmethod
    def from_params(cls, config, classes, n_features, params):
        return cls(config, classes, n_features, Tree.from_dict(params["root"]))


class ForestModel(TrainedModel):
    """Majority-vote ensemble; scores are vote fractions."""

    def __init__(self, config, classes, n_features, trees: list[Tree], kind: str):
        super().__init__(config, classes, n_features)
        self.trees = trees
        self.kind = kind

    def score(self, x: np.ndarray) -> np.ndarray:
        x = self._check_features(x)
        votes = np.zeros((len(x), len(self.classes)))
        rows = np.arange(len(x))
        for tree in self.trees:
            votes[rows, np.argmax(tree.value, axis=1)[tree.apply(x)]] += 1.0
        return votes / len(self.trees)

    def params_dict(self) -> dict:
        return {"trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_params(cls, config, classes, n_features, params):
        trees = [Tree.from_dict(t) for t in params["trees"]]
        return cls(config, classes, n_features, trees, kind=config.kind)


def _fit_trees(x, y, config: ClassifierConfig, kind: str) -> TrainedModel:
    """Grow the dt tree or the rf/et ensemble."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if len(y) == 0:
        raise TrainingError("cannot train on an empty dataset")
    classes, yi = np.unique(y, return_inverse=True)
    everything = np.arange(len(y))
    if kind == "dt":
        rule = _class_rule(x, yi, config, len(classes), None, random_cuts=False)
        return DecisionTreeModel(config, classes, x.shape[1], grow(x, everything, rule))
    trees = []
    for t in range(config.n_trees):
        rng = np.random.default_rng((config.seed, t))
        rows = rng.integers(0, len(y), size=len(y)) if kind == "rf" else everything
        rule = _class_rule(x, yi, config, len(classes), rng, random_cuts=kind == "et")
        trees.append(grow(x, rows, rule))
    return ForestModel(config, classes, x.shape[1], trees, kind=kind)


def fit_dt(x: np.ndarray, y: np.ndarray, config: ClassifierConfig) -> DecisionTreeModel:
    """Greedy recursive tree construction on the full feature set."""
    return _fit_trees(x, y, config, "dt")


def fit_rf(x: np.ndarray, y: np.ndarray, config: ClassifierConfig) -> ForestModel:
    """Bootstrap-aggregated trees with random feature candidates per node."""
    return _fit_trees(x, y, config, "rf")


def fit_et(x: np.ndarray, y: np.ndarray, config: ClassifierConfig) -> ForestModel:
    """Extra-trees: full sample per tree, uniform random cut per candidate."""
    return _fit_trees(x, y, config, "et")


def mean_impurity_decrease(model: ForestModel | DecisionTreeModel,
                           n_features: int) -> np.ndarray:
    """Per-feature importance: summed (weighted) impurity decrease over nodes.

    Used as the tree-ensemble side of fuzzy/ET score fusion.
    """
    totals = np.zeros(n_features)
    kind = model.config.impurity

    def walk(tree: Tree, node: int) -> np.ndarray:
        # post-order: both subtrees before the node, left first
        if tree.left[node] < 0:
            return tree.value[node]
        lc = walk(tree, tree.left[node])
        rc = walk(tree, tree.right[node])
        counts = lc + rc
        n = counts.sum()
        gain = _impurity_counts(counts, kind) - (
            lc.sum() * _impurity_counts(lc, kind)
            + rc.sum() * _impurity_counts(rc, kind)
        ) / n
        totals[tree.feature[node]] += n * gain
        return counts

    trees = model.trees if isinstance(model, ForestModel) else [model.tree]
    for tree in trees:
        walk(tree, 0)
    totals /= len(trees)
    peak = totals.max()
    return totals / peak if peak > 0 else totals
