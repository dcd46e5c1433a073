"""One array-backed tree engine for dt/rf/et/gbt, and the tree classifiers.

A ``Tree`` stores its nodes in preorder as parallel arrays, in the layout of
scikit-learn's ``Tree`` (Pedregosa et al., JMLR 2011). ``grow`` builds every
tree from a node rule. dt, rf and gbt sort each feature once per fit and
partition the sort down the tree, as XGBoost's sorted column block (Chen &
Guestrin, KDD 2016) and SLIQ (Mehta et al., EDBT 1996) do. ``_scan``, the one
exact split search of the impurity criteria and the Newton gain, scores all
candidate features of a node at once, ``BLOCK_CELLS`` (feature x row) cells
at a time, and only their cuts between distinct values. Every impurity split
rule scores its cuts with ``_child_impurity``, and every split rule picks its
winner with ``_first_best``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .base import ClassifierConfig, TrainedModel

BLOCK_CELLS = 8192  # (feature x row) cells per scan block, bounding its (B, n, K) cumsum


def _impurity_rows(counts: np.ndarray, kind: str) -> np.ndarray:
    """Impurity of each count vector along the last axis of ``counts``."""
    totals = counts.sum(axis=-1, keepdims=True)
    p = counts / np.maximum(totals, 1)
    if kind == "entropy":
        return -(p * np.log2(p, out=np.zeros_like(p), where=p > 0)).sum(axis=-1)
    return 1.0 - (p ** 2).sum(axis=-1)


def _child_impurity(left_counts, n_left, parent_counts, kind: str) -> np.ndarray:
    """Size-weighted impurity of the two children of each cut.

    ``left_counts`` is (..., M, K), the class counts left of each cut;
    ``n_left`` (M,) their row counts; ``parent_counts`` the counts of the cut
    node, (K,) shared by every cut or (M, K) one per cut.
    """
    n = parent_counts.sum(axis=-1)
    return (
        n_left * _impurity_rows(left_counts, kind)
        + (n - n_left) * _impurity_rows(parent_counts - left_counts, kind)
    ) / n


def _first_best(gains) -> int | None:
    """Index of the winning cut among gains in candidate order, or None.

    A gain must exceed 1e-12 and beat the best before it by more than 1e-12,
    so near-ties go to the earlier candidate.
    """
    best = None
    for i, gain in enumerate(gains):
        if gain > 1e-12 and (best is None or gain > gains[best] + 1e-12):
            best = i
    return best


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
        pending = [(root, 0, -1)]  # (state, depth, node whose right child it is, or -1)
        while pending:
            state, depth, parent = pending.pop()
            node = len(feature)
            if parent >= 0:
                right[parent] = node
            val, split = expand(state, depth)
            feat, thr, left_state, right_state = split or (-1, 0.0, None, None)
            feature.append(feat)
            threshold.append(thr)
            left.append(-1 if split is None else node + 1)  # preorder: left child next
            right.append(-1)
            value.append(val if split is None else None)
            if split is not None:
                pending += [(right_state, depth + 1, node), (left_state, depth + 1, -1)]
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
    def from_dict(cls, doc: dict, n_features: int, n_classes: int) -> "Tree":
        """Inverse of ``to_dict``; ``ValueError`` if a split names a feature
        outside [0, n_features) or the count leaves lack one count per class."""
        def expand(doc, depth):
            if "counts" in doc:
                return np.asarray(doc["counts"], dtype=np.int64), None
            if "weight" in doc:
                return float(doc["weight"]), None
            return None, (doc["feature"], doc["threshold"], doc["left"], doc["right"])

        tree = cls.build(doc, expand)
        split_on = tree.feature[tree.left >= 0]
        if np.any((split_on < 0) | (split_on >= n_features)):
            raise ValueError(f"a split names a feature outside [0, {n_features})")
        if tree.value.ndim == 2 and tree.value.shape[1] != n_classes:
            raise ValueError(f"leaf counts have {tree.value.shape[1]} entries "
                             f"for {n_classes} classes")
        return tree


def grow(x: np.ndarray, rows: np.ndarray, node_rule: Callable,
         order: np.ndarray | None = None) -> Tree:
    """Grow a tree over ``x[rows]``, depth first, left subtree first.

    ``order``, if given, is (F, n): row f holds ``rows`` sorted by feature f.
    A child's order is a stable partition of its parent's, so ties keep the
    root's order: that of ``rows`` for dt and gbt, of row ids for rf, whose
    class counts cannot see it. ``node_rule(rows, order, depth)`` returns
    ``(value, None)`` to make a leaf or ``(value, (feature, threshold, ...))``
    to split.
    """

    def expand(state, depth):
        rows, order = state
        value, split = node_rule(rows, order, depth)
        if split is None:
            return value, None
        feat, threshold = split[:2]
        left = x[rows, feat] <= threshold
        if order is None:
            return value, (feat, threshold, (rows[left], None), (rows[~left], None))
        goes_left = x[order, feat] <= threshold
        lo, hi = (order[side].reshape(len(order), -1) for side in (goes_left, ~goes_left))
        return value, (feat, threshold, (rows[left], lo), (rows[~left], hi))

    return Tree.build((rows, order), expand)


def _presort(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(F, n) ``rows`` sorted stably by each feature, ties in ``rows`` order."""
    return rows[np.argsort(x[rows].T, axis=1, kind="stable")]


def _scan(x: np.ndarray, order: np.ndarray, candidates, gains_along: Callable):
    """Best (feature, threshold, gain) over sorted midpoints, or None.

    ``gains_along(sorted_rows, b, q)`` gets a (B, n) block of the node's
    ``order`` (see ``grow``) and returns the gains of cutting after sorted row
    ``q`` of block row ``b``, the cuts between distinct values. Thresholds
    are midpoints, kept below the higher value so that every cut splits.
    Ties go to the lower threshold, then ``_first_best`` picks among the
    features' best cuts in ascending feature order.
    """
    if order.shape[1] < 2:
        return None
    feats, step = np.sort(candidates), max(1, BLOCK_CELLS // order.shape[1])
    gains, cuts = [], []
    for block in (feats[at:at + step] for at in range(0, len(feats), step)):
        xs = x[order[block], block[:, None]]
        b, q = np.nonzero(xs[:, :-1] != xs[:, 1:])
        along = np.full(xs[:, 1:].shape, -np.inf)
        along[b, q] = gains_along(order[block], b, q)
        i = np.argmax(along, axis=1)  # first max wins: lower threshold on ties
        at = np.arange(len(block))
        gains.extend(along[at, i])
        lo, hi = xs[at, i], xs[at, i + 1]
        mid = (lo + hi) / 2.0  # of two adjacent floats, can round up to hi
        cuts.extend(zip(block.tolist(), np.where(mid < hi, mid, lo).tolist()))
    best = _first_best(gains)
    return None if best is None else (*cuts[best], float(gains[best]))


def best_split(x: np.ndarray, y: np.ndarray, candidate_features, impurity_kind: str,
               counts: np.ndarray, order: np.ndarray) -> tuple[int, float, float] | None:
    """Exhaustive best (feature, threshold, gain) by impurity decrease, or
    None when no cut gains. ``counts`` are the class counts of the node's
    rows, ``order`` those rows presorted per feature (see ``grow``); a node
    of one row, or a pure one, has no cut that gains.
    """
    parent_imp = _impurity_rows(counts[None], impurity_kind)[0]

    def gains_along(sorted_rows, b, q):
        onehot = y[sorted_rows][..., None] == np.arange(len(counts))
        left_counts = np.cumsum(onehot, axis=1)[b, q]
        return parent_imp - _child_impurity(left_counts, q + 1.0, counts, impurity_kind)

    return _scan(x, order, candidate_features, gains_along)


def _random_cut_split(
    x: np.ndarray,
    y: np.ndarray,
    candidate_features,
    impurity_kind: str,
    rng: np.random.Generator,
    counts: np.ndarray,
) -> tuple[int, float] | None:
    """Extra-trees split (Geurts, Ernst & Wehenkel, 2006): one uniform random
    threshold per non-constant candidate, drawn in ascending feature order,
    and every candidate scored at once. ``counts`` are the class counts of
    ``y``."""
    n_classes = len(counts)
    feats = np.sort(np.asarray(candidate_features, dtype=np.int64))
    cols = x[:, feats]
    lo, hi = cols.min(axis=0), cols.max(axis=0)
    varied = lo < hi
    feats, cols = feats[varied], cols[:, varied]
    thresholds = rng.uniform(lo[varied], hi[varied])
    left = cols <= thresholds
    # one bincount over (candidate, class) cells gives every left class count
    cells = y[:, None] + n_classes * np.arange(len(feats))
    left_counts = np.bincount(cells[left], minlength=len(feats) * n_classes)
    left_counts = left_counts.reshape(-1, n_classes)
    gains = _impurity_rows(counts[None], impurity_kind)[0] - _child_impurity(
        left_counts, left.sum(axis=0), counts, impurity_kind)
    best = _first_best(gains)
    return None if best is None else (feats[best], float(thresholds[best]))


def _class_rule(x, y, config: ClassifierConfig, n_classes: int,
                rng: np.random.Generator | None) -> Callable:
    """Node rule of dt/rf/et: leaf class counts, split by impurity decrease;
    et cuts at random thresholds."""
    n_features = x.shape[1]
    k = max(1, int(np.sqrt(n_features)))  # rf/et candidate features per node

    def rule(rows, order, depth):
        ys = y[rows]
        counts = np.bincount(ys, minlength=n_classes)
        # a node of one row is pure, so it is a leaf here
        if ((config.max_depth is not None and depth >= config.max_depth)
                or np.count_nonzero(counts) <= 1):
            return counts, None
        if rng is not None and k < n_features:
            candidates = rng.choice(n_features, size=k, replace=False)
        else:
            candidates = range(n_features)
        if config.kind == "et":
            return counts, _random_cut_split(x[rows], ys, candidates, config.impurity,
                                             rng, counts)
        split = best_split(x, y, candidates, config.impurity, counts, order)
        # no cut gains (a 4-point XOR's root): a flat gain takes the scan's first cut
        return counts, split or _scan(x, order, candidates, lambda r, b, q: np.ones(len(b)))

    return rule


class DecisionTreeModel(TrainedModel):
    kind = "dt"

    def __init__(self, config, classes, n_features, tree: Tree):
        super().__init__(config, classes, n_features)
        self.tree = tree

    @classmethod
    def fit(cls, x, yi, classes, config):
        """One greedy tree on every row and feature."""
        everything = np.arange(len(yi))
        tree = grow(x, everything, _class_rule(x, yi, config, len(classes), None),
                    _presort(x, everything))
        return cls(config, classes, x.shape[1], tree)

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
        return cls(config, classes, n_features,
                   Tree.from_dict(params["root"], n_features, len(classes)))


class ForestModel(TrainedModel):
    """Majority-vote ensemble; scores are vote fractions."""

    def __init__(self, config, classes, n_features, trees: list[Tree]):
        super().__init__(config, classes, n_features)
        self.trees = trees
        self.kind = config.kind  # rf or et

    @classmethod
    def fit(cls, x, yi, classes, config):
        """rf: bootstrap rows and random candidate features per node; et: every
        row, random candidates and random cuts."""
        trees, n, rf = [], len(yi), config.kind == "rf"
        ranked = _presort(x, np.arange(n)) if rf else None  # et reads no sort
        for t in range(config.n_trees):
            rng = np.random.default_rng((config.seed, t))
            rows, order = np.arange(n), None
            if rf:  # the bootstrap sample's sort: each row repeated by its draws
                rows = rng.integers(0, n, size=n)
                times = np.bincount(rows, minlength=n)
                order = np.repeat(ranked, times[ranked].ravel()).reshape(ranked.shape)
            trees.append(grow(x, rows, _class_rule(x, yi, config, len(classes), rng),
                              order))
        return cls(config, classes, x.shape[1], trees)

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
        trees = [Tree.from_dict(t, n_features, len(classes)) for t in params["trees"]]
        return cls(config, classes, n_features, trees)


def mean_impurity_decrease(model: ForestModel | DecisionTreeModel) -> np.ndarray:
    """Per-feature importance: the (weighted) impurity decrease summed over
    each tree's nodes, averaged over the trees.

    Used as the tree-ensemble side of fuzzy/ET score fusion.
    """
    totals = np.zeros(model.n_features)
    trees = model.trees if isinstance(model, ForestModel) else [model.tree]
    for tree in trees:
        counts, end = tree.value.copy(), np.arange(len(tree.left))
        internal = np.flatnonzero(tree.left >= 0)
        for node in internal[::-1]:  # reverse preorder: children before parents
            counts[node] = counts[tree.left[node]] + counts[tree.right[node]]
            end[node] = end[tree.right[node]]  # last node of the subtree
        # post-order (both subtrees first, left first): by subtree end, deeper first
        nodes = internal[np.lexsort((-internal, end[internal]))]
        parent, left = counts[nodes], counts[tree.left[nodes]]
        gain = _impurity_rows(parent, model.config.impurity) - _child_impurity(
            left, left.sum(axis=1), parent, model.config.impurity)
        # summed in post-order, one node at a time, as the importances were defined
        np.add.at(totals, tree.feature[nodes], parent.sum(axis=1) * gain)
    return totals / len(trees)
