"""One array-backed tree engine for dt/rf/et/gbt, and the tree classifiers.

A ``Tree`` stores its nodes in preorder as parallel arrays, in the layout of
scikit-learn's ``Tree`` (Pedregosa et al., JMLR 2011), and derives its
children from ``feature``, grown or loaded. Every tree grows through one
driver, ``_grow``, together with the other trees of its fit, one level at a
time as XGBoost grows depth-wise (Chen & Guestrin, KDD 2016). A level's
nodes are sorted by tree, largest first, each step answers up to
``BLOCK_CELLS`` (candidate x row) cells of them at once, and one sort
partitions the rows of every split node of the step in place. A tree
answers its nodes in this order however the steps fall, so an rf or et tree,
which draws from its own generator, is the one it grows alone.

``_value_codes`` ranks every feature's values once per fit. ``_class_step``
answers dt, rf and et nodes: dt and rf score only the cuts between distinct
values, et its random cuts (Geurts, Ernst & Wehenkel, 2006), each counting
the classes left of its cuts with ``_left_counts``, scoring them with
``_child_impurity`` and picking its winner with ``_first_best``. gbt's
Newton step (``boosting.py``) sorts each node's rows by their value codes.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain, groupby
from typing import Callable

import numpy as np

from ..errors import require_ints, require_reals
from .base import ClassifierConfig, TrainedModel

BLOCK_CELLS = 16384  # cells per grower step or scan block, bounding their temporaries


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


def _left_counts(labels: np.ndarray, new_run: np.ndarray, ends: np.ndarray,
                 starts: np.ndarray, n_classes: int) -> np.ndarray:
    """Class counts left of each cut, from one bincount over runs.

    Cells are grouped by segment and sorted by value within it; ``labels``
    are their classes and ``new_run`` marks the first cell of each run of
    equal values (every segment starts one). Cut ``i`` follows cell
    ``ends[i]``, the last of a run, in the segment that starts at cell
    ``starts[i]``. Returns (cuts, n_classes): the counts of the cells from
    ``starts[i]`` through ``ends[i]``.
    """
    run = np.cumsum(new_run)  # of each cell, from 1
    totals = np.bincount(run * n_classes + labels, minlength=(run[-1] + 1) * n_classes)
    totals = np.cumsum(totals.reshape(-1, n_classes), axis=0)  # row r: runs 1 to r
    return totals[run[ends]] - totals[run[starts] - 1]


def _first_best(gains) -> np.ndarray:
    """Index of the winning cut along the last axis of ``gains``, in
    candidate order, or -1 where none wins.

    A gain must exceed 1e-12 and beat the best before it by more than 1e-12,
    so near-ties go to the earlier candidate.
    """
    gains = np.asarray(gains, dtype=float)
    winners = []
    for row in gains.reshape(math.prod(gains.shape[:-1]), gains.shape[-1]).tolist():
        best = -1
        for i, gain in enumerate(row):
            if gain > 1e-12 and (best < 0 or gain > row[best] + 1e-12):
                best = i
        winners.append(best)
    return np.array(winners, dtype=np.int64).reshape(gains.shape[:-1])


class Tree:
    """Binary tree as parallel arrays over nodes laid out in preorder, left
    subtree first.

    Node ``i`` splits on ``feature[i]`` at ``threshold[i]``: rows with
    ``x[feature] <= threshold`` go to ``left[i]``, the rest to ``right[i]``.
    Leaves have ``feature == left == right == -1``. ``value`` holds class
    counts, shape (n_nodes, n_classes), or a leaf's vote or weight, shape
    (n_nodes,); it is zero at internal nodes.

    ``left`` and ``right`` follow from ``feature``: before node ``i`` the tree
    awaits ``pending[i]`` subtrees, one at the root, one more after each split
    and one fewer after each leaf. A split's left child is the next node, its
    right child the next node whose ``pending`` is the split's.
    """

    def __init__(self, feature, threshold, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.value = np.asarray(value)
        split = self.feature >= 0
        pending = 1 + 2 * (np.cumsum(split) - split) - np.arange(len(split))  # before each node
        order = np.argsort(pending, kind="stable")
        same = pending[order[1:]] == pending[order[:-1]]
        right = np.full(len(split), -1)
        right[order[:-1][same]] = order[1:][same]
        self.left = np.where(split, np.arange(1, len(split) + 1), -1)
        self.right = np.where(split, right, -1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf index of every row, moving all rows down one level at a time.

        A step sends a row at node ``a`` to ``child[a + n_nodes * go_left]``,
        ``go_left = cell <= threshold[a]``: ties go left and NaN right. Each
        leaf is its own child, on feature 0 at threshold +inf (predication,
        Asadi et al., IEEE TKDE 2014), and rows at leaves leave the walk once
        they are half of those walking. Cells come from ``x.ravel()``, a copy
        unless ``x`` is C-ordered.
        """
        n_nodes, (n_rows, width) = len(self.left), x.shape
        node = np.zeros(n_rows, dtype=np.int64)
        leaf = self.left < 0
        if leaf[0]:
            return node
        child = np.where(np.tile(leaf, 2), np.tile(np.arange(n_nodes), 2),
                         np.concatenate([self.right, self.left]))
        feature = np.where(leaf, 0, self.feature)
        threshold = np.where(leaf, np.inf, self.threshold)
        cells = x.ravel()
        rows, at = np.arange(n_rows), node
        while rows.size:
            at = child[at + n_nodes * (cells[rows * width + feature[at]] <= threshold[at])]
            done = leaf[at]
            if 2 * np.count_nonzero(done) >= rows.size:
                node[rows[done]] = at[done]
                rows, at = rows[~done], at[~done]
        return node

    def to_dict(self, leaf: str, value: np.ndarray | None = None) -> dict:
        """The tree as preorder lists: ``feature`` of every node, -1 at a
        leaf, ``threshold`` of every split, and under ``leaf`` each leaf's
        row of ``value``, by default the tree's own."""
        split = self.left >= 0
        value = self.value if value is None else value
        return {"feature": self.feature.tolist(), "threshold": self.threshold[split].tolist(),
                leaf: value[~split].tolist()}

    @classmethod
    def from_dict(cls, doc: dict, n_features: int, n_classes: int, leaf: str) -> "Tree":
        """Inverse of ``to_dict`` for leaves that hold ``leaf``: ``"counts"``,
        one non-negative integer per class, ``"vote"``, a class, or
        ``"weight"``, a finite number. ``ValueError`` unless ``feature`` lays
        out one complete binary tree, every split names an integer feature in
        [0, n_features) and a finite threshold, and the lists agree in length.
        """
        if doc.keys() != {"feature", "threshold", leaf}:
            raise ValueError(f"a tree holds {sorted(doc)}, the trees of this model hold "
                             f"{sorted({'feature', 'threshold', leaf})}")
        feature = require_ints("feature", doc["feature"], -1, error=ValueError)
        split = feature >= 0
        if (feature >= n_features).any():
            raise ValueError(f"a split names a feature outside [0, {n_features})")
        pending = np.cumsum(np.where(split, 1, -1)) + 1  # after each node
        if not (pending.size and pending[-1] == 0 and (pending[:-1] > 0).all()):
            raise ValueError("feature does not lay out one complete binary tree in preorder")
        cuts = require_reals("threshold", doc["threshold"], error=ValueError)
        leaves = doc[leaf]
        if leaf == "counts":
            widths = set(map(len, leaves)) - {n_classes}
            if widths:
                raise ValueError(f"leaf counts have {min(widths)} entries for "
                                 f"{n_classes} classes")
            leaves = list(chain.from_iterable(leaves))
        values = (require_reals(leaf, leaves, error=ValueError) if leaf == "weight"
                  else require_ints(leaf, leaves, 0, error=ValueError))
        if leaf == "vote" and (values >= n_classes).any():
            raise ValueError(f"a leaf votes for a class outside [0, {n_classes})")
        values = values.reshape(-1, n_classes) if leaf == "counts" else values
        if len(cuts) != split.sum() or len(values) != len(split) - split.sum():
            raise ValueError(f"a tree of {len(split)} nodes, {split.sum()} of them splits, "
                             f"holds {len(cuts)} thresholds and {len(values)} leaves")
        threshold = np.zeros(len(split))
        threshold[split] = cuts
        value = np.zeros((len(split),) + values.shape[1:], dtype=values.dtype)
        value[~split] = values
        return cls(feature, threshold, value)


def _grow(x: np.ndarray, roots: np.ndarray, step: Callable, width: int) -> list[Tree]:
    """Grow one tree on ``x`` from each row of ``roots``, all together, one
    level at a time.

    ``roots``, (trees, n) row indices, is the fit's row buffer, partitioned
    in place. A node is an interval ``(start, size)`` of it, in tree
    ``start // n``. A level's nodes are sorted by tree, largest first within
    a tree, ties in creation order, and cut into steps of (``width`` x row)
    cells: a step's first node always goes, and each next one while the step
    stays within ``BLOCK_CELLS``. ``step`` gets the buffer, the step's
    ``start``, ``size`` and ``tree`` arrays and their depth, and answers
    three arrays: ``value``, ``feature`` (-1 at a leaf), ``threshold``. Then
    one stable sort partitions every split node of the step in place, left
    child first, so an ascending root's nodes hold ascending rows. A split
    sends rows both ways, so a child's interval lies strictly inside its
    parent's, and ordering a fit's nodes by start, the larger first, lays out
    its trees in preorder, as views of one preorder copy.
    """
    (n_trees, n), n_cols = roots.shape, x.shape[1]
    rows, cells = roots.reshape(-1), x.ravel()  # copies unless C-ordered
    start, size = np.arange(n_trees) * n, np.full(n_trees, n)  # a level's nodes
    grown, depth = [], 0  # per step: its nodes' start, size, value, feature, threshold
    while start.size:
        order = np.lexsort((-size, start // n))  # stable: ties stay in creation order
        start, size = start[order], size[order]
        taken = np.concatenate([[0], np.cumsum(width * size)])  # cells before each node
        children = []  # per step: its children's start, size
        a = 0
        while a < len(size):
            b = max(a + 1, int(np.searchsorted(taken, taken[a] + BLOCK_CELLS, "right")) - 1)
            at, sizes = start[a:b], size[a:b]
            answer = step(rows, at, sizes, at // n, depth)
            grown.append((at, sizes, *answer))
            a, split = b, answer[1] >= 0
            at, sizes, feature, threshold = (c[split] for c in (at, sizes, *answer[1:]))
            seg, offset, slots = _cells(at, sizes, np.arange(len(at)))
            part = rows[slots]
            left = cells[part * n_cols + feature[seg]] <= threshold[seg]
            rows[slots] = part[np.argsort(2 * seg - left, kind="stable")]  # by node, left first
            n_left = np.add.reduceat(left, offset, dtype=np.int64)
            child = np.repeat(np.stack([at, n_left]), 2, axis=1)  # left child, then right
            child[0, 1::2] += n_left
            child[1, 1::2] = sizes - n_left
            children.append(child)
        start, size = np.concatenate(children, axis=1)
        depth += 1
    grown = list(zip(*grown))  # per column; its parts go once joined, its join once in preorder
    start, size = (np.concatenate(grown.pop(0)) for _ in range(2))
    order = np.lexsort((-size, start))
    bounds = np.searchsorted(start[order], np.arange(1, n_trees) * n)
    del start, size
    value, feature, threshold = (np.concatenate(grown.pop(0))[order] for _ in range(3))
    value[feature >= 0] = 0
    return [Tree(*t) for t in zip(*(np.split(col, bounds) for col in (feature, threshold, value)))]


def _value_codes(x: np.ndarray) -> np.ndarray:
    """(F, n) dense rank of every cell of ``x`` among its feature's distinct
    values, ``np.unique``'s inverse of each column. The codes come in the
    narrowest unsigned dtype that holds them, which numpy's stable argsort
    radix-sorts up to 16 bits; each column narrows as it is ranked, and
    stacking them takes the widest."""
    codes = [inverse.astype(np.min_scalar_type(inverse.max(initial=0)))
             for _, inverse in (np.unique(column, return_inverse=True) for column in x.T)]
    return np.array(codes or np.zeros((0, len(x)), dtype=np.uint8))


def _cells(start: np.ndarray, sizes: np.ndarray, seg_node: np.ndarray):
    """The cells of segments: segment ``s`` holds node ``seg_node[s]``, the
    ``sizes[...]`` slots of the row buffer from ``start[...]``. Returns the
    segment of each cell, the first cell of each segment and each cell's slot."""
    seg_len = sizes[seg_node]
    seg_start = np.cumsum(seg_len) - seg_len
    seg = np.repeat(np.arange(len(seg_len)), seg_len)
    slots = np.repeat(start[seg_node] - seg_start, seg_len) + np.arange(len(seg))
    return seg, seg_start, slots


def _sorted_cuts(x, y, codes, rows, start, sizes, counts, kind: str,
                 seg_node: np.ndarray, seg_feat: np.ndarray):
    """Best impurity cut of each segment, the rows of node ``seg_node[s]`` on
    feature ``seg_feat[s]``, among the cuts between its distinct values.

    Returns per segment its best gain, the threshold of its best cut and the
    threshold of its first cut; the gain is -inf and the thresholds NaN
    where the segment's values are all equal. The best cut is the first
    maximum, so ties go to the lower threshold. Thresholds are midpoints,
    kept below the higher value so that every cut splits.
    """
    n_classes = counts.shape[1]
    seg, seg_start, slots = _cells(start, sizes, seg_node)
    cell_rows = rows[slots]
    key = seg * x.shape[0] + codes[seg_feat[seg], cell_rows]
    order = np.argsort(key)
    key, cell_rows = key[order], cell_rows[order]  # seg keeps its place
    new_run = np.ones(len(seg), dtype=bool)
    new_run[1:] = key[1:] != key[:-1]
    ends = np.flatnonzero(new_run[1:] & (seg[1:] == seg[:-1]))  # last cell before each cut
    cut_seg = seg[ends]
    starts = seg_start[cut_seg]
    cut_node = seg_node[cut_seg]
    left = _left_counts(y[cell_rows], new_run, ends, starts, n_classes)
    gains = _impurity_rows(counts, kind)[cut_node] - _child_impurity(
        left, ends - starts + 1, counts[cut_node], kind)
    has_cut = np.bincount(cut_seg, minlength=len(seg_start)) > 0
    first_cut = np.searchsorted(cut_seg, np.arange(len(seg_start)))[has_cut]
    seg_gain = np.full(len(seg_start), -np.inf)
    if gains.size:
        seg_gain[has_cut] = np.maximum.reduceat(gains, first_cut)
    top = np.flatnonzero(gains == seg_gain[cut_seg])
    first_top = np.ones(len(top), dtype=bool)
    first_top[1:] = cut_seg[top[1:]] != cut_seg[top[:-1]]

    def thresholds(cut):  # of the segments with a cut
        feats = seg_feat[has_cut]
        lo, hi = x[cell_rows[ends[cut]], feats], x[cell_rows[ends[cut] + 1], feats]
        mid = (lo + hi) / 2.0  # of two adjacent floats, can round up to hi
        out = np.full(len(seg_start), np.nan)
        out[has_cut] = np.where(mid < hi, mid, lo)
        return out

    return seg_gain, thresholds(top[first_top]), thresholds(first_cut)


def _class_step(x, y, codes, config: ClassifierConfig, n_classes: int, k: int,
                draws: list, rows, start, sizes, tree, depth: int) -> tuple:
    """Answer a step of dt, rf or et nodes at ``depth``, the ``sizes[i]``
    slots of the row buffer ``rows`` from ``start[i]`` in tree ``tree[i]``,
    as ``_grow`` asks: one bincount counts every node's classes, and one
    split search scores every (node, candidate) cell.

    dt's candidates are every feature. In rf and et each splitting node of
    tree ``t`` takes a row ``u`` of ``F + k`` uniforms, one draw of
    ``draws[t]`` per step: its candidates are the ``k`` lowest of ``u[:F]``,
    ascending, and et cuts candidate ``j`` at ``lo + (hi - lo) * u[F + j]``,
    ``lo`` and ``hi`` its extremes in the node. dt and rf score every cut
    between distinct values, ``BLOCK_CELLS`` cells at a time. A node whose
    cuts gain nothing takes the first cut, in candidate order, that splits.
    """
    seg, _, slots = _cells(start, sizes, np.arange(len(start)))
    counts = np.bincount(seg * n_classes + y[rows[slots]],
                         minlength=len(start) * n_classes).reshape(-1, n_classes)
    feature, threshold = np.full(len(start), -1), np.zeros(len(start))
    # a node of one row is pure, so it is a leaf here
    picked = np.flatnonzero(np.count_nonzero(counts, axis=1) > 1)
    n_features = x.shape[1]
    if not (picked.size and k) or (config.max_depth is not None
                                   and depth >= config.max_depth):
        return counts, feature, threshold
    if config.kind == "dt":
        candidates = np.tile(np.arange(n_features), (len(picked), 1))
    else:  # a tree's nodes come in its answer order
        u = np.concatenate([draws[t].random((len(list(run)), n_features + k))
                            for t, run in groupby(tree[picked].tolist())])
        candidates = np.sort(np.argpartition(u[:, :n_features], k - 1)[:, :k])
    # segment s holds the rows of node picked[s // k] on candidate s % k
    seg_node, seg_feat = np.repeat(picked, k), candidates.ravel()
    if config.kind == "et":
        seg, seg_start, slots = _cells(start, sizes, seg_node)
        cell_rows = rows[slots]
        values = x[cell_rows, seg_feat[seg]]
        lo = np.minimum.reduceat(values, seg_start)
        hi = np.maximum.reduceat(values, seg_start)
        cuts = first = lo + (hi - lo) * u[:, n_features:].ravel()  # can round up to hi
        left_of = values <= cuts[seg]
        n_left = np.bincount(seg[left_of], minlength=len(seg_start))
        splits = (n_left > 0) & (n_left < sizes[seg_node])
        left = np.bincount(seg[left_of] * n_classes + y[cell_rows[left_of]],
                           minlength=len(seg_start) * n_classes).reshape(-1, n_classes)
        # a cut that sends every row one way gains zero, up to rounding
        gains = _impurity_rows(counts, config.impurity)[seg_node] - _child_impurity(
            left, n_left, counts[seg_node], config.impurity)
    else:
        # a node of more cells than BLOCK_CELLS steps alone, a block of candidates at a time
        block = len(seg_node)
        if k * sizes[picked].sum() > BLOCK_CELLS:
            block = max(1, BLOCK_CELLS // int(sizes[picked].max()))
        gains, cuts, first = (np.concatenate(part) for part in zip(*(
            _sorted_cuts(x, y, codes, rows, start, sizes, counts, config.impurity,
                         seg_node[at:at + block], seg_feat[at:at + block])
            for at in range(0, len(seg_node), block))))
        splits = ~np.isnan(first)
    col = _first_best(gains.reshape(-1, k))
    # no cut gains (a 4-point XOR's root): take the first cut that splits
    flat = col < 0
    if flat.any():
        col[flat] = _first_best(np.where(splits, 1.0, -np.inf).reshape(-1, k))[flat]
        cuts = np.where(np.repeat(flat, k), first, cuts)
    chosen = np.flatnonzero(col >= 0)
    feature[picked[chosen]] = candidates[chosen, col[chosen]]
    threshold[picked[chosen]] = cuts.reshape(-1, k)[chosen, col[chosen]]
    return counts, feature, threshold


def _grow_class_trees(x: np.ndarray, y: np.ndarray, config: ClassifierConfig,
                      n_classes: int) -> list[Tree]:
    """Grow the tree of dt, on every row with every feature a candidate, or
    the trees of an rf or et forest. Forest tree ``t`` draws from its own
    generator, seeded ``(config.seed, t)``: rf first its bootstrap rows, then
    every node its candidates; et grows on every row."""
    n, n_features = x.shape
    if config.kind == "dt":
        k, draws = n_features, [None]
    else:
        k = min(n_features, max(1, int(np.sqrt(n_features))))  # candidate features per node
        draws = [np.random.default_rng((config.seed, t)) for t in range(config.n_trees)]
    codes = None if config.kind == "et" else _value_codes(x)  # et reads no sort
    roots = np.stack([rng.integers(0, n, size=n) if config.kind == "rf" else np.arange(n)
                      for rng in draws])
    return _grow(x, roots, partial(_class_step, x, y, codes, config, n_classes, k, draws), k)


class DecisionTreeModel(TrainedModel):
    kind = "dt"

    def __init__(self, config, classes, n_features, tree: Tree):
        super().__init__(config, classes, n_features)
        self.tree = tree

    @classmethod
    def fit(cls, x, yi, classes, config):
        """One greedy tree on every row and feature."""
        tree, = _grow_class_trees(x, yi, config, len(classes))
        return cls(config, classes, x.shape[1], tree)

    def score(self, x: np.ndarray) -> np.ndarray:
        x = self._check_features(x)
        counts = self.tree.value
        totals = counts.sum(axis=1, keepdims=True)
        proba = np.where(totals > 0, counts / np.maximum(totals, 1),
                         1.0 / len(self.classes))
        return proba[self.tree.apply(x)]

    def params_dict(self) -> dict:
        return {"root": self.tree.to_dict("counts")}

    @classmethod
    def from_params(cls, config, classes, n_features, params):
        return cls(config, classes, n_features,
                   Tree.from_dict(params["root"], n_features, len(classes), "counts"))


class ForestModel(TrainedModel):
    """Majority-vote ensemble; scores are vote fractions. A fitted tree's
    ``value`` holds each node's class counts, a loaded tree's only its vote,
    the class of the counts' first maximum, which is all a model file keeps."""

    def __init__(self, config, classes, n_features, trees: list[Tree]):
        super().__init__(config, classes, n_features)
        self.trees = trees
        self.kind = config.kind  # rf or et
        self.votes = [t.value if t.value.ndim == 1 else np.argmax(t.value, axis=1)
                      for t in trees]

    @classmethod
    def fit(cls, x, yi, classes, config):
        """rf: bootstrap rows and random candidate features per node; et: every
        row, random candidates and random cuts."""
        trees = _grow_class_trees(x, yi, config, len(classes))
        return cls(config, classes, x.shape[1], trees)

    def score(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(self._check_features(x))  # one copy for every tree
        offset = np.arange(len(x)) * len(self.classes)  # of each row's class-0 vote
        votes = sum(np.bincount(offset + vote[tree.apply(x)],
                                minlength=offset.size * len(self.classes))
                    for tree, vote in zip(self.trees, self.votes))
        return votes.reshape(len(x), len(self.classes)) / len(self.trees)

    def params_dict(self) -> dict:
        return {"trees": [t.to_dict("vote", vote) for t, vote in zip(self.trees, self.votes)]}

    @classmethod
    def from_params(cls, config, classes, n_features, params):
        if not params["trees"]:
            raise ValueError("a forest needs at least one tree")
        trees = [Tree.from_dict(t, n_features, len(classes), "vote")
                 for t in params["trees"]]
        return cls(config, classes, n_features, trees)


def mean_impurity_decrease(model: ForestModel | DecisionTreeModel) -> np.ndarray:
    """Per-feature importance: the (weighted) impurity decrease summed over
    each tree's nodes, averaged over the trees.

    Used as the tree-ensemble side of fuzzy/ET score fusion. ``ValueError``
    for a loaded forest, whose trees keep only their votes. A subtree runs in
    preorder to the end of its right spine, and its counts are its leaves'.
    """
    totals = np.zeros(model.n_features)
    trees = model.trees if isinstance(model, ForestModel) else [model.tree]
    for tree in trees:
        if tree.value.ndim != 2:
            raise ValueError("a loaded forest keeps only its leaves' votes, not the class "
                             "counts that importance needs")
        internal = np.flatnonzero(tree.left >= 0)
        end = np.where(tree.left >= 0, tree.right, np.arange(len(tree.left)))
        while (end[end] != end).any():  # pointer doubling: log2(depth) rounds
            end = end[end]  # last node of the subtree
        below = np.cumsum(tree.value, axis=0)  # through each node; a split's value is 0
        counts = below[end] - below + tree.value
        # post-order (both subtrees first, left first): by subtree end, deeper first
        nodes = internal[np.lexsort((-internal, end[internal]))]
        parent, left = counts[nodes], counts[tree.left[nodes]]
        gain = _impurity_rows(parent, model.config.impurity) - _child_impurity(
            left, left.sum(axis=1), parent, model.config.impurity)
        # summed in post-order, one node at a time, as the importances were defined
        np.add.at(totals, tree.feature[nodes], parent.sum(axis=1) * gain)
    return totals / len(trees)
