"""One array-backed tree engine for dt/rf/et/gbt, and the tree classifiers.

A ``Tree`` stores its nodes in preorder as parallel arrays, in the layout of
scikit-learn's ``Tree`` (Pedregosa et al., JMLR 2011), and ``Tree.builder``
lays them out. A dt tree or gbt stage grows alone through ``grow``: it sorts
each feature once per fit and partitions the sort down the tree, as XGBoost's
sorted column block (Chen & Guestrin, KDD 2016) and SLIQ (Mehta et al., EDBT
1996) do, and ``_scan``, the one exact split search of the impurity criteria
and the Newton gain, scores all features of a node at once, ``BLOCK_CELLS``
(feature x row) cells at a time, and only their cuts between distinct values.
A lone tree has nothing to batch its nodes with, and its presort spares every
node a sort.

An rf or et forest grows all of its trees together (``_grow_forest``): each
step takes the next preorder node of every unfinished tree, up to
``BLOCK_CELLS`` (candidate x row) cells, and counts, tests and splits all of
them with flat array operations. rf sorts each step's cells by node,
candidate and the value codes ranked once per fit; a node keeps only its
rows, a slice of its tree's root rows partitioned in place, since a sorted
order per node would hold (F, n) rows for every tree. Each tree draws its
candidates and et thresholds from its own generator, in preorder, so every
tree is the one it would grow alone.

Every impurity split rule counts the classes left of its cuts with
``_left_counts`` (rf and dt), scores the cuts with ``_child_impurity`` and
picks its winner with ``_first_best``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .base import ClassifierConfig, TrainedModel

BLOCK_CELLS = 16384  # cells per scan block or forest step, bounding their temporaries


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
    def builder(cls, root):
        """Generator that lays out nodes in preorder, left subtree first.

        It yields ``(state, depth)`` of each node in turn and is sent back
        ``(value, None)`` for a leaf or ``(value, (feature, threshold,
        left_state, right_state))`` for a split, whose value is ignored. It
        returns the ``Tree``.
        """
        feature, threshold, left, right, value = cols = ([], [], [], [], [])
        pending = [(root, 0, -1)]  # (state, depth, node whose right child it is, or -1)
        while pending:
            state, depth, parent = pending.pop()
            node = len(feature)
            if parent >= 0:
                right[parent] = node
            val, split = yield state, depth
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

    @classmethod
    def build(cls, root, expand: Callable) -> "Tree":
        """The tree ``builder`` lays out when ``expand(state, depth)``
        answers each node."""
        builder = cls.builder(root)
        node = next(builder)
        while True:
            try:
                node = builder.send(expand(*node))
            except StopIteration as done:
                return done.value

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
        """Inverse of ``to_dict``; ``ValueError`` unless every split names an
        integer feature in [0, n_features) and a finite threshold, every leaf
        weight is finite and every count leaf holds one count per class, each
        a non-negative integer."""
        def number(value, what: str) -> float:
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ValueError(f"{what} {value!r} is not a finite number")
            return float(value)

        def expand(doc, depth):
            if "counts" in doc:
                if not all(type(c) is int and c >= 0 for c in doc["counts"]):
                    raise ValueError(f"leaf counts {doc['counts']!r} are not "
                                     "non-negative integers")
                return np.asarray(doc["counts"], dtype=np.int64), None
            if "weight" in doc:
                return number(doc["weight"], "leaf weight"), None
            if type(doc["feature"]) is not int:
                raise ValueError(f"split feature {doc['feature']!r} is not an integer")
            return None, (doc["feature"], number(doc["threshold"], "split threshold"),
                          doc["left"], doc["right"])

        tree = cls.build(doc, expand)
        split_on = tree.feature[tree.left >= 0]
        if np.any((split_on < 0) | (split_on >= n_features)):
            raise ValueError(f"a split names a feature outside [0, {n_features})")
        if tree.value.ndim == 2 and tree.value.shape[1] != n_classes:
            raise ValueError(f"leaf counts have {tree.value.shape[1]} entries "
                             f"for {n_classes} classes")
        return tree


def grow(x: np.ndarray, rows: np.ndarray, node_rule: Callable, order: np.ndarray) -> Tree:
    """Grow a tree over ``x[rows]``, depth first, left subtree first.

    ``order`` is (F, n): row f holds ``rows`` sorted by feature f. A child's
    order is a stable partition of its parent's, so ties keep the order of
    ``rows``. ``node_rule(rows, order, depth)`` returns ``(value, None)`` to
    make a leaf or ``(value, (feature, threshold, ...))`` to split.
    """

    def expand(state, depth):
        rows, order = state
        value, split = node_rule(rows, order, depth)
        if split is None:
            return value, None
        feat, threshold = split[:2]
        left = x[rows, feat] <= threshold
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
    best = int(_first_best(gains))
    return None if best < 0 else (*cuts[best], float(gains[best]))


def best_split(x: np.ndarray, y: np.ndarray, candidate_features, impurity_kind: str,
               counts: np.ndarray, order: np.ndarray) -> tuple[int, float, float] | None:
    """Exhaustive best (feature, threshold, gain) by impurity decrease, or
    None when no cut gains. ``counts`` are the class counts of the node's
    rows, ``order`` those rows presorted per feature (see ``grow``); a node
    of one row, or a pure one, has no cut that gains.
    """
    parent_imp = _impurity_rows(counts[None], impurity_kind)[0]

    def gains_along(sorted_rows, b, q):
        new_run = np.zeros(sorted_rows.shape, dtype=bool)
        new_run[:, 0] = new_run[b, q + 1] = True
        starts = b * sorted_rows.shape[1]
        left_counts = _left_counts(y[sorted_rows].ravel(), new_run.ravel(), starts + q,
                                   starts, len(counts))
        return parent_imp - _child_impurity(left_counts, q + 1.0, counts, impurity_kind)

    return _scan(x, order, candidate_features, gains_along)


def _class_rule(x, y, config: ClassifierConfig, n_classes: int) -> Callable:
    """Node rule of dt: leaf class counts, split by impurity decrease over
    every feature."""
    features = range(x.shape[1])

    def rule(rows, order, depth):
        counts = np.bincount(y[rows], minlength=n_classes)
        # a node of one row is pure, so it is a leaf here
        if ((config.max_depth is not None and depth >= config.max_depth)
                or np.count_nonzero(counts) <= 1):
            return counts, None
        split = best_split(x, y, features, config.impurity, counts, order)
        # no cut gains (a 4-point XOR's root): a flat gain takes the scan's first cut
        return counts, split or _scan(x, order, features, lambda r, b, q: np.ones(len(b)))

    return rule


def _value_codes(x: np.ndarray) -> np.ndarray:
    """(F, n) dense rank of every cell of ``x`` among its feature's distinct
    values, from one presort."""
    ranked = _presort(x, np.arange(len(x)))
    xs = x[ranked, np.arange(x.shape[1])[:, None]]
    rises = np.zeros(ranked.shape, dtype=bool)
    rises[:, 1:] = xs[:, 1:] != xs[:, :-1]
    codes = np.empty(ranked.shape, dtype=np.int32)
    np.put_along_axis(codes, ranked, np.cumsum(rises, axis=1, dtype=np.int32), axis=1)
    return codes


def _grow_forest(x: np.ndarray, y: np.ndarray, config: ClassifierConfig,
                 n_classes: int) -> list[Tree]:
    """Grow the trees of an rf or et forest together. Tree ``t`` draws from
    its own generator, seeded ``(config.seed, t)``: rf first its bootstrap
    rows, then every node its candidates; et grows on every row.

    A node's rows are a slice of its tree's root row array, so that growing
    allocates no row list per node. Each step takes the next pending node of
    every unfinished tree, largest first, while the step holds at most
    ``BLOCK_CELLS`` (candidate x row) cells; the largest always goes, so a
    step holds at most ``max(BLOCK_CELLS, k x rows of its largest node)``
    cells. Taking the largest first keeps the trees at nodes of like size, so
    that small nodes find others to share a step with.
    """
    n_features = x.shape[1]
    k = min(n_features, max(1, int(np.sqrt(n_features))))  # candidate features per node
    codes = _value_codes(x) if config.kind == "rf" else None  # et reads no sort
    n = len(y)
    draws = [np.random.default_rng((config.seed, t)) for t in range(config.n_trees)]
    builders = [Tree.builder(rng.integers(0, n, size=n) if config.kind == "rf"
                             else np.arange(n)) for rng in draws]
    pending = {t: next(builder) for t, builder in enumerate(builders)}  # (rows, depth)
    trees = [None] * len(builders)
    while pending:
        step, cells = [], 0
        for t in sorted(pending, key=lambda t: -len(pending[t][0])):
            rows = pending[t][0]
            if not step or cells + k * len(rows) <= BLOCK_CELLS:
                step.append(t)
                cells += k * len(rows)
        nodes = [(*pending[t], draws[t]) for t in step]
        for t, answer in zip(step, _forest_step(x, y, codes, config, n_classes, k, nodes)):
            try:
                pending[t] = builders[t].send(answer)
            except StopIteration as done:
                trees[t] = done.value
                del pending[t]
    return trees


def _forest_step(x, y, codes, config: ClassifierConfig, n_classes: int, k: int,
                 nodes: list) -> list[tuple]:
    """Answer a batch of forest nodes, each ``(rows, depth, generator)``,
    as ``Tree.builder`` expects: one bincount counts every node's classes,
    and one split search scores every (node, candidate) cell. A split node's
    children are views of its ``rows``, which are reordered in place.

    Each splitting node draws ``k`` candidate features (unless ``k`` is every
    feature), and for et one uniform threshold per non-constant candidate,
    from its own generator. rf cuts between the distinct values of its
    cells, sorted by (node, candidate, value code), like ``best_split``; a
    node whose cuts gain nothing takes its first cut, like dt. et scores its
    random cuts (Geurts, Ernst & Wehenkel, 2006).
    """
    sizes = np.array([len(rows) for rows, _, _ in nodes])
    rows = np.concatenate([rows for rows, _, _ in nodes])
    node_of_row = np.repeat(np.arange(len(nodes)), sizes)
    counts = np.bincount(node_of_row * n_classes + y[rows],
                         minlength=len(nodes) * n_classes).reshape(-1, n_classes)
    answers = [(c, None) for c in counts]
    # a node of one row is pure, so it is a leaf here
    grows = np.count_nonzero(counts, axis=1) > 1
    if config.max_depth is not None:
        grows &= np.array([depth for _, depth, _ in nodes]) < config.max_depth
    picked = np.flatnonzero(grows)
    n_features = x.shape[1]
    if k < n_features:
        candidates = np.sort([nodes[i][2].choice(n_features, size=k, replace=False)
                              for i in picked]).reshape(-1, k)
    else:
        candidates = np.tile(np.arange(n_features), (len(picked), 1))
    if not candidates.size:
        return answers
    # cells: segment s holds the rows of node picked[s // k] on candidate s % k
    seg_len = np.repeat(sizes[picked], k)
    seg_start = np.cumsum(seg_len) - seg_len
    seg = np.repeat(np.arange(len(seg_len)), seg_len)
    offset = np.repeat((np.cumsum(sizes) - sizes)[picked], k) - seg_start
    cell_rows = rows[offset[seg] + np.arange(len(seg))]
    cell_feat = candidates.ravel()[seg]
    seg_node = np.repeat(picked, k)
    parent_imp = _impurity_rows(counts, config.impurity)[seg_node]
    if config.kind == "rf":
        key = seg * x.shape[0] + codes[cell_feat, cell_rows]
        order = np.argsort(key)
        key, cell_rows = key[order], cell_rows[order]  # seg and cell_feat keep their place
        new_run = np.ones(len(seg), dtype=bool)
        new_run[1:] = key[1:] != key[:-1]
        ends = np.flatnonzero(new_run[1:] & (seg[1:] == seg[:-1]))  # last cell before each cut
        cut_seg = seg[ends]
        starts = seg_start[cut_seg]
        left = _left_counts(y[cell_rows], new_run, ends, starts, n_classes)
        gains = parent_imp[cut_seg] - _child_impurity(
            left, ends - starts + 1, counts[seg_node[cut_seg]], config.impurity)
        # each segment's best cut: its first maximum, the lowest threshold on ties
        has_cut = np.bincount(cut_seg, minlength=len(seg_len)) > 0
        first_cut = np.searchsorted(cut_seg, np.arange(len(seg_len)))
        seg_gain = np.full(len(seg_len), -np.inf)
        if gains.size:
            seg_gain[has_cut] = np.maximum.reduceat(gains, first_cut[has_cut])
        top = np.flatnonzero(gains == seg_gain[cut_seg])
        first_top = np.ones(len(top), dtype=bool)
        first_top[1:] = cut_seg[top[1:]] != cut_seg[top[:-1]]
        best_cut = first_cut.copy()
        best_cut[has_cut] = top[first_top]
        col = _first_best(seg_gain.reshape(-1, k))
        # no cut gains (a 4-point XOR's root): a flat gain takes the first cut
        flat = col < 0
        if flat.any():
            col[flat] = _first_best(np.where(has_cut, 1.0, -np.inf).reshape(-1, k))[flat]
            best_cut[np.repeat(flat, k)] = first_cut[np.repeat(flat, k)]
        chosen = np.flatnonzero(col >= 0)
        cut = best_cut.reshape(-1, k)[chosen, col[chosen]]
        feats = candidates[chosen, col[chosen]]
        lo, hi = x[cell_rows[ends[cut]], feats], x[cell_rows[ends[cut] + 1], feats]
        mid = (lo + hi) / 2.0  # of two adjacent floats, can round up to hi
        thresholds = np.where(mid < hi, mid, lo)
    else:
        values = x[cell_rows, cell_feat]
        lo = np.minimum.reduceat(values, seg_start)
        hi = np.maximum.reduceat(values, seg_start)
        varied = lo < hi
        cuts = np.full(len(seg_len), -np.inf)  # no row goes left of a constant candidate
        for at, i in zip(range(0, len(seg_len), k), picked):
            v = varied[at:at + k]
            cuts[at:at + k][v] = nodes[i][2].uniform(lo[at:at + k][v], hi[at:at + k][v])
        left_of = values <= cuts[seg]
        left = np.bincount(seg[left_of] * n_classes + y[cell_rows[left_of]],
                           minlength=len(seg_len) * n_classes).reshape(-1, n_classes)
        gains = parent_imp - _child_impurity(
            left, np.bincount(seg[left_of], minlength=len(seg_len)), counts[seg_node],
            config.impurity)
        col = _first_best(np.where(varied, gains, -np.inf).reshape(-1, k))
        chosen = np.flatnonzero(col >= 0)
        feats = candidates[chosen, col[chosen]]
        thresholds = cuts.reshape(-1, k)[chosen, col[chosen]]
    # children: every row of the step goes left or right of its node's cut,
    # and each node's rows are partitioned in place, left child first
    splitting = picked[chosen]
    feature = np.zeros(len(nodes), dtype=np.int64)
    threshold = np.full(len(nodes), -np.inf)
    feature[splitting], threshold[splitting] = feats, thresholds
    goes_left = x[rows, feature[node_of_row]] <= threshold[node_of_row]
    n_left = np.bincount(node_of_row[goes_left], minlength=len(nodes))
    lefts, rights = rows[goes_left], rows[~goes_left]
    left_start = (np.cumsum(n_left) - n_left).tolist()
    right_start = (np.cumsum(sizes - n_left) - sizes + n_left).tolist()
    for i, feat, thr in zip(splitting.tolist(), feats.tolist(), thresholds.tolist()):
        node_rows, n = nodes[i][0], int(n_left[i])
        node_rows[:n] = lefts[left_start[i]:left_start[i] + n]
        node_rows[n:] = rights[right_start[i]:right_start[i] + len(node_rows) - n]
        answers[i] = (counts[i], (feat, thr, node_rows[:n], node_rows[n:]))
    return answers


class DecisionTreeModel(TrainedModel):
    kind = "dt"

    def __init__(self, config, classes, n_features, tree: Tree):
        super().__init__(config, classes, n_features)
        self.tree = tree

    @classmethod
    def fit(cls, x, yi, classes, config):
        """One greedy tree on every row and feature."""
        everything = np.arange(len(yi))
        tree = grow(x, everything, _class_rule(x, yi, config, len(classes)),
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
        return cls(config, classes, x.shape[1], _grow_forest(x, yi, config, len(classes)))

    def score(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(self._check_features(x))  # one copy for every tree
        offset = np.arange(len(x)) * len(self.classes)  # of each row's class-0 vote
        votes = sum(np.bincount(offset + np.argmax(tree.value, axis=1)[tree.apply(x)],
                                minlength=offset.size * len(self.classes))
                    for tree in self.trees)
        return votes.reshape(len(x), len(self.classes)) / len(self.trees)

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
