import csv
import hashlib
import heapq
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fuzzids.errors import ConfigError, SchemaError, TrainingError
from fuzzids.models import (
    ClassifierConfig,
    MODEL_KINDS,
    _MODEL_CLASSES,
    fit_model,
    load_model,
    mean_impurity_decrease,
    save_model,
)
from fuzzids.models import tree as tree_engine
from fuzzids.models import boosting
from fuzzids.models.boosting import GradientBoostedModel, _newton_step
from fuzzids.models.tree import (DecisionTreeModel, Tree, _child_impurity, _class_step,
                                 _first_best, _impurity_rows, _value_codes)
from fuzzids.models.svm import SvmModel, svm_objective


def tree_depth(tree):
    depth = np.zeros(len(tree.left), dtype=np.int64)
    for node in np.flatnonzero(tree.left >= 0):  # preorder: a parent before its children
        depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
    return int(depth.max())


def same_tree(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("feature", "threshold", "left", "right", "value"))


def separable_1d(n=20):
    x = np.linspace(0.0, 1.0, n).reshape(-1, 1)
    return x, (x[:, 0] > 0.5).astype(np.int64)


def xor_clusters(n, seed):
    rng = np.random.default_rng(seed)
    centers = [((0, 0), 0), ((1, 1), 0), ((0, 1), 1), ((1, 0), 1)]
    xs, ys = [], []
    for i in range(n):
        (cx, cy), label = centers[i % 4]
        xs.append(rng.normal((cx, cy), 0.15))
        ys.append(label)
    return np.asarray(xs), np.asarray(ys, dtype=np.int64)


def impurity(class_proportions, kind):
    """Reference: entropy (base 2) or Gini impurity of a class-proportion vector."""
    p = np.asarray(class_proportions, dtype=float)
    if kind == "entropy":
        nz = p[p > 0]
        return float(-(nz * np.log2(nz)).sum())
    return float(1.0 - (p ** 2).sum())


class Drawn:
    """Stands in for a tree's generator: every node's row of ``F + k``
    uniforms puts ``candidates`` lowest among the first ``F`` and ends in
    the et cut ``fractions``."""

    def __init__(self, candidates, fractions=0.5):
        self.candidates = np.asarray(candidates)
        self.fractions = fractions

    def random(self, size):
        m, width = size
        u = np.ones(width)
        u[self.candidates] = 0.0
        u[width - len(self.candidates):] = self.fractions
        return np.tile(u, (m, 1))


def drawn_candidates(u, n_features, k):
    """Reference: the candidates of a node's uniforms ``u``, the features of
    the ``k`` lowest of ``u[:n_features]``, ascending."""
    return np.sort(np.argsort(u[:n_features])[:k])


def first_split(answer):
    """The ``(feature, threshold)`` split, or None, of a step's first node
    from the step's ``(value, feature, threshold)`` answer."""
    _, feature, threshold = answer
    return None if feature[0] < 0 else (int(feature[0]), float(threshold[0]))


def one_node(rows):
    """A step of one node, in tree 0, that holds every slot of the row
    buffer ``rows``: ``(rows, start, sizes, tree)``."""
    return rows, np.array([0]), np.array([len(rows)]), np.array([0])


def class_split(x, y, candidates, kind="entropy", n_classes=None, rows=None,
                model="rf", fractions=0.5):
    """The ``(feature, threshold)`` split, or None, that ``_class_step`` gives
    the rf (or et) node of ``rows`` (default: every row) when it draws
    ``candidates`` (and et cut ``fractions``)."""
    rows = np.arange(len(y)) if rows is None else rows
    config = ClassifierConfig(kind=model, impurity=kind)
    return first_split(_class_step(x, y, _value_codes(x), config, n_classes or int(y.max()) + 1,
                                   len(candidates), [Drawn(candidates, fractions)],
                                   *one_node(rows), 0))


def split_gain(x, y, split):
    """Reference: entropy decrease of ``split`` on rows ``x``, ``y``."""
    k = int(y.max()) + 1
    left = x[:, split[0]] <= split[1]

    def weighted(labels):
        return len(labels) * impurity(np.bincount(labels, minlength=k) / len(labels), "entropy")

    return (weighted(y) - weighted(y[left]) - weighted(y[~left])) / len(y)


class TestImpurity:
    """Impurity of class counts, one count vector per row."""

    def test_maximal_binary(self):
        assert _impurity_rows(np.array([[2, 2]]), "entropy").tolist() == [1.0]
        assert _impurity_rows(np.array([[2, 2]]), "gini").tolist() == [0.5]

    def test_pure_node(self):
        assert _impurity_rows(np.array([[4, 0], [0, 3]]), "entropy").tolist() == [0.0, 0.0]
        assert _impurity_rows(np.array([[4, 0], [0, 3]]), "gini").tolist() == [0.0, 0.0]

    def test_hand_evaluated(self):
        assert _impurity_rows(np.array([[1, 3]]), "entropy")[0] == pytest.approx(
            0.811278, abs=1e-6)
        assert _impurity_rows(np.array([[1, 3]]), "gini")[0] == pytest.approx(0.375)


class TestBestSplit:
    def test_clean_binary_split(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        split = class_split(x, y, [0])
        assert split == (0, 2.5)
        assert split_gain(x, y, split) == pytest.approx(1.0)

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 30))
            x = rng.uniform(size=(n, 3))
            y = rng.integers(0, 2, size=n)
            result = class_split(x, y, [0, 1, 2])
            expected = _brute_force_split(x, y)
            if expected is None:  # no cut gains: the first cut, unless the node is pure
                assert result == (unique_fallback(x, range(3)) if len(set(y)) > 1 else None)
            else:
                assert result is not None
                assert split_gain(x, y, result) == pytest.approx(expected[2], abs=1e-9)

    def test_pure_node_returns_none(self):
        x = np.array([[1.0], [2.0]])
        assert class_split(x, np.array([1, 1]), [0]) is None

    def test_single_sample_returns_none(self):
        assert class_split(np.array([[1.0]]), np.array([0]), [0]) is None


def _brute_force_split(x, y):
    """Independent oracle: try every midpoint, direct entropy computation."""
    n, k = len(y), int(y.max()) + 1
    parent = impurity(np.bincount(y, minlength=k) / n, "entropy")
    best = None
    for feat in range(x.shape[1]):
        values = np.unique(x[:, feat])
        for lo, hi in zip(values[:-1], values[1:]):
            t = (lo + hi) / 2
            left, right = y[x[:, feat] <= t], y[x[:, feat] > t]
            child = (
                len(left) * impurity(np.bincount(left, minlength=k) / len(left), "entropy")
                + len(right) * impurity(np.bincount(right, minlength=k) / len(right), "entropy")
            ) / n
            gain = parent - child
            if gain > 1e-12 and (best is None or gain > best[2] + 1e-12):
                best = (feat, t, gain)
    return best


def argsort_scan(x, candidates, gains_along):
    """Reference: the per-node scan the presorted one replaced, with one stable
    argsort per candidate feature of ``x``, the node's rows."""
    gains, cuts = [], []
    for feat in sorted(candidates):
        order = np.argsort(x[:, feat], kind="stable")
        xs = x[order, feat]
        valid = xs[:-1] != xs[1:]
        if not valid.any():
            continue
        along = np.where(valid, gains_along(order), -np.inf)
        i = int(np.argmax(along))  # first max wins: lower threshold on ties
        gains.append(along[i])
        cuts.append((feat, (xs[i] + xs[i + 1]) / 2.0))
    best = _first_best(gains)
    return None if best < 0 else (*cuts[best], float(gains[best]))


def argsort_best_split(x, y, candidates, kind, n_classes):
    """Reference: the best gaining impurity cut as it was found, on the
    node's rows ``x``, ``y``: (feature, threshold, gain), or None."""
    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes)
    parent_imp = _impurity_rows(parent_counts[None], kind)[0]
    if parent_imp == 0.0:
        return None
    n_left = np.arange(1, n, dtype=float)

    def gains_along(order):
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y[order]] = 1.0
        left_counts = np.cumsum(onehot, axis=0)[:-1]
        return parent_imp - _child_impurity(left_counts, n_left, parent_counts, kind)

    return argsort_scan(x, candidates, gains_along)


def argsort_newton_split(x, grad, hess):
    """Reference: the Newton split of a boosting node as it was, at lambda 1."""
    g, h, lam = grad.sum(), hess.sum(), 1.0

    def gains_along(order):
        gl, hl = np.cumsum(grad[order])[:-1], np.cumsum(hess[order])[:-1]
        gr, hr = g - gl, h - hl
        return 0.5 * (gl ** 2 / (hl + lam) + gr ** 2 / (hr + lam)
                      - g ** 2 / (h + lam))

    return argsort_scan(x, range(x.shape[1]), gains_along)


def unique_fallback(x, candidates):
    """Reference: the zero-gain cut as it was, one np.unique per feature."""
    for feat in sorted(candidates):
        values = np.unique(x[:, feat])
        if len(values) > 1:
            return feat, float((values[0] + values[1]) / 2.0)
    return None


def argsort_class_split(x, y, candidates, kind, n_classes):
    """Reference: the split of a dt or rf node on rows ``x``, ``y``: its best
    gaining cut, else the first cut unless the node is pure."""
    best = argsort_best_split(x, y, candidates, kind, n_classes)
    if best is not None:
        return best[:2]
    return unique_fallback(x, candidates) if len(set(y.tolist())) > 1 else None


def newton_split(x, grad, hess, rows):
    """The ``(feature, threshold)`` split, or None, that ``_newton_step``
    gives the boosting node of ``rows``, ascending, at the root depth."""
    return first_split(_newton_step(x, _value_codes(x), [grad], [hess],
                                    ClassifierConfig(kind="gbt"), *one_node(rows), 0))


def tie_heavy(rng, n, n_features=6, n_classes=3):
    """Integer-valued features with few levels, some columns constant."""
    x = rng.integers(0, int(rng.integers(2, 5)), size=(n, n_features)).astype(float)
    x[:, rng.choice(n_features, size=int(rng.integers(0, 3)), replace=False)] = 1.0
    return x, rng.integers(0, n_classes, size=n)


class TestPresortedScan:
    """The class-count step and the Newton step split a node where the
    per-node argsort loop does, bit for bit."""

    @pytest.mark.parametrize("kind", ["entropy", "gini"])
    def test_best_split_matches_argsort_scan(self, kind, rng):
        found = 0
        for _ in range(40):
            x, y = tie_heavy(rng, int(rng.integers(2, 80)))
            candidates = rng.choice(6, size=int(rng.integers(1, 7)), replace=False)
            got = class_split(x, y, candidates, kind, n_classes=3)
            assert got == argsort_class_split(x, y, candidates, kind, 3)
            found += argsort_best_split(x, y, candidates, kind, 3) is not None
        assert found > 20

    @pytest.mark.parametrize("kind", ["entropy", "gini"])
    def test_bootstrap_rows_match_argsort_scan(self, kind, rng):
        for _ in range(40):
            x, y = tie_heavy(rng, 60)
            rows = rng.integers(0, 60, size=int(rng.integers(2, 90)))  # duplicates
            candidates = rng.choice(6, size=3, replace=False)
            got = class_split(x, y, candidates, kind, n_classes=3, rows=rows)
            assert got == argsort_class_split(x[rows], y[rows], candidates, kind, 3)

    def test_newton_rule_matches_argsort_scan(self, rng):
        found = 0
        for _ in range(40):
            x, _ = tie_heavy(rng, 80)
            p = rng.uniform(0.05, 0.95, size=80)
            grad, hess = p - rng.integers(0, 2, size=80), p * (1 - p)
            rows = np.sort(rng.choice(80, size=int(rng.integers(1, 81)), replace=False))
            got = newton_split(x, grad, hess, rows)
            expected = argsort_newton_split(x[rows], grad[rows], hess[rows])
            assert got == (expected and expected[:2])
            found += got is not None
        assert found > 20
        assert newton_split(x, grad, hess, rows[:1]) is None  # a single row has no cut

    def test_boosting_nodes_hold_ascending_rows(self, rng, monkeypatch):
        # so that a node's stable sort by value code breaks ties in row order,
        # as a sort of every row made once per fit and partitioned down does
        x, y = tie_heavy(rng, 120)
        seen = []

        def step(x, codes, grads, hesses, config, rows, start, sizes, chains, depth):
            for at, size in zip(start, sizes):
                assert np.all(np.diff(rows[at:at + size]) > 0)
                seen.append(depth)
            return _newton_step(x, codes, grads, hesses, config, rows, start, sizes, chains,
                                depth)

        monkeypatch.setattr(boosting, "_newton_step", step)
        fit_model(x, y, ClassifierConfig(kind="gbt", n_rounds=2))
        assert max(seen) >= 3

    @pytest.mark.parametrize("kind", ["entropy", "gini"])
    def test_only_cuts_between_distinct_values_are_scored(self, kind, rng, monkeypatch):
        # tie-heavy columns have far fewer distinct-value boundaries than rows
        scored = []
        child_impurity = tree_engine._child_impurity

        def counting(left_counts, *args):
            scored.append(left_counts.shape[:-1])
            return child_impurity(left_counts, *args)

        monkeypatch.setattr(tree_engine, "_child_impurity", counting)
        x, y = tie_heavy(rng, 200)
        candidates = [0, 2, 3, 5]
        assert class_split(x, y, candidates, kind) is not None
        boundaries = sum(len(np.unique(x[:, f])) - 1 for f in candidates)
        assert sum(int(np.prod(shape)) for shape in scored) == boundaries < 199

    def test_zero_gain_cut_matches_unique_fallback(self, rng):
        # every cut of an XOR of two balanced binary columns gains nothing; dt
        # and a forest node cut the lowest varying candidate at its lowest midpoint
        for seed in range(30):
            a, b = rng.permutation(np.repeat([[0, 0], [0, 1], [1, 0], [1, 1]], 5, axis=0)).T
            x = np.full((20, 5), 0.5)
            x[:, rng.choice(5, size=2, replace=False)] = np.column_stack([a * 0.3 + 0.2,
                                                                          b * 0.4 + 0.1])
            rows = np.arange(20)
            assert class_split(x, a ^ b, range(5)) == unique_fallback(x, range(5))
            # rf draws int(sqrt(5)) = 2 candidate features
            split = first_split(_class_step(x, a ^ b, _value_codes(x), ClassifierConfig(kind="rf"),
                                            2, 2, [np.random.default_rng(seed)], *one_node(rows),
                                            0))
            u = np.random.default_rng(seed).random(5 + 2)
            assert split == unique_fallback(x, drawn_candidates(u, 5, 2))

    def test_et_zero_gain_cut_sends_rows_both_ways(self):
        # a balanced XOR: no cut gains, so et takes the first candidate whose
        # cut splits; on adjacent floats a fraction of 0.9 rounds up to hi
        lo = 0.58
        hi = np.nextafter(lo, 1.0)
        x = np.array([[lo, 0.0], [lo, 1.0], [hi, 0.0], [hi, 1.0]])
        y = np.array([0, 1, 1, 0])
        assert lo + (hi - lo) * 0.9 == hi
        assert class_split(x, y, [0, 1], model="et", fractions=0.9) == (1, 0.9)
        assert class_split(x, y, [0, 1], model="et", fractions=0.25) == (0, lo)
        assert class_split(x[::2], y[::2], [0], model="et", fractions=0.9) is None


def block_sized_fits(x, y, monkeypatch, cells):
    monkeypatch.setattr(tree_engine, "BLOCK_CELLS", cells)
    configs = [ClassifierConfig(kind=kind, n_trees=3, n_rounds=3, max_depth=6, seed=2)
               for kind in ("dt", "rf", "et", "gbt")]
    configs += [ClassifierConfig(kind="dt", impurity="gini"),
                ClassifierConfig(kind="gbt", n_rounds=2, gbt_max_depth=8)]
    return [fit_model(x, y, config).to_dict() for config in configs]


def test_scan_block_size_changes_no_model(rng, monkeypatch):
    # one cell per block scans one feature at a time and grows one node per
    # step; 500 cells batch small nodes and block the candidates of large ones
    x, y = tie_heavy(rng, 300)
    one_feature = block_sized_fits(x, y, monkeypatch, 1)
    assert block_sized_fits(x, y, monkeypatch, 500) == one_feature
    assert block_sized_fits(x, y, monkeypatch, 10 ** 9) == one_feature


@pytest.mark.parametrize("kind, sorts", [("dt", 1), ("rf", 1), ("et", 0), ("gbt", 1)])
def test_each_feature_sorted_once_per_tree_or_boosting_fit(kind, sorts, rng, monkeypatch):
    # one _value_codes per fit; inside the step rule dt and rf then sort the
    # cells of each step, gbt the codes of each node, at most BLOCK_CELLS of
    # them at a time (the grower's partitions and each tree's child layout
    # sort rows and node ids outside it)
    ranked, step_sorts, stepping = [], [], []
    argsort, value_codes, grow = np.argsort, tree_engine._value_codes, tree_engine._grow

    def counted(a, *args, **kwargs):
        if stepping:
            step_sorts.append(np.size(a))
        return argsort(a, *args, **kwargs)

    def counting(x):
        ranked.append(x.shape)
        return value_codes(x)

    def recording(x, roots, step, width):
        def recorded(rows, start, sizes, tree, depth):
            stepping.append(depth)
            try:
                return step(rows, start, sizes, tree, depth)
            finally:
                stepping.pop()

        return grow(x, roots, recorded, width)

    monkeypatch.setattr(np, "argsort", counted)
    monkeypatch.setattr(tree_engine, "_value_codes", counting)
    monkeypatch.setattr(tree_engine, "_grow", recording)
    monkeypatch.setattr(boosting, "_grow", recording)
    x, y = tie_heavy(rng, 200, n_classes=4)
    fit_model(x, y, ClassifierConfig(kind=kind, n_trees=4, n_rounds=3, seed=2))
    assert ranked == [x.shape] * sorts
    assert bool(step_sorts) == (kind != "et")
    assert all(cells <= tree_engine.BLOCK_CELLS for cells in step_sorts)


@pytest.mark.parametrize("distinct, dtype", [(256, np.uint8), (257, np.uint16),
                                             (65537, np.uint32)])
def test_value_codes_come_in_the_narrowest_unsigned_dtype(distinct, dtype, rng):
    # numpy's stable argsort radix-sorts codes of up to 16 bits
    column = rng.permutation(np.repeat(rng.normal(size=distinct), 2))
    x = np.column_stack([column, np.ones(len(column))])
    codes = _value_codes(x)
    assert codes.dtype == dtype
    assert np.array_equal(codes[0], np.unique(column, return_inverse=True)[1])
    assert not codes[1].any()


def argsort_codes(x):
    """Reference: the value codes from one stable argsort per feature, a
    cumulative count of the rises between sorted neighbours and a scatter of
    those ranks back to row order, in the narrowest unsigned dtype."""
    ranked = np.argsort(x.T, axis=1, kind="stable")
    xs = np.take_along_axis(x.T, ranked, axis=1)
    rises = np.zeros(ranked.shape, dtype=bool)
    rises[:, 1:] = xs[:, 1:] != xs[:, :-1]
    ranks = np.cumsum(rises, axis=1, dtype=np.int32)
    codes = np.empty(ranked.shape, dtype=np.min_scalar_type(ranks.max(initial=0)))
    np.put_along_axis(codes, ranked, ranks, axis=1)
    return codes


@pytest.mark.parametrize("n", [1, 2, 600])
def test_value_codes_match_the_argsort_ranking(n, rng):
    # tie-heavy columns, a column of -0.0 and 0.0 (equal, so one code) and
    # one of 257 distinct values, which widens every feature's codes to uint16
    x = np.column_stack([tie_heavy(rng, n)[0], rng.choice([-0.0, 0.0], size=n),
                         rng.permutation(np.resize(rng.normal(size=257), n))])
    for cols in (x, x[:, :-1], x[:, :0]):
        got, want = _value_codes(cols), argsort_codes(cols)
        assert got.shape == (cols.shape[1], n) and got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert not _value_codes(x)[6].any()


def test_value_codes_peak_within_the_matrix_bytes():
    # one np.unique per column, each inverse narrowed at once, peaks at 0.56
    # times x's bytes on this data; ranking the whole matrix in one argsort,
    # with its sorted copy and int32 ranks, peaked at 3.1
    rng = np.random.default_rng(0)
    levels = (3, 5, 8, 10, 20, 30, 40, 50, 60, 70, 80, 90, 101, 257)
    x = np.column_stack([rng.integers(0, k, 20000).astype(float) for k in levels])
    tracemalloc.start()
    try:
        codes = _value_codes(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes.dtype == np.uint16
    assert peak <= x.nbytes


def random_cut_split(x, y, candidate_features, impurity_kind, fractions, counts):
    """Reference: the best gaining et split (Geurts, Ernst & Wehenkel, 2006):
    candidate ``j`` in ascending feature order cut at ``fractions[j]`` of the
    way from its lowest value to its highest, and every non-constant
    candidate scored at once. ``counts`` are the class counts of ``y``."""
    n_classes = len(counts)
    feats = np.sort(np.asarray(candidate_features, dtype=np.int64))
    cols = x[:, feats]
    lo, hi = cols.min(axis=0), cols.max(axis=0)
    varied = lo < hi
    feats, cols = feats[varied], cols[:, varied]
    thresholds = (lo + (hi - lo) * np.asarray(fractions))[varied]
    left = cols <= thresholds
    cells = y[:, None] + n_classes * np.arange(len(feats))
    left_counts = np.bincount(cells[left], minlength=len(feats) * n_classes)
    left_counts = left_counts.reshape(-1, n_classes)
    gains = _impurity_rows(counts[None], impurity_kind)[0] - _child_impurity(
        left_counts, left.sum(axis=0), counts, impurity_kind)
    best = _first_best(gains)
    return None if best < 0 else (feats[best], float(thresholds[best]))


def lone_tree(x, y, rows, config, n_classes, rng):
    """Reference: ``Tree.to_dict("counts")`` of an rf or et tree grown alone on
    ``rows``, one node at a time, level by level, largest first within a
    level and ties in creation order. Each splitting node draws ``F + k``
    uniforms ``u`` from ``rng``: ``drawn_candidates`` and, for et, the cut
    fractions ``u[F:]``. A node whose cuts gain nothing takes the first cut
    that sends rows both ways."""
    n_features = x.shape[1]
    k = min(n_features, max(1, int(np.sqrt(n_features))))
    root = {}
    pending = [(0, -len(rows), 0, rows, root)]  # (depth, -size, id, rows, document)
    created = 1
    while pending:
        depth, _, _, rows, doc = heapq.heappop(pending)
        counts = np.bincount(y[rows], minlength=n_classes)
        doc["counts"] = counts.tolist()
        if ((config.max_depth is not None and depth >= config.max_depth)
                or np.count_nonzero(counts) <= 1):
            continue
        u = rng.random(n_features + k)
        candidates = drawn_candidates(u, n_features, k)
        xs, ys = x[rows], y[rows]
        if config.kind == "et":
            fractions = u[n_features:]
            split = random_cut_split(xs, ys, candidates, config.impurity, fractions, counts)
            for f, fraction in zip(candidates, fractions):
                lo, hi = xs[:, f].min(), xs[:, f].max()
                cut = lo + (hi - lo) * fraction
                if split is None and 0 < np.sum(xs[:, f] <= cut) < len(rows):
                    split = f, cut
        else:
            split = argsort_class_split(xs, ys, candidates, config.impurity, n_classes)
        if split is None:
            continue
        feat, threshold = int(split[0]), float(split[1])
        left = x[rows, feat] <= threshold
        del doc["counts"]
        doc.update(feature=feat, threshold=threshold, left={}, right={})
        for side, part in (("left", rows[left]), ("right", rows[~left])):
            heapq.heappush(pending, (depth + 1, -len(part), created, part, doc[side]))
            created += 1
    flat, stack = {"feature": [], "threshold": [], "counts": []}, [root]
    while stack:  # preorder, left subtree first
        doc = stack.pop()
        if "counts" in doc:
            flat["feature"].append(-1)
            flat["counts"].append(doc["counts"])
        else:
            flat["feature"].append(doc["feature"])
            flat["threshold"].append(doc["threshold"])
            stack += [doc["right"], doc["left"]]
    return flat


@pytest.mark.parametrize("impurity", ["entropy", "gini"])
def test_forest_trees_match_trees_grown_alone(impurity, rng):
    # the trees grown together equal trees grown alone from the same draws;
    # no cut of the balanced XOR gains, so each et node takes its first
    # cut that splits
    xor = np.repeat([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], 25, axis=0)
    for x, y in (tie_heavy(rng, 200, n_classes=4), (xor, (xor[:, 0] != xor[:, 1]) * 2)):
        y = np.array([3, 7, 9, 12])[y]
        yi = np.unique(y, return_inverse=True)[1]
        for kind in ("rf", "et"):
            config = ClassifierConfig(kind=kind, impurity=impurity, n_trees=4, seed=5)
            model = fit_model(x, y, config)
            for t, tree in enumerate(model.trees):
                draws = np.random.default_rng((config.seed, t))
                rows = (draws.integers(0, len(y), size=len(y)) if kind == "rf"
                        else np.arange(len(y)))
                assert tree.to_dict("counts") == lone_tree(x, yi, rows, config, yi.max() + 1, draws)


def test_fitted_leaves_hold_what_reaches_them(rng):
    # the layout and the partition, apart from the digests: a leaf holds the
    # class counts, or the Newton weight, of the training rows that its
    # tree's walk sends to it, and an internal node holds zeros
    x, y = tie_heavy(rng, 300, n_classes=4)
    yi = np.unique(y, return_inverse=True)[1]
    dt = fit_model(x, y, ClassifierConfig(kind="dt", max_depth=6))
    rf = fit_model(x, y, ClassifierConfig(kind="rf", n_trees=4, seed=3))
    for tree, rows in [(dt.tree, np.arange(len(y)))] + [
            (tree, np.random.default_rng((3, t)).integers(0, len(y), size=len(y)))
            for t, tree in enumerate(rf.trees)]:  # rf's bootstrap rows
        counts = np.bincount(tree.apply(x[rows]) * 4 + yi[rows], minlength=tree.value.size)
        assert np.array_equal(tree.value, counts.reshape(-1, 4))
        assert not tree.value[tree.left >= 0].any()
    gbt = fit_model(x, y, ClassifierConfig(kind="gbt", n_rounds=1))
    for c, base, (stage,) in zip(range(4), gbt.base_scores, gbt.stages):
        p = boosting._sigmoid(np.full(len(y), base))
        grad, hess = p - (yi == c), p * (1.0 - p)
        leaf = stage.apply(x)
        for node in range(len(stage.left)):
            rows = np.flatnonzero(leaf == node)  # ascending
            weight = -grad[rows].sum() / (hess[rows].sum() + boosting.REG_LAMBDA)
            assert stage.value[node] == (weight if stage.left[node] < 0 else 0.0)


def test_et_fit_peaks_within_twice_its_tree_arrays():
    # the grower keeps one preorder copy of its node arrays, which the trees
    # view, and partitions the roots' own buffer; holding the per-step
    # answers, their join and a gather per tree at once peaks at 3.5 times
    # the arrays on this data, and this fit at 1.5
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20000, 14))
    y = (x[:, :3].sum(axis=1) > 0) + (x[:, 3] > 1) + 2 * (rng.random(20000) < 0.3)
    tracemalloc.start()
    try:
        model = fit_model(x, y, ClassifierConfig(kind="et", n_trees=5, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for tree in model.trees
                 for a in (tree.feature, tree.threshold, tree.value, tree.left, tree.right))
    assert peak <= 2 * arrays


@pytest.mark.parametrize("kind", ["rf", "et", "dt", "gbt"])
def test_forest_step_holds_at_most_its_budget(kind, rng, monkeypatch):
    budget = 1000
    monkeypatch.setattr(tree_engine, "BLOCK_CELLS", budget)
    grows = []  # per _grow call, its steps
    grow = tree_engine._grow

    def recording(x, roots, step, width):
        steps = []
        grows.append((width, steps))

        def recorded(rows, start, sizes, tree, depth):
            steps.append((depth, list(zip(tree.tolist(), sizes.tolist()))))
            return step(rows, start, sizes, tree, depth)

        return grow(x, roots, recorded, width)

    monkeypatch.setattr(tree_engine, "_grow", recording)
    monkeypatch.setattr(boosting, "_grow", recording)
    # 6 features: 2 rf or et candidates, so 600 cells at a root; 1,800 at a
    # dt or gbt root
    x, y = tie_heavy(rng, 300)
    fit_model(x, y, ClassifierConfig(kind=kind, n_trees=5, n_rounds=2, seed=1))
    trees_per_step, nodes_per_tree = [], []
    for width, steps in grows:
        depths = [depth for depth, _ in steps]
        assert depths == sorted(depths)  # one level after another
        for (depth, nodes), (next_depth, next_nodes) in zip(steps, steps[1:] + [(None, [])]):
            sizes = [n for _, n in nodes]
            assert width * sum(sizes) <= max(budget, width * sizes[0])
            if next_depth == depth:  # a step ends where the level's next node would not fit
                assert width * (sum(sizes) + next_nodes[0][1]) > budget
            # by tree, and largest first within a tree
            assert nodes == sorted(nodes, key=lambda node: (node[0], -node[1]))
            trees = {t for t, _ in nodes}
            trees_per_step.append(len(trees))
            nodes_per_tree += [sum(u == t for u, _ in nodes) for t in trees]
    assert (0, [(0, 300)]) in (step for _, steps in grows for step in steps)  # a root alone
    assert max(nodes_per_tree) > 1  # a step takes several nodes of a level
    assert (max(trees_per_step) > 1) == (kind != "dt")  # the trees of a fit share steps


@pytest.mark.parametrize("gains, expected", [
    ([], None),
    ([1e-13, 0.0, -np.inf, np.nan], None),  # no gain clears 1e-12
    ([0.5, 0.5 + 1e-13], 0),                # a near-tie goes to the earlier cut
    ([0.5, 0.5 + 1e-13, 0.6], 2),
    ([np.nan, 0.3, 0.3], 1),
])
def test_first_best_tie_rule(gains, expected):
    # -1 stands for no winner
    assert _first_best(np.array(gains)) == (-1 if expected is None else expected)
    # one row per node: the rule runs across nodes at once
    rows = np.array([gains, gains[::-1], np.zeros(len(gains))]).reshape(3, len(gains))
    singly = [int(_first_best(row)) for row in rows]
    assert _first_best(rows).tolist() == singly


def scalar_random_cut_split(x, y, candidates, kind, fractions, n_classes):
    """Reference: the per-candidate loop the vectorised ET rule replaced,
    with impurity() as the impurity of each side."""
    def side(counts):
        return impurity(counts / counts.sum(), kind)

    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes)
    best = None  # (gain, feature, threshold)
    for feat, fraction in zip(sorted(candidates), fractions):
        col = x[:, feat]
        lo, hi = col.min(), col.max()
        if lo == hi:
            continue
        threshold = lo + (hi - lo) * fraction
        left = col <= threshold
        n_left = int(left.sum())
        if n_left == 0 or n_left == n:
            continue
        left_counts = np.bincount(y[left], minlength=n_classes)
        gain = side(parent_counts) - (
            n_left * side(left_counts) + (n - n_left) * side(parent_counts - left_counts)
        ) / n
        if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
            best = (gain, feat, float(threshold))
    return None if best is None else best[1:]


class TestRandomCutSplit:
    """The et reference split of the forest oracle agrees with a scalar loop."""

    @pytest.mark.parametrize("kind", ["entropy", "gini"])
    @pytest.mark.parametrize("n_classes", [2, 5])
    def test_matches_scalar_loop(self, kind, n_classes, rng):
        found = 0
        for trial in range(60):
            n = int(rng.integers(2, 50))
            x = np.round(rng.uniform(size=(n, 6)), 1)  # repeated values
            x[:, rng.choice(6, size=int(rng.integers(0, 4)), replace=False)] = 0.5
            if trial % 10 == 0:
                x[:] = 0.25  # every column constant: no cut
            y = rng.integers(0, n_classes, size=n)
            candidates = rng.choice(6, size=int(rng.integers(1, 7)), replace=False)
            fractions = rng.random(len(candidates))
            counts = np.bincount(y, minlength=n_classes)
            got = random_cut_split(x, y, candidates, kind, fractions, counts)
            assert got == scalar_random_cut_split(x, y, candidates, kind, fractions, n_classes)
            found += got is not None
        assert found > 20


def recursive_importance(model):
    """Reference: the recursive post-order walk mean_impurity_decrease
    replaced, with impurity() as the impurity of each node."""
    def node_impurity(counts):
        return impurity(counts / counts.sum(), model.config.impurity)

    def walk(tree, node):
        if tree.left[node] < 0:
            return tree.value[node]
        lc, rc = walk(tree, tree.left[node]), walk(tree, tree.right[node])
        counts = lc + rc
        n = counts.sum()
        gain = node_impurity(counts) - (
            lc.sum() * node_impurity(lc) + rc.sum() * node_impurity(rc)) / n
        totals[tree.feature[node]] += n * gain
        return counts

    totals = np.zeros(model.n_features)
    trees = model.trees if model.kind != "dt" else [model.tree]
    for tree in trees:
        walk(tree, 0)
    return totals / len(trees)


def bottom_up_importance(model):
    """Reference: the per-node loop that mean_impurity_decrease replaced. It
    sums each split's counts from its children's in reverse preorder, then
    adds the decreases in post-order, as the function still does."""
    totals = np.zeros(model.n_features)
    trees = model.trees if model.kind != "dt" else [model.tree]
    for tree in trees:
        counts, end = tree.value.copy(), np.arange(len(tree.left))
        internal = np.flatnonzero(tree.left >= 0)
        for node in internal[::-1]:  # children before parents
            counts[node] = counts[tree.left[node]] + counts[tree.right[node]]
            end[node] = end[tree.right[node]]  # last node of the subtree
        nodes = internal[np.lexsort((-internal, end[internal]))]
        parent, left = counts[nodes], counts[tree.left[nodes]]
        gain = _impurity_rows(parent, model.config.impurity) - _child_impurity(
            left, left.sum(axis=1), parent, model.config.impurity)
        np.add.at(totals, tree.feature[nodes], parent.sum(axis=1) * gain)
    return totals / len(trees)


class TestImportance:
    @pytest.mark.parametrize("impurity_kind", ["entropy", "gini"])
    def test_deep_chains_match_the_bottom_up_loop(self, impurity_kind, rng):
        # 1,000 levels, past recursive_importance's reach: a fitted chain
        # whose right spine is 1,000 nodes long, and a built one that leans
        # left, with random split features and leaf counts
        n = 1001
        x, y = np.arange(float(n)).reshape(-1, 1), np.arange(n) % 2
        config = ClassifierConfig(kind="dt", impurity=impurity_kind)
        fitted = fit_model(x, y, config)
        assert tree_depth(fitted.tree) == n - 1
        split = np.arange(2 * n - 1) < n - 1
        value = np.where(split[:, None], 0, rng.integers(1, 9, size=(2 * n - 1, 3)))
        built = Tree(np.where(split, rng.integers(0, 4, size=2 * n - 1), -1),
                     np.zeros(2 * n - 1), value)
        assert tree_depth(built) == n - 1
        for model in (fitted, DecisionTreeModel(config, [0, 1, 2], 4, built)):
            assert np.array_equal(mean_impurity_decrease(model), bottom_up_importance(model))

    @pytest.mark.parametrize("kind", ["dt", "rf", "et"])
    @pytest.mark.parametrize("impurity_kind", ["entropy", "gini"])
    def test_matches_recursive_walk(self, kind, impurity_kind, rng):
        x = np.round(rng.uniform(size=(200, 6)), 2)
        y = (3 * x[:, 0] + rng.normal(0, 0.4, 200)).astype(np.int64).clip(0, 2)
        cfg = ClassifierConfig(kind=kind, impurity=impurity_kind, n_trees=4, seed=3)
        model = fit_model(x, y, cfg)
        got = mean_impurity_decrease(model)
        assert np.array_equal(got, recursive_importance(model))
        # unnormalised: a tree's decreases telescope to its root's weighted
        # impurity less its leaves', and the trees' sums are averaged
        def weighted(counts):
            return counts.sum() * impurity(counts / counts.sum(), impurity_kind)

        def telescoped(t):
            leaves = t.value[t.left < 0]
            return weighted(leaves.sum(axis=0)) - sum(weighted(c) for c in leaves)

        trees = model.trees if kind != "dt" else [model.tree]
        assert got.sum() == pytest.approx(np.mean([telescoped(t) for t in trees]))

    @pytest.mark.parametrize("kind", ["dt", "rf", "et"])
    def test_loaded_forest_has_no_importance(self, kind, rng, tmp_path):
        # a model file keeps a forest's votes, not its class counts
        x = rng.uniform(size=(60, 3))
        model = fit_model(x, rng.integers(0, 3, size=60),
                          ClassifierConfig(kind=kind, n_trees=3))
        save_model(model, tmp_path / "model.json")
        clone = load_model(tmp_path / "model.json")
        if kind == "dt":
            assert np.array_equal(mean_impurity_decrease(clone),
                                  mean_impurity_decrease(model))
        else:
            with pytest.raises(ValueError, match="keeps only its leaves' votes"):
                mean_impurity_decrease(clone)

    def test_single_leaf_has_no_importance(self, rng):
        x = rng.uniform(size=(30, 3))
        model = fit_model(x, rng.integers(0, 2, size=30),
                          ClassifierConfig(kind="dt", max_depth=0))
        assert not mean_impurity_decrease(model).any()


class TestDecisionTree:
    def test_separable_depth_one(self):
        x, y = separable_1d()
        model = fit_model(x, y, ClassifierConfig(kind="dt"))
        assert (model.predict(x) == y).all()
        tree = model.tree
        assert tree.left[0] >= 0 and tree.left[tree.left[0]] < 0

    def test_four_point_xor(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        model = fit_model(x, y, ClassifierConfig(kind="dt"))
        assert (model.predict(x) == y).all()
        assert tree_depth(model.tree) == 2

    def test_max_depth_zero_is_majority_leaf(self):
        x, y = separable_1d()
        y = y.copy()
        y[:] = [0] * 15 + [1] * 5
        model = fit_model(x, y, ClassifierConfig(kind="dt", max_depth=0))
        assert len(model.tree.left) == 1 and model.tree.left[0] < 0
        assert (model.predict(x) == 0).all()

    @pytest.mark.parametrize("kind", ["dt", "rf", "et"])
    def test_one_class_grows_single_leaves(self, kind, rng):
        model = fit_model(rng.uniform(size=(30, 4)), np.full(30, 7),
                          ClassifierConfig(kind=kind, n_trees=3))
        trees = model.trees if kind != "dt" else [model.tree]
        assert [t.value.tolist() for t in trees] == [[[30]]] * len(trees)
        assert all(len(t.left) == 1 for t in trees)
        assert (model.predict(rng.uniform(size=(5, 4))) == 7).all()

    @pytest.mark.parametrize("kind", ["dt", "rf", "et"])
    def test_no_feature_columns_grow_single_leaves(self, kind):
        model = fit_model(np.zeros((6, 0)), np.array([0, 1, 1, 0, 1, 1]),
                          ClassifierConfig(kind=kind, n_trees=2))
        assert all(len(t.left) == 1 for t in (model.trees if kind != "dt" else [model.tree]))
        assert len(model.predict(np.zeros((3, 0)))) == 3

    def test_empty_training_set_rejected(self):
        with pytest.raises(TrainingError):
            fit_model(np.empty((0, 1)), np.empty(0, dtype=int), ClassifierConfig(kind="dt"))

    def test_consistent_data_perfect_fit(self, rng):
        x = rng.uniform(size=(60, 3))
        y = rng.integers(0, 3, size=60)
        model = fit_model(x, y, ClassifierConfig(kind="dt"))
        assert (model.predict(x) == y).all()

    @pytest.mark.parametrize("kind", ["dt", "gbt"])
    def test_adjacent_floats_split(self, kind):
        lo = 0.58
        hi = np.nextafter(lo, 1.0)
        assert (lo + hi) / 2.0 == hi  # the midpoint rounds up to the higher value
        x, y = np.array([[lo], [hi]]), np.array([0, 1])
        model = fit_model(x, y, ClassifierConfig(kind=kind, n_rounds=3))
        assert (model.predict(x) == y).all()
        tree = model.tree if kind == "dt" else model.stages[0][0]
        assert tree.threshold[0] == lo

    def test_deep_tree_saves_and_loads(self, tmp_path):
        # alternating labels on one feature: one split per row, n - 1 levels deep
        for n in (1000, 10000):
            x, y = np.arange(float(n)).reshape(-1, 1), np.arange(n) % 2
            model = fit_model(x, y, ClassifierConfig(kind="dt"))
            assert len(model.tree.left) == 2 * n - 1 and tree_depth(model.tree) == n - 1
            # the decreases telescope to the root's n rows x 1 bit of entropy
            assert mean_impurity_decrease(model).tolist() == pytest.approx([n])
            save_model(model, tmp_path / "model.json")
            clone = load_model(tmp_path / "model.json")
            assert same_tree(clone.tree, model.tree)
            assert (clone.predict(x) == y).all() and (model.predict(x) == y).all()


class TestTreeApply:
    @staticmethod
    def walk(tree, row):
        """Reference: follow one row from the root, ties going left."""
        node = 0
        while tree.left[node] >= 0:
            go_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        return node

    @staticmethod
    def trees(model):
        if model.kind == "dt":
            return [model.tree]
        if model.kind == "gbt":
            return [stage for stages in model.stages for stage in stages]
        return model.trees

    @staticmethod
    def ties(tree, width):
        """Rows sitting exactly on every threshold, on every feature."""
        return np.tile(tree.threshold[tree.left >= 0][:, None], (1, width))

    def test_matches_per_row_walk(self, rng):
        for kind in ("dt", "rf", "et", "gbt"):
            x = np.round(rng.uniform(size=(80, 3)), 1)
            y = rng.integers(0, 3, size=80)
            cfg = ClassifierConfig(kind=kind, n_trees=3, n_rounds=2, seed=4)
            for tree in self.trees(fit_model(x, y, cfg)):
                q = np.vstack([x, rng.uniform(-0.5, 1.5, size=(40, 3)), self.ties(tree, 3)])
                expected = [self.walk(tree, row) for row in q]
                assert tree.apply(q).tolist() == expected
                assert (tree.left[tree.apply(q)] < 0).all()

    def test_f_ordered_column_slice(self, rng):
        # the pipeline scores numeric_features()[:, vector], an F-ordered copy
        x = np.round(rng.uniform(size=(150, 3)), 1)
        y = rng.integers(0, 3, size=150)
        for kind in ("dt", "rf", "gbt"):
            model = fit_model(x, y, ClassifierConfig(kind=kind, n_trees=4, n_rounds=2, seed=8))
            q = np.vstack([x, *(self.ties(tree, 3) for tree in self.trees(model))])
            stored = np.empty_like(q)
            stored[:, [2, 0, 1]] = q
            sliced = stored[:, [2, 0, 1]]
            assert not sliced.flags.c_contiguous
            for tree in self.trees(model):
                assert tree.apply(sliced).tolist() == [self.walk(tree, row) for row in q]
            assert np.array_equal(model.score(sliced), model.score(q))

    def test_zero_rows(self, rng):
        x, y = rng.uniform(size=(60, 3)), rng.integers(0, 2, size=60)
        for kind in ("dt", "rf", "gbt"):
            model = fit_model(x, y, ClassifierConfig(kind=kind, n_trees=2, n_rounds=2))
            for tree in self.trees(model):
                leaves = tree.apply(np.zeros((0, 3)))
                assert leaves.shape == (0,) and leaves.dtype == np.int64
            assert model.score(np.zeros((0, 3))).shape == (0, 2)

    def test_single_leaf_on_zero_features(self):
        model = fit_model(np.zeros((6, 0)), np.array([0, 1, 0, 1, 1, 0]),
                          ClassifierConfig(kind="dt"))
        assert len(model.tree.left) == 1
        assert model.tree.apply(np.zeros((4, 0))).tolist() == [0, 0, 0, 0]
        assert model.score(np.zeros((4, 0))).tolist() == [[0.5, 0.5]] * 4

    def test_deep_unbalanced_tree(self):
        # alternating labels: every cut peels one row off, about 1,000 levels deep
        x = np.arange(1000.0)[:, None]
        model = fit_model(x, np.arange(1000) % 2, ClassifierConfig(kind="dt"))
        tree = model.tree
        q = np.vstack([x, self.ties(tree, 1), [[-1.0], [1e6]]])
        assert tree.apply(q).tolist() == [self.walk(tree, row) for row in q]

    def test_nan_cell_goes_right(self, rng):
        x = np.round(rng.uniform(size=(100, 3)), 1)
        y = rng.integers(0, 3, size=100)
        for kind in ("dt", "rf", "gbt"):
            model = fit_model(x, y, ClassifierConfig(kind=kind, n_trees=3, n_rounds=2, seed=5))
            for tree in self.trees(model):
                q = np.vstack([x, self.ties(tree, 3)])
                q[::2, tree.feature[0]] = np.nan  # at the root's split, among ties
                assert tree.apply(q).tolist() == [self.walk(tree, row) for row in q]
                # every row with NaN at the root ends in its right subtree
                assert (tree.apply(q[::2]) >= tree.right[0]).all()


class TestEnsembles:
    def test_majority_vote_fraction(self):
        x, y = xor_clusters(80, seed=1)
        rf = fit_model(x, y, ClassifierConfig(kind="rf", n_trees=4, seed=5))
        scores = rf.score(x)
        assert np.allclose(scores.sum(axis=1), 1.0)
        assert set(np.round(scores * 4).astype(int).ravel()) <= {0, 1, 2, 3, 4}

    def test_same_seed_identical_forests(self):
        x, y = xor_clusters(40, seed=2)
        cfg = ClassifierConfig(kind="rf", n_trees=5, seed=11)
        f1, f2 = fit_model(x, y, cfg), fit_model(x, y, cfg)
        assert all(same_tree(a, b) for a, b in zip(f1.trees, f2.trees))

    def test_et_same_seed_identical(self):
        x, y = xor_clusters(40, seed=3)
        cfg = ClassifierConfig(kind="et", n_trees=5, seed=11)
        f1, f2 = fit_model(x, y, cfg), fit_model(x, y, cfg)
        assert all(same_tree(a, b) for a, b in zip(f1.trees, f2.trees))

    def test_training_accuracy_beats_chance(self, rng):
        for kind in ("rf", "et", "gbt"):
            x = rng.uniform(size=(50, 4))
            y = rng.integers(0, 2, size=50)
            cfg = ClassifierConfig(kind=kind, n_trees=10, n_rounds=10, seed=1)
            model = fit_model(x, y, cfg)
            acc = (model.predict(x) == y).mean()
            prior = max(np.bincount(y)) / len(y)
            assert acc >= prior - 0.01


class TestGradientBoosting:
    def test_single_update_rule(self):
        # base 0, one stage predicting +2, learning rate 0.1 -> raw 0.2
        stage = Tree([-1], [0.0], [2.0])
        model = GradientBoostedModel(ClassifierConfig(kind="gbt"),
                                     np.array([0, 1]), 1, [0.0], [[stage]], [[0.0]])
        assert model.score(np.zeros((1, 1)))[0, 1] == pytest.approx(1 / (1 + np.exp(-0.2)))

    def test_separable_perfect_fit(self):
        x, y = separable_1d()
        model = fit_model(x, y, ClassifierConfig(kind="gbt", n_rounds=50,
                                                 gbt_max_depth=1))
        assert (model.predict(x) == y).all()

    def test_stage_count_matches_rounds(self):
        x, y = separable_1d()
        model = fit_model(x, y, ClassifierConfig(kind="gbt", n_rounds=7))
        assert all(len(stages) == 7 for stages in model.stages)

    def test_objective_non_increasing(self, rng):
        for _ in range(5):
            n = int(rng.integers(10, 40))
            x = rng.uniform(size=(n, 3))
            y = rng.integers(0, 2, size=n)
            y[:2] = [0, 1]
            model = fit_model(x, y, ClassifierConfig(kind="gbt", n_rounds=20))
            for trace in model.objective_traces:
                assert all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))

    def test_multiclass_one_vs_rest(self, rng):
        x = rng.uniform(size=(60, 2))
        y = (x[:, 0] * 3).astype(np.int64).clip(0, 2)
        model = fit_model(x, y, ClassifierConfig(kind="gbt", n_rounds=20))
        assert len(model.stages) == 3
        scores = model.score(x)
        assert np.allclose(scores.sum(axis=1), 1.0)
        assert (model.predict(x) == y).mean() > 0.9


class TestNaiveBayes:
    def test_priors_from_counts(self, rng):
        x = rng.uniform(size=(100, 2))
        y = np.array([0] * 30 + [1] * 70)
        model = fit_model(x, y, ClassifierConfig(kind="nb"))
        priors = np.exp(model.log_priors)
        assert priors[0] == pytest.approx(0.3)
        assert priors.sum() == pytest.approx(1.0)

    def test_single_class_always_predicted(self, rng):
        x = rng.uniform(size=(10, 2))
        model = fit_model(x, np.zeros(10, dtype=int), ClassifierConfig(kind="nb"))
        assert (model.predict(rng.uniform(size=(5, 2))) == 0).all()

    def test_symmetric_tie_breaks_low(self):
        # values exactly representable in binary so the posteriors tie exactly
        x = np.array([[-0.25], [0.25], [0.75], [1.25]])
        y = np.array([0, 0, 1, 1])
        model = fit_model(x, y, ClassifierConfig(kind="nb"))
        post = model.score(np.array([[0.5]]))
        assert post[0, 0] == pytest.approx(post[0, 1], abs=1e-9)
        assert model.predict(np.array([[0.5]]))[0] == 0

    def test_posterior_rows_sum_to_one(self, rng):
        x = rng.uniform(size=(30, 3))
        y = rng.integers(0, 3, size=30)
        y[:3] = [0, 1, 2]
        model = fit_model(x, y, ClassifierConfig(kind="nb"))
        post = model.score(rng.uniform(size=(10, 3)))
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-9)

    def test_log_space_shift_invariance(self, rng):
        # scaling all likelihoods of a row by a positive constant is a log
        # shift; the argmax must not move
        x = rng.uniform(size=(40, 2))
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]
        model = fit_model(x, y, ClassifierConfig(kind="nb"))
        q = rng.uniform(size=(10, 2))
        raw = model.log_priors[None, :] + model._log_likelihood(q)
        shifted = raw + 7.3
        assert np.array_equal(np.argmax(raw, axis=1), np.argmax(shifted, axis=1))


class TestSvm:
    def test_decision_is_linear_score(self):
        model = SvmModel(ClassifierConfig(kind="svm"), np.array([0, 1]), 2,
                         [[1.0, 0.0]], [0.0], [[0.0]])
        assert model.score(np.array([[2.0, 0.0]])).tolist() == [[-2.0, 2.0]]
        assert model.predict(np.array([[2.0, 0.0]]))[0] == 1

    def test_symmetric_separable_pair(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = fit_model(x, y, ClassifierConfig(kind="svm"))
        assert (model.predict(x) == y).all()
        boundary = -model.biases[0] / model.weights[0, 0]
        assert abs(boundary) < 0.2

    def test_degenerate_single_class(self):
        model = fit_model(np.array([[1.0], [2.0]]), np.array([1, 1]),
                          ClassifierConfig(kind="svm"))
        assert model.flags.get("degenerate")
        assert (model.predict(np.array([[9.0]])) == 1).all()

    def test_objective_non_increasing(self, rng):
        for _ in range(5):
            n = int(rng.integers(6, 30))
            x = rng.normal(size=(n, 2))
            y = rng.integers(0, 2, size=n)
            y[:2] = [0, 1]
            model = fit_model(x, y, ClassifierConfig(kind="svm", max_iters=200))
            for trace in model.objective_traces:
                assert all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))

    def test_objective_value_definition(self):
        w, b = np.array([1.0, -1.0]), 0.5
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y_pm = np.array([1.0, -1.0])
        # by hand: 0.5*||w||^2 + C*(hinge(1*1.5) + hinge(-1*(-0.5)))
        expected = 0.5 * 2.0 + 2.0 * (0.0 + 0.5)
        objective, margins = svm_objective(w, b, x, y_pm, 2.0)
        assert objective == pytest.approx(expected)
        assert margins.tolist() == [1.5, 0.5]

    def test_multiclass_one_vs_rest(self, rng):
        x = rng.uniform(size=(90, 2))
        y = (x[:, 0] * 3).astype(np.int64).clip(0, 2)
        model = fit_model(x, y, ClassifierConfig(kind="svm", max_iters=300))
        assert model.weights.shape == (3, 2)
        assert (model.predict(x) == y).mean() > 0.7


class TestUniformContract:
    def test_one_model_class_per_kind(self):
        assert set(_MODEL_CLASSES) == set(MODEL_KINDS)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_class_fits_and_scores_its_kind(self, kind):
        assert {"fit", "score"} <= _MODEL_CLASSES[kind].__dict__.keys()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_empty_data_rejected(self, kind):
        with pytest.raises(TrainingError):
            fit_model(np.empty((0, 2)), [], ClassifierConfig(kind=kind))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_data_rejected(self, kind, bad):
        # trees at depth 4, so that a fit that lets NaN through still ends
        x, y = xor_clusters(40, seed=3)
        x[7, 1] = bad
        with pytest.raises(TrainingError, match="NaN or infinite"):
            fit_model(x, y, ClassifierConfig(kind=kind, max_depth=4, n_trees=3, n_rounds=3,
                                             max_iters=20))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("x, y", [
        (np.zeros((5, 2)), [0, 1, 2]),
        (np.zeros(3), [0, 1, 2]),
        (np.zeros((3, 2)), [[0], [1], [2]]),
    ], ids=["3 labels for 5 rows", "1-D x", "2-D labels"])
    def test_mismatched_shapes_rejected(self, kind, x, y):
        with pytest.raises(TrainingError, match="needs one row per label"):
            fit_model(x, y, ClassifierConfig(kind=kind))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_list_labels_keep_their_ids(self, kind, tmp_path, rng):
        x, _ = xor_clusters(60, seed=10)
        y = [(3, 7, 9)[i % 3] for i in range(60)]
        cfg = ClassifierConfig(kind=kind, n_trees=3, n_rounds=3, max_iters=20)
        model = fit_model(x.tolist(), y, cfg)
        assert model.classes.tolist() == [3, 7, 9]
        q = rng.uniform(size=(20, 2))
        assert set(model.predict(q).tolist()) <= {3, 7, 9}
        save_model(model, tmp_path / "model.json")
        clone = load_model(tmp_path / "model.json")
        assert np.array_equal(clone.predict(q), model.predict(q))

    @pytest.mark.parametrize("kind", ["dt", "rf", "et", "gbt", "nb", "svm"])
    def test_predict_shape_and_determinism(self, kind, rng):
        x, y = xor_clusters(60, seed=4)
        cfg = ClassifierConfig(kind=kind, n_trees=5, n_rounds=5, max_iters=50,
                               seed=3)
        m1, m2 = fit_model(x, y, cfg), fit_model(x, y, cfg)
        q = rng.uniform(size=(25, 2))
        assert np.array_equal(m1.predict(q), m2.predict(q))
        assert len(m1.predict(q)) == 25

    @pytest.mark.parametrize("kind", ["dt", "rf", "et", "gbt", "nb"])
    def test_probability_scores_normalized(self, kind):
        x, y = xor_clusters(60, seed=5)
        cfg = ClassifierConfig(kind=kind, n_trees=5, n_rounds=5, seed=3)
        model = fit_model(x, y, cfg)
        scores = model.score(x)
        assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("kind", ["dt", "rf", "et", "gbt", "nb", "svm"])
    def test_feature_count_mismatch_rejected(self, kind):
        x, y = xor_clusters(40, seed=6)
        cfg = ClassifierConfig(kind=kind, n_trees=3, n_rounds=3, max_iters=20)
        model = fit_model(x, y, cfg)
        with pytest.raises(SchemaError):
            model.predict(np.zeros((2, 5)))

    @pytest.mark.parametrize("kind", ["dt", "rf", "et"])
    def test_tree_kind_survives_round_trip(self, kind, tmp_path):
        x, y = xor_clusters(40, seed=8)
        cfg = ClassifierConfig(kind=kind, n_trees=2, seed=1)
        model = fit_model(x, y, cfg)
        save_model(model, tmp_path / "model.json")
        clone = load_model(tmp_path / "model.json")
        assert model.kind == clone.kind == clone.config.kind == cfg.kind

    @pytest.mark.parametrize("kind", ["dt", "rf", "et", "gbt", "nb", "svm"])
    def test_serialization_round_trip(self, kind, tmp_path, rng):
        x, y = xor_clusters(60, seed=7)
        cfg = ClassifierConfig(kind=kind, n_trees=4, n_rounds=4, max_iters=50,
                               seed=9)
        model = fit_model(x, y, cfg)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        clone = load_model(path)
        q = rng.uniform(size=(30, 2))
        assert np.array_equal(model.predict(q), clone.predict(q))
        assert np.array_equal(model.score(q), clone.score(q))
        save_model(clone, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @staticmethod
    def tree_docs(doc):
        """The tree documents of a dt, rf, et or gbt model document."""
        params = doc["params"]
        if doc["kind"] == "dt":
            return [params["root"]]
        return params.get("trees") or [s for c in params["chains"] for s in c["stages"]]

    @pytest.mark.parametrize("kind", ["dt", "rf", "gbt"])
    def test_split_on_a_missing_feature_rejected_on_load(self, kind, tmp_path):
        model = fit_model(*xor_clusters(40, seed=6),
                          ClassifierConfig(kind=kind, n_trees=2, n_rounds=2))
        doc = model.to_dict()
        root = self.tree_docs(doc)[0]
        assert root["feature"][0] in (0, 1)
        root["feature"][0] = 7
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="model.json: a split names a feature "
                                              r"outside \[0, 2\)"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["dt"])
    def test_leaf_counts_short_of_the_classes_rejected_on_load(self, kind, tmp_path):
        model = fit_model(*xor_clusters(40, seed=6), ClassifierConfig(kind=kind))
        doc = model.to_dict()
        for tree in self.tree_docs(doc):
            tree["counts"] = [counts[:-1] for counts in tree["counts"]]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="model.json: leaf counts have 1 entries "
                                              "for 2 classes"):
            load_model(path)

    @pytest.mark.parametrize("kind, edit, message", [
        ("dt", lambda doc: doc.update(classes=[9, 7, 3]),
         r"classes \[9, 7, 3\] are not distinct ascending integers"),
        ("dt", lambda doc: doc.update(classes=[3, 3, 9]), "classes .* are not distinct"),
        ("dt", lambda doc: doc.update(classes=[0.5, 1.7, 9]), "classes .* are not distinct"),
        ("dt", lambda doc: doc.update(classes=[False, True, 9]), "classes .* are not distinct"),
        ("dt", lambda doc: doc.update(classes=[]), r"classes \[\] are not distinct"),
        ("nb", lambda doc: doc.update(classes=[3, 7, 2 ** 70]), ".*(too large|out of bounds)"),
        ("dt", lambda doc: doc.update(n_features=2.5),
         "n_features must be an integer >= 0, got 2.5"),
        ("dt", lambda doc: doc.update(n_features=True), "n_features must be an integer"),
        ("nb", lambda doc: doc.update(n_features=-1), "n_features must be an integer >= 0"),
        ("nb", lambda doc: doc["params"]["means"].pop(),
         r"means have shape \(2, 2\), the model needs \(3, 2\)"),
        ("nb", lambda doc: doc["params"]["log_priors"].pop(),
         r"log_priors have shape \(2,\), the model needs \(3,\)"),
        ("nb", lambda doc: [row.append(1.0) for row in doc["params"]["variances"]],
         r"variances have shape \(3, 3\)"),
        ("nb", lambda doc: doc["params"]["variances"][2].__setitem__(0, 0.0),
         "variances must be finite and positive"),
        ("nb", lambda doc: doc["params"]["variances"][0].__setitem__(1, float("nan")),
         r"variances\[0, 1\] must be a finite number .*, got nan"),
        ("nb", lambda doc: doc["params"]["means"][1].__setitem__(0, float("nan")),
         r"means\[1, 0\] must be a finite number .*, got nan"),
        ("nb", lambda doc: doc["params"]["log_priors"].__setitem__(2, float("inf")),
         r"log_priors\[2\] must be a finite number .*, got inf"),
        ("svm", lambda doc: doc["params"]["weights"].pop(),
         r"weights have shape \(2, 2\), the model needs \(3, 2\)"),
        ("svm", lambda doc: doc["params"]["biases"].pop(),
         r"biases have shape \(2,\), the model needs \(3,\)"),
        ("svm", lambda doc: doc["params"]["weights"][0].__setitem__(1, float("nan")),
         r"weights\[0, 1\] must be a finite number .*, got nan"),
        ("svm", lambda doc: doc["params"]["biases"].__setitem__(0, "1"),
         r"biases\[0\] must be a finite number .*, got '1'"),
        ("svm", lambda doc: doc["params"]["biases"].__setitem__(1, True),
         r"biases\[1\] must be a finite number .*, got True"),
        ("gbt", lambda doc: doc["params"]["chains"].pop(), "2 chains, the model needs 3"),
        ("gbt", lambda doc: doc["params"]["chains"][0].update(base_score=float("nan")),
         "base_score must be a finite number .*, got nan"),
        ("gbt", lambda doc: doc["params"]["chains"][1].update(base_score=float("inf")),
         "base_score must be a finite number .*, got inf"),
        ("gbt", lambda doc: doc["params"]["chains"][2].update(base_score="x"),
         "base_score must be a finite number .*, got 'x'"),
        ("gbt", lambda doc: doc["params"]["chains"][0].update(base_score=True),
         "base_score must be a finite number .*, got True"),
        ("rf", lambda doc: doc["params"].update(trees=[]), "a forest needs at least one tree"),
        ("rf", lambda doc: doc["config"].update(kind="dt"),
         "config kind 'dt' is not the file's 'rf'"),
    ], ids=["reversed classes", "repeated class", "fractional classes", "boolean classes",
            "no classes", "class beyond int64", "fractional n_features", "boolean n_features",
            "negative n_features", "nb means short of a class", "nb log_priors short",
            "nb variances of another width", "nb zero variance", "nb NaN variance",
            "nb NaN mean", "nb infinite log prior", "svm short of a chain",
            "svm biases short", "svm NaN weight", "svm string bias", "svm boolean bias",
            "gbt short of a chain", "gbt NaN base score", "gbt infinite base score",
            "gbt string base score", "gbt boolean base score", "rf without trees",
            "rf file of a dt config"])
    def test_malformed_header_or_parameters_rejected_on_load(self, kind, edit, message,
                                                             tmp_path):
        x, _ = xor_clusters(60, seed=10)
        y = [(3, 7, 9)[i % 3] for i in range(60)]
        model = fit_model(x, y, ClassifierConfig(kind=kind, n_trees=2, n_rounds=2, max_iters=20))
        doc = model.to_dict()
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"model.json: {message}"):
            load_model(path)

    @pytest.mark.parametrize("kind, edit, message", [
        ("dt", lambda tree: tree["feature"].__setitem__(0, 0.7),
         r"feature\[0\] must be an integer >= -1, got 0.7"),
        ("dt", lambda tree: tree["feature"].__setitem__(0, True),
         r"feature\[0\] must be an integer >= -1, got True"),
        ("dt", lambda tree: tree["threshold"].__setitem__(0, "nan"),
         r"threshold\[0\] must be a finite number in \[-inf, inf\], got 'nan'"),
        ("gbt", lambda tree: tree["threshold"].__setitem__(0, float("inf")),
         r"threshold\[0\] must be a finite number in \[-inf, inf\], got inf"),
        ("dt", lambda tree: tree["counts"].__setitem__(0, [-5, 3]),
         r"counts\[0\] must be an integer >= 0, got -5"),
        ("dt", lambda tree: (tree["feature"].__setitem__(-1, 0), tree["threshold"].append(0.5),
                             tree["counts"].pop()),
         "feature does not lay out one complete binary tree in preorder"),
        ("rf", lambda tree: (tree["feature"].append(-1), tree["vote"].append(0)),
         "feature does not lay out one complete binary tree in preorder"),
        ("dt", lambda tree: tree["feature"].clear(),
         "feature does not lay out one complete binary tree in preorder"),
        ("dt", lambda tree: tree["counts"].pop(),
         "a tree of 21 nodes, 10 of them splits, holds 10 thresholds and 10 leaves"),
        ("gbt", lambda tree: tree["threshold"].append(0.5),
         "a tree of 11 nodes, 5 of them splits, holds 6 thresholds and 6 leaves"),
        ("rf", lambda tree: tree["vote"].__setitem__(0, 2),
         r"a leaf votes for a class outside \[0, 2\)"),
        ("rf", lambda tree: tree["vote"].__setitem__(0, -1),
         r"vote\[0\] must be an integer >= 0, got -1"),
        ("et", lambda tree: tree["vote"].__setitem__(0, True),
         r"vote\[0\] must be an integer >= 0, got True"),
        ("gbt", lambda tree: tree["weight"].__setitem__(0, float("nan")),
         r"weight\[0\] must be a finite number in \[-inf, inf\], got nan"),
        ("dt", lambda tree: tree["feature"].__setitem__(0, -2),
         r"feature\[0\] must be an integer >= -1, got -2"),
        ("dt", lambda tree: tree.update(threshold=0.5), "threshold must be a list, got float"),
        ("rf", lambda tree: tree.update(counts=tree.pop("vote")),
         r"a tree holds \['counts', 'feature', 'threshold'\], the trees of this model hold "
         r"\['feature', 'threshold', 'vote'\]"),
        ("dt", lambda tree: tree.update(left=[1], right=[2]), r"a tree holds \['counts', "
         r"'feature', 'left', 'right', 'threshold'\]"),
    ], ids=["fractional feature", "boolean feature", "string threshold", "infinite threshold",
            "negative count", "too few leaves", "a node after the last leaf", "no nodes",
            "counts of one leaf too few", "one threshold too many", "vote beyond the classes",
            "negative vote", "boolean vote", "NaN weight", "negative feature",
            "threshold not a list", "forest tree with counts",
            "tree with child lists"])
    def test_malformed_tree_rejected_on_load(self, kind, edit, message, tmp_path):
        model = fit_model(*xor_clusters(40, seed=6),
                          ClassifierConfig(kind=kind, n_trees=2, n_rounds=2))
        doc = model.to_dict()
        edit(self.tree_docs(doc)[0])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"model.json: {message}"):
            load_model(path)

    def test_version_3_file_asks_for_a_retrain(self, tmp_path):
        # a dt model file as version 3 wrote it: one nested leaf
        doc = fit_model(*xor_clusters(40, seed=6), ClassifierConfig(kind="dt")).to_dict()
        doc.update(version=3, params={"root": {"counts": [20, 20]}})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="model.json has version 3, this fuzzids reads "
                                              "version 4: retrain the model"):
            load_model(path)


def digest_datasets():
    """Small datasets that reach the tree engine's paths: continuous values,
    ties and constant columns, many classes, one class, two features."""
    r = np.random.default_rng(2024)
    x = r.normal(size=(150, 5))
    yield x, (x[:, 0] + r.normal(0, 0.7, 150) > 0).astype(np.int64) + (x[:, 1] > 1)
    yield tie_heavy(r, 150)
    x = np.round(r.normal(size=(180, 6)), 1)
    yield x, np.clip((x[:, 0] * 3 + 6 + r.normal(0, 1, 180)).astype(np.int64), 0, 11)
    yield r.normal(size=(40, 3)), np.full(40, 2)
    x = r.normal(size=(120, 2))
    yield x, ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(np.int64)


def update_digest(digest, model, x, path):
    """Feed ``digest`` a fit's in-memory arrays, its score matrix on ``x`` and
    the score matrix of its ``save_model`` / ``load_model`` copy at ``path``;
    no byte of the model file itself, so the digest outlives a file format
    that keeps every model's bits."""
    trees = []
    if model.kind == "nb":
        arrays = [model.log_priors, model.means, model.variances]
    elif model.kind == "svm":
        arrays = [model.weights, model.biases, *map(np.array, model.objective_traces)]
    elif model.kind == "gbt":
        arrays = [np.array(model.base_scores), *map(np.array, model.objective_traces)]
        trees = [tree for stages in model.stages for tree in stages]
    else:
        arrays, trees = [], [model.tree] if model.kind == "dt" else model.trees
    arrays += [getattr(tree, name) for tree in trees
               for name in ("feature", "threshold", "left", "right", "value")]
    digest.update(json.dumps(model.flags, sort_keys=True).encode())
    for array in (model.classes, *arrays, model.score(x)):
        digest.update(array.tobytes())
    save_model(model, path)
    digest.update(load_model(path).score(x).tobytes())


# sha256 of the 20 fits of each tree kind in test_tree_fits_keep_their_digest.
# A change that alters a kind's models regenerates its digest and says why.
FITS_DIGESTS = {
    "dt": "96608b76d3553d5c86effda90e516a0d3b394195efa31be773907ba223fd87ff",
    "rf": "4c2413ae1c02447ee0780235aed6e1dd4c5d05ac95991056a1ce17877a9ad2d7",
    "et": "d9d7b6600bdd7e1fd6f997e54ab90484555ac2e6a105b3349b6a8215334f6655",
    "gbt": "f83dbdb36722db63c8677d6ac82fac641d60d19672d66b2492aab44620f9aefc",
}


def test_tree_fits_keep_their_digest(tmp_path):
    # fits of dt/rf/et/gbt x entropy/gini x unlimited and depth 4; no score
    # goes through BLAS
    digests = {kind: hashlib.sha256() for kind in FITS_DIGESTS}
    for x, y in digest_datasets():
        for kind, digest in digests.items():
            for impurity in ("entropy", "gini"):
                for depth in (None, 4):
                    config = ClassifierConfig(kind=kind, impurity=impurity, max_depth=depth,
                                              gbt_max_depth=depth or 6, n_trees=5,
                                              n_rounds=3, seed=7)
                    update_digest(digest, fit_model(x, y, config), x,
                                  tmp_path / "model.json")
    changed = [kind for kind, digest in digests.items()
               if digest.hexdigest() != FITS_DIGESTS[kind]]
    assert not changed, f"the {', '.join(changed)} fits changed"


# sha256 of the svm fits of test_svm_fits_keep_their_digest. Their margins go
# through BLAS, so like the nb_svm golden files it holds for one BLAS build.
SVM_FITS_DIGEST = "4ad7a72194ba2fead8d9059981eeacb0ba36572b1d092e6aaff67fa587106796"


def test_svm_fits_keep_their_digest(tmp_path):
    # fits on C- and F-ordered copies of each dataset,
    # plus a larger binary set that runs the chain for many iterations
    r = np.random.default_rng(77)
    big = r.normal(size=(2000, 12))
    datasets = [*digest_datasets(), (big, (big[:, :3].sum(axis=1) > 0.5).astype(np.int64))]
    digest = hashlib.sha256()
    for x, y in datasets:
        for layout in ("C", "F"):
            model = fit_model(np.asarray(x, order=layout), y,
                              ClassifierConfig(kind="svm", max_iters=80))
            update_digest(digest, model, x, tmp_path / "model.json")
    assert digest.hexdigest() == SVM_FITS_DIGEST


BENCH = Path(__file__).resolve().parents[1] / "bench"
# a mix of heavy-tailed counts, small counts and rates
CORPUS_COLUMNS = ["duration", "src_bytes", "dst_bytes", "hot", "count", "srv_count",
                  "serror_rate", "same_srv_rate", "diff_srv_rate", "dst_host_count",
                  "dst_host_srv_count", "dst_host_same_srv_rate", "dst_host_serror_rate",
                  "dst_host_rerror_rate"]


def corpus_slice(path):
    """3,000 x 14 numeric slice of a benchmark corpus file, and its class codes."""
    sys.path.insert(0, str(BENCH))
    try:
        import corpus
    finally:
        sys.path.remove(str(BENCH))
    corpus.write_csv(path, corpus.scaled_counts(corpus.TRAIN_COUNTS, 3000), 5)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))[:3000]
    x = np.array([[float(row[c]) for c in CORPUS_COLUMNS] for row in rows])
    return x, np.array([corpus.LABEL_ENCODING[row["class"]] for row in rows])


# sha256 of the fits of test_large_fits_keep_their_digest, whose roots hold
# more than BLOCK_CELLS (feature x row) cells.
LARGE_FITS_DIGEST = "a5daabfd341c73013286ecfc8e6fdbc7bc6f36b0d520fafe3595108077f82901"


def test_large_fits_keep_their_digest(tmp_path):
    x, y = corpus_slice(tmp_path / "train.csv")
    assert x.size > tree_engine.BLOCK_CELLS and len(np.unique(y)) == 5
    digest = hashlib.sha256()
    for labels, config in (
            (y, ClassifierConfig(kind="dt", impurity="entropy")),
            (y, ClassifierConfig(kind="dt", impurity="gini")),
            (y, ClassifierConfig(kind="gbt", n_rounds=3, gbt_max_depth=4)),
            (y == 0, ClassifierConfig(kind="gbt", n_rounds=3, gbt_max_depth=4))):
        update_digest(digest, fit_model(x, labels, config), x, tmp_path / "model.json")
    assert digest.hexdigest() == LARGE_FITS_DIGEST
