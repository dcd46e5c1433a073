import numpy as np
import pytest

from fuzzids.errors import EvaluationError
from fuzzids.evaluate import (
    ConfusionMatrix,
    auc,
    confusion,
    f1_score,
    macro_metrics,
    metrics,
    multiclass_auc,
    roc_curve,
    roc_vertices,
)


def auc_score(y, scores):
    return auc(roc_curve(y, scores))


def wilcoxon_auc(y, scores):
    """Independent oracle: pairwise comparison probability, ties count half."""
    pos = scores[np.asarray(y) == 1]
    neg = scores[np.asarray(y) == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestConfusion:
    def test_direct_binary_count(self):
        cm = confusion([1, 1, 0, 0], [1, 0, 0, 0], 2)
        tn, fp, fn, tp = cm.binary_view(1)
        assert (tn, fp, fn, tp) == (2, 0, 1, 1)

    def test_perfect_prediction_diagonal(self):
        y = [0, 1, 2, 1, 0]
        cm = confusion(y, y, 3)
        off_diag = cm.counts - np.diag(np.diag(cm.counts))
        assert off_diag.sum() == 0

    def test_empty_inputs_zero_matrix(self):
        cm = confusion([], [], 3)
        assert cm.counts.sum() == 0

    def test_out_of_range_label_rejected(self):
        with pytest.raises(EvaluationError):
            confusion([0, 3], [0, 1], 2)

    def test_row_sums_are_support(self, rng):
        y = rng.integers(0, 4, size=200)
        pred = rng.integers(0, 4, size=200)
        cm = confusion(y, pred, 4)
        assert cm.counts.sum(axis=1).tolist() == np.bincount(y, minlength=4).tolist()


class TestMetrics:
    def test_hand_evaluated_cell(self):
        # TP 50, TN 35, FP 10, FN 5
        cm = ConfusionMatrix(np.array([[35, 10], [5, 50]]))
        rep = metrics(cm, positive_class=1)
        assert rep.accuracy == pytest.approx(0.85)
        assert rep.precision == pytest.approx(0.8333, abs=5e-5)
        assert rep.recall == pytest.approx(0.9091, abs=5e-5)
        assert rep.f1 == pytest.approx(0.8696, abs=5e-5)
        assert rep.error == pytest.approx(0.15)

    def test_f1_harmonic_mean(self):
        # exact harmonic mean of (0.950, 0.806); acceptance criterion 1 pins it
        # to 7657/8780 and anchors the published macro row 0.950/0.806/0.870
        assert f1_score(0.950, 0.806) == pytest.approx(0.872096, abs=5e-7)

    def test_zero_over_zero_flagged(self):
        cm = ConfusionMatrix(np.array([[3, 0], [0, 0]]))
        rep = metrics(cm, positive_class=1)
        assert rep.precision == 0.0 and rep.recall == 0.0
        assert "precision_undefined" in rep.undefined_flags

    def test_error_is_one_minus_accuracy(self, rng):
        y = rng.integers(0, 2, size=50)
        pred = rng.integers(0, 2, size=50)
        rep = metrics(confusion(y, pred, 2))
        assert rep.error == 1.0 - rep.accuracy

    def test_oracle_equivalence_random(self, rng):
        """Metrics from the confusion matrix equal direct per-sample counting."""
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            y = rng.integers(0, 2, size=n)
            pred = rng.integers(0, 2, size=n)
            rep = metrics(confusion(y, pred, 2))
            tp = int(((y == 1) & (pred == 1)).sum())
            fp = int(((y == 0) & (pred == 1)).sum())
            fn = int(((y == 1) & (pred == 0)).sum())
            tn = int(((y == 0) & (pred == 0)).sum())
            assert rep.accuracy == ((tp + tn) / n)
            assert rep.precision == (tp / (tp + fp) if tp + fp else 0.0)
            assert rep.recall == (tp / (tp + fn) if tp + fn else 0.0)
            assert rep.error == 1.0 - (tp + tn) / n
            pr, rc = rep.precision, rep.recall
            assert rep.f1 == (2 * pr * rc / (pr + rc) if pr + rc else 0.0)


class TestMacroMetrics:
    def test_perfect_multiclass(self):
        y = [0, 1, 2] * 5
        rep = macro_metrics(confusion(y, y, 3))
        assert rep.accuracy == 1.0
        assert rep.precision == rep.recall == rep.f1 == 1.0
        assert all(v["f1"] == 1.0 for v in rep.per_class.values())

    def test_uniform_random_accuracy_third(self, rng):
        n = 10_000
        y = rng.integers(0, 3, size=n)
        pred = rng.integers(0, 3, size=n)
        rep = macro_metrics(confusion(y, pred, 3))
        assert rep.accuracy == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_absent_class_flagged(self):
        y = [0, 0, 0]
        rep = macro_metrics(confusion(y, y, 3))
        assert rep.accuracy == 1.0
        assert "class_1_no_support" in rep.undefined_flags
        assert "class_2_no_support" in rep.undefined_flags

    def test_accuracy_is_trace_over_n(self, rng):
        y = rng.integers(0, 4, size=300)
        pred = rng.integers(0, 4, size=300)
        cm = confusion(y, pred, 4)
        rep = macro_metrics(cm)
        assert rep.accuracy == np.trace(cm.counts) / 300


def loop_roc_curve(y, scores):
    """Reference: the one-group-at-a-time loop roc_curve replaced."""
    y = np.asarray(y, dtype=np.int64)
    s = np.asarray(scores, dtype=float)
    n_pos, n_neg = int((y == 1).sum()), int((y == 0).sum())
    order = np.argsort(-s, kind="stable")
    y_sorted, s_sorted = y[order], s[order]
    points = [(0.0, 0.0, float("inf"))]
    tp = fp = i = 0
    while i < len(y):
        j = i
        while j < len(y) and s_sorted[j] == s_sorted[i]:
            tp += int(y_sorted[j] == 1)
            fp += int(y_sorted[j] == 0)
            j += 1
        points.append((fp / n_neg, tp / n_pos, float(s_sorted[i])))
        i = j
    return points


class TestRoc:
    def test_perfect_scores(self):
        assert auc_score([0, 0, 1, 1], [0.0, 0.0, 1.0, 1.0]) == 1.0

    def test_perfect_scores_with_tied_negatives(self):
        # tied negatives: the trapezoid sum rounds to 1 + 1 ulp unclipped
        labels = [1] + [0] * 148
        scores = [1.0] + [(k % 39) / 100 for k in range(148)]
        assert auc_score(labels, scores) == 1.0

    def test_inverted_scores(self):
        assert auc_score([0, 0, 1, 1], [1.0, 1.0, 0.0, 0.0]) == 0.0

    def test_hand_counted_pairs(self):
        # concordant pairs: 3 of 4
        assert auc_score([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == pytest.approx(0.75)

    def test_endpoints_and_monotonicity(self, rng):
        y = rng.integers(0, 2, size=100)
        y[:2] = [0, 1]
        points = roc_curve(y, rng.uniform(size=100))
        fpr = [p[0] for p in points]
        tpr = [p[1] for p in points]
        assert (fpr[0], tpr[0]) == (0.0, 0.0)
        assert (fpr[-1], tpr[-1]) == (1.0, 1.0)
        assert all(b >= a for a, b in zip(fpr, fpr[1:]))
        assert all(b >= a for a, b in zip(tpr, tpr[1:]))

    def test_thresholds_descending_with_tie_grouping(self):
        points = roc_curve([0, 1, 0, 1], [0.5, 0.5, 0.2, 0.9])
        thresholds = [p[2] for p in points]
        assert thresholds == sorted(thresholds, reverse=True)
        assert len([t for t in thresholds if t == 0.5]) == 1

    def test_single_class_rejected(self):
        with pytest.raises(EvaluationError):
            roc_curve([1, 1], [0.3, 0.7])

    def test_matches_reference_loop_on_heavy_ties(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 300))
            y = rng.integers(0, 2, size=n)
            y[:2] = [0, 1]
            # few distinct scores, with 0.0 and -0.0 in one tie group
            scores = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0], size=n)
            points = roc_curve(y, scores)
            expected = loop_roc_curve(y, scores)
            assert np.array_equal(points, expected)
            # the same thresholds, down to the sign of zero
            assert [np.signbit(t) for _, _, t in points] == [
                np.signbit(t) for _, _, t in expected]

    def test_wilcoxon_equivalence(self, rng):
        for _ in range(200):
            n = int(rng.integers(4, 50))
            y = rng.integers(0, 2, size=n)
            y[:2] = [0, 1]
            scores = np.round(rng.uniform(size=n), 2)  # induce ties
            assert auc_score(y, scores) == pytest.approx(
                wilcoxon_auc(y, scores), abs=1e-12
            )

    def test_random_scores_near_half(self, rng):
        n = 10_000
        y = np.array([0, 1] * (n // 2))
        scores = rng.uniform(size=n)
        assert abs(auc_score(y, scores) - 0.5) <= 0.05

    def test_joint_permutation_invariance(self, rng):
        y = rng.integers(0, 2, size=60)
        y[:2] = [0, 1]
        scores = rng.uniform(size=60)
        perm = rng.permutation(60)
        assert auc_score(y, scores) == auc_score(y[perm], scores[perm])

    def test_multiclass_one_vs_rest(self, rng):
        y = rng.integers(0, 3, size=90)
        y[:3] = [0, 1, 2]
        scores = rng.uniform(size=(90, 3))
        per_class, macro, curves = multiclass_auc(y, scores, [0, 1, 2])
        assert set(per_class) == set(curves) == {0, 1, 2}
        assert macro == pytest.approx(np.mean(list(per_class.values())))
        for c, points in curves.items():
            assert np.array_equal(points, roc_curve((y == c).astype(int), scores[:, c]))
            assert per_class[c] == auc(points)

    def test_multiclass_skips_absent_class(self, rng):
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]
        per_class, macro, curves = multiclass_auc(y, rng.uniform(size=(40, 3)), [0, 1, 2])
        assert set(per_class) == set(curves) == {0, 1}



def tie_heavy_trials(rng, n_trials=150):
    """Seeded (labels, scores) pairs with both classes: scores from a few
    levels (0.0 and -0.0 in one group), all equal, a perfect and an inverted
    ranking, and rounded uniform scores; n up to 3,000."""
    for t in range(n_trials):
        n = int(rng.integers(2, 3001))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        kind = t % 5
        if kind == 0:
            levels = rng.choice([-0.0, 0.0, 0.1, 0.25, 0.5, 0.75, 1.0],
                                size=int(rng.integers(1, 8)), replace=False)
            scores = rng.choice(levels, size=n)
        elif kind == 1:
            scores = np.full(n, 0.5)
        elif kind == 2:
            scores = y.astype(float)
        elif kind == 3:
            scores = 1.0 - y
        else:
            scores = np.round(rng.uniform(size=n), int(rng.integers(1, 5)))
        yield y, scores


def roc_counts(y, scores, thresholds):
    """Integer (false, true) positive counts of thresholding at each value:
    the samples of each class scoring at or above it."""
    neg, pos = np.sort(scores[y == 0]), np.sort(scores[y == 1])
    return (len(neg) - np.searchsorted(neg, thresholds),
            len(pos) - np.searchsorted(pos, thresholds))


class TestRocVertices:
    def test_vertex_rule_on_tie_heavy_trials(self, rng):
        for y, scores in tie_heavy_trials(rng):
            points = roc_curve(y, scores)
            kept = roc_vertices(y, points)
            # an ordered subsequence of the rows, found by their thresholds,
            # which strictly descend
            idx = np.searchsorted(-points[:, 2], -kept[:, 2])
            assert np.all(np.diff(idx) > 0)
            assert np.array_equal(points[idx], kept)
            assert idx[0] == 0 and idx[-1] == len(points) - 1
            f, t = roc_counts(y, scores, points[:, 2])
            # every dropped row lies on the segment between the kept rows
            # around it
            dropped = np.setdiff1d(np.arange(len(points)), idx)
            after = np.searchsorted(idx, dropped)
            a, b = idx[after - 1], idx[after]
            assert np.all((f[b] - f[a]) * (t[dropped] - t[a])
                          == (t[b] - t[a]) * (f[dropped] - f[a]))
            assert np.all((f[a] <= f[dropped]) & (f[dropped] <= f[b])
                          & (t[a] <= t[dropped]) & (t[dropped] <= t[b]))
            # no kept interior row is collinear with its kept neighbours
            a, m, b = idx[:-2], idx[1:-1], idx[2:]
            assert np.all((f[m] - f[a]) * (t[b] - t[m]) != (t[m] - t[a]) * (f[b] - f[m]))

    def test_hand_checked_vertices(self):
        y = [0, 1, 0, 1]
        # one group, then two groups of one negative and one positive each:
        # straight from end to end
        for scores in ([0.5] * 4, [0.1, 0.1, 0.2, 0.2]):
            kept = roc_vertices(y, roc_curve(y, scores))
            assert kept[:, :2].tolist() == [[0.0, 0.0], [1.0, 1.0]]
        # a perfect ranking keeps its corner
        y = [0, 0, 1, 1, 1]
        kept = roc_vertices(y, roc_curve(y, [0.1, 0.2, 0.7, 0.8, 0.9]))
        assert kept.tolist() == [[0.0, 0.0, np.inf], [0.0, 1.0, 0.7], [1.0, 1.0, 0.1]]
