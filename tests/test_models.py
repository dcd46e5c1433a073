import numpy as np
import pytest

from fuzzids.errors import EvaluationError, SchemaError, TrainingError
from fuzzids.models import (
    ClassifierConfig,
    best_split,
    fit_dt,
    fit_et,
    fit_gbt,
    fit_model,
    fit_nb,
    fit_rf,
    fit_svm,
    impurity,
    load_model,
    save_model,
)
from fuzzids.models.boosting import _BinaryBooster
from fuzzids.models.tree import Tree
from fuzzids.models.svm import svm_objective


def tree_depth(tree, node=0):
    if tree.left[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]), tree_depth(tree, tree.right[node]))


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


class TestImpurity:
    def test_maximal_binary(self):
        assert impurity([0.5, 0.5], "entropy") == 1.0
        assert impurity([0.5, 0.5], "gini") == 0.5

    def test_pure_node(self):
        assert impurity([1.0, 0.0], "entropy") == 0.0
        assert impurity([1.0, 0.0], "gini") == 0.0

    def test_hand_evaluated(self):
        assert impurity([0.25, 0.75], "entropy") == pytest.approx(0.811278, abs=1e-6)
        assert impurity([0.25, 0.75], "gini") == pytest.approx(0.375)

    def test_bad_proportions_rejected(self):
        with pytest.raises(EvaluationError):
            impurity([0.5, 0.6])


class TestBestSplit:
    def test_clean_binary_split(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        feat, threshold, gain = best_split(x, y, [0])
        assert (feat, threshold) == (0, 2.5)
        assert gain == pytest.approx(1.0)

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 30))
            x = rng.uniform(size=(n, 3))
            y = rng.integers(0, 2, size=n)
            result = best_split(x, y, [0, 1, 2])
            expected = _brute_force_split(x, y)
            if expected is None:
                assert result is None
            else:
                assert result is not None
                assert result[2] == pytest.approx(expected[2], abs=1e-9)

    def test_pure_node_returns_none(self):
        x = np.array([[1.0], [2.0]])
        assert best_split(x, np.array([1, 1]), [0]) is None

    def test_single_sample_returns_none(self):
        assert best_split(np.array([[1.0]]), np.array([0]), [0]) is None


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


class TestDecisionTree:
    def test_separable_depth_one(self):
        x, y = separable_1d()
        model = fit_dt(x, y, ClassifierConfig(kind="dt"))
        assert (model.predict(x) == y).all()
        tree = model.tree
        assert tree.left[0] >= 0 and tree.left[tree.left[0]] < 0

    def test_four_point_xor(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        model = fit_dt(x, y, ClassifierConfig(kind="dt"))
        assert (model.predict(x) == y).all()
        assert tree_depth(model.tree) == 2

    def test_max_depth_zero_is_majority_leaf(self):
        x, y = separable_1d()
        y = y.copy()
        y[:] = [0] * 15 + [1] * 5
        model = fit_dt(x, y, ClassifierConfig(kind="dt", max_depth=0))
        assert len(model.tree.left) == 1 and model.tree.left[0] < 0
        assert (model.predict(x) == 0).all()

    def test_empty_training_set_rejected(self):
        with pytest.raises(TrainingError):
            fit_dt(np.empty((0, 1)), np.empty(0, dtype=int), ClassifierConfig(kind="dt"))

    def test_consistent_data_perfect_fit(self, rng):
        x = rng.uniform(size=(60, 3))
        y = rng.integers(0, 3, size=60)
        model = fit_dt(x, y, ClassifierConfig(kind="dt"))
        assert (model.predict(x) == y).all()


class TestTreeApply:
    @staticmethod
    def walk(tree, row):
        """Reference: follow one row from the root, ties going left."""
        node = 0
        while tree.left[node] >= 0:
            go_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        return node

    def test_matches_per_row_walk(self, rng):
        for kind in ("dt", "rf", "et", "gbt"):
            x = np.round(rng.uniform(size=(80, 3)), 1)
            y = rng.integers(0, 3, size=80)
            cfg = ClassifierConfig(kind=kind, n_trees=3, n_rounds=2, seed=4)
            model = fit_model(x, y, cfg)
            if kind == "dt":
                trees = [model.tree]
            elif kind == "gbt":
                trees = [stage for chain in model.chains for stage in chain.stages]
            else:
                trees = model.trees
            for tree in trees:
                internal = np.flatnonzero(tree.left >= 0)
                # rows sitting exactly on every threshold, on every feature
                ties = np.tile(tree.threshold[internal][:, None], (1, 3))
                q = np.vstack([x, rng.uniform(-0.5, 1.5, size=(40, 3)), ties])
                expected = [self.walk(tree, row) for row in q]
                assert tree.apply(q).tolist() == expected
                assert (tree.left[tree.apply(q)] < 0).all()


class TestEnsembles:
    def test_single_tree_no_bootstrap_equals_dt(self):
        x, y = xor_clusters(60, seed=0)
        cfg = ClassifierConfig(kind="rf", n_trees=1, features_per_split="all",
                               bootstrap=False)
        rf = fit_rf(x, y, cfg)
        dt = fit_dt(x, y, ClassifierConfig(kind="dt"))
        assert np.array_equal(rf.predict(x), dt.predict(x))

    def test_majority_vote_fraction(self):
        x, y = xor_clusters(80, seed=1)
        rf = fit_rf(x, y, ClassifierConfig(kind="rf", n_trees=4, seed=5))
        scores = rf.score(x)
        assert np.allclose(scores.sum(axis=1), 1.0)
        assert set(np.round(scores * 4).astype(int).ravel()) <= {0, 1, 2, 3, 4}

    def test_same_seed_identical_forests(self):
        x, y = xor_clusters(40, seed=2)
        cfg = ClassifierConfig(kind="rf", n_trees=5, seed=11)
        f1, f2 = fit_rf(x, y, cfg), fit_rf(x, y, cfg)
        assert all(same_tree(a, b) for a, b in zip(f1.trees, f2.trees))

    def test_et_same_seed_identical(self):
        x, y = xor_clusters(40, seed=3)
        cfg = ClassifierConfig(kind="et", n_trees=5, seed=11)
        f1, f2 = fit_et(x, y, cfg), fit_et(x, y, cfg)
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
        chain = _BinaryBooster(0.0, [Tree([-1], [0.0], [-1], [-1], [2.0])], 0.1, [0.0])
        assert chain.raw(np.zeros((1, 1)))[0] == pytest.approx(0.2)

    def test_zero_learning_rate_predicts_majority(self):
        x, y = separable_1d()
        y = np.array([0] * 14 + [1] * 6)
        model = fit_gbt(x, y, ClassifierConfig(kind="gbt", learning_rate=0.0,
                                               n_rounds=5))
        assert (model.predict(x) == 0).all()

    def test_separable_perfect_fit(self):
        x, y = separable_1d()
        model = fit_gbt(x, y, ClassifierConfig(kind="gbt", n_rounds=50,
                                               gbt_max_depth=1))
        assert (model.predict(x) == y).all()

    def test_stage_count_matches_rounds(self):
        x, y = separable_1d()
        model = fit_gbt(x, y, ClassifierConfig(kind="gbt", n_rounds=7))
        assert all(len(c.stages) == 7 for c in model.chains)

    def test_objective_non_increasing(self, rng):
        for _ in range(5):
            n = int(rng.integers(10, 40))
            x = rng.uniform(size=(n, 3))
            y = rng.integers(0, 2, size=n)
            y[:2] = [0, 1]
            model = fit_gbt(x, y, ClassifierConfig(kind="gbt", n_rounds=20))
            for trace in model.objective_traces:
                assert all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))

    def test_multiclass_one_vs_rest(self, rng):
        x = rng.uniform(size=(60, 2))
        y = (x[:, 0] * 3).astype(np.int64).clip(0, 2)
        model = fit_gbt(x, y, ClassifierConfig(kind="gbt", n_rounds=20))
        assert len(model.chains) == 3
        scores = model.score(x)
        assert np.allclose(scores.sum(axis=1), 1.0)
        assert (model.predict(x) == y).mean() > 0.9


class TestNaiveBayes:
    def test_priors_from_counts(self, rng):
        x = rng.uniform(size=(100, 2))
        y = np.array([0] * 30 + [1] * 70)
        model = fit_nb(x, y, ClassifierConfig(kind="nb"))
        priors = np.exp(model.log_priors)
        assert priors[0] == pytest.approx(0.3)
        assert priors.sum() == pytest.approx(1.0)

    def test_single_class_always_predicted(self, rng):
        x = rng.uniform(size=(10, 2))
        model = fit_nb(x, np.zeros(10, dtype=int), ClassifierConfig(kind="nb"))
        assert (model.predict(rng.uniform(size=(5, 2))) == 0).all()

    def test_symmetric_tie_breaks_low(self):
        # values exactly representable in binary so the posteriors tie exactly
        x = np.array([[-0.25], [0.25], [0.75], [1.25]])
        y = np.array([0, 0, 1, 1])
        model = fit_nb(x, y, ClassifierConfig(kind="nb"))
        post = model.posterior(np.array([[0.5]]))
        assert post[0, 0] == pytest.approx(post[0, 1], abs=1e-9)
        assert model.predict(np.array([[0.5]]))[0] == 0

    def test_posterior_rows_sum_to_one(self, rng):
        x = rng.uniform(size=(30, 3))
        y = rng.integers(0, 3, size=30)
        y[:3] = [0, 1, 2]
        model = fit_nb(x, y, ClassifierConfig(kind="nb"))
        post = model.score(rng.uniform(size=(10, 3)))
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-9)

    def test_log_space_shift_invariance(self, rng):
        # scaling all likelihoods of a row by a positive constant is a log
        # shift; the argmax must not move
        x = rng.uniform(size=(40, 2))
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]
        model = fit_nb(x, y, ClassifierConfig(kind="nb"))
        q = rng.uniform(size=(10, 2))
        raw = model.log_priors[None, :] + model._log_likelihood(q)
        shifted = raw + 7.3
        assert np.array_equal(np.argmax(raw, axis=1), np.argmax(shifted, axis=1))

    def test_categorical_laplace_variant(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        cfg = ClassifierConfig(kind="nb", nb_variant="categorical-laplace")
        model = fit_nb(x, y, cfg)
        assert (model.predict(x) == y).all()


class TestSvm:
    def test_decision_is_linear_score(self):
        from fuzzids.models.svm import SvmModel

        model = SvmModel(ClassifierConfig(kind="svm"), np.array([0, 1]), 2,
                         [[1.0, 0.0]], [0.0], [[0.0]], True)
        margin = model.decision(np.array([[2.0, 0.0]]))[0, 0]
        assert margin == pytest.approx(2.0)
        assert model.predict(np.array([[2.0, 0.0]]))[0] == 1

    def test_symmetric_separable_pair(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = fit_svm(x, y, ClassifierConfig(kind="svm", C=100.0))
        assert (model.predict(x) == y).all()
        boundary = -model.biases[0] / model.weights[0, 0]
        assert abs(boundary) < 0.2

    def test_degenerate_single_class(self):
        model = fit_svm(np.array([[1.0], [2.0]]), np.array([1, 1]),
                        ClassifierConfig(kind="svm"))
        assert model.flags.get("degenerate")
        assert (model.predict(np.array([[9.0]])) == 1).all()

    def test_objective_non_increasing(self, rng):
        for _ in range(5):
            n = int(rng.integers(6, 30))
            x = rng.normal(size=(n, 2))
            y = rng.integers(0, 2, size=n)
            y[:2] = [0, 1]
            model = fit_svm(x, y, ClassifierConfig(kind="svm", max_iters=200))
            for trace in model.objective_traces:
                assert all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))

    def test_objective_value_definition(self):
        w, b = np.array([1.0, -1.0]), 0.5
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y_pm = np.array([1.0, -1.0])
        # by hand: 0.5*||w||^2 + C*(hinge(1*1.5) + hinge(-1*(-0.5)))
        expected = 0.5 * 2.0 + 2.0 * (0.0 + 0.5)
        assert svm_objective(w, b, x, y_pm, 2.0) == pytest.approx(expected)

    def test_multiclass_one_vs_rest(self, rng):
        x = rng.uniform(size=(90, 2))
        y = (x[:, 0] * 3).astype(np.int64).clip(0, 2)
        model = fit_svm(x, y, ClassifierConfig(kind="svm", max_iters=300))
        assert model.weights.shape == (3, 2)
        assert (model.predict(x) == y).mean() > 0.7


class TestUniformContract:
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
        assert np.allclose(model.score(q), clone.score(q))
