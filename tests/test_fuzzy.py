import numpy as np
import pytest

from fuzzids.errors import ConfigError, SchemaError
from fuzzids.fuzzy import (
    FeatureRanking,
    TriangularParams,
    fuse_with_et_importance,
    fuzzy_importance,
    select_vectors,
    triangular_membership,
)
from fuzzids.pipeline import ExperimentConfig

from conftest import make_dataset

P = TriangularParams(0.0, 0.5, 1.0)


def masked_membership(x, p):
    """Reference: membership by masked gathers, one mask per side of the
    peak, which the closed form replaced for proper triangles."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    if p.b > p.a:
        rising = (x >= p.a) & (x <= p.b)
        out[rising] = (x[rising] - p.a) / (p.b - p.a)
    if p.c > p.b:
        falling = (x > p.b) & (x <= p.c)
        out[falling] = (p.c - x[falling]) / (p.c - p.b)
    out[x == p.b] = 1.0
    return out


class TestMembership:
    def test_closed_form_matches_masked_reference(self):
        r = np.random.default_rng(31)
        for _ in range(400):
            a, b, c = np.sort(r.uniform(-2.0, 3.0, 3)).tolist()
            for p in (TriangularParams(a, b, c), TriangularParams(b, b, c),
                      TriangularParams(a, b, b), TriangularParams(b, b, b)):
                # the feet, the peak and their float neighbours, points
                # outside [a, c], signed zeros and non-finite values
                edges = [p.a, p.b, p.c, *np.nextafter([p.a, p.b, p.c], -np.inf),
                         *np.nextafter([p.a, p.b, p.c], np.inf)]
                x = np.concatenate([r.uniform(-4.0, 5.0, 61), r.choice(edges, 40), edges,
                                    [0.0, -0.0, np.nan, np.inf, -np.inf]]).reshape(-1, 5)
                assert triangular_membership(x, p).tobytes() == masked_membership(x, p).tobytes()
                assert triangular_membership(p.b, p) == 1.0

    def test_peak_is_one(self):
        assert triangular_membership(0.5, P) == 1.0

    def test_feet_are_zero(self):
        assert triangular_membership(0.0, P) == 0.0
        assert triangular_membership(1.0, P) == 0.0

    def test_outside_support_is_zero(self):
        p = TriangularParams(0.2, 0.5, 0.8)
        assert triangular_membership(0.1, p) == 0.0
        assert triangular_membership(0.9, p) == 0.0

    def test_rising_edge_midpoint(self):
        # (x - a) / (b - a) at x = 0.25
        assert triangular_membership(0.25, P) == 0.5

    def test_falling_edge(self):
        assert triangular_membership(0.75, P) == pytest.approx(0.5)

    def test_step_shoulders(self):
        left_step = TriangularParams(0.5, 0.5, 1.0)
        assert triangular_membership(0.5, left_step) == 1.0
        assert triangular_membership(0.4, left_step) == 0.0
        right_step = TriangularParams(0.0, 0.5, 0.5)
        assert triangular_membership(0.5, right_step) == 1.0
        assert triangular_membership(0.6, right_step) == 0.0

    def test_bounds_everywhere(self, rng):
        x = rng.uniform(-2, 3, size=1000)
        mu = triangular_membership(x, P)
        assert np.all(mu >= 0.0) and np.all(mu <= 1.0)

    def test_monotone_on_each_side(self):
        xs = np.linspace(0.0, 0.5, 100)
        mu = triangular_membership(xs, P)
        assert np.all(np.diff(mu) >= 0)
        xs = np.linspace(0.5, 1.0, 100)
        mu = triangular_membership(xs, P)
        assert np.all(np.diff(mu) <= 0)

    def test_invalid_params_rejected(self):
        # the experiment config, which hands them to the ranking, checks them
        with pytest.raises(ConfigError, match="triangular must have a <= b <= c"):
            ExperimentConfig("t", "t", "s", triangular=[1.0, 0.5, 0.0])


class TestImportance:
    def test_peak_vs_foot_columns(self):
        x = np.column_stack([np.full(10, 0.5), np.zeros(10)])
        fr = fuzzy_importance(make_dataset(x, [0, 1] * 5), P)
        assert fr.scores.tolist() == [10.0, 0.0]
        assert fr.order.tolist() == [0, 1]

    def test_identical_columns_tie_break_to_identity(self):
        x = np.tile(np.linspace(0, 1, 10).reshape(-1, 1), (1, 4))
        fr = fuzzy_importance(make_dataset(x, [0, 1] * 5), P)
        assert len(set(fr.scores.tolist())) == 1
        assert fr.order.tolist() == [0, 1, 2, 3]

    def test_empty_dataset_rejected(self):
        ds = make_dataset(np.empty((0, 2)), [], labels={"a": 0})
        with pytest.raises(SchemaError):
            fuzzy_importance(ds, P)

    def test_score_additivity(self, rng):
        xa = rng.uniform(size=(15, 3))
        xb = rng.uniform(size=(25, 3))
        ya, yb = rng.integers(0, 2, 15), rng.integers(0, 2, 25)
        fa = fuzzy_importance(make_dataset(xa, ya), P)
        fb = fuzzy_importance(make_dataset(xb, yb), P)
        fab = fuzzy_importance(make_dataset(np.vstack([xa, xb]),
                                            np.concatenate([ya, yb])), P)
        assert np.allclose(fab.scores, fa.scores + fb.scores)

    def test_sample_permutation_invariance(self, rng):
        x = rng.uniform(size=(40, 5))
        y = rng.integers(0, 2, 40)
        perm = rng.permutation(40)
        f1 = fuzzy_importance(make_dataset(x, y), P)
        f2 = fuzzy_importance(make_dataset(x[perm], y[perm]), P)
        assert np.allclose(f1.scores, f2.scores)
        assert f1.order.tolist() == f2.order.tolist()

    def test_feature_permutation_permutes_scores(self, rng):
        x = rng.uniform(size=(30, 4))
        y = rng.integers(0, 2, 30)
        perm = np.array([2, 0, 3, 1])
        f1 = fuzzy_importance(make_dataset(x, y), P)
        f2 = fuzzy_importance(make_dataset(x[:, perm], y), P)
        assert np.allclose(f2.scores, f1.scores[perm])

    def test_synthetic_discrimination(self, rng):
        near_peak = rng.normal(0.5, 0.02, size=(100, 5)).clip(0, 1)
        near_feet = np.where(rng.uniform(size=(100, 15)) < 0.5,
                             rng.uniform(0, 0.05, size=(100, 15)),
                             rng.uniform(0.95, 1.0, size=(100, 15)))
        x = np.column_stack([near_feet[:, :7], near_peak, near_feet[:, 7:]])
        fr = fuzzy_importance(make_dataset(x, rng.integers(0, 2, 100)), P)
        assert set(fr.order[:5].tolist()) == {7, 8, 9, 10, 11}


class TestFusion:
    def test_weight_one_is_identity_ranking(self):
        fr = FeatureRanking(np.array([3.0, 1.0, 2.0]))
        fused = fuse_with_et_importance(fr, [0.0, 5.0, 0.0], 1.0)
        assert fused.order.tolist() == fr.order.tolist()

    def test_weight_zero_is_et_ranking(self):
        fr = FeatureRanking(np.array([3.0, 1.0, 2.0]))
        fused = fuse_with_et_importance(fr, [0.0, 5.0, 1.0], 0.0)
        assert fused.order.tolist() == [1, 2, 0]

    def test_hand_evaluated_fusion(self):
        fr = FeatureRanking(np.array([2.0, 0.0]))
        fused = fuse_with_et_importance(fr, [0.0, 4.0], 0.5)
        assert fused.scores.tolist() == [0.5, 0.5]
        assert fused.order.tolist() == [0, 1]
        assert fused.et_weight == 0.5

    def test_length_mismatch_rejected(self):
        fr = FeatureRanking(np.array([1.0]))
        with pytest.raises(SchemaError):
            fuse_with_et_importance(fr, [1.0, 2.0], 0.5)

    def test_argmax_endpoint_invariance(self, rng):
        scores = rng.uniform(size=8)
        et = rng.uniform(size=8)
        fr = FeatureRanking(scores)
        assert fuse_with_et_importance(fr, et, 1.0).order[0] == fr.order[0]
        assert fuse_with_et_importance(fr, et, 0.0).order[0] == int(np.argmax(et))


class TestSelectVectors:
    def test_reference_binary_lengths(self):
        scores = np.arange(20, 0, -1, dtype=float)
        fr = FeatureRanking(scores)
        vecs = select_vectors(fr, [11, 9, 9, 10], ["v1", "v2", "v3", "v4"])
        assert [len(v.indices) for v in vecs] == [11, 9, 9, 10]
        assert vecs[0].indices == tuple(range(11))

    def test_reference_multiclass_lengths(self):
        fr = FeatureRanking(np.arange(25, 0, -1, dtype=float))
        vecs = select_vectors(fr, [13, 9, 20, 14], ["g1", "g2", "g3", "g4"])
        assert [len(v.indices) for v in vecs] == [13, 9, 20, 14]

    def test_full_length_vector_is_full_ranking(self):
        fr = FeatureRanking(np.array([1.0, 3.0, 2.0]))
        (vec,) = select_vectors(fr, [3], ["all"])
        assert vec.indices == (1, 2, 0)

    def test_saved_order_that_disagrees_with_the_scores_is_not_read(self):
        fr = FeatureRanking.from_dict({"scores": [1.0, 3.0, 2.0], "order": [0, 1, 2],
                                       "et_weight": 1.0})
        assert fr.order.tolist() == [1, 2, 0]
        (vec,) = select_vectors(fr, [3], ["all"])
        assert vec.indices == (1, 2, 0)
        assert fr.to_dict()["order"] == [1, 2, 0]

    def test_overlong_vector_rejected(self):
        fr = FeatureRanking(np.array([1.0]))
        with pytest.raises(SchemaError):
            select_vectors(fr, [2], ["v1"])
