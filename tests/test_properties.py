"""Invariance properties of the tree learners, on seeded tie-heavy data.

Each property runs 30 trials of 50-400 rows, 1-7 integer features with few
levels and 2-4 classes. Some trials map features onto runs of adjacent
floats, where a midpoint of two values can round up to the higher one.
"""

import numpy as np
import pytest

from fuzzids.models import ClassifierConfig, fit_model

TRIALS = 30


def trials(seed):
    """``TRIALS`` tie-heavy datasets ``(x, y, rng)``, every class present."""
    rng = np.random.default_rng(seed)
    for _ in range(TRIALS):
        n, n_features = int(rng.integers(50, 401)), int(rng.integers(1, 8))
        n_classes = int(rng.integers(2, 5))
        x = rng.integers(0, rng.integers(2, 6, size=n_features), size=(n, n_features))
        y = rng.integers(0, n_classes, size=n)
        y[:n_classes] = np.arange(n_classes)
        yield x.astype(float), y, rng


def increasing_map(x, rng):
    """``x`` under a strictly increasing map of each feature: onto adjacent
    floats, or onto a random increasing curve."""
    mapped = np.empty_like(x)
    for f in range(x.shape[1]):
        levels, codes = np.unique(x[:, f], return_inverse=True)
        if rng.random() < 0.5:
            targets = [float(rng.uniform(0.5, 0.7))]
            for _ in levels[1:]:
                targets.append(np.nextafter(targets[-1], np.inf))
        else:
            targets = np.cumsum(rng.uniform(1e-3, 50.0, size=len(levels))) - 20.0
        mapped[:, f] = np.asarray(targets)[codes]
    return mapped


def config(kind, depth):
    return ClassifierConfig(kind=kind, max_depth=depth, gbt_max_depth=depth or 4,
                            n_trees=3, n_rounds=3, seed=11)


@pytest.mark.parametrize("kind", ["dt", "gbt"])
def test_increasing_feature_map_keeps_training_scores(kind):
    for trial, (x, y, rng) in enumerate(trials(1)):
        mapped = increasing_map(x, rng)
        cfg = config(kind, (3, None)[trial % 2])
        scores = fit_model(x, y, cfg).score(x)
        assert np.array_equal(fit_model(mapped, y, cfg).score(mapped), scores)


def test_increasing_feature_map_keeps_each_rf_tree_on_its_bootstrap_rows():
    for trial, (x, y, rng) in enumerate(trials(2)):
        mapped = increasing_map(x, rng)
        cfg = config("rf", (3, None)[trial % 2])
        plain, moved = fit_model(x, y, cfg), fit_model(mapped, y, cfg)
        for t, (a, b) in enumerate(zip(plain.trees, moved.trees)):
            rows = np.random.default_rng((cfg.seed, t)).integers(0, len(y), size=len(y))
            assert np.array_equal(a.value[a.apply(x[rows])], b.value[b.apply(mapped[rows])])


def test_row_permutation_keeps_dt_scores_and_gbt_argmax():
    for trial, (x, y, rng) in enumerate(trials(3)):
        perm = rng.permutation(len(y))
        depth = (3, None)[trial % 2]
        dt, gbt = config("dt", depth), config("gbt", depth)
        assert np.array_equal(fit_model(x[perm], y[perm], dt).score(x),
                              fit_model(x, y, dt).score(x))
        assert np.array_equal(fit_model(x[perm], y[perm], gbt).predict(x),
                              fit_model(x, y, gbt).predict(x))


def test_duplicated_rows_keep_dt_splits():
    for trial, (x, y, _) in enumerate(trials(4)):
        cfg = config("dt", (3, None)[trial % 2])
        once = fit_model(x, y, cfg).tree
        twice = fit_model(np.vstack([x, x]), np.concatenate([y, y]), cfg).tree
        for name in ("feature", "threshold", "left", "right"):
            assert np.array_equal(getattr(twice, name), getattr(once, name))
        assert np.array_equal(twice.value, 2 * once.value)
