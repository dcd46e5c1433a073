import numpy as np
import pytest

from fuzzids.dataset import DatasetSchema, LabeledDataset
from fuzzids.errors import SchemaError
from fuzzids.preprocess import (
    TransformReport,
    encode_categorical,
    fit_encoder,
    fit_scaler,
    transform,
)

from conftest import make_dataset


def cat_dataset(columns, y=None):
    """Dataset with one categorical column from a list of strings."""
    n = len(columns)
    schema = DatasetSchema(
        name="cat",
        columns=(("c", "categorical"), ("y", "categorical")),
        label_column="y",
        label_encoding={"a": 0, "b": 1},
    )
    names = tuple(dict.fromkeys(columns))
    codes = np.array([names.index(c) for c in columns], dtype=float).reshape(n, 1)
    labels = np.asarray(y if y is not None else [0] * n, dtype=np.int64)
    return LabeledDataset(schema, codes, labels, {0: names})


class TestScaler:
    def test_direct_extrema(self):
        ds = make_dataset([[2.0], [4.0], [6.0]], [0, 1, 0])
        state = fit_scaler(ds)
        assert state.mins.tolist() == [2.0] and state.maxs.tolist() == [6.0]

    def test_constant_column_flagged_degenerate(self):
        ds = make_dataset([[5.0], [5.0], [5.0]], [0, 1, 0])
        state = fit_scaler(ds)
        assert np.flatnonzero(state.maxs == state.mins).tolist() == [0]

    def test_columns_fitted_independently(self):
        ds = make_dataset([[1.0, 10.0], [3.0, 30.0]], [0, 1])
        state = fit_scaler(ds)
        assert state.mins.tolist() == [1.0, 10.0]
        assert state.maxs.tolist() == [3.0, 30.0]

    def test_transform_endpoints_and_midpoint(self):
        ds = make_dataset([[2.0], [4.0], [6.0]], [0, 1, 0])
        out = transform(fit_scaler(ds), ds)
        assert out.numeric_features()[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_transform_hand_evaluated(self):
        # (v - 1) / (4 - 1) per cell
        ds = make_dataset([[1.0], [2.0], [4.0]], [0, 1, 0])
        out = transform(fit_scaler(ds), ds)
        assert np.allclose(out.numeric_features()[:, 0], [0.0, 1.0 / 3.0, 1.0])

    def test_out_of_range_clamped_and_counted(self):
        train = make_dataset([[2.0], [6.0]], [0, 1])
        state = fit_scaler(train)
        report = TransformReport()
        out = transform(state, make_dataset([[8.0]], [0]), report)
        assert out.numeric_features()[0, 0] == 1.0
        assert report.clamped_cells == 1

    def test_degenerate_column_maps_to_zero(self):
        train = make_dataset([[5.0], [5.0]], [0, 1])
        out = transform(fit_scaler(train), train)
        assert out.numeric_features()[:, 0].tolist() == [0.0, 0.0]

    def test_schema_mismatch_rejected(self):
        state = fit_scaler(make_dataset([[1.0]], [0], name="one"))
        with pytest.raises(SchemaError):
            transform(state, make_dataset([[1.0]], [0], name="two"))

    def test_range_invariant_random(self, rng):
        for _ in range(20):
            n, f = int(rng.integers(2, 40)), int(rng.integers(1, 6))
            x = rng.normal(0, 100, size=(n, f))
            ds = make_dataset(x, rng.integers(0, 2, size=n))
            out = transform(fit_scaler(ds), ds)
            vals = out.numeric_features()
            assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_refit_idempotent(self, rng):
        x = rng.uniform(size=(30, 3))
        ds = make_dataset(x, rng.integers(0, 2, size=30))
        a = transform(fit_scaler(ds), ds).numeric_features()
        b = transform(fit_scaler(ds), ds).numeric_features()
        assert np.array_equal(a, b)

    def test_no_leakage(self, rng):
        train = make_dataset(rng.uniform(size=(20, 2)), rng.integers(0, 2, 20))
        state = fit_scaler(train)
        before = (state.mins.copy(), state.maxs.copy())
        transform(state, make_dataset(rng.normal(5, 3, size=(10, 2)),
                                      rng.integers(0, 2, 10)))
        assert np.array_equal(state.mins, before[0])
        assert np.array_equal(state.maxs, before[1])


class TestCategoricalEncoder:
    def test_first_appearance_order(self):
        train = cat_dataset(["tcp", "udp", "tcp"])
        state = fit_encoder(train)
        assert state.mappings[0] == {"tcp": 0, "udp": 1}

    def test_unseen_maps_to_reserved_bucket(self):
        state = fit_encoder(cat_dataset(["tcp", "udp", "tcp"]))
        report = TransformReport()
        out = encode_categorical(state, cat_dataset(["udp", "icmp"]), report)
        assert out.numeric_features()[:, 0].tolist() == [1.0, 2.0]
        assert report.unseen_categories == 1

    def test_encoded_dataset_rejected(self):
        state = fit_encoder(cat_dataset(["tcp", "udp"]))
        encoded = encode_categorical(state, cat_dataset(["udp"]))
        with pytest.raises(SchemaError, match="categorical columns"):
            encode_categorical(state, encoded)

    def test_single_category_scales_to_zero(self):
        train = cat_dataset(["tcp", "tcp"])
        state = fit_encoder(train)
        enc = encode_categorical(state, train)
        out = transform(fit_scaler(enc), enc)
        assert out.numeric_features()[:, 0].tolist() == [0.0, 0.0]

    def test_encoding_deterministic(self):
        train = cat_dataset(["b", "a", "c", "a"])
        m1 = fit_encoder(train).mappings[0]
        m2 = fit_encoder(train).mappings[0]
        assert m1 == m2 == {"b": 0, "a": 1, "c": 2}

    def test_state_round_trip(self):
        from fuzzids.preprocess import CategoricalEncoderState

        state = fit_encoder(cat_dataset(["x", "y", "z"]))
        clone = CategoricalEncoderState.from_dict(state.to_dict())
        assert clone.mappings == state.mappings
