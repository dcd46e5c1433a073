import numpy as np
import pytest

from fuzzids.dataset import DatasetSchema, LabeledDataset


def numeric_schema(n_features: int, labels: dict[str, int] | None = None,
                   name: str = "synthetic") -> DatasetSchema:
    labels = labels or {"neg": 0, "pos": 1}
    columns = tuple([(f"f{i}", "numeric") for i in range(n_features)] + [("y", "categorical")])
    return DatasetSchema(name=name, columns=columns, label_column="y",
                         label_encoding=labels)


def make_dataset(x, y, labels=None, name="synthetic") -> LabeledDataset:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if labels is None:
        labels = {str(c): int(c) for c in np.unique(y)}
    schema = numeric_schema(x.shape[1], labels, name)
    return LabeledDataset(schema, x, y)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
