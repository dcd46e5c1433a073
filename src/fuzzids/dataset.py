"""Dataset loading, label encoding and reproducible stratified splitting."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import LoadError, SchemaError

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class DatasetSchema:
    """Column typing and label encoding for one dataset."""

    name: str
    columns: tuple[tuple[str, str], ...]  # (column name, kind)
    label_column: str
    label_encoding: dict[str, int]

    def __post_init__(self):
        names = [c for c, _ in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema '{self.name}'")
        if self.label_column not in names:
            raise SchemaError(
                f"label column '{self.label_column}' not in schema '{self.name}'"
            )
        for col, kind in self.columns:
            if kind not in (NUMERIC, CATEGORICAL):
                raise SchemaError(f"unknown kind '{kind}' for column '{col}'")
        codes = list(self.label_encoding.values())
        if len(set(codes)) != len(codes):
            raise SchemaError("label encoding must be injective")

    @property
    def feature_columns(self) -> list[tuple[str, str]]:
        return [(c, k) for c, k in self.columns if c != self.label_column]

    @property
    def feature_names(self) -> list[str]:
        return [c for c, _ in self.feature_columns]

    @property
    def feature_kinds(self) -> list[str]:
        return [k for _, k in self.feature_columns]

    def decode_label(self, code: int) -> str:
        for name, c in self.label_encoding.items():
            if c == code:
                return name
        raise SchemaError(f"no label with code {code}")

    @classmethod
    def from_file(cls, path: str | Path) -> "DatasetSchema":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = yaml.safe_load(fh)
        except (OSError, ValueError, yaml.YAMLError) as exc:
            raise SchemaError(f"cannot read schema file {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise SchemaError(
                f"schema file {path} must be a mapping, got {type(doc).__name__}"
            )
        try:
            columns = tuple(
                (name, kind) for name, kind in zip(doc["columns"], doc["kinds"])
            )
            if len(doc["columns"]) != len(doc["kinds"]):
                raise SchemaError(f"columns/kinds length mismatch in {path}")
            return cls(
                name=doc["name"],
                columns=columns,
                label_column=doc["label_column"],
                label_encoding={str(k): int(v) for k, v in doc["label_encoding"].items()},
            )
        except KeyError as exc:
            raise SchemaError(f"schema file {path} missing key {exc}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise SchemaError(f"malformed schema file {path}: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "columns": [c for c, _ in self.columns],
            "kinds": [k for _, k in self.columns],
            "label_column": self.label_column,
            "label_encoding": dict(self.label_encoding),
        }


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable feature matrix plus encoded labels.

    ``features`` is an (N, F) object array before preprocessing (numeric cells
    are floats, categorical cells strings) and a float array afterwards.
    """

    schema: DatasetSchema
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2:
            raise SchemaError("features must be 2-D")
        if len(self.features) != len(self.labels):
            raise SchemaError("feature/label row-count mismatch")
        n_feat = len(self.schema.feature_columns)
        if self.features.shape[1] != n_feat:
            raise SchemaError(
                f"expected {n_feat} feature columns, got {self.features.shape[1]}"
            )
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.schema, self.features[indices].copy(),
                              self.labels[indices].copy())

    def with_labels(self, labels: np.ndarray,
                    schema: DatasetSchema | None = None) -> "LabeledDataset":
        return LabeledDataset(schema or self.schema, self.features.copy(),
                              np.asarray(labels).copy())

    def numeric_features(self) -> np.ndarray:
        """Features as a float matrix; raises if categorical strings remain."""
        try:
            return self.features.astype(float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                "dataset still contains unencoded categorical values"
            ) from exc


@dataclass(frozen=True)
class SplitSpec:
    """Proportions, seed and mode for a train/validation partition."""

    fractions: tuple[float, float] = (0.8, 0.2)
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        train, val = self.fractions
        if not (0.0 < train < 1.0 and 0.0 < val < 1.0):
            raise SchemaError("split fractions must lie in (0, 1)")
        if abs(train + val - 1.0) > 1e-9:
            raise SchemaError("split fractions must sum to 1")


def load_csv(path: str | Path, schema: DatasetSchema) -> LabeledDataset:
    """Load a comma-delimited file with header, typing columns per schema.

    Header may be in any order; the row is permuted to schema order.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"file not found: {path}")

    schema_cols = [c for c, _ in schema.columns]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path}: empty file, no header row")
        header = [h.strip() for h in header]
        if header != schema_cols:
            if sorted(header) != sorted(schema_cols):
                missing = set(schema_cols) - set(header)
                extra = set(header) - set(schema_cols)
                raise SchemaError(
                    f"{path}: header does not match schema '{schema.name}' "
                    f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
                )
        col_pos = {name: header.index(name) for name in schema_cols}
        label_pos = col_pos[schema.label_column]
        feat_info = [
            (col_pos[c], c, k) for c, k in schema.columns if c != schema.label_column
        ]

        rows: list[list] = []
        labels: list[int] = []
        for lineno, record in enumerate(reader, start=2):
            if not record or (len(record) == 1 and record[0].strip() == ""):
                continue
            if len(record) != len(header):
                raise LoadError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(record)}"
                )
            raw_label = record[label_pos].strip()
            if raw_label not in schema.label_encoding:
                raise LoadError(
                    f"{path}:{lineno}: unknown label '{raw_label}' "
                    f"(known: {sorted(schema.label_encoding)})"
                )
            labels.append(schema.label_encoding[raw_label])
            row = []
            for pos, cname, kind in feat_info:
                cell = record[pos].strip()
                if kind == NUMERIC:
                    if cell == "":
                        raise LoadError(f"{path}:{lineno}: missing value in '{cname}'")
                    try:
                        value = float(cell)
                    except ValueError:
                        raise LoadError(
                            f"{path}:{lineno}: unparseable numeric cell "
                            f"'{cell}' in column '{cname}'"
                        )
                    if not np.isfinite(value):
                        raise LoadError(
                            f"{path}:{lineno}: non-finite value in column '{cname}'"
                        )
                    row.append(value)
                else:
                    if cell == "":
                        raise LoadError(f"{path}:{lineno}: missing value in '{cname}'")
                    row.append(cell)
            rows.append(row)

    n_feat = len(feat_info)
    features = np.empty((len(rows), n_feat), dtype=object)
    for i, row in enumerate(rows):
        features[i, :] = row
    return LabeledDataset(schema, features, np.asarray(labels, dtype=np.int64))


def class_distribution(ds: LabeledDataset) -> dict[int, int]:
    """Count samples per encoded class; every encoded class gets a key."""
    counts = {code: 0 for code in ds.schema.label_encoding.values()}
    for code, n in zip(*np.unique(ds.labels, return_counts=True)):
        counts[int(code)] = int(n)
    return counts


def stratified_split(
    ds: LabeledDataset, spec: SplitSpec
) -> tuple[LabeledDataset, LabeledDataset]:
    """Partition into (train, val) with per-class proportions per spec.

    Validation receives round(fraction * class_count) samples per class
    (half-up); the remainder goes to train. The seed fully determines the
    partition.
    """
    if len(ds) == 0:
        raise SchemaError("cannot split an empty dataset")
    val_frac = spec.fractions[1]
    rng = np.random.default_rng(spec.seed)

    if spec.stratified:
        val_idx_parts = []
        train_idx_parts = []
        for code in sorted(set(ds.labels.tolist())):
            cls_idx = np.flatnonzero(ds.labels == code)
            perm = cls_idx[rng.permutation(len(cls_idx))]
            n_val = int(np.floor(val_frac * len(cls_idx) + 0.5))
            if n_val == 0 and len(cls_idx) >= 1.0 / val_frac:
                n_val = 1  # guard against rounding a representable class away
            if n_val == 0:
                warnings.warn(
                    f"class {code} has only {len(cls_idx)} samples; "
                    f"none assigned to validation"
                )
            val_idx_parts.append(perm[:n_val])
            train_idx_parts.append(perm[n_val:])
        val_idx = np.sort(np.concatenate(val_idx_parts))
        train_idx = np.sort(np.concatenate(train_idx_parts))
    else:
        perm = rng.permutation(len(ds))
        n_val = int(np.floor(val_frac * len(ds) + 0.5))
        val_idx = np.sort(perm[:n_val])
        train_idx = np.sort(perm[n_val:])

    return ds.take(train_idx), ds.take(val_idx)
