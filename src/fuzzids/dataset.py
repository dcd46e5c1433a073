"""Dataset loading, label encoding and reproducible stratified splitting."""

from __future__ import annotations

import collections
import csv
import functools
import itertools
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NoReturn

import numpy as np
import yaml

from .errors import LoadError, SchemaError, require_int

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
        for label, code in self.label_encoding.items():
            require_int(f"code of label '{label}'", code, 0, SchemaError)
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
                label_encoding={str(k): v for k, v in doc["label_encoding"].items()},
            )
        except KeyError as exc:
            raise SchemaError(f"schema file {path} missing key {exc}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise SchemaError(f"malformed schema file {path}: {exc}") from exc


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


def load_csv(path: str | Path, schema: DatasetSchema) -> LabeledDataset:
    """Load a comma-delimited file with header, typing columns per schema.

    Header may be in any order; columns are permuted to schema order. The
    records are parsed by numpy's C text reader in one pass. A file that
    parse rejects goes to the row scanner, which raises a
    ``LoadError`` naming the line of its first bad record; bytes that are
    not UTF-8 and records the csv module rejects are named the same way.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise LoadError(f"{path}: empty file, no header row")
            header = [h.strip() for h in header]
            schema_cols = [c for c, _ in schema.columns]
            if sorted(header) != sorted(schema_cols):
                missing = set(schema_cols) - set(header)
                extra = set(header) - set(schema_cols)
                raise SchemaError(
                    f"{path}: header does not match schema '{schema.name}' "
                    f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
                )
            parsed = _parse_columns(fh, header, schema)
    except (UnicodeDecodeError, csv.Error):
        parsed = None  # bad bytes, or a header or over-limit cell; the row scanner words it
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc.strerror}") from exc
    if parsed is None:
        _scan_rows(path, schema)
    return LabeledDataset(schema, *parsed)


def _layout(header: list[str], schema: DatasetSchema) -> tuple[int, list[tuple]]:
    """File position of the label and (position, name, kind) of each feature,
    in schema order."""
    col_pos = {name: header.index(name) for name, _ in schema.columns}
    feat_info = [(col_pos[c], c, k) for c, k in schema.feature_columns]
    return col_pos[schema.label_column], feat_info


class _PerCell(dict):
    """``convert`` of each distinct raw cell, computed at the cell's first
    lookup; a call that raises stores nothing."""

    def __init__(self, convert: Callable[[str], int]):
        super().__init__()
        self.convert = convert

    def __missing__(self, cell: str) -> int:
        self[cell] = value = self.convert(cell)
        return value


def _parse_columns(fh, header: list[str], schema: DatasetSchema):
    """Parse the records after the header, read from ``fh`` where the header's
    reader stopped, into (features, labels, categories), or return None if the
    C reader, or a check on what it read, rejects them.

    One float64 pass reads every column, so the reader rejects a record whose
    cell count differs from the first record's; converters code the label and
    categorical cells. Each converts a distinct raw cell once, at its first
    appearance, so categories keep their codes by first appearance. The checks
    accept exactly what the row scanner does: ``len(header)`` cells per record,
    finite values, no cell over the field limit.
    """
    label_pos, feat_info = _layout(header, schema)
    limit = csv.field_size_limit()

    def code(vocab: dict, cell: str) -> int:  # a converter raises only ValueError
        key = cell.strip()
        if not key or len(cell) > limit:
            raise ValueError(cell)
        return vocab.setdefault(key, len(vocab))  # by first appearance

    vocabs = {j: {} for j, (_, _, kind) in enumerate(feat_info) if kind == CATEGORICAL}
    converters = {feat_info[j][0]: functools.partial(code, vocab)
                  for j, vocab in vocabs.items()}
    converters[label_pos] = lambda cell: (
        schema.label_encoding.get(cell.strip(), -1) if len(cell) <= limit else -1)
    converters = {pos: _PerCell(convert).__getitem__ for pos, convert in converters.items()}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # for a body without rows
            # like the row scanner, the reader never sees a whitespace-only line
            table = np.loadtxt(itertools.filterfalse(str.isspace, fh), dtype=float,
                               delimiter=",", quotechar='"', comments=None, ndmin=2,
                               converters=converters)
            fh.seek(0)
            # an over-limit numeric cell spans <= 3 lines, one of them over limit / 3;
            # then a csv reader, as in the row scanner, raises on any cell over the limit
            if 3 * max(map(len, fh)) > limit:
                fh.seek(0)
                collections.deque(csv.reader(itertools.filterfalse(str.isspace, fh)), maxlen=0)
    except ValueError:
        return None
    if not len(table):
        table = np.zeros((0, len(header)))  # a body without rows reads as (0, 1)
    elif table.shape[1] != len(header):
        return None
    features, labels = table[:, [p for p, _, _ in feat_info]], table[:, label_pos]
    if not np.isfinite(features).all() or (labels < 0).any():
        return None
    return features, labels.astype(np.int64), {j: tuple(v) for j, v in vocabs.items()}


def _scan_rows(path: Path, schema: DatasetSchema) -> NoReturn:
    """Re-read the file a record at a time and raise a ``LoadError`` naming
    the line of its first bad record.

    The error reporter for ``load_csv``, run after its parse rejected the
    file, and the definition of the files it accepts. Like the parse, it
    drops whitespace-only lines and reads numbers as ``float`` does, less
    ``_`` and non-ASCII digits.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        # a dropped line still counts in reader.line_num
        reader = csv.reader("" if line.isspace() else line for line in fh)
        try:
            header = [h.strip() for h in next(reader)]
            label_pos, feat_info = _layout(header, schema)
            start = reader.line_num + 1  # a record starts after the last one ends
            for record in reader:
                lineno, start = start, reader.line_num + 1
                if not record:
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
                            if not cell.isascii() or "_" in cell:
                                raise ValueError(cell)
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
        except UnicodeDecodeError as exc:
            # exc.object is the chunk read after the reader's last complete line
            line = reader.line_num + 1 + exc.object.count(b"\n", 0, exc.start)
            raise LoadError(
                f"{path}:{line}: cannot decode byte 0x{exc.object[exc.start]:02x} as UTF-8"
            ) from exc
        except csv.Error as exc:
            raise LoadError(f"{path}:{reader.line_num}: {exc}") from exc
    raise LoadError(f"{path}: the column parse rejected a file the row scanner accepts")


def class_distribution(ds: LabeledDataset) -> dict[int, int]:
    """Count samples per encoded class; every encoded class gets a key."""
    counts = {code: 0 for code in ds.schema.label_encoding.values()}
    for code, n in zip(*np.unique(ds.labels, return_counts=True)):
        counts[int(code)] = int(n)
    return counts


def stratified_split(
    ds: LabeledDataset, val_frac: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Partition into (train, val): validation receives round(val_frac *
    class_count) samples per class (half-up), train the rest. The seed fully
    determines the partition.
    """
    if len(ds) == 0:
        raise SchemaError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)

    val_idx_parts = []
    train_idx_parts = []
    for code in sorted(set(ds.labels.tolist())):
        cls_idx = np.flatnonzero(ds.labels == code)
        perm = cls_idx[rng.permutation(len(cls_idx))]
        n_val = int(np.floor(val_frac * len(cls_idx) + 0.5))
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
