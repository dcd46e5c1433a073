"""Min-max scaling and ordinal categorical encoding, fit on training data only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import SchemaError, require_reals


@dataclass(frozen=True)
class ScalerState:
    """Per-column (min, max) extrema observed on the fitting partition."""

    schema_name: str
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        if np.any(self.maxs < self.mins):
            raise SchemaError("scaler state has max < min")
        self.mins.setflags(write=False)
        self.maxs.setflags(write=False)

    def to_dict(self) -> dict:
        return {
            "schema_name": self.schema_name,
            "mins": self.mins.tolist(),
            "maxs": self.maxs.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ScalerState":
        """``ValueError`` unless ``mins`` and ``maxs`` are lists of finite
        numbers of one length."""
        mins, maxs = (require_reals(name, doc[name], error=ValueError)
                      for name in ("mins", "maxs"))
        if len(mins) != len(maxs):
            raise ValueError(f"{len(mins)} mins but {len(maxs)} maxs")
        return cls(doc["schema_name"], mins, maxs)


@dataclass(frozen=True)
class CategoricalEncoderState:
    """Per-categorical-column category order, fixed by first appearance in training.

    Unseen categories at transform time map to the reserved index
    ``len(categories)``.
    """

    schema_name: str
    mappings: dict[int, dict[str, int]]  # column index -> category -> ordinal

    def to_dict(self) -> dict:
        return {
            "schema_name": self.schema_name,
            "mappings": {
                str(col): list(mapping)  # category list in ordinal order
                for col, mapping in self.mappings.items()
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CategoricalEncoderState":
        """``ValueError`` unless each column lists distinct string categories."""
        mappings: dict[int, dict[str, int]] = {}
        for col, cats in doc["mappings"].items():
            if not (isinstance(cats, list) and all(isinstance(cat, str) for cat in cats)):
                raise ValueError(f"categories of column {col} must be a list of strings")
            mappings[int(col)] = {cat: i for i, cat in enumerate(cats)}
            if len(mappings[int(col)]) != len(cats):
                twice = next(cat for i, cat in enumerate(cats) if cat in cats[:i])
                raise ValueError(f"column {col} lists category {twice!r} twice")
        return cls(doc["schema_name"], mappings)


@dataclass
class TransformReport:
    """Counters accumulated while applying fitted states to a partition."""

    clamped_cells: int = 0
    unseen_categories: int = 0

    def to_dict(self) -> dict:
        return {
            "clamped_cells": self.clamped_cells,
            "unseen_categories": self.unseen_categories,
        }


def _codes(ds: LabeledDataset, col: int) -> np.ndarray:
    return ds.features[:, col].astype(np.intp)


def fit_encoder(train: LabeledDataset) -> CategoricalEncoderState:
    """Build ordinal mappings for every categorical column, first-appearance order."""
    mappings: dict[int, dict[str, int]] = {}
    for col, names in sorted(train.categories.items()):
        codes, first = np.unique(_codes(train, col), return_index=True)
        mappings[col] = {names[c]: i for i, c in enumerate(codes[np.argsort(first)])}
    return CategoricalEncoderState(train.schema.name, mappings)


def encode_categorical(
    state: CategoricalEncoderState,
    ds: LabeledDataset,
    report: TransformReport | None = None,
) -> LabeledDataset:
    """Replace categorical codes with the state's ordinals; unseen categories
    map to ``len(mapping)``. The output has no categories left."""
    if state.schema_name != ds.schema.name:
        raise SchemaError(
            f"encoder fitted on '{state.schema_name}', dataset is '{ds.schema.name}'"
        )
    if set(state.mappings) != set(ds.categories):
        raise SchemaError(
            f"encoder has categorical columns {sorted(state.mappings)}, "
            f"dataset has {sorted(ds.categories)}"
        )
    out = ds.features.copy()
    for col, mapping in state.mappings.items():
        unseen = len(mapping)
        table = np.array([mapping.get(name, unseen) for name in ds.categories[col]],
                         dtype=float)
        out[:, col] = table[_codes(ds, col)]
        if report is not None:
            report.unseen_categories += int(np.count_nonzero(out[:, col] == unseen))
    return LabeledDataset(ds.schema, out, ds.labels.copy())


def fit_scaler(train: LabeledDataset) -> ScalerState:
    """Record per-column extrema of an already-numeric training partition."""
    if len(train) == 0:
        raise SchemaError("cannot fit scaler on an empty dataset")
    x = train.numeric_features()
    return ScalerState(train.schema.name, x.min(axis=0), x.max(axis=0))


def transform(
    state: ScalerState, ds: LabeledDataset, report: TransformReport | None = None
) -> LabeledDataset:
    """Scale every cell to [0, 1]: (v - min) / (max - min), clamped.

    Degenerate columns (max == min) map to 0. Out-of-range cells are clamped
    and counted in the report.
    """
    if state.schema_name != ds.schema.name:
        raise SchemaError(
            f"scaler fitted on '{state.schema_name}', dataset is '{ds.schema.name}'"
        )
    x = ds.numeric_features()
    if x.shape[1] != len(state.mins):
        raise SchemaError("column count does not match scaler state")
    span = state.maxs - state.mins
    safe_span = np.where(span == 0.0, 1.0, span)
    scaled = x - state.mins
    scaled /= safe_span
    scaled[:, span == 0.0] = 0.0
    if report is not None:
        report.clamped_cells += int(np.count_nonzero(scaled < 0.0) + np.count_nonzero(scaled > 1.0))
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return LabeledDataset(ds.schema, scaled, ds.labels.copy())
