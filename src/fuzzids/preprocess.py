"""Min-max scaling and ordinal categorical encoding, fit on training data only."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import CATEGORICAL, LabeledDataset
from .errors import SchemaError


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

    @property
    def degenerate_columns(self) -> list[int]:
        return np.flatnonzero(self.maxs == self.mins).tolist()

    def to_dict(self) -> dict:
        return {
            "schema_name": self.schema_name,
            "mins": self.mins.tolist(),
            "maxs": self.maxs.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ScalerState":
        return cls(doc["schema_name"], np.asarray(doc["mins"], dtype=float),
                   np.asarray(doc["maxs"], dtype=float))


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
        return cls(
            doc["schema_name"],
            {
                int(col): {cat: i for i, cat in enumerate(cats)}
                for col, cats in doc["mappings"].items()
            },
        )


@dataclass
class TransformReport:
    """Counters accumulated while applying fitted states to a partition."""

    clamped_cells: int = 0
    unseen_categories: int = 0
    unseen_values: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "clamped_cells": self.clamped_cells,
            "unseen_categories": self.unseen_categories,
        }


def fit_encoder(train: LabeledDataset) -> CategoricalEncoderState:
    """Build ordinal mappings for every categorical column, first-appearance order."""
    mappings: dict[int, dict[str, int]] = {}
    for col, kind in enumerate(train.schema.feature_kinds):
        if kind != CATEGORICAL:
            continue
        mapping: dict[str, int] = {}
        for cell in train.features[:, col]:
            if cell not in mapping:
                mapping[cell] = len(mapping)
        mappings[col] = mapping
    return CategoricalEncoderState(train.schema.name, mappings)


def encode_categorical(
    state: CategoricalEncoderState,
    ds: LabeledDataset,
    report: TransformReport | None = None,
) -> LabeledDataset:
    """Replace categorical strings with ordinal indices; output is all-float."""
    if state.schema_name != ds.schema.name:
        raise SchemaError(
            f"encoder fitted on '{state.schema_name}', dataset is '{ds.schema.name}'"
        )
    out = np.empty(ds.features.shape, dtype=float)
    for col in range(ds.n_features):
        column = ds.features[:, col]
        mapping = state.mappings.get(col)
        if mapping is None:
            out[:, col] = column.astype(float)
            continue
        unseen = len(mapping)
        for i, cell in enumerate(column):
            idx = mapping.get(cell, unseen)
            if idx == unseen and report is not None:
                report.unseen_categories += 1
                report.unseen_values[str(cell)] = report.unseen_values.get(str(cell), 0) + 1
            out[i, col] = float(idx)
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
    scaled = (x - state.mins) / safe_span
    scaled[:, span == 0.0] = 0.0
    clamped = np.count_nonzero((scaled < 0.0) | (scaled > 1.0))
    if report is not None:
        report.clamped_cells += int(clamped)
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return LabeledDataset(ds.schema, scaled, ds.labels.copy())
