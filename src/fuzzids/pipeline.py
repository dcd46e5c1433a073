"""End-to-end experiment orchestration: ingest, split, scale, select, train, report."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .dataset import (
    DatasetSchema,
    LabeledDataset,
    SplitSpec,
    load_csv,
    stratified_split,
)
from .errors import ConfigError, SchemaError
from .evaluate import (
    ConfusionMatrix,
    MetricsReport,
    confusion,
    macro_metrics,
    metrics,
    multiclass_auc,
    auc,
    roc_curve,
)
from .fuzzy import (
    FeatureVectorSpec,
    TriangularParams,
    fuse_with_et_importance,
    fuzzy_importance,
    select_vectors,
)
from .models import ClassifierConfig, fit_et, fit_model, mean_impurity_decrease, save_model
from .preprocess import (
    TransformReport,
    encode_categorical,
    fit_encoder,
    fit_scaler,
    transform,
)

# Default vector lengths per (dataset schema name, task), with the usual
# v/g vector naming.
DEFAULT_VECTORS = {
    ("nsl_kdd", "binary"): (["v1", "v2", "v3", "v4"], [11, 9, 9, 10]),
    ("nsl_kdd", "multiclass"): (["g1", "g2", "g3", "g4"], [14, 19, 20, 10]),
    ("ugransome", "binary"): (["v1", "v2", "v3", "v4"], [11, 9, 20, 14]),
    ("ugransome", "multiclass"): (["g1", "g2", "g3", "g4"], [13, 9, 20, 14]),
}


@dataclass
class ExperimentConfig:
    """Everything a run needs; round-trips losslessly through YAML."""

    train_path: str
    test_path: str
    schema_path: str
    task: str = "binary"                      # binary | multiclass
    binary_rule: dict[str, int] | None = None  # label name -> 0/1
    split_fractions: tuple[float, float] = (0.8, 0.2)
    stratified: bool = True
    triangular: tuple[float, float, float] = (0.0, 0.5, 1.0)
    et_weight: float = 1.0
    vector_names: list[str] | None = None
    vector_lengths: list[int] | None = None
    models: list[ClassifierConfig] = field(default_factory=list)
    seed: int = 0
    output_dir: str = "runs/out"

    def __post_init__(self):
        if self.task not in ("binary", "multiclass"):
            raise ConfigError(f"unknown task '{self.task}'")
        if (self.vector_names is None) != (self.vector_lengths is None):
            raise ConfigError("vector_names and vector_lengths must be set together")
        if self.vector_names is not None:
            if len(self.vector_names) != len(set(self.vector_names)):
                raise ConfigError("vector names must be unique")
            if len(self.vector_names) != len(self.vector_lengths):
                raise ConfigError("vector names/lengths length mismatch")
        if not (0.0 <= self.et_weight <= 1.0):
            raise ConfigError("et_weight must lie in [0, 1]")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = yaml.safe_load(fh)
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read experiment config {path}: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError(
                f"experiment config must be a mapping, got {type(doc).__name__}"
            )
        doc = dict(doc)
        try:
            models = [ClassifierConfig(**m) for m in doc.pop("models", [])]
            if "split_fractions" in doc:
                doc["split_fractions"] = tuple(doc["split_fractions"])
            if "triangular" in doc:
                doc["triangular"] = tuple(doc["triangular"])
            return cls(models=models, **doc)
        except TypeError as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "train_path": self.train_path,
            "test_path": self.test_path,
            "schema_path": self.schema_path,
            "task": self.task,
            "binary_rule": self.binary_rule,
            "split_fractions": list(self.split_fractions),
            "stratified": self.stratified,
            "triangular": list(self.triangular),
            "et_weight": self.et_weight,
            "vector_names": self.vector_names,
            "vector_lengths": self.vector_lengths,
            "models": [m.to_dict() for m in self.models],
            "seed": self.seed,
            "output_dir": self.output_dir,
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


BINARY_SCHEMA_ENCODING = {"negative": 0, "positive": 1}


def default_binary_rule(schema: DatasetSchema) -> dict[str, int]:
    """Positive class per dataset convention: attacks for NSL-KDD style data
    (any non-normal label), anomalies (A) for UGRansome style data."""
    names = set(schema.label_encoding)
    lowered = {n.lower(): n for n in names}
    if "normal" in lowered:
        return {n: (0 if n == lowered["normal"] else 1) for n in names}
    if "A" in names and {"S", "SS"} <= names:
        return {n: (1 if n == "A" else 0) for n in names}
    raise ConfigError(
        "cannot infer a binary rule for this label set; set binary_rule explicitly"
    )


def binary_mapping(labels: np.ndarray, schema: DatasetSchema,
                   rule: dict[str, int] | None = None) -> np.ndarray:
    """Collapse encoded class labels to {0, 1} per a name-keyed rule."""
    rule = rule or default_binary_rule(schema)
    code_map = {}
    for name, code in schema.label_encoding.items():
        if name not in rule:
            raise ConfigError(f"binary rule missing label '{name}'")
        if rule[name] not in (0, 1):
            raise ConfigError(f"binary rule for '{name}' must be 0 or 1")
        code_map[code] = rule[name]
    labels = np.asarray(labels, dtype=np.int64)
    unknown = set(labels.tolist()) - set(code_map)
    if unknown:
        raise ConfigError(f"labels {sorted(unknown)} outside the binary rule")
    return np.array([code_map[c] for c in labels], dtype=np.int64)


def _binary_schema(schema: DatasetSchema) -> DatasetSchema:
    return DatasetSchema(
        name=schema.name,
        columns=schema.columns,
        label_column=schema.label_column,
        label_encoding=dict(BINARY_SCHEMA_ENCODING),
    )


@dataclass
class CellResult:
    """Evaluation of one trained (model, vector) pair on both partitions."""

    model_name: str
    vector_name: str
    val: MetricsReport
    test: MetricsReport
    val_cm: ConfusionMatrix
    test_cm: ConfusionMatrix
    val_roc: dict[str, list] = field(default_factory=dict)   # key: class or "binary"
    test_roc: dict[str, list] = field(default_factory=dict)


@dataclass
class RunReport:
    config: ExperimentConfig
    vectors: list[FeatureVectorSpec]
    feature_names: list[str]
    ranking_scores: list[float]
    ranking_order: list[int]
    cells: list[CellResult]
    transform_reports: dict[str, dict]
    split_counts: dict[str, dict]
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Canonical report content; timings deliberately excluded so that
        identical (config, seed) runs serialize byte-identically."""
        return {
            "provenance": {
                "config_hash": self.config.config_hash(),
                "seed": self.config.seed,
                "artifact_version": __version__,
            },
            "config": self.config.to_dict(),
            "feature_names": self.feature_names,
            "ranking": {
                "scores": self.ranking_scores,
                "order": self.ranking_order,
            },
            "vectors": {
                v.name: [self.feature_names[i] for i in v.indices]
                for v in self.vectors
            },
            "split_counts": self.split_counts,
            "transform_reports": self.transform_reports,
            "cells": {
                f"{c.model_name}/{c.vector_name}": {
                    "validation": c.val.to_dict(),
                    "test": c.test.to_dict(),
                    "validation_confusion": c.val_cm.to_dict(),
                    "test_confusion": c.test_cm.to_dict(),
                }
                for c in self.cells
            },
        }


def _evaluate(model, x: np.ndarray, y: np.ndarray,
              task: str) -> tuple[MetricsReport, ConfusionMatrix, dict[str, list]]:
    scores = model.score(x)
    # same lowest-class-id tie rule as TrainedModel.predict
    pred = model.classes[np.argmax(scores, axis=1)]
    n_classes = max(2, int(max(y.max(initial=0), pred.max(initial=0))) + 1)
    cm = confusion(y, pred, n_classes)
    roc: dict[str, list] = {}
    if task == "binary":
        rep = metrics(cm, positive_class=1)
        if 0 < int((y == 1).sum()) < len(y) and 1 in model.classes:
            col = int(np.flatnonzero(model.classes == 1)[0])
            points = roc_curve(y, scores[:, col])
            rep.roc = points
            rep.auc = auc(points)
            roc["binary"] = points
    else:
        rep = macro_metrics(cm)
        per_class, macro = multiclass_auc(y, scores, model.classes)
        rep.auc_per_class = per_class
        rep.auc = macro
        for col, c in enumerate(model.classes):
            binary = (y == c).astype(np.int64)
            if binary.min() != binary.max():
                roc[str(int(c))] = roc_curve(binary, scores[:, col])
    return rep, cm, roc


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute the full protocol and persist all stage artifacts."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    schema = DatasetSchema.from_file(config.schema_path)
    full_train = load_csv(config.train_path, schema)
    test = load_csv(config.test_path, schema)
    timings["ingest"] = time.perf_counter() - t0

    if config.task == "binary":
        bin_schema = _binary_schema(schema)
        full_train = full_train.with_labels(
            binary_mapping(full_train.labels, schema, config.binary_rule), bin_schema
        )
        test = test.with_labels(
            binary_mapping(test.labels, schema, config.binary_rule), bin_schema
        )

    t0 = time.perf_counter()
    split = SplitSpec(config.split_fractions, seed=config.seed,
                      stratified=config.stratified)
    train, val = stratified_split(full_train, split)
    timings["split"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    encoder = fit_encoder(train)
    reports = {name: TransformReport() for name in ("train", "validation", "test")}
    train_enc = encode_categorical(encoder, train, reports["train"])
    val_enc = encode_categorical(encoder, val, reports["validation"])
    test_enc = encode_categorical(encoder, test, reports["test"])
    scaler = fit_scaler(train_enc)
    train_s = transform(scaler, train_enc, reports["train"])
    val_s = transform(scaler, val_enc, reports["validation"])
    test_s = transform(scaler, test_enc, reports["test"])
    timings["preprocess"] = time.perf_counter() - t0
    _write_json(out_dir / "scaler_state.json", scaler.to_dict())
    _write_json(out_dir / "encoder_state.json", encoder.to_dict())

    t0 = time.perf_counter()
    params = TriangularParams(*config.triangular)
    ranking = fuzzy_importance(train_s, params)
    if config.et_weight < 1.0:
        et_cfg = ClassifierConfig(kind="et", seed=config.seed, n_trees=50)
        et_model = fit_et(train_s.numeric_features(), train_s.labels, et_cfg)
        et_scores = mean_impurity_decrease(et_model, train_s.n_features)
        ranking = fuse_with_et_importance(ranking, et_scores, config.et_weight)
    names, lengths = config.vector_names, config.vector_lengths
    if names is None:
        key = (schema.name, config.task)
        if key in DEFAULT_VECTORS:
            names, lengths = DEFAULT_VECTORS[key]
            lengths = [min(l, train_s.n_features) for l in lengths]
        else:
            names, lengths = ["v1"], [train_s.n_features]
    vectors = select_vectors(ranking, lengths, names)
    timings["select"] = time.perf_counter() - t0
    _write_json(out_dir / "ranking.json", ranking.to_dict())

    models_dir = out_dir / "models"
    models_dir.mkdir(exist_ok=True)
    cells: list[CellResult] = []
    model_names = _unique_model_names(config.models)
    for model_name, model_cfg in zip(model_names, config.models):
        for vec in vectors:
            t0 = time.perf_counter()
            cols = list(vec.indices)
            x_train = train_s.numeric_features()[:, cols]
            model = fit_model(x_train, train_s.labels, model_cfg)
            save_model(model, models_dir / f"{model_name}_{vec.name}.json")
            val_rep, val_cm, val_roc = _evaluate(
                model, val_s.numeric_features()[:, cols], val_s.labels, config.task
            )
            test_rep, test_cm, test_roc = _evaluate(
                model, test_s.numeric_features()[:, cols], test_s.labels, config.task
            )
            cells.append(CellResult(model_name, vec.name, val_rep, test_rep,
                                    val_cm, test_cm, val_roc, test_roc))
            timings[f"cell/{model_name}/{vec.name}"] = time.perf_counter() - t0

    report = RunReport(
        config=config,
        vectors=vectors,
        feature_names=train.schema.feature_names,
        ranking_scores=[float(s) for s in ranking.scores],
        ranking_order=[int(i) for i in ranking.order],
        cells=cells,
        transform_reports={
            name: {
                "clamped_cells": r.clamped_cells,
                "unseen_categories": r.unseen_categories,
            }
            for name, r in reports.items()
        },
        split_counts={
            "train": _counts_by_class(train),
            "validation": _counts_by_class(val),
            "test": _counts_by_class(test),
        },
        timings=timings,
    )
    emit_report(report, out_dir)
    return report


def _counts_by_class(ds: LabeledDataset) -> dict:
    codes, counts = np.unique(ds.labels, return_counts=True)
    return {str(int(c)): int(n) for c, n in zip(codes, counts)}


def _unique_model_names(models: list[ClassifierConfig]) -> list[str]:
    seen: dict[str, int] = {}
    names = []
    for m in models:
        seen[m.kind] = seen.get(m.kind, 0) + 1
        names.append(m.kind if seen[m.kind] == 1 else f"{m.kind}{seen[m.kind]}")
    return names


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def emit_report(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Write the consolidated report plus per-cell ROC and confusion files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    path = out_dir / "report.json"
    _write_json(path, report.to_dict())
    written.append(path)

    path = out_dir / "timings.json"
    _write_json(path, {"timings": report.timings})
    written.append(path)

    # metrics table, one row per (cell, partition)
    lines = ["model,vector,partition,accuracy,precision,recall,f1,error,auc"]
    for cell in report.cells:
        for part, rep in (("validation", cell.val), ("test", cell.test)):
            auc_txt = "" if rep.auc is None else f"{rep.auc:.6f}"
            lines.append(
                f"{cell.model_name},{cell.vector_name},{part},"
                f"{rep.accuracy:.6f},{rep.precision:.6f},{rep.recall:.6f},"
                f"{rep.f1:.6f},{rep.error:.6f},{auc_txt}"
            )
    path = out_dir / "metrics_table.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)

    # selected-feature table in rank order
    lines = ["vector,rank,feature_index,feature_name"]
    for vec in report.vectors:
        for rank, idx in enumerate(vec.indices):
            lines.append(f"{vec.name},{rank},{idx},{report.feature_names[idx]}")
    path = out_dir / "selected_features.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)

    roc_dir = out_dir / "roc"
    cm_dir = out_dir / "cm"
    roc_dir.mkdir(exist_ok=True)
    cm_dir.mkdir(exist_ok=True)
    for cell in report.cells:
        stem = f"{cell.model_name}_{cell.vector_name}"
        lines = ["partition,class,fpr,tpr,threshold"]
        for part, curves in (("validation", cell.val_roc), ("test", cell.test_roc)):
            for cls, points in sorted(curves.items()):
                for fpr, tpr, thr in points:
                    lines.append(f"{part},{cls},{fpr:.10g},{tpr:.10g},{thr:.10g}")
        path = roc_dir / f"{stem}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)

        path = cm_dir / f"{stem}.json"
        _write_json(path, {
            "validation": cell.val_cm.to_dict(),
            "test": cell.test_cm.to_dict(),
        })
        written.append(path)
    return written
