"""End-to-end experiment orchestration: ingest, split, scale, select, train, report.

``run_experiment`` calls five stage functions in order; the stage-by-stage
CLI commands run the same functions up to their own stage, and
``predict_file`` applies a saved cell with the run's saved states.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from . import __version__
from .dataset import (DatasetSchema, LabeledDataset, class_distribution, load_csv,
                      stratified_split)
from .errors import ConfigError, SchemaError, require_int, require_real
from .evaluate import (ConfusionMatrix, MetricsReport, auc, confusion, macro_metrics,
                       metrics, multiclass_auc, roc_curve, roc_vertices)
from .fuzzy import (FeatureRanking, FeatureVectorSpec, TriangularParams,
                    fuse_with_et_importance, fuzzy_importance, select_vectors)
from .models import (ClassifierConfig, fit_model, load_model, mean_impurity_decrease,
                     save_model)
from .preprocess import (CategoricalEncoderState, ScalerState, TransformReport,
                         encode_categorical, fit_encoder, fit_scaler, transform)

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
            if not (isinstance(self.vector_names, list)
                    and all(isinstance(n, str) for n in self.vector_names)):
                raise ConfigError(f"vector_names must be a list of strings, "
                                  f"got {self.vector_names!r}")
            if len(self.vector_names) != len(set(self.vector_names)):
                raise ConfigError("vector names must be unique")
            if len(self.vector_names) != len(self.vector_lengths):
                raise ConfigError("vector names/lengths length mismatch")
        require_real("et_weight", self.et_weight, 0.0, 1.0)
        for name in ("train_path", "test_path", "schema_path", "output_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        if self.binary_rule is not None and not (isinstance(self.binary_rule, dict) and all(
                type(v) is int and v in (0, 1) for v in self.binary_rule.values())):
            raise ConfigError(f"binary_rule must map label names to the integers 0 or 1, "
                              f"got {self.binary_rule!r}")
        require_int("seed", self.seed, 0)
        for length in self.vector_lengths or []:
            require_int("vector length", length, 1)
        for name, count in (("split_fractions", 2), ("triangular", 3)):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or len(values) != count:
                raise ConfigError(f"{name} must be a list of {count} numbers, got {values!r}")
            setattr(self, name, tuple(values))  # YAML reads a list
            for value in values:
                require_real(name, value)
        train, val = self.split_fractions
        if not (0.0 < train < 1.0 and 0.0 < val < 1.0 and abs(train + val - 1.0) <= 1e-9):
            raise ConfigError(f"split_fractions must lie in (0, 1) and sum to 1, "
                              f"got {self.split_fractions!r}")
        a, b, c = self.triangular
        if not a <= b <= c:
            raise ConfigError(f"triangular must have a <= b <= c, got {self.triangular!r}")

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
            return cls(models=models, **doc)
        except TypeError as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc

    def to_dict(self) -> dict:
        return asdict(self)

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
    for name in rule:
        if name not in schema.label_encoding:
            raise ConfigError(f"binary rule names '{name}', not a label of schema "
                              f"'{schema.name}'")
    code_map = {}
    for name, code in schema.label_encoding.items():
        if name not in rule:
            raise ConfigError(f"binary rule missing label '{name}'")
        code_map[code] = rule[name]
    present, inverse = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)
    unknown = set(present.tolist()) - set(code_map)
    if unknown:
        raise ConfigError(f"labels {sorted(unknown)} outside the binary rule")
    return np.array([code_map[c] for c in present.tolist()], dtype=np.int64)[inverse]


PARTITIONS = ("validation", "test")  # every cell is scored on each, in this order


class Evaluation(NamedTuple):
    """Scores of one trained cell on one partition."""

    metrics: MetricsReport
    confusion: ConfusionMatrix
    # roc_vertices of each curve (its AUC was taken over every row); key:
    # class or "binary"
    roc: dict[str, np.ndarray]


@dataclass
class CellResult:
    """Evaluation of one trained (model, vector) pair on each of ``PARTITIONS``."""

    model_name: str
    vector_name: str
    evaluations: dict[str, Evaluation]


@dataclass
class RunReport:
    config: ExperimentConfig
    vectors: list[FeatureVectorSpec]
    feature_names: list[str]
    ranking: FeatureRanking
    cells: list[CellResult]
    transform_reports: dict[str, TransformReport]
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
            "ranking": {"scores": self.ranking.scores.tolist(),
                        "order": self.ranking.order.tolist()},
            "vectors": {
                v.name: [self.feature_names[i] for i in v.indices]
                for v in self.vectors
            },
            "split_counts": self.split_counts,
            "transform_reports": {name: r.to_dict()
                                  for name, r in self.transform_reports.items()},
            "cells": {
                f"{c.model_name}/{c.vector_name}": {
                    **{part: e.metrics.to_dict() for part, e in c.evaluations.items()},
                    **{f"{part}_confusion": e.confusion.to_dict()
                       for part, e in c.evaluations.items()},
                }
                for c in self.cells
            },
        }


def _evaluate(model, ds: LabeledDataset, cols: list[int], task: str) -> Evaluation:
    y = ds.labels
    scores = model.score(ds.numeric_features()[:, cols])
    # same lowest-class-id tie rule as TrainedModel.predict
    pred = model.classes[np.argmax(scores, axis=1)]
    # the class axis comes from the schema, so validation and test share it
    n_classes = max(2, max(ds.schema.label_encoding.values()) + 1)
    cm = confusion(y, pred, n_classes)
    roc: dict[str, np.ndarray] = {}
    if task == "binary":
        rep = metrics(cm, positive_class=1)
        if 0 < int((y == 1).sum()) < len(y) and 1 in model.classes:
            col = int(np.flatnonzero(model.classes == 1)[0])
            points = roc_curve(y, scores[:, col])
            rep.auc = auc(points)
            roc["binary"] = roc_vertices(y, points)
    else:
        rep = macro_metrics(cm)
        rep.auc_per_class, rep.auc, curves = multiclass_auc(y, scores, model.classes)
        roc = {str(c): roc_vertices(y == c, points) for c, points in curves.items()}
    return Evaluation(rep, cm, roc)


def load_partitions(config: ExperimentConfig,
                    timings: dict[str, float]) -> dict[str, LabeledDataset]:
    """Stage 1: ingest both files, map labels for a binary task and split the
    training file into train and validation."""
    t0 = time.perf_counter()
    schema = DatasetSchema.from_file(config.schema_path)
    full_train = load_csv(config.train_path, schema)
    test = load_csv(config.test_path, schema)
    timings["ingest"] = time.perf_counter() - t0

    if config.task == "binary":
        bin_schema = replace(schema, label_encoding=dict(BINARY_SCHEMA_ENCODING))
        full_train, test = [
            ds.with_labels(binary_mapping(ds.labels, schema, config.binary_rule), bin_schema)
            for ds in (full_train, test)
        ]

    t0 = time.perf_counter()
    train, val = stratified_split(full_train, config.split_fractions[1], config.seed)
    timings["split"] = time.perf_counter() - t0
    return {"train": train, "validation": val, "test": test}


def preprocess_partitions(
    config: ExperimentConfig, parts: dict[str, LabeledDataset],
    timings: dict[str, float],
) -> tuple[dict[str, LabeledDataset], dict[str, TransformReport]]:
    """Stage 2: fit the encoder and scaler on the train partition only, apply
    them to every partition and save both states."""
    t0 = time.perf_counter()
    encoder = fit_encoder(parts["train"])
    reports = {name: TransformReport() for name in parts}
    encoded = {name: encode_categorical(encoder, ds, reports[name])
               for name, ds in parts.items()}
    scaler = fit_scaler(encoded["train"])
    scaled = {name: transform(scaler, ds, reports[name])
              for name, ds in encoded.items()}
    timings["preprocess"] = time.perf_counter() - t0
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "scaler_state.json", scaler.to_dict())
    write_json(out_dir / "encoder_state.json", encoder.to_dict())
    return scaled, reports


def vector_layout(config: ExperimentConfig,
                  schema: DatasetSchema) -> tuple[list[str], list[int]]:
    """Names and lengths of the nested vectors: the config's, else the
    dataset's default, else one vector of every feature."""
    if config.vector_names is not None:
        return config.vector_names, config.vector_lengths
    n_features = len(schema.feature_columns)
    key = (schema.name, config.task)
    if key in DEFAULT_VECTORS:
        names, lengths = DEFAULT_VECTORS[key]
        return names, [min(l, n_features) for l in lengths]
    return ["v1"], [n_features]


def rank_features(
    config: ExperimentConfig, train: LabeledDataset, timings: dict[str, float],
) -> tuple[FeatureRanking, list[FeatureVectorSpec]]:
    """Stage 3: rank the features of the scaled train partition (fused with ET
    importance seeded by ``config.seed`` when ``et_weight < 1``), cut the
    vectors and save the ranking."""
    t0 = time.perf_counter()
    ranking = fuzzy_importance(train, TriangularParams(*config.triangular))
    if config.et_weight < 1.0:
        et_cfg = ClassifierConfig(kind="et", seed=config.seed, n_trees=50)
        et_model = fit_model(train.numeric_features(), train.labels, et_cfg)
        ranking = fuse_with_et_importance(ranking, mean_impurity_decrease(et_model),
                                          config.et_weight)
    names, lengths = vector_layout(config, train.schema)
    vectors = select_vectors(ranking, lengths, names)
    timings["select"] = time.perf_counter() - t0
    write_json(Path(config.output_dir) / "ranking.json", ranking.to_dict())
    return ranking, vectors


def fit_cells(config: ExperimentConfig, train: LabeledDataset,
              vectors: list[FeatureVectorSpec]):
    """Stage 4: fit and save each (model, vector) cell in turn.

    Yields ``(model name, vector, model)`` after each save, so a caller can
    evaluate one cell before the next is fitted.
    """
    models_dir = Path(config.output_dir) / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    for model_name, model_cfg in zip(_unique_model_names(config.models), config.models):
        for vec in vectors:
            x_train = train.numeric_features()[:, list(vec.indices)]
            model = fit_model(x_train, train.labels, model_cfg)
            save_model(model, models_dir / f"{model_name}_{vec.name}.json")
            yield model_name, vec, model


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute the full protocol, stages 1 to 5 in order, and persist every artifact."""
    timings: dict[str, float] = {}
    scaled, reports = preprocess_partitions(
        config, load_partitions(config, timings), timings
    )
    ranking, vectors = rank_features(config, scaled["train"], timings)

    cells: list[CellResult] = []
    t0 = time.perf_counter()
    for model_name, vec, model in fit_cells(config, scaled["train"], vectors):
        # stage 5, per cell: score each partition
        cells.append(CellResult(model_name, vec.name, {
            part: _evaluate(model, scaled[part], list(vec.indices), config.task)
            for part in PARTITIONS
        }))
        # a cell's time covers its fit and save in fit_cells and its evaluation
        timings[f"cell/{model_name}/{vec.name}"] = time.perf_counter() - t0
        t0 = time.perf_counter()

    report = RunReport(
        config=config,
        vectors=vectors,
        feature_names=scaled["train"].schema.feature_names,
        ranking=ranking,
        cells=cells,
        transform_reports=reports,
        split_counts={name: {str(k): n for k, n in class_distribution(ds).items() if n}
                      for name, ds in scaled.items()},
        timings=timings,
    )
    emit_report(report)
    return report


def predict_file(config: ExperimentConfig, model_name: str, vector_name: str,
                 data_path: str | Path) -> np.ndarray:
    """Predict a new file with one saved cell of the run in ``config.output_dir``.

    The run's saved encoder and scaler states and its ranking are applied as
    they were fitted on its train partition; nothing is refit.
    """
    schema = DatasetSchema.from_file(config.schema_path)
    names, lengths = vector_layout(config, schema)
    model_names = _unique_model_names(config.models)
    if model_name not in model_names:
        raise ConfigError(f"model '{model_name}' not in the config (have {model_names})")
    if vector_name not in names:
        raise ConfigError(f"vector '{vector_name}' not in the config (have {names})")
    out_dir = Path(config.output_dir)
    encoder = _load_state(out_dir / "encoder_state.json", CategoricalEncoderState)
    scaler = _load_state(out_dir / "scaler_state.json", ScalerState)
    ranking = _load_state(out_dir / "ranking.json", FeatureRanking)
    n_features = len(schema.feature_columns)
    if ranking.scores.shape != (n_features,):
        raise ConfigError(f"ranking.json of the run must score the schema's {n_features} "
                          f"features, got scores of shape {ranking.scores.shape}")
    vec = select_vectors(ranking, lengths, names)[names.index(vector_name)]
    model = load_model(out_dir / "models" / f"{model_name}_{vector_name}.json")
    ds = transform(scaler, encode_categorical(encoder, load_csv(data_path, schema)))
    return model.predict(ds.numeric_features()[:, list(vec.indices)])


def _load_state(path: Path, cls):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, SchemaError) as exc:
        raise ConfigError(f"cannot load {path.name} of the run: {exc}") from exc


def _unique_model_names(models: list[ClassifierConfig]) -> list[str]:
    seen: dict[str, int] = {}
    names = []
    for m in models:
        seen[m.kind] = seen.get(m.kind, 0) + 1
        names.append(m.kind if seen[m.kind] == 1 else f"{m.kind}{seen[m.kind]}")
    return names


def write_json(path: str | Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_report(report: RunReport) -> None:
    """Write the report, its tables and per-cell ROC and confusion files
    into ``report.config.output_dir``."""
    out_dir = Path(report.config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "report.json", report.to_dict())
    write_json(out_dir / "timings.json", {"timings": report.timings})

    # metrics table, one row per (cell, partition)
    lines = ["model,vector,partition,accuracy,precision,recall,f1,error,auc"]
    for cell in report.cells:
        for part, (rep, _, _) in cell.evaluations.items():
            auc_txt = "" if rep.auc is None else f"{rep.auc:.6f}"
            lines.append(f"{cell.model_name},{cell.vector_name},{part},"
                         f"{rep.accuracy:.6f},{rep.precision:.6f},{rep.recall:.6f},"
                         f"{rep.f1:.6f},{rep.error:.6f},{auc_txt}")
    _write_lines(out_dir / "metrics_table.csv", lines)

    # selected-feature table in rank order
    lines = ["vector,rank,feature_index,feature_name"]
    for vec in report.vectors:
        for rank, idx in enumerate(vec.indices):
            lines.append(f"{vec.name},{rank},{idx},{report.feature_names[idx]}")
    _write_lines(out_dir / "selected_features.csv", lines)

    for sub in ("roc", "cm"):
        (out_dir / sub).mkdir(exist_ok=True)
    for cell in report.cells:
        stem = f"{cell.model_name}_{cell.vector_name}"
        lines = ["partition,class,fpr,tpr,threshold"]
        for part, e in cell.evaluations.items():
            for cls, points in sorted(e.roc.items()):
                for fpr, tpr, thr in points.tolist():
                    # repr round-trips the threshold, so no two rows print alike
                    lines.append(f"{part},{cls},{fpr:.10g},{tpr:.10g},{thr!r}")
        _write_lines(out_dir / "roc" / f"{stem}.csv", lines)
        write_json(out_dir / "cm" / f"{stem}.json",
                   {part: e.confusion.to_dict() for part, e in cell.evaluations.items()})
