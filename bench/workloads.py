"""The benchmark's workloads: set-up, one operation, and its output check.

Shapes come from ``workloads.json``. Every call into fuzzids goes through a
module attribute (``dataset.load_csv``, not an imported name) so that the
tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

import corpus
from fuzzids import dataset, evaluate, fuzzy, models, pipeline, preprocess

SPEC = json.loads((Path(__file__).parent / "workloads.json").read_text(encoding="utf-8"))

_SMOKE_ROWS = 1 / 50
_SMOKE_MODEL = {"n_trees": 2, "n_rounds": 2, "max_iters": 5, "max_depth": 4,
                "gbt_max_depth": 2}


def shape(name: str, smoke: bool = False) -> dict:
    """The workload's shape; smoke mode keeps the code path at tiny size."""
    spec = dict(SPEC["workloads"][name])
    if smoke:
        for key in ("train_rows", "test_rows", "score_rows"):
            if key in spec:
                spec[key] = max(200, int(spec[key] * _SMOKE_ROWS))
        spec["models"] = [
            {k: (_SMOKE_MODEL[k] if k in _SMOKE_MODEL else v) for k, v in m.items()}
            for m in spec["models"]
        ]
    return spec


def _write_corpus(data: Path, shape: dict, seed: int, second: str) -> None:
    data.mkdir(parents=True)
    corpus.write_csv(data / "train.csv",
                     corpus.scaled_counts(corpus.TRAIN_COUNTS, shape["train_rows"]),
                     (seed, 0))
    corpus.write_csv(data / f"{second}.csv",
                     corpus.scaled_counts(corpus.TEST_COUNTS, shape[f"{second}_rows"]),
                     (seed, 1))
    (data / "schema.yaml").write_text(yaml.safe_dump(corpus.schema_doc()),
                                      encoding="utf-8")


def _files_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def model_work(workload) -> dict[str, int]:
    """Exact work counts read back from the workload's saved model files."""
    out: dict[str, int] = {}

    def nodes(tree: dict) -> int:
        if "left" not in tree:
            return 1
        return 1 + nodes(tree["left"]) + nodes(tree["right"])

    for path in workload.saved_models():
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        kind, params = doc["kind"], doc["params"]
        if kind == "dt":
            trees = [params["root"]]
        elif kind in ("rf", "et"):
            trees = params["trees"]
        elif kind == "gbt":
            trees = [s for chain in params["chains"] for s in chain["stages"]]
            out["models.gbt_stages"] = out.get("models.gbt_stages", 0) + len(trees)
        else:
            trees = []
        if kind == "svm":
            iters = sum(len(t) - 1 for t in params["objective_traces"])
            out["models.svm_iters"] = out.get("models.svm_iters", 0) + iters
        if trees:
            key = f"models.nodes.{kind}"
            out[key] = out.get(key, 0) + sum(nodes(t) for t in trees)
    return out


def _unit_interval_numbers(doc, where=""):
    """Yield (path, value) for every number in doc outside [0, 1] or not finite."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _unit_interval_numbers(value, f"{where}/{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _unit_interval_numbers(value, f"{where}/{i}")
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        if not (math.isfinite(doc) and 0.0 <= doc <= 1.0):
            yield where, doc


class Outcome(NamedTuple):
    """What one operation produced, as the benchmark reports it."""

    error: str | None
    fingerprint: str
    test_f1: float
    artifact_bytes: int


class RunWorkload:
    """One ``run_experiment`` call per operation on a seeded corpus."""

    def __init__(self, shape: dict, work: Path):
        self.shape = shape
        self.data = work / "data"
        self.config_path = self.data / "experiment.yaml"
        self.out_dir = work / "out"

    def setup(self, seed: int) -> None:
        """Corpus generation and config writing."""
        _write_corpus(self.data, self.shape, seed, "test")
        config = {
            "train_path": str(self.data / "train.csv"),
            "test_path": str(self.data / "test.csv"),
            "schema_path": str(self.data / "schema.yaml"),
            "task": self.shape["task"],
            "vector_names": list(self.shape["vectors"]),
            "vector_lengths": list(self.shape["vectors"].values()),
            "models": [dict(m, seed=seed) for m in self.shape["models"]],
            "seed": seed,
            "output_dir": str(self.out_dir),
        }
        self.config_path.write_text(yaml.safe_dump(config), encoding="utf-8")

    def save_reference(self) -> None:
        """Nothing to save: operations are compared with the run's first one."""

    def prepare(self) -> None:
        self.config = pipeline.ExperimentConfig.from_file(self.config_path)

    def reset(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def operation(self):
        return pipeline.run_experiment(self.config)

    def check(self, result) -> Outcome:
        raw = (self.out_dir / "report.json").read_bytes()
        report = json.loads(raw)
        expected = {f"{m.kind}/{v}" for m in self.config.models
                    for v in self.config.vector_names}
        error = None
        if set(report["cells"]) != expected:
            error = f"cells {sorted(report['cells'])} != {sorted(expected)}"
        for cell in report["cells"].values():
            for part in ("validation", "test"):
                bad = list(_unit_interval_numbers(cell[part]))
                if bad and error is None:
                    error = f"metric outside [0, 1]: {bad[0]}"
        f1s = [cell["test"]["f1"] for cell in report["cells"].values()]
        written = [p for p in self.out_dir.rglob("*")
                   if p.is_file() and p.name != "timings.json"]
        return Outcome(error, hashlib.sha256(raw).hexdigest(),
                       float(np.mean(f1s)), _files_bytes(written))

    def saved_models(self) -> list[Path]:
        return sorted((self.out_dir / "models").glob("*.json"))


class DeployedWorkload:
    """Set-up fits and saves models and states; one operation loads them and
    predicts a fresh file."""

    def __init__(self, shape: dict, work: Path):
        self.shape = shape
        self.data = work / "data"
        self.manifest = self.data / "deploy.json"
        self.reference = self.data / "reference.npz"

    def setup(self, seed: int) -> None:
        """Corpus generation, then fit and save the deployed models and states."""
        _write_corpus(self.data, self.shape, seed, "score")
        schema = dataset.DatasetSchema.from_file(self.data / "schema.yaml")
        train = dataset.load_csv(self.data / "train.csv", schema)
        encoder = preprocess.fit_encoder(train)
        train = preprocess.encode_categorical(encoder, train)
        scaler = preprocess.fit_scaler(train)
        train = preprocess.transform(scaler, train)
        ranking = fuzzy.fuzzy_importance(train, fuzzy.TriangularParams())
        (name, length), = self.shape["vectors"].items()
        (vector,) = fuzzy.select_vectors(ranking, [length], [name])
        x = train.numeric_features()[:, list(vector.indices)]
        self.fitted = {}
        for params in self.shape["models"]:
            config = models.ClassifierConfig(**dict(params, seed=seed))
            model = models.fit_model(x, train.labels, config)
            models.save_model(model, self.data / f"{config.kind}.json")
            self.fitted[config.kind] = model
        for stem, state in (("scaler_state", scaler), ("encoder_state", encoder)):
            (self.data / f"{stem}.json").write_text(json.dumps(state.to_dict()),
                                                    encoding="utf-8")
        self.manifest.write_text(json.dumps({
            "schema": str(self.data / "schema.yaml"),
            "data": str(self.data / "score.csv"),
            "vector": list(vector.indices),
            "models": {k: str(self.data / f"{k}.json") for k in self.fitted},
            "scaler": str(self.data / "scaler_state.json"),
            "encoder": str(self.data / "encoder_state.json"),
        }), encoding="utf-8")
        self._encoder, self._scaler = encoder, scaler

    def save_reference(self) -> None:
        """Predictions of the in-memory models from the last set-up."""
        deploy = json.loads(self.manifest.read_text(encoding="utf-8"))
        ds = dataset.load_csv(deploy["data"],
                              dataset.DatasetSchema.from_file(deploy["schema"]))
        x = preprocess.transform(self._scaler,
                                 preprocess.encode_categorical(self._encoder, ds))
        x = x.numeric_features()[:, deploy["vector"]]
        np.savez(self.reference, labels=ds.labels,
                 **{k: m.predict(x) for k, m in self.fitted.items()})

    def prepare(self) -> None:
        self.deploy = json.loads(self.manifest.read_text(encoding="utf-8"))
        with np.load(self.reference) as ref:
            self.expected = {k: ref[k] for k in ref.files}

    def reset(self) -> None:
        """Operations write nothing, so there is nothing to clear."""

    def operation(self):
        deploy = self.deploy
        with open(deploy["scaler"], encoding="utf-8") as fh:
            scaler = preprocess.ScalerState.from_dict(json.load(fh))
        with open(deploy["encoder"], encoding="utf-8") as fh:
            encoder = preprocess.CategoricalEncoderState.from_dict(json.load(fh))
        loaded = {k: models.load_model(p) for k, p in deploy["models"].items()}
        ds = dataset.load_csv(deploy["data"],
                              dataset.DatasetSchema.from_file(deploy["schema"]))
        x = preprocess.transform(scaler, preprocess.encode_categorical(encoder, ds))
        x = x.numeric_features()[:, deploy["vector"]]
        return ds.labels, {k: m.predict(x) for k, m in loaded.items()}

    def check(self, result) -> Outcome:
        labels, predictions = result
        error = None
        digest = hashlib.sha256()
        f1s = []
        for kind, pred in predictions.items():
            # array_equal also compares the row counts
            if not np.array_equal(pred, self.expected[kind]):
                error = error or f"{kind}: deployed predictions differ from set-up's"
            digest.update(np.ascontiguousarray(pred).tobytes())
            cm = evaluate.confusion(labels, pred, len(corpus.CLASSES))
            f1s.append(evaluate.macro_metrics(cm).f1)
        if not np.array_equal(labels, self.expected["labels"]):
            error = error or "labels differ from set-up's"
        files = list(self.deploy["models"].values()) + [self.deploy["scaler"],
                                                        self.deploy["encoder"]]
        return Outcome(error, digest.hexdigest(), float(np.mean(f1s)), _files_bytes(files))

    def saved_models(self) -> list[str]:
        return sorted(self.deploy["models"].values())


def make(name: str, work: Path, smoke: bool = False):
    spec = shape(name, smoke)
    cls = RunWorkload if spec["kind"] == "run" else DeployedWorkload
    return cls(spec, work)

