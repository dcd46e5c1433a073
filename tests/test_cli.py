import importlib.resources
import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from fuzzids.cli import main
from fuzzids.dataset import DatasetSchema, load_csv
from fuzzids.evaluate import confusion
from fuzzids.models import SERIALIZATION_VERSION, ClassifierConfig

DATA = importlib.resources.files("fuzzids") / "data"


def test_ingest_reports_distribution(tmp_path):
    report = tmp_path / "report.json"
    runner = CliRunner()
    result = runner.invoke(main, [
        "ingest", "--data", str(DATA / "mini_train.csv"),
        "--schema", str(DATA / "mini.yaml"), "--report", str(report),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(report.read_text())
    assert doc["rows"] == 500
    assert sum(doc["class_distribution"].values()) == 500


def test_ingest_bad_schema_exits_with_data_error(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, [
        "ingest", "--data", str(DATA / "mini_train.csv"),
        "--schema", str(DATA / "nope.yaml"), "--report", str(tmp_path / "r.json"),
    ])
    assert result.exit_code != 0


def _write_config(tmp_path, **overrides):
    """A multiclass config on the mini corpus writing into tmp_path/run."""
    doc = dict({"task": "multiclass", "vector_names": ["v1", "v2"],
                "vector_lengths": [5, 3], "output_dir": str(tmp_path / "run")},
               **overrides)
    path = tmp_path / "config.yaml"
    path.write_text(_run_config(**doc), encoding="utf-8")
    return str(path)


def _invoke(*args):
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, result.output
    return result


def test_preprocess_select_train_predict(tmp_path):
    config = _write_config(tmp_path)
    out = tmp_path / "run"
    _invoke("preprocess", "--config", config)
    assert (out / "scaler_state.json").exists()
    assert (out / "encoder_state.json").exists()
    assert (out / "test_scaled.csv").exists()
    assert set(json.loads((out / "transform_report.json").read_text())) == {
        "train", "validation", "test"}

    _invoke("select", "--config", config)
    assert len(json.loads((out / "ranking.json").read_text())["order"]) == 8

    _invoke("train", "--config", config)
    model = json.loads((out / "models" / "dt_v1.json").read_text())
    assert model["n_features"] == 5

    preds = tmp_path / "preds.txt"
    _invoke("predict", "--config", config, "--model", "dt", "--vector", "v1",
            "--data", DATA / "mini_test.csv", "--out", preds)
    assert len(preds.read_text().splitlines()) == 200


def test_predict_on_a_header_only_file_writes_an_empty_file(tmp_path):
    config = _write_config(tmp_path)
    _invoke("train", "--config", config)
    data = tmp_path / "header_only.csv"
    data.write_text((DATA / "mini_test.csv").read_text().splitlines()[0] + "\n")
    preds = tmp_path / "preds.txt"
    result = _invoke("predict", "--config", config, "--model", "dt", "--vector", "v1",
                     "--data", data, "--out", preds)
    assert "wrote 0 predictions" in result.output
    assert preds.read_text() == ""


def test_predict_cuts_vectors_in_the_order_of_the_ranking_scores(tmp_path):
    """ranking.json writes its order for readers; predict derives it from the scores."""
    config = _write_config(tmp_path)
    _invoke("train", "--config", config)
    ranking = tmp_path / "run" / "ranking.json"
    written = json.loads(ranking.read_text())
    preds = {}
    for name, order in (("written", written["order"]), ("reversed", written["order"][::-1])):
        ranking.write_text(json.dumps(dict(written, order=order)))
        _invoke("predict", "--config", config, "--model", "dt", "--vector", "v1",
                "--data", DATA / "mini_test.csv", "--out", tmp_path / f"{name}.txt")
        preds[name] = (tmp_path / f"{name}.txt").read_text()
    assert preds["reversed"] == preds["written"]


ALL_KINDS = [{"kind": "dt", "max_depth": 5}, {"kind": "dt", "impurity": "gini"},
             {"kind": "rf", "n_trees": 3}, {"kind": "et", "n_trees": 3},
             {"kind": "gbt", "n_rounds": 3, "gbt_max_depth": 3}, {"kind": "nb"},
             {"kind": "svm", "max_iters": 50}]


@pytest.fixture(scope="module")
def run_and_train(tmp_path_factory):
    """One config with every model kind and ET fusion, run once by `run` and
    once by `train`, each into its own output directory."""
    dirs = {}
    for command in ("run", "train"):
        tmp = tmp_path_factory.mktemp(command)
        config = _write_config(tmp, models=ALL_KINDS, et_weight=0.5, seed=7)
        _invoke(command, "--config", config)
        dirs[command] = (config, tmp / "run")
    return dirs


def test_train_then_predict_reproduces_run_test_confusion(run_and_train, tmp_path):
    config, out = run_and_train["train"]
    report = json.loads((run_and_train["run"][1] / "report.json").read_text())
    schema = DatasetSchema.from_file(DATA / "mini.yaml")
    labels = load_csv(DATA / "mini_test.csv", schema).labels
    assert len(report["cells"]) == 14
    for cell, expected in report["cells"].items():
        model, vector = cell.split("/")
        preds = tmp_path / f"{model}_{vector}.txt"
        _invoke("predict", "--config", config, "--model", model, "--vector", vector,
                "--data", DATA / "mini_test.csv", "--out", preds)
        pred = np.array([int(v) for v in preds.read_text().split()])
        n_classes = len(expected["test_confusion"]["counts"])
        assert confusion(labels, pred, n_classes).to_dict() == \
            expected["test_confusion"], cell


def test_train_writes_the_models_run_writes(run_and_train):
    run_models, train_models = (
        {p.name: p.read_bytes() for p in (out / "models").glob("*.json")}
        for _, out in (run_and_train["run"], run_and_train["train"]))
    assert len(run_models) == 14
    assert train_models == run_models


def test_select_writes_the_ranking_run_writes(run_and_train, tmp_path):
    config = _write_config(tmp_path, models=ALL_KINDS, et_weight=0.5, seed=7)
    _invoke("select", "--config", config)
    assert (tmp_path / "run" / "ranking.json").read_bytes() == \
        (run_and_train["run"][1] / "ranking.json").read_bytes()
    assert not (tmp_path / "run" / "models").exists()


def test_run_and_report(tmp_path):
    config = {
        "train_path": str(DATA / "mini_train.csv"),
        "test_path": str(DATA / "mini_test.csv"),
        "schema_path": str(DATA / "mini.yaml"),
        "task": "multiclass",
        "vector_names": ["v1"],
        "vector_lengths": [5],
        "models": [{"kind": "dt"}],
        "seed": 5,
        "output_dir": str(tmp_path / "run"),
    }
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 0, result.output

    result = runner.invoke(main, ["report", "--run", str(tmp_path / "run"),
                                  "--format", "table"])
    assert result.exit_code == 0
    assert result.output.startswith("model,vector,partition")


def _run_config(**overrides):
    doc = {
        "train_path": str(DATA / "mini_train.csv"),
        "test_path": str(DATA / "mini_test.csv"),
        "schema_path": str(DATA / "mini.yaml"),
        "models": [{"kind": "dt"}],
    }
    doc.update(overrides)
    return yaml.safe_dump(doc)


BAD_CONFIGS = {
    "model key typo": _run_config(models=[{"kind": "dt", "max_dept": 3}]),
    "empty file": "",
    "model not a mapping": _run_config(models=["dt"]),
    "top-level key typo": _run_config(tesk="binary"),
    "not a mapping": "- just\n- a list\n",
    "malformed yaml": "models: [unclosed\n",
    "missing file": None,
    # runnable configs but for one deleted key
    "deleted nb_variant key": _run_config(
        task="multiclass", models=[{"kind": "nb", "nb_variant": "gaussian"}]),
    "deleted bootstrap key": _run_config(
        task="multiclass", models=[{"kind": "rf", "n_trees": 2, "bootstrap": False}]),
    "deleted stratified key": _run_config(task="multiclass", stratified=False),
    "deleted min_samples_split key": _run_config(
        task="multiclass", models=[{"kind": "dt", "min_samples_split": 2}]),
    "deleted features_per_split key": _run_config(task="multiclass", models=[
        {"kind": "rf", "n_trees": 2, "features_per_split": "sqrt"}]),
    "deleted learning_rate key": _run_config(
        task="multiclass", models=[{"kind": "gbt", "n_rounds": 2, "learning_rate": 0.1}]),
    "deleted reg_gamma key": _run_config(
        task="multiclass", models=[{"kind": "gbt", "n_rounds": 2, "reg_gamma": 0.0}]),
    "deleted reg_lambda key": _run_config(
        task="multiclass", models=[{"kind": "gbt", "n_rounds": 2, "reg_lambda": 1.0}]),
    "deleted C key": _run_config(
        task="multiclass", models=[{"kind": "svm", "max_iters": 5, "C": 1.0}]),
    "deleted tolerance key": _run_config(
        task="multiclass", models=[{"kind": "svm", "max_iters": 5, "tolerance": 1e-4}]),
    # runnable configs but for one malformed value
    "fractional seed": _run_config(task="multiclass", seed=1.5),
    "seed not a number": _run_config(task="multiclass", seed="abc"),
    "bool seed": _run_config(task="multiclass", seed=True),
    "fractional n_trees": _run_config(
        task="multiclass", models=[{"kind": "rf", "n_trees": 2.5}]),
    "bool n_trees": _run_config(task="multiclass", models=[{"kind": "rf", "n_trees": True}]),
    "fractional n_rounds": _run_config(
        task="multiclass", models=[{"kind": "gbt", "n_rounds": 2.5}]),
    "fractional max_iters": _run_config(
        task="multiclass", models=[{"kind": "svm", "max_iters": 2.5}]),
    "fractional max_depth": _run_config(
        task="multiclass", models=[{"kind": "dt", "max_depth": 2.5}]),
    "negative gbt_max_depth": _run_config(
        task="multiclass", models=[{"kind": "gbt", "n_rounds": 2, "gbt_max_depth": -1}]),
    "three split fractions": _run_config(task="multiclass", split_fractions=[0.5, 0.3, 0.2]),
    "split fractions summing past 1": _run_config(task="multiclass",
                                                  split_fractions=[0.5, 0.6]),
    "vector length a string": _run_config(task="multiclass", vector_names=["v1"],
                                          vector_lengths=["3"]),
    "binary_rule a list": _run_config(binary_rule=["benign"]),
    "bool in binary_rule": _run_config(binary_rule={"benign": False, "scan": True,
                                                    "ransom": 1}),
    "1.0 in binary_rule": _run_config(binary_rule={"benign": 0, "scan": 1, "ransom": 1.0}),
    "vector_names a string": _run_config(task="multiclass", vector_names="ab",
                                         vector_lengths=[1, 2]),
    "bool et_weight": _run_config(task="multiclass", et_weight=True),
    "output_dir a number": _run_config(task="multiclass", output_dir=5),
    "triangular out of order": _run_config(task="multiclass", triangular=[1, 0.5, 0]),
    "two triangular parameters": _run_config(task="multiclass", triangular=[0, 0.5]),
    "bools in triangular": _run_config(task="multiclass", triangular=[False, 0.5, True]),
    "strings in triangular": _run_config(task="multiclass", triangular=["0", "0.5", "1"]),
    "infinite triangular foot": _run_config(task="multiclass",
                                            triangular=[-float("inf"), 0.5, 1]),
    "strings in split_fractions": _run_config(task="multiclass",
                                              split_fractions=["0.8", "0.2"]),
}

# what the error message of a row must name, where the bare "error:" is not enough
BAD_CONFIG_MESSAGES = {
    "bools in triangular": "triangular must be a finite number",
    "strings in triangular": "triangular must be a finite number",
    "infinite triangular foot": "triangular must be a finite number",
    "strings in split_fractions": "split_fractions must be a finite number",
}


@pytest.mark.parametrize("name", BAD_CONFIGS, ids=list(BAD_CONFIGS))
def test_run_bad_config_exits_with_config_error(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # the rows set no output_dir: runs/out lands here
    config_path = tmp_path / "config.yaml"
    if BAD_CONFIGS[name] is not None:
        config_path.write_text(BAD_CONFIGS[name], encoding="utf-8")
    result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output
    assert BAD_CONFIG_MESSAGES.get(name, "error:") in result.output


MINI_SCHEMA = (DATA / "mini.yaml").read_text(encoding="utf-8")


def _ingest(schema_text, data=DATA / "mini_train.csv", report="report.json"):
    """argv of an ingest; ``data=None`` reads the test's own directory."""
    def argv(tmp_path):
        schema = tmp_path / "schema.yaml"
        if schema_text is not None:
            schema.write_text(schema_text, encoding="utf-8")
        return ["ingest", "--data", data or tmp_path, "--schema", schema,
                "--report", tmp_path / report]
    return argv


def _run_without_schema(tmp_path):
    return ["run", "--config",
            _write_config(tmp_path, schema_path=str(tmp_path / "nope.yaml"))]


def _predict(model_text=None, model="dt", vector="v1", out="preds.txt", scores=None,
             state=None):
    """Predict from a run directory holding states and a ranking, on a config
    of dt and gbt; the model file <model>_v1.json holds model_text, or is
    missing when that is None.
    ``scores``, if given, rewrites the ranking's score list, and its order to
    match. ``state``, if given, is (file name, edit): the edit rewrites that
    state file's document."""
    def argv(tmp_path):
        config = _write_config(tmp_path, models=[{"kind": "dt"}, {"kind": "gbt"}])
        _invoke("select", "--config", config)
        if state is not None:
            path = tmp_path / "run" / state[0]
            path.write_text(json.dumps(state[1](json.loads(path.read_text()))))
        if scores is not None:
            ranking = tmp_path / "run" / "ranking.json"
            doc = json.loads(ranking.read_text())
            doc["scores"] = scores(doc["scores"])
            doc["order"] = np.argsort(-np.array(doc["scores"]), kind="stable").tolist()
            ranking.write_text(json.dumps(doc))
        if model_text is not None:
            (tmp_path / "run" / "models").mkdir()
            (tmp_path / "run" / "models" / f"{model}_v1.json").write_text(model_text)
        return ["predict", "--config", config, "--model", model, "--vector", vector,
                "--data", DATA / "mini_test.csv", "--out", tmp_path / out]
    return argv


def _set_item(key, index, value):
    """A state edit: item ``index`` of the list or mapping under ``key`` becomes ``value``."""
    def edit(doc):
        doc[key][index] = value
        return doc
    return edit


# A dt model file as version 1 wrote it, config keys since deleted included.
V1_MODEL = json.dumps({
    "version": 1, "kind": "dt", "classes": [0, 1, 2], "n_features": 5, "flags": {},
    "config": {"C": 1.0, "bootstrap": True, "features_per_split": "sqrt",
               "gbt_max_depth": 6, "impurity": "entropy", "kind": "dt",
               "laplace_alpha": 1.0, "learning_rate": 0.1, "max_depth": None,
               "max_iters": 1000, "min_samples_split": 2, "n_rounds": 100,
               "n_trees": 100, "nb_variant": "gaussian", "reg_gamma": 0.0,
               "reg_lambda": 1.0, "seed": 0, "tolerance": 0.0001},
    "params": {"root": {"counts": [1, 0, 0]}},
})

# A dt model file as version 2 wrote it, the seven config keys that version 3
# dropped included.
V2_MODEL = json.dumps({
    "version": 2, "kind": "dt", "classes": [0, 1, 2], "n_features": 5, "flags": {},
    "config": dict(ClassifierConfig(kind="dt").to_dict(), min_samples_split=2,
                   features_per_split="sqrt", learning_rate=0.1, reg_gamma=0.0,
                   reg_lambda=1.0, C=1.0, tolerance=0.0001),
    "params": {"root": {"counts": [1, 0, 0]}},
})

# A dt model file as version 3 wrote it, its tree a nested document.
V3_MODEL = json.dumps({
    "version": 3, "kind": "dt", "classes": [0, 1, 2], "n_features": 5, "flags": {},
    "config": ClassifierConfig(kind="dt").to_dict(),
    "params": {"root": {"counts": [1, 0, 0]}},
})

# A dt model file of one leaf on the five features of v1.
LEAF_MODEL = json.dumps({
    "version": SERIALIZATION_VERSION, "kind": "dt", "classes": [0, 1, 2], "n_features": 5,
    "flags": {}, "config": ClassifierConfig(kind="dt").to_dict(),
    "params": {"root": {"feature": [-1], "threshold": [], "counts": [[1, 0, 0]]}},
})

# A gbt model file of one stage per chain on the five features of v1.
GBT_LEAF_MODEL = json.dumps({
    "version": SERIALIZATION_VERSION, "kind": "gbt", "classes": [0, 1, 2], "n_features": 5,
    "flags": {}, "config": ClassifierConfig(kind="gbt").to_dict(),
    "params": {"chains": [{"base_score": 0.0, "objective_trace": [1.0, 0.5],
                           "stages": [{"feature": [-1], "threshold": [],
                                       "weight": [0.5]}]}] * 3},
})

# A dt model file whose leaf counts nest 3,000 lists deep.
DEEP_MODEL = LEAF_MODEL.replace('"counts": [[1, 0, 0]]',
                                '"counts": ' + "[" * 3000 + "]" * 3000)


# Each row: argv, exit code, and a fragment of the row's own error text.
BAD_FILES = {
    "run, missing schema": (_run_without_schema, 2, "nope.yaml"),
    "ingest, missing schema": (_ingest(None), 2, "No such file"),
    "ingest, empty schema": (_ingest(""), 2, "got NoneType"),
    "ingest, schema not a mapping": (_ingest("- name\n- columns\n"), 2, "got list"),
    "ingest, malformed schema yaml": (_ingest("name: [mini\n"), 2, "cannot read schema"),
    "ingest, label encoding not a mapping": (_ingest(MINI_SCHEMA.replace(
        "  benign: 0\n  scan: 1\n  ransom: 2", "  - benign\n  - scan\n  - ransom")), 2,
        "malformed schema"),
    "ingest, negative label code": (_ingest(MINI_SCHEMA.replace("benign: 0", "benign: -1")),
                                    2, "label 'benign' must be an integer >= 0"),
    "ingest, fractional label code": (_ingest(MINI_SCHEMA.replace("scan: 1", "scan: 1.5")),
                                      2, "label 'scan' must be an integer >= 0"),
    "ingest, data path is a directory": (_ingest(MINI_SCHEMA, data=None), 2, "directory"),
    "predict, missing model file": (_predict(), 1, "No such file"),
    "predict, model file not json": (_predict(model_text="{"), 1, "Expecting property"),
    "predict, model file missing a key": (
        _predict(model_text=json.dumps({"version": SERIALIZATION_VERSION})), 1,
        "missing key 'kind'"),
    "predict, version-1 model file": (_predict(model_text=V1_MODEL), 1, "has version 1"),
    "predict, version-2 model file": (_predict(model_text=V2_MODEL), 1, "has version 2"),
    "predict, version-3 model file": (_predict(model_text=V3_MODEL), 1,
                                      "has version 3, this fuzzids reads version 4: retrain"),
    "predict, model file nested too deep": (_predict(model_text=DEEP_MODEL), 1,
                                            "recursion depth"),
    "predict, dt file with weight leaves": (
        _predict(model_text=LEAF_MODEL.replace('"counts": [[1, 0, 0]]', '"weight": [1.0]')),
        1, "dt_v1.json: a tree holds ['feature', 'threshold', 'weight'], the trees of this "
        "model hold ['counts', 'feature', 'threshold']"),
    "predict, gbt file with count leaves": (
        _predict(model="gbt", model_text=GBT_LEAF_MODEL.replace('"weight": [0.5]',
                                                                '"counts": [[1, 0, 0]]')), 1,
        "gbt_v1.json: a tree holds ['counts', 'feature', 'threshold'], the trees of this "
        "model hold ['feature', 'threshold', 'weight']"),
    "predict, dt file with its classes reversed": (
        _predict(model_text=LEAF_MODEL.replace('"classes": [0, 1, 2]', '"classes": [2, 1, 0]')),
        1, "dt_v1.json: classes [2, 1, 0] are not distinct ascending integers"),
    "predict, dt file with fractional classes": (
        _predict(model_text=LEAF_MODEL.replace('"classes": [0, 1, 2]', '"classes": [0.5, 1.7]')),
        1, "dt_v1.json: classes [0.5, 1.7] are not distinct ascending integers"),
    "predict, dt file with fractional n_features": (
        _predict(model_text=LEAF_MODEL.replace('"n_features": 5', '"n_features": 2.5')), 1,
        "dt_v1.json: n_features must be an integer >= 0, got 2.5"),
    "predict, gbt file short of a chain": (
        _predict(model="gbt", model_text=GBT_LEAF_MODEL.replace(
            json.dumps(json.loads(GBT_LEAF_MODEL)["params"]["chains"][0]) + ", ", "", 1)), 1,
        "gbt_v1.json: 2 chains, the model needs 3"),
    "predict, leaf with split keys": (
        _predict(model_text=LEAF_MODEL.replace(
            '"counts": [[1, 0, 0]]', '"counts": [[1, 0, 0]], "left": [-1], "right": [-1]')),
        1, "dt_v1.json: a tree holds ['counts', 'feature', 'left', 'right', 'threshold']"),
    "predict, model not in config": (_predict(model="rf"), 1, "model 'rf' not in"),
    "predict, vector not in config": (_predict(vector="v9"), 1, "vector 'v9' not in"),
    "predict, ranking one score too long": (
        _predict(model_text=LEAF_MODEL, scores=lambda s: s + [max(s) + 1.0]), 1,
        "ranking.json of the run must score the schema's 8 features, got scores of "
        "shape (9,)"),
    "predict, ranking one score too short": (
        _predict(model_text=LEAF_MODEL, scores=lambda s: s[:-1]), 1,
        "ranking.json of the run must score the schema's 8 features"),
    "predict, ranking score NaN": (
        _predict(model_text=LEAF_MODEL, state=("ranking.json",
                                                _set_item("scores", 0, float("nan")))), 1,
        "cannot load ranking.json of the run: scores[0] must be a finite number"),
    "predict, ranking score a bool": (
        _predict(model_text=LEAF_MODEL, state=("ranking.json", _set_item("scores", 0, True))),
        1, "ranking.json of the run: scores[0] must be a finite number in [-inf, inf], "
        "got True"),
    "predict, ranking score a string": (
        _predict(model_text=LEAF_MODEL, state=("ranking.json", _set_item("scores", 3, "2"))),
        1, "ranking.json of the run: scores[3] must be a finite number in [-inf, inf], "
        "got '2'"),
    "predict, ranking et_weight above one": (
        _predict(model_text=LEAF_MODEL, state=("ranking.json",
                                                lambda doc: dict(doc, et_weight=1.5))), 1,
        "ranking.json of the run: et_weight must be a finite number in [0.0, 1.0], got 1.5"),
    "predict, scaler max NaN": (
        _predict(model_text=LEAF_MODEL, state=("scaler_state.json",
                                                _set_item("maxs", 2, float("nan")))), 1,
        "cannot load scaler_state.json of the run: maxs[2] must be a finite number"),
    "predict, scaler max infinite": (
        _predict(model_text=LEAF_MODEL, state=("scaler_state.json",
                                                _set_item("maxs", 2, float("inf")))), 1,
        "scaler_state.json of the run: maxs[2] must be a finite number in [-inf, inf], "
        "got inf"),
    "predict, scaler min a string": (
        _predict(model_text=LEAF_MODEL, state=("scaler_state.json",
                                                _set_item("mins", 0, "1"))), 1,
        "scaler_state.json of the run: mins[0] must be a finite number in [-inf, inf], "
        "got '1'"),
    "predict, scaler min a bool": (
        _predict(model_text=LEAF_MODEL, state=("scaler_state.json",
                                                _set_item("mins", 0, False))), 1,
        "scaler_state.json of the run: mins[0] must be a finite number in [-inf, inf], "
        "got False"),
    "predict, scaler one max short": (
        _predict(model_text=LEAF_MODEL, state=("scaler_state.json",
                                                lambda doc: dict(doc, maxs=doc["maxs"][:-1]))),
        1, "scaler_state.json of the run: 8 mins but 7 maxs"),
    "predict, scaler max below min": (
        _predict(model_text=LEAF_MODEL, state=("scaler_state.json",
                                                _set_item("maxs", 2, -1.0))), 1,
        "scaler_state.json of the run: scaler state has max < min"),
    "predict, encoder category listed twice": (
        _predict(model_text=LEAF_MODEL, state=("encoder_state.json", _set_item(
            "mappings", "0", ["icmp", "udp", "icmp"]))), 1,
        "encoder_state.json of the run: column 0 lists category 'icmp' twice"),
    "predict, encoder category not a string": (
        _predict(model_text=LEAF_MODEL, state=("encoder_state.json", _set_item(
            "mappings", "0", ["icmp", "udp", 1]))), 1,
        "encoder_state.json of the run: categories of column 0 must be a list of strings"),
    "ingest, report directory missing": (_ingest(MINI_SCHEMA, report="no/report.json"), 1,
                                         "no/report.json: No such file or directory"),
    "predict, out directory missing": (_predict(model_text=LEAF_MODEL, out="no/preds.txt"),
                                       1, "no/preds.txt: No such file or directory"),
    "run, output_dir under a regular file": (
        lambda tmp_path: ["run", "--config", _write_config(
            tmp_path, output_dir=str(tmp_path / "config.yaml" / "run"))],
        1, "config.yaml/run: Not a directory"),
    "report, missing metrics table": (lambda tmp_path: ["report", "--run", tmp_path], 2,
                                      "no metrics table"),
    "report, roc without roc/": (
        lambda tmp_path: ["report", "--run", tmp_path, "--format", "roc"], 2,
        "no roc directory"),
}


@pytest.mark.parametrize("argv, code, fragment", BAD_FILES.values(), ids=list(BAD_FILES))
def test_bad_file_exits_with_typed_error(tmp_path, argv, code, fragment):
    result = CliRunner().invoke(main, [str(a) for a in argv(tmp_path)])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output
    assert fragment in result.output
