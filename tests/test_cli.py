import importlib.resources
import json

import pytest
import yaml
from click.testing import CliRunner

from fuzzids.cli import main

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


def test_preprocess_select_train_predict(tmp_path):
    runner = CliRunner()
    out = tmp_path / "prep"
    result = runner.invoke(main, [
        "preprocess", "--train", str(DATA / "mini_train.csv"),
        "--apply", str(DATA / "mini_test.csv"),
        "--schema", str(DATA / "mini.yaml"), "--out-dir", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert (out / "scaler_state.json").exists()
    assert (out / "mini_test_scaled.csv").exists()

    selection = tmp_path / "selection.json"
    result = runner.invoke(main, [
        "select", "--data", str(DATA / "mini_train.csv"),
        "--schema", str(DATA / "mini.yaml"),
        "--lengths", "5,3", "--names", "v1,v2", "--out", str(selection),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(selection.read_text())
    assert len(doc["vectors"]["v1"]) == 5

    model_path = tmp_path / "model.json"
    result = runner.invoke(main, [
        "train", "--data", str(DATA / "mini_train.csv"),
        "--schema", str(DATA / "mini.yaml"), "--model", "dt",
        "--out", str(model_path),
    ])
    assert result.exit_code == 0, result.output

    preds = tmp_path / "preds.txt"
    result = runner.invoke(main, [
        "predict", "--model", str(model_path),
        "--data", str(DATA / "mini_test.csv"),
        "--schema", str(DATA / "mini.yaml"), "--out", str(preds),
    ])
    assert result.exit_code == 0, result.output
    assert len(preds.read_text().splitlines()) == 200


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
}


@pytest.mark.parametrize("text", BAD_CONFIGS.values(), ids=list(BAD_CONFIGS))
def test_run_bad_config_exits_with_config_error(tmp_path, text):
    config_path = tmp_path / "config.yaml"
    if text is not None:
        config_path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output
