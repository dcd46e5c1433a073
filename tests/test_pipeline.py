import importlib.resources
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from fuzzids.dataset import DatasetSchema, LabeledDataset
from fuzzids.errors import ConfigError
from fuzzids.evaluate import auc, roc_curve, roc_vertices
from fuzzids.fuzzy import FeatureRanking, select_vectors
from fuzzids.models import ClassifierConfig, fit_model
from fuzzids.pipeline import (
    ExperimentConfig,
    _evaluate,
    _ranked_columns,
    binary_mapping,
    default_binary_rule,
    emit_report,
    run_experiment,
)

from conftest import make_dataset

DATA = importlib.resources.files("fuzzids") / "data"

NSL_SCHEMA = DatasetSchema(
    name="nsl", columns=(("a", "numeric"), ("y", "categorical")),
    label_column="y",
    label_encoding={"normal": 0, "r2l": 1, "u2r": 2, "probe": 3, "dos": 4},
)
UG_SCHEMA = DatasetSchema(
    name="ug", columns=(("a", "numeric"), ("y", "categorical")),
    label_column="y", label_encoding={"A": 0, "S": 1, "SS": 2},
)


def mini_config(out_dir, seed=42, task="multiclass", models=None,
                binary_rule=None):
    if models is None:
        models = [ClassifierConfig(kind="dt"), ClassifierConfig(kind="nb")]
    return ExperimentConfig(
        train_path=str(DATA / "mini_train.csv"),
        test_path=str(DATA / "mini_test.csv"),
        schema_path=str(DATA / "mini.yaml"),
        task=task,
        binary_rule=binary_rule,
        vector_names=["v1", "v2"],
        vector_lengths=[6, 4],
        models=models,
        seed=seed,
        output_dir=str(out_dir),
    )


class TestBinaryMapping:
    def test_nsl_default_rule(self):
        out = binary_mapping(np.array([0, 4, 3, 1]), NSL_SCHEMA)
        assert out.tolist() == [0, 1, 1, 1]

    def test_ugransome_default_rule(self):
        out = binary_mapping(np.array([0, 1, 2]), UG_SCHEMA)
        assert out.tolist() == [1, 0, 0]

    def test_custom_rule_override(self):
        rule = {"A": 0, "S": 0, "SS": 1}
        out = binary_mapping(np.array([0, 1, 2]), UG_SCHEMA, rule)
        assert out.tolist() == [0, 0, 1]

    def test_label_outside_rule_rejected(self):
        with pytest.raises(ConfigError, match=r"labels \[7\] outside the binary rule"):
            binary_mapping(np.array([0, 7, 2]), UG_SCHEMA)

    def test_rule_naming_an_unknown_label_rejected(self):
        with pytest.raises(ConfigError, match="binary rule names 'SSS', not a label"):
            binary_mapping(np.array([0]), UG_SCHEMA, {"A": 1, "S": 0, "SS": 0, "SSS": 0})

    def test_incomplete_rule_rejected(self):
        with pytest.raises(ConfigError):
            binary_mapping(np.array([0]), UG_SCHEMA, {"A": 1})

    def test_no_convention_requires_explicit_rule(self):
        schema = DatasetSchema(
            name="other", columns=(("a", "numeric"), ("y", "categorical")),
            label_column="y", label_encoding={"x": 0, "z": 1},
        )
        with pytest.raises(ConfigError):
            default_binary_rule(schema)


def test_ranked_views_match_gathered_columns():
    r = np.random.default_rng(8)
    ds = make_dataset(r.uniform(size=(40, 9)), r.integers(0, 2, size=40))
    vectors = select_vectors(FeatureRanking(r.uniform(size=9)), [4, 9, 1], ["a", "b", "c"])
    x = _ranked_columns(ds, vectors)
    for vec in vectors:
        view, copy = x[:, :len(vec.indices)], ds.features[:, list(vec.indices)]
        # the models read the same values laid out alike
        assert view.strides == copy.strides and view.flags.f_contiguous
        assert view.tobytes(order="A") == copy.tobytes(order="A")
    assert _ranked_columns(ds, []).shape == (40, 0)


class TestClassAxis:
    def test_validation_without_a_class_keeps_the_schema_axis(self):
        schema = DatasetSchema(
            name="three", columns=(("a", "numeric"), ("y", "categorical")),
            label_column="y", label_encoding={"p": 0, "q": 1, "r": 2},
        )
        x = np.array([[0.0], [0.1], [0.5], [0.6], [0.9], [1.0]])
        model = fit_model(x, np.array([0, 0, 1, 1, 2, 2]), ClassifierConfig(kind="dt"))
        val = LabeledDataset(schema, np.array([[0.05], [0.55]]), np.array([0, 1]))
        test = LabeledDataset(schema, np.array([[0.05], [0.55], [0.95]]),
                              np.array([0, 1, 2]))
        val_rep, val_cm, _ = _evaluate(model, val.features, val, "multiclass")
        _, test_cm, _ = _evaluate(model, test.features, test, "multiclass")
        assert val_cm.n_classes == test_cm.n_classes == 3
        # the class without support counts 0 in every macro average
        assert "class_2_no_support" in val_rep.undefined_flags
        assert val_rep.per_class[2] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        assert val_rep.recall == pytest.approx(2 / 3)


class FixedScores:
    """A trained-model stand-in that returns the scores it was given."""

    def __init__(self, classes, scores):
        self.classes = np.asarray(classes)
        self.scores = scores

    def score(self, x):
        return self.scores


class TestRocRecords:
    def test_auc_over_every_row_and_vertices_kept(self):
        differs = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            y = rng.integers(0, 2, size=2000)
            positive = np.round(0.5 * rng.uniform(size=2000)
                                + 0.5 * y * rng.uniform(size=2000), 2)
            model = FixedScores([0, 1], np.column_stack([1.0 - positive, positive]))
            ds = LabeledDataset(UG_SCHEMA, np.zeros((2000, 1)), y)
            points = roc_curve(y, positive)
            binary, _, roc = _evaluate(model, ds.features, ds, "binary")
            assert binary.auc == auc(points)
            assert np.array_equal(roc["binary"], roc_vertices(y, points))
            multi, _, roc = _evaluate(model, ds.features, ds, "multiclass")
            assert multi.auc_per_class[1] == auc(points)
            assert np.array_equal(roc["1"], roc_vertices(y, points))
            differs.append(auc(roc_vertices(y, points)) != auc(points))
        # the trapezoids over the vertices alone round differently on some seeds
        assert any(differs)

    def test_roc_files_hold_vertices_with_round_trip_thresholds(self, tmp_path):
        out = tmp_path / "out"
        report = run_experiment(mini_config(out))
        for path in sorted((out / "roc").iterdir()):
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            for (part, cls), block in itertools.groupby(rows, key=lambda r: r[:2]):
                counts = report.split_counts[part]
                n_pos = counts[cls]
                n_neg = sum(counts.values()) - n_pos
                fpr, tpr, thresholds = np.array([r[2:] for r in block], dtype=float).T
                f, t = np.rint(fpr * n_neg), np.rint(tpr * n_pos)
                df, dt = np.diff(f), np.diff(t)
                # no three consecutive rows on one line
                assert np.all(df[:-1] * dt[1:] != dt[:-1] * df[1:]), (path.name, part, cls)
                # the printed thresholds are distinct, as the scores are
                assert np.all(np.diff(thresholds) < 0), (path.name, part, cls)

    def test_thresholds_written_round_trip(self, tmp_path):
        out = tmp_path / "out"
        report = run_experiment(mini_config(out, models=[ClassifierConfig(kind="nb")]))
        # posteriors a few ulps below 1 print alike with 10 significant digits
        points = np.array([[0.0, 0.0, np.inf], [0.0, 0.5, 1 - 2.0**-50],
                           [0.5, 1.0, 1 - 2.0**-49], [1.0, 1.0, 1 - 2.0**-48]])
        cell = report.cells[0]
        cell.evaluations["test"] = cell.evaluations["test"]._replace(roc={"binary": points})
        emit_report(report)
        rows = (out / "roc" / "nb_v1.csv").read_text().splitlines()
        written = [float(r.split(",")[4]) for r in rows if r.startswith("test,")]
        assert written == points[:, 2].tolist()


class TestExperimentConfig:
    def test_round_trips_through_yaml(self, tmp_path):
        import yaml

        cfg = mini_config(tmp_path / "out")
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg.to_dict()), encoding="utf-8")
        clone = ExperimentConfig.from_file(path)
        assert clone.to_dict() == cfg.to_dict()
        assert clone.config_hash() == cfg.config_hash()

    def test_readme_example_loads(self):
        import yaml

        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = [part.split("```")[0] for part in readme.split("```yaml\n")[1:]]
        assert len(blocks) == 1
        cfg = ExperimentConfig.from_dict(yaml.safe_load(blocks[0]))
        assert [m.kind for m in cfg.models] == ["dt", "rf", "gbt", "nb", "svm"]

    def test_duplicate_vector_names_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                train_path="t", test_path="t", schema_path="s",
                vector_names=["v1", "v1"], vector_lengths=[1, 2],
            )

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(train_path="t", test_path="t", schema_path="s",
                             task="ternary")


class TestRunExperiment:
    def test_cell_count_contract(self, tmp_path):
        report = run_experiment(mini_config(tmp_path / "out"))
        # 2 models x 2 vectors
        assert len(report.cells) == 4
        names = {(c.model_name, c.vector_name) for c in report.cells}
        assert names == {("dt", "v1"), ("dt", "v2"), ("nb", "v1"), ("nb", "v2")}

    def test_binary_task_collapses_labels(self, tmp_path):
        cfg = mini_config(tmp_path / "out", task="binary",
                          binary_rule={"benign": 0, "scan": 1, "ransom": 1})
        report = run_experiment(cfg)
        assert set(report.split_counts["train"]) <= {"0", "1"}
        assert all(c.evaluations["validation"].metrics.auc is not None
                   for c in report.cells)

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(mini_config(out, seed=7))
        first = _snapshot(out)
        run_experiment(mini_config(out, seed=7))
        second = _snapshot(out)
        assert first == second

    def test_seed_changes_split_not_schema(self, tmp_path):
        r1 = run_experiment(mini_config(tmp_path / "a", seed=1))
        r2 = run_experiment(mini_config(tmp_path / "b", seed=2))
        d1, d2 = r1.to_dict(), r2.to_dict()
        assert d1["cells"].keys() == d2["cells"].keys()
        assert d1 != d2

    def test_no_leakage_from_test_file(self, tmp_path):
        """Swapping the test file leaves every training-stage artifact unchanged."""
        out1 = tmp_path / "a"
        cfg1 = mini_config(out1, seed=3)
        run_experiment(cfg1)

        out2 = tmp_path / "b"
        cfg2 = mini_config(out2, seed=3)
        cfg2.test_path = str(DATA / "mini_train.csv")  # different test input
        run_experiment(cfg2)

        for name in ("scaler_state.json", "encoder_state.json", "ranking.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for model_file in sorted((out1 / "models").iterdir()):
            assert model_file.read_bytes() == (out2 / "models" / model_file.name).read_bytes()

    def test_et_fusion_mode_runs(self, tmp_path):
        cfg = mini_config(tmp_path / "out")
        cfg.et_weight = 0.5
        report = run_experiment(cfg)
        assert len(report.cells) == 4

    def test_timing_recorded_per_cell(self, tmp_path):
        report = run_experiment(mini_config(tmp_path / "out"))
        assert "cell/dt/v1" in report.timings


class TestEmitReport:
    def test_fan_out_contract(self, tmp_path):
        out = tmp_path / "out"
        report = run_experiment(mini_config(out))
        assert len(list((out / "roc").iterdir())) == 4
        assert len(list((out / "cm").iterdir())) == 4
        assert (out / "metrics_table.csv").exists()

    def test_feature_table_in_rank_order(self, tmp_path):
        out = tmp_path / "out"
        report = run_experiment(mini_config(out))
        lines = (out / "selected_features.csv").read_text().splitlines()
        v1_rows = [l.split(",") for l in lines[1:] if l.startswith("v1,")]
        assert [int(r[1]) for r in v1_rows] == list(range(6))
        expected = [report.feature_names[i] for i in report.vectors[0].indices]
        assert [r[3] for r in v1_rows] == expected

    def test_empty_model_config_header_only_table(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(mini_config(out, models=[]))
        lines = (out / "metrics_table.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_report_json_valid_and_keyed(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(mini_config(out))
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["cells"]) == {"dt/v1", "dt/v2", "nb/v1", "nb/v2"}
        assert doc["provenance"]["seed"] == 42


def _snapshot(out_dir: Path) -> dict:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "timings.json"
    }
