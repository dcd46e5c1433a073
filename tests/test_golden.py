"""Golden artifacts: a fixed mini run must reproduce its stored bytes exactly.

Two runs on the bundled mini corpus, one multiclass with ET-fused ranking
(``et_weight: 0.5``) over dt/rf/et/gbt, one binary. Each runs in a temporary
working directory with relative paths, so the bytes do not depend on where
the checkout lives. ``report.json``, ``metrics_table.csv`` and every
``models/*.json`` are compared byte for byte with ``tests/golden/``.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py``, and only in a
change that declares the behaviour change.
"""

from __future__ import annotations

import importlib.resources
import shutil
import sys
from pathlib import Path

import pytest

from fuzzids.pipeline import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).parent / "golden"
DATA = importlib.resources.files("fuzzids") / "data"

TREE_MODELS = [
    {"kind": "dt"},
    {"kind": "dt", "impurity": "gini", "max_depth": 4},
    {"kind": "rf", "n_trees": 3, "max_depth": 6, "seed": 7},
    {"kind": "et", "n_trees": 3, "max_depth": 6, "seed": 7},
    {"kind": "gbt", "n_rounds": 3, "gbt_max_depth": 3},
]

RUNS = {
    "multiclass": {
        "task": "multiclass",
        "et_weight": 0.5,
        "vector_names": ["v1", "v2"],
        "vector_lengths": [6, 4],
        "models": TREE_MODELS,
        "seed": 42,
    },
    "binary": {
        "task": "binary",
        "binary_rule": {"benign": 0, "scan": 1, "ransom": 1},
        "vector_names": ["v1"],
        "vector_lengths": [5],
        "models": [{"kind": "dt", "max_depth": 5}, {"kind": "gbt", "n_rounds": 3,
                                                   "gbt_max_depth": 2}],
        "seed": 3,
    },
}


def _artifacts(out_dir: Path) -> list[Path]:
    return [out_dir / "report.json", out_dir / "metrics_table.csv",
            *sorted((out_dir / "models").glob("*.json"))]


def _run(name: str, work_dir: Path) -> Path:
    """Run one golden config inside work_dir; return its output directory."""
    for fname in ("mini_train.csv", "mini_test.csv", "mini.yaml"):
        shutil.copyfile(DATA / fname, work_dir / fname)
    doc = dict(RUNS[name], train_path="mini_train.csv", test_path="mini_test.csv",
               schema_path="mini.yaml", output_dir=name)
    run_experiment(ExperimentConfig.from_dict(doc))
    return work_dir / name


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out_dir = _run(name, tmp_path)
    produced = {p.relative_to(out_dir).as_posix(): p for p in _artifacts(out_dir)}
    expected = {p.relative_to(GOLDEN / name).as_posix(): p
                for p in _artifacts(GOLDEN / name)}
    assert sorted(produced) == sorted(expected)
    for rel, path in produced.items():
        assert path.read_bytes() == expected[rel].read_bytes(), f"{name}/{rel} differs"


def _regenerate() -> None:
    import os
    import tempfile

    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                out_dir = _run(name, Path(tmp))
            finally:
                os.chdir(cwd)
            target = GOLDEN / name
            shutil.rmtree(target, ignore_errors=True)
            for path in _artifacts(out_dir):
                dest = target / path.relative_to(out_dir)
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, dest)
            print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
