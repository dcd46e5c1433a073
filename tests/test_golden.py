"""Golden artifacts: a fixed mini run must reproduce its stored bytes exactly.

Four runs on the bundled mini corpus: one multiclass with ET-fused ranking
(``et_weight: 0.5``) over dt/rf/et/gbt, one binary over dt and gbt, one
multiclass over nb and svm, and one binary over gini rf, gini et and svm.
Each runs in a temporary working directory with relative paths, so the
bytes do not depend on where the checkout lives. Every file of the run
directory except ``timings.json`` (reports, states, ranking, models, ROC
curves and confusion matrices) is compared byte for byte with
``tests/golden/``.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py``, and only in a
change that declares the behaviour change.
"""

from __future__ import annotations

import importlib.resources
import shutil
import sys
from itertools import zip_longest
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
    "nb_svm": {
        "task": "multiclass",
        "vector_names": ["v1", "v2"],
        "vector_lengths": [6, 3],
        "models": [{"kind": "nb"}, {"kind": "svm", "max_iters": 50}],
        "seed": 11,
    },
    "gini_binary": {
        "task": "binary",
        "binary_rule": {"benign": 0, "scan": 1, "ransom": 1},
        "vector_names": ["v1", "v2"],
        "vector_lengths": [7, 4],
        "models": [{"kind": "rf", "impurity": "gini", "n_trees": 3, "seed": 5},
                   {"kind": "et", "impurity": "gini", "n_trees": 3, "seed": 5},
                   {"kind": "svm", "max_iters": 50}],
        "seed": 5,
    },
}


def _artifacts(out_dir: Path) -> list[Path]:
    """Every file of a run directory except ``timings.json``, which follows the clock."""
    return sorted(p for p in out_dir.rglob("*")
                  if p.is_file() and p.name != "timings.json")


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
        want, got = expected[rel].read_bytes(), path.read_bytes()
        if got != want:
            pytest.fail(_first_difference(f"{name}/{rel}", want, got))


def _first_difference(label: str, want: bytes, got: bytes) -> str:
    """Where two differing text artifacts first part: the file, the line
    number and both lines, ``None`` past the end of the shorter one."""
    lines = (b.decode(errors="replace").splitlines(keepends=True) for b in (want, got))
    for number, (old, new) in enumerate(zip_longest(*lines), start=1):
        if old != new:
            return f"{label} differs at line {number}: expected {old!r}, produced {new!r}"
    return f"{label} differs in bytes that are not UTF-8"


def test_first_difference_names_the_line():
    assert _first_difference("binary/roc/dt_v1.csv", b"a,b\n1,2\n3,4\n", b"a,b\n1,3\n3,4\n") \
        == "binary/roc/dt_v1.csv differs at line 2: expected '1,2\\n', produced '1,3\\n'"
    assert _first_difference("f", b"a\n", b"a\nb\n") \
        == "f differs at line 2: expected None, produced 'b\\n'"


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
