"""Tests of the benchmark itself, on the tiny smoke sizes of its workloads.

Run from the repository root: ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _path in (str(ROOT / "src"), str(BENCH)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.SPEC["workloads"])


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _smoke(workload: str, trace: int, seed: int = 3) -> dict:
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_corpus_is_seed_deterministic(tmp_path):
    counts = corpus.scaled_counts(corpus.TRAIN_COUNTS, 300)
    for name, seed in (("a", (1, 0)), ("b", (1, 0)), ("c", (2, 0))):
        corpus.write_csv(tmp_path / f"{name}.csv", counts, seed)
    a, b, c = ((tmp_path / f"{n}.csv").read_bytes() for n in "abc")
    assert a == b
    assert a != c
    lines = a.decode().splitlines()
    assert len(lines[0].split(",")) == 42
    labels = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert {c: labels.count(c) for c in corpus.CLASSES} == counts


def test_full_size_counts_are_the_kdd_counts():
    assert corpus.scaled_counts(corpus.TRAIN_COUNTS, 125973) == corpus.TRAIN_COUNTS
    assert corpus.scaled_counts(corpus.TEST_COUNTS, 22544) == corpus.TEST_COUNTS
    doc = corpus.schema_doc()
    assert len(doc["columns"]) == 42
    assert [c for c, k in zip(doc["columns"], doc["kinds"]) if k == "categorical"] == [
        "protocol_type", "service", "flag", "class"]


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in run.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in spans.PER_LAYER
    ]
    assert doc["workloads"] == [
        {"name": name, "why": spec["why"]}
        for name, spec in workloads.SPEC["workloads"].items()
    ]
    names = [n for n, _, _ in spans.PER_LAYER]
    for key in workloads.SPEC["layer_map"]:
        assert any(n == key or (key.endswith("*") and n.startswith(key[:-1]))
                   for n in names), key


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1 + trace
    names = ([n for n, *_ in run.END_TO_END] if trace == 0
             else [n for n, *_ in spans.PER_LAYER])
    assert list(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"])
    if trace == 0:
        for name, *_ in run.END_TO_END:
            assert result["metrics"][name]["value"] > 0


def test_deterministic_metrics_repeat_exactly():
    for trace, names in ((0, ["test_f1", "artifact_mb"]),
                         (1, ["models.nodes.dt", "models.nodes.rf", "models.nodes.et",
                              "models.nodes.gbt", "evaluate.roc_points"])):
        first, second = (_smoke("grid-multiclass", trace) for _ in range(2))
        for name in names:
            assert first["metrics"][name] == second["metrics"][name], name


def test_exits_non_zero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "grid-multiclass", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_patch_restores_every_name():
    from fuzzids import models, pipeline, preprocess
    from fuzzids.models import base, tree
    before = (pipeline.load_csv, pipeline.fit_model, models.load_model,
              tree.ForestModel.score, base.TrainedModel.predict,
              preprocess.ScalerState.from_dict)
    tracer = spans.Tracer()
    with tracer.patch():
        assert pipeline.fit_model is not before[1]
        assert pipeline.fit_model is models.fit_model
    after = (pipeline.load_csv, pipeline.fit_model, models.load_model,
             tree.ForestModel.score, base.TrainedModel.predict,
             preprocess.ScalerState.from_dict)
    assert after == before


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("op"):
        with tracer.span("models.predict.dt"):
            with tracer.span("models.score.dt"):
                pass
    root, predict, score = tracer.spans
    assert predict.parent == 0 and score.parent == 1
    layers = tracer.layer_metrics(0)
    assert layers["models.score_s.dt"] == pytest.approx(predict.duration)
    assert layers["pipeline.self_s"] == pytest.approx(root.duration - predict.duration)


def test_deployed_check_catches_prediction_drift(tmp_path):
    workload = workloads.make("score-deployed", tmp_path / "w", smoke=True)
    workload.setup(seed=5)
    workload.save_reference()
    workload.prepare()
    labels, predictions = workload.operation()
    assert workload.check((labels, predictions)).error is None
    predictions["dt"] = predictions["dt"].copy()
    predictions["dt"][0] = (predictions["dt"][0] + 1) % len(corpus.CLASSES)
    assert "dt" in workload.check((labels, predictions)).error
