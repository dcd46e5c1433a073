"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 9 and 10 need the real UGRansome corpus; point
FUZZIDS_UGRANSOME_TRAIN / FUZZIDS_UGRANSOME_TEST at the CSV files to enable
them (they are skipped otherwise).
"""

import importlib.resources
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fuzzids.dataset import DatasetSchema, load_csv, stratified_split
from fuzzids.evaluate import (
    ConfusionMatrix,
    confusion,
    f1_score,
    macro_metrics,
    metrics,
)
from fuzzids.fuzzy import TriangularParams, fuzzy_importance, triangular_membership
from fuzzids.models import ClassifierConfig, fit_model
from fuzzids.pipeline import ExperimentConfig, run_experiment

from conftest import make_dataset
from test_evaluate import auc_score, wilcoxon_auc

DATA = importlib.resources.files("fuzzids") / "data"
SCHEMAS = importlib.resources.files("fuzzids") / "schemas"


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_metric_identity_anchor():
    """F1 against the published multiclass row PR 0.950 / RC 0.806 / F1 0.870.

    The published F1 is a per-class macro average, not the harmonic mean of
    the macro PR and RC. Checked in two parts:

    1. The identity: ``f1_score(0.950, 0.806)`` is exactly
       2 * 0.950 * 0.806 / 1.756 = 7657/8780 = 0.8720957. No harmonic mean of
       the two published inputs reaches 0.870, even granting their rounding:
       the harmonic mean rises in both arguments, so over PR in
       [0.9495, 0.9505] and RC in [0.8055, 0.8065] it lies in
       [0.87159, 0.87260].
    2. The triple through ``macro_metrics``: the harmonic mean is concave, so
       by Jensen's inequality the mean of per-class F1 is at most the harmonic
       mean of the macro PR and macro RC (Opitz & Burst, "Macro F1 and Macro
       F1", arXiv:1911.03347). A class-averaged F1 of 0.870 next to a macro
       PR of 0.950 and RC of 0.806 is therefore consistent. The confusion
       matrix below (rows are true classes, class 0 normal traffic, every
       error a confusion with normal) was found by a seeded random search over
       integer matrices of that shape followed by a local integer search. It
       gives PR 0.950178, RC 0.806181 and F1 0.869819, while the harmonic mean
       of its PR and RC is 0.872277.
    """
    tol = 0.0005
    pr, rc = Fraction("0.950"), Fraction("0.806")
    exact = float(2 * pr * rc / (pr + rc))
    f1 = f1_score(0.950, 0.806)
    ok = abs(f1 - exact) <= 1e-12

    cm = ConfusionMatrix(np.array([
        [3773, 9, 1, 1, 4],
        [40, 145, 0, 0, 0],
        [8, 0, 34, 0, 0],
        [12, 0, 0, 30, 0],
        [12, 0, 0, 0, 32],
    ]))
    rep = macro_metrics(cm)
    ok &= abs(rep.precision - 0.950) <= tol
    ok &= abs(rep.recall - 0.806) <= tol
    ok &= abs(rep.f1 - 0.870) <= tol
    pooled = f1_score(rep.precision, rep.recall)
    ok &= abs(pooled - 0.872) <= tol and abs(pooled - 0.870) > tol
    _report(1, ok, f"f1(0.950, 0.806) = {f1:.12f} vs 7657/8780; macro PR/RC/F1 "
                   f"{rep.precision:.6f}/{rep.recall:.6f}/{rep.f1:.6f} vs "
                   f"0.950/0.806/0.870 +/- {tol}; f1(PR, RC) = {pooled:.6f}")


def test_criterion_2_metric_oracle_suite():
    rng = np.random.default_rng(2)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        y = rng.integers(0, 2, size=n)
        pred = rng.integers(0, 2, size=n)
        rep = metrics(confusion(y, pred, 2))
        tp = int(((y == 1) & (pred == 1)).sum())
        fp = int(((y == 0) & (pred == 1)).sum())
        fn = int(((y == 1) & (pred == 0)).sum())
        tn = int(((y == 0) & (pred == 0)).sum())
        pr = tp / (tp + fp) if tp + fp else 0.0
        rc = tp / (tp + fn) if tp + fn else 0.0
        exact &= rep.accuracy == (tp + tn) / n
        exact &= rep.precision == pr
        exact &= rep.recall == rc
        exact &= rep.f1 == (2 * pr * rc / (pr + rc) if pr + rc else 0.0)
        exact &= rep.error == 1.0 - (tp + tn) / n
        if not exact:
            break
    _report(2, exact, "1000 randomized sets: matrix metrics == direct counting")


def test_criterion_3_auc_oracle_suite():
    rng = np.random.default_rng(3)
    ok = auc_score([0, 0, 1, 1], [0.0, 0.0, 1.0, 1.0]) == 1.0
    ok &= auc_score([0, 0, 1, 1], [1.0, 1.0, 0.0, 0.0]) == 0.0
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 60))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        scores = np.round(rng.uniform(size=n), 2)
        worst = max(worst, abs(auc_score(y, scores) - wilcoxon_auc(y, scores)))
    ok &= worst <= 1e-12
    y = np.array([0, 1] * 5000)
    random_auc = auc_score(y, rng.uniform(size=10_000))
    ok &= abs(random_auc - 0.5) <= 0.05
    _report(3, ok, f"wilcoxon max dev {worst:.2e}; random auc {random_auc:.4f}")


def test_criterion_4_fuzzy_selector_property():
    rng = np.random.default_rng(4)
    near_peak = rng.normal(0.5, 0.03, size=(200, 5)).clip(0, 1)
    near_feet = np.where(rng.uniform(size=(200, 15)) < 0.5,
                         rng.uniform(0.0, 0.05, size=(200, 15)),
                         rng.uniform(0.95, 1.0, size=(200, 15)))
    x = np.column_stack([near_feet[:, :8], near_peak, near_feet[:, 8:]])
    ds = make_dataset(x, rng.integers(0, 2, size=200))
    ranking = fuzzy_importance(ds, TriangularParams(0.0, 0.5, 1.0))
    top5 = set(ranking.order[:5].tolist())
    ok = top5 == {8, 9, 10, 11, 12}
    _report(4, ok, f"peak-concentrated features occupy top 5 ranks: {sorted(top5)}")


def test_criterion_5_membership_function():
    p = TriangularParams(0.0, 0.5, 1.0)
    ok = triangular_membership(p.b, p) == 1.0
    ok &= triangular_membership(p.a, p) == 0.0
    ok &= triangular_membership(p.c, p) == 0.0
    ok &= triangular_membership((p.a + p.b) / 2, p) == 0.5
    grid = np.linspace(p.a - 0.1, p.c + 0.1, 10_000)
    mu = triangular_membership(grid, p)
    spacing = grid[1] - grid[0]
    slope = max(1.0 / (p.b - p.a), 1.0 / (p.c - p.b))
    max_step = float(np.abs(np.diff(mu)).max())
    ok &= max_step < 10.0 * spacing * slope
    _report(5, ok, f"exact anchors hold; max grid step {max_step:.2e}")


def xor_benchmark(n, seed):
    rng = np.random.default_rng(seed)
    centers = [((0, 0), 0), ((1, 1), 0), ((0, 1), 1), ((1, 0), 1)]
    xs, ys = [], []
    for i in range(n):
        (cx, cy), label = centers[i % 4]
        xs.append(rng.normal((cx, cy), 0.15))
        ys.append(label)
    return np.asarray(xs), np.asarray(ys, dtype=np.int64)


def test_criterion_6_model_ordering_on_xor():
    x_train, y_train = xor_benchmark(200, seed=60)
    x_test, y_test = xor_benchmark(200, seed=61)
    accs = {}
    for kind in ("dt", "rf", "et", "gbt", "nb"):
        cfg = ClassifierConfig(kind=kind, seed=6, n_trees=50, n_rounds=50)
        model = fit_model(x_train, y_train, cfg)
        accs[kind] = float((model.predict(x_test) == y_test).mean())
    ok = all(accs[k] >= 0.95 for k in ("dt", "rf", "et", "gbt"))
    ok &= accs["nb"] <= 0.65
    _report(6, ok, "xor accuracies " + ", ".join(f"{k}={v:.3f}" for k, v in accs.items()))


def test_criterion_7_optimization_sanity():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(20):
        n = int(rng.integers(8, 40))
        x = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        svm = fit_model(x, y, ClassifierConfig(kind="svm", max_iters=300, seed=1))
        for trace in svm.objective_traces:
            ok &= all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))
        gbt = fit_model(x, y, ClassifierConfig(kind="gbt", n_rounds=25, seed=1))
        for trace in gbt.objective_traces:
            ok &= all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))
    _report(7, ok, "svm and gbt objectives non-increasing on 20 random datasets")


def _mini_config(out_dir, seed):
    return ExperimentConfig(
        train_path=str(DATA / "mini_train.csv"),
        test_path=str(DATA / "mini_test.csv"),
        schema_path=str(DATA / "mini.yaml"),
        task="multiclass",
        vector_names=["v1", "v2"],
        vector_lengths=[6, 4],
        models=[
            ClassifierConfig(kind="dt", seed=seed),
            ClassifierConfig(kind="rf", seed=seed, n_trees=10),
            ClassifierConfig(kind="nb", seed=seed),
        ],
        seed=seed,
        output_dir=str(out_dir),
    )


def _snapshot(out_dir):
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(Path(out_dir).rglob("*"))
        if p.is_file() and p.name != "timings.json"
    }


def test_criterion_8_end_to_end_determinism(tmp_path):
    out = tmp_path / "run"
    run_experiment(_mini_config(out, seed=8))
    first = _snapshot(out)
    run_experiment(_mini_config(out, seed=8))
    second = _snapshot(out)
    identical = first == second

    other = run_experiment(_mini_config(tmp_path / "other", seed=9))
    base = run_experiment(_mini_config(tmp_path / "base", seed=8))
    schema_stable = base.to_dict()["cells"].keys() == other.to_dict()["cells"].keys()
    # a different seed must move rows between train and validation, which
    # shows up in the fitted scaler bounds
    split_changed = (
        (tmp_path / "base" / "scaler_state.json").read_bytes()
        != (tmp_path / "other" / "scaler_state.json").read_bytes()
    )
    ok = identical and schema_stable and split_changed
    _report(8, ok, f"rerun identical={identical}, schema stable={schema_stable}, "
                   f"split moved={split_changed}")


def _ugransome_paths():
    train = os.environ.get("FUZZIDS_UGRANSOME_TRAIN")
    test = os.environ.get("FUZZIDS_UGRANSOME_TEST")
    if not (train and test and Path(train).exists() and Path(test).exists()):
        pytest.skip("set FUZZIDS_UGRANSOME_TRAIN / FUZZIDS_UGRANSOME_TEST to run")
    schema = os.environ.get("FUZZIDS_UGRANSOME_SCHEMA",
                            str(SCHEMAS / "ugransome.yaml"))
    return train, test, schema


def test_criterion_9_full_data_check(tmp_path):
    train, test, schema = _ugransome_paths()
    cfg = ExperimentConfig(
        train_path=train, test_path=test, schema_path=schema,
        task="binary", split_fractions=(0.7, 0.3),
        models=[ClassifierConfig(kind="rf", n_trees=50, seed=0),
                ClassifierConfig(kind="nb", seed=0)],
        seed=0, output_dir=str(tmp_path / "ug"),
    )
    report = run_experiment(cfg)

    def best_accuracy(model: str, part: str) -> float:
        return max(c.evaluations[part].metrics.accuracy
                   for c in report.cells if c.model_name == model)

    rf_vac = best_accuracy("rf", "validation")
    rf_tac = best_accuracy("rf", "test")
    nb_tac = best_accuracy("nb", "test")
    # published reference points: RF VAC 0.999, RF TAC 0.875
    for name, value, ref in (("rf_vac", rf_vac, 0.999), ("rf_tac", rf_tac, 0.875)):
        if abs(value - ref) > 0.05:
            print(f"[NOTE] criterion 9: {name}={value:.4f} deviates more than "
                  f"5pp from the reference {ref:.3f} (reported, not failed)")
    ok = rf_vac >= 0.95 and rf_tac >= nb_tac
    _report(9, ok, f"rf vac {rf_vac:.4f} >= 0.95 and rf tac {rf_tac:.4f} >= "
                   f"nb tac {nb_tac:.4f}")


def test_criterion_10_split_proportion_on_real_files():
    train_path, _, schema_path = _ugransome_paths()
    schema = DatasetSchema.from_file(schema_path)
    ds = load_csv(train_path, schema)
    train, val = stratified_split(ds, 0.3, 0)
    ratio = len(val) / len(ds)
    ok = abs(ratio - 0.30) <= 0.01
    _report(10, ok, f"validation ratio {ratio:.4f} within 0.30 +/- 0.01")
