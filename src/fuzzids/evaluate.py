"""Confusion matrices, scalar metrics, ROC curves and AUC."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K counts; entry (i, j) = samples of true class i predicted as j."""

    counts: np.ndarray

    def __post_init__(self):
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise EvaluationError("confusion matrix must be square")
        if np.any(self.counts < 0):
            raise EvaluationError("confusion matrix entries must be nonnegative")
        self.counts.setflags(write=False)

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def binary_view(self, positive_class: int = 1) -> tuple[int, int, int, int]:
        """(TN, FP, FN, TP) treating one class as positive, the rest negative."""
        c = self.counts
        p = positive_class
        tp = int(c[p, p])
        fn = int(c[p, :].sum() - tp)
        fp = int(c[:, p].sum() - tp)
        tn = self.total - tp - fn - fp
        return tn, fp, fn, tp

    def to_dict(self) -> dict:
        return {"counts": self.counts.tolist()}


@dataclass
class MetricsReport:
    """Scalar metrics plus optional per-class metrics and AUC."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    error: float
    undefined_flags: list[str] = field(default_factory=list)
    per_class: dict[int, dict[str, float]] = field(default_factory=dict)
    auc: float | None = None
    auc_per_class: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "error": self.error,
            "undefined_flags": list(self.undefined_flags),
        }
        if self.per_class:
            doc["per_class"] = {str(k): v for k, v in self.per_class.items()}
        if self.auc is not None:
            doc["auc"] = self.auc
        if self.auc_per_class:
            doc["auc_per_class"] = {str(k): v for k, v in self.auc_per_class.items()}
        return doc


def confusion(true_labels, predicted_labels, n_classes: int) -> ConfusionMatrix:
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
    if len(true_labels) != len(predicted_labels):
        raise EvaluationError("label arrays must have equal length")
    for name, arr in (("true", true_labels), ("predicted", predicted_labels)):
        if len(arr) and (arr.min() < 0 or arr.max() >= n_classes):
            raise EvaluationError(f"{name} label out of range [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (true_labels, predicted_labels), 1)
    return ConfusionMatrix(counts)


def _safe_ratio(num: float, den: float, flag: str,
                flags: list[str]) -> float:
    if den == 0:
        flags.append(flag)
        return 0.0
    return num / den


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both vanish."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def metrics(cm: ConfusionMatrix, positive_class: int = 1) -> MetricsReport:
    """Binary scalar metrics from the one-vs-rest view of a class."""
    tn, fp, fn, tp = cm.binary_view(positive_class)
    n = tn + fp + fn + tp
    flags: list[str] = []
    precision = _safe_ratio(tp, tp + fp, "precision_undefined", flags)
    recall = _safe_ratio(tp, tp + fn, "recall_undefined", flags)
    accuracy = _safe_ratio(tp + tn, n, "accuracy_undefined", flags)
    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1_score(precision, recall),
        error=1.0 - accuracy,
        undefined_flags=flags,
    )


def macro_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Per-class one-vs-rest metrics plus unweighted macro averages.

    Multi-class accuracy is trace / N; error is its complement.
    """
    if cm.n_classes < 2:
        raise EvaluationError("macro metrics need at least 2 classes")
    per_class: dict[int, dict[str, float]] = {}
    flags: list[str] = []
    for k in range(cm.n_classes):
        rep = metrics(cm, positive_class=k)
        per_class[k] = {
            "precision": rep.precision,
            "recall": rep.recall,
            "f1": rep.f1,
        }
        if cm.counts[k, :].sum() == 0:
            flags.append(f"class_{k}_no_support")
        flags.extend(f"class_{k}_{f}" for f in rep.undefined_flags)
    accuracy = np.trace(cm.counts) / cm.total if cm.total else 0.0
    macro = {
        key: float(np.mean([v[key] for v in per_class.values()]))
        for key in ("precision", "recall", "f1")
    }
    return MetricsReport(
        accuracy=float(accuracy),
        precision=macro["precision"],
        recall=macro["recall"],
        f1=macro["f1"],
        error=1.0 - float(accuracy),
        undefined_flags=flags,
        per_class=per_class,
    )


def roc_curve(true_binary, scores) -> np.ndarray:
    """(fpr, tpr, threshold) rows, thresholds descending, ties grouped.

    One row per distinct score, each the operating point of thresholding at
    that score; starts at (0, 0) with threshold +inf and ends at (1, 1).
    ``auc`` is taken over every row; ``roc_vertices`` keeps the rows where
    the curve turns.
    """
    y = np.asarray(true_binary, dtype=np.int64)
    s = np.asarray(scores, dtype=float)
    if len(y) != len(s):
        raise EvaluationError("labels and scores must have equal length")
    if not np.all(np.isfinite(s)):
        raise EvaluationError("scores must be finite")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("ROC requires both a positive and a negative sample")

    # Fawcett (PRL 2006), Algorithm 2: one point per group of equal scores,
    # with the counts accumulated down the sorted order
    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    ends = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))
    starts = np.append(0, ends[:-1] + 1)
    tps = np.cumsum(y_sorted == 1)[ends]
    fps = np.cumsum(y_sorted == 0)[ends]
    return np.vstack([(0.0, 0.0, np.inf),
                      np.column_stack([fps / n_neg, tps / n_pos, s_sorted[starts]])])


def roc_vertices(true_binary, points: np.ndarray) -> np.ndarray:
    """The rows of ``points = roc_curve(true_binary, ...)`` where the curve
    turns, with its first and last rows.

    Every dropped row lies on the segment between the kept rows around it,
    so the kept rows draw the same polyline. The turn test is exact: the
    rates are rounded back to their integer false- and true-positive counts
    (exact below 2**51 samples), and a row is kept when the segments before
    and after it have different slopes in those counts.
    """
    y = np.asarray(true_binary)
    fps = np.rint(points[:, 0] * int((y == 0).sum())).astype(np.int64)
    tps = np.rint(points[:, 1] * int((y == 1).sum())).astype(np.int64)
    d_f, d_t = np.diff(fps), np.diff(tps)
    turns = d_f[:-1] * d_t[1:] != d_t[:-1] * d_f[1:]
    return points[np.concatenate(([True], turns, [True]))]


def auc(points: np.ndarray) -> float:
    """Trapezoidal area under ``roc_curve`` points, clipped to [0, 1].

    The sum of trapezoids can round past 1 on a perfect ranking, by one ulp.
    """
    return float(np.clip(np.trapezoid(points[:, 1], points[:, 0]), 0.0, 1.0))


def multiclass_auc(true_labels, score_matrix,
                   classes) -> tuple[dict[int, float], float, dict[int, np.ndarray]]:
    """One-vs-rest AUC per class, their unweighted macro average, and the ROC
    curve each AUC was taken from.

    Classes absent from the truth (or covering all of it) are skipped.
    """
    y = np.asarray(true_labels, dtype=np.int64)
    score_matrix = np.asarray(score_matrix, dtype=float)
    per_class: dict[int, float] = {}
    curves: dict[int, np.ndarray] = {}
    for col, c in enumerate(classes):
        binary = (y == c).astype(np.int64)
        if binary.min() == binary.max():
            continue
        curves[int(c)] = roc_curve(binary, score_matrix[:, col])
        per_class[int(c)] = auc(curves[int(c)])
    macro = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return per_class, macro, curves
