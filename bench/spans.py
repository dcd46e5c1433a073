"""Spans around fuzzids' public functions, recorded from outside the package.

``Tracer.patch()`` replaces the names that fuzzids modules look up (module
functions, model ``score``/``predict`` methods and the state ``from_dict``
class methods) with timing wrappers and puts the originals back on exit.
Nothing under ``src/`` changes. Spans stay in memory; ``layer_metrics``
folds the spans of one operation into the per-layer metrics.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from fuzzids import dataset, evaluate, fuzzy, models, pipeline, preprocess
from fuzzids.models import base, bayes, boosting, svm, tree

KINDS = ("dt", "rf", "et", "gbt", "nb", "svm")
TREE_KINDS = ("dt", "rf", "et", "gbt")

# Modules whose global names the code under test looks up.
_MODULES = (dataset, preprocess, fuzzy, models, evaluate, pipeline)

# (defining module, function, span name). Spans of fit/save/load get the
# model kind appended.
_FUNCTIONS = (
    (dataset, "load_csv", "dataset.load"),
    (dataset, "stratified_split", "dataset.split"),
    (preprocess, "fit_encoder", "preprocess.encode"),
    (preprocess, "encode_categorical", "preprocess.encode"),
    (preprocess, "fit_scaler", "preprocess.scale"),
    (preprocess, "transform", "preprocess.scale"),
    (fuzzy, "fuzzy_importance", "fuzzy.select"),
    (fuzzy, "select_vectors", "fuzzy.select"),
    (models, "fit_model", "models.fit"),
    (models, "save_model", "models.save"),
    (models, "load_model", "models.load"),
    (evaluate, "confusion", "evaluate.metrics"),
    (evaluate, "metrics", "evaluate.metrics"),
    (evaluate, "macro_metrics", "evaluate.metrics"),
    (evaluate, "auc", "evaluate.metrics"),
    (evaluate, "multiclass_auc", "evaluate.metrics"),
    (evaluate, "roc_curve", "evaluate.roc"),
    (pipeline, "emit_report", "pipeline.emit"),
)

# Span name -> per-layer metric that sums the spans' self time.
_SELF_TIME = {
    "dataset.load": "dataset.load_s",
    "dataset.split": "dataset.split_s",
    "preprocess.encode": "preprocess.encode_s",
    "preprocess.scale": "preprocess.scale_s",
    "fuzzy.select": "fuzzy.select_s",
    "evaluate.roc": "evaluate.roc_s",
    "evaluate.metrics": "evaluate.metrics_s",
    "pipeline.emit": "pipeline.emit_s",
}
for _kind in KINDS:
    _SELF_TIME[f"models.fit.{_kind}"] = f"models.fit_s.{_kind}"
    _SELF_TIME[f"models.score.{_kind}"] = f"models.score_s.{_kind}"
    # predict/positive_score add only an argmax or a column pick around
    # score; their self time belongs to the same layer
    _SELF_TIME[f"models.predict.{_kind}"] = f"models.score_s.{_kind}"
    _SELF_TIME[f"models.save.{_kind}"] = f"models.save_s.{_kind}"
    _SELF_TIME[f"models.load.{_kind}"] = f"models.load_s.{_kind}"

# Every per-layer metric: (name, unit, better).
PER_LAYER = (
    [("dataset.load_s", "s", "lower"), ("dataset.rows", "count", "higher"),
     ("dataset.split_s", "s", "lower"), ("preprocess.encode_s", "s", "lower"),
     ("preprocess.scale_s", "s", "lower"), ("fuzzy.select_s", "s", "lower")]
    + [(f"models.{m}.{k}", "s", "lower")
       for m in ("fit_s", "score_s", "save_s", "load_s") for k in KINDS]
    + [("models.score_calls", "count", "lower")]
    + [(f"models.bytes.{k}", "B", "lower") for k in KINDS]
    + [(f"models.nodes.{k}", "count", "lower") for k in TREE_KINDS]
    + [("models.gbt_stages", "count", "lower"), ("models.svm_iters", "count", "lower"),
       ("evaluate.roc_s", "s", "lower"), ("evaluate.roc_points", "count", "lower"),
       ("evaluate.metrics_s", "s", "lower"), ("pipeline.emit_s", "s", "lower"),
       ("pipeline.self_s", "s", "lower"), ("process.cpu_s", "s", "lower"),
       ("process.warnings", "count", "lower"), ("trace.overhead_s", "s", "lower")]
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """In-memory span and counter recorder for one process."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[tuple[int, str], float] = field(default_factory=dict)
    op: int = 0
    _stack: list[int] = field(default_factory=list)

    def count(self, name: str, amount: float) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def span(self, name: str):
        """Record one span; yields a one-item list that renames it on exit."""
        label = [name]
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        try:
            yield label
        finally:
            self._stack.pop()
            span = self.spans[index]
            span.end = time.perf_counter()
            span.name = label[0]
            if parent is not None:
                self.spans[parent].child_s += span.duration

    def _function(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as label:
                result = fn(*args, **kwargs)
                tracer._after(fn.__name__, label, args, result)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, fn_name, label, args, result) -> None:
        """Name the span after the model kind and record counts."""
        if fn_name == "load_csv":
            self.count("dataset.rows", len(result))
        elif fn_name == "roc_curve":
            self.count("evaluate.roc_points", len(result))
        elif fn_name == "fit_model":
            label[0] += f".{args[2].kind}"
        elif fn_name == "save_model":
            label[0] += f".{args[0].kind}"
            self.count(f"models.bytes.{args[0].kind}", os.path.getsize(args[1]))
        elif fn_name == "load_model":
            label[0] += f".{result.kind}"
            self.count(f"models.bytes.{result.kind}", os.path.getsize(args[0]))

    def _method(self, fn, prefix, counter=None):
        tracer = self

        def wrapper(model, *args, **kwargs):
            if counter is not None:
                tracer.count(counter, 1)
            with tracer.span(f"{prefix}.{model.kind}"):
                return fn(model, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patch(self):
        """Swap in timing wrappers for the duration of the block."""
        undo = []

        def swap(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for home, fn_name, span_name in _FUNCTIONS:
                original = home.__dict__[fn_name]
                wrapped = self._function(original, span_name)
                for module in _MODULES:
                    if module.__dict__.get(fn_name) is original:
                        swap(module, fn_name, wrapped)
            for cls in (tree.DecisionTreeModel, tree.ForestModel,
                        boosting.GradientBoostedModel, bayes.NaiveBayesModel,
                        svm.SvmModel):
                swap(cls, "score", self._method(cls.__dict__["score"], "models.score",
                                                counter="models.score_calls"))
            for attr in ("predict", "positive_score"):
                swap(base.TrainedModel, attr,
                     self._method(base.TrainedModel.__dict__[attr], "models.predict"))
            for cls, span_name in ((preprocess.ScalerState, "preprocess.scale"),
                                   (preprocess.CategoricalEncoderState, "preprocess.encode")):
                original = cls.__dict__["from_dict"].__func__
                swap(cls, "from_dict", classmethod(self._function(original, span_name)))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def layer_metrics(self, op: int) -> dict[str, float]:
        """Self times and counts of one operation, keyed by metric name.

        The operation's root span is the one without a parent;
        ``pipeline.self_s`` is its duration minus its direct children.
        """
        out = {name: 0.0 for name, _, _ in PER_LAYER}
        for span in self.spans:
            if span.op != op:
                continue
            if span.parent is None:
                out["pipeline.self_s"] += span.self_s
            metric = _SELF_TIME.get(span.name)
            if metric is not None:
                out[metric] += span.self_s
        for (span_op, name), value in self.counts.items():
            if span_op == op:
                out[name] += value
        return out
