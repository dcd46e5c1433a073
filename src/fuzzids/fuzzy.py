"""Triangular-membership feature scoring, ranking and vector selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import SchemaError, require_real, require_reals


@dataclass(frozen=True)
class TriangularParams:
    """Feet (a, c) and peak (b), a <= b <= c, of a triangular membership function."""

    a: float = 0.0
    b: float = 0.5
    c: float = 1.0


@dataclass(frozen=True)
class FeatureRanking:
    """Per-feature importance scores and the descending order they give.

    Ties are broken by the smaller original feature index. ``et_weight`` is
    1.0 for pure fuzzy scores and records the fusion weight otherwise.
    """

    scores: np.ndarray
    et_weight: float = 1.0

    def __post_init__(self):
        self.scores.setflags(write=False)

    @property
    def order(self) -> np.ndarray:
        # stable sort on negated scores: descending, index-ascending tie-break
        return np.argsort(-self.scores, kind="stable")

    def to_dict(self) -> dict:
        return {
            "scores": self.scores.tolist(),
            "order": self.order.tolist(),
            "et_weight": self.et_weight,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FeatureRanking":
        """``ValueError`` unless the scores are finite and ``et_weight`` in [0, 1]."""
        scores = require_reals("scores", doc["scores"], error=ValueError)
        require_real("et_weight", doc["et_weight"], 0.0, 1.0, error=ValueError)
        return cls(scores, doc["et_weight"])


@dataclass(frozen=True)
class FeatureVectorSpec:
    """A named, ordered subset of feature indices."""

    name: str
    indices: tuple[int, ...]


def triangular_membership(x, p: TriangularParams):
    """Membership of x in the triangle (a, b, c); vectorized, total in [0, 1].

    Rises as (x - a) / (b - a) on [a, b], falls as (c - x) / (c - b) on
    [b, c], zero outside. A collapsed shoulder (a == b or b == c) is a step:
    membership 1 exactly at the peak.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    if p.b > p.a:
        rising = (x >= p.a) & (x <= p.b)
        out[rising] = (x[rising] - p.a) / (p.b - p.a)
    if p.c > p.b:
        falling = (x > p.b) & (x <= p.c)
        out[falling] = (p.c - x[falling]) / (p.c - p.b)
    out[x == p.b] = 1.0
    return out if out.ndim else float(out)


def fuzzy_importance(ds: LabeledDataset, p: TriangularParams) -> FeatureRanking:
    """Score each feature as the sum of its samples' membership degrees."""
    if len(ds) == 0:
        raise SchemaError("cannot score features of an empty dataset")
    scores = triangular_membership(ds.numeric_features(), p).sum(axis=0)
    return FeatureRanking(scores)


def _max_normalize(v: np.ndarray) -> np.ndarray:
    peak = v.max() if len(v) else 0.0
    if peak <= 0.0:
        return np.zeros_like(v)
    return v / peak


def fuse_with_et_importance(
    fr: FeatureRanking, et_scores, weight: float
) -> FeatureRanking:
    """Blend fuzzy scores with tree-ensemble importances.

    fused = weight * normalize(fuzzy) + (1 - weight) * normalize(et), where
    normalize divides by the vector max (all-zero vectors stay zero).
    """
    et_scores = np.asarray(et_scores, dtype=float)
    if len(et_scores) != len(fr.scores):
        raise SchemaError(
            f"score length mismatch: fuzzy {len(fr.scores)}, et {len(et_scores)}"
        )
    fused = weight * _max_normalize(fr.scores) + (1.0 - weight) * _max_normalize(et_scores)
    return FeatureRanking(fused, weight)


def select_vectors(
    fr: FeatureRanking, lengths: list[int], names: list[str]
) -> list[FeatureVectorSpec]:
    """Cut the ranking into named prefixes of the requested lengths."""
    order, specs = fr.order, []
    for name, length in zip(names, lengths):
        if not (0 < length <= len(order)):
            raise SchemaError(
                f"vector '{name}' length {length} exceeds feature count {len(order)}"
            )
        specs.append(FeatureVectorSpec(name, tuple(int(i) for i in order[:length])))
    return specs
