"""Brute-force K-nearest-neighbor classification over any registered metric.

The model is a lazy learner: it stores the training data verbatim and
computes all distances at query time. Distance ties are broken by
ascending training index; vote ties by the class of the nearest neighbor
among the tied classes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DimensionMismatchError
from .metrics import Cell, GuardPolicy, MetricDescriptor, describe, pairwise


@dataclass(frozen=True)
class Neighbor:
    index: int
    distance: float


@dataclass(frozen=True)
class KnnModel:
    features: np.ndarray            # (m, n) training vectors
    labels: np.ndarray              # (m,) class ids
    metric: MetricDescriptor
    k: int = 1
    guard: GuardPolicy | None = None   # None: use the metric's own policy

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        if feats.ndim != 2 or len(feats) != len(labs):
            raise ValueError("training features/labels are inconsistent")
        if not 1 <= self.k <= len(feats):
            raise ValueError(f"k={self.k} outside [1, {len(feats)}]")

    @classmethod
    def from_dataset(cls, ds: Dataset, metric: str | MetricDescriptor, k: int = 1,
                     guard: GuardPolicy | None = None) -> "KnnModel":
        desc = describe(metric) if isinstance(metric, str) else metric
        return cls(ds.features, ds.labels, desc, k, guard)

    def __len__(self) -> int:
        return len(self.features)


def _distances(model: KnnModel, queries, ndim: int,
               cell: Cell | None = None) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != ndim:
        raise DimensionMismatchError(
            f"expected a {ndim}-d query, got shape {queries.shape}")
    return pairwise(model.metric, queries, model.features, model.guard, cell)


def _nearest(model: KnnModel, dist: np.ndarray) -> np.ndarray:
    """Indices of the k nearest training rows, ascending by (distance, index)."""
    return np.lexsort((np.arange(len(dist)), dist))[:model.k]


def _vote(model: KnnModel, dist: np.ndarray) -> int:
    """Majority class among the k nearest; ties go to the nearest tied class."""
    near = [int(model.labels[i]) for i in _nearest(model, dist)]
    votes = Counter(near)
    top = max(votes.values())
    tied = {cls for cls, count in votes.items() if count == top}
    if len(tied) == 1:
        return tied.pop()
    for cls in near:  # vote tie: nearest neighbor within the tied classes wins
        if cls in tied:
            return cls
    raise AssertionError("unreachable: tied classes came from the neighbor list")


def neighbors(model: KnnModel, query) -> list[Neighbor]:
    """The k nearest training examples, ascending by (distance, index)."""
    dist = _distances(model, query, 1)
    return [Neighbor(int(i), float(dist[i])) for i in _nearest(model, dist)]


def classify(model: KnnModel, query) -> int:
    """Majority class among the k nearest neighbors."""
    dist = _distances(model, query, 1)
    if model.k == 1:  # argmin takes the lowest index on ties
        return int(model.labels[np.argmin(dist)])
    return _vote(model, dist)


def classify_batch(model: KnnModel, queries, cell: Cell | None = None) -> np.ndarray:
    """Predicted class ids for each row of a query matrix.

    With ``cell``, ``queries`` is the cell's current block and the model's
    training features are the cell's rows; the metrics of the cell then
    share the block's pair terms. It changes no result.
    """
    dist = _distances(model, queries, 2, cell)
    if model.k == 1:  # argmin takes the lowest index on ties
        return model.labels[np.argmin(dist, axis=1)]
    return np.array([_vote(model, row) for row in dist], dtype=np.int64)
