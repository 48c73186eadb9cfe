"""Brute-force K-nearest-neighbor classification over any registered metric.

The model is a lazy learner: it stores the training data verbatim and
computes all distances at query time. Distance ties are broken by
ascending training index; vote ties by the class of the nearest neighbor
among the tied classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DimensionMismatchError, TooSmallError
from .metrics import Cell, MetricDescriptor, describe, pairwise


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

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        if feats.ndim != 2 or len(feats) != len(labs):
            raise ValueError("training features/labels are inconsistent")
        if not 1 <= self.k <= len(feats):
            raise TooSmallError(f"k={self.k} outside [1, {len(feats)}], "
                                f"the number of training examples")

    @classmethod
    def from_dataset(cls, ds: Dataset, metric: str | MetricDescriptor, k: int = 1) -> "KnnModel":
        desc = describe(metric) if isinstance(metric, str) else metric
        return cls(ds.features, ds.labels, desc, k)


def _distances(model: KnnModel, queries, ndim: int,
               cell: Cell | None = None) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != ndim:
        raise DimensionMismatchError(
            f"expected a {ndim}-d query, got shape {queries.shape}")
    return pairwise(model.metric, queries, model.features, cell)


def _nearest(model: KnnModel, dist: np.ndarray) -> np.ndarray:
    """Indices of the k nearest in each row of distances, ascending by (distance, index)."""
    return np.argsort(dist, axis=1, kind="stable")[:, :model.k]


def _predict(model: KnnModel, dist: np.ndarray) -> np.ndarray:
    """Majority class of the k nearest in each row; a vote tie goes to the nearest tied class."""
    if model.k == 1:  # argmin takes the lowest index on ties
        return model.labels[np.argmin(dist, axis=1)]
    near = model.labels[_nearest(model, dist)]
    classes, dense = np.unique(near, return_inverse=True)
    # one counter per (query row, class); argmax then takes the first, so the
    # nearest, neighbour of a top class
    slot = dense.reshape(near.shape) + len(classes) * np.arange(len(near))[:, None]
    votes = np.bincount(slot.ravel())[slot]
    return near[np.arange(len(near)), np.argmax(votes, axis=1)]


def neighbors(model: KnnModel, query) -> list[Neighbor]:
    """The k nearest training examples, ascending by (distance, index)."""
    dist = _distances(model, query, 1)[None]
    return [Neighbor(int(i), float(dist[0, i])) for i in _nearest(model, dist)[0]]


def classify(model: KnnModel, query) -> int:
    """Majority class among the k nearest neighbors."""
    return int(_predict(model, _distances(model, query, 1)[None])[0])


def classify_batch(model: KnnModel, queries, cell: Cell | None = None) -> np.ndarray:
    """Predicted class ids for each row of a query matrix.

    With ``cell``, ``queries`` is the cell's current block and the model's
    training features are the cell's rows; the metrics of the cell then
    share the block's pair terms. It changes no result.
    """
    return _predict(model, _distances(model, queries, 2, cell))
