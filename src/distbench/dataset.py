"""Numeric classification datasets: CSV ingestion, stats and seeded splits.

A dataset is an immutable bundle of a float feature matrix, dense integer
class ids, the original class labels and per-attribute min/max computed
over all rows. Splits are pure functions of (dataset, plan, repetition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._seeds import derive_seed
from .errors import (
    EmptyDatasetError,
    InconsistentArityError,
    MissingValueError,
    NonNumericError,
    TooSmallError,
)


def round_half_up(value: float) -> int:
    """Round to the nearest integer, halves away from zero (toward +inf)."""
    return int(math.floor(value + 0.5))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """An immutable named collection of labeled numeric examples."""

    name: str
    features: np.ndarray          # (m, n) float64
    labels: np.ndarray            # (m,) int64 dense class ids
    class_labels: tuple[str, ...]  # id -> original label
    attr_min: np.ndarray          # (n,) per-attribute minimum over all rows
    attr_max: np.ndarray          # (n,) per-attribute maximum over all rows

    def __post_init__(self):
        feats = _frozen(np.asarray(self.features, dtype=np.float64))
        labs = _frozen(np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "attr_min", _frozen(np.asarray(self.attr_min, dtype=np.float64)))
        object.__setattr__(self, "attr_max", _frozen(np.asarray(self.attr_max, dtype=np.float64)))
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if len(labs) != len(feats):
            raise ValueError("labels and features row counts differ")
        if len(feats) == 0:
            raise EmptyDatasetError(f"dataset {self.name!r} has no examples")
        if feats.shape[1] == 0:
            raise EmptyDatasetError(f"dataset {self.name!r} has no feature columns")
        if not np.all(np.isfinite(feats)):
            raise NonNumericError(f"dataset {self.name!r} has non-finite features")
        if labs.min() < 0 or labs.max() >= len(self.class_labels):
            raise ValueError("labels contain ids outside the class alphabet")
        if np.any(self.attr_min > self.attr_max):
            raise ValueError("attr_min exceeds attr_max")

    @classmethod
    def from_arrays(cls, name, features, labels, class_labels,
                    attr_min=None, attr_max=None) -> "Dataset":
        """Build a dataset, deriving attribute stats from the data unless given.

        Split views pass the parent's stats so that min/max always describe
        the full dataset they were computed from.
        """
        features = np.asarray(features, dtype=np.float64)
        if attr_min is None:
            attr_min = features.min(axis=0)
        if attr_max is None:
            attr_max = features.max(axis=0)
        return cls(name, features, np.asarray(labels, dtype=np.int64),
                   tuple(str(c) for c in class_labels), attr_min, attr_max)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    def __len__(self) -> int:
        return len(self.features)

    def has_negative_features(self) -> bool:
        return bool(np.any(self.features < 0.0))

    def to_csv(self, path) -> None:
        """Write the dataset back out; floats use repr so reloading is exact."""
        lines = []
        for row, lab in zip(self.features, self.labels):
            cells = [repr(float(v)) for v in row]
            cells.append(self.class_labels[int(lab)])
            lines.append(",".join(cells))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_feature(cell: str, row: int, col: int) -> float:
    if cell == "":
        raise MissingValueError(f"empty cell at row {row}, column {col}")
    try:
        value = float(cell)
    except ValueError:
        raise NonNumericError(f"cell {cell!r} at row {row}, column {col} is not numeric") from None
    if not math.isfinite(value):
        raise NonNumericError(f"cell {cell!r} at row {row}, column {col} is not finite")
    return value


def _header_evidence(cell: str) -> bool:
    # only a non-empty cell that float() rejects outright marks a header;
    # empty or non-finite cells are data-row errors, not column names
    if cell == "":
        return False
    try:
        float(cell)
    except ValueError:
        return True
    return False


def load_csv(path, class_column: int = -1, name: str | None = None,
             normalize: bool = False) -> Dataset:
    """Load a comma-separated numeric classification dataset.

    The class column defaults to the last column. A single header row is
    auto-detected: the first line is a header iff any of its feature cells
    is non-numeric. Class labels may be arbitrary strings; they are mapped
    to dense integer ids in order of first appearance. Feature cells must
    parse as finite reals and no cell may be empty.

    Set ``normalize`` to min-max scale every feature column into [0, 1]
    (off by default).
    """
    path = Path(path)
    raw = path.read_text(encoding="utf-8")
    rows = [line.strip() for line in raw.splitlines()]
    rows = [line for line in rows if line]
    if not rows:
        raise EmptyDatasetError(f"{path} contains no rows")

    table = [[cell.strip() for cell in line.split(",")] for line in rows]
    width = len(table[0])
    for i, cells in enumerate(table):
        if len(cells) != width:
            raise InconsistentArityError(
                f"row {i} has {len(cells)} columns, expected {width}")
    if width < 2:
        raise EmptyDatasetError(f"{path} has no feature columns")

    cls_col = class_column if class_column >= 0 else width + class_column
    if not 0 <= cls_col < width:
        raise ValueError(f"class column {class_column} out of range for {width} columns")

    feature_cols = [c for c in range(width) if c != cls_col]
    header = any(_header_evidence(table[0][c]) for c in feature_cols)
    data = table[1:] if header else table
    if not data:
        raise EmptyDatasetError(f"{path} contains a header but no data rows")

    m = len(data)
    features = np.empty((m, width - 1), dtype=np.float64)
    raw_labels = []
    for i, cells in enumerate(data):
        for j, c in enumerate(feature_cols):
            features[i, j] = _parse_feature(cells[c], i, c)
        label = cells[cls_col]
        if label == "":
            raise MissingValueError(f"empty class cell at row {i}")
        raw_labels.append(label)

    class_labels: list[str] = []
    index: dict[str, int] = {}
    ids = np.empty(m, dtype=np.int64)
    for i, label in enumerate(raw_labels):
        if label not in index:
            index[label] = len(class_labels)
            class_labels.append(label)
        ids[i] = index[label]

    if normalize:
        lo = features.min(axis=0)
        span = features.max(axis=0) - lo
        span[span == 0.0] = 1.0  # constant columns map to 0
        features = (features - lo) / span

    return Dataset.from_arrays(name or path.stem, features, ids, class_labels)


@dataclass(frozen=True)
class SplitPlan:
    """Repeated train/test split parameters.

    The same (dataset, plan, repetition) triple always yields the same
    partition; per-repetition streams are derived from the plan seed.
    """

    test_fraction: float = 0.34
    repetitions: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")


def split(ds: Dataset, plan: SplitPlan, repetition: int) -> tuple[Dataset, Dataset]:
    """Partition a dataset into disjoint train/test views for one repetition.

    The test side holds round(test_fraction * len(ds)) uniformly sampled
    examples. Views keep the parent's attribute stats and class alphabet.
    """
    if not 0 <= repetition < plan.repetitions:
        raise ValueError(f"repetition {repetition} outside [0, {plan.repetitions})")
    m = len(ds)
    if m < 2:
        raise TooSmallError(f"dataset {ds.name!r} has fewer than 2 examples")
    n_test = round_half_up(plan.test_fraction * m)
    if n_test == 0 or n_test >= m:
        raise TooSmallError(
            f"test_fraction {plan.test_fraction} leaves an empty side for {m} examples")

    rng = np.random.default_rng(derive_seed(plan.seed, "split", repetition))
    perm = rng.permutation(m)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])

    def view(idx: np.ndarray) -> Dataset:
        return Dataset.from_arrays(ds.name, ds.features[idx], ds.labels[idx],
                                   ds.class_labels, ds.attr_min, ds.attr_max)

    return view(train_idx), view(test_idx)
