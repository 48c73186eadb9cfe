"""Numeric classification datasets: input decoding, CSV ingestion and seeded splits.

A dataset is what was loaded: an immutable bundle of a float feature
matrix, dense integer class ids and the original class labels. Splits
are pure functions of (dataset, plan, repetition).
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._seeds import derive_seed
from .errors import (
    ConfigError,
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

    def __post_init__(self):
        feats = _frozen(np.asarray(self.features, dtype=np.float64))
        labs = _frozen(np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
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

    @classmethod
    def from_arrays(cls, name, features, labels, class_labels) -> "Dataset":
        """Build a dataset from array-likes; class labels become strings."""
        return cls(name, features, labels, tuple(str(c) for c in class_labels))

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    def __len__(self) -> int:
        return len(self.features)

    def to_csv(self, path) -> None:
        """Write the dataset back out; floats use repr so reloading is exact.

        A class label that ``load_csv`` would not read back is refused
        before anything is written: an empty one, one holding a comma, a
        carriage return or a line feed, one with surrounding whitespace, or
        one that no row uses, since ``load_csv`` learns the labels from the rows.
        """
        used = set(self.labels.tolist())
        for class_id, label in enumerate(self.class_labels):
            # fullmatch refuses "" and a line end inside; strip() one at either edge
            if not _LINE.fullmatch(label) or label != label.strip() or "," in label:
                raise ConfigError(f"a dataset CSV cannot hold the class label {label!r}: "
                                  f"it would not read back")
            if class_id not in used:
                raise ConfigError(f"no row of dataset {self.name!r} has the class label "
                                  f"{label!r}: it would not read back")
        lines = [",".join([*map(repr, row), self.class_labels[lab]])
                 for row, lab in zip(self.features.tolist(), self.labels.tolist())]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# a line ends at "\r\n", "\r" or "\n" and nowhere else, as open(newline="") splits;
# found one at a time, where a StringIO of the text would hold it at 4 bytes a character
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+\Z")


def read_lines(path) -> Iterator[str]:
    """The lines of a dataset, config or records file, line ends kept, decoded up
    front as UTF-8 after one optional byte-order mark. A byte that is not UTF-8 is a
    ``ConfigError`` naming ``path:line``; a file that cannot be read raises its ``OSError``."""
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the codec reports positions in the bytes after the mark, if any
        lineno = len(_LINE.findall(exc.object[:exc.end].decode("utf-8", "replace")))
        raise ConfigError(f"{path}:{lineno}: byte {exc.object[exc.start]:#04x} "
                          f"is not UTF-8") from None
    return (line.group() for line in _LINE.finditer(text))


def _parse_feature(cell: str, path: Path, lineno: int, col: int) -> float:
    if cell == "":
        raise MissingValueError(f"{path}:{lineno}: empty cell in column {col}")
    try:
        value = float(cell)
    except ValueError:
        raise NonNumericError(
            f"{path}:{lineno}: cell {cell!r} in column {col} is not numeric") from None
    if not math.isfinite(value):
        raise NonNumericError(f"{path}:{lineno}: cell {cell!r} in column {col} is not finite")
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


def load_csv(path) -> Dataset:
    """Load a comma-separated numeric classification dataset.

    The class is the last column and the dataset is named after the file
    stem. A single header row is auto-detected: the first line is a header
    iff any of its feature cells is non-numeric. Class labels may be
    arbitrary strings; they are mapped to dense integer ids in order of
    first appearance. Feature cells must parse as finite reals and no cell
    may be empty. The file is read by ``read_lines`` and each line is
    checked as it is read, so an error names the first fault in the file,
    by its 1-based line and column, blank lines counted.
    """
    path = Path(path)
    width = 0
    values: list[float] = []        # the feature cells of every data row, row after row
    index: dict[str, int] = {}      # class label -> id, in order of first appearance
    ids: list[int] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if not width:
            width = len(cells)
            if width < 2:
                raise EmptyDatasetError(f"{path}:{lineno}: no feature columns")
            if any(_header_evidence(cell) for cell in cells[:-1]):
                continue
        elif len(cells) != width:
            raise InconsistentArityError(
                f"{path}:{lineno}: {len(cells)} columns, expected {width}")
        for j, cell in enumerate(cells[:-1], start=1):
            values.append(_parse_feature(cell, path, lineno, j))
        if cells[-1] == "":
            raise MissingValueError(f"{path}:{lineno}: empty class cell")
        ids.append(index.setdefault(cells[-1], len(index)))
    if not width:
        raise EmptyDatasetError(f"{path} contains no rows")
    if not ids:
        raise EmptyDatasetError(f"{path} contains a header but no data rows")
    features = np.array(values, dtype=np.float64).reshape(len(ids), width - 1)
    return Dataset.from_arrays(path.stem, features, ids, index)


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
    examples. Views keep the parent's name and class alphabet.
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
                                   ds.class_labels)

    return view(train_idx), view(test_idx)
