"""Classifier evaluation: confusion matrices, macro scores, the one
averaging rule of every table, rank tables and the Wilcoxon tests used to
contrast two metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Collection, Mapping, Sequence

import numpy as np

from .errors import ClassOutOfRangeError, LengthMismatchError, NonNumericError


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of (actual class, predicted class) pairs; rows are actual."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        if np.any(counts < 0):
            raise ValueError("confusion matrix counts must be non-negative")


def confusion(actual: Sequence[int], predicted: Sequence[int],
              n_classes: int) -> ConfusionMatrix:
    """Count matrix with counts[a][p] = occurrences of (actual a, predicted p)."""
    actual = np.asarray(actual, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if actual.shape != predicted.shape or actual.ndim != 1 or len(actual) == 0:
        raise LengthMismatchError(
            f"need equal-length non-empty label lists, got {actual.shape} and {predicted.shape}")
    for name, ids in (("actual", actual), ("predicted", predicted)):
        if ids.min() < 0 or ids.max() >= n_classes:
            raise ClassOutOfRangeError(f"{name} ids outside [0, {n_classes})")
    counts = np.bincount(actual * n_classes + predicted, minlength=n_classes * n_classes)
    return ConfusionMatrix(counts.reshape(n_classes, n_classes))


def accuracy(cm: ConfusionMatrix) -> float:
    """Fraction of correctly classified examples."""
    return float(np.trace(cm.counts) / cm.counts.sum())


def _macro(tp: np.ndarray, denom: np.ndarray) -> float:
    # per-class 0/0 contributes 0 so the macro average is always defined
    frac = np.divide(tp, denom, out=np.zeros(len(tp)), where=denom != 0)
    return float(np.mean(frac))


def macro_precision(cm: ConfusionMatrix) -> float:
    """Unweighted mean over classes of TP / (TP + FP): the diagonal over column sums."""
    return _macro(np.diag(cm.counts), cm.counts.sum(axis=0))


def macro_recall(cm: ConfusionMatrix) -> float:
    """Unweighted mean over classes of TP / (TP + FN): the diagonal over row sums."""
    return _macro(np.diag(cm.counts), cm.counts.sum(axis=1))


@dataclass(frozen=True)
class ScoreTriple:
    accuracy: float
    precision: float
    recall: float

    def __post_init__(self):
        for field_name in ("accuracy", "precision", "recall"):
            v = getattr(self, field_name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{field_name}={v} outside [0, 1]")


def score(cm: ConfusionMatrix) -> ScoreTriple:
    return ScoreTriple(accuracy(cm), macro_precision(cm), macro_recall(cm))


# -- Wilcoxon tests ---------------------------------------------------------

def _ranks(values: Sequence[float]) -> tuple[list[float], int]:
    """Ranks starting at 1, tied values sharing the mean of their ranks, and
    the tie sum: t**3 - t summed over the sizes t of the groups of equal values."""
    ranks = [0.0] * len(values)
    ties = below = 0
    order = sorted(range(len(values)), key=values.__getitem__)
    for _, group in groupby(order, key=values.__getitem__):
        group = list(group)
        for idx in group:
            ranks[idx] = below + (len(group) + 1) / 2.0
        below += len(group)
        ties += len(group) ** 3 - len(group)
    return ranks, ties


def _normal_pvalue(statistic: float, mu: float, var: float) -> float:
    """Two-sided p of ``statistic`` under a normal null of mean ``mu`` and
    variance ``var``, corrected for continuity; p = 1.0 when var is 0."""
    if var == 0.0:
        return 1.0
    z = (abs(statistic - mu) - 0.5) / math.sqrt(var)
    return min(1.0, max(0.0, math.erfc(z / math.sqrt(2.0))))


def _exact_rank_sum_pvalue(t_obs: int, n1: int, n2: int) -> float:
    """Two-sided p for the rank-sum of sample one over untied ranks 1..N.

    Counts size-k subsets of {1..N} by sum with a dynamic program; the
    null distribution is symmetric, so the two-sided value is twice the
    smaller tail (point mass included), clamped at 1.
    """
    n = n1 + n2
    max_sum = n * (n + 1) // 2
    ways = [[0] * (max_sum + 1) for _ in range(n1 + 1)]
    ways[0][0] = 1
    for rank in range(1, n + 1):
        for k in range(min(n1, rank), 0, -1):
            dst, src = ways[k], ways[k - 1]
            for s in range(max_sum, rank - 1, -1):
                if src[s - rank]:
                    dst[s] += src[s - rank]
    dist = ways[n1]
    total = sum(dist)
    low = sum(dist[: t_obs + 1])
    high = sum(dist[t_obs:])
    return min(1.0, 2.0 * min(low, high) / total)


_EXACT_LIMIT = 20  # pooled size up to which the untied null is enumerated


def _sample(values: Sequence[float], name: str) -> list[float]:
    """``values`` as floats; a NaN, which no order ranks, is refused."""
    sample = [float(v) for v in values]
    if any(math.isnan(v) for v in sample):
        raise NonNumericError(f"{name} holds NaN")
    return sample


def wilcoxon_rank_sum(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sided Mann-Whitney/Wilcoxon rank-sum p-value.

    The inputs choose the method: an untied pool of at most 20 values
    enumerates the null distribution of the rank sum exactly; any other
    pool takes the normal approximation with tie and continuity
    corrections. Degenerate pools (every value identical) return p = 1.0.
    A sample holding NaN raises NonNumericError.
    """
    a, b = _sample(sample_a, "sample_a"), _sample(sample_b, "sample_b")
    if not a or not b:
        raise LengthMismatchError("both samples must be non-empty")
    n1, n2, n = len(a), len(b), len(a) + len(b)
    ranks, ties = _ranks(a + b)
    r1 = sum(ranks[:n1])
    if not ties and n <= _EXACT_LIMIT:
        return _exact_rank_sum_pvalue(int(round(r1)), n1, n2)
    # the Mann-Whitney U of sample one, with the tie-corrected variance of U
    var = (1.0 - ties / (n ** 3 - n)) * n1 * n2 * (n + 1) / 12.0
    return _normal_pvalue(r1 - n1 * (n1 + 1) / 2.0, n1 * n2 / 2.0, var)


def wilcoxon_signed_rank(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sided Wilcoxon signed-rank p-value for paired samples.

    Zero differences are dropped; the normal approximation with tie and
    continuity corrections is used. All-zero differences give p = 1.0.
    A sample holding NaN raises NonNumericError.
    """
    a, b = _sample(sample_a, "sample_a"), _sample(sample_b, "sample_b")
    if len(a) != len(b) or not a:
        raise LengthMismatchError("paired samples must be non-empty and equal length")
    diffs = [x - y for x, y in zip(a, b) if x != y]
    n = len(diffs)
    if n == 0:
        return 1.0
    ranks, ties = _ranks([abs(d) for d in diffs])
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    # the tie sum is at most n**3 - n, so var >= n(n + 1)(3n + 3) / 48 > 0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - ties / 48.0
    return _normal_pvalue(w_plus, n * (n + 1) / 4.0, var)


# -- Table averages ---------------------------------------------------------

def mean(values: Collection[float]) -> float:
    """The mean every table reports: ``math.fsum(values) / len(values)``.

    ``fsum`` rounds the exact sum once, so neither the order of the values
    nor the Python version can change a table.
    """
    return math.fsum(values) / len(values)


def pstdev(values: Collection[float]) -> float:
    """Population standard deviation about ``mean(values)``, its squares
    summed by ``math.fsum``."""
    centre = mean(values)
    return math.sqrt(math.fsum((v - centre) ** 2 for v in values) / len(values))


# -- Rank tables ------------------------------------------------------------

@dataclass(frozen=True)
class RankRow:
    rank: int
    metric: str
    mean: float


_RANK_TIE_TOL = 1e-9  # means this close share a rank


def rank_distances(scores: Mapping[str, Sequence[float]]) -> list[RankRow]:
    """Order metrics by descending mean score; means within 1e-9 share a rank.

    Competition ranking: after a shared rank the next distinct mean gets
    its positional rank (1, 2, 2, 4, ...).
    """
    means = {}
    for metric, values in scores.items():
        values = list(values)
        if not values:
            raise LengthMismatchError(f"metric {metric!r} has no scores")
        means[metric] = mean(values)
    ordered = sorted(means.items(), key=lambda kv: (-kv[1], kv[0]))
    rows: list[RankRow] = []
    for pos, (metric, average) in enumerate(ordered):
        if rows and abs(average - rows[-1].mean) <= _RANK_TIE_TOL:
            rank = rows[-1].rank
        else:
            rank = pos + 1
        rows.append(RankRow(rank, metric, average))
    return rows
