"""Classifier evaluation: confusion matrices, macro scores, rank tables
and the Wilcoxon rank-sum comparison used to contrast two metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ClassOutOfRangeError, LengthMismatchError


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

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def true_positives(self) -> np.ndarray:
        return np.diag(self.counts)

    def false_positives(self) -> np.ndarray:
        return self.counts.sum(axis=0) - self.true_positives()

    def false_negatives(self) -> np.ndarray:
        return self.counts.sum(axis=1) - self.true_positives()

    def true_negatives(self) -> np.ndarray:
        return (self.total - self.true_positives()
                - self.false_positives() - self.false_negatives())


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
    return float(np.trace(cm.counts) / cm.total)


def _macro(tp: np.ndarray, denom: np.ndarray) -> float:
    # per-class 0/0 contributes 0 so the macro average is always defined
    frac = np.divide(tp, denom, out=np.zeros(len(tp)), where=denom != 0)
    return float(np.mean(frac))


def macro_precision(cm: ConfusionMatrix) -> float:
    """Unweighted mean over classes of TP / (TP + FP)."""
    tp = cm.true_positives()
    return _macro(tp, tp + cm.false_positives())


def macro_recall(cm: ConfusionMatrix) -> float:
    """Unweighted mean over classes of TP / (TP + FN)."""
    tp = cm.true_positives()
    return _macro(tp, tp + cm.false_negatives())


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

def _rankdata(values: Sequence[float]) -> list[float]:
    """Ranks starting at 1; tied values share the average of their ranks."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for idx in order[i:j + 1]:
            ranks[idx] = avg
        i = j + 1
    return ranks


def _tie_correction(values: Sequence[float]) -> float:
    n = len(values)
    if n < 2:
        return 1.0
    counts: dict[float, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return 1.0 - sum(t ** 3 - t for t in counts.values()) / (n ** 3 - n)


def _normal_two_sided(z: float) -> float:
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


def wilcoxon_rank_sum(sample_a: Sequence[float], sample_b: Sequence[float],
                      method: str = "auto") -> float:
    """Two-sided Mann-Whitney/Wilcoxon rank-sum p-value.

    ``method`` is one of:

    - ``"exact"``: enumerate the untied null distribution of the rank sum.
    - ``"asymptotic"``: normal approximation with tie correction and
      continuity correction.
    - ``"auto"`` (default): exact when there are no ties and the pooled
      size is at most 20, asymptotic otherwise.

    Degenerate pools (every value identical) return p = 1.0.
    """
    a = [float(v) for v in sample_a]
    b = [float(v) for v in sample_b]
    if not a or not b:
        raise LengthMismatchError("both samples must be non-empty")
    if method not in ("auto", "exact", "asymptotic"):
        raise ValueError(f"unknown method {method!r}")

    pooled = a + b
    n1, n2, n = len(a), len(b), len(pooled)
    has_ties = len(set(pooled)) < n

    if method == "exact" and has_ties:
        raise ValueError("exact method requires samples without ties")
    if method == "exact" or (method == "auto" and not has_ties and n <= _EXACT_LIMIT):
        ranks = _rankdata(pooled)
        t_obs = int(round(sum(ranks[:n1])))
        return _exact_rank_sum_pvalue(t_obs, n1, n2)

    ranks = _rankdata(pooled)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    tie = _tie_correction(pooled)
    if tie == 0.0:
        return 1.0
    sd = math.sqrt(tie * n1 * n2 * (n + 1) / 12.0)
    z = (max(u1, u2) - n1 * n2 / 2.0 - 0.5) / sd
    return _normal_two_sided(z)


def wilcoxon_signed_rank(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sided Wilcoxon signed-rank p-value for paired samples.

    Zero differences are dropped; the normal approximation with tie and
    continuity corrections is used. All-zero differences give p = 1.0.
    """
    a = [float(v) for v in sample_a]
    b = [float(v) for v in sample_b]
    if len(a) != len(b) or not a:
        raise LengthMismatchError("paired samples must be non-empty and equal length")
    diffs = [x - y for x, y in zip(a, b) if x != y]
    n = len(diffs)
    if n == 0:
        return 1.0
    magnitudes = [abs(d) for d in diffs]
    ranks = _rankdata(magnitudes)
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    mu = n * (n + 1) / 4.0
    counts: dict[float, int] = {}
    for v in magnitudes:
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(t ** 3 - t for t in counts.values()) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if var <= 0.0:
        return 1.0
    z = (abs(w_plus - mu) - 0.5) / math.sqrt(var)
    return _normal_two_sided(z)


# -- Rank tables ------------------------------------------------------------

@dataclass(frozen=True)
class RankRow:
    rank: int
    metric: str
    mean: float


def rank_distances(scores: Mapping[str, Sequence[float]],
                   tie_tol: float = 1e-9) -> list[RankRow]:
    """Order metrics by descending mean score; near-equal means share a rank.

    Competition ranking: after a shared rank the next distinct mean gets
    its positional rank (1, 2, 2, 4, ...).
    """
    means = {}
    for metric, values in scores.items():
        values = list(values)
        if not values:
            raise LengthMismatchError(f"metric {metric!r} has no scores")
        means[metric] = float(np.mean(values))
    ordered = sorted(means.items(), key=lambda kv: (-kv[1], kv[0]))
    rows: list[RankRow] = []
    for pos, (metric, mean) in enumerate(ordered):
        if rows and abs(mean - rows[-1].mean) <= tie_tol:
            rank = rows[-1].rank
        else:
            rank = pos + 1
        rows.append(RankRow(rank, metric, mean))
    return rows
