"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own numeric paths:
the distance references run on decimal arithmetic at 50 significant
digits, the rank-sum oracle enumerates every assignment by brute force,
the neighbour and vote references decide one query row at a time with
``lexsort`` and a ``Counter``, the normal-approximation references rank
with ``midranks`` and count ties with a ``Counter``, and the
macro-average reference is a plain loop over label lists.

The guard references at the end are the straightforward full-array
forms of the kernels' guard helpers, written with ``np.where``; the
kernels' helpers substitute only the flagged positions and must agree
with them bit for bit.
"""

import math
from collections import Counter
from decimal import Decimal, getcontext
from itertools import combinations

import numpy as np

getcontext().prec = 50


def _dec(values):
    return [Decimal(repr(float(v))) for v in values]


def canberra_ref(x, y):
    x, y = _dec(x), _dec(y)
    total = Decimal(0)
    for a, b in zip(x, y):
        den = abs(a) + abs(b)
        if den != 0:
            total += abs(a - b) / den
    return float(total)


def dice_ref(x, y):
    x, y = _dec(x), _dec(y)
    num = 2 * sum(a * b for a, b in zip(x, y))
    den = sum(a * a for a in x) + sum(b * b for b in y)
    return float(1 - num / den)


def additive_symmetric_chi2_ref(x, y):
    x, y = _dec(x), _dec(y)
    return float(2 * sum((a - b) ** 2 * (a + b) / (a * b) for a, b in zip(x, y)))


def whittaker_ref(x, y):
    x, y = _dec(x), _dec(y)
    sx, sy = sum(x), sum(y)
    return float(sum(abs(a / sx - b / sy) for a, b in zip(x, y)) / 2)


def topsoe_ref(x, y):
    x, y = _dec(x), _dec(y)
    total = Decimal(0)
    for a, b in zip(x, y):
        s = a + b
        if a != 0:
            total += a * (2 * a / s).ln()
        if b != 0:
            total += b * (2 * b / s).ln()
    return float(total)


def _pearson_r_ref(x, y):
    x, y = _dec(x), _dec(y)
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = (sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)).sqrt()
    return num / den


def pearson_ref(x, y):
    return float(1 - _pearson_r_ref(x, y))


def correlation_ref(x, y):
    return float((1 - _pearson_r_ref(x, y)) / 2)


def squared_pearson_ref(x, y):
    r = _pearson_r_ref(x, y)
    return float(1 - r * r)


# abbrev -> oracle for the values whose printed table entries disagree
# with the printed formulas
DERIVED_ORACLES = {
    "CanD": canberra_ref,
    "DicD": dice_ref,
    "ASCSD": additive_symmetric_chi2_ref,
    "WIAD": whittaker_ref,
    "TopD": topsoe_ref,
    "PeaD": pearson_ref,
    "CorD": correlation_ref,
    "SPeaD": squared_pearson_ref,
}


def midranks(values):
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for idx in order[i:j + 1]:
            ranks[idx] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def exact_rank_sum_pvalue(sample_a, sample_b):
    """Two-sided rank-sum p by enumerating every C(N, n1) assignment.

    The statistic is the rank sum of the first sample (midranks on ties);
    the p-value is the probability of an assignment at least as far from
    the null mean as the observed one.
    """
    a = [float(v) for v in sample_a]
    b = [float(v) for v in sample_b]
    pooled = a + b
    n1, n = len(a), len(a) + len(b)
    ranks = midranks(pooled)
    observed = sum(ranks[:n1])
    mean = n1 * (n + 1) / 2.0
    threshold = abs(observed - mean) - 1e-9
    hits = total = 0
    for subset in combinations(range(n), n1):
        total += 1
        if abs(sum(ranks[i] for i in subset) - mean) >= threshold:
            hits += 1
    return hits / total


def tie_sum_ref(values):
    """Sum of t**3 - t over the sizes t of the groups of equal values."""
    return sum(t ** 3 - t for t in Counter(values).values())


def _two_sided_ref(z):
    return min(1.0, max(0.0, math.erfc(z / math.sqrt(2.0))))


def normal_rank_sum_pvalue_ref(sample_a, sample_b):
    """Two-sided rank-sum p by the normal approximation: the larger of the
    two Mann-Whitney U values, the tie-corrected variance and a continuity
    correction; a pool of one repeated value gives 1.0."""
    pooled = [float(v) for v in (*sample_a, *sample_b)]
    n1, n2 = len(sample_a), len(sample_b)
    n = n1 + n2
    u1 = sum(midranks(pooled)[:n1]) - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    tie = 1.0 - tie_sum_ref(pooled) / (n ** 3 - n)
    if tie == 0.0:
        return 1.0
    sd = math.sqrt(tie * n1 * n2 * (n + 1) / 12.0)
    return _two_sided_ref((max(u1, u2) - n1 * n2 / 2.0 - 0.5) / sd)


def signed_rank_pvalue_ref(sample_a, sample_b):
    """Two-sided signed-rank p by the normal approximation, zero differences
    dropped, with the tie-corrected variance and a continuity correction."""
    diffs = [float(x) - float(y) for x, y in zip(sample_a, sample_b) if float(x) != float(y)]
    n = len(diffs)
    if n == 0:
        return 1.0
    magnitudes = [abs(d) for d in diffs]
    w_plus = sum(r for r, d in zip(midranks(magnitudes), diffs) if d > 0)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_sum_ref(magnitudes) / 48.0
    return _two_sided_ref((abs(w_plus - n * (n + 1) / 4.0) - 0.5) / math.sqrt(var))


def nearest_ref(dist, k):
    """Indices of the k nearest in one row of distances, ascending by (distance, index)."""
    return np.lexsort((np.arange(len(dist)), dist))[:k]


def vote_ref(labels, dist, k):
    """The majority class among the k nearest in one row of distances; a vote
    tie goes to the nearest of the tied classes."""
    near = [int(labels[i]) for i in nearest_ref(dist, k)]
    votes = Counter(near)
    top = max(votes.values())
    return next(cls for cls in near if votes[cls] == top)


def macro_scores_ref(actual, predicted, n_classes):
    """(macro precision, macro recall) from label lists; 0/0 counts as 0."""
    precisions, recalls = [], []
    for cls in range(n_classes):
        tp = sum(1 for a, p in zip(actual, predicted) if a == cls and p == cls)
        predicted_cls = sum(1 for p in predicted if p == cls)
        actual_cls = sum(1 for a in actual if a == cls)
        precisions.append(tp / predicted_cls if predicted_cls else 0.0)
        recalls.append(tp / actual_cls if actual_cls else 0.0)
    return sum(precisions) / n_classes, sum(recalls) / n_classes


# -- guard references: full-array np.where forms -----------------------------

EPSILON = 1e-12


def div_ref(num, den):
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    bad = den == 0.0
    if not np.any(bad):
        return num / den
    out = num / np.where(bad, 1.0, den)
    return np.where(bad, np.where(num == 0.0, 0.0, num / EPSILON), out)


def guarded_ref(den):
    den = np.asarray(den, dtype=np.float64)
    return np.where(den == 0.0, EPSILON, den)


def log_ref(arg):
    arg = np.asarray(arg, dtype=np.float64)
    return np.log(np.where(arg <= 0.0, EPSILON, arg))


def xlog_ref(coef, arg):
    coef = np.asarray(coef, dtype=np.float64)
    arg = np.asarray(arg, dtype=np.float64)
    term = coef * np.log(np.where(arg <= 0.0, EPSILON, arg))
    return np.where(coef == 0.0, 0.0, term)


def jeffreys_ref(x, y):
    coef = x - y
    term = coef * (np.log(np.where(x <= 0.0, EPSILON, x))
                   - np.log(np.where(y <= 0.0, EPSILON, y)))
    return np.sum(np.where(coef == 0.0, 0.0, term), axis=-1)


def hassanat_ref(x, y):
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    shift = np.where(lo >= 0.0, 0.0, -lo)
    with np.errstate(over="ignore"):
        return np.sum(1.0 - (1.0 + (lo + shift)) / (1.0 + (hi + shift)), axis=-1)


def confusion_counts_ref(actual, predicted, n_classes):
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (np.asarray(actual), np.asarray(predicted)), 1)
    return counts


def macro_ref(tp, denom):
    """The full-array form of a macro average: per-class 0/0 contributes 0."""
    frac = np.where(denom == 0, 0.0, tp / np.where(denom == 0, 1, denom))
    return float(np.mean(frac))
