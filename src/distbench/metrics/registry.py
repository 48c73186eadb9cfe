"""Registry of the 54 distance measures with per-metric property flags.

Flags record what each measure guarantees on its declared domain:

- ``symmetric``: d(x, y) equals d(y, x) exactly.
- ``zero_self``: d(x, x) is 0 for every x in the domain.
- ``nonneg_output``: the score is never negative on domain inputs.
- ``full_metric``: all four metric axioms hold (implies the three above).
- ``requires_nonneg_inputs``: inputs with negative components are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ..errors import DimensionMismatchError, DomainViolationError, UnknownMetricError
from . import kernels
from .kernels import DEFAULT_GUARD, GuardPolicy


class Family(str, Enum):
    MINKOWSKI = "Minkowski"
    L1 = "L1"
    INNER_PRODUCT = "InnerProduct"
    SQUARED_CHORD = "SquaredChord"
    SQUARED_L2 = "SquaredL2"
    SHANNON_ENTROPY = "ShannonEntropy"
    VICISSITUDE = "Vicissitude"
    OTHER = "Other"


@dataclass(frozen=True)
class MetricDescriptor:
    abbrev: str
    name: str
    family: Family
    func: Callable[..., np.ndarray]
    symmetric: bool = True
    zero_self: bool = True
    nonneg_output: bool = True
    full_metric: bool = False
    requires_nonneg_inputs: bool = False
    guard: GuardPolicy = DEFAULT_GUARD

    def __post_init__(self):
        if self.full_metric and not (self.symmetric and self.zero_self and self.nonneg_output):
            raise ValueError(f"{self.abbrev}: full_metric implies the other flags")


def _build_registry() -> dict[str, MetricDescriptor]:
    k = kernels
    F = Family
    rows = [
        # Lp Minkowski
        MetricDescriptor("MD", "Manhattan", F.MINKOWSKI, k.manhattan, full_metric=True),
        MetricDescriptor("CD", "Chebyshev", F.MINKOWSKI, k.chebyshev, full_metric=True),
        MetricDescriptor("ED", "Euclidean", F.MINKOWSKI, k.euclidean, full_metric=True),
        # L1
        MetricDescriptor("LD", "Lorentzian", F.L1, k.lorentzian, full_metric=True),
        MetricDescriptor("CanD", "Canberra", F.L1, k.canberra),
        MetricDescriptor("SD", "Sorensen", F.L1, k.sorensen),
        MetricDescriptor("SoD", "Soergel", F.L1, k.soergel),
        MetricDescriptor("KD", "Kulczynski", F.L1, k.kulczynski),
        MetricDescriptor("MCD", "Mean Character", F.L1, k.mean_character, full_metric=True),
        MetricDescriptor("NID", "Non Intersection", F.L1, k.non_intersection, full_metric=True),
        # Inner product
        MetricDescriptor("JacD", "Jaccard", F.INNER_PRODUCT, k.jaccard),
        MetricDescriptor("CosD", "Cosine", F.INNER_PRODUCT, k.cosine),
        MetricDescriptor("DicD", "Dice", F.INNER_PRODUCT, k.dice),
        MetricDescriptor("ChoD", "Chord", F.INNER_PRODUCT, k.chord),
        # Squared chord
        MetricDescriptor("BD", "Bhattacharyya", F.SQUARED_CHORD, k.bhattacharyya,
                         zero_self=False, nonneg_output=False, requires_nonneg_inputs=True),
        MetricDescriptor("SCD", "Squared Chord", F.SQUARED_CHORD, k.squared_chord,
                         requires_nonneg_inputs=True),
        MetricDescriptor("MatD", "Matusita", F.SQUARED_CHORD, k.matusita,
                         full_metric=True, requires_nonneg_inputs=True),
        MetricDescriptor("HeD", "Hellinger", F.SQUARED_CHORD, k.hellinger,
                         full_metric=True, requires_nonneg_inputs=True),
        # Squared L2
        MetricDescriptor("SED", "Squared Euclidean", F.SQUARED_L2, k.squared_euclidean),
        MetricDescriptor("ClaD", "Clark", F.SQUARED_L2, k.clark),
        MetricDescriptor("NCSD", "Neyman chi-squared", F.SQUARED_L2, k.neyman_chi2,
                         symmetric=False),
        MetricDescriptor("PCSD", "Pearson chi-squared", F.SQUARED_L2, k.pearson_chi2,
                         symmetric=False),
        MetricDescriptor("SquD", "Squared chi-squared", F.SQUARED_L2, k.squared_chi2),
        MetricDescriptor("PSCSD", "Probabilistic Symmetric chi-squared", F.SQUARED_L2,
                         k.prob_symmetric_chi2),
        MetricDescriptor("DivD", "Divergence", F.SQUARED_L2, k.divergence),
        MetricDescriptor("ASCSD", "Additive Symmetric chi-squared", F.SQUARED_L2,
                         k.additive_symmetric_chi2),
        MetricDescriptor("AD", "Average", F.SQUARED_L2, k.average_euclidean, full_metric=True),
        MetricDescriptor("MCED", "Mean Censored Euclidean", F.SQUARED_L2,
                         k.mean_censored_euclidean),
        MetricDescriptor("SCSD", "Squared Chi-Squared", F.SQUARED_L2, k.squared_chi_squared),
        # Shannon entropy
        MetricDescriptor("KLD", "Kullback-Leibler", F.SHANNON_ENTROPY, k.kullback_leibler,
                         symmetric=False, nonneg_output=False, requires_nonneg_inputs=True),
        MetricDescriptor("JefD", "Jeffreys", F.SHANNON_ENTROPY, k.jeffreys,
                         requires_nonneg_inputs=True),
        MetricDescriptor("KDD", "K divergence", F.SHANNON_ENTROPY, k.k_divergence,
                         symmetric=False, nonneg_output=False, requires_nonneg_inputs=True),
        MetricDescriptor("TopD", "Topsoe", F.SHANNON_ENTROPY, k.topsoe,
                         requires_nonneg_inputs=True),
        MetricDescriptor("JSD", "Jensen-Shannon", F.SHANNON_ENTROPY, k.jensen_shannon,
                         requires_nonneg_inputs=True),
        MetricDescriptor("JDD", "Jensen difference", F.SHANNON_ENTROPY, k.jensen_difference,
                         requires_nonneg_inputs=True),
        # Vicissitude
        MetricDescriptor("VWHD", "Vicis-Wave Hedges", F.VICISSITUDE, k.vicis_wave_hedges),
        MetricDescriptor("VSDF1", "Vicis Symmetric 1", F.VICISSITUDE, k.vicis_symmetric1),
        MetricDescriptor("VSDF2", "Vicis Symmetric 2", F.VICISSITUDE, k.vicis_symmetric2),
        MetricDescriptor("VSDF3", "Vicis Symmetric 3", F.VICISSITUDE, k.vicis_symmetric3),
        MetricDescriptor("MSCD", "Max Symmetric chi-squared", F.VICISSITUDE,
                         k.max_symmetric_chi2),
        MetricDescriptor("MiSCSD", "Min Symmetric chi-squared", F.VICISSITUDE,
                         k.min_symmetric_chi2),
        # Other
        MetricDescriptor("AvgD", "Average (L1, Linf)", F.OTHER, k.average_l1_linf,
                         full_metric=True),
        MetricDescriptor("KJD", "Kumar-Johnson", F.OTHER, k.kumar_johnson,
                         zero_self=False, requires_nonneg_inputs=True),
        MetricDescriptor("TanD", "Taneja", F.OTHER, k.taneja, requires_nonneg_inputs=True),
        MetricDescriptor("PeaD", "Pearson", F.OTHER, k.pearson_distance),
        MetricDescriptor("CorD", "Correlation", F.OTHER, k.correlation),
        MetricDescriptor("SPeaD", "Squared Pearson", F.OTHER, k.squared_pearson),
        MetricDescriptor("HamD", "Hamming", F.OTHER, k.hamming, full_metric=True),
        MetricDescriptor("HauD", "Hausdorff", F.OTHER, k.hausdorff),
        MetricDescriptor("CSSD", "Chi-squared statistic", F.OTHER, k.chi2_statistic,
                         symmetric=False, nonneg_output=False),
        MetricDescriptor("WIAD", "Whittaker's index of association", F.OTHER, k.whittaker),
        MetricDescriptor("MeeD", "Meehl", F.OTHER, k.meehl),
        MetricDescriptor("MotD", "Motyka", F.OTHER, k.motyka, zero_self=False),
        MetricDescriptor("HasD", "Hassanat", F.OTHER, k.hassanat, full_metric=True),
    ]
    registry = {row.abbrev: row for row in rows}
    if len(registry) != len(rows):
        raise RuntimeError("duplicate abbreviation in registry")
    return registry


REGISTRY: dict[str, MetricDescriptor] = _build_registry()


def list_metrics(family: Family | str | None = None) -> tuple[str, ...]:
    """Abbreviations of all registered measures, optionally one family."""
    if family is None:
        return tuple(REGISTRY)
    family = Family(family)
    return tuple(a for a, d in REGISTRY.items() if d.family is family)


def describe(abbrev: str) -> MetricDescriptor:
    """Look up a measure by abbreviation."""
    try:
        return REGISTRY[abbrev]
    except KeyError:
        raise UnknownMetricError(f"unknown metric {abbrev!r}") from None


def _resolve(metric: str | MetricDescriptor) -> MetricDescriptor:
    if isinstance(metric, MetricDescriptor):
        return metric
    return describe(metric)


def _check_domain(desc: MetricDescriptor, *arrays: np.ndarray) -> None:
    if desc.requires_nonneg_inputs:
        for arr in arrays:
            if np.any(arr < 0.0):
                raise DomainViolationError(
                    f"{desc.abbrev} requires non-negative inputs")


def evaluate(metric: str | MetricDescriptor, x, y,
             guard: GuardPolicy | None = None) -> float:
    """Dissimilarity between two equal-dimension vectors.

    Without an explicit guard the metric's own policy applies.
    """
    desc = _resolve(metric)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatchError(
            f"expected two equal-length 1-d vectors, got {x.shape} and {y.shape}")
    _check_domain(desc, x, y)
    return float(desc.func(x, y, guard if guard is not None else desc.guard))


def similarity(metric: str | MetricDescriptor, x, y,
               guard: GuardPolicy | None = None) -> float:
    """Similarity score 1 - d(x, y); meaningful for unit-range measures."""
    return 1.0 - evaluate(metric, x, y, guard)


# Elements in one query block's (b, m, n) kernel temporaries. Chosen with
# perfbench: blocks this size stay in cache, larger ones are memory-bound.
BLOCK_ELEMENTS = 2 ** 15


def _hausdorff_blocks(queries: np.ndarray, rows: np.ndarray):
    """A block function equal, bit for bit, to ``kernels.hausdorff`` per query.

    It never builds the (m, n, n) difference tensor. The nearest value to
    v in a set is the next value below or above v, because rounding v - y
    is monotone in y; each gap is taken in the order that makes it
    non-negative, which equals ``abs`` bit for bit. Per block, every
    training value is placed among the block's distinct query values
    with one ``searchsorted``, and both directed distances follow from
    that placement by counting and running extrema.
    """
    if not (np.all(np.isfinite(queries)) and np.all(np.isfinite(rows))):
        # the reference kernel gives inf or nan for any non-finite input
        raise DomainViolationError("HauD produced a non-finite distance")
    queries, rows = queries + 0.0, rows + 0.0  # -0.0 becomes 0.0, so no gap is -0.0
    m, n = rows.shape
    inf = np.full((m, 1), np.inf)
    closed = np.hstack((-inf, np.sort(rows, axis=1), inf)).ravel()  # sorted rows between ±inf
    row_base = (np.arange(m) * (n + 2))[:, None]
    flat = rows.ravel()
    owner = np.repeat(np.arange(m), n)
    # training values in one ascending run, so each block's search walks forward
    order = np.argsort(flat, kind="stable")
    run = flat[order]
    place = np.empty_like(order)
    place[order] = np.arange(order.size)

    def block(start: int, stop: int) -> np.ndarray:
        q = queries[start:stop]
        b = len(q)
        u, slot = np.unique(q, return_inverse=True)   # the block's distinct query values
        slot = slot.reshape(b, n)
        k = len(u)
        below = np.searchsorted(u, run)[place]        # how many u lie below each training value
        # query -> row: the last value of each sorted row that is <= each u
        counts = np.bincount(owner * (k + 1) + below, minlength=m * (k + 1))
        last = row_base + np.cumsum(counts.reshape(m, k + 1), axis=1)[:, :k]
        gaps = np.minimum(closed[last + 1] - u, u - closed[last])
        to_rows = gaps[:, slot].max(axis=-1).T
        # row -> query: each query's nearest values below and at-or-above every training value
        mine = np.zeros((b, k), dtype=bool)
        mine[np.arange(b)[:, None], slot] = True
        edge = np.full((b, 1), np.inf)
        lower = np.hstack((-edge, np.maximum.accumulate(np.where(mine, u, -np.inf), axis=1)))
        upper = np.hstack((np.minimum.accumulate(np.where(mine, u, np.inf)[:, ::-1], axis=1)[:, ::-1],
                           edge))
        gaps = np.minimum(upper[:, below] - flat, flat - lower[:, below])
        to_query = gaps.reshape(b, m, n).max(axis=-1)
        return np.maximum(to_rows, to_query)

    return block


def pairwise(metric: str | MetricDescriptor, x, rows,
             guard: GuardPolicy | None = None) -> np.ndarray:
    """Dissimilarity from a query vector, or each query row, to every row of a matrix.

    ``x`` is one query of shape (n,), giving (m,) distances, or a query
    matrix of shape (t, n), giving (t, m). The query is passed as the
    kernel's first argument, which matters for the non-symmetric measures
    (KLD, KDD, NCSD, PCSD, CSSD). Queries are evaluated in blocks sized
    from ``BLOCK_ELEMENTS``; every distance is bitwise equal to evaluating
    that query alone. A non-finite distance raises DomainViolationError.
    """
    desc = _resolve(metric)
    x = np.asarray(x, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    if x.ndim not in (1, 2) or rows.ndim != 2 or rows.shape[1] != x.shape[-1]:
        raise DimensionMismatchError(
            f"expected (n,) or (t, n) against (m, n), got {x.shape} and {rows.shape}")
    _check_domain(desc, x, rows)
    guard = guard if guard is not None else desc.guard
    queries = x.reshape(-1, x.shape[-1])
    if desc.func is kernels.hausdorff:
        block = _hausdorff_blocks(queries, rows)
    else:
        def block(start: int, stop: int) -> np.ndarray:
            return desc.func(queries[start:stop, None, :], rows, guard)
    out = np.empty((len(queries), len(rows)), dtype=np.float64)
    step = max(1, BLOCK_ELEMENTS // max(rows.size, 1))
    for start in range(0, len(queries), step):
        out[start:start + step] = block(start, start + step)
    if not np.all(np.isfinite(out)):
        raise DomainViolationError(f"{desc.abbrev} produced a non-finite distance")
    return out if x.ndim == 2 else out[0]
