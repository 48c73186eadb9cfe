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
from .kernels import DEFAULT_GUARD, GuardPolicy, PairTerms, _dim, _div, _frozen, on_terms


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
class CoreKernel:
    """A kernel written as a finisher applied to shared cores.

    Each core is a reduction ``(x, y, guard) -> values`` over the last
    axis; ``finish(values, terms, guard)`` turns the tuple of core values
    into distances, reading ``terms.x`` and ``terms.y`` (a PairTerms) if
    it needs the vectors. Calling the kernel computes the cores and
    finishes them, so it is the one formula of the measure.
    ``over_terms`` finishes from the cores a PairTerms shares, which a
    Cell uses to compute each core once per query block.
    """

    cores: tuple[Callable[..., np.ndarray], ...]
    finish: Callable[..., np.ndarray]

    def __call__(self, x, y, guard=DEFAULT_GUARD):
        t = PairTerms(x, y)
        return self.finish(tuple(on_terms(core, t, guard) for core in self.cores), t, guard)

    def over_terms(self, t: PairTerms, guard: GuardPolicy):
        return self.finish(tuple(t.core(core, guard) for core in self.cores), t, guard)


# Finishers: (core values, pair terms, guard) -> distances. Module-level
# functions, so descriptors pickle.

def _itself(values, t, guard):
    return values[0]


def _half(values, t, guard):
    return 0.5 * values[0]


def _twice(values, t, guard):
    return 2.0 * values[0]


def _root(values, t, guard):
    return np.sqrt(values[0])


def _root_of_twice(values, t, guard):
    return np.sqrt(2.0 * values[0])


def _per_dimension(values, t, guard):
    return values[0] / _dim(t.x, t.y)


def _root_per_dimension(values, t, guard):
    return np.sqrt(values[0] / _dim(t.x, t.y))


def _root_per_nonzero(values, t, guard):
    return np.sqrt(_div(values[0], values[1], guard))


def _larger(values, t, guard):
    return np.maximum(values[0], values[1])


def _smaller(values, t, guard):
    return np.minimum(values[0], values[1])


def _mean(values, t, guard):
    return 0.5 * (values[0] + values[1])


def _one_minus(values, t, guard):
    return 1.0 - values[0]


def _half_of_one_minus(values, t, guard):
    return (1.0 - values[0]) / 2.0


def _cosine(values, t, guard):
    norms = np.sqrt(np.sum(np.square(t.x), axis=-1)) * np.sqrt(np.sum(np.square(t.y), axis=-1))
    return 1.0 - _div(values[0], norms, guard)


def _dice(values, t, guard):
    squares = np.sum(np.square(t.x), axis=-1) + np.sum(np.square(t.y), axis=-1)
    return 1.0 - _div(2.0 * values[0], squares, guard)


def _jaccard(values, t, guard):
    squares = np.sum(np.square(t.x), axis=-1) + np.sum(np.square(t.y), axis=-1)
    return _div(values[0], squares - values[1], guard)


def _squared_pearson(values, t, guard):
    # written via 1 - r so the algebraic tie to PeaD is bitwise
    s = 1.0 - (1.0 - values[0])
    return 1.0 - s * s


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
    C = CoreKernel
    rows = [
        # Lp Minkowski
        MetricDescriptor("MD", "Manhattan", F.MINKOWSKI, C((k.abs_diff_sum,), _itself),
                         full_metric=True),
        MetricDescriptor("CD", "Chebyshev", F.MINKOWSKI, C((k.abs_diff_max,), _itself),
                         full_metric=True),
        MetricDescriptor("ED", "Euclidean", F.MINKOWSKI, C((k.sq_diff_sum,), _root),
                         full_metric=True),
        # L1
        MetricDescriptor("LD", "Lorentzian", F.L1, k.lorentzian, full_metric=True),
        MetricDescriptor("CanD", "Canberra", F.L1, k.canberra),
        MetricDescriptor("SD", "Sorensen", F.L1, k.sorensen),
        MetricDescriptor("SoD", "Soergel", F.L1, k.soergel),
        MetricDescriptor("KD", "Kulczynski", F.L1, k.kulczynski),
        MetricDescriptor("MCD", "Mean Character", F.L1, C((k.abs_diff_sum,), _per_dimension),
                         full_metric=True),
        MetricDescriptor("NID", "Non Intersection", F.L1, C((k.abs_diff_sum,), _half),
                         full_metric=True),
        # Inner product
        MetricDescriptor("JacD", "Jaccard", F.INNER_PRODUCT,
                         C((k.sq_diff_sum, k.inner_product), _jaccard)),
        MetricDescriptor("CosD", "Cosine", F.INNER_PRODUCT, C((k.inner_product,), _cosine)),
        MetricDescriptor("DicD", "Dice", F.INNER_PRODUCT, C((k.inner_product,), _dice)),
        MetricDescriptor("ChoD", "Chord", F.INNER_PRODUCT, k.chord),
        # Squared chord
        MetricDescriptor("BD", "Bhattacharyya", F.SQUARED_CHORD, k.bhattacharyya,
                         zero_self=False, nonneg_output=False, requires_nonneg_inputs=True),
        MetricDescriptor("SCD", "Squared Chord", F.SQUARED_CHORD,
                         C((k.squared_chord_sum,), _itself), requires_nonneg_inputs=True),
        MetricDescriptor("MatD", "Matusita", F.SQUARED_CHORD, C((k.squared_chord_sum,), _root),
                         full_metric=True, requires_nonneg_inputs=True),
        MetricDescriptor("HeD", "Hellinger", F.SQUARED_CHORD,
                         C((k.squared_chord_sum,), _root_of_twice),
                         full_metric=True, requires_nonneg_inputs=True),
        # Squared L2
        MetricDescriptor("SED", "Squared Euclidean", F.SQUARED_L2,
                         C((k.sq_diff_sum,), _itself)),
        MetricDescriptor("ClaD", "Clark", F.SQUARED_L2, k.clark),
        MetricDescriptor("NCSD", "Neyman chi-squared", F.SQUARED_L2,
                         C((k.neyman_sum,), _itself), symmetric=False),
        MetricDescriptor("PCSD", "Pearson chi-squared", F.SQUARED_L2,
                         C((k.pearson_sum,), _itself), symmetric=False),
        MetricDescriptor("SquD", "Squared chi-squared", F.SQUARED_L2,
                         C((k.squared_chi2_sum,), _itself)),
        MetricDescriptor("PSCSD", "Probabilistic Symmetric chi-squared", F.SQUARED_L2,
                         C((k.squared_chi2_sum,), _twice)),
        MetricDescriptor("DivD", "Divergence", F.SQUARED_L2, k.divergence),
        MetricDescriptor("ASCSD", "Additive Symmetric chi-squared", F.SQUARED_L2,
                         k.additive_symmetric_chi2),
        MetricDescriptor("AD", "Average", F.SQUARED_L2,
                         C((k.sq_diff_sum,), _root_per_dimension), full_metric=True),
        MetricDescriptor("MCED", "Mean Censored Euclidean", F.SQUARED_L2,
                         C((k.sq_diff_sum, k.nonzero_count), _root_per_nonzero)),
        MetricDescriptor("SCSD", "Squared Chi-Squared", F.SQUARED_L2, k.squared_chi_squared),
        # Shannon entropy
        MetricDescriptor("KLD", "Kullback-Leibler", F.SHANNON_ENTROPY, k.kullback_leibler,
                         symmetric=False, nonneg_output=False, requires_nonneg_inputs=True),
        MetricDescriptor("JefD", "Jeffreys", F.SHANNON_ENTROPY, k.jeffreys,
                         requires_nonneg_inputs=True),
        MetricDescriptor("KDD", "K divergence", F.SHANNON_ENTROPY, k.k_divergence,
                         symmetric=False, nonneg_output=False, requires_nonneg_inputs=True),
        MetricDescriptor("TopD", "Topsoe", F.SHANNON_ENTROPY, C((k.topsoe_sum,), _itself),
                         requires_nonneg_inputs=True),
        MetricDescriptor("JSD", "Jensen-Shannon", F.SHANNON_ENTROPY, C((k.topsoe_sum,), _half),
                         requires_nonneg_inputs=True),
        MetricDescriptor("JDD", "Jensen difference", F.SHANNON_ENTROPY, k.jensen_difference,
                         requires_nonneg_inputs=True),
        # Vicissitude
        MetricDescriptor("VWHD", "Vicis-Wave Hedges", F.VICISSITUDE, k.vicis_wave_hedges),
        MetricDescriptor("VSDF1", "Vicis Symmetric 1", F.VICISSITUDE, k.vicis_symmetric1),
        MetricDescriptor("VSDF2", "Vicis Symmetric 2", F.VICISSITUDE, k.vicis_symmetric2),
        MetricDescriptor("VSDF3", "Vicis Symmetric 3", F.VICISSITUDE, k.vicis_symmetric3),
        MetricDescriptor("MSCD", "Max Symmetric chi-squared", F.VICISSITUDE,
                         C((k.neyman_sum, k.pearson_sum), _larger)),
        MetricDescriptor("MiSCSD", "Min Symmetric chi-squared", F.VICISSITUDE,
                         C((k.neyman_sum, k.pearson_sum), _smaller)),
        # Other
        MetricDescriptor("AvgD", "Average (L1, Linf)", F.OTHER,
                         C((k.abs_diff_sum, k.abs_diff_max), _mean), full_metric=True),
        MetricDescriptor("KJD", "Kumar-Johnson", F.OTHER, k.kumar_johnson,
                         zero_self=False, requires_nonneg_inputs=True),
        MetricDescriptor("TanD", "Taneja", F.OTHER, k.taneja, requires_nonneg_inputs=True),
        MetricDescriptor("PeaD", "Pearson", F.OTHER, C((k.pearson_r,), _one_minus)),
        MetricDescriptor("CorD", "Correlation", F.OTHER,
                         C((k.pearson_r,), _half_of_one_minus)),
        MetricDescriptor("SPeaD", "Squared Pearson", F.OTHER,
                         C((k.pearson_r,), _squared_pearson)),
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


def _domain_error(desc: MetricDescriptor) -> DomainViolationError:
    return DomainViolationError(f"{desc.abbrev} requires non-negative inputs")


def _check_domain(desc: MetricDescriptor, *arrays: np.ndarray) -> None:
    if desc.requires_nonneg_inputs:
        for arr in arrays:
            if np.any(arr < 0.0):
                raise _domain_error(desc)


def _check_finite(desc: MetricDescriptor, out: np.ndarray) -> None:
    if not np.isfinite(out).all():
        raise DomainViolationError(f"{desc.abbrev} produced a non-finite distance")


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


# Elements in one query block's (b, m, n) kernel temporaries (256 KiB of
# doubles). Chosen with perfbench: once the process keeps its freed heap
# (heap.keep_freed_heap), 2**14 to 2**16 time alike on both workloads,
# and larger budgets only raise peak memory.
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


class Cell:
    """One query matrix scored against one training matrix by several metrics.

    A cell of the benchmark scores every configured metric on one split.
    ``blocks()`` yields the queries in blocks sized from BLOCK_ELEMENTS.
    While a block is current, ``pairwise(metric, block, rows, guard, cell)``
    evaluates a metric on the block's PairTerms, so each pair term and each
    core is computed once per block for every metric of the cell. Terms,
    cores and the block's inputs are read-only views, and a block's terms
    are dropped when the next block starts.

    The cell checks the domain once. HauD reads no pair term: at its
    first block the cell computes its whole (t, m) matrix as ``pairwise``
    does, sorting the rows once and keeping them in cache across blocks,
    and each block takes its rows of that matrix. The cell also makes
    every skip decision: ``skips`` maps a metric to its reason, set here
    for a metric whose domain excludes the features and by ``pairwise``
    for one whose distances in any block are not finite. ``live()``
    lists the metrics not skipped, in the order given.

    Every distance is bitwise equal to ``pairwise`` without a cell.
    ``pairwise`` refuses a cell for any arrays other than its current
    block and its training rows.
    """

    def __init__(self, queries, rows, metrics):
        self.queries = np.asarray(queries, dtype=np.float64)
        self.rows = np.asarray(rows, dtype=np.float64)
        self.metrics = tuple(_resolve(metric) for metric in metrics)
        self._negative = bool((self.queries < 0.0).any() or (self.rows < 0.0).any())
        self.skips: dict[str, str] = {desc.abbrev: "negative features outside metric domain"
                                      for desc in self.metrics
                                      if desc.requires_nonneg_inputs and self._negative}
        self.block: np.ndarray | None = None
        self._span = (0, 0)
        self._terms: PairTerms | None = None
        self._hausdorff = None

    def live(self) -> list[MetricDescriptor]:
        """The metrics without a skip reason, in the order given."""
        return [desc for desc in self.metrics if desc.abbrev not in self.skips]

    def blocks(self):
        """Yield each block of query rows; it is the current block until the next."""
        step = max(1, BLOCK_ELEMENTS // max(self.rows.size, 1))
        rows = _frozen(self.rows.view())
        try:
            for start in range(0, len(self.queries), step):
                self.block = self.queries[start:start + step]
                self._span = (start, start + step)
                self._terms = PairTerms(_frozen(self.block[:, None, :]), rows)
                yield self.block
        finally:
            self.block = self._terms = None

    def _distances(self, desc: MetricDescriptor, x, rows,
                   guard: GuardPolicy | None) -> np.ndarray:
        if x is not self.block or rows is not self.rows:
            raise ValueError("a cell scores only its current query block against its rows")
        try:
            if desc.requires_nonneg_inputs and self._negative:
                raise _domain_error(desc)
            if desc.func is kernels.hausdorff:
                if self._hausdorff is None:
                    self._hausdorff = pairwise(desc, self.queries, self.rows)
                out = self._hausdorff[self._span[0]:self._span[1]]
            else:
                out = on_terms(desc.func, self._terms,
                               guard if guard is not None else desc.guard)
            _check_finite(desc, out)
        except DomainViolationError as exc:
            self.skips.setdefault(desc.abbrev, str(exc))
            raise
        return out


def pairwise(metric: str | MetricDescriptor, x, rows,
             guard: GuardPolicy | None = None,
             cell: Cell | None = None) -> np.ndarray:
    """Dissimilarity from a query vector, or each query row, to every row of a matrix.

    ``x`` is one query of shape (n,), giving (m,) distances, or a query
    matrix of shape (t, n), giving (t, m). The query is passed as the
    kernel's first argument, which matters for the non-symmetric measures
    (KLD, KDD, NCSD, PCSD, CSSD). Queries are evaluated in blocks sized
    from ``BLOCK_ELEMENTS``; every distance is bitwise equal to evaluating
    that query alone. A non-finite distance raises DomainViolationError.
    With ``cell``, ``x`` is the cell's current block and ``rows`` its
    training rows, and the distances are finished from the terms the
    block shares with the cell's other metrics; they are the same bits.
    """
    desc = _resolve(metric)
    if cell is not None:
        return cell._distances(desc, x, rows, guard)
    x = np.asarray(x, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    if x.ndim not in (1, 2) or rows.ndim != 2 or rows.shape[1] != x.shape[-1]:
        raise DimensionMismatchError(
            f"expected (n,) or (t, n) against (m, n), got {x.shape} and {rows.shape}")
    _check_domain(desc, x, rows)
    guard = guard if guard is not None else desc.guard
    queries = x if x.ndim == 2 else x[None]
    if desc.func is kernels.hausdorff:
        block = _hausdorff_blocks(queries, rows)
    else:
        def block(start: int, stop: int) -> np.ndarray:
            return desc.func(queries[start:stop, None, :], rows, guard)
    out = np.empty((len(queries), len(rows)), dtype=np.float64)
    step = max(1, BLOCK_ELEMENTS // max(rows.size, 1))
    for start in range(0, len(queries), step):
        out[start:start + step] = block(start, start + step)
    _check_finite(desc, out)
    return out if x.ndim == 2 else out[0]
