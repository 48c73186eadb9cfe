"""Registry of the 54 distance measures with per-metric property flags.

Flags record what each measure guarantees on its declared domain, zero
and constant vectors included:

- ``symmetric``: d(x, y) equals d(y, x) exactly.
- ``zero_self``: d(x, x) is 0, up to rounding, for every x in the domain.
- ``nonneg_output``: the score is never negative, up to rounding, on
  domain inputs.
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
from .kernels import PairTerms, _div, _frozen


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
    """A measure, its family and the flags of the module docstring.

    ``func(t)`` is the measure's one formula: the distances of x against
    y held by the PairTerms ``t``. It is a kernel of ``kernels`` when the
    measure reduces over the features itself, or, when it is finished
    from shared cores and row terms of ``t``, an expression written in its
    registry row. Library callers score through ``evaluate`` and
    ``pairwise``, which check shapes and the domain first.

    A registered descriptor pickles by its abbreviation and unpickles as
    the registry's own; any other pickles by value, so its ``func`` must
    be importable.
    """

    abbrev: str
    name: str
    family: Family
    func: Callable[[PairTerms], np.ndarray]
    symmetric: bool = True
    zero_self: bool = True
    nonneg_output: bool = True
    full_metric: bool = False
    requires_nonneg_inputs: bool = False

    def __post_init__(self):
        if self.full_metric and not (self.symmetric and self.zero_self and self.nonneg_output):
            raise ValueError(f"{self.abbrev}: full_metric implies the other flags")

    def __reduce__(self):
        if REGISTRY.get(self.abbrev) is self:
            return describe, (self.abbrev,)
        return super().__reduce__()


def _build_registry() -> dict[str, MetricDescriptor]:
    k = kernels
    F = Family
    rows = [
        # Lp Minkowski
        MetricDescriptor("MD", "Manhattan", F.MINKOWSKI, lambda t: t.abs_diff_sum,
                         full_metric=True),
        MetricDescriptor("CD", "Chebyshev", F.MINKOWSKI, lambda t: t.abs_diff_max,
                         full_metric=True),
        MetricDescriptor("ED", "Euclidean", F.MINKOWSKI, lambda t: np.sqrt(t.sq_diff_sum),
                         full_metric=True),
        # L1
        MetricDescriptor("LD", "Lorentzian", F.L1, k.lorentzian, full_metric=True),
        MetricDescriptor("CanD", "Canberra", F.L1, k.canberra),
        MetricDescriptor("SD", "Sorensen", F.L1, lambda t: _div(t.abs_diff_sum, t.value_sum),
                         nonneg_output=False),
        MetricDescriptor("SoD", "Soergel", F.L1, lambda t: _div(t.abs_diff_sum, t.max_sum),
                         nonneg_output=False),
        MetricDescriptor("KD", "Kulczynski", F.L1, lambda t: _div(t.abs_diff_sum, t.min_sum),
                         nonneg_output=False),
        MetricDescriptor("MCD", "Mean Character", F.L1, lambda t: t.abs_diff_sum / len(t.xf),
                         full_metric=True),
        MetricDescriptor("NID", "Non Intersection", F.L1, lambda t: 0.5 * t.abs_diff_sum,
                         full_metric=True),
        # Inner product; y's sum of squares is a row term
        MetricDescriptor("JacD", "Jaccard", F.INNER_PRODUCT,
                         lambda t: _div(t.sq_diff_sum, (t.x_square_sum + t.square_sum)
                                        - t.inner_product)),
        MetricDescriptor("CosD", "Cosine", F.INNER_PRODUCT,
                         lambda t: 1.0 - _div(t.inner_product, np.sqrt(t.x_square_sum)
                                              * np.sqrt(t.square_sum)),
                         zero_self=False),
        MetricDescriptor("DicD", "Dice", F.INNER_PRODUCT,
                         lambda t: 1.0 - _div(2.0 * t.inner_product,
                                              t.x_square_sum + t.square_sum),
                         zero_self=False),
        MetricDescriptor("ChoD", "Chord", F.INNER_PRODUCT, k.chord),
        # Squared chord
        MetricDescriptor("BD", "Bhattacharyya", F.SQUARED_CHORD, k.bhattacharyya,
                         zero_self=False, nonneg_output=False, requires_nonneg_inputs=True),
        MetricDescriptor("SCD", "Squared Chord", F.SQUARED_CHORD, lambda t: t.squared_chord_sum,
                         requires_nonneg_inputs=True),
        MetricDescriptor("MatD", "Matusita", F.SQUARED_CHORD,
                         lambda t: np.sqrt(t.squared_chord_sum),
                         full_metric=True, requires_nonneg_inputs=True),
        MetricDescriptor("HeD", "Hellinger", F.SQUARED_CHORD,
                         lambda t: np.sqrt(2.0 * t.squared_chord_sum),
                         full_metric=True, requires_nonneg_inputs=True),
        # Squared L2
        MetricDescriptor("SED", "Squared Euclidean", F.SQUARED_L2, lambda t: t.sq_diff_sum),
        MetricDescriptor("ClaD", "Clark", F.SQUARED_L2, k.clark),
        MetricDescriptor("NCSD", "Neyman chi-squared", F.SQUARED_L2, lambda t: t.neyman_sum,
                         symmetric=False, nonneg_output=False),
        MetricDescriptor("PCSD", "Pearson chi-squared", F.SQUARED_L2, lambda t: t.pearson_sum,
                         symmetric=False, nonneg_output=False),
        MetricDescriptor("SquD", "Squared chi-squared", F.SQUARED_L2,
                         lambda t: t.squared_chi2_sum, nonneg_output=False),
        MetricDescriptor("PSCSD", "Probabilistic Symmetric chi-squared", F.SQUARED_L2,
                         lambda t: 2.0 * t.squared_chi2_sum, nonneg_output=False),
        MetricDescriptor("DivD", "Divergence", F.SQUARED_L2, k.divergence),
        MetricDescriptor("ASCSD", "Additive Symmetric chi-squared", F.SQUARED_L2,
                         k.additive_symmetric_chi2, nonneg_output=False),
        MetricDescriptor("AD", "Average", F.SQUARED_L2,
                         lambda t: np.sqrt(t.sq_diff_sum / len(t.xf)), full_metric=True),
        MetricDescriptor("MCED", "Mean Censored Euclidean", F.SQUARED_L2,
                         lambda t: np.sqrt(_div(t.sq_diff_sum, t.nonzero_count))),
        MetricDescriptor("SCSD", "Squared Chi-Squared", F.SQUARED_L2, k.squared_chi_squared),
        # Shannon entropy
        MetricDescriptor("KLD", "Kullback-Leibler", F.SHANNON_ENTROPY, k.kullback_leibler,
                         symmetric=False, nonneg_output=False, requires_nonneg_inputs=True),
        MetricDescriptor("JefD", "Jeffreys", F.SHANNON_ENTROPY, k.jeffreys,
                         requires_nonneg_inputs=True),
        MetricDescriptor("KDD", "K divergence", F.SHANNON_ENTROPY, k.k_divergence,
                         symmetric=False, nonneg_output=False, requires_nonneg_inputs=True),
        MetricDescriptor("TopD", "Topsoe", F.SHANNON_ENTROPY, lambda t: t.topsoe_sum,
                         requires_nonneg_inputs=True),
        MetricDescriptor("JSD", "Jensen-Shannon", F.SHANNON_ENTROPY,
                         lambda t: 0.5 * t.topsoe_sum, requires_nonneg_inputs=True),
        MetricDescriptor("JDD", "Jensen difference", F.SHANNON_ENTROPY, k.jensen_difference,
                         requires_nonneg_inputs=True),
        # Vicissitude
        MetricDescriptor("VWHD", "Vicis-Wave Hedges", F.VICISSITUDE, k.vicis_wave_hedges,
                         nonneg_output=False),
        MetricDescriptor("VSDF1", "Vicis Symmetric 1", F.VICISSITUDE, k.vicis_symmetric1),
        MetricDescriptor("VSDF2", "Vicis Symmetric 2", F.VICISSITUDE, k.vicis_symmetric2,
                         nonneg_output=False),
        MetricDescriptor("VSDF3", "Vicis Symmetric 3", F.VICISSITUDE, k.vicis_symmetric3,
                         nonneg_output=False),
        MetricDescriptor("MSCD", "Max Symmetric chi-squared", F.VICISSITUDE,
                         lambda t: np.maximum(t.neyman_sum, t.pearson_sum), nonneg_output=False),
        MetricDescriptor("MiSCSD", "Min Symmetric chi-squared", F.VICISSITUDE,
                         lambda t: np.minimum(t.neyman_sum, t.pearson_sum), nonneg_output=False),
        # Other
        MetricDescriptor("AvgD", "Average (L1, Linf)", F.OTHER,
                         lambda t: 0.5 * (t.abs_diff_sum + t.abs_diff_max), full_metric=True),
        MetricDescriptor("KJD", "Kumar-Johnson", F.OTHER, k.kumar_johnson,
                         zero_self=False, requires_nonneg_inputs=True),
        MetricDescriptor("TanD", "Taneja", F.OTHER, k.taneja, requires_nonneg_inputs=True),
        MetricDescriptor("PeaD", "Pearson", F.OTHER, lambda t: 1.0 - t.pearson_r,
                         zero_self=False),
        MetricDescriptor("CorD", "Correlation", F.OTHER, lambda t: (1.0 - t.pearson_r) / 2.0,
                         zero_self=False),
        # 1 - s * s with s written via 1 - r, so the algebraic tie to PeaD is bitwise
        MetricDescriptor("SPeaD", "Squared Pearson", F.OTHER,
                         lambda t: 1.0 - (s := 1.0 - (1.0 - t.pearson_r)) * s, zero_self=False),
        MetricDescriptor("HamD", "Hamming", F.OTHER, k.hamming, full_metric=True),
        MetricDescriptor("HauD", "Hausdorff", F.OTHER, k.hausdorff),
        MetricDescriptor("CSSD", "Chi-squared statistic", F.OTHER, k.chi2_statistic,
                         symmetric=False, nonneg_output=False),
        MetricDescriptor("WIAD", "Whittaker's index of association", F.OTHER, k.whittaker),
        MetricDescriptor("MeeD", "Meehl", F.OTHER, k.meehl),
        MetricDescriptor("MotD", "Motyka", F.OTHER, lambda t: _div(t.max_sum, t.value_sum),
                         zero_self=False, nonneg_output=False),
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


def _check_domain(desc: MetricDescriptor, *arrays) -> None:
    """Refuse a negative input to a metric that requires non-negative ones: the one domain rule.

    The signs are read only for such a metric.
    """
    if desc.requires_nonneg_inputs and any((a < 0.0).any() for a in arrays):
        raise DomainViolationError(f"{desc.abbrev} requires non-negative inputs")


def _finite(desc: MetricDescriptor, out):
    """``out``, if every distance in it is finite: the one finiteness rule."""
    if not np.isfinite(out).all():
        raise DomainViolationError(f"{desc.abbrev} produced a non-finite distance")
    return out


def evaluate(metric: str | MetricDescriptor, x, y) -> float:
    """Dissimilarity between two equal-length vectors of at least one feature."""
    desc = _resolve(metric)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or not x.size:
        raise DimensionMismatchError(f"expected two equal-length 1-d vectors of n >= 1 "
                                     f"features, got {x.shape} and {y.shape}")
    _check_domain(desc, x, y)
    return float(_finite(desc, desc.func(PairTerms(x, y))))


def similarity(metric: str | MetricDescriptor, x, y) -> float:
    """Similarity score 1 - d(x, y); meaningful for unit-range measures."""
    return 1.0 - evaluate(metric, x, y)


# Elements in one query block's (b, m, n) kernel temporaries (256 KiB of
# doubles). Chosen with perfbench, the process keeping its freed heap
# (heap.keep_freed_heap), 3 clean_sweep runs per budget on a 2-core host:
# at 2**14 the 660x16 rows of its largest set drop to one query per block,
# and a pass took 3.2-3.4 s against 2.2-2.7 s for 2.6 MB less peak RSS
# (43.5 against 46.2 MB); 2**16 took 2.2-2.3 s and raised it to 51.3 MB.
BLOCK_ELEMENTS = 2 ** 15


class Cell:
    """One query matrix scored against one training matrix by one or more metrics.

    The cell is the one distance engine: a cell of the benchmark scores
    every configured metric on one split, and ``pairwise`` without a cell
    scores through a one-metric cell. Queries that are not (t, n)
    against (m, n) rows, or have no features (n = 0), raise
    DimensionMismatchError. ``blocks()`` yields the queries in blocks
    sized from BLOCK_ELEMENTS (no queries make one empty block, which
    still meets every check). While a block is current,
    ``pairwise(metric, block, rows, cell)`` is the metric's ``func`` on
    the block's PairTerms, so each pair term and core is computed once per
    block, and each term of the rows alone (their feature-major copy and
    Hausdorff's sorted rows among them) once per cell, in the one store of
    row terms every block's PairTerms shares. Terms, cores and the block's
    inputs are read-only views, dropped when the next block starts.

    The cell names no metric. It decides the domain of each metric once,
    and refuses a non-finite distance, by the rules ``evaluate`` follows.
    ``skips`` maps a metric to its reason, the text of the error: a domain
    that excludes the inputs, or non-finite distances in any block. A
    skipped metric is refused with that reason on every later block,
    without its kernel being called. ``live()`` lists the metrics not
    skipped, in the order given. Every distance is bitwise equal to the
    kernel called on one query. ``pairwise`` refuses a cell for any
    arrays other than its current block and its training rows.
    """

    def __init__(self, queries, rows, metrics):
        self.queries = np.asarray(queries, dtype=np.float64)
        self.rows = np.asarray(rows, dtype=np.float64)
        if (self.queries.ndim != 2 or self.rows.ndim != 2
                or self.queries.shape[1] != self.rows.shape[1] or not self.rows.shape[1]):
            raise DimensionMismatchError(f"expected (t, n) queries against (m, n) rows with "
                                         f"n >= 1, got {self.queries.shape} and {self.rows.shape}")
        self.metrics = tuple(_resolve(metric) for metric in metrics)
        self.skips: dict[str, str] = {}
        for desc in self.metrics:
            try:
                _check_domain(desc, self.queries, self.rows)
            except DomainViolationError as exc:
                self.skips[desc.abbrev] = str(exc)
        self.block: np.ndarray | None = None
        self._terms = None

    def live(self) -> list[MetricDescriptor]:
        """The metrics without a skip reason, in the order given."""
        return [desc for desc in self.metrics if desc.abbrev not in self.skips]

    def blocks(self):
        """Yield each block of query rows; it is the current block until the next."""
        rows = _frozen(self.rows.view())
        store: dict = {}   # the row terms, the (n, 1, m) copy of the rows first
        step = max(1, BLOCK_ELEMENTS // max(self.rows.size, 1))
        try:
            for start in range(0, max(len(self.queries), 1), step):
                self.block = self.queries[start:start + step]
                self._terms = PairTerms(_frozen(self.block[:, None, :]), rows, store)
                yield self.block
        finally:
            self.block = self._terms = None

    def _distances(self, desc: MetricDescriptor, x, rows) -> np.ndarray:
        if x is not self.block or rows is not self.rows:
            raise ValueError("a cell scores only its current query block against its rows")
        if desc.abbrev in self.skips:
            raise DomainViolationError(self.skips[desc.abbrev])
        try:
            return _finite(desc, desc.func(self._terms))
        except DomainViolationError as exc:
            self.skips[desc.abbrev] = str(exc)
            raise


def pairwise(metric: str | MetricDescriptor, x, rows, cell: Cell | None = None) -> np.ndarray:
    """Dissimilarity from a query vector, or each query row, to every row of a matrix.

    ``x`` is one query of shape (n,), giving (m,) distances, or a query
    matrix of shape (t, n), giving (t, m). The query is the x of the
    kernel's PairTerms, which matters for the non-symmetric measures
    (KLD, KDD, NCSD, PCSD, CSSD). Without ``cell`` the queries are scored
    block by block through a one-metric Cell. With ``cell``, ``x`` is the
    cell's current block and ``rows`` its training rows, and the metric is
    finished from the terms the block shares with the cell's other
    metrics. Either way every distance is bitwise equal to the kernel
    called on that query alone; a domain that excludes the inputs, or a
    non-finite distance, raises DomainViolationError.
    """
    desc = _resolve(metric)
    if cell is not None:
        return cell._distances(desc, x, rows)
    x = np.asarray(x, dtype=np.float64)
    try:
        cell = Cell(x[None] if x.ndim == 1 else x, rows, (desc,))
    except DimensionMismatchError:
        raise DimensionMismatchError(f"expected (n,) or (t, n) against (m, n) with n >= 1, "
                                     f"got {x.shape} and {np.shape(rows)}") from None
    out = np.concatenate([cell._distances(desc, block, cell.rows) for block in cell.blocks()])
    return out if x.ndim == 2 else out[0]
