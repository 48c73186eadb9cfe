"""Registry of the 54 distance measures with per-metric property flags.

Flags record what each measure guarantees on its declared domain:

- ``symmetric``: d(x, y) equals d(y, x) exactly.
- ``zero_self``: d(x, x) is 0 for every x in the domain.
- ``nonneg_output``: the score is never negative on domain inputs.
- ``full_metric``: all four metric axioms hold (implies the three above).
- ``requires_nonneg_inputs``: inputs with negative components are rejected.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ..errors import DimensionMismatchError, DomainViolationError, UnknownMetricError
from . import kernels
from .kernels import DEFAULT_GUARD, GuardPolicy, _dim, _div


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
    axis; ``finish(values, x, y, guard)`` turns the tuple of core values
    into distances. Calling the kernel computes the cores and finishes
    them, so it is the one formula of the measure. ``pairwise`` given a
    CoreStore computes each core once for all the metrics that declare it.
    """

    cores: tuple[Callable[..., np.ndarray], ...]
    finish: Callable[..., np.ndarray]

    def __call__(self, x, y, guard=DEFAULT_GUARD):
        return self.finish(tuple(core(x, y, guard) for core in self.cores), x, y, guard)


# Finishers: (core values, x, y, guard) -> distances. Module-level
# functions, so descriptors pickle.

def _itself(values, x, y, guard):
    return values[0]


def _half(values, x, y, guard):
    return 0.5 * values[0]


def _twice(values, x, y, guard):
    return 2.0 * values[0]


def _root(values, x, y, guard):
    return np.sqrt(values[0])


def _root_of_twice(values, x, y, guard):
    return np.sqrt(2.0 * values[0])


def _per_dimension(values, x, y, guard):
    return values[0] / _dim(x, y)


def _root_per_dimension(values, x, y, guard):
    return np.sqrt(values[0] / _dim(x, y))


def _root_per_nonzero(values, x, y, guard):
    return np.sqrt(_div(values[0], values[1], guard))


def _larger(values, x, y, guard):
    return np.maximum(values[0], values[1])


def _smaller(values, x, y, guard):
    return np.minimum(values[0], values[1])


def _mean(values, x, y, guard):
    return 0.5 * (values[0] + values[1])


def _one_minus(values, x, y, guard):
    return 1.0 - values[0]


def _half_of_one_minus(values, x, y, guard):
    return (1.0 - values[0]) / 2.0


def _cosine(values, x, y, guard):
    norms = np.sqrt(np.sum(np.square(x), axis=-1)) * np.sqrt(np.sum(np.square(y), axis=-1))
    return 1.0 - _div(values[0], norms, guard)


def _dice(values, x, y, guard):
    squares = np.sum(np.square(x), axis=-1) + np.sum(np.square(y), axis=-1)
    return 1.0 - _div(2.0 * values[0], squares, guard)


def _jaccard(values, x, y, guard):
    squares = np.sum(np.square(x), axis=-1) + np.sum(np.square(y), axis=-1)
    return _div(values[0], squares - values[1], guard)


def _squared_pearson(values, x, y, guard):
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

# Every core a registered metric declares, ordered so that the cores of one
# metric are neighbours. Sorting a cell's metrics by the positions of their
# cores therefore keeps the consumers of each core adjacent, so a cell holds
# no more cores at once than one metric declares.
CORES = (kernels.abs_diff_max, kernels.abs_diff_sum, kernels.inner_product,
         kernels.sq_diff_sum, kernels.nonzero_count, kernels.squared_chord_sum,
         kernels.squared_chi2_sum, kernels.neyman_sum, kernels.pearson_sum,
         kernels.topsoe_sum, kernels.pearson_r)
_CORE_POSITION = {core: i for i, core in enumerate(CORES)}


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


def _cores(desc: MetricDescriptor) -> tuple:
    return desc.func.cores if isinstance(desc.func, CoreKernel) else ()


def _core_positions(desc: MetricDescriptor) -> tuple[int, ...]:
    return tuple(sorted(_CORE_POSITION.get(core, len(CORES)) for core in _cores(desc)))


class CoreStore:
    """The shared cores of one query matrix against one training matrix.

    A cell of the benchmark scores several metrics on the same split.
    Given this store, ``pairwise`` finishes a metric declared as a
    CoreKernel from the cores the store holds, computes the others, and
    hands to the store each (t, m) core that a later metric of
    ``metrics`` still needs. A core is dropped once its last consumer has
    taken it, so after every metric has run once the store is empty.
    ``order`` lists ``metrics`` with the consumers of each core adjacent.

    The store is a cache: every distance is bitwise equal with and
    without it. It belongs to the ``queries`` and ``rows`` arrays it was
    made for, and ``pairwise`` refuses it for any other arrays.
    """

    def __init__(self, queries, rows, metrics):
        self.queries = queries
        self.rows = rows
        descs = [_resolve(metric) for metric in metrics]
        self.order = tuple(sorted(descs, key=_core_positions))
        self._consumers = Counter(core for desc in descs for core in _cores(desc))
        self._held: dict = {}   # core -> (guard, (t, m) values)

    def __len__(self) -> int:
        """The number of cores held."""
        return len(self._held)

    def _blocks(self, kernel: CoreKernel, queries: np.ndarray, rows: np.ndarray,
                guard: GuardPolicy):
        """A block function finishing ``kernel`` from held or fresh core values."""
        plan = []   # (core, (t, m) values or None, whether they are complete)
        for core in kernel.cores:
            self._consumers[core] -= 1
            needed = self._consumers[core] > 0
            held = self._held.get(core) if needed else self._held.pop(core, None)
            if held is not None and held[0] == guard:
                plan.append((core, held[1], True))
            else:
                plan.append((core, np.empty((len(queries), len(rows))) if needed else None,
                             False))

        def block(start: int, stop: int) -> np.ndarray:
            x = queries[start:stop, None, :]
            values = []
            for core, kept, complete in plan:
                if complete:
                    values.append(kept[start:stop])
                    continue
                value = core(x, rows, guard)
                if kept is not None:
                    kept[start:stop] = value
                    if stop >= len(queries):   # the last block: every row is filled
                        self._held[core] = (guard, kept)
                values.append(value)
            return kernel.finish(tuple(values), x, rows, guard)

        return block


def pairwise(metric: str | MetricDescriptor, x, rows,
             guard: GuardPolicy | None = None,
             store: CoreStore | None = None) -> np.ndarray:
    """Dissimilarity from a query vector, or each query row, to every row of a matrix.

    ``x`` is one query of shape (n,), giving (m,) distances, or a query
    matrix of shape (t, n), giving (t, m). The query is passed as the
    kernel's first argument, which matters for the non-symmetric measures
    (KLD, KDD, NCSD, PCSD, CSSD). Queries are evaluated in blocks sized
    from ``BLOCK_ELEMENTS``; every distance is bitwise equal to evaluating
    that query alone. A non-finite distance raises DomainViolationError.
    ``store``, a CoreStore made for these ``x`` and ``rows`` arrays, lets
    the metrics of one cell share their cores; it changes no result.
    """
    desc = _resolve(metric)
    x = np.asarray(x, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    if x.ndim not in (1, 2) or rows.ndim != 2 or rows.shape[1] != x.shape[-1]:
        raise DimensionMismatchError(
            f"expected (n,) or (t, n) against (m, n), got {x.shape} and {rows.shape}")
    if store is not None and (x is not store.queries or rows is not store.rows):
        raise ValueError("the core store was made for other query or training arrays")
    _check_domain(desc, x, rows)
    guard = guard if guard is not None else desc.guard
    queries = x.reshape(-1, x.shape[-1])
    if desc.func is kernels.hausdorff:
        block = _hausdorff_blocks(queries, rows)
    elif store is not None and isinstance(desc.func, CoreKernel):
        block = store._blocks(desc.func, queries, rows, guard)
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
