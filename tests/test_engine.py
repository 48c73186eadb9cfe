"""The blocked kernel engine: bitwise agreement with the per-query kernels."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from distbench import (Cell, ExperimentConfig, KnnModel, SplitPlan, classify, classify_batch,
                       describe, list_metrics, pairwise, split)
from distbench.bench import _run_block, _split_seed
from distbench.errors import DimensionMismatchError, DomainViolationError
from distbench.metrics import kernels, registry
from distbench.metrics.kernels import PairTerms

from _reference import vote_ref
from conftest import make_blobs

DIMENSIONS = (1, 4, 13, 16, 60)


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.int64)


def _tied_values(rng, shape, negative):
    """Half-step grid values (zeros and exact ties) mixed with continuous ones."""
    grid = rng.integers(0, 5, size=shape) * 0.5
    smooth = rng.uniform(0.0, 2.0, size=shape)
    values = np.where(rng.random(shape) < 0.5, grid, smooth)
    return values - 1.0 if negative else values


def _reference(desc, queries, rows):
    """The per-query kernel loop: the metric's kernel on one query at a time.

    Each query gets its own PairTerms, never a cell's, so the loop shares
    no term or core with the engine it checks.
    """
    return np.stack([desc.func(PairTerms(q, rows)) for q in queries])


@pytest.mark.parametrize("abbrev", list_metrics())
def test_engine_is_bitwise_equal_to_per_query_kernel(abbrev, monkeypatch):
    desc = describe(abbrev)
    rng = np.random.default_rng(sum(map(ord, abbrev)))
    for n in DIMENSIONS:
        negative = not desc.requires_nonneg_inputs
        rows = _tied_values(rng, (37, n), negative)
        queries = _tied_values(rng, (11, n), negative)
        queries[0] = rows[5]                      # a query equal to a training row
        want = _bits(_reference(desc, queries, rows))
        # default blocks, one query per block, and blocks of 4 with a short last block
        for budget in (registry.BLOCK_ELEMENTS, 1, 4 * rows.size):
            monkeypatch.setattr(registry, "BLOCK_ELEMENTS", budget)
            got = pairwise(desc, queries, rows)
            assert got.shape == (11, 37)
            assert np.array_equal(_bits(got), want), (abbrev, n, budget)
        monkeypatch.undo()
        assert np.array_equal(_bits(pairwise(desc, queries[3], rows)), want[3]), (abbrev, n)


def test_sorted_hausdorff_matches_reference_kernel(monkeypatch):
    rng = np.random.default_rng(11)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300, 1.5e300, -7e299,
                     1e-300, -1e-300, 5e-324, 3.0, 3.0000000000000004])
    for n in DIMENSIONS:
        rows = rng.choice(pool, size=(29, n))
        queries = rng.choice(pool, size=(9, n))
        queries[1] = rows[0][::-1]                # same set, other order: distance 0
        want = np.stack([kernels.hausdorff(PairTerms(q, rows)) for q in queries])
        for budget in (registry.BLOCK_ELEMENTS, 1, 3 * rows.size):
            monkeypatch.setattr(registry, "BLOCK_ELEMENTS", budget)
            got = pairwise("HauD", queries, rows)
            assert np.array_equal(_bits(got), _bits(want)), (n, budget)
        assert got[1, 0] == 0.0


def test_non_finite_distance_raises_naming_the_metric():
    rows = np.array([[1e200, 1e200], [-1e200, -1e200], [-1e200, 1e200]])
    model = KnnModel(rows, np.array([0, 1, 2]), metric=describe("ED"), k=1)
    query = np.array([1e200, 1e200])            # distances [0, inf, inf]
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(DomainViolationError, match="ED"):
            classify_batch(model, query[None])
        with pytest.raises(DomainViolationError, match="ED"):
            pairwise("ED", query, rows)
    # the reference Hausdorff kernel gives nan or inf for any non-finite input
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainViolationError, match="HauD"):
            pairwise("HauD", np.array([bad, 1.0]), np.ones((3, 2)))
        with pytest.raises(DomainViolationError, match="HauD"):
            pairwise("HauD", np.ones((2, 2)), np.array([[1.0, 1.0], [bad, 1.0], [1.0, 2.0]]))


def test_a_skipped_metric_is_refused_on_later_blocks_without_its_kernel(monkeypatch):
    rows = np.array([[0.0, 0.0], [1.0, 1.0]])
    queries = np.array([[1e200, 0.0], [1.0, 0.0]])   # ED overflows on the first only
    monkeypatch.setattr(registry, "BLOCK_ELEMENTS", rows.size)   # blocks of one query
    calls = []

    def counted(t):
        calls.append(len(t.x))
        return describe("ED").func(t)

    ed = dataclasses.replace(describe("ED"), func=counted)
    cell = Cell(queries, rows, (ed,))
    with pytest.warns(RuntimeWarning, match="overflow"):
        for block in cell.blocks():
            with pytest.raises(DomainViolationError, match="ED produced a non-finite distance"):
                pairwise(ed, block, rows, cell)
    assert calls == [1] and cell.skips == {"ED": "ED produced a non-finite distance"}


@pytest.mark.parametrize("abbrev", ("ED", "HasD", "HauD", "KLD", "CosD"))
def test_classify_batch_k3_equals_per_query_classify(abbrev):
    rng = np.random.default_rng(2)
    feats = rng.integers(0, 4, size=(60, 3)).astype(float)  # many distance ties
    labels = rng.integers(0, 3, size=60)
    queries = rng.integers(0, 4, size=(45, 3)).astype(float)
    model = KnnModel(feats, labels, metric=describe(abbrev), k=3)
    batch = classify_batch(model, queries)
    assert batch.dtype == np.int64
    assert batch.tolist() == [classify(model, q) for q in queries]


def test_shared_core_is_computed_once_per_cell(monkeypatch):
    # MD, MCD, NID and AvgD finish from the absolute-difference core; one cell
    # scores each (query, training row) pair of it once, in blocks of 5 queries
    metrics = ("MD", "MCD", "NID", "CD", "AvgD")
    cfg = ExperimentConfig(datasets=("cell.csv",), metrics=metrics, repetitions=3)
    ds = make_blobs("cell", 90, 4, (0.5, 0.5), spread=2.0, seed=9)
    plan = SplitPlan(cfg.test_fraction, cfg.repetitions, _split_seed(cfg.master_seed, ds.name, 0.0))
    train, test = split(ds, plan, 1)
    monkeypatch.setattr(registry, "BLOCK_ELEMENTS", 5 * train.features.size)
    pairs = []
    abs_diff_sum = kernels.TERMS["abs_diff_sum"]

    def counting(t):
        pairs.append(int(np.prod(np.broadcast_shapes(np.shape(t.x), np.shape(t.y))[:-1])))
        return abs_diff_sum(t)

    monkeypatch.setitem(kernels.TERMS, "abs_diff_sum", counting)
    records, skips = _run_block(ds, 0.0, 1, metrics, cfg)
    assert [r.metric for r in records] == list(metrics) and not skips
    assert len(pairs) > 1                      # the queries ran in several blocks
    assert sum(pairs) == len(test) * len(train)


def _cell_peak(ds, cfg) -> int:
    """The tracemalloc peak of one ``_run_block``, above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records, skips = _run_block(ds, 0.0, 0, cfg.metrics, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == len(cfg.metrics) and not skips
    return peak - before


def test_a_cell_keeps_one_prediction_per_metric_and_query(monkeypatch):
    # blocks of one query: past its block, a cell keeps an 8-byte prediction per
    # (metric, query), so a test set 4x as large on as many training rows (60 of
    # 4 features) raises its peak by those bytes and a fixed slack, whatever the
    # number of blocks
    monkeypatch.setattr(registry, "BLOCK_ELEMENTS", 1)
    metrics = list_metrics()
    peaks = []
    for n_test, n_examples in ((60, 120), (240, 300)):
        cfg = ExperimentConfig(datasets=("cell.csv",), metrics=metrics, repetitions=1,
                               test_fraction=n_test / n_examples)
        ds = make_blobs("cell", n_examples, 4, (0.5, 0.5), spread=2.0, seed=13)
        peaks.append(_cell_peak(ds, cfg))
    slack = 128 * 2 ** 10   # the larger split's copies and small objects: 36 KiB on numpy 2.4
    assert peaks[1] - peaks[0] <= 8 * len(metrics) * (240 - 60) + slack, peaks


def test_each_shared_term_and_core_is_computed_once_per_block(monkeypatch):
    # and each row term, a term of the training rows alone, once per cell
    rng = np.random.default_rng(12)
    rows = _tied_values(rng, (23, 5), negative=False)
    queries = _tied_values(rng, (10, 5), negative=False)
    monkeypatch.setattr(registry, "BLOCK_ELEMENTS", 4 * rows.size)   # blocks of 4, 4 and 2
    computed, rows_computed = [], []
    for terms, log in ((kernels.TERMS, computed), (kernels.ROW_TERMS, rows_computed)):
        for name, recipe in list(terms.items()):
            monkeypatch.setitem(terms, name,
                                lambda t, name=name, recipe=recipe, log=log: (log.append(name),
                                                                              recipe(t))[1])
    cell = Cell(queries, rows, list_metrics())
    blocks = 0
    for block in cell.blocks():
        blocks += 1
        for desc in cell.live():
            pairwise(desc, block, rows, cell)
    assert blocks == 3 and not cell.skips
    assert sorted(set(computed)) == sorted(kernels.TERMS)
    for name in set(computed):
        assert computed.count(name) == blocks, name
    assert sorted(rows_computed) == sorted(kernels.ROW_TERMS)   # each once, none left unread
    # PairTerms looks a name up in TERMS, then in ROW_TERMS: no name may be in
    # both, nor shadow an attribute a PairTerms sets itself
    own = set(vars(kernels.PairTerms(queries, rows)))
    assert own == {"x", "y", "_rows"}
    assert not set(kernels.TERMS) & set(kernels.ROW_TERMS)
    assert not (set(kernels.TERMS) | set(kernels.ROW_TERMS)) & own


def _outcome(compute):
    """The bits of a distance matrix, or the type and text of the error raised."""
    try:
        return _bits(compute())
    except Exception as exc:   # both paths must fail alike
        return type(exc), str(exc)


def _same(got, want) -> bool:
    if isinstance(want, tuple):
        return got == want
    return not isinstance(got, tuple) and np.array_equal(got, want)


CELLS = {
    "all in config order": list_metrics(),
    "all reversed": list_metrics()[::-1],
    "MSCD alone": ("MSCD",),
    "MiSCSD and PCSD": ("MiSCSD", "PCSD"),
    "AvgD and MD": ("AvgD", "MD"),
    "JacD without SED or CosD": ("JacD",),
}


@pytest.mark.parametrize("metrics", CELLS.values(), ids=CELLS.keys())
def test_core_store_changes_no_distance(metrics, monkeypatch):
    # the cell stores each block's pair terms and cores for all its metrics;
    # through it every distance is the per-query kernel's, bit for bit, every
    # prediction the vote over those distances, and every error the library path's
    rng = np.random.default_rng(len(metrics))
    for n in (13, 0):                          # zero features are refused
        rows = _tied_values(rng, (37, n), negative=False)
        queries = _tied_values(rng, (11, n), negative=False)
        queries[0] = rows[5]
        rows[3, :4] = 0.0                      # zero denominators and log arguments
        labels = rng.integers(0, 3, size=37)
        if n == 0:
            with pytest.raises(DimensionMismatchError, match="n >= 1"):
                Cell(queries, rows, metrics)
            for abbrev in metrics:
                with pytest.raises(DimensionMismatchError, match="n >= 1"):
                    pairwise(abbrev, queries, rows)
            continue
        monkeypatch.setattr(registry, "BLOCK_ELEMENTS", 4 * rows.size)   # the last block short
        want = {}
        for abbrev in metrics:   # the library path's error, or the per-query kernels' bits
            library = _outcome(lambda: pairwise(abbrev, queries, rows))
            want[abbrev] = library if isinstance(library, tuple) else _bits(
                _reference(describe(abbrev), queries, rows))
        cell = Cell(queries, rows, metrics)
        start = 0
        for block in cell.blocks():
            at = slice(start, start + len(block))
            start += len(block)
            for abbrev in metrics:
                expected = want[abbrev] if isinstance(want[abbrev], tuple) else want[abbrev][at]
                got = _outcome(lambda: pairwise(abbrev, block, rows, cell))
                assert _same(got, expected), (abbrev, n)
                if isinstance(expected, tuple):
                    continue
                model = KnnModel(rows, labels, describe(abbrev), k=3)
                votes = [vote_ref(labels, row, 3) for row in expected.view(np.float64)]
                assert classify_batch(model, block, cell).tolist() == votes, (abbrev, n)
        assert start == len(queries) and cell.block is None


def test_core_store_keeps_no_core_from_a_failed_call(monkeypatch):
    rng = np.random.default_rng(5)
    rows = rng.uniform(0.0, 1.0, size=(8, 3))
    queries = rng.uniform(0.0, 1.0, size=(6, 3))
    monkeypatch.setattr(registry, "BLOCK_ELEMENTS", 2 * rows.size)   # blocks of 2 queries
    want = _reference(describe("MCD"), queries, rows)
    calls = []
    abs_diff_sum = kernels.TERMS["abs_diff_sum"]

    def failing_second_call(t):
        calls.append(len(t.x))
        if len(calls) == 2:
            raise FloatingPointError("second call")
        return abs_diff_sum(t)

    monkeypatch.setitem(kernels.TERMS, "abs_diff_sum", failing_second_call)
    md, mcd = describe("MD"), describe("MCD")
    cell = Cell(queries, rows, (md, mcd))
    blocks = cell.blocks()
    block = next(blocks)
    pairwise(md, block, rows, cell)
    pairwise(mcd, block, rows, cell)       # the core MD computed
    block = next(blocks)
    with pytest.raises(FloatingPointError):
        pairwise(md, block, rows, cell)
    got = pairwise(mcd, block, rows, cell)  # computes the core again: nothing half kept
    assert np.array_equal(_bits(got), _bits(want[2:4]))
    assert calls == [2, 2, 2]


def test_core_store_refuses_other_arrays():
    rng = np.random.default_rng(4)
    rows = rng.uniform(0.0, 1.0, size=(9, 3))
    queries = rng.uniform(0.0, 1.0, size=(5, 3))
    cell = Cell(queries, rows, ("MD", "MCD"))
    with pytest.raises(ValueError, match="current query block"):
        pairwise("MD", queries, rows, cell)     # no block is current yet
    for block in cell.blocks():
        with pytest.raises(ValueError, match="current query block"):
            pairwise("MD", block.copy(), rows, cell)
        with pytest.raises(ValueError, match="current query block"):
            classify_batch(KnnModel(rows.copy(), np.zeros(9), describe("MD")), block, cell)
        model = KnnModel(rows, np.zeros(9), describe("MD"))
        assert classify_batch(model, block, cell).tolist() == [0] * 5


SHAPES = {"1-d queries": (3,), "fewer features": (2, 2), "more features": (2, 4),
          "3-d queries": (2, 1, 3)}


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_cell_validates_its_inputs_once_for_every_metric(shape):
    queries, rows = np.ones(shape), np.ones((5, 3))
    with pytest.raises(DimensionMismatchError, match=r"\(t, n\) queries against \(m, n\)"):
        Cell(queries, rows, list_metrics())
    if len(shape) != 1:    # pairwise takes a 1-d query as one query; it keeps its own message
        for abbrev in list_metrics():
            with pytest.raises(DimensionMismatchError, match=r"expected \(n,\) or \(t, n\)"):
                pairwise(abbrev, queries, rows)


@pytest.mark.parametrize("target", ("diff", "x", "y"))
def test_a_kernel_writing_into_a_shared_term_fails_loudly(target):
    rows = np.array([[0.0, 1.0], [2.0, 0.5]])
    queries = np.array([[1.0, 2.0]])

    def writing(t):
        getattr(t, target)[...] = 0.0
        return np.sum(t.abs_diff, axis=-1)

    desc = dataclasses.replace(describe("MD"), abbrev="MD*", func=writing)
    cell = Cell(queries, rows, (desc,))
    for block in cell.blocks():
        with pytest.raises(ValueError, match="read-only"):
            pairwise(desc, block, rows, cell)
    assert rows.flags.writeable and queries.flags.writeable   # only the cell's views are frozen
