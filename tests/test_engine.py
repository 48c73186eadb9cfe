"""The blocked kernel engine: bitwise agreement with the per-query kernels."""

import dataclasses

import numpy as np
import pytest

from distbench import (Cell, ExperimentConfig, KnnModel, SplitPlan, classify, classify_batch,
                       describe, list_metrics, pairwise, split)
from distbench.bench import _run_block, _split_seed
from distbench.errors import DomainViolationError
from distbench.metrics import CoreKernel, GuardPolicy, kernels, registry
from distbench.metrics.kernels import TERM_IS_ZERO

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
    return np.stack([desc.func(q, rows, desc.guard) for q in queries])


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
        want = np.stack([kernels.hausdorff(q, rows) for q in queries])
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
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainViolationError, match="HauD"):
            pairwise("HauD", np.array([bad, 1.0]), np.ones((3, 2)))


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

    def counting(x, y, guard):
        pairs.append(int(np.prod(np.broadcast_shapes(np.shape(x), np.shape(y))[:-1])))
        return kernels.abs_diff_sum(x, y, guard)

    for abbrev in metrics:
        desc = describe(abbrev)
        cores = tuple(counting if core is kernels.abs_diff_sum else core
                      for core in desc.func.cores)
        monkeypatch.setitem(registry.REGISTRY, abbrev,
                            dataclasses.replace(desc, func=CoreKernel(cores, desc.func.finish)))
    records, skips = _run_block(ds, 0.0, 1, metrics, cfg)
    assert [r.metric for r in records] == list(metrics) and not skips
    assert len(pairs) > 1                      # the queries ran in several blocks
    assert sum(pairs) == len(test) * len(train)


def test_each_shared_term_and_core_is_computed_once_per_block(monkeypatch):
    rng = np.random.default_rng(12)
    rows = _tied_values(rng, (23, 5), negative=False)
    queries = _tied_values(rng, (10, 5), negative=False)
    monkeypatch.setattr(registry, "BLOCK_ELEMENTS", 4 * rows.size)   # blocks of 4, 4 and 2
    computed = []
    for name, recipe in list(kernels.TERMS.items()):
        monkeypatch.setitem(kernels.TERMS, name,
                            lambda t, name=name, recipe=recipe: (computed.append(name),
                                                                 recipe(t))[1])
    on_terms = kernels.on_terms   # PairTerms.core computes a core through it

    def counting(func, t, guard):
        computed.append(func.__name__)
        return on_terms(func, t, guard)

    monkeypatch.setattr(kernels, "on_terms", counting)
    cell = Cell(queries, rows, list_metrics())
    blocks = 0
    for block in cell.blocks():
        blocks += 1
        for desc in cell.live():
            pairwise(desc, block, rows, None, cell)
    cores = {core.__name__ for abbrev in list_metrics()
             for core in getattr(describe(abbrev).func, "cores", ())}
    assert blocks == 3 and not cell.skips
    assert sorted(set(computed)) == sorted(set(kernels.TERMS) | cores)
    for name in set(computed):
        assert computed.count(name) == blocks, name


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
    # through it every distance and prediction is the library path's, bit for bit
    rng = np.random.default_rng(len(metrics))
    zeroing = GuardPolicy(zero_denominator=TERM_IS_ZERO, log_nonpositive=TERM_IS_ZERO)
    for n in (13, 0):                          # zero features as well
        rows = _tied_values(rng, (37, n), negative=False)
        queries = _tied_values(rng, (11, n), negative=False)
        queries[0] = rows[5]
        rows[3, :4] = 0.0                      # zero denominators and log arguments
        labels = rng.integers(0, 3, size=37)
        # blocks of 4 queries, the last one short; one block without features
        monkeypatch.setattr(registry, "BLOCK_ELEMENTS", 4 * max(rows.size, 1))
        for guard in (None, zeroing):
            want = {abbrev: _outcome(lambda: pairwise(abbrev, queries, rows, guard))
                    for abbrev in metrics}
            cell = Cell(queries, rows, metrics)
            start = 0
            for block in cell.blocks():
                at = slice(start, start + len(block))
                start += len(block)
                for abbrev in metrics:
                    expected = want[abbrev] if isinstance(want[abbrev], tuple) else want[abbrev][at]
                    got = _outcome(lambda: pairwise(abbrev, block, rows, guard, cell))
                    assert _same(got, expected), (abbrev, n, guard)
                    if isinstance(expected, tuple):
                        continue
                    model = KnnModel(rows, labels, describe(abbrev), k=3, guard=guard)
                    assert np.array_equal(classify_batch(model, block, cell),
                                          classify_batch(model, queries[at])), (abbrev, n)
            assert start == len(queries) and cell.block is None


def test_core_store_keeps_cores_of_one_guard_policy():
    # a zero reference component: NCSD's term is guarded, so the policy matters
    rows = np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 1.0]])
    queries = np.array([[0.0, 2.0], [1.0, 0.0]])
    zeroing = GuardPolicy(zero_denominator=TERM_IS_ZERO)
    cell = Cell(queries, rows, ("NCSD", "MSCD"))
    for block in cell.blocks():
        zeroed = pairwise("NCSD", block, rows, zeroing, cell)
        assert np.array_equal(_bits(zeroed), _bits(pairwise("NCSD", queries, rows, zeroing)))
        got = pairwise("MSCD", block, rows, None, cell)
        assert np.array_equal(_bits(got), _bits(pairwise("MSCD", queries, rows)))
        assert not np.array_equal(zeroed, pairwise("NCSD", queries, rows))


def test_core_store_keeps_no_core_from_a_failed_call(monkeypatch):
    rng = np.random.default_rng(5)
    rows = rng.uniform(0.0, 1.0, size=(8, 3))
    queries = rng.uniform(0.0, 1.0, size=(6, 3))
    monkeypatch.setattr(registry, "BLOCK_ELEMENTS", 2 * rows.size)   # blocks of 2 queries
    calls = []

    def failing_second_call(x, y, guard):
        calls.append(len(x))
        if len(calls) == 2:
            raise FloatingPointError("second call")
        return kernels.abs_diff_sum(x, y, guard)

    md, mcd = (dataclasses.replace(describe(a), func=CoreKernel((failing_second_call,),
                                                                describe(a).func.finish))
               for a in ("MD", "MCD"))
    cell = Cell(queries, rows, (md, mcd))
    want = pairwise("MCD", queries, rows)
    blocks = cell.blocks()
    block = next(blocks)
    pairwise(md, block, rows, None, cell)
    pairwise(mcd, block, rows, None, cell)       # the core MD computed
    block = next(blocks)
    with pytest.raises(FloatingPointError):
        pairwise(md, block, rows, None, cell)
    got = pairwise(mcd, block, rows, None, cell)  # computes the core again: nothing half kept
    assert np.array_equal(_bits(got), _bits(want[2:4]))
    assert calls == [2, 2, 2]


def test_core_store_refuses_other_arrays():
    rng = np.random.default_rng(4)
    rows = rng.uniform(0.0, 1.0, size=(9, 3))
    queries = rng.uniform(0.0, 1.0, size=(5, 3))
    cell = Cell(queries, rows, ("MD", "MCD"))
    with pytest.raises(ValueError, match="current query block"):
        pairwise("MD", queries, rows, None, cell)     # no block is current yet
    for block in cell.blocks():
        with pytest.raises(ValueError, match="current query block"):
            pairwise("MD", block.copy(), rows, None, cell)
        with pytest.raises(ValueError, match="current query block"):
            classify_batch(KnnModel(rows.copy(), np.zeros(9), describe("MD")), block, cell)
        model = KnnModel(rows, np.zeros(9), describe("MD"))
        assert classify_batch(model, block, cell).tolist() == [0] * 5


@pytest.mark.parametrize("target", ("diff", "x", "y"))
def test_a_kernel_writing_into_a_shared_term_fails_loudly(target):
    rows = np.array([[0.0, 1.0], [2.0, 0.5]])
    queries = np.array([[1.0, 2.0]])

    def writing(t, guard):
        getattr(t, target)[...] = 0.0
        return np.sum(t.abs_diff, axis=-1)

    desc = dataclasses.replace(describe("MD"), abbrev="MD*", func=kernels.over_terms(writing))
    cell = Cell(queries, rows, (desc,))
    for block in cell.blocks():
        with pytest.raises(ValueError, match="read-only"):
            pairwise(desc, block, rows, None, cell)
    assert rows.flags.writeable and queries.flags.writeable   # only the cell's views are frozen
