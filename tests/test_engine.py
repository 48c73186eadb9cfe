"""The blocked kernel engine: bitwise agreement with the per-query kernels."""

import dataclasses

import numpy as np
import pytest

from distbench import (ExperimentConfig, KnnModel, SplitPlan, classify, classify_batch,
                       describe, list_metrics, pairwise, split)
from distbench.bench import _run_block, _split_seed
from distbench.errors import DomainViolationError
from distbench.metrics import CoreKernel, CoreStore, GuardPolicy, kernels, registry
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


def _cores(abbrev):
    func = describe(abbrev).func
    return func.cores if isinstance(func, CoreKernel) else ()


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
    rng = np.random.default_rng(len(metrics))
    rows = _tied_values(rng, (37, 13), negative=False)
    queries = _tied_values(rng, (11, 13), negative=False)
    queries[0] = rows[5]
    rows[3, :4] = 0.0                          # zero denominators and log arguments
    labels = rng.integers(0, 3, size=37)
    # blocks of 4 queries, the last one short
    monkeypatch.setattr(registry, "BLOCK_ELEMENTS", 4 * rows.size)
    for call in ("pairwise", "classify_batch"):
        store = CoreStore(queries, rows, metrics)
        for abbrev in metrics:
            if call == "pairwise":
                got = pairwise(abbrev, queries, rows, store=store)
                want = pairwise(abbrev, queries, rows)
            else:
                model = KnnModel(rows, labels, metric=describe(abbrev), k=3)
                got = classify_batch(model, queries, store)
                want = classify_batch(model, queries)
            assert np.array_equal(_bits(got), _bits(want)), (call, abbrev)
        assert len(store) == 0                 # every core dropped after its last consumer


def test_cell_order_keeps_the_consumers_of_each_core_adjacent():
    rng = np.random.default_rng(3)
    rows = _tied_values(rng, (20, 6), negative=False)
    queries = _tied_values(rng, (7, 6), negative=False)
    store = CoreStore(queries, rows, list_metrics())
    order = [desc.abbrev for desc in store.order]
    assert sorted(order) == sorted(list_metrics())
    declared = {core for abbrev in order for core in _cores(abbrev)}
    assert declared == set(registry.CORES)
    for core in registry.CORES:
        at = [i for i, abbrev in enumerate(order) if core in _cores(abbrev)]
        assert at == list(range(at[0], at[-1] + 1)), (core.__name__, order)
    held = []
    for desc in store.order:
        pairwise(desc, queries, rows, store=store)
        held.append(len(store))
    # one core at a time, except both Neyman sums between MSCD and MiSCSD
    assert max(held) == 2 and held.count(2) == 1, list(zip(order, held))
    assert len(store) == 0


def test_core_store_keeps_cores_of_one_guard_policy():
    # a zero reference component: NCSD's term is guarded, so the policy matters
    rows = np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 1.0]])
    queries = np.array([[0.0, 2.0], [1.0, 0.0]])
    zeroing = GuardPolicy(zero_denominator=TERM_IS_ZERO)
    store = CoreStore(queries, rows, ("NCSD", "MSCD"))
    zeroed = pairwise("NCSD", queries, rows, zeroing, store)
    assert np.array_equal(_bits(zeroed), _bits(pairwise("NCSD", queries, rows, zeroing)))
    got = pairwise("MSCD", queries, rows, store=store)
    assert np.array_equal(_bits(got), _bits(pairwise("MSCD", queries, rows)))
    assert not np.array_equal(zeroed, pairwise("NCSD", queries, rows))
    assert len(store) == 0


def test_core_store_keeps_no_core_from_a_failed_call(monkeypatch):
    rng = np.random.default_rng(5)
    rows = rng.uniform(0.0, 1.0, size=(8, 3))
    queries = rng.uniform(0.0, 1.0, size=(6, 3))
    monkeypatch.setattr(registry, "BLOCK_ELEMENTS", 2 * rows.size)   # blocks of 2 queries
    blocks = []

    def failing_second_block(x, y, guard):
        blocks.append(len(x))
        if len(blocks) == 2:
            raise FloatingPointError("second block")
        return kernels.abs_diff_sum(x, y, guard)

    md, mcd = (dataclasses.replace(describe(a), func=CoreKernel((failing_second_block,),
                                                                describe(a).func.finish))
               for a in ("MD", "MCD"))
    store = CoreStore(queries, rows, (md, mcd))
    with pytest.raises(FloatingPointError):
        pairwise(md, queries, rows, store=store)
    assert len(store) == 0                     # no half-filled core
    got = pairwise(mcd, queries, rows, store=store)
    assert np.array_equal(_bits(got), _bits(pairwise("MCD", queries, rows)))


def test_core_store_refuses_other_arrays():
    rng = np.random.default_rng(4)
    rows = rng.uniform(0.0, 1.0, size=(9, 3))
    queries = rng.uniform(0.0, 1.0, size=(5, 3))
    store = CoreStore(queries, rows, ("MD", "MCD"))
    with pytest.raises(ValueError, match="other query or training arrays"):
        pairwise("MD", queries.copy(), rows, store=store)
    with pytest.raises(ValueError, match="other query or training arrays"):
        classify_batch(KnnModel(rows.copy(), np.zeros(9), describe("MD")), queries, store)
    model = KnnModel(rows, np.zeros(9), describe("MD"))
    assert classify_batch(model, queries, store).tolist() == [0] * 5
