"""The blocked kernel engine: bitwise agreement with the per-query kernels."""

import numpy as np
import pytest

from distbench import KnnModel, classify, classify_batch, describe, list_metrics, pairwise
from distbench.errors import DomainViolationError
from distbench.metrics import kernels, registry

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
