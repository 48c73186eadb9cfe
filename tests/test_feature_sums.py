"""Feature-major sums: the replayed summation order against numpy's own, bit for bit.

Every kernel sums over the leading (feature) axis of its pair terms with
``kernels._fsum``, which replays numpy's pairwise order as whole-slab
adds. It must give the bits ``np.sum(..., axis=-1)`` gives on the natural
layout, for every length and for signed zeros, subnormals, overflow,
infinities and NaN; and swapping it for the plain numpy form must change
no distance of any metric on any path.
"""

import numpy as np
import pytest

from distbench import Cell, list_metrics, pairwise
from distbench.metrics import kernels, registry
from distbench.metrics.registry import evaluate

LENGTHS = [*range(141), 256, 300]


def _bits(value):
    return np.ascontiguousarray(value, dtype=np.float64).view(np.int64)


def _columns(rng, n):
    """One length-n column per kind of value the sums must get right."""
    inf, nan = np.inf, np.nan
    signed_zero = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    with_nan = rng.standard_normal(n)
    if n:
        with_nan[rng.integers(n)] = nan
    return {
        "only -0.0": np.full(n, -0.0),
        "mixed signed zeros": signed_zero,
        "subnormals": np.where(rng.random(n) < 0.5, signed_zero, rng.choice([5e-324, -5e-324], n)),
        "overflowing": rng.choice([1e308, -1e308, 1.0], n),
        "one sign overflowing": np.full(n, 1e308),
        "infinities": rng.choice([inf, -inf, 1.0], n),
        "nan": with_nan,
        "order-sensitive": rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n),
    }


@pytest.mark.parametrize("n", LENGTHS)
def test_replayed_sum_is_numpy_sum_bit_for_bit(n):
    rng = np.random.default_rng(n)
    # (n, 2, kinds): two draws of every kind of column, feature-major
    feature_major = np.stack([np.stack(list(_columns(rng, n).values()), axis=-1)
                              for _ in range(2)], axis=1)
    natural = np.ascontiguousarray(np.moveaxis(feature_major, 0, -1))
    with np.errstate(all="ignore"):
        got = kernels._replayed_sum(feature_major)
        want = np.sum(natural, axis=-1)
        assert got.shape == want.shape == (2, feature_major.shape[-1])
        assert np.array_equal(_bits(got), _bits(want)), n
        # a single pair's sum (evaluate) is a 0-d result, as np.sum gives
        for kind, column in _columns(rng, n).items():
            got, want = kernels._replayed_sum(column), np.sum(column)
            assert type(got) is type(want) and np.shape(got) == (), kind
            assert _bits(got) == _bits(want), (n, kind)


def test_the_probe_picks_the_replay_on_the_installed_numpy():
    assert kernels._replay_is_exact()
    assert kernels._fsum is kernels._replayed_sum


def _outcome(compute):
    try:
        return _bits(compute())
    except Exception as exc:
        return type(exc), str(exc)


def _every_path(queries, rows):
    """Each metric's outcome through a cell, the library path and evaluate."""
    out = {}
    cell = Cell(queries, rows, list_metrics())
    for i, block in enumerate(cell.blocks()):
        for abbrev in list_metrics():
            out[abbrev, "cell", i] = _outcome(lambda: pairwise(abbrev, block, rows, cell))
    for abbrev in list_metrics():
        out[abbrev, "library"] = _outcome(lambda: pairwise(abbrev, queries, rows))
        out[abbrev, "evaluate"] = _outcome(lambda: evaluate(abbrev, queries[0], rows[0]))
    return out


@pytest.mark.parametrize("n", (1, 4, 9, 16, 60, 130))
@pytest.mark.parametrize("rule", ["epsilon"])   # the one guard rule, EPSILON substitution
def test_every_metric_is_unchanged_under_the_numpy_fallback(n, rule, monkeypatch):
    rng = np.random.default_rng(n)
    grid = rng.integers(0, 4, size=(19, n)) * 0.5      # zeros and exact ties
    values = np.where(rng.random((19, n)) < 0.5, grid, rng.uniform(0.0, 2.0, size=(19, n)))
    queries, rows = values[:7], values[7:]
    queries[1] = rows[2]
    monkeypatch.setattr(registry, "BLOCK_ELEMENTS", 3 * rows.size)   # blocks of 3, 3 and 1
    replayed = _every_path(queries, rows)
    monkeypatch.setattr(kernels, "_fsum", kernels._numpy_sum)
    fallback = _every_path(queries, rows)
    assert replayed.keys() == fallback.keys()
    for key, want in fallback.items():
        got = replayed[key]
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want, key
        else:
            assert np.array_equal(got, want), key


def test_every_summing_metric_sums_through_the_helper(monkeypatch):
    # shifting every helper sum moves each metric that sums over the features;
    # only the maximum (CD), the count (HamD) and HauD read no sum
    rng = np.random.default_rng(3)
    queries, rows = rng.uniform(0.5, 2.0, size=(4, 6)), rng.uniform(0.5, 2.0, size=(5, 6))
    want = {abbrev: pairwise(abbrev, queries, rows) for abbrev in list_metrics()}
    monkeypatch.setattr(kernels, "_fsum", lambda a: kernels._numpy_sum(a) + 0.25)
    unmoved = {abbrev for abbrev in list_metrics()
               if np.array_equal(pairwise(abbrev, queries, rows), want[abbrev])}
    assert unmoved == {"CD", "HamD", "HauD"}
