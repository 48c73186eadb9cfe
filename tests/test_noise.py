"""Attribute-noise injection contract."""

import numpy as np
import pytest

from distbench import Dataset, NoiseSpec, SplitPlan, inject, split


def _dataset(m=10, n=3, seed=0, name="noisy"):
    rng = np.random.default_rng(seed)
    return Dataset.from_arrays(name, rng.uniform(-5, 5, size=(m, n)),
                               rng.integers(0, 3, size=m), ["a", "b", "c"])


def test_level_zero_is_identity():
    ds = _dataset()
    out = inject(ds, NoiseSpec(level=0.0, seed=1))
    assert out is ds


def test_exact_corruption_count():
    ds = _dataset(m=10)
    out = inject(ds, NoiseSpec(level=0.5, seed=2))
    differs = np.any(out.features != ds.features, axis=1)
    assert int(differs.sum()) == 5
    assert np.array_equal(out.features[~differs], ds.features[~differs])


def test_every_attribute_of_selected_rows_changes():
    ds = _dataset(m=40, n=5, seed=3)
    out = inject(ds, NoiseSpec(level=0.3, seed=3))
    changed_rows = np.any(out.features != ds.features, axis=1)
    # continuous draws: each attribute of a corrupted row differs a.s.
    assert np.all(out.features[changed_rows] != ds.features[changed_rows])


def test_values_within_attribute_bounds():
    ds = _dataset(m=200, n=4, seed=4)
    out = inject(ds, NoiseSpec(level=0.9, seed=4))
    assert np.all(out.features >= ds.features.min(axis=0))
    assert np.all(out.features <= ds.features.max(axis=0))


def test_a_split_view_is_corrupted_within_its_own_range():
    # one row at -100 and one at +100 in every attribute, the rest in [0, 1]:
    # whichever view a split gives them to, some view's range is narrower
    rng = np.random.default_rng(11)
    feats = rng.uniform(0, 1, size=(40, 3))
    feats[0], feats[1] = -100.0, 100.0
    ds = Dataset.from_arrays("views", feats, rng.integers(0, 2, size=40), ["x", "y"])
    for view in split(ds, SplitPlan(seed=12), 0):
        out = inject(view, NoiseSpec(level=0.5, seed=13))
        assert np.all(out.features >= view.features.min(axis=0))
        assert np.all(out.features <= view.features.max(axis=0))


def test_labels_untouched():
    ds = _dataset(m=60, seed=5)
    out = inject(ds, NoiseSpec(level=0.7, seed=5))
    assert np.array_equal(out.labels, ds.labels)
    assert out.class_labels == ds.class_labels


def test_constant_column_stays_constant():
    rng = np.random.default_rng(6)
    feats = rng.uniform(0, 1, size=(50, 3))
    feats[:, 1] = 7.25
    ds = Dataset.from_arrays("const", feats, rng.integers(0, 2, size=50), ["x", "y"])
    out = inject(ds, NoiseSpec(level=0.5, seed=6))
    assert np.all(out.features[:, 1] == 7.25)
    assert np.any(out.features[:, 0] != ds.features[:, 0])


def test_determinism():
    ds = _dataset(m=80, seed=7)
    spec = NoiseSpec(level=0.4, seed=99)
    first = inject(ds, spec)
    second = inject(ds, spec)
    assert np.array_equal(first.features, second.features)


def test_different_seeds_pick_different_corruptions():
    ds = _dataset(m=100, seed=8)
    outputs = {inject(ds, NoiseSpec(level=0.5, seed=s)).features.tobytes()
               for s in range(5)}
    assert len(outputs) == 5


def test_selected_rows_are_distinct():
    # count of differing rows equals the requested count exactly, which
    # fails if an index were drawn twice
    ds = _dataset(m=1000, n=2, seed=9)
    for level in (0.1, 0.33, 0.9):
        out = inject(ds, NoiseSpec(level=level, seed=10))
        differs = np.any(out.features != ds.features, axis=1)
        assert int(differs.sum()) == round(level * 1000)


def test_level_validation():
    with pytest.raises(ValueError):
        NoiseSpec(level=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(level=-0.1)
