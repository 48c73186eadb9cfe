import concurrent.futures

import numpy as np
import pytest

from distbench.dataset import Dataset

# Worked-example pair used by the golden-value tests.
V1 = np.array([5.1, 3.5, 1.4, 0.3])
V2 = np.array([5.4, 3.4, 1.7, 0.2])


@pytest.fixture
def v1():
    return V1.copy()


@pytest.fixture
def v2():
    return V2.copy()


def make_blobs(name, n_examples, n_features, priors, spread, seed=0,
               box=10.0, min_separation=4.0):
    """Synthetic class-blob classification dataset with non-negative features.

    Class centers are drawn inside the box with a minimum pairwise
    separation so the clean problem is easy; per-class counts follow the
    priors. Rows are shuffled.
    """
    rng = np.random.default_rng(seed)
    priors = np.asarray(priors, dtype=float)
    priors = priors / priors.sum()
    counts = np.floor(priors * n_examples).astype(int)
    counts[0] += n_examples - counts.sum()

    centers = []
    attempts = 0
    while len(centers) < len(priors):
        candidate = rng.uniform(0.2 * box, 0.8 * box, size=n_features)
        if all(np.linalg.norm(candidate - c) >= min_separation for c in centers):
            centers.append(candidate)
        attempts += 1
        if attempts > 5000:  # high dimension separates naturally; low needs room
            centers.append(candidate)

    features, labels = [], []
    for cls, count in enumerate(counts):
        pts = centers[cls] + rng.normal(0.0, spread, size=(count, n_features))
        features.append(pts)
        labels.extend([cls] * count)
    features = np.clip(np.vstack(features), 0.0, None)
    labels = np.asarray(labels, dtype=np.int64)
    order = rng.permutation(len(labels))
    return Dataset.from_arrays(name, features[order], labels[order],
                               [f"c{i}" for i in range(len(priors))])


def write_dataset_csv(ds: Dataset, path):
    ds.to_csv(path)
    return path


def write_config(path, dataset_paths, **overrides):
    lines = ["datasets = " + ",".join(str(p) for p in dataset_paths)]
    for key, value in overrides.items():
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def inline_pools(monkeypatch):
    """Swap the process pool for one that maps in this process, and list each
    pool built as (max_workers, initializer). The bench imports the pool
    class where it builds the pool, so the swap reaches it."""
    built = []

    class InlinePool:
        def __init__(self, max_workers, initializer=None):
            built.append((max_workers, initializer))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return built
