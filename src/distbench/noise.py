"""Attribute-noise injection.

A chosen fraction of examples is selected without replacement; every
attribute of a selected example is replaced by an independent uniform
draw between that attribute's minimum and maximum over the dataset being
corrupted. Class labels are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, round_half_up


@dataclass(frozen=True)
class NoiseSpec:
    """Fraction of examples to corrupt plus the RNG seed."""

    level: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.level < 1.0:
            raise ValueError(f"noise level {self.level} outside [0, 1)")


def inject(ds: Dataset, spec: NoiseSpec) -> Dataset:
    """Corrupt round(level * len(ds)) distinct examples of a dataset.

    Level 0 returns the dataset unchanged. Deterministic for identical
    (dataset, spec); different seeds pick different example sets.
    """
    if spec.level == 0.0:
        return ds
    count = round_half_up(spec.level * len(ds))
    if count == 0:
        return ds

    rng = np.random.default_rng(spec.seed)
    chosen = rng.permutation(len(ds))[:count]
    features = ds.features.copy()
    features[chosen] = rng.uniform(ds.features.min(axis=0), ds.features.max(axis=0),
                                   size=(count, ds.n_features))
    return Dataset.from_arrays(ds.name, features, ds.labels, ds.class_labels)
