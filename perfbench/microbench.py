"""Kernel microbenchmark: ``distbench.pairwise`` called directly, per metric.

Two fixed shapes: 99x4 (bound by per-call overhead) and 660x16 (bound by
arithmetic and memory). It calls the public ``pairwise`` rather than going
through ``knn``, so the figures keep their meaning if the classifier stops
routing through ``pairwise``. Bytes moved are computed from array sizes
(training rows and the query read, distances written), not measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from distbench import describe, list_metrics, pairwise

from layers import FAMILIES

# (label, training rows, features, queries per timing)
SHAPES = (("99x4", 99, 4, 99), ("660x16", 660, 16, 33))
REPEATS = 3


def kernel_metrics(rng: np.random.Generator) -> dict[str, tuple[float, str]]:
    """µs per query summed over each family's metrics, HauD alone, and bytes."""
    out = {}
    metrics = list_metrics()
    for label, m, n, q in SHAPES:
        train = rng.uniform(0.0, 10.0, size=(m, n))
        queries = rng.uniform(0.0, 10.0, size=(q, n))
        family_us = dict.fromkeys(FAMILIES, 0.0)
        total_s = 0.0
        for abbrev in metrics:
            samples = []
            for _ in range(REPEATS):
                started = time.perf_counter()
                for x in queries:
                    pairwise(abbrev, x, train)
                samples.append(time.perf_counter() - started)
            per_query = statistics.median(samples) / q
            total_s += per_query
            family_us[describe(abbrev).family.value] += per_query * 1e6
            if abbrev == "HauD":
                out[f"kernel.{label}.us_per_query.HauD"] = (per_query * 1e6, "us")
        for family, us in family_us.items():
            out[f"kernel.{label}.us_per_query.{family}"] = (us, "us")
        per_query_bytes = (m * n + n + m) * 8 * len(metrics)
        out[f"kernel.{label}.computed_bytes_per_query"] = (per_query_bytes, "B")
        out[f"kernel.{label}.computed_GB_per_s"] = (per_query_bytes / total_s / 1e9, "GB/s")
    return out
