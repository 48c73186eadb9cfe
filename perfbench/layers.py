"""Per-layer metrics from the spans of one traced pass.

Layers are the package modules: dataset, noise, metrics, knn,
evaluation, bench, reports and cli. ``harness`` is the benchmark's own
time inside the pass (the root span's self time). The self times of all
layers add up to the traced pass.
"""

from __future__ import annotations

import numpy as np

from distbench import Family, describe

from spans import self_times

LAYERS = ("cli", "bench", "dataset", "noise", "knn", "metrics", "evaluation", "reports",
          "harness")
FAMILIES = tuple(f.value for f in Family)
AGGREGATE = ("bench.summarize", "bench.per_dataset_means")
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (0 if none)."""
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return 0.0


def layer_metrics(spans: list[list], first: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), for spans[first:] of one pass."""
    selfs = self_times(spans, first)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    family_s = dict.fromkeys(FAMILIES, 0.0)
    hausdorff_s = 0.0
    distances = computed_bytes = queries = rows_loaded = rows_corrupted = 0
    batch_ms: list[float] = []
    classify_self = write_self = aggregate_s = 0.0

    for (name, start, end, parent, tag), own in zip(spans[first:], selfs):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        layer_self[name.split(".", 1)[0]] += own
        if name == "metrics.pairwise" and tag is not None:
            metric, (m, n) = tag
            desc = describe(metric) if isinstance(metric, str) else metric
            family_s[desc.family.value] += dur
            if desc.abbrev == "HauD":
                hausdorff_s += dur
            distances += m
            computed_bytes += (m * n + n + m) * 8  # rows and query read, distances written
        elif name == "knn.classify_batch":
            queries += tag or 0
            classify_self += own
            batch_ms.append(dur * 1e3)
        elif name == "dataset.load_csv":
            rows_loaded += tag or 0
        elif name == "noise.inject":
            rows_corrupted += tag or 0
        elif name.startswith("reports.") and name != "reports.read_records_csv":
            write_self += own
        if name in AGGREGATE and (parent < 0 or spans[parent][0] not in AGGREGATE):
            aggregate_s += dur

    tail = tail_percentile(len(batch_ms))

    def s(name: str) -> float:
        return total.get(name, 0.0)

    out = {
        "metrics.pairwise.s": (s("metrics.pairwise"), "s"),
        "metrics.pairwise.calls": (calls.get("metrics.pairwise", 0), "count"),
        "metrics.pairwise.distances": (distances, "count"),
        "metrics.pairwise.computed_bytes": (computed_bytes, "B"),
    }
    for family in FAMILIES:
        out[f"metrics.pairwise.s.{family}"] = (family_s[family], "s")
    out["metrics.pairwise.s.HauD"] = (hausdorff_s, "s")
    out.update({
        "knn.from_dataset.s": (s("knn.from_dataset"), "s"),
        "knn.classify_batch.s": (s("knn.classify_batch"), "s"),
        "knn.classify_batch.self_s": (classify_self, "s"),
        "knn.classify_batch.queries": (queries, "count"),
        "knn.classify_batch.ms_p50": (float(np.percentile(batch_ms, 50)) if batch_ms else 0.0,
                                      "ms"),
        "knn.classify_batch.ms_tail": (float(np.percentile(batch_ms, tail)) if tail else 0.0,
                                       "ms"),
        "dataset.split.s": (s("dataset.split"), "s"),
        "dataset.split.calls": (calls.get("dataset.split", 0), "count"),
        "dataset.load_csv.s": (s("dataset.load_csv"), "s"),
        "dataset.load_csv.rows": (rows_loaded, "count"),
        "noise.inject.s": (s("noise.inject"), "s"),
        "noise.inject.calls": (calls.get("noise.inject", 0), "count"),
        "noise.inject.rows_corrupted": (rows_corrupted, "count"),
        "evaluation.score.s": (s("evaluation.confusion") + s("evaluation.score"), "s"),
        "evaluation.wilcoxon.s": (s("evaluation.wilcoxon"), "s"),
        "evaluation.wilcoxon.calls": (calls.get("evaluation.wilcoxon", 0), "count"),
        "evaluation.rank_distances.s": (s("evaluation.rank_distances"), "s"),
        "reports.read_records_csv.s": (s("reports.read_records_csv"), "s"),
        "reports.write.s": (write_self, "s"),
        "bench.compare_to_reference.s": (s("bench.compare_to_reference"), "s"),
        "bench.aggregate.s": (aggregate_s, "s"),
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    return out
