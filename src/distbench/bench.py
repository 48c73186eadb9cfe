"""Benchmark orchestration: the clean sweep and the noise sweep.

Both phases share the same seeding scheme: the RNG stream of every
(dataset, level, repetition) task is derived from the master seed, the
dataset name, the noise level and the repetition index, never from the
metric. All metrics therefore see the same splits and the same noise,
so the metric is the only varying factor inside a cell.
"""

from __future__ import annotations

import csv
import re
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ._seeds import derive_seed
from .dataset import Dataset, SplitPlan, load_csv, read_lines, split
from .errors import ConfigError, DistbenchError, DomainViolationError
from .evaluation import (
    ScoreTriple,
    confusion,
    mean,
    rank_distances,
    score,
    wilcoxon_rank_sum,
    wilcoxon_signed_rank,
)
from .heap import keep_freed_heap
from .knn import KnnModel, classify_batch
from .metrics import Cell, describe, list_metrics
from .noise import NoiseSpec, inject

DEFAULT_NOISE_LEVELS = tuple(round(0.1 * i, 1) for i in range(1, 10))

# Table-8 top performers (ties included), selectable instead of a locally
# computed top list when reproducing the published noise phase.
PUBLISHED_TOP = ("HasD", "LD", "CanD", "SCSD", "ClaD", "DivD", "WIAD",
                 "MD", "AvgD", "CosD", "CorD", "DicD", "ED")

SCORE_KINDS = ("accuracy", "recall", "precision")


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[str, ...]
    metrics: tuple[str, ...] = field(default_factory=list_metrics)
    k: int = 1
    test_fraction: float = 0.34
    repetitions: int = 10
    noise_levels: tuple[float, ...] = DEFAULT_NOISE_LEVELS
    top_n: int = 10
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        for f in fields(self):
            _check_field(f.name, getattr(self, f.name))


def _check_field(name: str, value) -> None:
    """Refuse a value that the config field ``name`` cannot take. A built config
    checks every field here, and ``parse_config`` each value as it reads it."""
    if name in ("datasets", "metrics", "noise_levels") and not value:
        raise ConfigError(f"no {name.replace('_', ' ')} configured")
    if name in ("k", "repetitions", "top_n", "workers") and value < 1:
        raise ConfigError(f"{name} must be positive")
    if name == "test_fraction" and not 0.0 < value < 1.0:
        raise ConfigError("test_fraction must be in (0, 1)")
    if name == "datasets":
        _check_once("dataset", value)
    if name == "metrics":
        for abbrev in value:
            describe(abbrev)  # raises UnknownMetricError
        _check_once("metric", value)
    if name == "noise_levels":
        for level in value:
            if not 0.0 < level < 1.0:
                raise ConfigError(f"noise level {level} outside (0, 1)")
        _check_once("noise level", value)


def _check_once(what: str, items: tuple) -> None:
    """Refuse an item listed twice, whose records would repeat."""
    repeated = sorted({item for item in items if items.count(item) > 1})
    if repeated:
        raise ConfigError(f"{what} listed more than once: {', '.join(map(str, repeated))}")


# a line up to its first "#" outside double quotes, so a quoted item may hold one
_COMMENT_FREE = re.compile(r'(?:[^"#]|"[^"]*"?)*')


def _split_list(value: str) -> tuple[str, ...]:
    # one CSV row, so a double-quoted item may hold a comma
    items = next(csv.reader([value], skipinitialspace=True), [])
    return tuple(item.strip() for item in items if item.strip())


# every ExperimentConfig field is a config key, parsed by the reader of its type
_READERS = {
    "int": int,
    "float": float,
    "tuple[str, ...]": _split_list,
    "tuple[float, ...]": lambda value: tuple(float(v) for v in _split_list(value)),
}
_CONFIG_KEYS = {f.name: _READERS[f.type] for f in fields(ExperimentConfig)}


def parse_config(path) -> ExperimentConfig:
    """Read a flat ``key = value`` config file into an ExperimentConfig. Each line
    is checked as it is read, so an error names the first fault in the file."""
    path = Path(path)
    kwargs: dict = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        line = _COMMENT_FREE.match(line).group().strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in kwargs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            kwargs[key] = (list_metrics() if key == "metrics" and value.lower() == "all"
                           else _CONFIG_KEYS[key](value))
            _check_field(key, kwargs[key])
        except (ValueError, csv.Error, DistbenchError) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc

    if "datasets" not in kwargs:
        raise ConfigError(f"{path}: missing required key 'datasets'")
    return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class RunRecord:
    dataset: str
    metric: str
    noise_level: float
    repetition: int
    scores: ScoreTriple

    def __post_init__(self):
        if not 0.0 <= self.noise_level < 1.0:
            raise ValueError(f"noise level {self.noise_level} outside [0, 1)")
        if self.repetition < 0:
            raise ValueError(f"repetition {self.repetition} is negative")

    def value(self, kind: str) -> float:
        return getattr(self.scores, kind)


@dataclass(frozen=True)
class SkipRecord:
    dataset: str
    metric: str
    noise_level: float
    reason: str


def _level_token(level: float) -> str:
    return repr(float(level))


def _split_seed(master_seed: int, dataset_name: str, level: float) -> int:
    return derive_seed(master_seed, dataset_name, _level_token(level), "split")


def _noise_seed(master_seed: int, dataset_name: str, level: float) -> int:
    return derive_seed(master_seed, dataset_name, _level_token(level), "noise")


def _run_block(ds: Dataset, level: float, repetition: int, metrics: tuple[str, ...],
               cfg: ExperimentConfig) -> tuple[list[RunRecord], list[SkipRecord]]:
    """All metrics on one (dataset, level, repetition) cell.

    The cell walks the split's query blocks and classifies each block
    with every metric still live, so the metrics share each block's pair
    terms and cores. Each block's predictions go into the one (metric,
    query) array of the cell, so the cell holds no per-block array past
    its block. A metric whose domain excludes the features, or whose
    distances in any block are not finite, is skipped with the reason the
    cell gives; the others still run. Records and skips come back in the
    order of ``metrics``.
    """
    plan = SplitPlan(cfg.test_fraction, cfg.repetitions,
                     _split_seed(cfg.master_seed, ds.name, level))
    train, test = split(ds, plan, repetition)
    cell = Cell(test.features, train.features, metrics)
    models = {desc.abbrev: KnnModel.from_dataset(train, desc, k=cfg.k) for desc in cell.live()}
    predicted = np.empty((len(models), len(test.labels)), dtype=np.int64)
    row = {abbrev: i for i, abbrev in enumerate(models)}
    seconds = dict.fromkeys(models, 0.0)
    start = 0
    for block in cell.blocks():
        stop = start + len(block)
        for desc in cell.live():
            started = time.perf_counter()
            try:
                predicted[row[desc.abbrev], start:stop] = classify_batch(
                    models[desc.abbrev], block, cell)
            except DomainViolationError:
                pass  # the cell has recorded the skip, so the metric is no longer live
            seconds[desc.abbrev] += time.perf_counter() - started
        start = stop
    records = []
    for desc in cell.live():
        abbrev = desc.abbrev
        started = time.perf_counter()
        triple = score(confusion(test.labels, predicted[row[abbrev]], ds.n_classes))
        elapsed_ms = (seconds[abbrev] + time.perf_counter() - started) * 1000.0
        line = (f"cell dataset={ds.name} metric={abbrev} level={level} "
                f"rep={repetition} accuracy={triple.accuracy:.4f} ({elapsed_ms:.1f} ms)")
        sys.stderr.write(line + "\n")   # one write: worker processes share stderr
        records.append(RunRecord(ds.name, abbrev, float(level), repetition, triple))
    skips = [SkipRecord(ds.name, abbrev, float(level), cell.skips[abbrev])
             for abbrev in metrics if abbrev in cell.skips]
    return records, skips


def _run_cells(cfg: ExperimentConfig, datasets: list[Dataset], levels: tuple[float, ...],
               metrics: tuple[str, ...]) -> tuple[list[RunRecord], list[SkipRecord]]:
    """Records of every (dataset, level, repetition) cell in that order, and each
    distinct skip once. A clean cell is the cell at level 0, whose data ``inject``
    returns unchanged."""
    tasks = []
    for ds in datasets:
        for level in levels:
            data = inject(ds, NoiseSpec(level, _noise_seed(cfg.master_seed, ds.name, level)))
            tasks += [(data, float(level), rep, metrics, cfg) for rep in range(cfg.repetitions)]
    workers = min(cfg.workers, len(tasks))   # a pool forks all its workers at once
    if workers > 1:
        # imported here, so importing the package loads no process machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=keep_freed_heap) as pool:
            blocks = list(pool.map(_run_block, *zip(*tasks)))
    else:
        blocks = [_run_block(*task) for task in tasks]
    records = [record for block_records, _ in blocks for record in block_records]
    # a skip repeats in every repetition of its (dataset, level) cell
    skips = dict.fromkeys(skip for _, block_skips in blocks for skip in block_skips)
    return records, list(skips)


def _load_datasets(cfg: ExperimentConfig) -> list[Dataset]:
    """The configured datasets; records key on the name, so names are unique."""
    datasets = [load_csv(path) for path in cfg.datasets]
    names = [ds.name for ds in datasets]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"datasets {cfg.datasets[names.index(name)]} and "
                              f"{cfg.datasets[i]} both load under the name {name!r}")
    return datasets


def per_dataset_means(records: list[RunRecord],
                      level: float) -> dict[str, dict[str, dict[str, float]]]:
    """score kind -> metric -> dataset -> mean score over repetitions at one
    noise level, from one pass over the records."""
    scores: dict[str, dict[str, list[ScoreTriple]]] = {}
    for rec in records:
        if rec.noise_level == level:
            scores.setdefault(rec.metric, {}).setdefault(rec.dataset, []).append(rec.scores)
    return {kind: {metric: {ds: mean([getattr(triple, kind) for triple in triples])
                            for ds, triples in per_ds.items()}
                   for metric, per_ds in scores.items()}
            for kind in SCORE_KINDS}


@dataclass(frozen=True)
class SummaryRow:
    metric: str
    accuracy: float
    recall: float
    precision: float


def summarize(records: list[RunRecord]) -> list[SummaryRow]:
    """Per-metric means of per-dataset means on clean records, best first."""
    by_kind = per_dataset_means(records, 0.0)
    rows = [SummaryRow(metric, *(mean(by_kind[kind][metric].values()) for kind in SCORE_KINDS))
            for metric in sorted(by_kind["accuracy"])]
    rows.sort(key=lambda r: (-r.accuracy, r.metric))
    return rows


def top_metrics_from_summary(summary: list[SummaryRow], top_n: int) -> tuple[str, ...]:
    """Metrics whose accuracy rank is at most top_n; rank ties are kept."""
    ranked = rank_distances({row.metric: [row.accuracy] for row in summary})
    return tuple(row.metric for row in ranked if row.rank <= top_n)


@dataclass(frozen=True)
class CleanResult:
    records: list[RunRecord]
    skips: list[SkipRecord]


def run_clean_phase(cfg: ExperimentConfig) -> CleanResult:
    """Phase one: every configured metric on every dataset, no noise."""
    return CleanResult(*_run_cells(cfg, _load_datasets(cfg), (0.0,), cfg.metrics))


@dataclass(frozen=True)
class NoiseResult:
    records: list[RunRecord]
    skips: list[SkipRecord]
    metrics: tuple[str, ...]
    clean: CleanResult | None  # the clean phase that picked ``metrics``, if one ran


def run_noise_phase(cfg: ExperimentConfig,
                    top_metrics: tuple[str, ...] | None = None) -> NoiseResult:
    """Phase two: the top metrics on noise-corrupted copies of each dataset.

    When ``top_metrics`` is not given, the clean phase is run first and
    the metrics ranking at most ``cfg.top_n`` by mean accuracy are used,
    and its result is kept as ``NoiseResult.clean``. Both phases score the
    datasets loaded once."""
    if top_metrics is not None:
        top_metrics = tuple(top_metrics)
        _check_field("metrics", top_metrics)
    datasets = _load_datasets(cfg)
    clean = None
    if top_metrics is None:
        clean = CleanResult(*_run_cells(cfg, datasets, (0.0,), cfg.metrics))
        top_metrics = top_metrics_from_summary(summarize(clean.records), cfg.top_n)
    return NoiseResult(*_run_cells(cfg, datasets, cfg.noise_levels, top_metrics),
                       top_metrics, clean)


@dataclass(frozen=True)
class CompareRow:
    metric: str
    p_values: dict[str, float]   # kind -> p
    significant: dict[str, bool]  # kind -> p < alpha


def compare_to_reference(records: list[RunRecord], reference: str,
                         others: list[str] | None = None, *,
                         noise_level: float = 0.0, alpha: float = 0.05,
                         signed_rank: bool = False) -> list[CompareRow]:
    """Wilcoxon p-values of a reference metric against each other metric.

    Samples are per-dataset mean scores at one noise level, aligned on
    the datasets both metrics ran on. ``alpha`` must lie in (0, 1).
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha {alpha} outside (0, 1)")
    describe(reference)
    by_kind = per_dataset_means(records, noise_level)
    present = by_kind["accuracy"]
    if reference not in present:
        raise ConfigError(f"no records for reference metric {reference!r}")
    if others is None:
        others = [m for m in sorted(present) if m != reference]
    if not others:
        raise ConfigError(f"no metrics to compare with the reference {reference!r}")
    _check_field("metrics", tuple(others))
    test = wilcoxon_signed_rank if signed_rank else wilcoxon_rank_sum
    rows = []
    for other in others:
        if other not in present:
            raise ConfigError(f"no records for metric {other!r}")
        p_values = {}
        for kind in SCORE_KINDS:
            ref_means = by_kind[kind][reference]
            other_means = by_kind[kind][other]
            shared = sorted(set(ref_means) & set(other_means))
            if not shared:
                raise ConfigError(f"metrics {reference!r} and {other!r} share no datasets")
            p_values[kind] = test([ref_means[ds] for ds in shared],
                                  [other_means[ds] for ds in shared])
        rows.append(CompareRow(other, p_values,
                               {kind: p < alpha for kind, p in p_values.items()}))
    return rows
