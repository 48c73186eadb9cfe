"""Benchmark orchestration: the clean sweep and the noise sweep.

Both phases share the same seeding scheme: the RNG stream of every
(dataset, level, repetition) task is derived from the master seed, the
dataset name, the noise level and the repetition index, never from the
metric. All metrics therefore see the same splits and the same noise,
so the metric is the only varying factor inside a cell.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._seeds import derive_seed
from .dataset import Dataset, SplitPlan, load_csv, split
from .errors import ConfigError, DomainViolationError
from .evaluation import (
    ScoreTriple,
    confusion,
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

WORKERS_ENV_VAR = "BENCH_WORKERS"

SCORE_KINDS = ("accuracy", "recall", "precision")


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[str, ...]
    metrics: tuple[str, ...] = field(default_factory=list_metrics)
    k: int = 1
    test_fraction: float = 0.34
    repetitions: int = 10
    noise_levels: tuple[float, ...] = ()
    top_n: int = 10
    master_seed: int = 0
    workers: int = 1

    def validate(self) -> None:
        if not self.datasets:
            raise ConfigError("no datasets configured")
        if not self.metrics:
            raise ConfigError("no metrics configured")
        _check_metrics(self.metrics)
        if self.k < 1:
            raise ConfigError("k must be positive")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0, 1)")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be positive")
        for level in self.noise_levels:
            if not 0.0 < level < 1.0:
                raise ConfigError(f"noise level {level} outside (0, 1)")
        if self.top_n < 1:
            raise ConfigError("top_n must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be positive")


def _check_metrics(metrics: tuple[str, ...]) -> None:
    """Every metric is registered, and listed once so no record repeats."""
    for abbrev in metrics:
        describe(abbrev)  # raises UnknownMetricError
    repeated = sorted({abbrev for abbrev in metrics if metrics.count(abbrev) > 1})
    if repeated:
        raise ConfigError(f"metric listed more than once: {', '.join(repeated)}")


_CONFIG_KEYS = {"datasets", "metrics", "k", "test_fraction", "repetitions",
                "noise_levels", "top_n", "master_seed", "workers"}


def parse_config(path) -> ExperimentConfig:
    """Read a flat ``key = value`` config file into an ExperimentConfig."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    def split_list(value: str) -> tuple[str, ...]:
        return tuple(item.strip() for item in value.split(",") if item.strip())

    kwargs: dict = {}
    try:
        if "datasets" in raw:
            kwargs["datasets"] = split_list(raw["datasets"])
        if "metrics" in raw:
            value = raw["metrics"]
            kwargs["metrics"] = list_metrics() if value.lower() == "all" else split_list(value)
        if "noise_levels" in raw:
            kwargs["noise_levels"] = tuple(float(v) for v in split_list(raw["noise_levels"]))
        for key, conv in (("k", int), ("repetitions", int), ("top_n", int),
                          ("master_seed", int), ("workers", int),
                          ("test_fraction", float)):
            if key in raw:
                kwargs[key] = conv(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    if "datasets" not in kwargs:
        raise ConfigError(f"{path}: missing required key 'datasets'")
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


@dataclass(frozen=True)
class RunRecord:
    dataset: str
    metric: str
    noise_level: float
    repetition: int
    scores: ScoreTriple

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
    terms and cores. A metric whose domain excludes the features, or
    whose distances in any block are not finite, is skipped with the
    reason the cell gives; the others still run. Records and skips come
    back in the order of ``metrics``.
    """
    plan = SplitPlan(cfg.test_fraction, cfg.repetitions,
                     _split_seed(cfg.master_seed, ds.name, level))
    train, test = split(ds, plan, repetition)
    cell = Cell(test.features, train.features, metrics)
    models = {desc.abbrev: KnnModel.from_dataset(train, desc, k=cfg.k) for desc in cell.live()}
    predicted: dict[str, list] = {abbrev: [] for abbrev in models}
    seconds = dict.fromkeys(models, 0.0)
    for block in cell.blocks():
        for desc in cell.live():
            started = time.perf_counter()
            try:
                predicted[desc.abbrev].append(classify_batch(models[desc.abbrev], block, cell))
            except DomainViolationError:
                pass  # the cell has recorded the skip, so the metric is no longer live
            seconds[desc.abbrev] += time.perf_counter() - started
    records = []
    for desc in cell.live():
        abbrev = desc.abbrev
        started = time.perf_counter()
        triple = score(confusion(test.labels, np.concatenate(predicted[abbrev]), ds.n_classes))
        elapsed_ms = (seconds[abbrev] + time.perf_counter() - started) * 1000.0
        print(f"cell dataset={ds.name} metric={abbrev} level={level} "
              f"rep={repetition} accuracy={triple.accuracy:.4f} ({elapsed_ms:.1f} ms)",
              file=sys.stderr)
        records.append(RunRecord(ds.name, abbrev, float(level), repetition, triple))
    skips = [SkipRecord(ds.name, abbrev, float(level), cell.skips[abbrev])
             for abbrev in metrics if abbrev in cell.skips]
    return records, skips


def _resolve_workers(cfg: ExperimentConfig) -> int:
    env = os.environ.get(WORKERS_ENV_VAR)
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV_VAR}={env!r} is not an integer") from None
        if workers < 1:
            raise ConfigError(f"{WORKERS_ENV_VAR} must be positive")
        return workers
    return cfg.workers


def _run_tasks(tasks: list[tuple], workers: int) -> tuple[list[RunRecord], list[SkipRecord]]:
    """Records of every cell in task order, and each distinct skip once."""
    if workers > 1 and len(tasks) > 1:
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


def per_dataset_means(records: list[RunRecord], kind: str,
                      level: float) -> dict[str, dict[str, float]]:
    """metric -> dataset -> mean score over repetitions at one noise level."""
    sums: dict[str, dict[str, list[float]]] = {}
    for rec in records:
        if rec.noise_level != level:
            continue
        sums.setdefault(rec.metric, {}).setdefault(rec.dataset, []).append(rec.value(kind))
    return {metric: {ds: sum(vals) / len(vals) for ds, vals in per_ds.items()}
            for metric, per_ds in sums.items()}


@dataclass(frozen=True)
class SummaryRow:
    metric: str
    accuracy: float
    recall: float
    precision: float


def summarize(records: list[RunRecord]) -> list[SummaryRow]:
    """Per-metric means of per-dataset means on clean records, best first."""
    by_kind = {kind: per_dataset_means(records, kind, 0.0) for kind in SCORE_KINDS}
    metrics = sorted(by_kind["accuracy"])
    rows = []
    for metric in metrics:
        means = {}
        for kind in SCORE_KINDS:
            per_ds = by_kind[kind][metric]
            means[kind] = sum(per_ds.values()) / len(per_ds)
        rows.append(SummaryRow(metric, means["accuracy"], means["recall"],
                               means["precision"]))
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
    summary: list[SummaryRow]


def run_clean_phase(cfg: ExperimentConfig) -> CleanResult:
    """Phase one: every configured metric on every dataset, no noise."""
    cfg.validate()
    return _clean_phase(cfg, _load_datasets(cfg))


def _clean_phase(cfg: ExperimentConfig, datasets: list[Dataset]) -> CleanResult:
    tasks = [(ds, 0.0, rep, cfg.metrics, cfg)
             for ds in datasets
             for rep in range(cfg.repetitions)]
    records, skips = _run_tasks(tasks, _resolve_workers(cfg))
    return CleanResult(records, skips, summarize(records))


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
    cfg.validate()
    if top_metrics is not None:
        top_metrics = tuple(top_metrics)
        _check_metrics(top_metrics)
    datasets = _load_datasets(cfg)
    clean = None
    if top_metrics is None:
        clean = _clean_phase(cfg, datasets)
        top_metrics = top_metrics_from_summary(clean.summary, cfg.top_n)
    levels = cfg.noise_levels or DEFAULT_NOISE_LEVELS
    workers = _resolve_workers(cfg)

    tasks = []
    for ds in datasets:
        for level in levels:
            noisy = inject(ds, NoiseSpec(level, _noise_seed(cfg.master_seed, ds.name, level)))
            for rep in range(cfg.repetitions):
                tasks.append((noisy, float(level), rep, top_metrics, cfg))
    records, skips = _run_tasks(tasks, workers)
    return NoiseResult(records, skips, top_metrics, clean)


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
    the datasets both metrics ran on.
    """
    describe(reference)
    by_kind = {kind: per_dataset_means(records, kind, noise_level) for kind in SCORE_KINDS}
    present = by_kind["accuracy"]
    if reference not in present:
        raise ConfigError(f"no records for reference metric {reference!r}")
    if others is None:
        others = [m for m in sorted(present) if m != reference]
    test = wilcoxon_signed_rank if signed_rank else wilcoxon_rank_sum
    rows = []
    for other in others:
        describe(other)
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
