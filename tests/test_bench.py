"""Benchmark phases: seed sharing, skips, aggregation, comparison, reports."""

import csv
import math

import numpy as np
import pytest

from distbench import (
    ExperimentConfig,
    NoiseSpec,
    RunRecord,
    ScoreTriple,
    compare_to_reference,
    inject,
    parse_config,
    run_clean_phase,
    run_noise_phase,
    summarize,
    top_metrics_from_summary,
)
from distbench.bench import _run_block, _noise_seed
from distbench.errors import ConfigError, UnknownMetricError
from distbench.reports import (
    CSV_HEADER,
    emit_report,
    level_stats_csv,
    rank_tables_markdown,
    read_records_csv,
    records_to_csv,
    summary_markdown,
    write_records_csv,
)

from conftest import make_blobs, write_dataset_csv


@pytest.fixture
def tiny_config(tmp_path):
    paths = []
    for i, (name, priors) in enumerate([("alpha", (0.6, 0.4)), ("beta", (0.5, 0.3, 0.2))]):
        ds = make_blobs(name, 30, 3, priors, spread=1.0, seed=i)
        paths.append(write_dataset_csv(ds, tmp_path / f"{name}.csv"))
    return ExperimentConfig(datasets=tuple(str(p) for p in paths),
                            metrics=("ED", "SED", "MD", "HasD", "KLD"),
                            repetitions=3, master_seed=42)


def test_clean_phase_shape(tiny_config):
    result = run_clean_phase(tiny_config)
    # blob data is non-negative, so nothing is skipped
    assert not result.skips
    assert len(result.records) == 2 * 3 * 5   # datasets x reps x metrics
    seen = {(r.dataset, r.metric, r.repetition) for r in result.records}
    assert len(seen) == len(result.records)
    assert all(r.noise_level == 0.0 for r in result.records)


def test_monotone_pair_scores_identically(tiny_config):
    result = run_clean_phase(tiny_config)
    by_cell = {}
    for rec in result.records:
        by_cell.setdefault((rec.dataset, rec.repetition), {})[rec.metric] = rec.scores
    for cell, per_metric in by_cell.items():
        assert per_metric["ED"] == per_metric["SED"], cell


def test_summary_sorted_and_averaged(tiny_config):
    result = run_clean_phase(tiny_config)
    accs = [row.accuracy for row in result.summary]
    assert accs == sorted(accs, reverse=True)
    # overall mean is the mean of per-dataset means
    ed_rows = [r for r in result.records if r.metric == "ED"]
    per_ds = {}
    for rec in ed_rows:
        per_ds.setdefault(rec.dataset, []).append(rec.scores.accuracy)
    want = np.mean([np.mean(v) for v in per_ds.values()])
    got = next(row.accuracy for row in result.summary if row.metric == "ED")
    assert got == pytest.approx(want, abs=1e-12)


def test_negative_features_skip_domain_restricted_metrics(tmp_path):
    rng = np.random.default_rng(9)
    from distbench import Dataset
    ds = Dataset.from_arrays("neg", rng.normal(size=(24, 3)),
                             rng.integers(0, 2, size=24), ["a", "b"])
    path = write_dataset_csv(ds, tmp_path / "neg.csv")
    cfg = ExperimentConfig(datasets=(str(path),), metrics=("ED", "KLD", "SCD"),
                           repetitions=2)
    result = run_clean_phase(cfg)
    ran = {r.metric for r in result.records}
    assert ran == {"ED"}
    skipped = {(s.metric, s.dataset) for s in result.skips}
    assert skipped == {("KLD", "neg"), ("SCD", "neg")}
    assert len(result.skips) == 2   # once per level, not once per repetition


def _rank_tables(text):
    """(kind, level) -> the metrics of that table in rank_tables.md, best first."""
    tables, kind = {}, None
    for line in text.splitlines():
        if line.startswith("## Ranking by "):
            kind = line.removeprefix("## Ranking by ")
        elif line.startswith("### Noise level "):
            table = tables[kind, float(line.removeprefix("### Noise level "))] = []
        elif line.startswith("| ") and not line.startswith(("| Rank", "| ---")):
            table.append(line.split(" | ")[1])
    return tables


def test_noise_phase_records_and_rank_tables(tiny_config):
    from dataclasses import replace
    cfg = replace(tiny_config, noise_levels=(0.2, 0.5), metrics=("ED", "MD", "HasD"))
    result = run_noise_phase(cfg, top_metrics=("ED", "MD", "HasD"))
    assert result.clean is None   # the metrics were given, so no clean phase ran
    assert len(result.records) == 2 * 2 * 3 * 3  # datasets x levels x reps x metrics
    tables = _rank_tables(rank_tables_markdown(result.records))
    kinds = ("accuracy", "recall", "precision")
    assert set(tables) == {(kind, level) for kind in kinds for level in (0.2, 0.5)}
    for table in tables.values():
        assert sorted(table) == ["ED", "HasD", "MD"]
    rows = list(csv.DictReader(level_stats_csv(result.records).splitlines()))
    assert {(float(r["level"]), r["metric"], r["kind"]) for r in rows} == {
        (level, metric, kind) for level in (0.2, 0.5)
        for metric in ("ED", "HasD", "MD") for kind in kinds}
    assert len(rows) == 2 * 3 * 3
    for row in rows:
        assert 0.0 <= float(row["mean"]) <= 1.0
        assert float(row["stddev"]) >= 0.0


def test_level_stats_csv_reads_back_as_the_records_aggregated(tiny_config, tmp_path):
    import statistics
    from dataclasses import replace
    result = run_noise_phase(replace(tiny_config, noise_levels=(0.2, 0.5)),
                             top_metrics=("ED", "MD", "HasD"))
    emit_report(result.records, tmp_path)
    with (tmp_path / "level_stats.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["level", "metric", "kind", "mean", "stddev"]
    kinds = ("accuracy", "recall", "precision")
    keys = sorted({(rec.noise_level, rec.metric, kind) for rec in result.records for kind in kinds})
    assert [(float(level), metric, kind) for level, metric, kind, _m, _s in rows[1:]] == keys
    for level, metric, kind, mean, stddev in rows[1:]:
        # each dataset's repetitions, then the datasets in the order the records list them
        per_ds: dict[str, list[float]] = {}
        for rec in result.records:
            if (rec.noise_level, rec.metric) == (float(level), metric):
                per_ds.setdefault(rec.dataset, []).append(rec.value(kind))
        assert list(per_ds) == ["alpha", "beta"]
        means = [sum(values) / len(values) for values in per_ds.values()]
        stds = [statistics.pstdev(values) for values in per_ds.values()]
        assert float(mean) == sum(means) / len(means), (level, metric, kind)
        assert float(stddev) == sum(stds) / len(stds), (level, metric, kind)


def test_noise_phase_keeps_the_clean_phase_that_picked_its_metrics(tiny_config):
    from dataclasses import replace
    cfg = replace(tiny_config, noise_levels=(0.3,), top_n=2)
    result = run_noise_phase(cfg)
    clean = run_clean_phase(cfg)
    assert result.clean == clean
    assert result.metrics == top_metrics_from_summary(clean.summary, 2)


@pytest.mark.parametrize("top_metrics", (None, ("ED", "MD")), ids=("clean phase first", "given"))
def test_noise_phase_parses_each_dataset_once(tiny_config, top_metrics, monkeypatch):
    from dataclasses import replace
    from distbench import bench
    loads, load_csv = [], bench.load_csv

    def counting(path, *args, **kwargs):
        loads.append(path)
        return load_csv(path, *args, **kwargs)

    monkeypatch.setattr(bench, "load_csv", counting)
    run_noise_phase(replace(tiny_config, noise_levels=(0.3,), top_n=2), top_metrics)
    assert loads == list(tiny_config.datasets)


def test_noise_phase_rejects_a_repeated_metric(tiny_config):
    from dataclasses import replace
    cfg = replace(tiny_config, noise_levels=(0.3,))
    with pytest.raises(ConfigError, match="more than once: MD"):
        run_noise_phase(cfg, top_metrics=("MD", "ED", "MD"))


def test_noise_level_zero_matches_clean_phase(tiny_config):
    from distbench import load_csv
    clean = run_clean_phase(tiny_config)
    by_cell = {(r.dataset, r.metric, r.repetition): r.scores for r in clean.records}
    for path in tiny_config.datasets:
        ds = load_csv(path)
        noisy = inject(ds, NoiseSpec(0.0, _noise_seed(tiny_config.master_seed, ds.name, 0.0)))
        assert noisy is ds   # no-op injection
        for rep in range(tiny_config.repetitions):
            records, _skips = _run_block(noisy, 0.0, rep, tiny_config.metrics, tiny_config)
            for rec in records:
                assert rec.scores == by_cell[(rec.dataset, rec.metric, rec.repetition)]


def test_top_metrics_keeps_rank_ties():
    summary = summarize([
        RunRecord("d", "ED", 0.0, 0, ScoreTriple(0.9, 0.9, 0.9)),
        RunRecord("d", "SED", 0.0, 0, ScoreTriple(0.9, 0.9, 0.9)),
        RunRecord("d", "MD", 0.0, 0, ScoreTriple(0.8, 0.8, 0.8)),
        RunRecord("d", "CD", 0.0, 0, ScoreTriple(0.7, 0.7, 0.7)),
    ])
    assert top_metrics_from_summary(summary, 1) == ("ED", "SED")
    assert top_metrics_from_summary(summary, 3) == ("ED", "SED", "MD")


def _records_for_compare(gap):
    records = []
    for i in range(28):
        base = 0.80 + 0.0005 * i
        for metric, value in (("HasD", base), ("ED", base - gap)):
            v = min(max(value, 0.0), 1.0)
            records.append(RunRecord(f"d{i:02d}", metric, 0.0, 0, ScoreTriple(v, v, v)))
    return records


def test_compare_metric_to_itself_is_one(tiny_config):
    result = run_clean_phase(tiny_config)
    rows = compare_to_reference(result.records, "ED", ["ED"])
    assert all(p == 1.0 for p in rows[0].p_values.values())


def test_compare_monotone_pair_is_one(tiny_config):
    result = run_clean_phase(tiny_config)
    rows = compare_to_reference(result.records, "ED", ["SED"])
    assert all(p == 1.0 for p in rows[0].p_values.values())


def test_compare_dominant_metric_is_significant():
    records = _records_for_compare(gap=0.05)
    rows = compare_to_reference(records, "HasD", ["ED"])
    assert all(p < 0.05 for p in rows[0].p_values.values())
    assert all(rows[0].significant.values())
    # the separated arrangement is the extreme one, so the exact two-sided
    # p-value is exactly 2 / C(56, 28); enumeration reduces to that count
    assert 2.0 / math.comb(56, 28) < 0.05


def test_compare_signed_rank_option():
    records = _records_for_compare(gap=0.05)
    rows = compare_to_reference(records, "HasD", ["ED"], signed_rank=True)
    assert rows[0].p_values["accuracy"] < 0.05


def test_compare_unknown_metric(tiny_config):
    result = run_clean_phase(tiny_config)
    with pytest.raises(UnknownMetricError):
        compare_to_reference(result.records, "XYZ")
    with pytest.raises(ConfigError):
        compare_to_reference(result.records, "CanD")  # registered but absent


def test_records_csv_round_trip(tiny_config, tmp_path):
    result = run_clean_phase(tiny_config)
    path = write_records_csv(result.records, tmp_path / "records.csv")
    back = read_records_csv(path)
    assert sorted(back, key=str) == sorted(result.records, key=str)


def test_records_csv_round_trips_a_name_with_a_comma(tmp_path):
    records = [RunRecord("a,b", "ED", 0.0, 0, ScoreTriple(0.5, 0.25, 0.75)),
               RunRecord('say "hi"', "MD", 0.1, 1, ScoreTriple(1.0, 1.0, 1.0))]
    path = write_records_csv(records, tmp_path / "records.csv")
    assert read_records_csv(path) == sorted(records, key=lambda r: r.dataset)


def test_records_csv_schema(tmp_path):
    records = [RunRecord("d", "ED", 0.1, 0, ScoreTriple(0.5, 0.25, 0.75))]
    text = records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == "dataset,metric,noise_level,repetition,accuracy,precision,recall"
    assert len(lines) == 2
    assert lines[1].split(",") == ["d", "ED", "0.1", "0", "0.5", "0.25", "0.75"]


def test_empty_records_csv_is_header_only(tmp_path):
    assert records_to_csv([]) == CSV_HEADER + "\n"


def test_emit_report_formats(tiny_config, tmp_path):
    result = run_clean_phase(tiny_config)
    paths = emit_report(result.records, tmp_path / "clean")
    assert [p.name for p in paths] == ["summary.md"]
    assert sorted(p.name for p in (tmp_path / "clean").iterdir()) == ["summary.md"]
    assert paths[0].read_text() == summary_markdown(result.records)
    # no records: a header-only summary table and nothing else
    paths = emit_report([], tmp_path / "empty")
    assert [p.name for p in paths] == ["summary.md"]
    assert paths[0].read_text().splitlines() == [
        "# Mean scores per metric (noise level 0)", "",
        "| Metric | Accuracy | Recall | Precision |", "| --- | --- | --- | --- |"]


def test_emit_report_rank_tables_for_noise_records(tmp_path):
    records = []
    for level in (0.1, 0.2):
        for metric in ("ED", "MD"):
            for rep in range(2):
                v = 0.5 + 0.1 * rep
                records.append(RunRecord("d", metric, level, rep, ScoreTriple(v, v, v)))
    paths = emit_report(records, tmp_path / "noisy")
    assert [p.name for p in paths] == ["rank_tables.md", "level_stats.csv"]
    assert not (tmp_path / "noisy" / "summary.md").exists()
    text = (tmp_path / "noisy" / "rank_tables.md").read_text()
    # one table per level per score kind, each listing both metrics once
    assert text.count("### Noise level 0.1") == 3
    assert text.count("| ED |") == 6
    # scores 0.5 and 0.6 over two repetitions: mean 0.55, population std 0.05
    stats = (tmp_path / "noisy" / "level_stats.csv").read_text().splitlines()
    assert stats[0] == "level,metric,kind,mean,stddev"
    assert len(stats) == 1 + 2 * 2 * 3
    level, metric, kind, mean, std = stats[1].split(",")
    assert (level, metric, kind) == ("0.1", "ED", "accuracy")
    assert float(mean) == pytest.approx(0.55) and float(std) == pytest.approx(0.05)
    # clean and noisy records together get every table
    clean = [RunRecord("d", "ED", 0.0, 0, ScoreTriple(0.9, 0.9, 0.9))]
    paths = emit_report(clean + records, tmp_path / "mixed")
    assert [p.name for p in paths] == ["summary.md", "rank_tables.md", "level_stats.csv"]


def test_full_determinism(tiny_config):
    first = run_clean_phase(tiny_config)
    second = run_clean_phase(tiny_config)
    assert records_to_csv(first.records) == records_to_csv(second.records)


def test_parallel_workers_match_sequential(tiny_config):
    from dataclasses import replace
    sequential = run_clean_phase(tiny_config)
    parallel = run_clean_phase(replace(tiny_config, workers=2))
    assert records_to_csv(sequential.records) == records_to_csv(parallel.records)


def test_workers_env_override(tiny_config, monkeypatch):
    monkeypatch.setenv("BENCH_WORKERS", "not-a-number")
    with pytest.raises(ConfigError):
        run_clean_phase(tiny_config)
    monkeypatch.setenv("BENCH_WORKERS", "1")
    assert run_clean_phase(tiny_config).records


def test_config_parsing(tmp_path):
    ds = make_blobs("cfg", 20, 2, (0.5, 0.5), spread=0.5, seed=1)
    csv_path = write_dataset_csv(ds, tmp_path / "cfg.csv")
    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text(
        f"# comment line\n"
        f"datasets = {csv_path}\n"
        f"metrics = ED, MD\n"
        f"repetitions = 4\n"
        f"test_fraction = 0.25\n"
        f"noise_levels = 0.1, 0.3\n"
        f"master_seed = 7\n",
        encoding="utf-8")
    cfg = parse_config(cfg_path)
    assert cfg.metrics == ("ED", "MD")
    assert cfg.repetitions == 4
    assert cfg.test_fraction == 0.25
    assert cfg.noise_levels == (0.1, 0.3)
    assert cfg.master_seed == 7


def test_config_metrics_all(tmp_path):
    ds = make_blobs("cfg2", 20, 2, (0.5, 0.5), spread=0.5, seed=2)
    csv_path = write_dataset_csv(ds, tmp_path / "cfg2.csv")
    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text(f"datasets = {csv_path}\nmetrics = all\n", encoding="utf-8")
    assert len(parse_config(cfg_path).metrics) == 54


def test_config_errors(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("bogus_key = 1\ndatasets = x.csv\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(cfg_path)
    cfg_path.write_text("datasets = x.csv\nk = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(cfg_path)
    cfg_path.write_text("metrics = ED\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(cfg_path)   # datasets missing
    cfg_path.write_text("datasets = x.csv\ndatasets = y.csv\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(cfg_path)
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.cfg")


def test_config_validation():
    with pytest.raises(UnknownMetricError):
        ExperimentConfig(datasets=("x.csv",), metrics=("NOPE",)).validate()
    with pytest.raises(ConfigError, match="more than once: ED"):
        ExperimentConfig(datasets=("x.csv",), metrics=("ED", "ED", "MD")).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(datasets=(), metrics=("ED",)).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(datasets=("x.csv",), noise_levels=(1.5,)).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(datasets=("x.csv",), test_fraction=1.0).validate()
