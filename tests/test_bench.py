"""Benchmark phases: seed sharing, skips, aggregation, comparison, reports."""

import csv
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

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
from distbench import bench
from distbench.bench import _run_block, _noise_seed, per_dataset_means
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
    summary = summarize(result.records)
    accs = [row.accuracy for row in summary]
    assert accs == sorted(accs, reverse=True)
    # overall mean is the mean of per-dataset means
    ed_rows = [r for r in result.records if r.metric == "ED"]
    per_ds = {}
    for rec in ed_rows:
        per_ds.setdefault(rec.dataset, []).append(rec.scores.accuracy)
    want = np.mean([np.mean(v) for v in per_ds.values()])
    got = next(row.accuracy for row in summary if row.metric == "ED")
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
    # a domain skip records the domain error's own text
    assert {s.reason for s in result.skips} == {"KLD requires non-negative inputs",
                                                "SCD requires non-negative inputs"}
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

    def fmean(values):
        return math.fsum(values) / len(values)

    for level, metric, kind, mean, stddev in rows[1:]:
        # each dataset's repetitions, then the datasets, all averaged by fsum
        per_ds: dict[str, list[float]] = {}
        for rec in result.records:
            if (rec.noise_level, rec.metric) == (float(level), metric):
                per_ds.setdefault(rec.dataset, []).append(rec.value(kind))
        assert sorted(per_ds) == ["alpha", "beta"]
        means = [fmean(values) for values in per_ds.values()]
        stds = [math.sqrt(fmean([(v - fmean(values)) ** 2 for v in values]))
                for values in per_ds.values()]
        assert float(mean) == fmean(means), (level, metric, kind)
        assert float(stddev) == fmean(stds), (level, metric, kind)


def test_tables_do_not_depend_on_the_order_of_the_records(tmp_path):
    # the mean of 0.3, 0.2, 0.1 is 0.19999999999999998 by fsum in every
    # order; sum() gives 0.20000000000000004 over the reversed records
    scores = {"c": 0.3, "b": 0.2, "a": 0.1}
    records = [RunRecord(name, metric, level, rep, ScoreTriple(value, value, value))
               for level in (0.0, 0.5) for name, value in scores.items()
               for metric in ("ED", "MD") for rep in range(2)]
    tables = {}
    for order, listed in (("config", records), ("reversed", records[::-1])):
        emit_report(listed, tmp_path / order)
        tables[order] = {p.name: p.read_bytes() for p in (tmp_path / order).iterdir()}
    assert set(tables["config"]) == {"summary.md", "rank_tables.md", "level_stats.csv"}
    assert tables["config"] == tables["reversed"]
    assert b"0.5,ED,accuracy,0.19999999999999998,0.0\n" in tables["config"]["level_stats.csv"]


# repetition scores whose sum() depends on their order; ED and MD hold each
# dataset's scores in opposite orders
_GOLDEN_SCORES = {("ED", "a"): (0.1, 0.2, 0.3), ("ED", "b"): (0.1, 0.2, 0.4),
                  ("MD", "a"): (0.3, 0.2, 0.1), ("MD", "b"): (0.4, 0.2, 0.1)}


def _golden_records():
    return [RunRecord(ds, metric, level, rep, ScoreTriple(v, v, v))
            for level in (0.0, 0.5) for (metric, ds), values in _GOLDEN_SCORES.items()
            for rep, v in enumerate(values)]


def test_tables_average_every_score_by_fsum():
    records = _golden_records()
    per_ds = {"a": 0.19999999999999998, "b": 0.23333333333333336}
    assert per_dataset_means(records, 0.5)["accuracy"] == {"ED": per_ds, "MD": per_ds}
    assert summary_markdown(records) == (
        "# Mean scores per metric (noise level 0)\n"
        "\n"
        "| Metric | Accuracy | Recall | Precision |\n"
        "| --- | --- | --- | --- |\n"
        "| ED | 0.2167 | 0.2167 | 0.2167 |\n"
        "| MD | 0.2167 | 0.2167 | 0.2167 |\n")
    row = "0.21666666666666667,0.10318578549261867\n"
    assert level_stats_csv(records) == "level,metric,kind,mean,stddev\n" + "".join(
        f"{level},{metric},{kind},{row}" for level in ("0.0", "0.5") for metric in ("ED", "MD")
        for kind in ("accuracy", "precision", "recall"))


def test_compare_ties_metrics_whose_repetitions_are_reordered():
    records = _golden_records()
    for means in per_dataset_means(records, 0.0).values():
        assert means["ED"] == means["MD"]
    for signed_rank in (False, True):
        (row,) = compare_to_reference(records, "ED", ["MD"], signed_rank=signed_rank)
        assert row.p_values == dict.fromkeys(("accuracy", "recall", "precision"), 1.0)


def test_noise_phase_keeps_the_clean_phase_that_picked_its_metrics(tiny_config):
    from dataclasses import replace
    cfg = replace(tiny_config, noise_levels=(0.3,), top_n=2)
    result = run_noise_phase(cfg)
    clean = run_clean_phase(cfg)
    assert result.clean == clean
    assert result.metrics == top_metrics_from_summary(summarize(clean.records), 2)


@pytest.mark.parametrize("top_metrics", (None, ("ED", "MD")), ids=("clean phase first", "given"))
def test_noise_phase_parses_each_dataset_once(tiny_config, top_metrics, monkeypatch):
    from dataclasses import replace
    from distbench import bench
    loads, load_csv = [], bench.load_csv

    def counting(path):
        loads.append(path)
        return load_csv(path)

    monkeypatch.setattr(bench, "load_csv", counting)
    run_noise_phase(replace(tiny_config, noise_levels=(0.3,), top_n=2), top_metrics)
    assert loads == list(tiny_config.datasets)


def test_noise_phase_rejects_a_repeated_metric(tiny_config):
    from dataclasses import replace
    cfg = replace(tiny_config, noise_levels=(0.3,))
    with pytest.raises(ConfigError, match="more than once: MD"):
        run_noise_phase(cfg, top_metrics=("MD", "ED", "MD"))


def test_an_empty_metric_list_is_refused(tiny_config):
    from dataclasses import replace
    with pytest.raises(ConfigError, match="no metrics"):
        replace(tiny_config, metrics=())
    with pytest.raises(ConfigError, match="no metrics"):
        run_noise_phase(replace(tiny_config, noise_levels=(0.3,)), top_metrics=())
    records = _records_for_compare(gap=0.05)
    with pytest.raises(ConfigError, match="no metrics"):
        compare_to_reference(records, "HasD", [])


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


def test_each_progress_line_is_one_write(tiny_config, monkeypatch):
    # worker processes share stderr, so a line written as its text and then its
    # line end can be spliced into another worker's line
    writes = []

    class Recording:
        def write(self, text):
            writes.append(text)
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stderr", Recording())
    result = run_clean_phase(tiny_config)
    assert len(writes) == len(result.records)
    for text in writes:
        assert re.fullmatch(r"cell dataset=\w+ metric=\w+ level=0\.0 rep=\d "
                            r"accuracy=\d\.\d{4} \(\d+\.\d ms\)\n", text), text


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


@pytest.mark.parametrize("alpha", (0.0, 1.0, 2.0, -0.05, math.nan, math.inf))
def test_compare_refuses_an_alpha_outside_the_unit_interval(alpha):
    # at alpha 2 every p-value, 1.0 included, would be marked significant
    records = _records_for_compare(gap=0.05)
    with pytest.raises(ConfigError, match="outside \\(0, 1\\)"):
        compare_to_reference(records, "HasD", ["ED"], alpha=alpha)


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


@pytest.mark.parametrize("field", ("dataset", "metric"))
def test_records_csv_refuses_a_name_over_the_field_size_limit(field, tmp_path):
    # a name of exactly the reader's limit reads back; one more character is
    # refused before anything is written
    limit = csv.field_size_limit()
    record = RunRecord("d", "ED", 0.0, 0, ScoreTriple(0.5, 0.25, 0.75))
    longest = dataclasses.replace(record, **{field: '"' * limit})
    path = write_records_csv([longest], tmp_path / "records.csv")
    assert read_records_csv(path) == [longest]
    too_long = dataclasses.replace(record, **{field: "x" * (limit + 1)})
    with pytest.raises(ConfigError, match="would not read back"):
        write_records_csv([too_long], tmp_path / "out" / "records.csv")
    assert not (tmp_path / "out").exists()


def test_records_csv_schema(tmp_path):
    records = [RunRecord("d", "ED", 0.1, 0, ScoreTriple(0.5, 0.25, 0.75))]
    text = records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == "dataset,metric,noise_level,repetition,accuracy,precision,recall"
    assert len(lines) == 2
    assert lines[1].split(",") == ["d", "ED", "0.1", "0", "0.5", "0.25", "0.75"]


@pytest.mark.parametrize("second, message", [
    ("t,ED,0.0,0,1.0,1.0,1.0", r":3: a second record of \('t', 'ED', 0.0, 0\)"),
    ("t,ED,nan,1,1.0,1.0,1.0", r":3: noise level nan outside \[0, 1\)"),
    ("t,ED,1.0,1,1.0,1.0,1.0", r":3: noise level 1.0 outside \[0, 1\)"),
    ("t,ED,0.0,-3,1.0,1.0,1.0", ":3: repetition -3 is negative"),
])
def test_records_csv_refuses_rows_the_writer_never_writes(second, message, tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(f"{CSV_HEADER}\nt,ED,0.0,0,0.0,0.0,0.0\n{second}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        read_records_csv(path)


def test_records_csv_errors_name_the_line_a_row_starts_on(tmp_path):
    # two rows whose quoted names span two lines each: the bad row is line 6
    path = tmp_path / "records.csv"
    path.write_text(f'{CSV_HEADER}\n"a\nb",ED,0.0,0,0.5,0.5,0.5\n"c\nd",ED,0.0,0,0.5,0.5,0.5\n'
                    f't,ED,0.0,-3,1.0,1.0,1.0\n', encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:6: repetition -3"):
        read_records_csv(path)


@pytest.mark.parametrize("first, message", [
    ("t,ED,0.0,-3,1.0,1.0,1.0", ":3: repetition -3 is negative"),
    ("t,ED,0.0,0", ":3: expected 7 fields, got 4"),
    ("t,ED,0.0,0,0.5,0.5,0.5", ":3: a second record of"),
], ids=("bad value", "short row", "repeated key"))
def test_records_csv_errors_name_the_first_fault_in_the_file(tmp_path, first, message):
    # line 4 holds a field over the csv reader's size limit, a fault found later
    path = tmp_path / "records.csv"
    path.write_text(f"{CSV_HEADER}\nt,ED,0.0,0,0.5,0.5,0.5\n{first}\n"
                    f"{'x' * (csv.field_size_limit() + 1)},ED,0.0,0,1,1,1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path) + message)}"):
        read_records_csv(path)


_TWO_RECORDS = [RunRecord("a\nb", "ED", 0.0, 0, ScoreTriple(0.5, 0.25, 0.75)),
                RunRecord("c", "MD", 0.1, 1, ScoreTriple(1.0, 1.0, 1.0))]


@pytest.mark.parametrize("reader, text", (
    (read_records_csv, records_to_csv(_TWO_RECORDS)),
    (parse_config, "datasets = a.csv, b.csv\nmetrics = ED, MD\nk = 3\n"),
), ids=("records", "config"))
def test_a_byte_order_mark_is_not_read_as_text(tmp_path, reader, text):
    # spreadsheet exports start with one; it would join the first header cell or key
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert reader(marked) == reader(plain)
    assert reader(plain) == (_TWO_RECORDS if reader is read_records_csv else ExperimentConfig(
        datasets=("a.csv", "b.csv"), metrics=("ED", "MD"), k=3))


@pytest.mark.parametrize("ending", ("\r\n", "\r"))
def test_records_csv_reads_every_line_ending(tmp_path, ending):
    # "\r\n", "\r" and "\n" each end a line; a quoted name keeps its own line feed
    text = records_to_csv(_TWO_RECORDS).replace("\n", ending).replace(f"a{ending}b", "a\nb")
    path = tmp_path / "records.csv"
    path.write_bytes(text.encode("utf-8"))
    assert read_records_csv(path) == _TWO_RECORDS


@pytest.mark.parametrize("reader, text", (
    (read_records_csv, f"{CSV_HEADER}\nt,ED,0.0,0,1.0,1.0,1.0\n\xe9,ED,0.0,1,1.0,1.0,1.0\n"),
    (parse_config, "datasets = a.csv\n\nmetrics = \xe9D\n"),
), ids=("records", "config"))
def test_a_byte_that_is_not_utf8_is_refused_naming_its_line(tmp_path, reader, text):
    path = tmp_path / "latin1.txt"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ConfigError) as info:
        reader(path)
    assert str(info.value) == f"{path}:3: byte 0xe9 is not UTF-8"


def test_records_csv_writer_refuses_a_repeated_record(tmp_path):
    record = RunRecord("t", "ED", 0.0, 0, ScoreTriple(0.5, 0.5, 0.5))
    again = dataclasses.replace(record, scores=ScoreTriple(1.0, 1.0, 1.0))
    with pytest.raises(ConfigError, match=r"noise level, repetition\) twice"):
        write_records_csv([record, again], tmp_path / "out" / "records.csv")
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match="repetition -1 is negative"):
        dataclasses.replace(record, repetition=-1)


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


def test_parallel_workers_match_sequential_in_the_noise_phase(tiny_config, tmp_path):
    from distbench import Dataset
    rng = np.random.default_rng(9)
    neg = Dataset.from_arrays("neg", rng.normal(size=(24, 3)),
                              rng.integers(0, 2, size=24), ["a", "b"])
    neg_path = str(write_dataset_csv(neg, tmp_path / "neg.csv"))
    cfg = dataclasses.replace(tiny_config, datasets=tiny_config.datasets + (neg_path,),
                              noise_levels=(0.2, 0.5), repetitions=2)
    sequential = run_noise_phase(cfg, ("HasD", "KLD", "ED"))
    parallel = run_noise_phase(dataclasses.replace(cfg, workers=2), ("HasD", "KLD", "ED"))
    assert len(sequential.skips) == 2   # KLD refuses the negative set at each level
    assert records_to_csv(sequential.records) == records_to_csv(parallel.records)
    assert sequential.skips == parallel.skips


@pytest.mark.parametrize("workers, pools", ((16, [4]), (3, [3]), (1, [])))
def test_the_worker_pool_is_no_larger_than_its_cells(tiny_config, inline_pools, workers, pools):
    # a pool forks all its workers at once; 2 datasets x 2 repetitions are 4 cells
    run_clean_phase(dataclasses.replace(tiny_config, repetitions=2, workers=workers))
    assert [max_workers for max_workers, _ in inline_pools] == pools


def test_importing_the_package_loads_no_process_pool():
    # the pool's modules cost every bench command about 26 ms; only workers > 1 needs them
    src = str(Path(bench.__file__).resolve().parents[1])   # the package under test
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, distbench; print('concurrent.futures.process' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


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


def test_config_lists_parse_as_csv_rows(tmp_path):
    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text('datasets = "/d/a,b/iris.csv",  /d/wine.csv ,\n'
                        'metrics = ED,, MD ,\n'
                        'noise_levels = 0.1 ,0.3\n', encoding="utf-8")
    cfg = parse_config(cfg_path)
    assert cfg.datasets == ("/d/a,b/iris.csv", "/d/wine.csv")   # quoted: the comma stays
    assert cfg.metrics == ("ED", "MD")                           # unquoted: as split on commas
    assert cfg.noise_levels == (0.1, 0.3)


def test_config_comment_starts_only_outside_quotes(tmp_path):
    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text('datasets = "/d/a#b/iris.csv", /d/wine.csv  # two sets\n'
                        'metrics = ED, MD#, CD\n', encoding="utf-8")
    cfg = parse_config(cfg_path)
    assert cfg.datasets == ("/d/a#b/iris.csv", "/d/wine.csv")   # quoted: the "#" stays
    assert cfg.metrics == ("ED", "MD")                           # unquoted: a comment


def test_config_metrics_all(tmp_path):
    ds = make_blobs("cfg2", 20, 2, (0.5, 0.5), spread=0.5, seed=2)
    csv_path = write_dataset_csv(ds, tmp_path / "cfg2.csv")
    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text(f"datasets = {csv_path}\nmetrics = all\n", encoding="utf-8")
    assert len(parse_config(cfg_path).metrics) == 54


@pytest.mark.parametrize("key", ("datasets", "metrics", "noise_levels"))
def test_a_config_key_set_to_an_empty_list_is_refused(tmp_path, key):
    # left out, noise_levels runs the nine default levels; set empty, no key has a default
    path = tmp_path / "bench.cfg"
    path.write_text("datasets = x.csv\n", encoding="utf-8")
    assert parse_config(path).noise_levels == tuple(i / 10 for i in range(1, 10))
    lines = {"datasets": "x.csv", "metrics": "ED", key: ""}
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    lineno = list(lines).index(key) + 1
    assert str(info.value) == f"{path}:{lineno}: no {key.replace('_', ' ')} configured"


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
    with pytest.raises(FileNotFoundError):   # read as a dataset is, so the CLI says "io error"
        parse_config(tmp_path / "absent.cfg")


@pytest.mark.parametrize("text, message", (
    ("datasets = x.csv\nk = x\n", "2: invalid literal for int() with base 10: 'x'"),
    ("datasets = x.csv\nk = soon\nbogus = 1\n",
     "2: invalid literal for int() with base 10: 'soon'"),
    ("datasets = x.csv\nnoise_levels = 0.1, high\ndatasets = y.csv\n",
     "2: could not convert string to float: 'high'"),
), ids=("value", "value-before-unknown-key", "value-before-duplicate-key"))
def test_config_errors_name_the_first_fault_in_the_file(tmp_path, text, message):
    # each line's value is read before the next line is, so its error names the line
    path = tmp_path / "k.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert str(info.value) == f"{path}:{message}"


def test_config_errors_count_only_cr_and_lf_as_line_ends(tmp_path):
    # a form feed ends a line for str.splitlines, not for open(newline="")
    path = tmp_path / "ff.cfg"
    path.write_text("datasets = a.csv\x0c\nk = 1\nbogus = 2\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert str(info.value) == f"{path}:3: unknown key 'bogus'"


def test_config_validation():
    with pytest.raises(UnknownMetricError):
        ExperimentConfig(datasets=("x.csv",), metrics=("NOPE",))
    with pytest.raises(ConfigError, match="more than once: ED"):
        ExperimentConfig(datasets=("x.csv",), metrics=("ED", "ED", "MD"))
    with pytest.raises(ConfigError):
        ExperimentConfig(datasets=(), metrics=("ED",))
    with pytest.raises(ConfigError):
        ExperimentConfig(datasets=("x.csv",), noise_levels=(1.5,))
    with pytest.raises(ConfigError):
        ExperimentConfig(datasets=("x.csv",), test_fraction=1.0)


@pytest.mark.parametrize("field, value", [
    ("k", 0), ("repetitions", 0), ("top_n", 0), ("workers", 0), ("test_fraction", 0.0),
    ("noise_levels", (0.0,)), ("metrics", ()), ("datasets", ()), ("noise_levels", ()),
])
def test_a_config_is_checked_when_it_is_built(field, value):
    cfg = ExperimentConfig(datasets=("x.csv",), metrics=("ED",))
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, **{field: value})
