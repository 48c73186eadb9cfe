"""Report emission: the records CSV and every table derived from it.

Floats in the CSV are written with repr so rereading them is exact and
two runs with the same seed produce byte-identical files. The CSV goes
through the ``csv`` module with minimal quoting, so a dataset name that
holds a comma, a quote or a line feed reads back intact and any other
name is written bare. A name that would not read back is refused: the
writer leaves a carriage return unquoted, Python 3.10's reader rejects
NUL, and the reader refuses a field longer than
``csv.field_size_limit()``. Both refuse a second record of one (dataset,
metric, noise level, repetition). Every markdown table, written to a
file or printed by a command, is laid out by ``_table`` and rounds to
four decimals, matching the usual presentation of accuracy results.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .bench import CompareRow, RunRecord, SCORE_KINDS, per_dataset_means, summarize
from .dataset import read_lines
from .errors import ConfigError
from .evaluation import ScoreTriple, mean, pstdev, rank_distances

CSV_HEADER = "dataset,metric,noise_level,repetition,accuracy,precision,recall"


def _key(rec: RunRecord) -> tuple:
    return rec.dataset, rec.metric, rec.noise_level, rec.repetition


def _sorted_records(records: list[RunRecord]) -> list[RunRecord]:
    return sorted(records, key=_key)


def records_to_csv(records: list[RunRecord]) -> str:
    limit = csv.field_size_limit()
    for name in {text for rec in records for text in (rec.dataset, rec.metric)}:
        if len(name) > limit:
            raise ConfigError(f"a records CSV cannot hold a name of {len(name)} characters, "
                              f"over the reader's field size limit of {limit}: "
                              f"it would not read back")
        if "\r" in name or "\0" in name:
            raise ConfigError(f"a records CSV cannot hold the name {name!r}: "
                              f"it would not read back")
    if len({_key(rec) for rec in records}) < len(records):
        raise ConfigError("a records CSV cannot hold a (dataset, metric, noise level, "
                          "repetition) twice: it would not read back")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for rec in _sorted_records(records):
        writer.writerow((
            rec.dataset,
            rec.metric,
            repr(rec.noise_level),
            str(rec.repetition),
            repr(rec.scores.accuracy),
            repr(rec.scores.precision),
            repr(rec.scores.recall),
        ))
    return buf.getvalue()


def write_records_csv(records: list[RunRecord], path) -> Path:
    text = records_to_csv(records)   # a refused name leaves nothing written
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def read_records_csv(path) -> list[RunRecord]:
    """The records of a records CSV. Each row is checked as it is read, so an
    error names the first fault in the file, at the line its row starts on."""
    path = Path(path)
    reader = csv.reader(read_lines(path))
    records: dict[tuple, RunRecord] = {}
    try:
        if next(reader, None) != CSV_HEADER.split(","):
            raise ConfigError(f"{path} is not a records CSV (bad header)")
        start = reader.line_num + 1   # a quoted field may span lines
        for cells in reader:
            lineno, start = start, reader.line_num + 1
            if not "".join(cells).strip():
                continue
            if len(cells) != 7:
                raise ConfigError(f"{path}:{lineno}: expected 7 fields, got {len(cells)}")
            try:
                rec = RunRecord(
                    dataset=cells[0],
                    metric=cells[1],
                    noise_level=float(cells[2]),
                    repetition=int(cells[3]),
                    scores=ScoreTriple(float(cells[4]), float(cells[5]), float(cells[6])),
                )
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            if records.setdefault(_key(rec), rec) is not rec:
                raise ConfigError(f"{path}:{lineno}: a second record of {_key(rec)}")
    except csv.Error as exc:
        raise ConfigError(f"{path} is not a readable records CSV: {exc}") from exc
    return list(records.values())


# the columns of the summary and compare tables
_SCORE_HEADER = ("Metric", *(kind.capitalize() for kind in SCORE_KINDS))


def _table(header, rows) -> list[str]:
    """The lines of a markdown table: its header, the separator, one line per row of cells."""
    return [f"| {' | '.join(cells)} |" for cells in (header, ["---"] * len(header), *rows)]


def summary_markdown(records: list[RunRecord]) -> str:
    """Per-metric mean accuracy/recall/precision on clean records, best first."""
    rows = ([row.metric, *(f"{getattr(row, kind):.4f}" for kind in SCORE_KINDS)]
            for row in summarize(records))
    lines = ["# Mean scores per metric (noise level 0)", "", *_table(_SCORE_HEADER, rows)]
    return "\n".join(lines) + "\n"


def rank_tables_markdown(records: list[RunRecord]) -> str:
    """Per-noise-level ranking of metrics for each score kind."""
    by_level: dict[float, list[RunRecord]] = {}
    for rec in records:
        by_level.setdefault(rec.noise_level, []).append(rec)
    means = {level: per_dataset_means(by_level[level], level) for level in sorted(by_level)}
    lines = ["# Metric rankings per noise level", ""]
    for kind in SCORE_KINDS:
        lines += [f"## Ranking by {kind}", ""]
        for level, by_kind in means.items():
            table = rank_distances({m: list(v.values()) for m, v in by_kind[kind].items()})
            rows = ([str(row.rank), row.metric, f"{row.mean:.4f}"] for row in table)
            lines += [f"### Noise level {level:g}", "",
                      *_table(["Rank", "Metric", f"Mean {kind}"], rows), ""]
    return "\n".join(lines) + "\n"


def compare_markdown(reference: str, rows: list[CompareRow], alpha: float) -> str:
    """The p-values of ``compare_to_reference``, a significant one in bold."""
    cells = ([row.metric, *(f"**{row.p_values[kind]:.4f}**" if row.significant[kind]
                            else f"{row.p_values[kind]:.4f}" for kind in SCORE_KINDS)]
             for row in rows)
    lines = [f"# Wilcoxon p-values: {reference} vs the other metrics "
             f"(two-sided, significance {alpha:g})", "", *_table(_SCORE_HEADER, cells)]
    return "\n".join(lines) + "\n"


def level_stats_csv(records: list[RunRecord]) -> str:
    """Mean and standard deviation per (level, metric, score kind), as CSV.

    A row averages each dataset's mean and population standard deviation
    over repetitions."""
    grouped: dict[tuple[float, str, str], dict[str, list[float]]] = {}
    for rec in records:
        for kind in SCORE_KINDS:
            grouped.setdefault((rec.noise_level, rec.metric, kind), {}).setdefault(
                rec.dataset, []).append(rec.value(kind))
    lines = ["level,metric,kind,mean,stddev"]
    for (level, metric, kind), per_ds in sorted(grouped.items()):
        means = [mean(values) for values in per_ds.values()]
        stds = [pstdev(values) for values in per_ds.values()]
        lines.append(f"{level!r},{metric},{kind},{mean(means)!r},{mean(stds)!r}")
    return "\n".join(lines) + "\n"


def emit_report(records: list[RunRecord], out_dir) -> list[Path]:
    """Write the table files of a record list and return their paths:
    ``summary.md`` unless every record is noisy (an empty list gets one),
    ``rank_tables.md`` and ``level_stats.csv`` if any record is noisy."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    noisy = [rec.noise_level > 0.0 for rec in records]
    tables = {}
    if not records or not all(noisy):
        tables["summary.md"] = summary_markdown(records)
    if any(noisy):
        tables["rank_tables.md"] = rank_tables_markdown(records)
        tables["level_stats.csv"] = level_stats_csv(records)
    for name, text in tables.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return [out_dir / name for name in tables]
