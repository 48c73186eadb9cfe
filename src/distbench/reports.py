"""Report emission: the records CSV and the markdown summary tables.

Floats in the CSV are written with repr so rereading them is exact and
two runs with the same seed produce byte-identical files. The CSV goes
through the ``csv`` module with minimal quoting, so a dataset name that
holds a comma or a quote reads back intact and any other name is written
bare. Markdown tables round to four decimals, matching the usual
presentation of accuracy results.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .bench import RunRecord, SCORE_KINDS, per_dataset_means, summarize
from .errors import ConfigError
from .evaluation import ScoreTriple, rank_distances

CSV_HEADER = "dataset,metric,noise_level,repetition,accuracy,precision,recall"


def _sorted_records(records: list[RunRecord]) -> list[RunRecord]:
    return sorted(records, key=lambda r: (r.dataset, r.metric, r.noise_level, r.repetition))


def records_to_csv(records: list[RunRecord]) -> str:
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
    path = Path(path)
    path.write_text(records_to_csv(records), encoding="utf-8")
    return path


def read_records_csv(path) -> list[RunRecord]:
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER.split(","):
        raise ConfigError(f"{path} is not a records CSV (bad header)")
    records = []
    for lineno, cells in enumerate(rows[1:], start=2):
        if not "".join(cells).strip():
            continue
        if len(cells) != 7:
            raise ConfigError(f"{path}:{lineno}: expected 7 fields, got {len(cells)}")
        try:
            records.append(RunRecord(
                dataset=cells[0],
                metric=cells[1],
                noise_level=float(cells[2]),
                repetition=int(cells[3]),
                scores=ScoreTriple(float(cells[4]), float(cells[5]), float(cells[6])),
            ))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return records


def summary_markdown(records: list[RunRecord], level: float = 0.0) -> str:
    """Per-metric mean accuracy/recall/precision table, best accuracy first."""
    rows = summarize(records, level=level)
    lines = [
        f"# Mean scores per metric (noise level {level:g})",
        "",
        "| Metric | Accuracy | Recall | Precision |",
        "| --- | --- | --- | --- |",
    ]
    for row in rows:
        lines.append(f"| {row.metric} | {row.accuracy:.4f} | {row.recall:.4f} "
                     f"| {row.precision:.4f} |")
    return "\n".join(lines) + "\n"


def rank_tables_markdown(records: list[RunRecord]) -> str:
    """Per-noise-level ranking of metrics for each score kind."""
    levels = sorted({rec.noise_level for rec in records})
    lines = ["# Metric rankings per noise level", ""]
    for kind in SCORE_KINDS:
        lines.append(f"## Ranking by {kind}")
        lines.append("")
        for level in levels:
            means = per_dataset_means(records, kind, level)
            table = rank_distances({m: list(v.values()) for m, v in means.items()})
            lines.append(f"### Noise level {level:g}")
            lines.append("")
            lines.append(f"| Rank | Metric | Mean {kind} |")
            lines.append("| --- | --- | --- |")
            for row in table:
                lines.append(f"| {row.rank} | {row.metric} | {row.mean:.4f} |")
            lines.append("")
    return "\n".join(lines) + "\n"


def emit_report(records: list[RunRecord], format: str, out_dir) -> list[Path]:
    """Write the report files for a record list; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if format == "csv":
        return [write_records_csv(records, out_dir / "records.csv")]
    if format == "markdown":
        written = []
        summary_path = out_dir / "summary.md"
        levels = sorted({rec.noise_level for rec in records})
        base_level = 0.0 if 0.0 in levels else (levels[0] if levels else 0.0)
        if records:
            summary_path.write_text(summary_markdown(records, level=base_level),
                                    encoding="utf-8")
        else:
            summary_path.write_text("# Mean scores per metric\n\n(no records)\n",
                                    encoding="utf-8")
        written.append(summary_path)
        if any(rec.noise_level > 0.0 for rec in records):
            ranks_path = out_dir / "rank_tables.md"
            ranks_path.write_text(rank_tables_markdown(records), encoding="utf-8")
            written.append(ranks_path)
        return written
    raise ConfigError(f"unknown report format {format!r}")
