"""The ``bench`` command line: clean sweep, noise sweep, compare, report.

Progress goes to stderr, results to files and stdout. Exit code 0 on
success, 1 on any validation or IO error, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (
    PUBLISHED_TOP,
    CompareRow,
    compare_to_reference,
    parse_config,
    run_clean_phase,
    run_noise_phase,
)
from .errors import DistbenchError
from .heap import keep_freed_heap
from .reports import (
    rank_tables_markdown,
    read_records_csv,
    summary_markdown,
    write_records_csv,
    emit_report,
)


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="bench-out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="KNN distance-measure benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    clean = sub.add_parser("clean", help="run every metric on clean datasets")
    clean.add_argument("--config", required=True, help="experiment config file")
    _add_out(clean)
    clean.set_defaults(func=cmd_clean)

    noise = sub.add_parser("noise", help="run the top metrics under noise levels")
    noise.add_argument("--config", required=True, help="experiment config file")
    group = noise.add_mutually_exclusive_group()
    group.add_argument("--top", type=int, default=None,
                       help="pick the top N metrics from a fresh clean phase")
    group.add_argument("--metrics", default=None,
                       help="comma-separated metric abbreviations to run")
    group.add_argument("--published-top", action="store_true",
                       help="use the published top list instead of a clean phase")
    _add_out(noise)
    noise.set_defaults(func=cmd_noise)

    compare = sub.add_parser("compare", help="Wilcoxon p-values against a reference metric")
    compare.add_argument("--records", required=True, help="records CSV from a previous run")
    compare.add_argument("--reference", default="HasD", help="reference metric abbreviation")
    compare.add_argument("--metrics", default=None,
                         help="comma-separated metrics to compare (default: all present)")
    compare.add_argument("--noise-level", type=float, default=0.0)
    compare.add_argument("--alpha", type=float, default=0.05)
    compare.add_argument("--signed-rank", action="store_true",
                         help="use the paired signed-rank test instead of rank-sum")
    compare.set_defaults(func=cmd_compare)

    report = sub.add_parser("report", help="re-emit reports from a records CSV")
    report.add_argument("--records", required=True, help="records CSV from a previous run")
    report.add_argument("--format", required=True, choices=("csv", "markdown"))
    _add_out(report)
    report.set_defaults(func=cmd_report)

    return parser


def cmd_clean(args) -> int:
    cfg = parse_config(args.config)
    result = run_clean_phase(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_records_csv(result.records, out / "records.csv")
    (out / "summary.md").write_text(summary_markdown(result.records), encoding="utf-8")
    for skip in result.skips:
        print(f"skipped dataset={skip.dataset} metric={skip.metric}: {skip.reason}",
              file=sys.stderr)
    print(summary_markdown(result.records), end="")
    return 0


def _noise_metrics(args, cfg):
    if args.metrics:
        return tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    if args.published_top:
        return PUBLISHED_TOP
    return None  # run_noise_phase derives the top list from a clean phase


def cmd_noise(args) -> int:
    cfg = parse_config(args.config)
    if args.top is not None:
        cfg = replace(cfg, top_n=args.top)
    result = run_noise_phase(cfg, top_metrics=_noise_metrics(args, cfg))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_records_csv(result.records, out / "noise_records.csv")
    (out / "rank_tables.md").write_text(rank_tables_markdown(result.records),
                                        encoding="utf-8")
    stats_lines = ["level,metric,kind,mean,stddev"]
    for (level, metric, kind), (mean, std) in sorted(result.level_stats.items()):
        stats_lines.append(f"{level!r},{metric},{kind},{mean!r},{std!r}")
    (out / "level_stats.csv").write_text("\n".join(stats_lines) + "\n", encoding="utf-8")
    for skip in result.skips:
        print(f"skipped dataset={skip.dataset} metric={skip.metric} "
              f"level={skip.noise_level}: {skip.reason}", file=sys.stderr)
    print(rank_tables_markdown(result.records), end="")
    return 0


def _format_compare(reference: str, rows: list[CompareRow], alpha: float) -> str:
    lines = [
        f"# Wilcoxon p-values: {reference} vs the other metrics "
        f"(two-sided, significance {alpha:g})",
        "",
        "| Metric | Accuracy | Recall | Precision |",
        "| --- | --- | --- | --- |",
    ]
    for row in rows:
        cells = []
        for kind in ("accuracy", "recall", "precision"):
            p = row.p_values[kind]
            cells.append(f"**{p:.4f}**" if row.significant[kind] else f"{p:.4f}")
        lines.append(f"| {row.metric} | {cells[0]} | {cells[1]} | {cells[2]} |")
    return "\n".join(lines) + "\n"


def cmd_compare(args) -> int:
    records = read_records_csv(args.records)
    others = None
    if args.metrics:
        others = [m.strip() for m in args.metrics.split(",") if m.strip()]
    rows = compare_to_reference(records, args.reference, others,
                                noise_level=args.noise_level, alpha=args.alpha,
                                signed_rank=args.signed_rank)
    print(_format_compare(args.reference, rows, args.alpha), end="")
    return 0


def cmd_report(args) -> int:
    records = read_records_csv(args.records)
    written = emit_report(records, args.format, args.out)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    keep_freed_heap()  # the command owns its process; see heap.py
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DistbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
