"""The ``bench`` command line: clean sweep, noise sweep, compare, report.

Progress goes to stderr, results to files and stdout. Exit code 0 on
success, 1 on any validation or IO error, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    PUBLISHED_TOP,
    _split_list,
    compare_to_reference,
    parse_config,
    run_clean_phase,
    run_noise_phase,
)
from .errors import DistbenchError
from .heap import keep_freed_heap
from .reports import (
    compare_markdown,
    emit_report,
    rank_tables_markdown,
    read_records_csv,
    summary_markdown,
    write_records_csv,
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


def _write_phase(result, records_path: Path) -> None:
    """A phase's records file, its tables beside it, then its skips on stderr."""
    write_records_csv(result.records, records_path)
    emit_report(result.records, records_path.parent)
    for skip in result.skips:
        level = f" level={skip.noise_level}" if skip.noise_level else ""
        print(f"skipped dataset={skip.dataset} metric={skip.metric}{level}: {skip.reason}",
              file=sys.stderr)


def cmd_clean(args) -> int:
    result = run_clean_phase(parse_config(args.config))
    _write_phase(result, Path(args.out) / "records.csv")
    print(summary_markdown(result.records), end="")
    return 0


def _noise_metrics(args):
    if args.metrics is not None:
        return _split_list(args.metrics)
    if args.published_top:
        return PUBLISHED_TOP
    return None  # run_noise_phase derives the top list from a clean phase


def cmd_noise(args) -> int:
    result = run_noise_phase(parse_config(args.config), top_metrics=_noise_metrics(args))
    out = Path(args.out)
    if result.clean is not None:
        _write_phase(result.clean, out / "records.csv")
    _write_phase(result, out / "noise_records.csv")
    print(rank_tables_markdown(result.records), end="")
    return 0


def cmd_compare(args) -> int:
    records = read_records_csv(args.records)
    others = None if args.metrics is None else list(_split_list(args.metrics))
    rows = compare_to_reference(records, args.reference, others,
                                noise_level=args.noise_level, alpha=args.alpha,
                                signed_rank=args.signed_rank)
    print(compare_markdown(args.reference, rows, args.alpha), end="")
    return 0


def cmd_report(args) -> int:
    records = read_records_csv(args.records)
    out = Path(args.out)
    if args.format == "csv":
        written = [write_records_csv(records, out / "records.csv")]
    else:
        written = emit_report(records, out)
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
